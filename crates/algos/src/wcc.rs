//! Weakly Connected Components — subgraph-centric label propagation.
//!
//! Each subgraph is internally connected by construction, so it carries a
//! single component label: initially the minimum external vertex id of its
//! members. Supersteps exchange labels over remote edges and keep the
//! minimum (hash-min over the *subgraph* graph), converging in
//! `O(subgraph-graph diameter)` supersteps — the canonical demonstration of
//! why subgraph-centric beats vertex-centric on high-diameter graphs \[11\].

use tempograph_core::wire::{WireError, WireMsg};
use tempograph_engine::{Context, Envelope, SubgraphProgram};
use tempograph_partition::{Subgraph, SubgraphId};

/// The WCC program; instantiate via [`Wcc::factory`].
pub struct Wcc {
    /// Current component label: min external vertex id seen so far.
    label: u64,
    changed: bool,
}

impl Wcc {
    /// Build a per-subgraph factory.
    pub fn factory() -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> Wcc {
        |sg, pg| Wcc {
            label: sg
                .vertices()
                .iter()
                .map(|&v| pg.template().vertex_id(v))
                .min()
                .unwrap_or(u64::MAX),
            changed: true,
        }
    }
}

impl SubgraphProgram for Wcc {
    type Msg = u64;

    fn compute(&mut self, ctx: &mut Context<'_, u64>, msgs: &[Envelope<u64>]) {
        if ctx.superstep() > 0 {
            self.changed = false;
            for e in msgs {
                if e.payload < self.label {
                    self.label = e.payload;
                    self.changed = true;
                }
            }
        }
        if self.changed {
            // Broadcast to every neighbouring subgraph (deduplicated).
            let mut targets: Vec<SubgraphId> = Vec::new();
            for pos in ctx.subgraph().positions() {
                for rn in ctx.subgraph().remote_neighbors(pos) {
                    targets.push(rn.subgraph);
                }
            }
            targets.sort_unstable();
            targets.dedup();
            for t in targets {
                ctx.send_to_subgraph(t, self.label);
            }
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, u64>) {
        // One emit per vertex: its component label.
        let verts: Vec<tempograph_core::VertexIdx> = ctx.subgraph().vertices().to_vec();
        for v in verts {
            ctx.emit(v, self.label as f64);
        }
        ctx.vote_to_halt_timestep();
    }

    fn save_state(&self, buf: &mut bytes::BytesMut) {
        (self.label, self.changed).encode(buf);
    }

    fn restore_state(&mut self, buf: &mut bytes::Bytes) -> Result<(), WireError> {
        (self.label, self.changed) = WireMsg::decode(buf)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The label, then the changed flag as one byte.
    #[test]
    fn state_bytes_are_pinned() {
        let p = Wcc {
            label: 0x0102,
            changed: true,
        };
        assert_eq!(crate::saved_state(&p), [2, 1, 0, 0, 0, 0, 0, 0, 1]);
    }
}
