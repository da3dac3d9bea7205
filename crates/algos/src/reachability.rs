//! Temporal reachability over a churning topology (`isExists`-aware).
//!
//! §II.B describes traversal "along the time dimension" via virtual temporal
//! edges, and §II.A introduces the `isExists` convention for slow topology
//! churn. This algorithm combines both: starting from a source vertex at
//! `t0`, a vertex is *reached* at timestep `t` if some already-reached
//! vertex is its neighbour and **both endpoints exist** in instance `gᵗ`.
//! Reached status persists (the traveller waits out a vertex's disappearance
//! at the vertex — information, once delivered, is not lost).
//!
//! Emits `(vertex, first_reached_timestep)`; the counter
//! [`TemporalReachability::REACHED`] tracks per-timestep progress.
//!
//! **Termination.** Under `WhileActive`, a subgraph casts
//! `VoteToHaltTimestep` only once all its vertices are reached; while one
//! is not, its withheld vote keeps the loop running, and it sends nothing
//! across timesteps. It never sleeps: superstep 0 resumes from every
//! reached vertex, and an `isExists` flip can reopen a path without any
//! message arriving.

use tempograph_core::wire::{self, WireError, WireMsg};
use tempograph_core::VertexIdx;
use tempograph_engine::{Context, Envelope, SubgraphProgram};
use tempograph_partition::Subgraph;

/// The temporal-reachability program; instantiate via
/// [`TemporalReachability::factory`].
pub struct TemporalReachability {
    source: VertexIdx,
    exists_col: usize,
    /// Reached flags by local position (persist across timesteps).
    reached: Vec<bool>,
    newly: Vec<u32>,
}

impl TemporalReachability {
    /// Per-timestep counter of newly reached vertices.
    pub const REACHED: &'static str = "temporal_reached";

    /// Build a per-subgraph factory from `source`, reading existence from
    /// the `Bool` vertex attribute at `exists_col` (conventionally
    /// `GraphTemplate::IS_EXISTS`).
    pub fn factory(
        source: VertexIdx,
        exists_col: usize,
    ) -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> TemporalReachability {
        move |sg, _| TemporalReachability {
            source,
            exists_col,
            reached: vec![false; sg.num_vertices()],
            newly: Vec::new(),
        }
    }

    /// BFS from `roots` over *currently existing* vertices; returns remote
    /// notifications.
    fn existing_bfs(
        &mut self,
        ctx: &mut Context<'_, VertexIdx>,
        roots: Vec<u32>,
    ) -> Vec<(tempograph_partition::SubgraphId, VertexIdx)> {
        let instance = ctx.instance();
        let sg = ctx.subgraph();
        let exists = instance
            .vertex_bool(self.exists_col)
            .expect("isExists must be a Bool vertex column");

        let mut remote = Vec::new();
        let mut stack = roots;
        while let Some(u) = stack.pop() {
            // A vanished vertex holds its knowledge but cannot transmit.
            if !exists[u as usize] {
                continue;
            }
            for &(v, _e) in sg.local_neighbors(u) {
                if !self.reached[v as usize] && exists[v as usize] {
                    self.reached[v as usize] = true;
                    self.newly.push(v);
                    stack.push(v);
                }
            }
            for rn in sg.remote_neighbors(u) {
                remote.push((rn.subgraph, rn.vertex));
            }
        }
        remote.sort_unstable();
        remote.dedup();
        remote
    }
}

impl SubgraphProgram for TemporalReachability {
    type Msg = VertexIdx;

    fn compute(&mut self, ctx: &mut Context<'_, VertexIdx>, msgs: &[Envelope<VertexIdx>]) {
        let roots: Vec<u32> = if ctx.superstep() == 0 {
            if ctx.timestep() == 0 {
                if let Some(pos) = ctx.subgraph().local_pos(self.source) {
                    let instance = ctx.instance();
                    let exists = instance.vertex_bool(self.exists_col).expect("isExists");
                    if exists[pos as usize] {
                        self.reached[pos as usize] = true;
                        self.newly.push(pos);
                        vec![pos]
                    } else {
                        Vec::new()
                    }
                } else {
                    Vec::new()
                }
            } else {
                // Resume from everything reached so far.
                (0..self.reached.len() as u32)
                    .filter(|&p| self.reached[p as usize])
                    .collect()
            }
        } else {
            let instance = ctx.instance();
            let exists = instance.vertex_bool(self.exists_col).expect("isExists");
            let mut roots = Vec::new();
            for e in msgs {
                let pos = ctx
                    .subgraph()
                    .local_pos(e.payload)
                    .expect("notification targets member");
                if !self.reached[pos as usize] && exists[pos as usize] {
                    self.reached[pos as usize] = true;
                    self.newly.push(pos);
                    roots.push(pos);
                }
            }
            roots
        };

        if !roots.is_empty() {
            for (sgid, v) in self.existing_bfs(ctx, roots) {
                ctx.send_to_subgraph(sgid, v);
            }
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, VertexIdx>) {
        let newly = std::mem::take(&mut self.newly);
        if !newly.is_empty() {
            ctx.add_counter(Self::REACHED, newly.len() as u64);
            for pos in newly {
                ctx.emit(ctx.subgraph().vertex_at(pos), ctx.timestep() as f64);
            }
        }
        if self.reached.iter().all(|&r| r) {
            ctx.vote_to_halt_timestep();
        }
    }

    // `source` and `exists_col` are configuration, rebuilt by the factory;
    // `newly` is empty at every timestep boundary.
    fn save_state(&self, buf: &mut bytes::BytesMut) {
        self.reached.encode(buf);
    }

    fn restore_state(&mut self, buf: &mut bytes::Bytes) -> Result<(), WireError> {
        self.reached = wire::get_sized_vec(buf, self.reached.len(), "reached flags")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reached flags, a byte per vertex behind a `u32` count.
    #[test]
    fn state_bytes_are_pinned() {
        let p = TemporalReachability {
            source: VertexIdx(0),
            exists_col: 0,
            reached: vec![false, true, true],
            newly: Vec::new(),
        };
        assert_eq!(crate::saved_state(&p), [3, 0, 0, 0, 0, 1, 1]);
    }
}
