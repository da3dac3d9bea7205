//! Single-instance, subgraph-centric SSSP — the paper's §IV.C baseline.
//!
//! Runs on one graph instance (pattern: independent, one timestep): each
//! subgraph runs an internal Dijkstra from its current root set and sends
//! relaxations over remote edges; the BSP converges when no relaxation
//! improves any label — the classic subgraph-centric SSSP of GoFFish \[11\].
//!
//! With `latency_col = None` all edges weigh 1, degenerating to BFS — the
//! exact configuration the paper uses for its Giraph comparison ("running
//! SSSP on an unweighted graph degenerates to a BFS traversal"). Otherwise
//! an edge's weight is read in place at the row its adjacency entry names.

use crate::tdsp::ordered_f64::F64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tempograph_core::wire::{self, WireError, WireMsg};
use tempograph_core::VertexIdx;
use tempograph_engine::{Combiner, Context, Envelope, SubgraphProgram};
use tempograph_partition::Subgraph;

/// Sender-side min-combiner for SSSP relaxations: several distances bound
/// for the same vertex collapse to the smallest. The receiver takes the
/// minimum anyway, so results are identical with or without it.
pub struct SsspCombiner;

impl Combiner<(VertexIdx, f64)> for SsspCombiner {
    fn key(&self, msg: &(VertexIdx, f64)) -> Option<u64> {
        Some(msg.0 .0 as u64)
    }

    fn combine(&self, acc: &mut (VertexIdx, f64), incoming: (VertexIdx, f64)) {
        if incoming.1 < acc.1 {
            acc.1 = incoming.1;
        }
    }
}

/// The SSSP/BFS program; instantiate via [`Sssp::factory`].
pub struct Sssp {
    source: VertexIdx,
    /// Edge-latency column; `None` ⇒ unit weights (BFS).
    latency_col: Option<usize>,
    /// Tentative distances by local position.
    label: Vec<f64>,
    /// Local positions to start the next Dijkstra sweep from.
    roots: Vec<u32>,
}

impl Sssp {
    /// Build a per-subgraph factory for an SSSP from `source`. Pass
    /// `Some(col)` to weight edges by a `Double` edge attribute, `None`
    /// for unit weights.
    pub fn factory(
        source: VertexIdx,
        latency_col: Option<usize>,
    ) -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> Sssp {
        move |sg, _| Sssp {
            source,
            latency_col,
            label: vec![f64::INFINITY; sg.num_vertices()],
            roots: Vec::new(),
        }
    }

    /// Counter: vertices settled (label assigned at least once).
    pub const SETTLED: &'static str = "sssp_settled";
}

impl SubgraphProgram for Sssp {
    type Msg = (VertexIdx, f64);

    fn compute(
        &mut self,
        ctx: &mut Context<'_, (VertexIdx, f64)>,
        msgs: &[Envelope<(VertexIdx, f64)>],
    ) {
        if ctx.superstep() == 0 {
            if let Some(pos) = ctx.subgraph().local_pos(self.source) {
                self.label[pos as usize] = 0.0;
                self.roots.push(pos);
            }
        } else {
            for e in msgs {
                let (v, d) = e.payload;
                let pos = ctx
                    .subgraph()
                    .local_pos(v)
                    .expect("relaxation targets a member vertex");
                if d < self.label[pos as usize] {
                    self.label[pos as usize] = d;
                    self.roots.push(pos);
                }
            }
        }

        if !self.roots.is_empty() {
            let instance = ctx.instance();
            let sg = ctx.subgraph();
            let latencies = self
                .latency_col
                .map(|c| instance.edge_f64_cells(c).expect("latency must be Double"));
            // An adjacency entry names its edge by its row in the columns.
            let weight = |row: u32| -> f64 { latencies.map_or(1.0, |l| l.get(row as usize)) };

            let mut heap: BinaryHeap<Reverse<(F64, u32)>> = BinaryHeap::new();
            for &r in &self.roots {
                heap.push(Reverse((F64(self.label[r as usize]), r)));
            }
            self.roots.clear();

            let mut remote: std::collections::HashMap<
                VertexIdx,
                (tempograph_partition::SubgraphId, f64),
            > = std::collections::HashMap::new();
            while let Some(Reverse((F64(d), u))) = heap.pop() {
                if d > self.label[u as usize] {
                    continue;
                }
                for &(v, row) in sg.local_neighbors(u) {
                    let nd = d + weight(row);
                    if nd < self.label[v as usize] {
                        self.label[v as usize] = nd;
                        heap.push(Reverse((F64(nd), v)));
                    }
                }
                for rn in sg.remote_neighbors(u) {
                    let nd = d + weight(rn.row);
                    let entry = remote
                        .entry(rn.vertex)
                        .or_insert((rn.subgraph, f64::INFINITY));
                    if nd < entry.1 {
                        *entry = (rn.subgraph, nd);
                    }
                }
            }
            let mut out: Vec<_> = remote.into_iter().collect();
            out.sort_by_key(|a| a.0);
            for (v, (sgid, d)) in out {
                ctx.send_to_subgraph(sgid, (v, d));
            }
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, (VertexIdx, f64)>) {
        let mut settled = 0u64;
        for pos in 0..self.label.len() {
            if self.label[pos].is_finite() {
                ctx.emit(ctx.subgraph().vertex_at(pos as u32), self.label[pos]);
                settled += 1;
            }
        }
        if settled > 0 {
            ctx.add_counter(Self::SETTLED, settled);
        }
        ctx.vote_to_halt_timestep();
    }

    // `source` and `latency_col` are configuration, rebuilt by the factory;
    // only the mutable labels and pending roots need to cross a checkpoint.
    fn save_state(&self, buf: &mut bytes::BytesMut) {
        self.label.encode(buf);
        self.roots.encode(buf);
    }

    fn restore_state(&mut self, buf: &mut bytes::Bytes) -> Result<(), WireError> {
        self.label = wire::get_sized_vec(buf, self.label.len(), "sssp labels")?;
        self.roots = Vec::decode(buf)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The labels as `f64` bits, then the roots, each behind a `u32`
    /// count.
    #[test]
    fn state_bytes_are_pinned() {
        let p = Sssp {
            source: VertexIdx(0),
            latency_col: None,
            label: vec![0.0, 2.5, f64::INFINITY],
            roots: vec![1],
        };
        let want = [
            3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0x40, 0, 0, 0, 0, 0, 0, 0xF0,
            0x7F, 1, 0, 0, 0, 1, 0, 0, 0,
        ];
        assert_eq!(crate::saved_state(&p), want);
    }

    #[test]
    fn factory_initializes_infinite_labels() {
        use tempograph_core::{AttrType, TemplateBuilder};
        use tempograph_partition::{discover_subgraphs, Partitioning};
        let mut b = TemplateBuilder::new("t", false);
        b.edge_schema().add("w", AttrType::Double);
        for i in 0..3 {
            b.add_vertex(i);
        }
        b.add_edge(0, 0, 1).unwrap();
        b.add_edge(1, 1, 2).unwrap();
        let t = std::sync::Arc::new(b.finalize().unwrap());
        let pg = discover_subgraphs(
            t,
            Partitioning {
                assignment: vec![0, 0, 0],
                k: 1,
            },
        );
        let p = Sssp::factory(VertexIdx(0), Some(0))(&pg.subgraphs()[0], &pg);
        assert!(p.label.iter().all(|l| l.is_infinite()));
    }
}
