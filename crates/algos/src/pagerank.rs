//! Subgraph-centric PageRank (extension; cf. the paper's reference \[12\],
//! "SubGraph Rank: PageRank for subgraph-centric distributed graph
//! processing").
//!
//! One superstep per PageRank iteration: each vertex scatters
//! `rank/out_degree` along its out-edges; intra-subgraph contributions are
//! applied immediately in memory, cross-subgraph contributions travel as
//! batched `(vertex, contribution)` messages. Runs a fixed number of
//! iterations on a single instance (pattern: independent, one timestep).

use std::collections::HashMap;
use tempograph_core::VertexIdx;
use tempograph_engine::{Context, Envelope, SubgraphProgram};
use tempograph_partition::Subgraph;

/// The PageRank program; instantiate via [`PageRank::factory`].
pub struct PageRank {
    iterations: usize,
    damping: f64,
    /// Total vertex count of the template (for uniform init/teleport).
    n: f64,
    /// Current ranks by local position.
    rank: Vec<f64>,
    /// Incoming contributions accumulated for the next iteration.
    incoming: Vec<f64>,
}

impl PageRank {
    /// Build a per-subgraph factory running `iterations` iterations with
    /// the standard damping factor 0.85.
    pub fn factory(
        iterations: usize,
    ) -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> PageRank {
        move |sg, pg| {
            let n = pg.template().num_vertices() as f64;
            PageRank {
                iterations,
                damping: 0.85,
                n,
                rank: vec![1.0 / n; sg.num_vertices()],
                incoming: vec![0.0; sg.num_vertices()],
            }
        }
    }
}

impl SubgraphProgram for PageRank {
    type Msg = Vec<(VertexIdx, f64)>;

    fn compute(
        &mut self,
        ctx: &mut Context<'_, Vec<(VertexIdx, f64)>>,
        msgs: &[Envelope<Vec<(VertexIdx, f64)>>],
    ) {
        let sg = ctx.subgraph();
        // Fold remote contributions from the previous iteration.
        for e in msgs {
            for &(v, c) in &e.payload {
                let pos = sg.local_pos(v).expect("contribution targets member") as usize;
                self.incoming[pos] += c;
            }
        }
        if ctx.superstep() > 0 {
            // Finish iteration `superstep-1`: apply teleport + damping.
            for pos in 0..self.rank.len() {
                self.rank[pos] = (1.0 - self.damping) / self.n + self.damping * self.incoming[pos];
                self.incoming[pos] = 0.0;
            }
        }
        if ctx.superstep() == self.iterations {
            ctx.vote_to_halt();
            return;
        }

        // Scatter this iteration's contributions. Out-degree counts both
        // local and remote out-edges.
        let mut remote_batches: HashMap<tempograph_partition::SubgraphId, Vec<(VertexIdx, f64)>> =
            HashMap::new();
        for pos in 0..self.rank.len() as u32 {
            let local = sg.local_neighbors(pos);
            let remote = sg.remote_neighbors(pos);
            let deg = local.len() + remote.len();
            if deg == 0 {
                continue; // dangling mass is ignored (standard simplification)
            }
            let share = self.rank[pos as usize] / deg as f64;
            for &(v, _) in local {
                self.incoming[v as usize] += share;
            }
            for rn in remote {
                remote_batches
                    .entry(rn.subgraph)
                    .or_default()
                    .push((rn.vertex, share));
            }
        }
        let mut targets: Vec<_> = remote_batches.into_iter().collect();
        targets.sort_by_key(|(sgid, _)| *sgid);
        for (sgid, batch) in targets {
            ctx.send_to_subgraph(sgid, batch);
        }
        // Keep the BSP alive for the next iteration even without messages.
        if ctx.subgraph().num_remote_edges() == 0 {
            ctx.send_to_subgraph(ctx.subgraph().id(), Vec::new());
        }
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, Vec<(VertexIdx, f64)>>) {
        for pos in 0..self.rank.len() as u32 {
            ctx.emit(ctx.subgraph().vertex_at(pos), self.rank[pos as usize]);
        }
        ctx.vote_to_halt_timestep();
    }
}
