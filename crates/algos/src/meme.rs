//! Meme Tracking (paper §III.B, Algorithm 1).
//!
//! A temporal BFS for a meme `µ` over space and time: at `t0` every vertex
//! already carrying the meme seeds the coloured set; at each later instance
//! the BFS resumes from the cumulative coloured set `C*` and expands along
//! contiguous vertices whose *current* tweets contain the meme, crossing
//! into neighbouring subgraphs through remote-edge notifications. Each
//! timestep's newly coloured frontier `Cₜ` is emitted (vertex, timestep),
//! reproducing the paper's "when did the meme first reach each user"
//! output and the Fig. 7c per-timestep colouring counts.

use tempograph_core::VertexIdx;
use tempograph_engine::{Combiner, Context, Envelope, SubgraphProgram};
use tempograph_partition::Subgraph;

/// Sender-side dedup-combiner for meme notifications: a notification is
/// just the target vertex id, so duplicates bound for the same vertex
/// (from different subgraphs of one partition) collapse to one. "Keep the
/// first of identical payloads" is trivially associative and commutative,
/// and the receiver ignores repeat notifications anyway.
pub struct MemeDedupCombiner;

impl Combiner<VertexIdx> for MemeDedupCombiner {
    fn key(&self, msg: &VertexIdx) -> Option<u64> {
        Some(msg.0 as u64)
    }

    fn combine(&self, _acc: &mut VertexIdx, _incoming: VertexIdx) {
        // Payloads with equal keys are identical; keep the accumulator.
    }
}

/// The meme-tracking program; instantiate via [`MemeTracking::factory`].
pub struct MemeTracking {
    meme: String,
    tweets_col: usize,
    /// Cumulative coloured set `C*`, by local position.
    colored: Vec<bool>,
    /// Positions coloured during the current timestep (`Cₜ`).
    newly_colored: Vec<u32>,
}

impl MemeTracking {
    /// Build a per-subgraph factory tracking `meme`, reading tweets from the
    /// `TextList` vertex attribute at `tweets_col`.
    pub fn factory(
        meme: impl Into<String>,
        tweets_col: usize,
    ) -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> MemeTracking {
        let meme = meme.into();
        move |sg, _| MemeTracking {
            meme: meme.clone(),
            tweets_col,
            colored: vec![false; sg.num_vertices()],
            newly_colored: Vec::new(),
        }
    }

    /// Name of the counter tracking vertices coloured per timestep
    /// (the paper's Fig. 7c series).
    pub const COLORED: &'static str = "meme_colored";

    /// BFS from `roots` along vertices whose current tweets contain the
    /// meme. Colours newly reached meme vertices; returns remote-edge
    /// notifications `(subgraph, vertex)` from meme-carrying vertices.
    fn meme_bfs(
        &mut self,
        ctx: &mut Context<'_, VertexIdx>,
        roots: Vec<u32>,
    ) -> Vec<(tempograph_partition::SubgraphId, VertexIdx)> {
        let instance = ctx.instance();
        let sg = ctx.subgraph();
        let tweets = instance
            .vertex_text_list(self.tweets_col)
            .expect("tweets attribute must be a TextList vertex column");
        let has_meme = |pos: u32| tweets.row(pos as usize).any(|t| t == self.meme);

        let mut remote: Vec<(tempograph_partition::SubgraphId, VertexIdx)> = Vec::new();
        let mut stack = roots;
        let mut queued = vec![false; sg.num_vertices()];
        for &r in &stack {
            queued[r as usize] = true;
        }
        while let Some(u) = stack.pop() {
            // Expand to local neighbours that carry the meme now.
            for &(v, _e) in sg.local_neighbors(u) {
                if !self.colored[v as usize] && !queued[v as usize] && has_meme(v) {
                    self.colored[v as usize] = true;
                    self.newly_colored.push(v);
                    queued[v as usize] = true;
                    stack.push(v);
                }
            }
            // Notify subgraphs across remote edges so they resume the
            // traversal next superstep (Algorithm 1 lines 11–13).
            for rn in sg.remote_neighbors(u) {
                remote.push((rn.subgraph, rn.vertex));
            }
        }
        remote.sort_unstable_by_key(|&(sgid, v)| (sgid, v));
        remote.dedup();
        remote
    }
}

impl SubgraphProgram for MemeTracking {
    type Msg = VertexIdx;

    fn compute(&mut self, ctx: &mut Context<'_, VertexIdx>, msgs: &[Envelope<VertexIdx>]) {
        let roots: Vec<u32> = if ctx.superstep() == 0 {
            if ctx.timestep() == 0 {
                // Seed: vertices already carrying the meme at t0
                // (Algorithm 1 line 4).
                let instance = ctx.instance();
                let tweets = instance
                    .vertex_text_list(self.tweets_col)
                    .expect("tweets attribute must be a TextList vertex column");
                let mut seeds = Vec::new();
                for pos in ctx.subgraph().positions() {
                    if tweets.row(pos as usize).any(|t| t == self.meme) {
                        self.colored[pos as usize] = true;
                        self.newly_colored.push(pos);
                        seeds.push(pos);
                    }
                }
                seeds
            } else {
                // Resume from the cumulative coloured set C*
                // (Algorithm 1 line 6).
                (0..self.colored.len() as u32)
                    .filter(|&p| self.colored[p as usize])
                    .collect()
            }
        } else {
            // Remote notifications: adopt vertices that carry the meme now
            // (Algorithm 1 line 8).
            let instance = ctx.instance();
            let tweets = instance
                .vertex_text_list(self.tweets_col)
                .expect("tweets attribute");
            let mut roots = Vec::new();
            for e in msgs {
                let pos = ctx
                    .subgraph()
                    .local_pos(e.payload)
                    .expect("notification targets a member vertex");
                if !self.colored[pos as usize] && tweets.row(pos as usize).any(|t| t == self.meme) {
                    self.colored[pos as usize] = true;
                    self.newly_colored.push(pos);
                    roots.push(pos);
                }
            }
            roots
        };

        if !roots.is_empty() {
            for (sgid, v) in self.meme_bfs(ctx, roots) {
                ctx.send_to_subgraph(sgid, v);
            }
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, VertexIdx>) {
        // Print the horizon C_t (Algorithm 1 lines 17–20).
        let newly = std::mem::take(&mut self.newly_colored);
        if !newly.is_empty() {
            ctx.add_counter(Self::COLORED, newly.len() as u64);
            for pos in newly {
                ctx.emit(ctx.subgraph().vertex_at(pos), ctx.timestep() as f64);
            }
        }
        ctx.vote_to_halt_timestep();
    }

    // `meme` and `tweets_col` are configuration, rebuilt by the factory;
    // the cumulative coloured set C* (and any frontier not yet flushed by
    // `end_of_timestep`) is the recoverable state.
    fn save_state(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        buf.put_u32_le(self.colored.len() as u32);
        for &c in &self.colored {
            buf.put_u8(c as u8);
        }
        buf.put_u32_le(self.newly_colored.len() as u32);
        for &p in &self.newly_colored {
            buf.put_u32_le(p);
        }
    }

    fn restore_state(&mut self, buf: &mut bytes::Bytes) {
        use bytes::Buf;
        let n = buf.get_u32_le() as usize;
        self.colored = (0..n).map(|_| buf.get_u8() != 0).collect();
        let n = buf.get_u32_le() as usize;
        self.newly_colored = (0..n).map(|_| buf.get_u32_le()).collect();
    }
}

#[cfg(test)]
mod tests {
    // Engine-level behaviour is exercised in the workspace integration
    // tests; here we only check factory wiring.
    use super::*;
    use std::sync::Arc;
    use tempograph_core::{AttrType, TemplateBuilder};
    use tempograph_partition::{discover_subgraphs, Partitioning};

    #[test]
    fn factory_sizes_state_to_subgraph() {
        let mut b = TemplateBuilder::new("t", false);
        b.vertex_schema().add("tweets", AttrType::TextList);
        for i in 0..5 {
            b.add_vertex(i);
        }
        b.add_edge(0, 0, 1).unwrap();
        let t = Arc::new(b.finalize().unwrap());
        let pg = discover_subgraphs(
            t,
            Partitioning {
                assignment: vec![0; 5],
                k: 1,
            },
        );
        let factory = MemeTracking::factory("#x", 0);
        for sg in pg.subgraphs() {
            let p = factory(sg, &pg);
            assert_eq!(p.colored.len(), sg.num_vertices());
            assert_eq!(p.meme, "#x");
        }
    }
}
