//! Per-instance Top-N activity — the independent pattern (§II.B).
//!
//! The paper motivates the independent pattern with "finding the daily
//! Top-N central vertices in a year … in a pleasingly temporally parallel
//! manner". This program finds, per timestep, the N vertices with the most
//! tweets in each subgraph and emits them — every instance is processed in
//! isolation.

use tempograph_core::kernels;
use tempograph_engine::{Context, Envelope, SubgraphProgram};
use tempograph_partition::Subgraph;

/// The Top-N program; instantiate via [`TopNActivity::factory`].
pub struct TopNActivity {
    n: usize,
    tweets_col: usize,
}

impl TopNActivity {
    /// Build a per-subgraph factory reporting the top `n` most-active
    /// vertices per timestep, by tweet count in the `TextList` vertex
    /// attribute at `tweets_col`.
    pub fn factory(
        n: usize,
        tweets_col: usize,
    ) -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> TopNActivity {
        move |_, _| TopNActivity { n, tweets_col }
    }

    /// Counter: total tweets observed per timestep.
    pub const TWEETS: &'static str = "topn_tweets";
}

impl SubgraphProgram for TopNActivity {
    type Msg = ();

    fn compute(&mut self, ctx: &mut Context<'_, ()>, _msgs: &[Envelope<()>]) {
        if ctx.superstep() == 0 {
            let instance = ctx.instance();
            let sg = ctx.subgraph();
            let tweets = instance
                .vertex_text_list(self.tweets_col)
                .expect("tweets attribute must be a TextList vertex column");
            let lens: Vec<u64> = tweets.iter().map(|row| row.len() as u64).collect();
            let total = kernels::sum_u64(&lens);
            // `top_n_desc` orders by (count desc, position asc) — the same
            // tie order the old full sort produced — and zero counts sort
            // last, so cutting at the first zero drops inactive vertices.
            let top: Vec<(tempograph_core::VertexIdx, f64)> = kernels::top_n_desc(&lens, self.n)
                .into_iter()
                .take_while(|&(_, count)| count > 0)
                .map(|(pos, count)| (sg.vertex_at(pos as u32), count as f64))
                .collect();
            for (v, count) in top {
                ctx.emit(v, count);
            }
            if total > 0 {
                ctx.add_counter(Self::TWEETS, total);
            }
        }
        ctx.vote_to_halt();
    }
}
