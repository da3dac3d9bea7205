//! Hashtag Aggregation (paper §III.A) — the eventually dependent pattern.
//!
//! Every timestep, each subgraph counts occurrences of one hashtag among its
//! vertices' tweets and ships the count to Merge via `SendMessageToMerge`.
//! In the Merge BSP each subgraph assembles its per-timestep `hash[]` list
//! (one message per timestep, delivered in order) and forwards it to the
//! largest subgraph of partition 0 — the paper's stand-in for a
//! `Master.Compute` — which aggregates all lists element-wise.
//!
//! The master emits one value per timestep: `emit(VertexIdx(t), count_t)`
//! (the vertex field carries the timestep index; this is the algorithm's
//! tabular output, not a per-vertex result).
//!
//! The count is `SubgraphInstance::vertex_text_count_eq`, which decodes no
//! `tweets` column on a GoFS store. A pack base walks its stored record in
//! place once and keeps the rows holding the tag; each delta instance
//! walks its own record — a sparse one as the base's count, less the
//! base's matches in the patched rows, plus the patch's.

use tempograph_core::{kernels, VertexIdx};
use tempograph_engine::{Combiner, Context, Envelope, SubgraphProgram};
use tempograph_partition::Subgraph;

/// Sender-side sum-combiner for the Merge BSP: the per-timestep count
/// vectors every subgraph forwards to the master are summed element-wise
/// per partition before crossing the wire, so the master receives one
/// partial-sum vector per partition instead of one vector per subgraph.
/// Element-wise addition is associative and commutative, and the master
/// sums whatever it receives — totals are unchanged. (The per-timestep
/// `SendMessageToMerge` counts never pass through routing, so their
/// chronological ordering is untouched.)
pub struct HashtagSumCombiner;

impl Combiner<Vec<u64>> for HashtagSumCombiner {
    fn key(&self, _msg: &Vec<u64>) -> Option<u64> {
        Some(0)
    }

    fn combine(&self, acc: &mut Vec<u64>, incoming: Vec<u64>) {
        if incoming.len() > acc.len() {
            acc.resize(incoming.len(), 0);
        }
        kernels::add_assign_u64(acc, &incoming);
    }
}

/// The hashtag-aggregation program; instantiate via
/// [`HashtagAggregation::factory`].
pub struct HashtagAggregation {
    hashtag: String,
    tweets_col: usize,
}

impl HashtagAggregation {
    /// Build a per-subgraph factory counting `hashtag` occurrences in the
    /// `TextList` vertex attribute at `tweets_col`.
    pub fn factory(
        hashtag: impl Into<String>,
        tweets_col: usize,
    ) -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> HashtagAggregation {
        let hashtag = hashtag.into();
        move |_, _| HashtagAggregation {
            hashtag: hashtag.clone(),
            tweets_col,
        }
    }

    /// Merge-phase counter holding the total count across all timesteps.
    pub const TOTAL: &'static str = "hashtag_total";
}

impl SubgraphProgram for HashtagAggregation {
    type Msg = Vec<u64>;

    fn compute(&mut self, ctx: &mut Context<'_, Vec<u64>>, _msgs: &[Envelope<Vec<u64>>]) {
        if ctx.superstep() == 0 {
            let count = (ctx.instance())
                .vertex_text_count_eq(self.tweets_col, &self.hashtag)
                .expect("tweets attribute must be a TextList vertex column");
            ctx.send_to_merge(vec![count]);
        }
        ctx.vote_to_halt();
    }

    fn merge(&mut self, ctx: &mut Context<'_, Vec<u64>>, msgs: &[Envelope<Vec<u64>>]) {
        let master = ctx
            .partitioned_graph()
            .largest_subgraph_in_partition(0)
            .expect("partition 0 has at least one subgraph");
        if ctx.superstep() == 0 {
            // One message per timestep, in chronological order: build
            // hash[] and forward it to the master subgraph.
            let hash: Vec<u64> = msgs.iter().map(|e| e.payload[0]).collect();
            ctx.send_to_subgraph(master, hash);
        } else if ctx.subgraph().id() == master && !msgs.is_empty() {
            let timesteps = msgs.iter().map(|e| e.payload.len()).max().unwrap_or(0);
            let mut totals = vec![0u64; timesteps];
            for e in msgs {
                kernels::add_assign_u64(&mut totals, &e.payload);
            }
            for (t, &c) in totals.iter().enumerate() {
                ctx.emit(VertexIdx(t as u32), c as f64);
            }
            ctx.add_counter(Self::TOTAL, kernels::sum_u64(&totals));
        }
        ctx.vote_to_halt();
    }

    // No `save_state`/`restore_state` overrides: `hashtag` and `tweets_col`
    // are pure configuration, rebuilt by the factory on recovery. The
    // per-timestep counts live in the merge inbox, which the engine
    // checkpoints itself — the default no-ops are correct here.
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tempograph_core::{AttrType, TemplateBuilder};
    use tempograph_partition::{discover_subgraphs, Partitioning};

    #[test]
    fn factory_captures_hashtag() {
        let mut b = TemplateBuilder::new("t", false);
        b.vertex_schema().add("tweets", AttrType::TextList);
        b.add_vertex(0);
        let t = Arc::new(b.finalize().unwrap());
        let pg = discover_subgraphs(
            t,
            Partitioning {
                assignment: vec![0],
                k: 1,
            },
        );
        let p = HashtagAggregation::factory("#rust", 0)(&pg.subgraphs()[0], &pg);
        assert_eq!(p.hashtag, "#rust");
        assert_eq!(p.tweets_col, 0);
    }
}
