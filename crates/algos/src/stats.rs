//! Per-instance statistics — the independent pattern at its simplest.
//!
//! §II.B: "there are also algorithms where each graph instance is treated
//! independently, such as when gathering independent statistics on each
//! instance." This program computes, per timestep: the number of active
//! vertices (non-empty tweet lists), total tweet volume, and — when a
//! latency column is given — the count of congested edges (latency above a
//! threshold). Results land in counters; no messaging at all.

use tempograph_core::kernels;
use tempograph_engine::{Context, Envelope, SubgraphProgram};
use tempograph_partition::Subgraph;

/// The instance-statistics program; instantiate via
/// [`InstanceStats::factory`].
pub struct InstanceStats {
    tweets_col: Option<usize>,
    latency_col: Option<usize>,
    congestion_threshold: f64,
    /// Edge positions whose lower endpoint this subgraph owns — constant
    /// across timesteps, so the factory resolves the per-edge endpoint
    /// lookups once instead of every instance.
    owned_edges: Vec<u32>,
}

impl InstanceStats {
    /// Counter: vertices with ≥ 1 tweet this timestep.
    pub const ACTIVE_VERTICES: &'static str = "stats_active_vertices";
    /// Counter: total tweets this timestep.
    pub const TWEETS: &'static str = "stats_tweets";
    /// Counter: edges with latency above the congestion threshold.
    pub const CONGESTED_EDGES: &'static str = "stats_congested_edges";

    /// Build a per-subgraph factory. Either column may be absent; pass the
    /// congestion threshold in the latency unit.
    pub fn factory(
        tweets_col: Option<usize>,
        latency_col: Option<usize>,
        congestion_threshold: f64,
    ) -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> InstanceStats {
        move |sg, pg| {
            // Count each *local* edge once: a subgraph's edge list also
            // contains crossing edges owned jointly; keep an edge position
            // only if this subgraph holds its lower endpoint side.
            let owned_edges = if latency_col.is_some() {
                sg.edges()
                    .iter()
                    .enumerate()
                    .filter(|(_, &e)| {
                        let (s, _) = pg.template().endpoints(e);
                        sg.local_pos(s).is_some()
                    })
                    .map(|(q, _)| q as u32)
                    .collect()
            } else {
                Vec::new()
            };
            InstanceStats {
                tweets_col,
                latency_col,
                congestion_threshold,
                owned_edges,
            }
        }
    }
}

impl SubgraphProgram for InstanceStats {
    type Msg = ();

    fn compute(&mut self, ctx: &mut Context<'_, ()>, _msgs: &[Envelope<()>]) {
        if ctx.superstep() == 0 {
            let instance = ctx.instance();
            if let Some(col) = self.tweets_col {
                let tweets = instance
                    .vertex_text_list(col)
                    .expect("tweets must be TextList");
                let active = tweets.iter().filter(|r| !r.is_empty()).count() as u64;
                let volume: u64 = tweets.iter().map(|r| r.len() as u64).sum();
                if active > 0 {
                    ctx.add_counter(Self::ACTIVE_VERTICES, active);
                    ctx.add_counter(Self::TWEETS, volume);
                }
            }
            if let Some(col) = self.latency_col {
                let lat = instance.edge_f64(col).expect("latency must be Double");
                let congested =
                    kernels::count_gt_f64_at(lat, &self.owned_edges, self.congestion_threshold);
                if congested > 0 {
                    ctx.add_counter(Self::CONGESTED_EDGES, congested);
                }
            }
        }
        ctx.vote_to_halt();
    }
}
