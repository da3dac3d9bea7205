//! # tempograph-algos — time-series graph algorithms on TI-BSP
//!
//! The paper's three algorithms (§III) plus the baselines its evaluation
//! compares against:
//!
//! | Algorithm | Pattern | Paper section |
//! |---|---|---|
//! | [`HashtagAggregation`] | eventually dependent | §III.A |
//! | [`MemeTracking`] | sequentially dependent | §III.B |
//! | [`Tdsp`] (time-dependent shortest path) | sequentially dependent | §III.C |
//! | [`Sssp`] (single-instance SSSP/BFS) | single BSP | §IV.C baseline |
//! | [`Wcc`] (connected components) | single BSP | extension |
//! | [`PageRank`] (subgraph-centric) | single BSP | extension, ref \[12\] |
//! | [`TopNActivity`] | independent | §II.B's "daily Top-N" example |
//!
//! One deliberate deviation from the paper's listings: where Algorithms 1–2
//! thread per-subgraph state (`C*`, `F`) through `SendToNextTimestep`
//! self-messages, these implementations keep that state in the program
//! struct — the engine guarantees one program instance per subgraph for the
//! job's lifetime, so the two are equivalent; cross-timestep *liveness*
//! tokens are still sent where the `While` termination mode needs them.

#![forbid(unsafe_code)]

pub mod community;
pub mod hashtag;
pub mod meme;
pub mod pagerank;
pub mod reachability;
pub mod sssp;
pub mod stats;
pub mod tdsp;
pub mod topn;
pub mod wcc;

pub use community::CommunityEvolution;
pub use hashtag::{HashtagAggregation, HashtagSumCombiner};
pub use meme::{MemeDedupCombiner, MemeTracking};
pub use pagerank::PageRank;
pub use reachability::TemporalReachability;
pub use sssp::{Sssp, SsspCombiner};
pub use stats::InstanceStats;
pub use tdsp::{Tdsp, TdspCombiner};
pub use topn::TopNActivity;
pub use wcc::Wcc;

/// The bytes `save_state` writes for `p`: what the in-module tests pin.
#[cfg(test)]
fn saved_state(p: &impl tempograph_engine::SubgraphProgram) -> Vec<u8> {
    let mut buf = bytes::BytesMut::new();
    p.save_state(&mut buf);
    buf.to_vec()
}
