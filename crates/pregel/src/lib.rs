//! # tempograph-pregel — a Giraph/Pregel-style vertex-centric baseline
//!
//! The paper's §IV.C baseline is Apache Giraph, a vertex-centric BSP system:
//! user logic runs per *vertex*, messages travel per vertex, and every
//! traversal hop costs a full barriered superstep — which is exactly why the
//! subgraph-centric model wins on high-diameter graphs (a subgraph crosses
//! its whole interior in one superstep; a vertex program needs one superstep
//! per hop).
//!
//! This crate is the vertex-centric programming model only: a
//! [`VertexProgram`] runs on `tempograph-engine`'s own worker loop, one
//! vertex-program host per subgraph, so Fig. 5b's comparison runs both models
//! on literally the same engine (transport, batching, barrier, telemetry) and
//! measures model differences, not substrate differences.

#![forbid(unsafe_code)]

pub mod engine;
pub mod programs;

pub use engine::{run_pregel, PregelMetrics, PregelResult, VertexContext, VertexProgram};
pub use programs::{BfsVertex, PageRankVertex, SsspVertex, WccVertex};
