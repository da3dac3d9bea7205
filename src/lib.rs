//! # tempograph — distributed programming over time-series graphs
//!
//! A Rust reproduction of *"Distributed Programming over Time-series
//! Graphs"* (IPDPS 2015): the time-series graph data model, the
//! **Temporally Iterative BSP (TI-BSP)** abstraction on a subgraph-centric
//! engine, GoFS-style slice storage, a METIS-like partitioner, a
//! vertex-centric baseline, and the paper's algorithms (Hashtag
//! Aggregation, Meme Tracking, Time-Dependent Shortest Path).
//!
//! This facade crate re-exports every subsystem; see the README for a tour
//! and `examples/` for runnable end-to-end scenarios.
//!
//! ```
//! use tempograph::prelude::*;
//!
//! // Build a tiny road network that changes every 5 minutes.
//! let mut b = TemplateBuilder::new("demo", false);
//! b.edge_schema().add("latency", AttrType::Double);
//! b.add_vertex(0); b.add_vertex(1);
//! b.add_edge(0, 0, 1).unwrap();
//! let template = std::sync::Arc::new(b.finalize().unwrap());
//! let mut series = TimeSeriesCollection::new(template, 0, 300);
//! series.push(series.new_instance()).unwrap();
//! assert_eq!(series.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub use tempograph_algos as algos;
pub use tempograph_core as core;
pub use tempograph_engine as engine;
pub use tempograph_gen as gen;
pub use tempograph_gofs as gofs;
pub use tempograph_ledger as ledger;
pub use tempograph_metrics as metrics;
pub use tempograph_partition as partition;
pub use tempograph_pregel as pregel;
pub use tempograph_trace as trace;

/// The names most programs need, in one import.
pub mod prelude {
    pub use tempograph_algos::{
        HashtagAggregation, MemeTracking, PageRank, Sssp, Tdsp, TopNActivity, Wcc,
    };
    pub use tempograph_core::{
        AttrType, Column, GraphInstance, GraphTemplate, Schema, TemplateBuilder, TextRows,
        TimeSeriesCollection, VertexIdx,
    };
    pub use tempograph_engine::{
        query_status, run_job, run_job_tcp, run_tcp_worker, AttributionRow, CheckpointConfig,
        Cluster, Context, CostAttribution, EngineError, Envelope, FaultPlan, InstanceSource,
        JobConfig, JobResult, Pattern, StatusReplyMsg, SubgraphProgram, TimestepMode,
        WorkerStatusWire, DEFAULT_STRAGGLER_FACTOR,
    };
    pub use tempograph_gen::{
        carn_like, generate_road_latencies, generate_sir_tweets, road_network, small_world,
        wiki_like, DatasetPreset, RoadLatencyConfig, RoadNetConfig, SirConfig, SmallWorldConfig,
        LATENCY_ATTR, TWEETS_ATTR,
    };
    pub use tempograph_gofs::{GofsStore, GofsWriter, InstanceLoader};
    pub use tempograph_ledger::{diff_records, ConfigFingerprint, Ledger, RecordDiff, RunRecord};
    pub use tempograph_metrics::{Histogram, Registry, Snapshot};
    pub use tempograph_partition::{
        discover_subgraphs, suggest_rebalance, suggest_rebalance_from, CostSource, HashPartitioner,
        LdgPartitioner, MultilevelPartitioner, PartitionedGraph, Partitioner, Partitioning,
        RebalancePlan, Subgraph, SubgraphId,
    };
    pub use tempograph_trace::{Clock, Trace, TraceConfig, TraceMode, TraceSink};
}
