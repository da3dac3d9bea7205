//! # tempograph-engine — the Temporally Iterative BSP (TI-BSP) runtime
//!
//! Implements the paper's core contribution (§II.C–D): a subgraph-centric
//! BSP engine extended with a temporal outer loop. Timesteps over graph
//! instances form the outer loop; barrier-synchronised supersteps over
//! subgraphs form the inner loop (the paper's Fig. 3). Three design
//! patterns — independent, eventually dependent, sequentially dependent —
//! govern how state moves between timesteps (§II.B).
//!
//! One worker per partition plays one GoFFish host ([`executor`]), and one
//! driver hosts a job's workers ([`cluster`]): as threads exchanging
//! batches over channels ([`run_job`], the simulated cluster), as threads
//! over loopback TCP, or as spawned worker processes ([`run_job_tcp`] with
//! a [`Cluster`]). Remote messages are genuinely serialised on every
//! transport, and instance data is loaded lazily (from GoFS slice files or
//! an in-memory collection). Per-partition, per-timestep metrics record
//! compute time, partition overhead (marshalling), sync overhead (barrier
//! waits) and I/O — everything needed to regenerate the paper's Figures 6
//! and 7.
//!
//! ```no_run
//! use tempograph_engine::{run_job, JobConfig, InstanceSource, SubgraphProgram, Context, Envelope};
//!
//! struct CountVertices;
//! impl SubgraphProgram for CountVertices {
//!     type Msg = ();
//!     fn compute(&mut self, ctx: &mut Context<'_, ()>, _msgs: &[Envelope<()>]) {
//!         ctx.add_counter("vertices", ctx.subgraph().num_vertices() as u64);
//!         ctx.vote_to_halt();
//!     }
//! }
//! # fn demo(pg: std::sync::Arc<tempograph_partition::PartitionedGraph>, src: InstanceSource) {
//! let result = run_job(&pg, &src, |_, _| CountVertices, JobConfig::independent(10));
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod checkpoint;
pub mod cluster;
pub mod error;
pub mod executor;
pub mod faults;
pub mod metrics;
pub mod net;
pub mod program;
pub mod provider;
pub mod sync;
pub mod telemetry;
pub mod transport;
pub mod wire;

pub use batch::{
    combine_envelopes, merge_sorted_runs, merge_sorted_runs_traced, BufferPool, Combiner,
    MessageBatch,
};
pub use checkpoint::{
    checkpoint_path, latest_valid, manifest_path, read_manifest, CheckpointConfig, Manifest,
    SubgraphCheckpoint, WorkerCheckpoint,
};
pub use cluster::{
    run_cluster as run_job_tcp, run_job, run_tcp_worker, Cluster, INJECTED_EXIT_CODE,
};
pub use error::{EngineError, WireError};
pub use executor::{JobConfig, Pattern, TimestepMode, DEFAULT_STRAGGLER_FACTOR};
pub use faults::{FaultPlan, FrameFault, INJECTED_FAULT_MARKER};
pub use metrics::{AttributionRow, CostAttribution, Emit, JobResult, TimestepMetrics};
pub use net::{Frame, FrameConn, FrameKind, StatusReplyMsg, TelemetryMsg, WorkerStatusWire};
pub use program::{Context, Phase, SubgraphProgram};
pub use provider::{GofsProvider, InstanceProvider, InstanceSource, IoStats, MemoryProvider};
pub use sync::{join_partition, Aggregate, Contribution, PoisonOnPanic, SyncPoint};
pub use telemetry::query_status;
pub use tempograph_trace::{Trace, TraceConfig, TraceMode, TraceSink};
pub use transport::{BatchKind, InProcess, PhaseItem, PhaseMail, Tcp, Transport};
pub use wire::{Envelope, WireMsg};
