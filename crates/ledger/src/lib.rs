//! # tempograph-ledger — the persistent run ledger
//!
//! The trace (structured spans) and metrics (histograms/counters) layers
//! are ephemeral: everything a run learns about itself evaporates when its
//! `JobResult` is dropped. This crate makes runs durable — one
//! GoFS-framed, versioned [`RunRecord`] per job, holding:
//!
//! - the **config fingerprint** (algorithm, pattern, partitions, time
//!   range, seed, dataset, host env) that derives a deterministic run id,
//! - whole-job **aggregates** (wall/virtual/compute/msg/sync/io ns plus
//!   the deterministic traffic counts),
//! - **per-worker** and **per-timestep** timings derived from the same
//!   `TraceSink::now` readings the trace spans consume,
//! - the per-(subgraph, timestep) **compute attribution table** (see
//!   `JobConfig::with_attribution` in `tempograph-engine`),
//! - user counter totals and the canonical metrics snapshot JSON.
//!
//! Records live in a [`Ledger`] directory, one atomically-written
//! `<run-id>.tgrun` file each, and feed the `tempograph inspect` CLI:
//! `list`, `show` (human + canonical JSON), `diff` (a noise-floor
//! comparison via [`diff_records`]), and `rebalance` — piping
//! [`RunRecord::per_subgraph_costs`] into
//! `partition::suggest_rebalance_from` so move decisions use *measured*
//! subgraph costs instead of the vertex-count proxy (the paper's §IV.D
//! loop, closed).
//!
//! Determinism: [`RunRecord::strip_nondeterminism`] zeroes the measured
//! clock fields, after which a seeded run's record encodes byte-identically
//! across executions — the property CI's inspect smoke asserts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod record;
pub mod store;

pub use diff::{
    diff_records, DeltaKind, FieldDelta, RecordDiff, DEFAULT_THRESHOLD, NOISE_FLOOR_NS,
};
pub use record::{
    ConfigFingerprint, RunAggregates, RunRecord, WorkerTiming, RECORD_MAGIC, RECORD_SCHEMA,
};
pub use store::{Ledger, RECORD_EXT};
