//! # tempograph-metrics — workspace metrics registry
//!
//! A metrics subsystem on `std` (plus `tempograph-core`'s codec vocabulary
//! and `bytes`, for [`Histogram`]'s `WireMsg` impl) mirroring the counter /
//! gauge / histogram taxonomy that Pregel-family systems expose to
//! operators, adapted to the workspace's deterministic-execution rules:
//!
//! * **No clock reads.** This crate never consults a clock (lint rule D02).
//!   Timing instruments are fed durations *derived from the same
//!   [`TraceSink::now`] readings the trace spans consume*, so trace and
//!   metrics agree exactly — asserted in `tests/trace_integration.rs`.
//! * **Deterministic ordering.** The registry is keyed by a [`BTreeMap`]
//!   over `(name, sorted labels)` (lint rule D01): snapshots, Prometheus
//!   exposition, and JSON output are byte-stable for a given set of
//!   observations.
//! * **Shard-merge insensitive.** Histograms are fixed-size log2 bucket
//!   arrays; merging per-worker shards in any order yields identical
//!   buckets, sums, and quantiles (property-tested).
//! * **Allocation-free recording.** [`Histogram::record`] and counter
//!   bumps on pre-created instruments touch only inline state; the engine's
//!   superstep hot path stays allocation-free when metrics are disabled
//!   *and* allocation-bounded when enabled (see `tests/metrics_overhead.rs`
//!   at the workspace root).
//!
//! [`TraceSink::now`]: ../tempograph_trace/struct.TraceSink.html#method.now
//! [`BTreeMap`]: std::collections::BTreeMap

#![forbid(unsafe_code)]

mod expose;
mod histogram;
pub mod json;
mod registry;

pub use histogram::{Histogram, BUCKETS};
pub use registry::{Metric, MetricEntry, MetricKey, Registry, Snapshot};

/// `num / den`, guarded against a zero denominator: returns `0.0` instead
/// of `NaN`/`Inf` so ratio gauges (cache hit rate, cut fraction, …) are
/// always finite and JSON-representable.
#[must_use]
pub fn ratio_or_zero(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::ratio_or_zero;

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio_or_zero(5, 0), 0.0);
        assert_eq!(ratio_or_zero(0, 0), 0.0);
        assert!(ratio_or_zero(5, 0).is_finite());
        assert_eq!(ratio_or_zero(1, 2), 0.5);
        assert_eq!(ratio_or_zero(3, 3), 1.0);
    }
}
