//! # tempograph-bench — shared harness for the paper-reproduction benches
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper's evaluation (§IV); see DESIGN.md's experiment index. This
//! library holds the shared plumbing: scaled dataset construction, GoFS
//! dataset staging, and plain-text table/series printers.
//!
//! ## Scale and timing methodology
//!
//! Set `TEMPOGRAPH_SCALE` (default 1.0 ⇒ CARN ≈ 10 k vertices, WIKI ≈ 12 k)
//! to grow or shrink every workload. The paper's 50-timestep setup is kept.
//!
//! Figures report two clocks:
//!
//! * **wall** — end-to-end wall time of the simulated cluster on this host;
//! * **virtual** — the makespan a real cluster would see, reconstructed
//!   from per-partition, per-superstep compute measurements and the BSP
//!   barrier structure ([`tempograph_engine::JobResult::virtual_total_ns`]).
//!   On a single-core host (like most CI sandboxes) worker threads
//!   timeshare one CPU, so wall time cannot exhibit strong scaling; the
//!   virtual clock is the faithful analogue of the paper's cluster
//!   wall-clock and is what the scaling tables quote.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tempograph_core::{GraphTemplate, TimeSeriesCollection};
use tempograph_engine::{FaultPlan, JobConfig, JobResult};
use tempograph_gen::{
    generate_road_latencies, generate_sir_tweets, DatasetPreset, RoadLatencyConfig, SirConfig,
};
use tempograph_gofs::store::write_dataset;
use tempograph_partition::{
    discover_subgraphs, MultilevelPartitioner, PartitionedGraph, Partitioner,
};
use tempograph_trace::{Trace, TraceConfig};

/// The paper's instance count.
pub const TIMESTEPS: usize = 50;

/// The paper's period δ (5 minutes, in seconds) — also the TDSP idling
/// quantum.
pub const PERIOD: i64 = 300;

/// The paper's GoFS settings: temporal packing of 10 …
pub const PACKING: usize = 10;

/// … and subgraph binning of 5 (§IV.A).
pub const BINNING: usize = 5;

/// The meme hashtag used by the tweet workloads.
pub const MEME: &str = "#meme";

/// Workload scale multiplier from `TEMPOGRAPH_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("TEMPOGRAPH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Tracing opt-in from `TEMPOGRAPH_TRACE` (unset/`0`/`off` ⇒ `None`).
///
/// * `1` / `full` — full trace, exported via [`write_trace`];
/// * `flight` or `flight:<cap>` — flight-recorder mode (bounded ring,
///   dumped to stderr only on worker panic or straggler barrier waits).
pub fn trace_config() -> Option<TraceConfig> {
    let v = std::env::var("TEMPOGRAPH_TRACE").ok()?;
    let v = v.trim().to_ascii_lowercase();
    match v.as_str() {
        "" | "0" | "off" | "false" => None,
        "flight" => Some(TraceConfig::new().flight_recorder(4096)),
        s if s.starts_with("flight:") => {
            let cap = s["flight:".len()..].parse().unwrap_or(4096);
            Some(TraceConfig::new().flight_recorder(cap))
        }
        _ => Some(TraceConfig::new()),
    }
}

/// Fault-injection opt-in from `TEMPOGRAPH_FAULTS` (unset/`0`/`off` ⇒
/// config unchanged). A numeric seed derives a deterministic
/// [`FaultPlan`] for the run's shape — one or two worker deaths and
/// possibly one torn checkpoint write — arms checkpointing every 10
/// timesteps (matching the GoFS packing cadence) under the system temp
/// dir, and lets the benchmark crash and recover mid-run — a chaos mode
/// for eyeballing checkpoint/recovery overhead on the paper workloads.
/// The same seed injects the same failures on every run.
pub fn maybe_faulted<M>(
    config: JobConfig<M>,
    tag: &str,
    partitions: usize,
    timesteps: usize,
) -> JobConfig<M> {
    match FaultPlan::from_env(partitions as u16, timesteps) {
        Some(plan) => {
            let dir = std::env::temp_dir().join(format!("tempograph-{tag}-k{partitions}-ckpt"));
            eprintln!(
                "  faults: seed {} armed, checkpoints -> {}",
                plan.seed().unwrap_or(0),
                dir.display()
            );
            config.with_checkpoint(10, dir).with_faults(plan)
        }
        None => config,
    }
}

/// Write a trace as Chrome trace-event JSON (open with Perfetto / \
/// `chrome://tracing`) and print where it went plus a top-5 summary.
pub fn write_trace(trace: &Trace, path: impl AsRef<Path>) {
    let path = path.as_ref();
    match std::fs::write(path, trace.to_chrome_json()) {
        Ok(()) => println!(
            "  trace: {} events -> {}\n{}",
            trace.num_events(),
            path.display(),
            trace.summary(5)
        ),
        Err(e) => eprintln!("  trace: failed to write {}: {e}", path.display()),
    }
}

/// Generate a preset's template at the ambient scale.
pub fn template(preset: DatasetPreset) -> Arc<GraphTemplate> {
    Arc::new(preset.template(scale()))
}

/// The paper's road-latency workload: i.i.d. uniform latencies, 50 steps.
/// Latencies sit mostly below δ so the TDSP frontier advances every period.
pub fn road_collection(t: Arc<GraphTemplate>) -> Arc<TimeSeriesCollection> {
    // One latency distribution for both graphs, as in the paper. The mean
    // is calibrated so the TDSP frontier crosses the CARN analogue's
    // diameter (≈ 190·√scale) in ≈ 47 of the 50 instances, while WIKI's
    // ≈ 10-hop diameter falls in a handful — the paper's exact contrast
    // (47 vs 4 timesteps, §IV.B). Calibration: measured frontier speed is
    // ≈ 0.78·diameter·mean/δ timesteps, so mean ≈ 95 s/√scale.
    let mean = 95.0 / scale().sqrt();
    let max_latency = (2.0 * mean - 5.0).max(12.0);
    Arc::new(generate_road_latencies(
        t,
        &RoadLatencyConfig {
            timesteps: TIMESTEPS,
            start_time: 0,
            period: PERIOD,
            min_latency: 5.0,
            max_latency,
            seed: 0x0D05E,
        },
    ))
}

/// The paper's SIR tweet workload with the preset's hit probability
/// (30 % CARN / 2 % WIKI), tuned like the paper "to get a stable
/// propagation across 50 time steps".
pub fn tweet_collection(t: Arc<GraphTemplate>, preset: DatasetPreset) -> Arc<TimeSeriesCollection> {
    let n = t.num_vertices();
    Arc::new(generate_sir_tweets(
        t,
        &SirConfig {
            timesteps: TIMESTEPS,
            start_time: 0,
            period: PERIOD,
            meme: MEME.to_string(),
            hit_prob: preset.hit_prob(),
            initial_infected: (n / 500).max(4),
            infectious_steps: 4,
            background_tags: vec!["#cats".into(), "#news".into(), "#sports".into()],
            background_rate: 0.005,
            seed: 0x7EE7,
        },
    ))
}

/// Partition with the METIS-like multilevel partitioner and freeze
/// subgraphs.
pub fn partitioned(t: &Arc<GraphTemplate>, k: usize) -> Arc<PartitionedGraph> {
    let p = MultilevelPartitioner::default().partition(t, k);
    Arc::new(discover_subgraphs(t.clone(), p))
}

/// Stage a collection as an on-disk GoFS dataset and return its path.
/// Re-created on every call; callers should clean up via [`cleanup`].
pub fn stage_gofs(
    tag: &str,
    pg: &Arc<PartitionedGraph>,
    coll: &TimeSeriesCollection,
    packing: usize,
    binning: usize,
) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempograph-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dir, pg.clone(), coll, packing, binning).expect("stage dataset");
    dir
}

/// Remove a staged dataset directory.
pub fn cleanup(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Seconds (f64) from nanoseconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Print a header line for a bench target.
pub fn banner(id: &str, what: &str) {
    println!("\n=== {id}: {what} ===");
    println!(
        "    scale={} ({}), timesteps={TIMESTEPS}, packing={PACKING}, binning={BINNING}",
        scale(),
        if cfg!(debug_assertions) {
            "DEBUG BUILD — use cargo bench / --release"
        } else {
            "release"
        }
    );
}

/// Print an aligned table: header + rows of equal arity.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("  {}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Modelled cost of one distributed BSP barrier on commodity 1 GbE
/// (paper's EC2 setup): a millisecond-scale rendezvous. A single-host
/// simulation cannot measure this, so the virtual clock charges it
/// explicitly per superstep.
pub const BARRIER_NS: u64 = 1_000_000;

/// Barrier cost of a Hadoop/YARN-era Giraph superstep (the paper deploys
/// Giraph v1.1 on Hadoop 2.0): ≈ 100 ms of per-superstep framework
/// overhead. Used for the "as-deployed Giraph" row of F5b.
pub const HADOOP_BARRIER_NS: u64 = 100_000_000;

/// Number of global barriers a run crossed: one per superstep plus one
/// per timestep boundary (EndOfTimestep), plus the merge supersteps.
pub fn barrier_count(result: &JobResult) -> u64 {
    let steps: u64 = (0..result.timesteps_run)
        .map(|t| {
            result.metrics[t]
                .iter()
                .map(|m| m.supersteps as u64)
                .max()
                .unwrap_or(0)
                + 1
        })
        .sum();
    let merge: u64 = result
        .merge_metrics
        .iter()
        .map(|m| m.supersteps as u64)
        .max()
        .unwrap_or(0);
    steps + merge
}

/// Simulated cluster makespan including modelled barrier latency, seconds.
pub fn virtual_with_barriers(result: &JobResult) -> f64 {
    secs(result.virtual_total_ns() + barrier_count(result) * BARRIER_NS)
}

/// Simulated makespan of one timestep including its barriers, seconds.
pub fn virtual_timestep_with_barriers(result: &JobResult, t: usize) -> f64 {
    let barriers = result.metrics[t]
        .iter()
        .map(|m| m.supersteps as u64)
        .max()
        .unwrap_or(0)
        + 1;
    secs(result.virtual_timestep_ns(t) + barriers * BARRIER_NS)
}

/// Simulated makespan of a vertex-centric (pregel) run: per-superstep
/// compute is assumed balanced across `k` hosts (the engine reports only
/// aggregate compute), plus one barrier per superstep at `barrier_ns`.
pub fn pregel_virtual(
    metrics: &tempograph_pregel::PregelMetrics,
    k: usize,
    barrier_ns: u64,
) -> f64 {
    secs(metrics.compute_ns / k as u64 + metrics.supersteps as u64 * barrier_ns)
}

/// `(wall seconds, virtual seconds incl. barriers)` of a run.
pub fn clocks(result: &JobResult) -> (f64, f64) {
    (secs(result.total_wall_ns), virtual_with_barriers(result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_positive() {
        assert!(scale() > 0.0);
    }

    #[test]
    fn collections_have_expected_shape() {
        let t = Arc::new(DatasetPreset::Carn.template(0.02));
        let road = road_collection(t.clone());
        assert_eq!(road.len(), TIMESTEPS);
        assert_eq!(road.period(), PERIOD);
        let tweets = tweet_collection(t, DatasetPreset::Carn);
        assert_eq!(tweets.len(), TIMESTEPS);
    }

    #[test]
    fn trace_config_parses_env_forms() {
        // Single test owns the env var; no other test in this crate reads it.
        std::env::remove_var("TEMPOGRAPH_TRACE");
        assert!(trace_config().is_none());
        std::env::set_var("TEMPOGRAPH_TRACE", "0");
        assert!(trace_config().is_none());
        std::env::set_var("TEMPOGRAPH_TRACE", "1");
        assert!(trace_config().is_some());
        std::env::set_var("TEMPOGRAPH_TRACE", "flight:128");
        assert!(trace_config().is_some());
        std::env::remove_var("TEMPOGRAPH_TRACE");
    }

    #[test]
    fn maybe_faulted_parses_env_forms() {
        // Single test owns the env var; no other test in this crate reads it.
        let probe = || maybe_faulted(JobConfig::<u64>::independent(1), "test", 3, 10);
        std::env::remove_var("TEMPOGRAPH_FAULTS");
        assert!(probe().faults.is_none());
        std::env::set_var("TEMPOGRAPH_FAULTS", "off");
        assert!(probe().faults.is_none());
        std::env::set_var("TEMPOGRAPH_FAULTS", "42");
        let armed = probe();
        assert!(armed.faults.is_some());
        assert!(armed.checkpoint.is_some());
        std::env::remove_var("TEMPOGRAPH_FAULTS");
    }

    #[test]
    fn stage_and_cleanup_roundtrip() {
        let t = Arc::new(DatasetPreset::Carn.template(0.02));
        let coll = road_collection(t.clone());
        let pg = partitioned(&t, 2);
        let dir = stage_gofs("selftest", &pg, &coll, PACKING, BINNING);
        assert!(dir.join("meta.bin").exists());
        cleanup(&dir);
        assert!(!dir.exists());
    }
}
