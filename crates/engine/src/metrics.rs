//! Execution metrics: the raw material for the paper's Figures 6 and 7.

use std::collections::BTreeMap;
use tempograph_core::VertexIdx;
use tempograph_metrics::{ratio_or_zero, Histogram, Registry};
use tempograph_partition::SubgraphId;
use tempograph_trace::Trace;

/// Per-worker metrics shard (see `JobConfig::with_metrics`).
///
/// Lives inline in each worker and is folded into the job's [`Registry`]
/// by the driver after the workers join — the lock-free analogue of
/// barrier-time shard merging. Recording is allocation-free (histograms
/// are inline bucket arrays), and every duration recorded here is the
/// difference of the *same* `TraceSink::now` readings the trace spans
/// consume, so trace and metrics agree exactly (asserted in
/// `tests/trace_integration.rs`).
#[derive(Clone, Debug, Default)]
pub(crate) struct MetricsShard {
    /// Barriered compute durations: one observation per superstep plus one
    /// per `EndOfTimestep` phase.
    pub compute_ns: Histogram,
    /// Barrier wait durations (arrive + post-drain rendezvous).
    pub barrier_wait_ns: Histogram,
    /// Message marshalling/hand-off durations (one per send phase).
    pub send_ns: Histogram,
    /// Checkpoint snapshot+write durations (empty when not checkpointing).
    pub checkpoint_write_ns: Histogram,
    /// Checkpoint restore durations (empty for undisturbed runs).
    pub recovery_restore_ns: Histogram,
    /// GoFS instance-cache hits (0 for in-memory sources).
    pub cache_hits: u64,
    /// GoFS instance-cache misses.
    pub cache_misses: u64,
    /// GoFS instance-cache evictions.
    pub cache_evictions: u64,
    /// Bytes read and decoded from slice files.
    pub bytes_read: u64,
}

impl MetricsShard {
    /// Merge this shard's instruments into the job registry.
    pub(crate) fn fold_into(&self, reg: &mut Registry) {
        reg.merge_histogram("tempograph_superstep_compute_ns", &[], &self.compute_ns);
        reg.merge_histogram("tempograph_barrier_wait_ns", &[], &self.barrier_wait_ns);
        reg.merge_histogram("tempograph_send_ns", &[], &self.send_ns);
        if self.checkpoint_write_ns.count() > 0 {
            reg.merge_histogram(
                "tempograph_checkpoint_write_ns",
                &[],
                &self.checkpoint_write_ns,
            );
        }
        if self.recovery_restore_ns.count() > 0 {
            reg.merge_histogram(
                "tempograph_recovery_restore_ns",
                &[],
                &self.recovery_restore_ns,
            );
        }
        reg.counter_add("tempograph_gofs_cache_hits_total", &[], self.cache_hits);
        reg.counter_add("tempograph_gofs_cache_misses_total", &[], self.cache_misses);
        reg.counter_add(
            "tempograph_gofs_cache_evictions_total",
            &[],
            self.cache_evictions,
        );
        reg.counter_add("tempograph_gofs_bytes_read_total", &[], self.bytes_read);
    }
}

/// Per-(timestep, partition) timing and traffic breakdown.
///
/// Terminology follows the paper's Fig. 7: **compute** is user `Compute`
/// time; **partition overhead** is message marshalling/transfer time after
/// compute completes; **sync overhead** is time blocked on the BSP barrier
/// (including idling while stragglers finish).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimestepMetrics {
    /// Nanoseconds inside user `Compute`/`EndOfTimestep` calls.
    pub compute_ns: u64,
    /// Nanoseconds encoding and handing off messages (partition overhead).
    pub msg_ns: u64,
    /// Nanoseconds blocked at barriers (sync overhead).
    pub sync_ns: u64,
    /// Nanoseconds reading/decoding instance data (GoFS loads or in-memory
    /// projection).
    pub io_ns: u64,
    /// Wall-clock nanoseconds for this partition's timestep.
    pub wall_ns: u64,
    /// Supersteps executed in this timestep's BSP.
    pub supersteps: u32,
    /// Messages delivered within this partition.
    pub msgs_local: u64,
    /// Messages sent to other partitions.
    pub msgs_remote: u64,
    /// Serialised bytes shipped to other partitions.
    pub bytes_remote: u64,
    /// Messages eliminated by the sender-side combiner (counted before the
    /// local/remote split).
    pub msgs_combined: u64,
    /// Serialised frames shipped to other partitions (one per (src, dst)
    /// pair per phase that had traffic).
    pub batches_remote: u64,
    /// Slice files loaded from disk (GoFS source only).
    pub slice_loads: u64,
    /// Remote batch transmissions retried after an injected transient send
    /// failure (always 0 without fault injection).
    pub send_retries: u64,
    /// Compute nanoseconds per superstep within this timestep. Feeds the
    /// *virtual makespan* model (see [`JobResult::virtual_timestep_ns`]):
    /// on a single-core host, worker threads timeshare one CPU, so wall
    /// clock cannot show strong scaling — but per-partition compute time is
    /// still measured faithfully, and the barrier structure lets us derive
    /// the makespan a real cluster would see.
    pub superstep_compute_ns: Vec<u64>,
}

impl TimestepMetrics {
    /// Merge another metrics record into this one.
    pub fn absorb(&mut self, other: &TimestepMetrics) {
        self.compute_ns += other.compute_ns;
        self.msg_ns += other.msg_ns;
        self.sync_ns += other.sync_ns;
        self.io_ns += other.io_ns;
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        self.supersteps = self.supersteps.max(other.supersteps);
        self.msgs_local += other.msgs_local;
        self.msgs_remote += other.msgs_remote;
        self.bytes_remote += other.bytes_remote;
        self.msgs_combined += other.msgs_combined;
        self.batches_remote += other.batches_remote;
        self.slice_loads += other.slice_loads;
        self.send_retries += other.send_retries;
        // Element-wise max: within one superstep every partition waits for
        // the slowest, so the barrier-synchronised cost of superstep `ss` is
        // `max_p(compute[ss][p])` — the same reduce
        // `JobResult::virtual_timestep_ns` applies.
        if other.superstep_compute_ns.len() > self.superstep_compute_ns.len() {
            self.superstep_compute_ns
                .resize(other.superstep_compute_ns.len(), 0);
        }
        for (mine, &theirs) in self
            .superstep_compute_ns
            .iter_mut()
            .zip(&other.superstep_compute_ns)
        {
            *mine = (*mine).max(theirs);
        }
    }

    /// Fraction of accounted time spent in compute (Fig. 7b/7d's "Compute").
    pub fn compute_fraction(&self) -> f64 {
        let total = self.compute_ns + self.msg_ns + self.sync_ns;
        if total == 0 {
            return 0.0;
        }
        self.compute_ns as f64 / total as f64
    }
}

/// One value emitted by an algorithm via `Context::emit` (e.g. a finalized
/// TDSP label or a newly coloured meme vertex).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Emit {
    /// Timestep at which the value was produced; a merge-phase emit carries
    /// the configured timestep count (one past the last timestep).
    pub timestep: usize,
    /// Subject vertex.
    pub vertex: VertexIdx,
    /// Emitted value (algorithm-defined meaning).
    pub value: f64,
}

/// One row of the per-(subgraph, timestep) compute attribution table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttributionRow {
    /// The subgraph whose program hooks this row accounts.
    pub subgraph: SubgraphId,
    /// Timestep index (`u32::MAX` ⇒ merge phase; [`Emit::timestep`] marks
    /// it with the configured timestep count instead).
    pub timestep: u32,
    /// Measured nanoseconds spent inside this subgraph's program hooks at
    /// this timestep (compute supersteps + end-of-timestep). Differences
    /// of the worker's `TraceSink::now` readings — the same clock the
    /// trace spans and metrics histograms consume.
    pub compute_ns: u64,
    /// Program-hook invocations folded into this row. Deterministic for a
    /// seeded run (it counts supersteps the subgraph participated in),
    /// unlike the measured nanoseconds — so it doubles as a
    /// machine-independent cost proxy.
    pub invocations: u32,
}

/// The assembled per-(subgraph, timestep) compute attribution table (see
/// [`JobConfig::with_attribution`](crate::JobConfig::with_attribution)).
/// Rows are sorted by `(subgraph, timestep)` with merge rows last; each
/// `(subgraph, timestep)` pair appears at most once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostAttribution {
    /// The table rows.
    pub rows: Vec<AttributionRow>,
}

impl CostAttribution {
    /// Total measured compute nanoseconds per subgraph (merge included),
    /// sorted by subgraph id — the *measured* cost vector
    /// `partition::suggest_rebalance_from` consumes.
    pub fn per_subgraph_ns(&self) -> Vec<(SubgraphId, u64)> {
        self.fold_per_subgraph(|r| r.compute_ns)
    }

    /// Total program-hook invocations per subgraph, sorted by subgraph id
    /// — a deterministic cost proxy for reproducible analyses.
    pub fn per_subgraph_invocations(&self) -> Vec<(SubgraphId, u64)> {
        self.fold_per_subgraph(|r| r.invocations as u64)
    }

    fn fold_per_subgraph(&self, value: impl Fn(&AttributionRow) -> u64) -> Vec<(SubgraphId, u64)> {
        let mut out: Vec<(SubgraphId, u64)> = Vec::new();
        // Rows arrive subgraph-sorted, so equal ids are adjacent.
        for r in &self.rows {
            match out.last_mut() {
                Some((sg, total)) if *sg == r.subgraph => *total += value(r),
                _ => out.push((r.subgraph, value(r))),
            }
        }
        out
    }

    /// Total measured compute nanoseconds across the whole table.
    pub fn total_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.compute_ns).sum()
    }
}

/// Everything a TI-BSP run reports back.
#[derive(Clone, Debug, Default)]
pub struct JobResult {
    /// Timesteps actually executed (≤ configured range for While mode).
    pub timesteps_run: usize,
    /// `metrics[timestep][partition]`.
    pub metrics: Vec<Vec<TimestepMetrics>>,
    /// Merge-phase metrics per partition (eventually-dependent runs only).
    pub merge_metrics: Vec<TimestepMetrics>,
    /// User counters: name → `[timestep][partition]` sums. A `BTreeMap` so
    /// iteration (CLI reports, checkpoint encoding) is name-ordered and
    /// deterministic (lint rule D01).
    pub counters: BTreeMap<String, Vec<Vec<u64>>>,
    /// Merge-phase counters: name → per-partition sums.
    pub merge_counters: BTreeMap<String, Vec<u64>>,
    /// All emitted values, sorted by (timestep, vertex).
    pub emitted: Vec<Emit>,
    /// End-to-end wall nanoseconds (includes merge phase).
    pub total_wall_ns: u64,
    /// Recovery attempts the job needed (0 for an undisturbed run). Each
    /// attempt restarted the cluster from the latest valid checkpoint (or
    /// from scratch when none existed).
    pub recoveries: usize,
    /// Final per-subgraph program state, serialised via
    /// `SubgraphProgram::save_state` and sorted by [`SubgraphId`]. Empty
    /// when no program overrides `save_state`. The recovery-equivalence
    /// harness compares these byte-for-byte between clean and recovered
    /// runs.
    pub final_states: Vec<(SubgraphId, Vec<u8>)>,
    /// The assembled structured trace, when the job ran with
    /// `JobConfig::with_trace`. Export via `Trace::to_chrome_json` /
    /// `Trace::summary`; every `TimestepMetrics` aggregate is derivable
    /// from it (asserted in `tests/trace_integration.rs`).
    pub trace: Option<Trace>,
    /// The per-(subgraph, timestep) compute attribution table, when the
    /// job ran with `JobConfig::with_attribution`. Feeds the run ledger's
    /// persistent records and measured-cost rebalance analysis. Covers the
    /// final successful attempt of a recovered run (like `registry`).
    pub attribution: Option<CostAttribution>,
    /// The folded metrics registry, when the job ran with
    /// `JobConfig::with_metrics`: per-worker histogram shards merged with
    /// the job-level counters of [`JobResult::export_into`]. Export via
    /// `Registry::snapshot` (Prometheus text / top-N summary / JSON).
    pub registry: Option<Registry>,
}

impl JobResult {
    /// Fold this result's aggregate counters into a metrics registry.
    ///
    /// Counts are summed across every timestep row, every partition, and
    /// the merge phase, so after a checkpointed recovery they include the
    /// restored pre-crash portion. `tempograph_recoveries_total` and
    /// `tempograph_send_retries_total` make fault-injection runs
    /// (`TEMPOGRAPH_FAULTS`) visible in the Prometheus/JSON output.
    pub fn export_into(&self, reg: &mut Registry) {
        let mut compute = 0u64;
        let mut msg = 0u64;
        let mut sync = 0u64;
        let mut io = 0u64;
        let mut supersteps = 0u64;
        let mut msgs_local = 0u64;
        let mut msgs_remote = 0u64;
        let mut bytes_remote = 0u64;
        let mut msgs_combined = 0u64;
        let mut batches_remote = 0u64;
        let mut slice_loads = 0u64;
        let mut send_retries = 0u64;
        let rows = self
            .metrics
            .iter()
            .flat_map(|per_t| per_t.iter())
            .chain(self.merge_metrics.iter());
        for m in rows {
            compute += m.compute_ns;
            msg += m.msg_ns;
            sync += m.sync_ns;
            io += m.io_ns;
            msgs_local += m.msgs_local;
            msgs_remote += m.msgs_remote;
            bytes_remote += m.bytes_remote;
            msgs_combined += m.msgs_combined;
            batches_remote += m.batches_remote;
            slice_loads += m.slice_loads;
            send_retries += m.send_retries;
        }
        // Supersteps are barrier-synchronised: every partition runs the
        // same count per timestep, so take the per-timestep max, not the
        // per-partition sum.
        for per_t in &self.metrics {
            supersteps += u64::from(per_t.iter().map(|m| m.supersteps).max().unwrap_or(0));
        }
        supersteps += u64::from(
            self.merge_metrics
                .iter()
                .map(|m| m.supersteps)
                .max()
                .unwrap_or(0),
        );

        reg.counter_add("tempograph_timesteps_total", &[], self.timesteps_run as u64);
        reg.counter_add("tempograph_supersteps_total", &[], supersteps);
        reg.counter_add("tempograph_compute_ns_total", &[], compute);
        reg.counter_add("tempograph_msg_ns_total", &[], msg);
        reg.counter_add("tempograph_sync_ns_total", &[], sync);
        reg.counter_add("tempograph_io_ns_total", &[], io);
        reg.counter_add("tempograph_wall_ns_total", &[], self.total_wall_ns);
        reg.counter_add("tempograph_virtual_ns_total", &[], self.virtual_total_ns());
        reg.counter_add("tempograph_msgs_local_total", &[], msgs_local);
        reg.counter_add("tempograph_msgs_remote_total", &[], msgs_remote);
        reg.counter_add("tempograph_bytes_remote_total", &[], bytes_remote);
        reg.counter_add("tempograph_msgs_combined_total", &[], msgs_combined);
        reg.counter_add("tempograph_batches_remote_total", &[], batches_remote);
        reg.counter_add("tempograph_slice_loads_total", &[], slice_loads);
        reg.counter_add("tempograph_send_retries_total", &[], send_retries);
        reg.counter_add("tempograph_recoveries_total", &[], self.recoveries as u64);
        reg.counter_add(
            "tempograph_emitted_values_total",
            &[],
            self.emitted.len() as u64,
        );
        reg.gauge_set(
            "tempograph_msgs_remote_fraction",
            &[],
            ratio_or_zero(msgs_remote, msgs_local + msgs_remote),
        );
    }

    /// Global wall time of one timestep: the slowest partition's wall time.
    pub fn timestep_wall_ns(&self, t: usize) -> u64 {
        self.metrics[t].iter().map(|m| m.wall_ns).max().unwrap_or(0)
    }

    /// Sum a counter across partitions for one timestep.
    pub fn counter_at(&self, name: &str, t: usize) -> u64 {
        self.counters
            .get(name)
            .and_then(|per_t| per_t.get(t))
            .map(|per_p| per_p.iter().sum())
            .unwrap_or(0)
    }

    /// Per-partition totals of a counter across all timesteps.
    pub fn counter_by_partition(&self, name: &str) -> Vec<u64> {
        let Some(per_t) = self.counters.get(name) else {
            return Vec::new();
        };
        let parts = per_t.first().map_or(0, |p| p.len());
        let mut out = vec![0u64; parts];
        for per_p in per_t {
            for (i, &v) in per_p.iter().enumerate() {
                out[i] += v;
            }
        }
        out
    }

    /// Aggregate per-partition time breakdown across all timesteps —
    /// the Fig. 7b/7d stacked bars.
    pub fn partition_breakdown(&self) -> Vec<TimestepMetrics> {
        let parts = self.metrics.first().map_or(0, |t| t.len());
        let mut out = vec![TimestepMetrics::default(); parts];
        for per_t in &self.metrics {
            for (i, m) in per_t.iter().enumerate() {
                let wall = out[i].wall_ns;
                out[i].absorb(m);
                out[i].wall_ns = wall + m.wall_ns; // sum, not max, across time
            }
        }
        for (i, m) in self.merge_metrics.iter().enumerate() {
            if i < out.len() {
                let wall = out[i].wall_ns;
                out[i].absorb(m);
                out[i].wall_ns = wall + m.wall_ns;
            }
        }
        out
    }

    /// Emitted values at one timestep.
    pub fn emitted_at(&self, t: usize) -> impl Iterator<Item = &Emit> {
        self.emitted.iter().filter(move |e| e.timestep == t)
    }

    // ---- virtual (simulated-cluster) time model -------------------------
    //
    // The engine's worker threads stand in for cluster hosts. On a
    // multi-core machine their wall clock approximates a real cluster; on a
    // single-core machine the threads timeshare one CPU and wall clock
    // degenerates to the *sum* of all partitions' work. Per-partition
    // compute time is measured faithfully either way, so the BSP barrier
    // structure lets us reconstruct the makespan a real cluster would see:
    // within each superstep every host waits for the slowest one, so the
    // superstep costs `max_p(compute_p)`; message marshalling and I/O are
    // similarly bounded by the slowest partition per timestep.

    /// Simulated cluster makespan of one timestep:
    /// `Σ_ss max_p(compute[ss][p]) + max_p(msg_p) + max_p(io_p)`.
    pub fn virtual_timestep_ns(&self, t: usize) -> u64 {
        let parts = &self.metrics[t];
        let max_ss = parts
            .iter()
            .map(|m| m.superstep_compute_ns.len())
            .max()
            .unwrap_or(0);
        let mut total = 0u64;
        for ss in 0..max_ss {
            total += parts
                .iter()
                .map(|m| m.superstep_compute_ns.get(ss).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
        }
        total += parts.iter().map(|m| m.msg_ns).max().unwrap_or(0);
        total += parts.iter().map(|m| m.io_ns).max().unwrap_or(0);
        total
    }

    /// Simulated cluster makespan of the whole job (timesteps + merge).
    pub fn virtual_total_ns(&self) -> u64 {
        let steps: u64 = (0..self.timesteps_run)
            .map(|t| self.virtual_timestep_ns(t))
            .sum();
        let merge = self
            .merge_metrics
            .iter()
            .map(|m| m.compute_ns + m.msg_ns)
            .max()
            .unwrap_or(0);
        steps + merge
    }

    /// Per-partition `(compute_ns, overhead_ns, idle_ns)` under the virtual
    /// model — the paper's Fig. 7b/7d stacked bars. `idle` is time a
    /// partition spends waiting at barriers for slower peers
    /// (`Σ_ss (max_q compute[ss][q] − compute[ss][p])`), which the paper
    /// folds into "Sync Overhead".
    pub fn virtual_partition_breakdown(&self) -> Vec<(u64, u64, u64)> {
        let parts = self.metrics.first().map_or(0, |t| t.len());
        let mut out = vec![(0u64, 0u64, 0u64); parts];
        for t in 0..self.timesteps_run {
            let row = &self.metrics[t];
            let max_ss = row
                .iter()
                .map(|m| m.superstep_compute_ns.len())
                .max()
                .unwrap_or(0);
            for ss in 0..max_ss {
                let slowest = row
                    .iter()
                    .map(|m| m.superstep_compute_ns.get(ss).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                for (p, m) in row.iter().enumerate() {
                    let own = m.superstep_compute_ns.get(ss).copied().unwrap_or(0);
                    out[p].0 += own;
                    out[p].2 += slowest - own;
                }
            }
            for (p, m) in row.iter().enumerate() {
                out[p].1 += m.msg_ns + m.io_ns;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(compute: u64, msg: u64, sync: u64) -> TimestepMetrics {
        TimestepMetrics {
            compute_ns: compute,
            msg_ns: msg,
            sync_ns: sync,
            ..Default::default()
        }
    }

    #[test]
    fn compute_fraction_basic() {
        assert_eq!(m(50, 25, 25).compute_fraction(), 0.5);
        assert_eq!(m(0, 0, 0).compute_fraction(), 0.0);
        assert_eq!(m(10, 0, 0).compute_fraction(), 1.0);
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = m(10, 5, 1);
        a.wall_ns = 100;
        a.supersteps = 3;
        let mut b = m(20, 1, 1);
        b.wall_ns = 80;
        b.supersteps = 7;
        a.absorb(&b);
        assert_eq!(a.compute_ns, 30);
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.supersteps, 7);
    }

    #[test]
    fn absorb_max_reduces_superstep_series() {
        let mut a = m(0, 0, 0);
        a.superstep_compute_ns = vec![10, 5];
        let mut b = m(0, 0, 0);
        b.superstep_compute_ns = vec![3, 8, 4];
        a.absorb(&b);
        assert_eq!(
            a.superstep_compute_ns,
            vec![10, 8, 4],
            "element-wise max, ragged tail kept"
        );
        // Absorbing a shorter (or empty) series must not lose data.
        a.absorb(&m(1, 1, 1));
        assert_eq!(a.superstep_compute_ns, vec![10, 8, 4]);
    }

    #[test]
    fn virtual_timestep_handles_ragged_superstep_series() {
        // Partition 0 ran 3 supersteps, partition 1 halted after 1: the
        // virtual model max-reduces per superstep, treating absent entries
        // as zero.
        let mut p0 = m(0, 4, 0);
        p0.superstep_compute_ns = vec![10, 20, 30];
        let mut p1 = m(0, 9, 0);
        p1.superstep_compute_ns = vec![50];
        let r = JobResult {
            timesteps_run: 1,
            metrics: vec![vec![p0, p1]],
            ..Default::default()
        };
        // 50 (max of ss0) + 20 + 30 + max(msg) = 100 + 9.
        assert_eq!(r.virtual_timestep_ns(0), 109);
        let breakdown = r.virtual_partition_breakdown();
        assert_eq!(breakdown[0], (60, 4, 50 - 10), "p0 idles in ss0");
        assert_eq!(breakdown[1], (50, 9, 20 + 30), "p1 idles in ss1, ss2");
    }

    #[test]
    fn virtual_model_zero_partitions_and_empty_job() {
        let r = JobResult {
            timesteps_run: 1,
            metrics: vec![vec![]],
            ..Default::default()
        };
        assert_eq!(r.virtual_timestep_ns(0), 0);
        assert_eq!(r.virtual_total_ns(), 0);
        assert!(r.virtual_partition_breakdown().is_empty());
        assert!(JobResult::default()
            .virtual_partition_breakdown()
            .is_empty());
        assert_eq!(JobResult::default().virtual_total_ns(), 0);
    }

    #[test]
    fn virtual_total_counts_merge_only_jobs() {
        // A merge-only job (zero timesteps, eventually-dependent pattern):
        // virtual total is just the slowest partition's merge work.
        let mut mm0 = m(40, 2, 0);
        mm0.wall_ns = 50;
        let mm1 = m(10, 30, 0);
        let r = JobResult {
            timesteps_run: 0,
            metrics: vec![],
            merge_metrics: vec![mm0, mm1],
            ..Default::default()
        };
        assert_eq!(r.virtual_total_ns(), 42, "max_p(compute+msg) over merge");
        let breakdown = r.partition_breakdown();
        assert!(
            breakdown.is_empty(),
            "no timestep rows ⇒ partition count is unknown"
        );
    }

    #[test]
    fn job_result_accessors() {
        let mut r = JobResult {
            timesteps_run: 2,
            metrics: vec![vec![m(10, 0, 0), m(5, 0, 0)], vec![m(1, 0, 0), m(2, 0, 0)]],
            ..Default::default()
        };
        r.metrics[0][0].wall_ns = 7;
        r.metrics[0][1].wall_ns = 9;
        assert_eq!(r.timestep_wall_ns(0), 9);

        r.counters
            .insert("colored".into(), vec![vec![3, 4], vec![1, 0]]);
        assert_eq!(r.counter_at("colored", 0), 7);
        assert_eq!(r.counter_at("colored", 1), 1);
        assert_eq!(r.counter_at("missing", 0), 0);
        assert_eq!(r.counter_by_partition("colored"), vec![4, 4]);

        let breakdown = r.partition_breakdown();
        assert_eq!(breakdown[0].compute_ns, 11);
        assert_eq!(breakdown[1].compute_ns, 7);
        assert_eq!(breakdown[0].wall_ns, 7); // only t0 had wall time
    }

    #[test]
    fn export_into_registry_counters() {
        let mut r = JobResult {
            timesteps_run: 1,
            metrics: vec![vec![m(10, 5, 2), m(30, 1, 1)]],
            ..Default::default()
        };
        r.metrics[0][0].supersteps = 4;
        r.metrics[0][1].supersteps = 4;
        r.metrics[0][0].msgs_local = 3;
        r.metrics[0][0].msgs_remote = 1;
        r.metrics[0][0].send_retries = 2;
        r.recoveries = 1;
        let mut reg = Registry::new();
        r.export_into(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("tempograph_compute_ns_total"), 40);
        assert_eq!(snap.counter_total("tempograph_supersteps_total"), 4);
        assert_eq!(snap.counter_total("tempograph_send_retries_total"), 2);
        assert_eq!(snap.counter_total("tempograph_recoveries_total"), 1);
        match snap.get("tempograph_msgs_remote_fraction", &[]) {
            Some(tempograph_metrics::Metric::Gauge(g)) => assert_eq!(*g, 0.25),
            other => panic!("expected gauge, got {other:?}"),
        }
    }

    #[test]
    fn export_into_empty_job_has_finite_ratios() {
        let mut reg = Registry::new();
        JobResult::default().export_into(&mut reg);
        match reg.get("tempograph_msgs_remote_fraction", &[]) {
            Some(tempograph_metrics::Metric::Gauge(g)) => {
                assert_eq!(*g, 0.0, "zero denominator must yield 0.0, not NaN");
            }
            other => panic!("expected gauge, got {other:?}"),
        }
    }

    #[test]
    fn emitted_at_filters() {
        let r = JobResult {
            emitted: vec![
                Emit {
                    timestep: 0,
                    vertex: VertexIdx(1),
                    value: 1.0,
                },
                Emit {
                    timestep: 1,
                    vertex: VertexIdx(2),
                    value: 2.0,
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.emitted_at(1).count(), 1);
        assert_eq!(r.emitted_at(9).count(), 0);
    }
}
