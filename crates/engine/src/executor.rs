//! The TI-BSP worker: one partition's timestep/superstep loop.
//!
//! One worker stands in for one GoFFish host (the paper's EC2 VMs) and
//! owns one partition's subgraphs. Within a timestep, workers run
//! barrier-synchronised BSP supersteps over their subgraphs; across
//! timesteps the configured [`Pattern`] decides how state flows (§II.B's
//! three design patterns). The loop talks to its peers and the
//! coordinator only through its `WorkerLinks`; hosting the `k` workers
//! of a job — as threads, over sockets, as processes — and recovering
//! their deaths is the driver's business ([`crate::cluster`]).
//!
//! **Messaging.** Intra-partition messages move as values; inter-partition
//! messages are genuinely serialised through [`crate::wire`], shipped over
//! the transport, and deserialised by the receiving worker — so the
//! "partition overhead" metric measures real marshalling work and remote
//! byte counts are true wire sizes.
//!
//! **Synchronisation.** Each superstep ends at one coordinator round
//! (`WorkerLinks::close_phase`) that also folds the halting votes and
//! message counts; BSP terminates when all subgraphs voted to halt and no
//! messages are in flight (§II.C), and in `WhileActive` mode the timestep
//! loop terminates when all subgraphs voted `VoteToHaltTimestep` and no
//! cross-timestep messages were emitted (§II.D).
//!
//! **Activity.** Work follows the active subgraphs. A superstep > 0 runs
//! only the subgraphs with mail and those that did not vote to halt. A
//! subgraph whose `EndOfTimestep` votes to halt falls asleep: the next
//! timesteps skip it at superstep 0 and in `EndOfTimestep`, and its last
//! `VoteToHaltTimestep` stands, until a superstep or next-timestep message
//! wakes it (see [`Context::vote_to_halt`] for the program's side of that
//! contract). The merge phase runs every subgraph, and a restored worker
//! starts with everyone awake.
//!
//! **Determinism.** Message delivery is sorted by (sender, sequence), so a
//! job's emitted results are identical across runs and partition layouts
//! don't leak scheduling nondeterminism into algorithm output.

use crate::batch::{
    combine_envelopes, merge_sorted_runs_traced, BufferPool, Combiner, MessageBatch,
};
use crate::checkpoint::{
    checkpoint_path, commit_manifest, CheckpointConfig, SubgraphCheckpoint, WorkerCheckpoint,
};
use crate::cluster::{Aggregate, Contribution};
use crate::error::EngineError;
use crate::faults::{injected_panic_message, FaultPlan};
use crate::metrics::{Emit, MetricsShard, TimestepMetrics};
use crate::net::TelemetryMsg;
use crate::program::{Context, Outbox, Phase, SubgraphProgram};
use crate::provider::{InstanceProvider, JobSource};
use crate::transport::{BatchKind, PhaseMail, WorkerLinks};
use crate::wire::{sort_envelopes, Envelope};
use bytes::{Buf, BytesMut};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use tempograph_core::wire::{decode_exact, intern};
use tempograph_gofs::store::{tmp_sibling, write_atomic};
use tempograph_gofs::SubgraphInstance;
use tempograph_partition::{PartitionedGraph, SubgraphId};
use tempograph_trace::{TraceConfig, TraceSink};

/// The paper's three design patterns for time-series graph algorithms.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Every instance is analysed independently; results are the union of
    /// per-instance results. Cross-timestep messaging is forbidden.
    Independent,
    /// Instances run independently, then a Merge BSP aggregates
    /// `SendMessageToMerge` traffic.
    EventuallyDependent,
    /// Each timestep's computation consumes the previous timestep's output
    /// via `SendToNextTimestep` (the paper's focus).
    SequentiallyDependent,
}

/// How many timesteps to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TimestepMode {
    /// Run exactly this many instances (a `For` loop over `ti..ti+n`).
    Fixed(usize),
    /// Run until every subgraph votes `VoteToHaltTimestep` and no
    /// cross-timestep messages are emitted (a `While` loop), capped at
    /// `max`.
    WhileActive {
        /// Upper bound on timesteps (≤ stored instances).
        max: usize,
    },
}

/// Default [`JobConfig::straggler_factor`]: a worker must wait 4× the
/// round's median barrier wait before the coordinator flags it.
pub const DEFAULT_STRAGGLER_FACTOR: f64 = 4.0;

/// TI-BSP job configuration.
#[derive(Clone)]
pub struct JobConfig<M> {
    /// Design pattern (decides merge phase and cross-timestep rules).
    pub pattern: Pattern,
    /// Timestep loop mode.
    pub mode: TimestepMode,
    /// Safety bound on supersteps per timestep.
    pub max_supersteps: usize,
    /// Optional sender-side message combiner (see [`Combiner`]). Sound only
    /// for order-insensitive (associative + commutative) reductions; with
    /// such a reduction, results are byte-identical with or without it.
    pub combiner: Option<Arc<dyn Combiner<M>>>,
    /// Structured tracing (see [`tempograph_trace`]). When set, every
    /// worker records timestep/superstep/compute/send/barrier spans and
    /// traffic counters into a per-partition sink, and
    /// [`crate::JobResult::trace`] carries the assembled
    /// [`tempograph_trace::Trace`]. `None` (the default) keeps the
    /// engine on the inert-sink path: clock reads only, no recording.
    pub trace: Option<TraceConfig>,
    /// Metrics collection (see [`tempograph_metrics`]). When `true`, every
    /// worker keeps an inline histogram shard fed from the same
    /// `TraceSink::now` readings the trace spans use, the driver folds the
    /// shards plus job-level counters into a registry, and
    /// [`crate::JobResult::registry`] carries it. `false` (the default) adds no
    /// work and no allocations to the superstep hot path.
    pub metrics: bool,
    /// Per-(subgraph, timestep) compute attribution (see
    /// [`crate::metrics::CostAttribution`]). When `true`, every worker
    /// accumulates per-invocation compute nanoseconds into a dense
    /// preallocated grid — same `TraceSink::now` clock discipline as the
    /// trace and metrics layers — and [`crate::JobResult::attribution`] carries
    /// the assembled table. `false` (the default) keeps every record site
    /// a branch on `None`: no clock reads, no allocations.
    pub attribution: bool,
    /// Superstep checkpointing (see [`crate::checkpoint`]). When set, every
    /// worker snapshots its recovery state at the configured timestep
    /// interval, and an injected worker death makes the driver restart the
    /// cluster from the latest committed checkpoint instead of failing.
    pub checkpoint: Option<CheckpointConfig>,
    /// Deterministic fault injection (see [`crate::faults`]). Arc-shared so
    /// one-shot panic events stay latched across recovery attempts.
    pub faults: Option<Arc<FaultPlan>>,
    /// Live introspection: when set, the coordinator serves the status
    /// board (`tempograph status`) on this address for the life of the
    /// job, on every [`crate::Cluster`]. The board is fed by round reports,
    /// so it needs trace, metrics or attribution armed; without one, the
    /// job is refused with [`EngineError::Protocol`] before any worker
    /// starts.
    pub status_addr: Option<String>,
    /// Straggler threshold: a worker whose per-timestep barrier wait
    /// exceeds this multiple of the round's median wait earns a
    /// `straggler.detected` instant from the coordinator. Only meaningful
    /// when tracing is armed.
    pub straggler_factor: f64,
}

impl<M> std::fmt::Debug for JobConfig<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobConfig")
            .field("pattern", &self.pattern)
            .field("mode", &self.mode)
            .field("max_supersteps", &self.max_supersteps)
            .field("combiner", &self.combiner.is_some())
            .field("trace", &self.trace)
            .field("metrics", &self.metrics)
            .field("attribution", &self.attribution)
            .field("checkpoint", &self.checkpoint)
            .field("faults", &self.faults)
            .field("status_addr", &self.status_addr)
            .field("straggler_factor", &self.straggler_factor)
            .finish()
    }
}

impl<M> JobConfig<M> {
    /// A sequentially dependent job over `timesteps` instances.
    pub fn sequentially_dependent(timesteps: usize) -> Self {
        Self::with_pattern(Pattern::SequentiallyDependent, timesteps)
    }

    /// An eventually dependent job over `timesteps` instances.
    pub fn eventually_dependent(timesteps: usize) -> Self {
        Self::with_pattern(Pattern::EventuallyDependent, timesteps)
    }

    /// An independent job over `timesteps` instances.
    pub fn independent(timesteps: usize) -> Self {
        Self::with_pattern(Pattern::Independent, timesteps)
    }

    fn with_pattern(pattern: Pattern, timesteps: usize) -> Self {
        JobConfig {
            pattern,
            mode: TimestepMode::Fixed(timesteps),
            max_supersteps: 100_000,
            combiner: None,
            trace: None,
            metrics: false,
            attribution: false,
            checkpoint: None,
            faults: None,
            status_addr: None,
            straggler_factor: DEFAULT_STRAGGLER_FACTOR,
        }
    }

    /// Switch to `WhileActive` (vote-driven) timestep termination.
    pub fn while_active(mut self, max: usize) -> Self {
        self.mode = TimestepMode::WhileActive { max };
        self
    }

    /// Install a sender-side message combiner (see field docs).
    pub fn with_combiner(mut self, combiner: Arc<dyn Combiner<M>>) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// Enable structured tracing (see field docs).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Enable metrics collection (see field docs).
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Enable per-(subgraph, timestep) compute attribution (see field docs).
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// Checkpoint every `every` timesteps into `dir` (see field docs).
    /// `usize::MAX` means "never write a checkpoint" — recovery is still
    /// armed but restarts from scratch.
    pub fn with_checkpoint(mut self, every: usize, dir: impl Into<std::path::PathBuf>) -> Self {
        assert!(every >= 1, "checkpoint interval must be ≥ 1");
        self.checkpoint = Some(CheckpointConfig {
            every,
            dir: dir.into(),
        });
        self
    }

    /// Install a deterministic fault-injection plan (see field docs).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Serve the live status board on `addr` (see field docs).
    pub fn with_status_addr(mut self, addr: impl Into<String>) -> Self {
        self.status_addr = Some(addr.into());
        self
    }

    /// Set the straggler-detection threshold (see field docs).
    pub fn with_straggler_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "straggler factor must be ≥ 1");
        self.straggler_factor = factor;
        self
    }

    /// True when any of trace/metrics/attribution is armed — the one
    /// predicate that decides, on both sides of the coordinator protocol,
    /// whether workers ship Telemetry frames and the coordinator accepts
    /// them.
    pub(crate) fn telemetry_armed(&self) -> bool {
        self.trace.is_some() || self.metrics || self.attribution
    }
}

/// Per-worker compute-attribution accumulator: a dense
/// `(timestep × local subgraph)` grid preallocated once at worker setup,
/// so the record path is two indexed adds and never allocates. Slot
/// `merge_slot` (one past the configured timestep range) is reserved for
/// the merge phase and surfaces as `timestep == u32::MAX` in the
/// assembled [`crate::metrics::CostAttribution`].
pub(crate) struct AttributionShard {
    /// This worker's subgraphs, in local index order (row labels).
    sg_ids: Vec<SubgraphId>,
    /// Grid slot reserved for the merge phase (== configured timesteps).
    merge_slot: usize,
    /// Accumulated compute nanoseconds, indexed `slot * n_sg + i`.
    compute_ns: Vec<u64>,
    /// Program-hook invocation counts, same indexing. Deterministic for a
    /// seeded run, unlike the measured nanoseconds.
    invocations: Vec<u32>,
}

impl AttributionShard {
    fn new(sg_ids: Vec<SubgraphId>, timesteps: usize) -> Self {
        let cells = sg_ids.len() * (timesteps + 1);
        AttributionShard {
            sg_ids,
            merge_slot: timesteps,
            compute_ns: vec![0; cells],
            invocations: vec![0; cells],
        }
    }

    /// Record one program-hook invocation for local subgraph `i` at grid
    /// slot `slot` (a timestep, or `merge_slot`). Bounds-checked with
    /// `get_mut` — this runs inside the superstep hot path, where lint
    /// rule P01 bans panicking accessors.
    #[inline]
    fn record(&mut self, i: usize, slot: usize, dur_ns: u64) {
        let idx = slot * self.sg_ids.len() + i;
        if let (Some(c), Some(n)) = (self.compute_ns.get_mut(idx), self.invocations.get_mut(idx)) {
            *c += dur_ns;
            *n += 1;
        }
    }

    /// Non-empty cells as attribution rows (merge slot ⇒ `u32::MAX`).
    fn rows(&self) -> Vec<crate::metrics::AttributionRow> {
        let n = self.sg_ids.len();
        let mut out = Vec::new();
        for (idx, (&ns, &count)) in self.compute_ns.iter().zip(&self.invocations).enumerate() {
            if count == 0 {
                continue;
            }
            let slot = idx / n;
            out.push(crate::metrics::AttributionRow {
                subgraph: self.sg_ids[idx % n],
                timestep: if slot == self.merge_slot {
                    u32::MAX
                } else {
                    slot as u32
                },
                compute_ns: ns,
                invocations: count,
            });
        }
        out
    }
}

/// Sort emits into the job result's order ([`Emit::result_order`]). Emits
/// that compare equal are identical, so an unstable sort returns what a
/// stable one would, without its scratch buffer of half the emits. Only
/// the worker sorts, one timestep's emits at a time; the coordinator
/// merges the workers' sorted runs.
pub(crate) fn sort_emits(emits: &mut [Emit]) {
    emits.sort_unstable_by(Emit::result_order);
}

/// Per-worker result handed back to the driver as one Output frame
/// (`encode`/`decode`, in [`crate::cluster`]).
///
/// Counter maps are `BTreeMap`s: they are iterated when assembling the
/// global [`crate::JobResult`] and when encoding checkpoints, and `HashMap`
/// iteration order would leak hasher nondeterminism into both (lint rule
/// D01).
#[derive(Default)]
pub(crate) struct WorkerOutput {
    pub(crate) metrics: Vec<TimestepMetrics>,
    pub(crate) merge_metrics: TimestepMetrics,
    pub(crate) counters: Vec<BTreeMap<&'static str, u64>>,
    pub(crate) merge_counters: BTreeMap<&'static str, u64>,
    /// Emits in result order: each timestep's are sorted as it closes, so
    /// every checkpoint holds a sorted prefix and a restored run stays
    /// sorted.
    pub(crate) emits: Vec<Emit>,
    pub(crate) timesteps_run: usize,
    /// Final per-subgraph program state (see [`crate::JobResult::final_states`]).
    pub(crate) final_states: Vec<(SubgraphId, Vec<u8>)>,
    /// Trace sinks (worker, provider and transport), named for track
    /// metadata.
    pub(crate) sinks: Vec<(String, TraceSink)>,
    /// This worker's metrics shard, when the job ran with metrics enabled.
    pub(crate) shard: Option<MetricsShard>,
    /// This worker's attribution rows, when the job ran with attribution
    /// enabled: the row form (not the dense grid) is what the Output frame
    /// carries.
    pub(crate) attr_rows: Vec<crate::metrics::AttributionRow>,
}

/// One worker's whole life over an already-connected transport: provider
/// setup, program construction, optional checkpoint restore, then the
/// TI-BSP run — the same call whichever [`crate::Cluster`] hosts the
/// worker.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_worker_body<P, F>(
    partition: u16,
    pg: &Arc<PartitionedGraph>,
    source: &JobSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
    resume_from: Option<u64>,
    transport: &mut WorkerLinks,
) -> Result<WorkerOutput, EngineError>
where
    P: SubgraphProgram,
    F: Fn(&tempograph_partition::Subgraph, &PartitionedGraph) -> P,
{
    let mut provider = source.provider(pg, partition);
    if let Some(tc) = config.trace {
        // The provider records onto the worker's track; its spans nest
        // inside the compute spans that trigger the fetches.
        provider.install_trace(tc.sink(partition as u32));
    }
    let mut worker = Worker::<P>::new(partition, pg, provider, transport, config, timesteps);
    worker.init_programs(factory);
    let start_t = match resume_from {
        Some(ct) => {
            worker.restore_from(ct)?;
            ct as usize + 1
        }
        None => 0,
    };
    worker.run(start_t, timesteps, config)
}

/// Per-subgraph staged sorted runs plus the list of slots holding any, so
/// delivery walks the mail, not every subgraph. The list is only ever
/// written by [`Staged::push`]: nothing can stage without being listed.
struct Staged<M> {
    runs: Vec<Vec<Vec<Envelope<M>>>>,
    listed: Vec<u32>,
}

impl<M> Staged<M> {
    fn new(n: usize) -> Self {
        Staged {
            runs: (0..n).map(|_| Vec::new()).collect(),
            listed: Vec::new(),
        }
    }

    /// Stage one `(from, seq)`-sorted run for local subgraph `idx`.
    fn push(&mut self, idx: usize, run: Vec<Envelope<M>>) {
        if run.is_empty() {
            return;
        }
        if self.runs[idx].is_empty() {
            self.listed.push(idx as u32);
        }
        self.runs[idx].push(run);
    }

    /// Take every listed slot's runs, in first-staged order.
    fn drain(&mut self) -> impl Iterator<Item = (usize, Vec<Vec<Envelope<M>>>)> + '_ {
        let runs = &mut self.runs;
        self.listed
            .drain(..)
            .map(move |i| (i as usize, std::mem::take(&mut runs[i as usize])))
    }
}

/// Per-partition execution state.
struct Worker<'a, P: SubgraphProgram> {
    partition: u16,
    pg: &'a PartitionedGraph,
    sg_ids: Vec<SubgraphId>,
    /// Local index by [`SubgraphId::idx`] (ids are dense); `u32::MAX` for
    /// subgraphs of other partitions.
    index_of: Vec<u32>,
    programs: Vec<Option<P>>,
    provider: Box<dyn InstanceProvider>,
    /// Inter-partition batch exchange and barrier sync — the only surface
    /// the worker shares with its peers (see [`WorkerLinks`]).
    transport: &'a mut WorkerLinks,

    /// Delivered inboxes, sorted by `(from, seq)`.
    inbox: Vec<Vec<Envelope<P::Msg>>>,
    /// Staged runs for the *next superstep* (locals routed this superstep
    /// and decoded remote runs). Merged into `inbox` when the superstep
    /// closes, by [`Worker::deliver_staged`].
    inbox_runs: Staged<P::Msg>,
    /// Staged runs for the *next timestep*, merged when the timestep closes.
    next_runs: Staged<P::Msg>,
    merge_inbox: Vec<Vec<Envelope<P::Msg>>>,
    /// Who runs at the next superstep > 0, ascending: subgraphs that ran
    /// without voting to halt, then (at delivery) those that got mail.
    active: Vec<u32>,
    /// Subgraphs whose last `EndOfTimestep` voted to halt: skipped at
    /// superstep 0 and in `EndOfTimestep` until mail wakes them. A hint,
    /// not state: a fresh or restored worker starts with everyone awake.
    asleep: Vec<bool>,
    /// `VoteToHaltTimestep` per subgraph this timestep; a sleeper's vote
    /// stands from the timestep it fell asleep in.
    voted_halt_ts: Vec<bool>,
    merge_seq: Vec<u32>,
    /// Persistent per-subgraph send-sequence counters (never reset for the
    /// life of the job), making `(from, seq)` globally unique — see
    /// [`Outbox::seq`].
    next_seq: Vec<u32>,
    memo: HashMap<SubgraphId, Arc<SubgraphInstance>>,
    /// Recycled frame buffers (see [`BufferPool`]).
    pool: BufferPool,
    combiner: Option<Arc<dyn Combiner<P::Msg>>>,
    /// Trace sink for this partition's track; inert when the job is
    /// untraced. Also the worker's clock: the same `tracer.now()` readings
    /// feed metric accumulation and span recording, so aggregates are
    /// exactly derivable from the trace.
    tracer: TraceSink,
    /// Metrics shard, boxed to keep the worker small when metrics are off
    /// (`None` ⇒ the hot path does no metrics work at all). Every duration
    /// recorded into it is a difference of the same `tracer.now()` readings
    /// the spans above consume — no second clock read per event.
    shard: Option<Box<MetricsShard>>,
    /// Compute-attribution grid, boxed and optional for the same reason as
    /// `shard` (`None` ⇒ no attribution work, no extra clock reads).
    attr: Option<Box<AttributionShard>>,
    /// Cumulative traffic totals, sampled as trace counters per timestep.
    /// Cumulative (not per-sample) so every trace counter series is
    /// monotonically non-decreasing — `Trace::validate` enforces this.
    cum_msgs_local: u64,
    cum_msgs_remote: u64,
    cum_bytes_remote: u64,
    cum_msgs_combined: u64,
    cum_checkpoint_bytes: u64,

    checkpoint: Option<CheckpointConfig>,
    faults: Option<Arc<FaultPlan>>,
    /// Restored from a checkpoint whose timestep loop had already ended
    /// (`WorkerCheckpoint::loop_done`): skip straight to the merge phase.
    loop_finished: bool,

    out: WorkerOutput,
    cur_counters: BTreeMap<&'static str, u64>,
    allow_next_timestep: bool,
}

impl<'a, P: SubgraphProgram> Worker<'a, P> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        partition: u16,
        pg: &'a PartitionedGraph,
        provider: Box<dyn InstanceProvider>,
        transport: &'a mut WorkerLinks,
        config: &JobConfig<P::Msg>,
        timesteps: usize,
    ) -> Self {
        let sg_ids: Vec<SubgraphId> = pg.subgraphs_of_partition(partition).to_vec();
        let mut index_of = vec![u32::MAX; pg.subgraphs().len()];
        for (i, id) in sg_ids.iter().enumerate() {
            index_of[id.idx()] = i as u32;
        }
        let n = sg_ids.len();
        let sg_ids_for_attr = sg_ids.clone();
        Worker {
            partition,
            pg,
            sg_ids,
            index_of,
            programs: Vec::new(),
            provider,
            transport,
            inbox: vec![Vec::new(); n],
            inbox_runs: Staged::new(n),
            next_runs: Staged::new(n),
            merge_inbox: vec![Vec::new(); n],
            active: Vec::new(),
            asleep: vec![false; n],
            voted_halt_ts: vec![false; n],
            merge_seq: vec![0; n],
            next_seq: vec![0; n],
            memo: HashMap::new(),
            pool: BufferPool::new(),
            combiner: config.combiner.clone(),
            tracer: config
                .trace
                .map(|tc| tc.sink(partition as u32))
                .unwrap_or_else(TraceSink::inert),
            shard: config.metrics.then(Box::default),
            attr: config
                .attribution
                .then(|| Box::new(AttributionShard::new(sg_ids_for_attr, timesteps))),
            cum_msgs_local: 0,
            cum_msgs_remote: 0,
            cum_bytes_remote: 0,
            cum_msgs_combined: 0,
            cum_checkpoint_bytes: 0,
            checkpoint: config.checkpoint.clone(),
            faults: config.faults.clone(),
            loop_finished: false,
            out: WorkerOutput::default(),
            cur_counters: BTreeMap::new(),
            allow_next_timestep: config.pattern == Pattern::SequentiallyDependent,
        }
    }

    fn init_programs<F>(&mut self, factory: &F)
    where
        F: Fn(&tempograph_partition::Subgraph, &PartitionedGraph) -> P,
    {
        self.programs = self
            .sg_ids
            .iter()
            .map(|&id| Some(factory(self.pg.subgraph(id), self.pg)))
            .collect();
    }

    fn run(
        mut self,
        start_t: usize,
        timesteps: usize,
        config: &JobConfig<P::Msg>,
    ) -> Result<WorkerOutput, EngineError> {
        if !self.loop_finished {
            self.run_timestep_loop(start_t, timesteps, config)?;
        }
        if config.pattern == Pattern::EventuallyDependent {
            self.run_merge(config)?;
        }
        // Capture final program states for the recovery-equivalence check.
        self.out.final_states = self.program_states().collect();
        // Drain the trace sinks into the output. The provider's (GoFS
        // loader) sink shares this partition's track and is merged at
        // assembly.
        let tracer = std::mem::replace(&mut self.tracer, TraceSink::inert());
        self.out
            .sinks
            .push((format!("partition {}", self.partition), tracer));
        self.out.shard = self.shard.take().map(|b| *b);
        self.out.attr_rows = self.attr.take().map(|a| a.rows()).unwrap_or_default();
        if let Some(sink) = self.provider.take_trace() {
            self.out
                .sinks
                .push((format!("partition {} io", self.partition), sink));
        }
        Ok(self.out)
    }

    // ---- main timestep loop -------------------------------------------

    fn run_timestep_loop(
        &mut self,
        start_t: usize,
        timesteps: usize,
        config: &JobConfig<P::Msg>,
    ) -> Result<(), EngineError> {
        for t in start_t..timesteps {
            let ts0 = self.tracer.now();
            let emits0 = self.out.emits.len();
            let mut m = TimestepMetrics::default();
            self.cur_counters = BTreeMap::new();
            self.memo.clear();
            // A sleeper's vote stands; everyone else votes afresh.
            for (h, &asleep) in self.voted_halt_ts.iter_mut().zip(&self.asleep) {
                *h &= asleep;
            }

            // The superstep-0 inbox — the previous timestep's
            // `SendToNextTimestep` traffic — was delivered when that
            // timestep closed (or restored from its checkpoint).
            let mut next_msgs_total = 0u64;
            let supersteps = self.run_bsp(
                t,
                timesteps,
                config,
                Phase::Compute,
                &mut m,
                &mut next_msgs_total,
            )?;
            m.supersteps = supersteps;

            // EndOfTimestep on every awake subgraph.
            let eot0 = self.tracer.now();
            let mut next_out: Vec<Envelope<P::Msg>> = Vec::new();
            for i in 0..self.sg_ids.len() {
                if self.asleep[i] {
                    continue;
                }
                let mut outbox = Outbox::new(
                    false,
                    self.allow_next_timestep,
                    self.merge_seq[i],
                    self.next_seq[i],
                );
                let a0 = if self.attr.is_some() {
                    self.tracer.now()
                } else {
                    0
                };
                self.invoke(
                    i,
                    t,
                    supersteps as usize,
                    timesteps,
                    Phase::EndOfTimestep,
                    &[],
                    &mut outbox,
                );
                if let Some(at) = self.attr.as_deref_mut() {
                    let a1 = self.tracer.now();
                    at.record(i, t, a1 - a0);
                }
                self.absorb_outbox(i, t, &mut outbox, &mut next_out, None);
            }
            let eot1 = self.tracer.now();
            let eot_elapsed = eot1 - eot0;
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.compute_ns.record(eot_elapsed);
            }
            m.compute_ns += eot_elapsed;
            // EndOfTimestep is barriered like a superstep; record it so the
            // virtual-makespan model accounts for its skew too.
            m.superstep_compute_ns.push(eot_elapsed);
            self.tracer.span_at("end_of_timestep", eot0, eot1);

            // This timestep's emits all carry `t`, which no earlier one
            // does: sorted here, they keep the whole run in result order.
            sort_emits(&mut self.out.emits[emits0..]);

            // Timestep barrier + global while-loop decision; the staged
            // cross-timestep runs become the next timestep's superstep-0
            // inbox (each is (from, seq)-sorted, so the k-way merge
            // reproduces the canonical delivery order).
            let vote = Contribution {
                msgs_sent: next_msgs_total + next_out.len() as u64,
                all_halted: self.voted_halt_ts.iter().all(|&v| v),
            };
            let agg = self.close_phase(BatchKind::NextTimestep, vec![], next_out, vote, &mut m)?;

            let io = self.provider.take_io_stats();
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.cache_hits += io.cache_hits;
                sh.cache_misses += io.cache_misses;
                sh.cache_evictions += io.evictions;
                sh.bytes_read += io.bytes_read;
            }
            m.io_ns += io.load_ns;
            m.slice_loads += io.slice_loads;
            self.sample_traffic_counters(&m);
            let ts1 = self.tracer.now();
            m.wall_ns = ts1 - ts0;
            self.tracer.span_arg_at("timestep", ts0, ts1, "t", t as u64);
            let round_sync_ns = m.sync_ns;
            self.out.metrics.push(m);
            self.out
                .counters
                .push(std::mem::take(&mut self.cur_counters));
            self.out.timesteps_run = t + 1;

            // Report the closed round to the coordinator's status board
            // and straggler judge, on every cluster. With observability
            // disabled this is one branch — no allocation, no frame.
            if self.transport.wants_telemetry() {
                self.transport.telemetry(TelemetryMsg {
                    timestep: t as u32,
                    supersteps,
                    barrier_wait_ns: round_sync_ns,
                    ..TelemetryMsg::default()
                })?;
            }

            // Checkpoint decisions are pure functions of (t, config, agg),
            // so all workers take the same barriers in maybe_checkpoint.
            let stopping =
                matches!(config.mode, TimestepMode::WhileActive { .. }) && agg.should_stop();
            self.maybe_checkpoint(t, stopping || t + 1 == timesteps)?;
            if stopping {
                break;
            }
        }
        Ok(())
    }

    /// Run one BSP (compute or merge phase). Returns superstep count.
    fn run_bsp(
        &mut self,
        t: usize,
        timesteps: usize,
        config: &JobConfig<P::Msg>,
        phase: Phase,
        m: &mut TimestepMetrics,
        next_msgs_total: &mut u64,
    ) -> Result<u32, EngineError> {
        let mut ss: usize = 0;
        loop {
            if let Some(faults) = &self.faults {
                // Injected worker death at a (partition, timestep, superstep)
                // coordinate. The merge phase runs at t == timesteps, so
                // plans can target it too.
                if faults.should_panic(self.partition, t as u64, ss as u64) {
                    panic!("{}", injected_panic_message(self.partition, t, ss));
                }
            }
            let compute0 = self.tracer.now();
            let mut superstep_out: Vec<Envelope<P::Msg>> = Vec::new();
            let mut next_out: Vec<Envelope<P::Msg>> = Vec::new();
            // This superstep's subgraphs, ascending (`route` relies on
            // senders draining in subgraph order): the awake ones and the
            // sleepers with mail at superstep 0, then only mail and
            // carry-overs. `self.active` starts over, collecting this
            // superstep's carry-overs.
            if ss == 0 {
                let asleep = &self.asleep;
                let inbox = &self.inbox;
                self.active.clear();
                self.active.extend(
                    (0..self.sg_ids.len())
                        .filter(|&i| !asleep[i] || !inbox[i].is_empty())
                        .map(|i| i as u32),
                );
            }
            let running = std::mem::take(&mut self.active);
            for &i in &running {
                let i = i as usize;
                if self.asleep[i] {
                    // Mail wakes a sleeper; its standing vote lapses.
                    self.asleep[i] = false;
                    self.voted_halt_ts[i] = false;
                }
                let msgs = std::mem::take(&mut self.inbox[i]);
                let mut outbox = Outbox::new(
                    true,
                    self.allow_next_timestep && phase == Phase::Compute,
                    self.merge_seq[i],
                    self.next_seq[i],
                );
                // Attribution reads the clock only when armed; both
                // readings come from the same `tracer.now()` source the
                // enclosing compute span uses.
                let a0 = if self.attr.is_some() {
                    self.tracer.now()
                } else {
                    0
                };
                self.invoke(i, t, ss, timesteps, phase, &msgs, &mut outbox);
                if let Some(at) = self.attr.as_deref_mut() {
                    let a1 = self.tracer.now();
                    let slot = if phase == Phase::Merge {
                        at.merge_slot
                    } else {
                        t
                    };
                    at.record(i, slot, a1 - a0);
                }
                self.absorb_outbox(i, t, &mut outbox, &mut next_out, Some(&mut superstep_out));
            }
            let compute1 = self.tracer.now();
            let compute_elapsed = compute1 - compute0;
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.compute_ns.record(compute_elapsed);
            }
            m.compute_ns += compute_elapsed;
            m.superstep_compute_ns.push(compute_elapsed);
            self.tracer
                .span_arg_at("compute", compute0, compute1, "superstep", ss as u64);

            *next_msgs_total += next_out.len() as u64;
            let vote = Contribution {
                msgs_sent: superstep_out.len() as u64,
                all_halted: self.active.is_empty(),
            };
            let agg = self.close_phase(BatchKind::Superstep, superstep_out, next_out, vote, m)?;
            let end = self.tracer.now();
            self.tracer
                .span_arg_at("superstep", compute0, end, "superstep", ss as u64);
            ss += 1;
            if agg.should_stop() || ss >= config.max_supersteps {
                // Only a capped BSP still holds mail: it goes with the phase.
                for &i in &self.active {
                    self.inbox[i as usize].clear();
                }
                return Ok(ss as u32);
            }
        }
    }

    // ---- merge phase ----------------------------------------------------

    fn run_merge(&mut self, config: &JobConfig<P::Msg>) -> Result<(), EngineError> {
        let timesteps = self.out.timesteps_run;
        // Merge superstep-0 inbox: the accumulated SendMessageToMerge
        // traffic, already per-subgraph and chronologically ordered by seq.
        let n = self.sg_ids.len();
        self.inbox = std::mem::replace(&mut self.merge_inbox, vec![Vec::new(); n]);
        for list in &mut self.inbox {
            sort_envelopes(list);
        }
        // Merge runs on every subgraph template, sleepers included.
        self.asleep.fill(false);
        let mut m = TimestepMetrics::default();
        self.cur_counters = BTreeMap::new();
        let wall0 = self.tracer.now();
        let emits0 = self.out.emits.len();
        let mut ignored = 0u64;
        let supersteps = self.run_bsp(
            timesteps,
            timesteps,
            config,
            Phase::Merge,
            &mut m,
            &mut ignored,
        )?;
        // Merge emits carry the timestep count, past every timestep's.
        sort_emits(&mut self.out.emits[emits0..]);
        m.supersteps = supersteps;
        self.sample_traffic_counters(&m);
        let wall1 = self.tracer.now();
        m.wall_ns = wall1 - wall0;
        self.tracer.span_at("merge_phase", wall0, wall1);
        self.out.merge_metrics = m;
        self.out.merge_counters = std::mem::take(&mut self.cur_counters);
        Ok(())
    }

    // ---- plumbing -------------------------------------------------------

    /// Call one program hook with a fresh context.
    #[allow(clippy::too_many_arguments)]
    fn invoke(
        &mut self,
        i: usize,
        timestep: usize,
        superstep: usize,
        timesteps: usize,
        phase: Phase,
        msgs: &[Envelope<P::Msg>],
        outbox: &mut Outbox<P::Msg>,
    ) {
        let mut program = self.programs[i].take().expect("program present");
        let sg = self.pg.subgraph(self.sg_ids[i]);
        let pg = self.pg;
        let start_time = self.provider.start_time();
        let period = self.provider.period();
        let provider = &mut self.provider;
        let memo = &mut self.memo;
        let mut fetch = |sg: &tempograph_partition::Subgraph, t: usize| -> Arc<SubgraphInstance> {
            memo.entry(sg.id())
                .or_insert_with(|| provider.fetch(sg, t))
                .clone()
        };
        let mut ctx = Context {
            sg,
            pg,
            phase,
            timestep,
            superstep,
            num_timesteps: timesteps,
            start_time,
            period,
            instance: None,
            fetch: &mut fetch,
            out: outbox,
        };
        match phase {
            Phase::Compute => program.compute(&mut ctx, msgs),
            Phase::EndOfTimestep => program.end_of_timestep(&mut ctx),
            Phase::Merge => program.merge(&mut ctx, msgs),
        }
        drop(ctx);
        self.programs[i] = Some(program);
    }

    /// Pull sequence counters, votes, counters/emits/merge messages out of
    /// an outbox; superstep and next-timestep messages are handed back for
    /// routing. A superstep's subgraph that did not vote to halt is listed
    /// to run the next one; an `EndOfTimestep` that voted to halt puts its
    /// subgraph to sleep.
    fn absorb_outbox(
        &mut self,
        i: usize,
        timestep: usize,
        outbox: &mut Outbox<P::Msg>,
        next_out: &mut Vec<Envelope<P::Msg>>,
        superstep_out: Option<&mut Vec<Envelope<P::Msg>>>,
    ) {
        self.merge_seq[i] = outbox.merge_seq;
        self.next_seq[i] = outbox.seq;
        if outbox.voted_halt_timestep {
            self.voted_halt_ts[i] = true;
        }
        for (name, v) in outbox.counters.drain(..) {
            *self.cur_counters.entry(name).or_insert(0) += v;
        }
        for (vertex, value) in outbox.emits.drain(..) {
            self.out.emits.push(Emit {
                timestep,
                vertex,
                value,
            });
        }
        self.merge_inbox[i].append(&mut outbox.merge_msgs);
        next_out.append(&mut outbox.next_timestep_msgs);
        if let Some(out) = superstep_out {
            out.append(&mut outbox.superstep_msgs);
            if !outbox.voted_halt {
                self.active.push(i as u32);
            }
        } else {
            debug_assert!(outbox.superstep_msgs.is_empty());
            self.asleep[i] = outbox.voted_halt;
        }
    }

    /// Stage local messages as sorted runs; pack remote ones into one
    /// pooled [`MessageBatch`] frame per peer (one allocation-free encode
    /// and one channel send per (src, dst) pair and phase).
    ///
    /// `msgs` arrives (from, seq)-sorted — senders are drained in ascending
    /// subgraph order and each sender's seq only grows — so every
    /// per-destination bucket formed here is itself a sorted run.
    fn route(
        &mut self,
        mut msgs: Vec<Envelope<P::Msg>>,
        kind: BatchKind,
        m: &mut TimestepMetrics,
    ) -> Result<(), EngineError> {
        if msgs.is_empty() {
            return Ok(());
        }
        if let Some(combiner) = &self.combiner {
            let before = msgs.len();
            msgs = combine_envelopes(combiner.as_ref(), msgs);
            m.msgs_combined += (before - msgs.len()) as u64;
        }
        let mut local: MessageBatch<P::Msg> = MessageBatch::new();
        let mut remote: Vec<Option<MessageBatch<P::Msg>>> =
            (0..self.transport.num_partitions()).map(|_| None).collect();
        for e in msgs {
            let target_part = self.pg.subgraph(e.to).partition();
            if target_part == self.partition {
                m.msgs_local += 1;
                local.push(e);
            } else {
                m.msgs_remote += 1;
                remote[target_part as usize]
                    .get_or_insert_with(MessageBatch::new)
                    .push(e);
            }
        }
        for (to, run) in local.into_runs() {
            self.stage(kind, to, run)?;
        }
        for (part, batch) in remote.into_iter().enumerate() {
            let Some(batch) = batch else { continue };
            let mut buf = self.pool.get();
            batch.encode_traced(&mut buf, &mut self.tracer);
            let bytes = buf.freeze();
            m.bytes_remote += bytes.len() as u64;
            m.batches_remote += 1;
            self.transport.send(part as u16, kind, bytes)?;
        }
        Ok(())
    }

    /// Close the current phase — every superstep and every timestep's
    /// tail ends here: route what the phase produced, rendezvous once (the
    /// wait is `sync_ns`), decode the collected frames and merge the staged
    /// `kind` runs into the inboxes. Marshalling and un-marshalling are
    /// both `msg_ns`, the paper's "partition overhead".
    fn close_phase(
        &mut self,
        kind: BatchKind,
        superstep_out: Vec<Envelope<P::Msg>>,
        next_out: Vec<Envelope<P::Msg>>,
        vote: Contribution,
        m: &mut TimestepMetrics,
    ) -> Result<Aggregate, EngineError> {
        let send0 = self.tracer.now();
        self.route(superstep_out, BatchKind::Superstep, m)?;
        self.route(next_out, BatchKind::NextTimestep, m)?;
        let wait0 = self.tracer.now();
        if let Some(sh) = self.shard.as_deref_mut() {
            sh.send_ns.record(wait0 - send0);
        }
        self.tracer.span_at("send", send0, wait0);
        let (agg, frames) = self.transport.close_phase(vote)?;
        let wait1 = self.tracer.now();
        if let Some(sh) = self.shard.as_deref_mut() {
            sh.barrier_wait_ns.record(wait1 - wait0);
        }
        m.sync_ns += wait1 - wait0;
        self.tracer.span_at("barrier.arrive", wait0, wait1);
        self.drain(frames)?;
        self.deliver_staged(kind);
        let drain1 = self.tracer.now();
        m.msg_ns += (wait0 - send0) + (drain1 - wait1);
        self.tracer.span_at("drain", wait1, drain1);
        Ok(agg)
    }

    /// This partition's index for subgraph `id`; `None` when `id` is out
    /// of range or lives elsewhere.
    fn local_index(&self, id: SubgraphId) -> Option<usize> {
        let idx = *self.index_of.get(id.idx())?;
        (idx != u32::MAX).then_some(idx as usize)
    }

    /// Stage one sorted run for local subgraph `to`. The id may come off a
    /// socket, so a subgraph that is not ours is a typed error.
    fn stage(
        &mut self,
        kind: BatchKind,
        to: SubgraphId,
        run: Vec<Envelope<P::Msg>>,
    ) -> Result<(), EngineError> {
        let idx = self.local_index(to).ok_or_else(|| EngineError::Protocol {
            detail: format!("batch for {to}, which is not a local subgraph"),
        })?;
        match kind {
            BatchKind::Superstep => self.inbox_runs.push(idx, run),
            BatchKind::NextTimestep => self.next_runs.push(idx, run),
        }
        Ok(())
    }

    /// Decode the collected frames into per-subgraph staged runs, recycling
    /// the frame allocations into this worker's pool. A frame that fails to
    /// decode surfaces as a typed error the driver attributes to this
    /// partition.
    fn drain(&mut self, frames: PhaseMail) -> Result<(), EngineError> {
        for (kind, mut bytes) in frames {
            for (to, run) in MessageBatch::<P::Msg>::decode(&mut bytes)? {
                self.stage(kind, to, run)?;
            }
            debug_assert_eq!(bytes.remaining(), 0);
            self.pool.reclaim(bytes);
        }
        Ok(())
    }

    /// Merge the staged `kind` runs of every subgraph that has any into
    /// its inbox — a k-way merge yielding the canonical (from, seq) order —
    /// and list it to run next superstep. Subgraphs without mail cost
    /// nothing.
    fn deliver_staged(&mut self, kind: BatchKind) {
        let staged = match kind {
            BatchKind::Superstep => &mut self.inbox_runs,
            BatchKind::NextTimestep => &mut self.next_runs,
        };
        for (i, runs) in staged.drain() {
            debug_assert!(self.inbox[i].is_empty(), "compute consumed the inbox");
            self.inbox[i] = merge_sorted_runs_traced(runs, &mut self.tracer);
            self.active.push(i as u32);
        }
        self.active.sort_unstable();
        self.active.dedup();
    }

    // ---- checkpoint / recovery -----------------------------------------

    /// Write this worker's checkpoint for timestep `t` when one is due, and
    /// rendezvous around partition 0's manifest commit. `last` marks the
    /// final executed timestep (configured end or a `WhileActive` stop
    /// vote), which always checkpoints so a merge-phase crash can resume
    /// without re-running the loop. Runs *after* the timestep's metrics are
    /// finalised, so checkpoint cost never pollutes `TimestepMetrics`.
    fn maybe_checkpoint(&mut self, t: usize, last: bool) -> Result<(), EngineError> {
        let Some(ck) = self.checkpoint.clone() else {
            return Ok(());
        };
        if ck.every == usize::MAX || !(ck.due_at(t) || last) {
            return Ok(());
        }
        let ck0 = self.tracer.now();
        let snapshot = self.build_checkpoint(t as u64, last);
        let data = snapshot.encode();
        let path = checkpoint_path(&ck.dir, t as u64, self.partition);
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.should_panic_in_checkpoint(self.partition, t as u64))
        {
            // Torn write: stage half the frame, then die before the rename.
            // Recovery must only ever see the `.tmp` leftover.
            std::fs::write(tmp_sibling(&path), &data[..data.len() / 2])
                .expect("write staging file");
            panic!("{}", injected_panic_message(self.partition, t, usize::MAX));
        }
        write_atomic(&path, &data).map_err(|e| EngineError::Checkpoint {
            context: format!("writing checkpoint for timestep {t}"),
            detail: e.to_string(),
        })?;
        let ck1 = self.tracer.now();
        if let Some(sh) = self.shard.as_deref_mut() {
            sh.checkpoint_write_ns.record(ck1 - ck0);
        }
        self.tracer
            .span_arg_at("checkpoint.write", ck0, ck1, "t", t as u64);
        self.cum_checkpoint_bytes += data.len() as u64;
        self.tracer
            .counter("checkpoint.bytes", self.cum_checkpoint_bytes);
        // Every partition file must be in place before the single commit
        // point, and the commit must land before anyone moves on.
        self.transport.barrier()?;
        if self.partition == 0 {
            commit_manifest(&ck.dir, t as u64).map_err(|e| EngineError::Checkpoint {
                context: format!("committing manifest for timestep {t}"),
                detail: e.to_string(),
            })?;
        }
        self.transport.barrier()
    }

    /// Snapshot everything this worker needs to resume after timestep `t`.
    fn build_checkpoint(&self, t: u64, loop_done: bool) -> WorkerCheckpoint<P::Msg> {
        let subgraphs = self
            .program_states()
            .enumerate()
            .map(|(i, (id, state))| {
                let sub = SubgraphCheckpoint {
                    state,
                    next_seq: self.next_seq[i],
                    merge_seq: self.merge_seq[i],
                    // Closing timestep `t` already delivered the next
                    // timestep's superstep-0 inbox.
                    next_inbox: self.inbox[i].clone(),
                    merge_inbox: self.merge_inbox[i].clone(),
                };
                (id, sub)
            })
            .collect();
        WorkerCheckpoint {
            partition: self.partition,
            timestep: t,
            loop_done,
            subgraphs,
            metrics: self.out.metrics.clone(),
            counters: self
                .out
                .counters
                .iter()
                // BTreeMap iteration is already name-sorted — the encoded
                // rows are canonical without an explicit sort.
                .map(|row| row.iter().map(|(&n, &val)| (n.to_string(), val)).collect())
                .collect(),
            emits: self.out.emits.clone(),
        }
    }

    /// Every local subgraph's program state, in subgraph order: what a
    /// checkpoint stores and what the job reports as its final states.
    fn program_states(&self) -> impl Iterator<Item = (SubgraphId, Vec<u8>)> + '_ {
        self.sg_ids
            .iter()
            .zip(&self.programs)
            .map(|(&id, program)| {
                let mut buf = BytesMut::new();
                program
                    .as_ref()
                    .expect("program present")
                    .save_state(&mut buf);
                (id, buf.to_vec())
            })
    }

    /// Load the (driver-validated) checkpoint of timestep `ct` and rebuild
    /// all resume state: program state, inboxes, sequence counters, and the
    /// metrics/counters/emits accumulated before the crash. Sleep flags are
    /// not restored: everyone resumes awake, which a sleeper's contract
    /// makes equivalent. A file that does not read, decode or match this
    /// worker's partition, timestep and subgraphs, or a state blob its
    /// program refuses, is [`EngineError::Checkpoint`] naming the file,
    /// the partition and the subgraph.
    fn restore_from(&mut self, ct: u64) -> Result<(), EngineError> {
        let r0 = self.tracer.now();
        let p = self.partition;
        let dir = self.checkpoint.as_ref().map_or(Path::new(""), |ck| &ck.dir);
        let path = checkpoint_path(dir, ct, p);
        let file = path.display();
        let refuse = |detail: String| EngineError::Checkpoint {
            context: format!("restoring partition {p} from {file}"),
            detail,
        };
        let data = std::fs::read(&path).map_err(|e| refuse(e.to_string()))?;
        let snapshot =
            WorkerCheckpoint::<P::Msg>::decode(data.into()).map_err(|e| refuse(e.to_string()))?;
        let held = (snapshot.partition, snapshot.timestep);
        if held != (p, ct) {
            return Err(refuse(format!("it holds (partition, timestep) {held:?}")));
        }
        if !snapshot.subgraphs.iter().map(|(sg, _)| sg).eq(&self.sg_ids) {
            return Err(refuse("its subgraph list differs".into()));
        }
        for (i, (sg, sub)) in snapshot.subgraphs.into_iter().enumerate() {
            let program = self.programs[i].as_mut().expect("program present");
            let blob = sub.state.into();
            decode_exact(blob, "program state", |b| program.restore_state(b))
                .map_err(|e| refuse(format!("subgraph {}: {e}", sg.0)))?;
            self.next_seq[i] = sub.next_seq;
            self.merge_seq[i] = sub.merge_seq;
            self.inbox[i] = sub.next_inbox;
            self.merge_inbox[i] = sub.merge_inbox;
        }
        self.loop_finished = snapshot.loop_done;
        self.out.metrics = snapshot.metrics;
        let rows = snapshot.counters.into_iter();
        self.out.counters = rows
            .map(|row| row.into_iter().map(|(n, v)| (intern(&n), v)).collect())
            .collect();
        self.out.emits = snapshot.emits;
        self.out.timesteps_run = ct as usize + 1;
        // Resume the cumulative trace-counter series where it left off.
        self.cum_msgs_local = self.out.metrics.iter().map(|m| m.msgs_local).sum();
        self.cum_msgs_remote = self.out.metrics.iter().map(|m| m.msgs_remote).sum();
        self.cum_bytes_remote = self.out.metrics.iter().map(|m| m.bytes_remote).sum();
        self.cum_msgs_combined = self.out.metrics.iter().map(|m| m.msgs_combined).sum();
        let r1 = self.tracer.now();
        if let Some(sh) = self.shard.as_deref_mut() {
            sh.recovery_restore_ns.record(r1 - r0);
        }
        self.tracer.span_arg_at("recovery.restore", r0, r1, "t", ct);
        Ok(())
    }

    /// Sample cumulative traffic totals as trace counters (one sample per
    /// timestep keeps the event volume O(timesteps), not O(messages)).
    fn sample_traffic_counters(&mut self, m: &TimestepMetrics) {
        self.cum_msgs_local += m.msgs_local;
        self.cum_msgs_remote += m.msgs_remote;
        self.cum_bytes_remote += m.bytes_remote;
        self.cum_msgs_combined += m.msgs_combined;
        self.tracer.counter("msgs.local", self.cum_msgs_local);
        self.tracer.counter("msgs.remote", self.cum_msgs_remote);
        self.tracer.counter("bytes.remote", self.cum_bytes_remote);
        self.tracer.counter("msgs.combined", self.cum_msgs_combined);
    }
}
