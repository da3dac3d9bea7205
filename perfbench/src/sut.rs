//! The one adapter for the system under test: every call into `tempograph`
//! lives in this file. README.md lists the names used here, so a later
//! refactor — which may not edit the benchmark — knows what to keep.

use crate::measure::{self, output_digest, Spans};
use crate::workloads::{Cluster as Transport, Cut, Graph, Size, Workload, PACKING, PARTITIONS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tempograph::algos::tdsp::TdspMsg;
use tempograph::algos::TdspCombiner;
use tempograph::engine::{merge_sorted_runs, Frame, FrameConn, FrameKind, MessageBatch};
use tempograph::gofs::store::write_dataset;
use tempograph::metrics::Metric;
use tempograph::partition::{balance, cut_fraction};
use tempograph::pregel::{run_pregel, SsspVertex};
use tempograph::prelude::*;
use tempograph::trace::TraceEvent;

/// The hashtag `hash_tweets` counts: one of the background tags, so its
/// frequency follows the law of large numbers instead of one epidemic's
/// luck.
const COUNTED_TAG: &str = "#tag07";
const BACKGROUND_TAGS: usize = 64;
/// Half the vertices tweet a background tag in every instance, so strings —
/// not empty rows — are what set-up writes and the job reads. At the CLI's
/// 0.01 the job is over in a fraction of a second.
const BACKGROUND_RATE: f64 = 0.5;

/// What set-up learned about the dataset it wrote.
pub struct SetupFacts {
    pub vertices: usize,
    pub edges: usize,
    pub subgraphs: usize,
    pub cut_fraction: f64,
    pub balance: f64,
    pub store_bytes: u64,
    /// The digest a correct run must produce, where set-up can compute it
    /// from the in-memory collection (HASH); `None` for TDSP, whose check
    /// is `tdsp_finalized == vertices`.
    pub expect_digest: Option<u64>,
}

/// The template is the same for every `--seed`, as CARN and WIKI are fixed
/// graphs in the paper: only the instance data is drawn from the seed. A
/// per-seed lattice gets a per-seed multilevel cut, whose compute skew
/// (1.01 to 1.36 over five seeds) moved `job_wall_s` by more than its bound.
fn template_of(graph: Graph) -> GraphTemplate {
    match graph {
        Graph::Road { side } => road_network(&RoadNetConfig {
            width: side,
            height: side,
            extra_edge_prob: 0.4,
            seed: 0xCA_12_00,
        }),
        Graph::Wiki { vertices } => small_world(&SmallWorldConfig {
            vertices,
            edges_per_vertex: 2,
            directed: false,
            seed: 0x31_7B1,
        }),
    }
}

fn road_latencies(
    template: Arc<GraphTemplate>,
    timesteps: usize,
    seed: u64,
) -> TimeSeriesCollection {
    generate_road_latencies(
        template,
        &RoadLatencyConfig {
            timesteps,
            seed,
            ..Default::default()
        },
    )
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Generate the workload's dataset from `seed`, partition it and write it
/// to a GoFS store at `dir`, with one span per layer call.
pub fn setup(
    w: &Workload,
    size: Size,
    seed: u64,
    dir: &Path,
    spans: &mut Spans,
) -> Result<SetupFacts, String> {
    let template = spans.record("bench.setup.gen_template", |_| {
        Arc::new(template_of(size.graph))
    });
    let series = spans.record("bench.setup.gen_instances", |_| match size.graph {
        Graph::Road { .. } => road_latencies(template.clone(), size.instances, seed),
        Graph::Wiki { .. } => generate_sir_tweets(
            template.clone(),
            &SirConfig {
                timesteps: size.instances,
                hit_prob: DatasetPreset::Wiki.hit_prob(),
                background_tags: (0..BACKGROUND_TAGS)
                    .map(|i| format!("#tag{i:02}"))
                    .collect(),
                background_rate: BACKGROUND_RATE,
                seed,
                ..Default::default()
            },
        ),
    });
    let parts = spans.record("bench.setup.partition", |_| match w.cut {
        Cut::Multilevel => MultilevelPartitioner::default().partition(&template, PARTITIONS),
        Cut::Hash => HashPartitioner.partition(&template, PARTITIONS),
    });
    let cut = cut_fraction(&template, &parts);
    let bal = balance(&template, &parts);
    let pg = spans.record("bench.setup.discover_subgraphs", |_| {
        Arc::new(discover_subgraphs(template.clone(), parts))
    });
    spans
        .record("bench.setup.gofs_write", |_| {
            write_dataset(dir, pg.clone(), &series, PACKING, w.binning)
        })
        .map_err(|e| format!("writing the GoFS store: {e}"))?;
    spans
        .record("bench.setup.gofs_open", |_| open(dir))
        .map(drop)?;

    let expect_digest = match size.graph {
        Graph::Road { .. } => None,
        Graph::Wiki { .. } => Some(expected_hash_digest(&series)),
    };
    // The set-up child exits next: freeing tens of millions of strings one
    // by one would be the harness's seconds in `setup_s`, not tempograph's.
    std::mem::forget(series);
    Ok(SetupFacts {
        vertices: template.num_vertices(),
        edges: template.num_edges(),
        subgraphs: pg.subgraphs().len(),
        cut_fraction: cut,
        balance: bal,
        store_bytes: dir_bytes(dir),
        expect_digest,
    })
}

/// HASH's answer counted directly over the in-memory collection: one
/// emitted `(merge phase, t, count_t)` per timestep and the grand total.
/// The engine stamps merge-phase emits with the configured timestep count.
fn expected_hash_digest(series: &TimeSeriesCollection) -> u64 {
    let mut emitted = Vec::with_capacity(series.len());
    let mut total = 0u64;
    for (t, g) in series.iter().enumerate() {
        let rows = g
            .vertex_text_list(TWEETS_ATTR)
            .expect("wiki templates declare a tweets column");
        let count = rows
            .iter()
            .map(|row| row.iter().filter(|tag| *tag == COUNTED_TAG).count() as u64)
            .sum::<u64>();
        total += count;
        emitted.push((series.len() as u64, t as u64, (count as f64).to_bits()));
    }
    let mut counters = BTreeMap::new();
    counters.insert(format!("merge:{}", HashtagAggregation::TOTAL), total);
    output_digest(emitted, &counters)
}

fn open(dir: &Path) -> Result<(GofsStore, Arc<PartitionedGraph>), String> {
    let store = GofsStore::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let pg = Arc::new(store.partitioned_graph());
    Ok((store, pg))
}

/// How one repetition's job is configured beyond the workload itself.
pub struct JobArgs<'a> {
    pub dir: &'a Path,
    /// Arm trace + metrics + attribution (the traced pass).
    pub armed: bool,
    /// This repetition's own directory, emptied before it starts: its
    /// checkpoints and its worker processes' peak-memory reports.
    pub scratch: &'a Path,
    /// Where an armed repetition leaves its engine spans for the trace file.
    pub events_out: Option<&'a Path>,
}

impl JobArgs<'_> {
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.scratch.join("ckpt")
    }

    fn worker_hwm_file(&self, partition: u16) -> PathBuf {
        self.scratch.join(format!("worker-hwm-{partition}"))
    }
}

/// Runs one (program factory, config) pair — as the coordinator of
/// whichever cluster the workload names, or as one worker process of it.
/// `dispatch` owns the workload → (program, pattern) table once, so a
/// worker process builds the job its coordinator built.
trait Runner {
    type Out;
    fn run<P, F>(self, factory: F, config: JobConfig<P::Msg>) -> Self::Out
    where
        P: SubgraphProgram,
        F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync + 'static;
}

fn dispatch<R: Runner>(w: &Workload, store: &GofsStore, args: &JobArgs<'_>, runner: R) -> R::Out {
    let template = store.template();
    let timesteps = store.meta().num_timesteps;
    if w.is_tdsp() {
        let col = template
            .edge_schema()
            .index_of(LATENCY_ATTR)
            .expect("road templates declare a latency column");
        let mut cfg = JobConfig::sequentially_dependent(timesteps).while_active(timesteps);
        if w.combiner {
            cfg = cfg.with_combiner(Arc::new(TdspCombiner));
        }
        runner.run(Tdsp::factory(VertexIdx(0), col), tune(cfg, w, args))
    } else {
        let col = template
            .vertex_schema()
            .index_of(TWEETS_ATTR)
            .expect("wiki templates declare a tweets column");
        runner.run(
            HashtagAggregation::factory(COUNTED_TAG, col),
            tune(JobConfig::eventually_dependent(timesteps), w, args),
        )
    }
}

fn tune<M>(mut cfg: JobConfig<M>, w: &Workload, args: &JobArgs<'_>) -> JobConfig<M> {
    if args.armed {
        cfg = cfg
            .with_trace(TraceConfig::new())
            .with_metrics()
            .with_attribution();
    }
    if let Some(every) = w.checkpoint_every {
        cfg = cfg.with_checkpoint(every, args.checkpoint_dir());
    }
    cfg
}

struct Coordinator<'a> {
    pg: &'a Arc<PartitionedGraph>,
    src: InstanceSource,
    cluster: Option<Cluster>,
}

impl Runner for Coordinator<'_> {
    type Out = Result<JobResult, String>;
    fn run<P, F>(self, factory: F, config: JobConfig<P::Msg>) -> Self::Out
    where
        P: SubgraphProgram,
        F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync + 'static,
    {
        match self.cluster {
            None => Ok(run_job(self.pg, &self.src, factory, config)),
            Some(cluster) => run_job_tcp(self.pg, &self.src, factory, config, cluster)
                .map_err(|e| format!("tcp job failed: {e}")),
        }
    }
}

struct WorkerProcess {
    pg: Arc<PartitionedGraph>,
    src: InstanceSource,
    partition: u16,
    coordinator: String,
}

impl Runner for WorkerProcess {
    type Out = i32;
    fn run<P, F>(self, factory: F, config: JobConfig<P::Msg>) -> i32
    where
        P: SubgraphProgram,
        F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync + 'static,
    {
        run_tcp_worker::<P, F>(
            self.coordinator,
            self.partition,
            self.pg,
            self.src,
            factory,
            config,
        )
    }
}

/// One worker process of a `Cluster::Processes` job; returns its exit
/// code. Leaves its peak resident set where the coordinator's repetition
/// looks for it. Prints nothing: its standard output is the repetition's.
pub fn worker(
    w: &Workload,
    args: &JobArgs<'_>,
    partition: u16,
    coordinator: String,
) -> Result<i32, String> {
    let (store, pg) = open(args.dir)?;
    let code = dispatch(
        w,
        &store,
        args,
        WorkerProcess {
            pg,
            src: InstanceSource::Gofs(args.dir.into()),
            partition,
            coordinator,
        },
    );
    std::fs::write(
        args.worker_hwm_file(partition),
        measure::self_hwm_mb().to_string(),
    )
    .map_err(|e| format!("recording worker peak memory: {e}"))?;
    Ok(code)
}

/// What one repetition measured. Counts and layer times come from
/// `JobResult`; `wall_s` from the benchmark's own clock around open + job.
pub struct RepOut {
    pub wall_s: f64,
    pub open_s: f64,
    pub edges: usize,
    pub timesteps_run: usize,
    pub digest: u64,
    pub emitted: usize,
    pub counters: BTreeMap<String, u64>,
    /// Largest peak resident set among worker processes, MB (0 when the
    /// workers are threads of this process).
    pub workers_hwm_mb: f64,
    pub checkpoint_bytes: u64,
    /// Slowest partition's wall per timestep, ms.
    pub timestep_ms: Vec<f64>,
    /// Per-layer numbers by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Events in the engine's trace (0 unless armed).
    pub trace_events: usize,
    /// Engine spans beyond the per-name cap, left out of `events_out`.
    pub trace_spans_dropped: u64,
}

/// Open the store at `args.dir` and run the workload's job once.
/// `worker_args` is the command line (before the engine's `--partition N
/// --coordinator ADDR`) that makes this binary a worker of the same job.
pub fn run_rep(
    w: &Workload,
    args: &JobArgs<'_>,
    worker_args: Vec<String>,
    spans: &mut Spans,
) -> Result<RepOut, String> {
    let started = Instant::now();
    let (store, pg) = spans.record("bench.open", |_| open(args.dir))?;
    let open_s = started.elapsed().as_secs_f64();
    let cluster = match w.cluster {
        Transport::InProcess => None,
        Transport::TcpThreads => Some(Cluster::Threads),
        Transport::TcpProcesses => Some(Cluster::Processes {
            worker_bin: std::env::current_exe().map_err(|e| e.to_string())?,
            worker_args,
        }),
    };
    let job_start_ns = spans.now_ns();
    let result = spans.record("bench.job", |_| {
        dispatch(
            w,
            &store,
            args,
            Coordinator {
                pg: &pg,
                src: InstanceSource::Gofs(args.dir.into()),
                cluster,
            },
        )
    })?;
    let wall_s = started.elapsed().as_secs_f64();

    let mut counters = BTreeMap::new();
    for (name, per_t) in &result.counters {
        counters.insert(name.clone(), per_t.iter().flatten().sum());
    }
    for (name, per_p) in &result.merge_counters {
        counters.insert(format!("merge:{name}"), per_p.iter().sum());
    }
    let emitted: Vec<(u64, u64, u64)> = result
        .emitted
        .iter()
        .map(|e| (e.timestep as u64, u64::from(e.vertex.0), e.value.to_bits()))
        .collect();
    let n_emitted = emitted.len();

    let mut workers_hwm_mb: f64 = 0.0;
    if w.cluster == Transport::TcpProcesses {
        for p in 0..PARTITIONS as u16 {
            let reported = std::fs::read_to_string(args.worker_hwm_file(p))
                .ok()
                .and_then(|text| text.parse::<f64>().ok())
                .ok_or_else(|| format!("worker {p} left no peak-memory report"))?;
            workers_hwm_mb = workers_hwm_mb.max(reported);
        }
    }
    let trace_spans_dropped = match (&result.trace, args.events_out) {
        (Some(trace), Some(path)) => write_trace_spans(trace, job_start_ns, path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?,
        _ => 0,
    };
    Ok(RepOut {
        wall_s,
        open_s,
        edges: store.template().num_edges(),
        timesteps_run: result.timesteps_run,
        digest: output_digest(emitted, &counters),
        emitted: n_emitted,
        counters,
        workers_hwm_mb,
        checkpoint_bytes: dir_bytes(&args.checkpoint_dir()),
        timestep_ms: (0..result.timesteps_run)
            .map(|t| result.timestep_wall_ns(t) as f64 / 1e6)
            .collect(),
        layers: job_layers(&result, wall_s, open_s),
        trace_events: result.trace.as_ref().map_or(0, Trace::num_events),
        trace_spans_dropped,
    })
}

/// The per-layer numbers one `JobResult` holds. Times are summed over
/// partitions, so a share is taken of `k × wall_s`, the repetition's whole
/// wall (the same base the layer table prints).
fn job_layers(r: &JobResult, wall_s: f64, open_s: f64) -> BTreeMap<&'static str, f64> {
    let s = |ns: u64| ns as f64 / 1e9;
    let rows = || r.metrics.iter().flatten().chain(r.merge_metrics.iter());
    let sum = |f: fn(&tempograph::engine::TimestepMetrics) -> u64| rows().map(f).sum::<u64>();
    let budget = PARTITIONS as f64 * wall_s;

    let per_partition = r.partition_breakdown();
    let compute_max = per_partition
        .iter()
        .map(|m| m.compute_ns)
        .max()
        .unwrap_or(0);
    let compute_mean = per_partition.iter().map(|m| m.compute_ns).sum::<u64>() as f64
        / per_partition.len().max(1) as f64;
    let timestep_wall: u64 = (0..r.timesteps_run).map(|t| r.timestep_wall_ns(t)).sum();
    let merge_wall = r.merge_metrics.iter().map(|m| m.wall_ns).max().unwrap_or(0);

    let mut out = BTreeMap::new();
    out.insert("gofs.io_s", s(sum(|m| m.io_ns)));
    out.insert("gofs.slice_loads", sum(|m| m.slice_loads) as f64);
    out.insert("executor.compute_s", s(sum(|m| m.compute_ns)));
    out.insert("executor.compute_share", s(sum(|m| m.compute_ns)) / budget);
    out.insert(
        "executor.compute_skew",
        if compute_mean > 0.0 {
            compute_max as f64 / compute_mean
        } else {
            0.0
        },
    );
    out.insert(
        "executor.supersteps",
        r.metrics
            .iter()
            .map(|per_t| {
                per_t
                    .iter()
                    .map(|m| u64::from(m.supersteps))
                    .max()
                    .unwrap_or(0)
            })
            .sum::<u64>() as f64,
    );
    out.insert("executor.timesteps_run", r.timesteps_run as f64);
    out.insert("executor.virtual_makespan_s", s(r.virtual_total_ns()));
    out.insert("batch.msg_s", s(sum(|m| m.msg_ns)));
    out.insert("batch.msg_share", s(sum(|m| m.msg_ns)) / budget);
    out.insert("batch.msgs_local", sum(|m| m.msgs_local) as f64);
    out.insert("batch.msgs_remote", sum(|m| m.msgs_remote) as f64);
    out.insert("batch.msgs_combined", sum(|m| m.msgs_combined) as f64);
    out.insert("batch.batches_remote", sum(|m| m.batches_remote) as f64);
    out.insert(
        "batch.bytes_remote_mb",
        sum(|m| m.bytes_remote) as f64 / 1e6,
    );
    out.insert("transport.barrier_wait_s", s(sum(|m| m.sync_ns)));
    out.insert("transport.barrier_share", s(sum(|m| m.sync_ns)) / budget);
    // Whatever of the job's wall is not inside a timestep or the merge
    // phase: worker spawn, connect, handshake, result collection.
    out.insert(
        "transport.spawn_connect_s",
        (wall_s - open_s - s(timestep_wall) - s(merge_wall)).max(0.0),
    );

    // The registry exists on armed repetitions only.
    if let Some(reg) = &r.registry {
        let snap = reg.snapshot();
        let hist = |name: &str| match snap.get(name, &[]) {
            Some(Metric::Histogram(h)) => (h.count() as f64, s(h.sum())),
            _ => (0.0, 0.0),
        };
        let hits = snap.counter_total("tempograph_gofs_cache_hits_total") as f64;
        let misses = snap.counter_total("tempograph_gofs_cache_misses_total") as f64;
        out.insert(
            "gofs.cache_hit_rate",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        out.insert(
            "gofs.cache_evictions",
            snap.counter_total("tempograph_gofs_cache_evictions_total") as f64,
        );
        out.insert(
            "gofs.bytes_read_mb",
            snap.counter_total("tempograph_gofs_bytes_read_total") as f64 / 1e6,
        );
        out.insert(
            "transport.barrier_rounds",
            hist("tempograph_barrier_wait_ns").0,
        );
        out.insert("transport.send_s", hist("tempograph_send_ns").1);
        let (ckpt_count, ckpt_s) = hist("tempograph_checkpoint_write_ns");
        out.insert("checkpoint.count", ckpt_count);
        out.insert("checkpoint.write_s", ckpt_s);
    }
    out
}

/// Cold single-threaded sweep of `InstanceLoader::load` over every
/// (subgraph, timestep) of partition 0: `(seconds, cells, peak cached MB)`.
pub fn probe_gofs_load_all(dir: &Path) -> Result<(f64, u64, f64), String> {
    let (store, pg) = open(dir)?;
    let timesteps = store.meta().num_timesteps;
    let mut loader = InstanceLoader::with_default_capacity(store, &pg, 0);
    let mut cells = 0u64;
    let mut cached_peak = 0usize;
    let started = Instant::now();
    for t in 0..timesteps {
        for &sg in pg.subgraphs_of_partition(0) {
            let inst = loader
                .load(sg, t)
                .map_err(|e| format!("loading {sg} at timestep {t}: {e}"))?;
            black_box(&inst);
            let sub = pg.subgraph(sg);
            cells += (sub.num_vertices() + sub.num_edges()) as u64;
        }
        // Sampled once per timestep: the walk over the cache is not free.
        cached_peak = cached_peak.max(loader.cached_bytes());
    }
    Ok((
        started.elapsed().as_secs_f64(),
        cells,
        cached_peak as f64 / 1e6,
    ))
}

/// Encode, decode and k-way-merge cost of a synthetic `TdspMsg` batch of
/// `msgs` messages, ns per message each.
pub fn probe_batch(msgs: usize) -> (f64, f64, f64) {
    const ROUNDS: usize = 40;
    let msgs = msgs.max(1);
    let envelope = |i: usize| Envelope {
        from: SubgraphId((i / 4) as u32),
        to: SubgraphId((i % 97) as u32),
        seq: i as u32,
        payload: TdspMsg::Relax(VertexIdx(i as u32), i as f64 * 0.5),
    };
    let mut batch = MessageBatch::new();
    for i in 0..msgs {
        batch.push(envelope(i));
    }
    let mut buf = bytes::BytesMut::new();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        buf.clear();
        batch.encode(&mut buf);
        black_box(&buf);
    }
    let encode = started.elapsed();

    let frame = buf.freeze();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let runs = MessageBatch::<TdspMsg>::decode(&mut frame.clone())
            .expect("a frame this probe encoded decodes");
        black_box(runs);
    }
    let decode = started.elapsed();

    // Four senders with interleaved `from` ranges, each run sorted.
    let runs: Vec<Vec<Envelope<TdspMsg>>> = (0..4)
        .map(|r| (0..msgs).filter(|i| i % 4 == r).map(envelope).collect())
        .collect();
    let mut merge_ns = 0u128;
    for _ in 0..ROUNDS {
        let input = runs.clone();
        let started = Instant::now();
        black_box(merge_sorted_runs(input));
        merge_ns += started.elapsed().as_nanos();
    }
    let per = (ROUNDS * msgs) as f64;
    (
        encode.as_nanos() as f64 / per,
        decode.as_nanos() as f64 / per,
        merge_ns as f64 / per,
    )
}

/// Frame codec + loopback TCP: `(round-trip µs of a 64 B frame, MB/s of
/// 64 KiB frames one way)`.
pub fn probe_net() -> Result<(f64, f64), String> {
    const PINGS: usize = 2000;
    const STREAM_FRAMES: usize = 2000;
    const STREAM_PAYLOAD: usize = 64 * 1024;
    let err = |e: &dyn std::fmt::Display| format!("net probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| err(&e))?;
    let addr = listener.local_addr().map_err(|e| err(&e))?;

    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut conn = FrameConn::new(stream, "probe client").map_err(|e| e.to_string())?;
        for _ in 0..PINGS {
            let f = conn.recv().map_err(|e| e.to_string())?;
            conn.send(&f).map_err(|e| e.to_string())?;
        }
        for _ in 0..STREAM_FRAMES {
            conn.recv().map_err(|e| e.to_string())?;
        }
        // One frame back tells the sender the last byte was consumed.
        conn.send(&frame(vec![0; 1])).map_err(|e| e.to_string())
    });

    let stream = TcpStream::connect(addr).map_err(|e| err(&e))?;
    let mut conn = FrameConn::new(stream, "probe server").map_err(|e| err(&e))?;
    let ping = frame(vec![7; 64]);
    let started = Instant::now();
    for _ in 0..PINGS {
        conn.send(&ping).map_err(|e| err(&e))?;
        conn.recv().map_err(|e| err(&e))?;
    }
    let rtt_us = started.elapsed().as_secs_f64() * 1e6 / PINGS as f64;

    let big = frame(vec![7; STREAM_PAYLOAD]);
    let started = Instant::now();
    for _ in 0..STREAM_FRAMES {
        conn.send(&big).map_err(|e| err(&e))?;
    }
    conn.recv().map_err(|e| err(&e))?;
    let mb_per_s = (STREAM_FRAMES * STREAM_PAYLOAD) as f64 / 1e6 / started.elapsed().as_secs_f64();
    echo.join()
        .map_err(|_| "net probe: echo thread panicked".to_string())?
        .map_err(|e| err(&e))?;
    Ok((rtt_us, mb_per_s))
}

fn frame(payload: Vec<u8>) -> Frame {
    Frame::control(FrameKind::DataSuperstep, 0, 0, payload.into())
}

/// The vertex-centric baseline: Pregel SSSP from vertex 0 over the store's
/// template with instance 0's latencies — `(wall s, supersteps, messages)`.
pub fn probe_pregel_sssp(dir: &Path, seed: u64) -> Result<(f64, f64, f64), String> {
    let (store, _) = open(dir)?;
    let template = store.template().clone();
    // Instance 0 of the dataset: the latency stream is drawn instance by
    // instance, so a one-instance series from the same seed reproduces it.
    let first = road_latencies(template.clone(), 1, seed);
    let latencies = first
        .get(0)
        .and_then(|g| g.edge_f64(LATENCY_ATTR).ok())
        .ok_or("pregel probe: the template has no latency column")?
        .to_vec();
    let program = SsspVertex {
        source: VertexIdx(0),
        latencies: Some(latencies),
    };
    let started = Instant::now();
    let result = run_pregel(&template, store.partitioning(), &program, usize::MAX);
    let wall = started.elapsed().as_secs_f64();
    if result.states.iter().any(|d| !d.is_finite()) {
        return Err("pregel probe: SSSP left a vertex unreached on a connected lattice".into());
    }
    Ok((
        wall,
        result.metrics.supersteps as f64,
        result.metrics.messages as f64,
    ))
}

/// Write the engine trace's spans to `path` as
/// `track\tname\tstart_ns\tdur_ns` lines, with `base_ns` (when the job
/// began, on the benchmark's clock) added to the engine's job-relative times.
/// At most `MAX_SPANS_PER_NAME` spans of one name are written — a hash-cut
/// job records a million `batch.merge` spans — and the number left out is
/// returned.
fn write_trace_spans(trace: &Trace, base_ns: u64, path: &Path) -> std::io::Result<u64> {
    const MAX_SPANS_PER_NAME: u64 = 20_000;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut dropped = 0;
    for track in &trace.tracks {
        for ev in &track.events {
            if let TraceEvent::Span {
                name,
                start_ns,
                dur_ns,
                ..
            } = *ev
            {
                let n = written.entry(name).or_insert(0);
                if *n == MAX_SPANS_PER_NAME {
                    dropped += 1;
                    continue;
                }
                *n += 1;
                writeln!(
                    out,
                    "{}\t{name}\t{}\t{dur_ns}",
                    track.name,
                    base_ns + start_ns
                )?;
            }
        }
    }
    out.flush()?;
    Ok(dropped)
}
