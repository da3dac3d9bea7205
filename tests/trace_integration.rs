//! Workspace integration tests for the tracing subsystem: a traced TI-BSP
//! run must produce a structurally valid trace whose spans *exactly*
//! re-derive the engine's `TimestepMetrics` aggregates (the shared-clock
//! design: metric accumulation and span recording consume the same
//! `TraceSink::now` readings), and whose Chrome-JSON export is loadable by
//! Perfetto. A GoFS-backed run must additionally report cache counters
//! that agree with the loader's own accounting.

use std::sync::{Arc, Mutex, MutexGuard};
use tempograph::prelude::*;

/// Serialises tests that depend on the global tracing kill-switch (the
/// overhead smoke test toggles it; `--include-ignored` would otherwise
/// race it against the derivation tests).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const TIMESTEPS: usize = 12;
const PARTITIONS: usize = 3;

fn tweet_fixture() -> (Arc<GraphTemplate>, Arc<TimeSeriesCollection>) {
    let t = Arc::new(wiki_like(0.15));
    let coll = Arc::new(generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: TIMESTEPS,
            meme: "#meme".into(),
            hit_prob: 0.05,
            initial_infected: 8,
            infectious_steps: 4,
            background_rate: 0.01,
            ..Default::default()
        },
    ));
    (t, coll)
}

fn road_fixture() -> (Arc<GraphTemplate>, Arc<TimeSeriesCollection>) {
    let t = Arc::new(carn_like(0.05));
    let coll = Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: TIMESTEPS,
            period: 300,
            min_latency: 5.0,
            max_latency: 140.0,
            seed: 7,
            ..Default::default()
        },
    ));
    (t, coll)
}

fn partitioned(t: &Arc<GraphTemplate>) -> Arc<PartitionedGraph> {
    let parts = MultilevelPartitioner::default().partition(t, PARTITIONS);
    Arc::new(discover_subgraphs(t.clone(), parts))
}

/// A traced HASH run (eventually dependent: timesteps + merge phase).
fn traced_hash_run() -> JobResult {
    let (t, coll) = tweet_fixture();
    let pg = partitioned(&t);
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    run_job(
        &pg,
        &InstanceSource::Memory(coll),
        HashtagAggregation::factory("#meme", tweets_col),
        JobConfig::eventually_dependent(TIMESTEPS).with_trace(TraceConfig::new()),
    )
}

#[test]
fn untraced_run_has_no_trace() {
    let (t, coll) = tweet_fixture();
    let pg = partitioned(&t);
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        HashtagAggregation::factory("#meme", tweets_col),
        JobConfig::eventually_dependent(TIMESTEPS),
    );
    assert!(result.trace.is_none());
}

#[test]
fn traced_run_validates_and_exactly_derives_metrics() {
    let _guard = serial();
    let result = traced_hash_run();
    let trace = result.trace.as_ref().expect("trace attached");
    trace.validate().expect("structurally valid trace");

    // One track per partition, each carrying its timesteps.
    assert_eq!(trace.tracks.len(), PARTITIONS);
    assert_eq!(
        trace.span_count("timestep"),
        result.timesteps_run * PARTITIONS
    );
    assert_eq!(trace.span_count("merge_phase"), PARTITIONS);

    // The acceptance bar is "within 1%"; the shared-clock design makes the
    // derivation *exact*, so assert equality outright.
    let all = || {
        result
            .metrics
            .iter()
            .flatten()
            .chain(result.merge_metrics.iter())
    };
    let compute: u64 = all().map(|m| m.compute_ns).sum();
    let msg: u64 = all().map(|m| m.msg_ns).sum();
    let sync: u64 = all().map(|m| m.sync_ns).sum();
    assert_eq!(
        compute,
        trace.sum_spans("compute") + trace.sum_spans("end_of_timestep"),
        "compute_ns must be re-derivable from compute + end_of_timestep spans"
    );
    // Marshalling and un-marshalling: routing/encoding on the way out,
    // decoding and merging the phase's mail on the way in.
    assert_eq!(
        msg,
        trace.sum_spans("send") + trace.sum_spans("drain"),
        "msg_ns from send + drain spans"
    );
    // One rendezvous per phase; the engine records no `barrier.post`.
    assert_eq!(
        sync,
        trace.sum_spans("barrier.arrive"),
        "sync_ns from barrier spans"
    );
    assert_eq!(trace.span_count("barrier.post"), 0);

    // Per-partition timestep wall clocks are the timestep spans themselves;
    // the merge phase has its own span.
    let wall: u64 = result.metrics.iter().flatten().map(|m| m.wall_ns).sum();
    assert_eq!(wall, trace.sum_spans("timestep"));
    let merge_wall: u64 = result.merge_metrics.iter().map(|m| m.wall_ns).sum();
    assert_eq!(merge_wall, trace.sum_spans("merge_phase"));

    // One compute span per superstep per partition (timesteps + merge).
    let supersteps: usize = all().map(|m| m.supersteps as usize).sum();
    assert_eq!(trace.span_count("compute"), supersteps);

    // Cumulative traffic counters end at the job-wide totals.
    let msgs_local: u64 = all().map(|m| m.msgs_local).sum();
    let msgs_remote: u64 = all().map(|m| m.msgs_remote).sum();
    let bytes_remote: u64 = all().map(|m| m.bytes_remote).sum();
    assert_eq!(trace.counter_final("msgs.local"), msgs_local);
    assert_eq!(trace.counter_final("msgs.remote"), msgs_remote);
    assert_eq!(trace.counter_final("bytes.remote"), bytes_remote);
}

/// Shared-clock invariant, metrics edition: the registry's histograms are
/// fed the *same* `TraceSink::now` differences the trace spans record, so
/// a run armed with both must agree exactly — sum for sum, count for
/// count — with no tolerance window.
#[test]
fn metrics_histograms_exactly_agree_with_trace_spans() {
    let _guard = serial();
    let (t, coll) = tweet_fixture();
    let pg = partitioned(&t);
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        HashtagAggregation::factory("#meme", tweets_col),
        JobConfig::eventually_dependent(TIMESTEPS)
            .with_trace(TraceConfig::new())
            .with_metrics(),
    );
    let trace = result.trace.as_ref().expect("trace attached");
    let snap = result
        .registry
        .as_ref()
        .expect("registry attached")
        .snapshot();
    let hist = |name: &str| match snap.get(name, &[]) {
        Some(tempograph::metrics::Metric::Histogram(h)) => h,
        other => panic!("{name}: expected a histogram, got {other:?}"),
    };

    // Compute: one observation per compute span plus one per
    // end_of_timestep span, covering the identical nanoseconds.
    let compute = hist("tempograph_superstep_compute_ns");
    assert_eq!(
        compute.sum(),
        trace.sum_spans("compute") + trace.sum_spans("end_of_timestep")
    );
    assert_eq!(
        compute.count() as usize,
        trace.span_count("compute") + trace.span_count("end_of_timestep")
    );

    // Send: one observation per send span.
    let send = hist("tempograph_send_ns");
    assert_eq!(send.sum(), trace.sum_spans("send"));
    assert_eq!(send.count() as usize, trace.span_count("send"));

    // Barrier wait: one observation per arrive span — one rendezvous per
    // superstep and one per timestep, nothing else.
    let wait = hist("tempograph_barrier_wait_ns");
    assert_eq!(wait.sum(), trace.sum_spans("barrier.arrive"));
    assert_eq!(wait.count() as usize, trace.span_count("barrier.arrive"));
    assert_eq!(
        trace.span_count("barrier.arrive"),
        trace.span_count("compute") + trace.span_count("timestep")
    );

    // And both re-derive the engine's own aggregates (trace side already
    // asserted in traced_run_validates_and_exactly_derives_metrics).
    assert_eq!(
        snap.counter_total("tempograph_compute_ns_total"),
        compute.sum()
    );
    assert_eq!(
        snap.counter_total("tempograph_msg_ns_total"),
        send.sum() + trace.sum_spans("drain")
    );
    assert_eq!(snap.counter_total("tempograph_sync_ns_total"), wait.sum());
}

#[test]
fn chrome_export_is_structurally_sound() {
    let _guard = serial();
    let result = traced_hash_run();
    let json = result.trace.as_ref().unwrap().to_chrome_json();

    assert!(
        json.starts_with("{\"traceEvents\":["),
        "envelope: {}",
        &json[..40.min(json.len())]
    );
    assert!(json.trim_end().ends_with('}'));
    // Span names contain no braces/brackets, so raw balance checks hold.
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces"
    );
    assert_eq!(
        json.matches('[').count(),
        json.matches(']').count(),
        "balanced brackets"
    );
    // Metadata names the partition tracks; spans and counters are present.
    assert!(json.contains("\"thread_name\""));
    assert!(json.contains("partition 0"));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"C\""));
    assert!(json.contains("\"timestep\""));
    assert!(json.contains("\"superstep\""));
}

#[test]
fn gofs_run_reports_cache_counters_in_trace() {
    let _guard = serial();
    let (t, coll) = road_fixture();
    let pg = partitioned(&t);
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();

    let dir = std::env::temp_dir().join(format!("trace-int-gofs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    tempograph::gofs::store::write_dataset(&dir, pg.clone(), &coll, 4, 2).unwrap();

    let result = run_job(
        &pg,
        &InstanceSource::Gofs(dir.clone()),
        Tdsp::factory(VertexIdx(0), lat_col),
        JobConfig::sequentially_dependent(TIMESTEPS)
            .while_active(TIMESTEPS)
            .with_trace(TraceConfig::new()),
    );
    std::fs::remove_dir_all(&dir).unwrap();

    let trace = result.trace.as_ref().unwrap();
    trace.validate().expect("valid trace with gofs events");

    // Every cache miss is one slice read: one gofs.load span, and the
    // loaders' final counter samples sum to the engine's slice_loads total.
    let loads = trace.span_count("gofs.load") as u64;
    assert!(loads > 0, "a GoFS run must read slices");
    assert_eq!(trace.counter_final("gofs.cache_misses"), loads);
    let slice_loads: u64 = result.metrics.iter().flatten().map(|m| m.slice_loads).sum();
    assert_eq!(slice_loads, loads);
    // Temporal packing of 4 means later timesteps hit the slice cache.
    assert!(trace.counter_final("gofs.cache_hits") > 0);
    assert!(trace.counter_final("gofs.bytes_read") > 0);
}

#[test]
fn flight_recorder_stays_bounded() {
    let _guard = serial();
    let (t, coll) = tweet_fixture();
    let pg = partitioned(&t);
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    const CAP: usize = 128;
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        HashtagAggregation::factory("#meme", tweets_col),
        JobConfig::eventually_dependent(TIMESTEPS)
            .with_trace(TraceConfig::new().flight_recorder(CAP)),
    );
    let trace = result.trace.as_ref().unwrap();
    trace
        .validate()
        .expect("bounded ring still yields a valid trace");
    assert!(
        trace.num_events() <= CAP * PARTITIONS,
        "{} events exceed {} rings of {CAP}",
        trace.num_events(),
        PARTITIONS
    );
    assert!(trace.num_events() > 0);
}

/// Overhead smoke test (run explicitly: `cargo test --release --test
/// trace_integration -- --ignored`): with tracing *globally disabled*, a
/// job configured for tracing must not run measurably slower than an
/// untraced job — the record path is a branch on two booleans.
#[test]
#[ignore]
fn trace_overhead_when_disabled_is_negligible() {
    let _guard = serial();
    let (t, coll) = tweet_fixture();
    let pg = partitioned(&t);
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let src = InstanceSource::Memory(coll);

    let run = |config: JobConfig<_>| {
        let started = std::time::Instant::now();
        let result = run_job(
            &pg,
            &src,
            HashtagAggregation::factory("#meme", tweets_col),
            config,
        );
        assert_eq!(result.timesteps_run, TIMESTEPS);
        started.elapsed()
    };
    // Warm up caches and the allocator.
    run(JobConfig::eventually_dependent(TIMESTEPS));

    let best = |mk: &dyn Fn() -> JobConfig<<HashtagAggregation as SubgraphProgram>::Msg>| {
        (0..3).map(|_| run(mk())).min().unwrap()
    };
    let baseline = best(&|| JobConfig::eventually_dependent(TIMESTEPS));
    tempograph::trace::set_tracing_enabled(false);
    let disabled =
        best(&|| JobConfig::eventually_dependent(TIMESTEPS).with_trace(TraceConfig::new()));
    tempograph::trace::set_tracing_enabled(true);

    // Generous bound: timesharing noise dwarfs the two-boolean branch, so
    // demand only "not catastrophically slower".
    assert!(
        disabled < baseline * 2,
        "disabled-tracing run {disabled:?} vs baseline {baseline:?}"
    );
}
