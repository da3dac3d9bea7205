//! Workspace integration tests for the metrics registry: a TI-BSP run
//! with `JobConfig::with_metrics` must attach a folded registry whose
//! counters re-derive the engine's `TimestepMetrics` aggregates exactly,
//! whose GoFS cache instruments agree with the loader's own accounting,
//! and whose fault counters make injected failures visible. All three
//! exports (Prometheus text, top-N summary, canonical JSON) must carry
//! the same data.

use std::sync::Arc;
use tempograph::metrics::json::Value;
use tempograph::metrics::Metric;
use tempograph::prelude::*;

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

fn hash_run(config: JobConfig<Vec<u64>>) -> JobResult {
    let (t, coll) = tweet_fixture();
    let pg = partitioned(&t);
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    run_job(
        &pg,
        &InstanceSource::Memory(coll),
        HashtagAggregation::factory("#meme", tweets_col),
        config,
    )
}

#[test]
fn default_run_has_no_registry() {
    let result = hash_run(JobConfig::eventually_dependent(TIMESTEPS));
    assert!(result.registry.is_none());
}

#[test]
fn metrics_run_attaches_registry_that_rederives_job_aggregates() {
    let result = hash_run(JobConfig::eventually_dependent(TIMESTEPS).with_metrics());
    let snap = result
        .registry
        .as_ref()
        .expect("registry attached")
        .snapshot();

    // Counters re-derive the TimestepMetrics aggregates exactly.
    let all = || {
        result
            .metrics
            .iter()
            .flatten()
            .chain(result.merge_metrics.iter())
    };
    let compute: u64 = all().map(|m| m.compute_ns).sum();
    let msgs_local: u64 = all().map(|m| m.msgs_local).sum();
    let msgs_remote: u64 = all().map(|m| m.msgs_remote).sum();
    assert_eq!(snap.counter_total("tempograph_compute_ns_total"), compute);
    assert_eq!(
        snap.counter_total("tempograph_msgs_local_total"),
        msgs_local
    );
    assert_eq!(
        snap.counter_total("tempograph_msgs_remote_total"),
        msgs_remote
    );
    assert_eq!(
        snap.counter_total("tempograph_timesteps_total"),
        result.timesteps_run as u64
    );
    assert_eq!(
        snap.counter_total("tempograph_wall_ns_total"),
        result.total_wall_ns
    );
    assert_eq!(
        snap.counter_total("tempograph_emitted_values_total"),
        result.emitted.len() as u64
    );

    // The worker shards' compute histogram covers the same nanoseconds as
    // the compute counter: one observation per superstep plus one per
    // EndOfTimestep phase, per partition.
    let Some(Metric::Histogram(h)) = snap.get("tempograph_superstep_compute_ns", &[]) else {
        panic!("superstep compute histogram missing");
    };
    assert_eq!(h.sum(), compute);
    let supersteps: u64 = all().map(|m| u64::from(m.supersteps)).sum();
    assert_eq!(h.count(), supersteps + (TIMESTEPS * PARTITIONS) as u64);
    assert!(h.quantile(0.5) <= h.quantile(0.99));
    assert!(h.quantile(0.99) <= h.max());

    // A clean in-memory run: no checkpoint/recovery instruments, a zero
    // (but present and finite) cache hit rate.
    assert!(snap.get("tempograph_checkpoint_write_ns", &[]).is_none());
    assert!(snap.get("tempograph_recovery_restore_ns", &[]).is_none());
    let Some(Metric::Gauge(rate)) = snap.get("tempograph_gofs_cache_hit_rate", &[]) else {
        panic!("cache hit rate gauge missing");
    };
    assert_eq!(
        *rate, 0.0,
        "in-memory run must report a 0.0 hit rate, not NaN"
    );

    // All three exports carry the data.
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE tempograph_compute_ns_total counter"));
    assert!(prom.contains(&format!("tempograph_compute_ns_total {compute}")));
    assert!(prom.contains("# TYPE tempograph_superstep_compute_ns histogram"));
    assert!(prom.contains("tempograph_superstep_compute_ns_bucket"));
    let summary = snap.to_summary(5);
    assert!(summary.contains("tempograph_superstep_compute_ns"));
    assert!(summary.contains("p95"));
    let back = Value::parse(&snap.to_json()).expect("canonical JSON parses");
    assert_eq!(back, snap.to_value(), "JSON round trip is lossless");
}

#[test]
fn gofs_run_exports_cache_instruments() {
    let (t, coll) = road_fixture();
    let pg = partitioned(&t);
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();

    let dir = std::env::temp_dir().join(format!("metrics-int-gofs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    tempograph::gofs::store::write_dataset(&dir, pg.clone(), &coll, 4, 2).unwrap();
    let result = run_job(
        &pg,
        &InstanceSource::Gofs(dir.clone()),
        Tdsp::factory(VertexIdx(0), lat_col),
        JobConfig::sequentially_dependent(TIMESTEPS)
            .while_active(TIMESTEPS)
            .with_metrics(),
    );
    std::fs::remove_dir_all(&dir).unwrap();

    let snap = result.registry.as_ref().unwrap().snapshot();
    let hits = snap.counter_total("tempograph_gofs_cache_hits_total");
    let misses = snap.counter_total("tempograph_gofs_cache_misses_total");
    // Temporal packing of 4 means later timesteps hit the slice cache, and
    // every miss is exactly one slice load.
    assert!(hits > 0, "packed slices must produce cache hits");
    assert!(misses > 0, "cold slices must produce cache misses");
    let slice_loads: u64 = result.metrics.iter().flatten().map(|m| m.slice_loads).sum();
    assert_eq!(misses, slice_loads);
    assert!(snap.counter_total("tempograph_gofs_bytes_read_total") > 0);

    let Some(Metric::Gauge(rate)) = snap.get("tempograph_gofs_cache_hit_rate", &[]) else {
        panic!("cache hit rate gauge missing");
    };
    assert!(
        rate.is_finite() && (0.0..=1.0).contains(rate),
        "rate {rate}"
    );
    let expected = hits as f64 / (hits + misses) as f64;
    assert!((rate - expected).abs() < 1e-12);
}

#[test]
fn faulted_run_exports_recoveries() {
    let (t, coll) = tweet_fixture();
    let pg = partitioned(&t);
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let dir = std::env::temp_dir().join(format!("metrics-int-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One worker panic mid-run forces a checkpoint recovery.
    let plan = FaultPlan::new().panic_at(1, 7, 0);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        MemeTracking::factory("#meme", tweets_col),
        JobConfig::sequentially_dependent(TIMESTEPS)
            .with_checkpoint(4, &dir)
            .with_faults(plan)
            .with_metrics(),
    );
    let _ = std::fs::remove_dir_all(&dir);

    assert!(result.recoveries >= 1, "the injected panic must recover");
    let snap = result.registry.as_ref().unwrap().snapshot();
    assert_eq!(
        snap.counter_total("tempograph_recoveries_total"),
        result.recoveries as u64
    );

    // The checkpoint/recovery duration instruments appear once exercised,
    // sharing the clock readings of the ckpt/restore trace spans.
    let Some(Metric::Histogram(ck)) = snap.get("tempograph_checkpoint_write_ns", &[]) else {
        panic!("checkpoint write histogram missing after a checkpointed run");
    };
    assert!(ck.count() > 0);
    let Some(Metric::Histogram(rec)) = snap.get("tempograph_recovery_restore_ns", &[]) else {
        panic!("recovery restore histogram missing after a recovered run");
    };
    assert!(rec.count() > 0);

    // Fault visibility in the exposition formats.
    let prom = snap.to_prometheus();
    assert!(prom.contains(&format!(
        "tempograph_recoveries_total {}",
        result.recoveries
    )));
    Value::parse(&snap.to_json()).expect("canonical JSON parses");
    assert_eq!(
        snap.counter_total("tempograph_recoveries_total"),
        result.recoveries as u64
    );
}
