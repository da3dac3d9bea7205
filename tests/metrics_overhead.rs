//! Metrics overhead smoke test (run explicitly: `cargo test --release
//! --test metrics_overhead -- --ignored`).
//!
//! The metric record sites sit on the engine's hottest paths — superstep
//! compute, the send loop, both barrier legs. Disabled (the default), the
//! shard is `None` and every site is a branch; enabled, each observation
//! is an inline bucket increment. This binary installs a counting global
//! allocator and asserts both properties: a default run performs **zero
//! additional allocations** versus an identical default run, and an
//! armed run's surplus is bounded by the one-time setup (three boxed
//! shards plus the driver-side registry fold) — far below the thousands
//! of record events the workload generates, so any per-event allocation
//! would blow the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tempograph::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
#[ignore]
fn disabled_metrics_add_zero_hot_path_allocations() {
    const TIMESTEPS: usize = 24;
    let t = Arc::new(tempograph::gen::road_network(&RoadNetConfig {
        width: 12,
        height: 12,
        seed: 0xFACADE,
        ..Default::default()
    }));
    let coll = Arc::new(tempograph::gen::generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: TIMESTEPS,
            hit_prob: 0.4,
            initial_infected: 4,
            infectious_steps: 3,
            background_rate: 0.08,
            ..Default::default()
        },
    ));
    let meme = "#meme0".to_string();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let parts = MultilevelPartitioner::default().partition(&t, 3);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));
    let src = InstanceSource::Memory(coll);

    let run = |config: JobConfig<VertexIdx>| {
        let armed = config.metrics;
        let r = run_job(
            &pg,
            &src,
            MemeTracking::factory(meme.clone(), tweets_col),
            config,
        );
        assert_eq!(r.timesteps_run, TIMESTEPS);
        assert_eq!(r.registry.is_some(), armed);
        if let Some(reg) = &r.registry {
            // The workload must actually exercise the record sites: many
            // hundreds of observations across compute/send/wait shards.
            let snap = reg.snapshot();
            let count = |name: &str| match snap.get(name, &[]) {
                Some(tempograph::metrics::Metric::Histogram(h)) => h.count(),
                _ => 0,
            };
            let events = count("tempograph_superstep_compute_ns")
                + count("tempograph_send_ns")
                + count("tempograph_barrier_wait_ns");
            assert!(
                events > 400,
                "only {events} record events — workload too small"
            );
        }
    };
    // Warm caches, lazy statics, and the allocator.
    run(JobConfig::sequentially_dependent(TIMESTEPS));

    let best = |mk: &dyn Fn() -> JobConfig<VertexIdx>| {
        (0..3)
            .map(|_| allocations_during(|| run(mk())))
            .min()
            .unwrap()
    };
    let plain = best(&|| JobConfig::sequentially_dependent(TIMESTEPS));
    let plain_again = best(&|| JobConfig::sequentially_dependent(TIMESTEPS));
    let armed = best(&|| JobConfig::sequentially_dependent(TIMESTEPS).with_metrics());

    // Disabled is the default: two identical default runs must allocate
    // identically — the `Option<Box<MetricsShard>>` is `None` and every
    // record site is a branch on it.
    assert_eq!(
        plain, plain_again,
        "metrics-disabled runs must be allocation-reproducible"
    );

    // Enabled, the surplus budget is the setup — one boxed shard per
    // worker, the driver-side fold, and the registry's keys/entries, a
    // fixed cost regardless of how many observations the run records —
    // plus one allocation per round report (one per worker per timestep,
    // 72 here). The budget sits below the >400 record events asserted
    // above, so even a one-allocation-per-event leak would trip it.
    assert!(
        armed <= plain + 384,
        "metrics record path allocates per event: {armed} armed vs {plain} plain"
    );
}

/// With observability disabled, a TCP worker's per-round telemetry flush
/// site is one `wants_telemetry()` branch — no `TelemetryMsg` is built
/// or encoded, no frame sent (the coordinator
/// treats a Telemetry frame on a disabled run as a protocol error, so a
/// completing job doubly proves none were emitted). Two identical
/// disabled TCP runs must therefore allocate near-identically: an
/// unconditional flush would add several allocations per barrier round
/// per worker (~24 rounds × 3 workers here), far above the slack, which
/// only absorbs socket-layer nondeterminism (e.g. a stray connect
/// retry).
#[test]
#[ignore]
fn disabled_telemetry_adds_zero_allocations_over_tcp() {
    const TIMESTEPS: usize = 24;
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("NOTICE: loopback sockets unavailable; skipping TCP overhead test");
        return;
    }
    let t = Arc::new(tempograph::gen::road_network(&RoadNetConfig {
        width: 12,
        height: 12,
        seed: 0xFACADE,
        ..Default::default()
    }));
    let coll = Arc::new(tempograph::gen::generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: TIMESTEPS,
            hit_prob: 0.4,
            initial_infected: 4,
            infectious_steps: 3,
            background_rate: 0.08,
            ..Default::default()
        },
    ));
    let meme = "#meme0".to_string();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let parts = MultilevelPartitioner::default().partition(&t, 3);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));
    let src = InstanceSource::Memory(coll);

    let run = || {
        let r = run_job_tcp(
            &pg,
            &src,
            MemeTracking::factory(meme.clone(), tweets_col),
            JobConfig::sequentially_dependent(TIMESTEPS),
            Cluster::Threads,
        )
        .expect("disabled tcp job failed");
        assert_eq!(r.timesteps_run, TIMESTEPS);
        assert!(r.registry.is_none(), "disabled run must carry no registry");
        assert!(r.trace.is_none(), "disabled run must carry no trace");
    };
    // Warm caches, lazy statics, and the allocator.
    run();

    let best = || (0..3).map(|_| allocations_during(run)).min().unwrap();
    let first = best();
    let second = best();
    let spread = first.abs_diff(second);
    assert!(
        spread <= 64,
        "disabled TCP runs must be allocation-reproducible: {first} vs {second}"
    );
}
