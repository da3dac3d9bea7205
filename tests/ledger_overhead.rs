//! Attribution overhead smoke test (run explicitly: `cargo test --release
//! --test ledger_overhead -- --ignored`).
//!
//! The attribution record sites bracket every superstep invocation in the
//! executor's hot loop. Disabled (the default), the shard is `None`: each
//! site is a branch with no clock read and no allocation. Enabled, each
//! observation writes into a table preallocated at worker construction.
//! This binary installs a counting global allocator and asserts both
//! properties, mirroring `metrics_overhead`: a default run performs zero
//! additional allocations versus an identical default run, and an armed
//! run's surplus is bounded by the one-time setup (one boxed shard per
//! worker plus the driver-side row assembly) — far below the per-superstep
//! invocation count, so a per-record allocation would blow the budget.

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
fn disabled_attribution_adds_zero_hot_path_allocations() {
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
        let armed = config.attribution;
        let r = run_job(
            &pg,
            &src,
            MemeTracking::factory(meme.clone(), tweets_col),
            config,
        );
        assert_eq!(r.timesteps_run, TIMESTEPS);
        assert_eq!(r.attribution.is_some(), armed);
        if let Some(attr) = &r.attribution {
            // The workload must actually exercise the record sites: every
            // subgraph invoked at every timestep.
            let invocations: u64 = attr.rows.iter().map(|row| u64::from(row.invocations)).sum();
            assert!(
                invocations > 200,
                "only {invocations} attributed invocations — workload too small"
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
    let armed = best(&|| JobConfig::sequentially_dependent(TIMESTEPS).with_attribution());

    // Disabled is the default: two identical default runs must allocate
    // identically — the `Option<Box<AttributionShard>>` is `None` and every
    // record site is a branch on it, with no `TraceSink::now` read.
    assert_eq!(
        plain, plain_again,
        "attribution-disabled runs must be allocation-reproducible"
    );

    // Enabled, the surplus budget is the setup — one boxed shard per
    // worker (subgraph-id list + two preallocated tables) and the
    // driver-side row assembly, fixed costs regardless of how many
    // supersteps record into the table — plus one allocation per round
    // report (armed observability sends one per worker per timestep, 72
    // here). The budget sits well below the >200 invocations asserted
    // above, so a per-record allocation leak would trip it.
    assert!(
        armed <= plain + 128,
        "attribution record path allocates per event: {armed} armed vs {plain} plain"
    );
}
