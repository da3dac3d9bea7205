//! Workspace end-to-end tests: the full paper pipeline across crates —
//! generators → partitioner → GoFS on disk → TI-BSP engine → algorithms —
//! plus cross-engine agreement between the subgraph-centric and
//! vertex-centric implementations.

use std::sync::Arc;
use tempograph::prelude::*;

fn carn_fixture() -> (Arc<GraphTemplate>, Arc<TimeSeriesCollection>) {
    let t = Arc::new(carn_like(0.06)); // ≈ 600 vertices
    let coll = Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: 25,
            period: 300,
            min_latency: 5.0,
            max_latency: 140.0,
            seed: 42,
            ..Default::default()
        },
    ));
    (t, coll)
}

#[test]
fn full_pipeline_gofs_matches_memory() {
    let (t, coll) = carn_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let parts = MultilevelPartitioner::default().partition(&t, 3);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));

    let dir = std::env::temp_dir().join(format!("e2e-gofs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    tempograph::gofs::store::write_dataset(&dir, pg.clone(), &coll, 10, 5).unwrap();

    let from_disk = run_job(
        &pg,
        &InstanceSource::Gofs(dir.clone()),
        Tdsp::factory(VertexIdx(0), lat_col),
        JobConfig::sequentially_dependent(25).while_active(25),
    );
    let from_memory = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        Tdsp::factory(VertexIdx(0), lat_col),
        JobConfig::sequentially_dependent(25).while_active(25),
    );
    assert_eq!(from_disk.emitted, from_memory.emitted);
    assert_eq!(from_disk.timesteps_run, from_memory.timesteps_run);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tdsp_results_independent_of_partition_count() {
    let (t, coll) = carn_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let src = InstanceSource::Memory(coll);
    let mut reference: Option<Vec<(VertexIdx, f64)>> = None;
    for k in [1usize, 2, 5] {
        let parts = MultilevelPartitioner::default().partition(&t, k);
        let pg = Arc::new(discover_subgraphs(t.clone(), parts));
        let result = run_job(
            &pg,
            &src,
            Tdsp::factory(VertexIdx(0), lat_col),
            JobConfig::sequentially_dependent(25).while_active(25),
        );
        let mut got: Vec<(VertexIdx, f64)> =
            result.emitted.iter().map(|e| (e.vertex, e.value)).collect();
        got.sort_by_key(|a| a.0);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "k = {k} diverged"),
        }
    }
}

#[test]
fn subgraph_centric_and_vertex_centric_sssp_agree() {
    let (t, coll) = carn_fixture();
    let parts = MultilevelPartitioner::default().partition(&t, 4);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));

    // Subgraph-centric (GoFFish-style), unweighted.
    let goffish = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        Sssp::factory(VertexIdx(0), None),
        JobConfig::independent(1),
    );
    let mut sg_levels = vec![f64::INFINITY; t.num_vertices()];
    for e in &goffish.emitted {
        sg_levels[e.vertex.idx()] = e.value;
    }

    // Vertex-centric (Giraph-style).
    let pregel = tempograph::pregel::run_pregel(
        &t,
        pg.partitioning(),
        &tempograph::pregel::SsspVertex {
            source: VertexIdx(0),
            latencies: None,
        },
        100_000,
    );

    for (v, (sg, vc)) in sg_levels.iter().zip(&pregel.states).enumerate() {
        assert_eq!(sg, vc, "engines disagree at vertex {v}");
    }
    // The structural claim behind Fig. 5b: the vertex-centric engine needs
    // about `diameter` supersteps; the subgraph-centric one needs a handful.
    let sg_ss = goffish.metrics[0]
        .iter()
        .map(|m| m.supersteps)
        .max()
        .unwrap();
    assert!(
        pregel.metrics.supersteps as u32 > 4 * sg_ss,
        "vertex-centric {} vs subgraph-centric {sg_ss} supersteps",
        pregel.metrics.supersteps
    );
}

#[test]
fn meme_and_hash_agree_on_timestep_zero_counts() {
    let t = Arc::new(wiki_like(0.05)); // ≈ 600 users
    let meme = "#x";
    let coll = Arc::new(generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: 12,
            meme: meme.into(),
            hit_prob: 0.05,
            initial_infected: 6,
            infectious_steps: 3,
            background_rate: 0.0,
            ..Default::default()
        },
    ));
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let parts = MultilevelPartitioner::default().partition(&t, 3);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));
    let src = InstanceSource::Memory(coll);

    let meme_run = run_job(
        &pg,
        &src,
        MemeTracking::factory(meme, tweets_col),
        JobConfig::sequentially_dependent(12),
    );
    let hash_run = run_job(
        &pg,
        &src,
        HashtagAggregation::factory(meme, tweets_col),
        JobConfig::eventually_dependent(12),
    );

    // At t0, MEME colours exactly the users whose tweets contain the meme —
    // which is exactly HASH's t0 count (each seed tweets the meme once).
    let colored_t0 = meme_run.counter_at(MemeTracking::COLORED, 0);
    let hash_t0 = hash_run
        .emitted
        .iter()
        .find(|e| e.vertex == VertexIdx(0))
        .map(|e| e.value as u64)
        .unwrap_or(0);
    assert_eq!(colored_t0, hash_t0);
}

#[test]
fn independent_topn_matches_under_intra_partition_parallelism() {
    let t = Arc::new(wiki_like(0.05));
    let coll = Arc::new(generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: 10,
            hit_prob: 0.05,
            initial_infected: 5,
            background_rate: 0.05,
            ..Default::default()
        },
    ));
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let parts = MultilevelPartitioner::default().partition(&t, 2);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));
    let src = InstanceSource::Memory(coll);

    let barriered = run_job(
        &pg,
        &src,
        TopNActivity::factory(3, tweets_col),
        JobConfig::independent(10),
    );
    let pooled = run_job(
        &pg,
        &src,
        TopNActivity::factory(3, tweets_col),
        JobConfig::independent(10).with_intra_partition_parallelism(),
    );
    assert_eq!(barriered.emitted, pooled.emitted);
    for t in 0..10 {
        assert_eq!(
            barriered.counter_at(TopNActivity::TWEETS, t),
            pooled.counter_at(TopNActivity::TWEETS, t)
        );
    }
}

#[test]
fn wcc_and_pagerank_run_through_the_facade() {
    let t = Arc::new(carn_like(0.03));
    let mut coll = TimeSeriesCollection::new(t.clone(), 0, 1);
    coll.push(coll.new_instance()).unwrap();
    let parts = MultilevelPartitioner::default().partition(&t, 3);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));
    let src = InstanceSource::Memory(Arc::new(coll));

    let wcc = run_job(&pg, &src, Wcc::factory(), JobConfig::independent(1));
    // Road networks are connected: exactly one component label.
    let labels: std::collections::HashSet<u64> =
        wcc.emitted.iter().map(|e| e.value as u64).collect();
    assert_eq!(labels.len(), 1);

    let pr = run_job(&pg, &src, PageRank::factory(5), JobConfig::independent(1));
    let total: f64 = pr.emitted.iter().map(|e| e.value).sum();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "ranks must sum to 1, got {total}"
    );
}

/// Runs `P` unchanged and notes, after every compute, the type of each
/// column its instance has decoded so far. A delta column decodes the same
/// column of the pack's base, so a column type never seen here was never
/// decoded anywhere.
struct Watched<P> {
    inner: P,
    decoded: Arc<std::sync::Mutex<Vec<AttrType>>>,
}

impl<P: SubgraphProgram> SubgraphProgram for Watched<P> {
    type Msg = P::Msg;

    fn compute(&mut self, ctx: &mut Context<'_, P::Msg>, msgs: &[Envelope<P::Msg>]) {
        self.inner.compute(ctx, msgs);
        let instance = ctx.instance();
        let mut decoded = self.decoded.lock().unwrap();
        decoded.extend(instance.decoded().map(|c| c.ty()));
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.inner.end_of_timestep(ctx);
    }

    fn merge(&mut self, ctx: &mut Context<'_, P::Msg>, msgs: &[Envelope<P::Msg>]) {
        self.inner.merge(ctx, msgs);
    }
}

/// Run `factory`'s program from a GoFS store of `coll` and from memory:
/// the emits must agree; returns the column types the GoFS run decoded.
fn decoded_types_on_gofs<P, F>(
    tag: &str,
    pg: &Arc<PartitionedGraph>,
    coll: Arc<TimeSeriesCollection>,
    factory: impl Fn() -> F,
    config: JobConfig<P::Msg>,
) -> Vec<AttrType>
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let dir = std::env::temp_dir().join(format!("e2e-lazy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    tempograph::gofs::store::write_dataset(&dir, pg.clone(), &coll, 10, 5).unwrap();
    let decoded = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (watch, inner) = (decoded.clone(), factory());
    let from_disk = run_job(
        pg,
        &InstanceSource::Gofs(dir.clone()),
        move |sg: &Subgraph, pg: &PartitionedGraph| Watched {
            inner: inner(sg, pg),
            decoded: watch.clone(),
        },
        config.clone(),
    );
    let from_memory = run_job(pg, &InstanceSource::Memory(coll), factory(), config);
    assert_eq!(from_disk.emitted, from_memory.emitted);
    assert!(from_disk.emitted.iter().any(|e| e.value > 0.0));
    std::fs::remove_dir_all(&dir).unwrap();
    let decoded = decoded.lock().unwrap().clone();
    assert!(!decoded.is_empty(), "the program read no column at all");
    decoded
}

#[test]
fn programs_decode_only_the_columns_they_read() {
    // Both presets carry a `tweets: TextList` vertex column *and* a
    // `latency: Double` edge column, as both benchmark templates do.
    let (t, coll) = carn_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    assert!(t.vertex_schema().index_of(TWEETS_ATTR).is_some());
    let parts = MultilevelPartitioner::default().partition(&t, 3);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));
    let tdsp = decoded_types_on_gofs(
        "tdsp",
        &pg,
        coll,
        || Tdsp::factory(VertexIdx(0), lat_col),
        JobConfig::sequentially_dependent(25).while_active(25),
    );
    assert!(tdsp.iter().all(|&ty| ty == AttrType::Double), "{tdsp:?}");

    let t = Arc::new(wiki_like(0.05));
    let coll = Arc::new(generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: 12,
            background_rate: 0.3,
            ..Default::default()
        },
    ));
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    assert!(t.edge_schema().index_of(LATENCY_ATTR).is_some());
    let parts = MultilevelPartitioner::default().partition(&t, 3);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));
    let hash = decoded_types_on_gofs(
        "hash",
        &pg,
        coll,
        || HashtagAggregation::factory("#cats", tweets_col),
        JobConfig::eventually_dependent(12),
    );
    assert!(hash.iter().all(|&ty| ty == AttrType::TextList), "{hash:?}");
}
