//! Workspace end-to-end tests: the full paper pipeline across crates —
//! generators → partitioner → GoFS on disk → TI-BSP engine → algorithms —
//! plus cross-engine agreement between the subgraph-centric and
//! vertex-centric implementations.

use std::sync::Arc;
use tempograph::gofs::SubgraphInstance;
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

/// Runs `P` unchanged and keeps every instance it computed over, so what
/// they decoded can be counted once the job is over. A delta column
/// decodes the same column of the pack's base, so a column never decoded
/// in any of them was never decoded anywhere.
struct Watched<P> {
    inner: P,
    seen: Arc<std::sync::Mutex<Vec<Arc<SubgraphInstance>>>>,
}

impl<P: SubgraphProgram> SubgraphProgram for Watched<P> {
    type Msg = P::Msg;

    fn compute(&mut self, ctx: &mut Context<'_, P::Msg>, msgs: &[Envelope<P::Msg>]) {
        self.inner.compute(ctx, msgs);
        let instance = ctx.instance();
        self.seen.lock().unwrap().push(instance);
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.inner.end_of_timestep(ctx);
    }

    fn merge(&mut self, ctx: &mut Context<'_, P::Msg>, msgs: &[Envelope<P::Msg>]) {
        self.inner.merge(ctx, msgs);
    }
}

/// Run `factory`'s program from a GoFS store of `coll` and from memory:
/// the emits must agree. Returns how many distinct instances the GoFS run
/// computed over and the type of every column they decoded.
fn decoded_on_gofs<P, F>(
    tag: &str,
    pg: &Arc<PartitionedGraph>,
    coll: Arc<TimeSeriesCollection>,
    factory: impl Fn() -> F,
    config: JobConfig<P::Msg>,
) -> (usize, Vec<AttrType>)
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let dir = std::env::temp_dir().join(format!("e2e-lazy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    tempograph::gofs::store::write_dataset(&dir, pg.clone(), &coll, 10, 5).unwrap();
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (watch, inner) = (seen.clone(), factory());
    let from_disk = run_job(
        pg,
        &InstanceSource::Gofs(dir.clone()),
        move |sg: &Subgraph, pg: &PartitionedGraph| Watched {
            inner: inner(sg, pg),
            seen: watch.clone(),
        },
        config.clone(),
    );
    let from_memory = run_job(pg, &InstanceSource::Memory(coll), factory(), config);
    assert_eq!(from_disk.emitted, from_memory.emitted);
    assert!(from_disk.emitted.iter().any(|e| e.value > 0.0));
    std::fs::remove_dir_all(&dir).unwrap();
    let mut seen = std::mem::take(&mut *seen.lock().unwrap());
    seen.sort_by_key(Arc::as_ptr);
    seen.dedup_by(|a, b| Arc::ptr_eq(a, b));
    let decoded = seen.iter().flat_map(|i| i.decoded().map(|c| c.ty()));
    (seen.len(), decoded.collect())
}

/// A program that reads every instance's `latency` column decoded, after
/// `P` is done with it.
struct DecodesLatency<P> {
    inner: P,
    col: usize,
}

impl<P: SubgraphProgram> SubgraphProgram for DecodesLatency<P> {
    type Msg = P::Msg;

    fn compute(&mut self, ctx: &mut Context<'_, P::Msg>, msgs: &[Envelope<P::Msg>]) {
        self.inner.compute(ctx, msgs);
        ctx.instance().edge_f64(self.col).unwrap();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.inner.end_of_timestep(ctx);
    }
}

#[test]
fn gofs_tdsp_job_over_dense_latencies_decodes_zero_columns() {
    // Every road latency changes every timestep: each record is the base's
    // plain one or a dense delta, and TDSP reads them all in place.
    let (t, coll) = carn_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let parts = MultilevelPartitioner::default().partition(&t, 3);
    let pg = Arc::new(discover_subgraphs(t.clone(), parts));
    let config = || JobConfig::sequentially_dependent(25).while_active(25);
    let (instances, decoded) = decoded_on_gofs(
        "tdsp-count",
        &pg,
        coll.clone(),
        || Tdsp::factory(VertexIdx(0), lat_col),
        config(),
    );
    assert!(instances > 0);
    assert_eq!(decoded.len(), 0, "{decoded:?}");
    // The count sees a decode: the same job reading each latency column
    // decoded decodes exactly one column per instance.
    let (instances, decoded) = decoded_on_gofs(
        "tdsp-decoding",
        &pg,
        coll,
        || {
            let tdsp = Tdsp::factory(VertexIdx(0), lat_col);
            move |sg: &Subgraph, pg: &PartitionedGraph| DecodesLatency {
                inner: tdsp(sg, pg),
                col: lat_col,
            }
        },
        config(),
    );
    assert_eq!(decoded, vec![AttrType::Double; instances]);
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
    let (_, tdsp) = decoded_on_gofs(
        "tdsp",
        &pg,
        coll,
        || Tdsp::factory(VertexIdx(0), lat_col),
        JobConfig::sequentially_dependent(25).while_active(25),
    );
    // Dense latencies are read in place: TDSP decodes nothing at all.
    assert!(tdsp.is_empty(), "{tdsp:?}");

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
    let (seen, hash) = decoded_on_gofs(
        "hash",
        &pg,
        coll,
        || HashtagAggregation::factory("#cats", tweets_col),
        JobConfig::eventually_dependent(12),
    );
    // HASH counts its tag on every instance's record: a pack base walks
    // its plain record once and keeps the matching rows for its deltas,
    // so none of the 12 instances per subgraph decodes `tweets`.
    let n_sg = pg.subgraphs().len();
    assert_eq!(seen, n_sg * 12);
    assert!(hash.is_empty(), "{hash:?}");
}
