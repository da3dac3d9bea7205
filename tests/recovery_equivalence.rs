//! Recovery-equivalence harness: a TI-BSP job that is killed by an injected
//! fault and restarted from its latest checkpoint must produce output
//! **byte-identical** to an undisturbed run — same emitted values (as f64
//! bit patterns), same counters, same final per-subgraph program state.
//!
//! The engine's determinism (delivery sorted by globally unique
//! `(from, seq)`) plus complete inter-timestep state capture (program
//! state, pending cross-timestep/merge inboxes, sequence counters) make
//! this a hard equality, not an approximation. SSSP, WCC, MEME, TDSP,
//! HASH, temporal reachability and community evolution are exercised at 3
//! and 6 partitions with crashes at every checkpoint boundary, plus
//! torn-checkpoint-write and worker-process-kill cases; a resealed state
//! blob that a program refuses ends the job with a typed error.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use tempograph::algos::{CommunityEvolution, TemporalReachability};
use tempograph::engine::{
    checkpoint_path, latest_valid, read_manifest, WireError, WorkerCheckpoint,
};
use tempograph::gen::ChurnConfig;
use tempograph::gofs::GofsError;
use tempograph::prelude::*;

/// (track, event name, optional (key, value) arg) — one trace event.
type FaultEvent = (u32, &'static str, Option<(&'static str, u64)>);

const TIMESTEPS: usize = 8;
/// Checkpoint every 2 timesteps: boundaries after t = 1, 3, 5, 7.
const EVERY: usize = 2;

fn road(width: usize, height: usize, seed: u64) -> Arc<GraphTemplate> {
    Arc::new(tempograph::gen::road_network(&RoadNetConfig {
        width,
        height,
        seed,
        ..Default::default()
    }))
}

fn partitioned(t: &Arc<GraphTemplate>, k: usize) -> Arc<PartitionedGraph> {
    let p = MultilevelPartitioner::default().partition(t, k);
    Arc::new(discover_subgraphs(t.clone(), p))
}

fn road_fixture() -> (Arc<GraphTemplate>, InstanceSource) {
    let t = road(10, 10, 0xD15EA5E);
    let coll = Arc::new(tempograph::gen::generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: TIMESTEPS,
            period: 50,
            min_latency: 4.0,
            max_latency: 60.0,
            seed: 13,
            ..Default::default()
        },
    ));
    (t, InstanceSource::Memory(coll))
}

fn tweet_fixture() -> (Arc<GraphTemplate>, InstanceSource, SirConfig) {
    let t = road(12, 12, 0xFACADE);
    let cfg = SirConfig {
        timesteps: TIMESTEPS,
        hit_prob: 0.4,
        initial_infected: 4,
        infectious_steps: 3,
        background_rate: 0.08,
        ..Default::default()
    };
    let coll = Arc::new(tempograph::gen::generate_sir_tweets(t.clone(), &cfg));
    (t, InstanceSource::Memory(coll), cfg)
}

/// The reachability source: a vertex inside the mesh, not on its rim.
const REACH_SOURCE: VertexIdx = VertexIdx(78);

/// The 12×12 road mesh with its vertices coming and going (`isExists`);
/// [`REACH_SOURCE`] stays alive. Returns the existence column too.
fn churn_fixture() -> (Arc<GraphTemplate>, InstanceSource, usize) {
    let base = road(12, 12, 0xFACADE);
    let mut b = TemplateBuilder::new("churny-road", false);
    b.vertex_schema()
        .add(GraphTemplate::IS_EXISTS, AttrType::Bool);
    for v in base.vertices() {
        b.add_vertex(base.vertex_id(v));
    }
    for e in base.edges() {
        let (s, d) = base.endpoints(e);
        b.add_edge(base.edge_id(e), base.vertex_id(s), base.vertex_id(d))
            .unwrap();
    }
    let t = Arc::new(b.finalize().unwrap());
    let coll = tempograph::gen::generate_topology_churn(
        t.clone(),
        &ChurnConfig {
            timesteps: TIMESTEPS,
            flip_prob: 0.15,
            initial_alive: 0.6,
            pinned_alive: vec![REACH_SOURCE],
            seed: 13,
            ..Default::default()
        },
    );
    let exists_col = t
        .vertex_schema()
        .index_of(GraphTemplate::IS_EXISTS)
        .unwrap();
    (t, InstanceSource::Memory(Arc::new(coll)), exists_col)
}

/// One death at superstep 0 of the timestep after every checkpoint
/// boundary before `until`, taking the `k` partitions in turn.
fn boundary_crashes(k: usize, until: usize) -> Vec<(u16, usize, usize)> {
    (EVERY..until)
        .step_by(EVERY)
        .enumerate()
        .map(|(i, t)| ((i % k) as u16, t, 0))
        .collect()
}

/// Fresh, private checkpoint directory for one test case.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recov-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything observable about a run, in canonical order, floats as bit
/// patterns. Equal fingerprints ⇔ byte-identical runs.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    emitted: Vec<(usize, u32, u64)>,
    counters: BTreeMap<String, Vec<u64>>,
    timesteps_run: usize,
    final_states: Vec<(u32, Vec<u8>)>,
}

fn fingerprint(r: &JobResult) -> Fingerprint {
    Fingerprint {
        emitted: r
            .emitted
            .iter()
            .map(|e| (e.timestep, e.vertex.0, e.value.to_bits()))
            .collect(),
        counters: r
            .counters
            .iter()
            .map(|(name, per_t)| {
                (
                    name.clone(),
                    per_t.iter().map(|per_p| per_p.iter().sum()).collect(),
                )
            })
            .collect(),
        timesteps_run: r.timesteps_run,
        final_states: r
            .final_states
            .iter()
            .map(|(sg, bytes)| (sg.0, bytes.clone()))
            .collect(),
    }
}

/// Run `factory` clean, then again with `crashes` injected (worker `p`
/// killed at `(timestep, superstep)`) and checkpointing every `EVERY`
/// timesteps; assert the recovered run fired every crash and is
/// byte-identical to the clean one.
fn assert_crash_equivalent<P, F>(
    label: &str,
    pg: &Arc<PartitionedGraph>,
    src: &InstanceSource,
    factory: F,
    mk_cfg: impl Fn() -> JobConfig<P::Msg>,
    crashes: &[(u16, usize, usize)],
) where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let clean = run_job(pg, src, &factory, mk_cfg());
    assert_eq!(clean.recoveries, 0, "{label}: clean run must not recover");

    let dir = ckpt_dir(label);
    let mut plan = FaultPlan::new();
    for &(p, t, ss) in crashes {
        plan = plan.panic_at(p, t, ss);
    }
    let crashed = run_job(
        pg,
        src,
        &factory,
        mk_cfg().with_checkpoint(EVERY, &dir).with_faults(plan),
    );
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        crashed.recoveries,
        crashes.len(),
        "{label}: every scheduled crash must fire and be recovered"
    );
    assert_eq!(
        fingerprint(&clean),
        fingerprint(&crashed),
        "{label}: recovered run must be byte-identical to the clean one"
    );
}

/// SSSP and WCC run one timestep; the crash lands mid-BSP (superstep 1,
/// never a checkpoint superstep), so recovery restarts from scratch — the
/// no-committed-checkpoint degenerate case must still be equivalent.
#[test]
fn sssp_recovers_byte_identical_at_3_and_6_partitions() {
    let (t, src) = road_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    for k in [3, 6] {
        let pg = partitioned(&t, k);
        assert_crash_equivalent(
            &format!("sssp-k{k}"),
            &pg,
            &src,
            Sssp::factory(VertexIdx(0), Some(lat_col)),
            || JobConfig::independent(1),
            &[(1, 0, 1)],
        );
    }
}

#[test]
fn wcc_recovers_byte_identical_at_3_and_6_partitions() {
    let (t, src) = road_fixture();
    for k in [3, 6] {
        let pg = partitioned(&t, k);
        assert_crash_equivalent(
            &format!("wcc-k{k}"),
            &pg,
            &src,
            Wcc::factory(),
            || JobConfig::independent(1),
            &[(2 % k as u16, 0, 1)],
        );
    }
}

/// Meme tracking (sequentially dependent): one worker dies at superstep 0
/// of the timestep after *every* checkpoint boundary.
#[test]
fn meme_recovers_byte_identical_at_3_and_6_partitions() {
    let (t, src, cfg) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    for k in [3usize, 6] {
        let pg = partitioned(&t, k);
        assert_crash_equivalent(
            &format!("meme-k{k}"),
            &pg,
            &src,
            MemeTracking::factory(cfg.meme.clone(), tweets_col),
            || JobConfig::sequentially_dependent(TIMESTEPS),
            &boundary_crashes(k, TIMESTEPS),
        );
    }
}

/// TDSP (sequentially dependent, WhileActive): crashes at every checkpoint
/// boundary that the clean run actually reaches.
#[test]
fn tdsp_recovers_byte_identical_at_3_and_6_partitions() {
    let (t, src) = road_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    for k in [3usize, 6] {
        let pg = partitioned(&t, k);
        let mk_cfg = || JobConfig::sequentially_dependent(TIMESTEPS).while_active(TIMESTEPS);
        let clean = run_job(&pg, &src, Tdsp::factory(VertexIdx(0), lat_col), mk_cfg());
        let crashes = boundary_crashes(k, clean.timesteps_run);
        assert!(
            !crashes.is_empty(),
            "tdsp-k{k}: fixture must survive past the first checkpoint boundary \
             (ran {} timesteps)",
            clean.timesteps_run
        );
        assert_crash_equivalent(
            &format!("tdsp-k{k}"),
            &pg,
            &src,
            Tdsp::factory(VertexIdx(0), lat_col),
            mk_cfg,
            &crashes,
        );
    }
}

/// TDSP on a checkerboard cut — every vertex its own subgraph — where most
/// subgraphs sleep (unreached, or finished with an empty frontier) at the
/// timesteps the workers die: the restored workers wake everyone, and the
/// run must still be byte-identical.
#[test]
fn tdsp_recovers_byte_identical_while_most_subgraphs_sleep() {
    const WIDTH: usize = 10;
    let (t, src) = road_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let assignment = (0..t.num_vertices())
        .map(|v| ((v % WIDTH + v / WIDTH) % 2) as u16)
        .collect();
    let pg = Arc::new(discover_subgraphs(
        t.clone(),
        Partitioning { assignment, k: 2 },
    ));
    let n = pg.subgraphs().len();
    assert_eq!(n, t.num_vertices(), "every vertex is its own subgraph");
    let mk_cfg = || JobConfig::sequentially_dependent(TIMESTEPS).while_active(TIMESTEPS);
    let clean = run_job(
        &pg,
        &src,
        Tdsp::factory(VertexIdx(0), lat_col),
        mk_cfg().with_attribution(),
    );
    // Die at superstep 0 after every boundary, and mid-BSP once.
    let mut crashes = boundary_crashes(2, clean.timesteps_run);
    assert!(
        crashes.len() >= 2,
        "the fixture must survive two checkpoint boundaries (ran {} timesteps)",
        clean.timesteps_run
    );
    crashes.push((1, crashes[0].1 + 1, 1));
    let rows = &clean.attribution.as_ref().unwrap().rows;
    for &(_, step, _) in &crashes {
        let called = rows.iter().filter(|r| r.timestep as usize == step).count();
        assert!(
            2 * called < n,
            "timestep {step}: {called} of {n} subgraphs were called, most must sleep"
        );
    }
    assert_crash_equivalent(
        "tdsp-checkerboard",
        &pg,
        &src,
        Tdsp::factory(VertexIdx(0), lat_col),
        mk_cfg,
        &crashes,
    );
}

/// Hashtag aggregation (eventually dependent): crashes inside the timestep
/// loop *and* inside the Merge BSP (timestep index == TIMESTEPS), whose
/// pending merge inbox must survive via the checkpoint.
#[test]
fn hashtag_recovers_byte_identical_including_merge_phase_crash() {
    let (t, src, _) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    for k in [3usize, 6] {
        let pg = partitioned(&t, k);
        assert_crash_equivalent(
            &format!("hash-k{k}"),
            &pg,
            &src,
            HashtagAggregation::factory("#meme", tweets_col),
            || JobConfig::eventually_dependent(TIMESTEPS),
            &[(0, 2, 0), (1, 4, 0), (1, TIMESTEPS, 0)],
        );
    }
}

/// Temporal reachability (sequentially dependent) carries its reached set
/// from one timestep to the next: one worker dies at superstep 0 of the
/// timestep after every checkpoint boundary.
#[test]
fn reachability_recovers_byte_identical_at_3_and_6_partitions() {
    let (t, src, exists_col) = churn_fixture();
    for k in [3usize, 6] {
        let pg = partitioned(&t, k);
        assert_crash_equivalent(
            &format!("reach-k{k}"),
            &pg,
            &src,
            TemporalReachability::factory(REACH_SOURCE, exists_col),
            || JobConfig::sequentially_dependent(TIMESTEPS),
            &boundary_crashes(k, TIMESTEPS),
        );
    }
}

/// Community evolution (eventually dependent) carries the previous labels
/// and its stability series to Merge: deaths after every checkpoint
/// boundary and one inside the Merge BSP.
#[test]
fn community_recovers_byte_identical_at_3_and_6_partitions() {
    let (t, src, _) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    for k in [3usize, 6] {
        let pg = partitioned(&t, k);
        let mut crashes = boundary_crashes(k, TIMESTEPS);
        crashes.push((1, TIMESTEPS, 0));
        assert_crash_equivalent(
            &format!("community-k{k}"),
            &pg,
            &src,
            CommunityEvolution::factory(tweets_col),
            || JobConfig::eventually_dependent(TIMESTEPS),
            &crashes,
        );
    }
}

/// A worker killed halfway through writing its checkpoint file must leave
/// only a `.tmp` staging file behind: recovery resumes from the *previous*
/// manifest entry, the job still finishes byte-identical, and no staging
/// files survive to the end.
#[test]
fn mid_checkpoint_write_crash_resumes_from_previous_boundary() {
    let (t, src, cfg) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let pg = partitioned(&t, 3);
    let factory = MemeTracking::factory(cfg.meme.clone(), tweets_col);

    let clean = run_job(
        &pg,
        &src,
        &factory,
        JobConfig::sequentially_dependent(TIMESTEPS),
    );

    let dir = ckpt_dir("midwrite");
    let crashed = run_job(
        &pg,
        &src,
        &factory,
        JobConfig::sequentially_dependent(TIMESTEPS)
            .with_checkpoint(EVERY, &dir)
            .with_faults(FaultPlan::new().panic_in_checkpoint(1, 3))
            .with_trace(TraceConfig::new()),
    );

    assert_eq!(crashed.recoveries, 1);
    assert_eq!(fingerprint(&clean), fingerprint(&crashed));

    // The torn write at t=3 was invisible: recovery resumed from t=1.
    let trace = crashed.trace.as_ref().expect("trace attached");
    let attempts = trace.instants("recovery.attempt");
    assert_eq!(attempts.len(), 1);
    assert_eq!(attempts[0].2, Some(("resume_t", 1)));

    // After completion every boundary is committed and no staging file
    // survives (the re-executed checkpoint replaced the torn `.tmp`).
    assert_eq!(
        latest_valid::<VertexIdx>(&dir, 3),
        Some(TIMESTEPS as u64 - 1)
    );
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            !name.to_string_lossy().ends_with(".tmp"),
            "staging file left behind: {name:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Corrupted checkpoint files are rejected with *typed* codec errors and
/// `latest_valid` silently falls back to the previous manifest entry.
#[test]
fn corrupted_checkpoints_fall_back_with_typed_errors() {
    let (t, src, cfg) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let pg = partitioned(&t, 3);

    let dir = ckpt_dir("corrupt");
    run_job(
        &pg,
        &src,
        MemeTracking::factory(cfg.meme.clone(), tweets_col),
        JobConfig::sequentially_dependent(TIMESTEPS).with_checkpoint(EVERY, &dir),
    );

    let manifest = read_manifest(&dir).unwrap();
    assert_eq!(manifest.timesteps, vec![1, 3, 5, 7]);
    assert_eq!(latest_valid::<VertexIdx>(&dir, 3), Some(7));

    let newest = checkpoint_path(&dir, 7, 0);
    let pristine = std::fs::read(&newest).unwrap();
    assert!(WorkerCheckpoint::<VertexIdx>::decode(pristine.clone().into()).is_ok());

    // Bit-flip in the payload → checksum mismatch.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(matches!(
        WorkerCheckpoint::<VertexIdx>::decode(flipped.clone().into()),
        Err(GofsError::ChecksumMismatch { .. })
    ));

    // Truncation → structurally corrupt.
    assert!(matches!(
        WorkerCheckpoint::<VertexIdx>::decode(pristine[..pristine.len() - 9].to_vec().into()),
        Err(GofsError::Corrupt(_))
    ));

    // Stale format version → typed rejection, not a mis-decode.
    let mut stale = pristine.clone();
    stale[4] = 0xFF;
    assert!(matches!(
        WorkerCheckpoint::<VertexIdx>::decode(stale.into()),
        Err(GofsError::UnsupportedVersion(_))
    ));

    // Wrong magic → BadMagic.
    let mut evil = pristine.clone();
    evil[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        WorkerCheckpoint::<VertexIdx>::decode(evil.into()),
        Err(GofsError::BadMagic { .. })
    ));

    // A corrupted newest entry makes recovery fall back to t=5 — no panic.
    std::fs::write(&newest, &flipped).unwrap();
    assert_eq!(latest_valid::<VertexIdx>(&dir, 3), Some(5));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Where and how [`Resealing`] damages a checkpoint.
#[derive(Clone)]
struct Reseal {
    dir: PathBuf,
    partition: u16,
    victim: SubgraphId,
    /// The timestep whose superstep 0 reseals the checkpoint of the one
    /// before.
    at: usize,
    /// The count written over the first one in the victim's state blob.
    count: u32,
}

/// Program `P`, except that at superstep 0 of timestep `at` the subgraph
/// `victim` raises the first count of its own state blob in its
/// partition's newest checkpoint and reseals the file: damage that the
/// frame checksum cannot see.
struct Resealing<P> {
    inner: P,
    reseal: Reseal,
}

impl<P: SubgraphProgram> SubgraphProgram for Resealing<P> {
    type Msg = P::Msg;

    fn compute(&mut self, ctx: &mut Context<'_, P::Msg>, msgs: &[Envelope<P::Msg>]) {
        let r = &self.reseal;
        if ctx.subgraph().id() == r.victim && (ctx.timestep(), ctx.superstep()) == (r.at, 0) {
            let path = checkpoint_path(&r.dir, r.at as u64 - 1, r.partition);
            let data = std::fs::read(path).unwrap();
            let mut ck = WorkerCheckpoint::<P::Msg>::decode(data.into()).unwrap();
            let (_, sub) = ck
                .subgraphs
                .iter_mut()
                .find(|(id, _)| *id == r.victim)
                .unwrap();
            sub.state[..4].copy_from_slice(&r.count.to_le_bytes());
            ck.write(&r.dir).unwrap();
        }
        self.inner.compute(ctx, msgs);
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.inner.end_of_timestep(ctx);
    }

    fn save_state(&self, buf: &mut bytes::BytesMut) {
        self.inner.save_state(buf);
    }

    fn restore_state(&mut self, buf: &mut bytes::Bytes) -> Result<(), WireError> {
        self.inner.restore_state(buf)
    }
}

/// Program `P` with the default `restore_state`: it saves state that it
/// never reads back.
struct Forgetful<P>(P);

impl<P: SubgraphProgram> SubgraphProgram for Forgetful<P> {
    type Msg = P::Msg;

    fn compute(&mut self, ctx: &mut Context<'_, P::Msg>, msgs: &[Envelope<P::Msg>]) {
        self.0.compute(ctx, msgs);
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.0.end_of_timestep(ctx);
    }

    fn save_state(&self, buf: &mut bytes::BytesMut) {
        self.0.save_state(buf);
    }
}

/// Recovery of a program that saves state but never restores it is not
/// allowed to diverge silently: the bytes it leaves unread end the job
/// with a typed error.
#[test]
fn a_program_that_never_restores_its_state_ends_the_job_typed() {
    let (t, src, cfg) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let pg = partitioned(&t, 3);
    let meme = MemeTracking::factory(cfg.meme.clone(), tweets_col);
    let dir = ckpt_dir("forgetful");
    let config = JobConfig::sequentially_dependent(TIMESTEPS)
        .with_checkpoint(EVERY, &dir)
        .with_faults(FaultPlan::new().panic_at(1, 2, 0));
    let ended = run_job_tcp(
        &pg,
        &src,
        move |sg: &Subgraph, pg: &PartitionedGraph| Forgetful(meme(sg, pg)),
        config,
        Cluster::InProcess,
    );
    let _ = std::fs::remove_dir_all(&dir);
    match ended {
        Err(EngineError::RemoteWorkerDied { detail, .. }) => {
            let want = ["checkpoint failure restoring partition", "trailing bytes"];
            for part in want {
                assert!(detail.contains(part), "{detail}");
            }
        }
        other => panic!("want a typed death, got {other:?}"),
    }
}

/// A checkpoint resealed over a state blob whose count was raised, by one
/// or to `u32::MAX`, ends the job with a typed error naming the partition
/// and the subgraph: MEME refuses the count before sizing anything by it,
/// and no worker panics.
#[test]
fn a_resealed_state_blob_with_a_raised_count_ends_the_job_typed() {
    let (t, src, cfg) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let pg = partitioned(&t, 3);
    let victim = pg.subgraph(pg.subgraphs_of_partition(1)[0]);
    for count in [victim.num_vertices() as u32 + 1, u32::MAX] {
        let dir = ckpt_dir(&format!("reseal-{count}"));
        let reseal = Reseal {
            dir: dir.clone(),
            partition: 1,
            victim: victim.id(),
            at: 4,
            count,
        };
        let meme = MemeTracking::factory(cfg.meme.clone(), tweets_col);
        let factory = move |sg: &Subgraph, pg: &PartitionedGraph| Resealing {
            inner: meme(sg, pg),
            reseal: reseal.clone(),
        };
        // The death at timestep 5 resumes from the resealed timestep 3.
        let config = JobConfig::sequentially_dependent(TIMESTEPS)
            .with_checkpoint(EVERY, &dir)
            .with_faults(FaultPlan::new().panic_at(1, 5, 0));
        let ended = run_job_tcp(&pg, &src, factory, config, Cluster::InProcess);
        let _ = std::fs::remove_dir_all(&dir);
        match ended {
            Err(EngineError::RemoteWorkerDied {
                partition: 1,
                detail,
            }) => {
                for part in [
                    "checkpoint failure restoring partition 1".to_string(),
                    format!(
                        "subgraph {}: meme coloured set {count} out of range",
                        victim.id().0
                    ),
                ] {
                    assert!(detail.contains(&part), "count {count}: {detail}");
                }
                assert!(!detail.contains("panicked"), "count {count}: {detail}");
            }
            other => panic!("count {count}: want partition 1's typed death, got {other:?}"),
        }
    }
}

/// The same `FaultPlan` seed must reproduce the same injected failures and
/// the same fault/checkpoint/recovery trace event sequence across runs.
#[test]
fn seeded_fault_runs_reproduce_trace_sequences() {
    let (t, src, cfg) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let pg = partitioned(&t, 3);
    let factory = MemeTracking::factory(cfg.meme.clone(), tweets_col);
    const SEED: u64 = 0xC0FFEE;

    let clean = run_job(
        &pg,
        &src,
        &factory,
        JobConfig::sequentially_dependent(TIMESTEPS),
    );

    let run_seeded = |tag: &str| {
        let dir = ckpt_dir(tag);
        let r = run_job(
            &pg,
            &src,
            &factory,
            JobConfig::sequentially_dependent(TIMESTEPS)
                .with_checkpoint(EVERY, &dir)
                .with_faults(FaultPlan::from_seed(SEED, 3, TIMESTEPS))
                .with_trace(TraceConfig::new()),
        );
        let _ = std::fs::remove_dir_all(&dir);
        r
    };
    let a = run_seeded("seed-a");
    let b = run_seeded("seed-b");

    // Same failures injected, same results, both equal to clean.
    assert!(
        a.recoveries > 0,
        "seed 0x{SEED:X} must inject at least one death"
    );
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(fingerprint(&clean), fingerprint(&a));
    assert_eq!(fingerprint(&clean), fingerprint(&b));

    // Same fault/checkpoint/recovery event sequence, track by track.
    let fault_events = |r: &JobResult| -> Vec<FaultEvent> {
        let mut seq = Vec::new();
        for track in &r.trace.as_ref().unwrap().tracks {
            for ev in &track.events {
                let (name, arg) = match *ev {
                    tempograph::trace::TraceEvent::Span { name, arg, .. } => (name, arg),
                    tempograph::trace::TraceEvent::Instant { name, arg, .. } => (name, arg),
                    tempograph::trace::TraceEvent::Counter { name, value, .. } => {
                        (name, Some(("value", value)))
                    }
                };
                if name.starts_with("fault.")
                    || name.starts_with("checkpoint.")
                    || name.starts_with("recovery.")
                {
                    seq.push((track.track, name, arg));
                }
            }
        }
        seq
    };
    let seq_a = fault_events(&a);
    let seq_b = fault_events(&b);
    assert!(
        !seq_a.is_empty(),
        "a seeded crash run must record fault/checkpoint/recovery events"
    );
    assert_eq!(
        seq_a, seq_b,
        "same seed must replay the same event sequence"
    );
}

// === TCP transport fault injection ======================================
//
// The same guarantees must hold when partitions talk over real sockets: a
// worker thread or *process* killed mid-superstep is respawned and resumes
// from the latest checkpoint, byte-identical to the fault-free run.

fn sockets_available() -> bool {
    match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(_) => true,
        Err(e) => {
            eprintln!("NOTICE: loopback sockets unavailable ({e}); skipping TCP test");
            false
        }
    }
}

/// A TCP worker (thread cluster) killed mid-superstep: the coordinator
/// tears the epoch down, respawns, resumes from the latest checkpoint, and
/// the output is byte-identical.
#[test]
fn tcp_worker_death_recovers_from_checkpoint_byte_identical() {
    if !sockets_available() {
        return;
    }
    let (t, src, cfg) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let pg = partitioned(&t, 3);
    let factory = MemeTracking::factory(cfg.meme.clone(), tweets_col);

    let clean = run_job(
        &pg,
        &src,
        &factory,
        JobConfig::sequentially_dependent(TIMESTEPS),
    );

    let dir = ckpt_dir("tcp-threads");
    let recovered = run_job_tcp(
        &pg,
        &src,
        &factory,
        JobConfig::sequentially_dependent(TIMESTEPS)
            .with_checkpoint(EVERY, &dir)
            .with_faults(FaultPlan::new().panic_at(1, 2, 0)),
        Cluster::Threads,
    )
    .expect("the killed worker must be recovered");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(recovered.recoveries, 1);
    assert_eq!(fingerprint(&clean), fingerprint(&recovered));
}

/// The full drill: real worker *processes* over a GoFS dataset, one of
/// them killed mid-superstep by an injected panic (exit code, not a panic
/// payload, is the evidence that crosses the process boundary). The
/// coordinator attributes the death, respawns the cluster with the fault
/// latched as fired, resumes from the latest checkpoint, and the result is
/// byte-identical to the in-process fault-free run.
#[test]
fn killed_worker_process_resumes_from_checkpoint_byte_identical() {
    if !sockets_available() {
        return;
    }
    let (t, src, cfg) = tweet_fixture();
    let InstanceSource::Memory(coll) = &src else {
        unreachable!()
    };
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let data_dir = std::env::temp_dir().join(format!("recov-eq-gofs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let pg = partitioned(&t, 3);
    tempograph::gofs::store::write_dataset(&data_dir, pg.clone(), coll, 2, 2).unwrap();

    let store = GofsStore::open(&data_dir).unwrap();
    let pg = Arc::new(store.partitioned_graph());
    let gofs_src = InstanceSource::Gofs(data_dir.clone());
    let factory = MemeTracking::factory(cfg.meme.clone(), tweets_col);

    let clean = run_job(
        &pg,
        &gofs_src,
        &factory,
        JobConfig::sequentially_dependent(TIMESTEPS),
    );

    let plan = FaultPlan::new().panic_at(1, 2, 0);
    let spec = plan.to_spec();
    let ck_dir = ckpt_dir("tcp-process");
    let worker_args: Vec<String> = vec![
        "worker".into(),
        "--data".into(),
        data_dir.to_str().unwrap().into(),
        "--algo".into(),
        "meme".into(),
        "--timesteps".into(),
        TIMESTEPS.to_string(),
        "--meme".into(),
        cfg.meme.clone(),
        "--checkpoint-every".into(),
        EVERY.to_string(),
        "--checkpoint-dir".into(),
        ck_dir.to_str().unwrap().into(),
        "--faults".into(),
        spec,
    ];
    let recovered = run_job_tcp(
        &pg,
        &gofs_src,
        &factory,
        JobConfig::sequentially_dependent(TIMESTEPS)
            .with_checkpoint(EVERY, &ck_dir)
            .with_faults(plan),
        Cluster::Processes {
            worker_bin: env!("CARGO_BIN_EXE_tempograph").into(),
            worker_args,
        },
    )
    .expect("the killed worker process must be recovered");
    let _ = std::fs::remove_dir_all(&ck_dir);
    let _ = std::fs::remove_dir_all(&data_dir);

    assert_eq!(
        recovered.recoveries, 1,
        "exactly one process death must fire and be recovered"
    );
    assert_eq!(
        fingerprint(&clean),
        fingerprint(&recovered),
        "the recovered process cluster must match the fault-free run"
    );
}

/// Normalised registry content: counter values verbatim except measured
/// `_ns_total` time, histograms reduced to their (deterministic)
/// observation counts, gauges to exact bits.
fn registry_fingerprint(label: &str, r: &JobResult) -> Vec<String> {
    use tempograph::metrics::Metric;
    let reg = r
        .registry
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: result lacks a registry"));
    reg.snapshot()
        .metrics
        .iter()
        .map(|e| {
            let labels: Vec<String> = e
                .key
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let id = format!("{}[{}]", e.key.name, labels.join(","));
            match &e.value {
                Metric::Counter(_) if e.key.name.ends_with("_ns_total") => {
                    format!("{id} measured-ns")
                }
                Metric::Counter(c) => format!("{id} counter {c}"),
                Metric::Gauge(g) => format!("{id} gauge-bits {:016x}", g.to_bits()),
                Metric::Histogram(h) => format!("{id} histogram-count {}", h.count()),
            }
        })
        .collect()
}

/// A TCP worker dies *between* sending its round report for a completed
/// timestep and the next barrier. The coordinator has already fed that
/// report to its status board — but the epoch fails, so `CoordTelemetry`
/// resets, and the dead epoch's observability never reaches the
/// coordinator: workers ship their sinks, shards and attribution rows only
/// once, in the Output frame of the epoch that completes. Nothing is lost
/// (the respawned workers rebuild their shards from the restore point)
/// and nothing is counted twice. Both a recovered in-process run and a
/// recovered TCP run cover the final successful attempt, so their merged
/// registries and attribution tables must be identical — and the
/// deterministic output must still match a clean run.
#[test]
fn tcp_death_between_telemetry_flush_and_barrier_neither_loses_nor_double_counts() {
    if !sockets_available() {
        return;
    }
    let (t, src, cfg) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let pg = partitioned(&t, 3);
    let factory = MemeTracking::factory(cfg.meme.clone(), tweets_col);
    // Worker 1 dies at (t = 2, superstep 0): it has flushed telemetry for
    // timesteps 0 and 1 (one flush per barrier round) and passed the
    // t = 1 checkpoint boundary, then dies before reaching any t = 2
    // barrier — exactly the flush/barrier gap under test.
    let mk_cfg = |dir: &PathBuf| {
        JobConfig::sequentially_dependent(TIMESTEPS)
            .with_metrics()
            .with_attribution()
            .with_checkpoint(EVERY, dir)
            .with_faults(FaultPlan::new().panic_at(1, 2, 0))
    };

    let clean = run_job(
        &pg,
        &src,
        &factory,
        JobConfig::sequentially_dependent(TIMESTEPS),
    );

    let local_dir = ckpt_dir("telem-flush-local");
    let local = run_job(&pg, &src, &factory, mk_cfg(&local_dir));
    let _ = std::fs::remove_dir_all(&local_dir);

    let tcp_dir = ckpt_dir("telem-flush-tcp");
    let tcp = run_job_tcp(&pg, &src, &factory, mk_cfg(&tcp_dir), Cluster::Threads)
        .expect("the killed worker must be recovered");
    let _ = std::fs::remove_dir_all(&tcp_dir);

    assert_eq!(local.recoveries, 1, "in-process fault must fire once");
    assert_eq!(tcp.recoveries, 1, "tcp fault must fire once");
    assert_eq!(
        fingerprint(&clean),
        fingerprint(&tcp),
        "recovered TCP output must match the clean run"
    );
    assert_eq!(
        registry_fingerprint("local", &local),
        registry_fingerprint("tcp", &tcp),
        "recovered registries must match: a lost flush would lower the \
         histogram counts, a double-merged one would raise them"
    );
    let attr_rows = |label: &str, r: &JobResult| -> Vec<(u32, u32, u32)> {
        r.attribution
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: result lacks attribution"))
            .rows
            .iter()
            .map(|row| (row.subgraph.0, row.timestep, row.invocations))
            .collect()
    };
    let local_attr = attr_rows("local", &local);
    assert!(
        !local_attr.is_empty(),
        "recovered run must carry attribution rows"
    );
    assert_eq!(
        local_attr,
        attr_rows("tcp", &tcp),
        "recovered attribution must match per (subgraph, timestep)"
    );
}

/// Checkpointing a run that never crashes must not change its output, and
/// must leave a decodable set of files for every boundary.
#[test]
fn checkpointing_without_faults_is_output_neutral() {
    let (t, src) = road_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let pg = partitioned(&t, 3);
    let mk_cfg = || JobConfig::sequentially_dependent(TIMESTEPS).while_active(TIMESTEPS);

    let plain = run_job(&pg, &src, Tdsp::factory(VertexIdx(0), lat_col), mk_cfg());
    let dir = ckpt_dir("neutral");
    let ticked = run_job(
        &pg,
        &src,
        Tdsp::factory(VertexIdx(0), lat_col),
        mk_cfg().with_checkpoint(EVERY, &dir),
    );
    assert_eq!(fingerprint(&plain), fingerprint(&ticked));
    assert_eq!(ticked.recoveries, 0);
    // Every committed boundary decodes for every partition.
    let manifest = read_manifest(&dir).unwrap();
    assert!(!manifest.timesteps.is_empty());
    assert_eq!(
        latest_valid::<tempograph::algos::tdsp::TdspMsg>(&dir, 3),
        manifest.timesteps.last().copied()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
