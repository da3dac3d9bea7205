//! Determinism suite: TI-BSP runs must be **byte-identical** regardless of
//! execution configuration. The engine guarantees deterministic message
//! delivery (sorted by globally unique `(from, seq)`), so turning sender-side
//! combiners on or off, or changing the partition count, must not change a
//! single output bit of a deterministic algorithm — only the traffic volume.
//!
//! The fingerprints compare `f64` *bit patterns* (not approximate values)
//! plus all user counters, so any nondeterminism in delivery order, combiner
//! folding, or emission ordering shows up as a hard failure.

use std::collections::BTreeMap;
use std::sync::Arc;
use tempograph_algos::{MemeDedupCombiner, MemeTracking, Tdsp, TdspCombiner};
use tempograph_core::{GraphTemplate, VertexIdx};
use tempograph_engine::{run_job, Combiner, InstanceSource, JobConfig, JobResult};
use tempograph_gen::{
    generate_road_latencies, generate_sir_tweets, road_network, RoadLatencyConfig, RoadNetConfig,
    SirConfig, LATENCY_ATTR, TWEETS_ATTR,
};
use tempograph_partition::{
    discover_subgraphs, MultilevelPartitioner, PartitionedGraph, Partitioner, Partitioning,
};

fn road(width: usize, height: usize, seed: u64) -> Arc<GraphTemplate> {
    Arc::new(road_network(&RoadNetConfig {
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

/// Everything observable about a run, in canonical order, with floats as
/// bit patterns. Two fingerprints are equal iff the runs are byte-identical.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    emitted: Vec<(usize, u32, u64)>,
    counters: BTreeMap<String, Vec<u64>>,
    timesteps_run: usize,
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
    }
}

/// Sum a `TimestepMetrics` field over all timesteps, partitions, and merge.
fn total_metric(r: &JobResult, f: impl Fn(&tempograph_engine::TimestepMetrics) -> u64) -> u64 {
    r.metrics
        .iter()
        .flatten()
        .chain(r.merge_metrics.iter())
        .map(f)
        .sum()
}

fn tdsp_config(combiner: bool) -> JobConfig<tempograph_algos::tdsp::TdspMsg> {
    let mut cfg = JobConfig::sequentially_dependent(20).while_active(20);
    if combiner {
        cfg = cfg.with_combiner(Arc::new(TdspCombiner));
    }
    cfg
}

#[test]
fn tdsp_byte_identical_across_combiner_parallelism_and_partitions() {
    let t = road(10, 10, 0xD15EA5E);
    let coll = Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: 20,
            period: 50,
            min_latency: 4.0,
            max_latency: 60.0,
            seed: 13,
            ..Default::default()
        },
    ));
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let source = InstanceSource::Memory(coll);

    let mut baseline: Option<Fingerprint> = None;
    for k in [3, 6, 9] {
        let pg = partitioned(&t, k);
        for combiner in [false, true] {
            let result = run_job(
                &pg,
                &source,
                Tdsp::factory(VertexIdx(0), lat_col),
                tdsp_config(combiner),
            );
            let fp = fingerprint(&result);
            match &baseline {
                None => baseline = Some(fp),
                Some(b) => assert_eq!(&fp, b, "TDSP diverged at k={k} combiner={combiner}"),
            }
        }
    }
}

#[test]
fn meme_byte_identical_across_combiner_parallelism_and_partitions() {
    let t = road(12, 12, 0xFACADE);
    let cfg = SirConfig {
        timesteps: 15,
        hit_prob: 0.4,
        initial_infected: 4,
        infectious_steps: 3,
        background_rate: 0.08,
        ..Default::default()
    };
    let coll = Arc::new(generate_sir_tweets(t.clone(), &cfg));
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let source = InstanceSource::Memory(coll);

    let mut baseline: Option<Fingerprint> = None;
    for k in [3, 6, 9] {
        let pg = partitioned(&t, k);
        for combiner in [false, true] {
            let mut job = JobConfig::sequentially_dependent(15);
            if combiner {
                job = job.with_combiner(Arc::new(MemeDedupCombiner));
            }
            let result = run_job(
                &pg,
                &source,
                MemeTracking::factory(cfg.meme.clone(), tweets_col),
                job,
            );
            let fp = fingerprint(&result);
            match &baseline {
                None => baseline = Some(fp),
                Some(b) => assert_eq!(&fp, b, "MEME diverged at k={k} combiner={combiner}"),
            }
        }
    }
}

/// The combiner must *reduce traffic*, not just preserve results. A
/// checkerboard partitioning makes every vertex its own subgraph with all
/// neighbours in the opposite partition, so several subgraphs of one
/// partition relax the same remote vertex in the same superstep — exactly
/// the duplication sender-side combining exists to collapse.
#[test]
fn tdsp_combiner_sends_fewer_wire_bytes_and_identical_results() {
    let t = road(8, 8, 42);
    let coll = Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: 12,
            period: 45,
            min_latency: 3.0,
            max_latency: 50.0,
            seed: 3,
            ..Default::default()
        },
    ));
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let source = InstanceSource::Memory(coll);

    // Checkerboard by grid parity: all grid neighbours cross partitions.
    let width = 8;
    let assignment: Vec<u16> = (0..t.num_vertices())
        .map(|v| ((v % width + v / width) % 2) as u16)
        .collect();
    let pg = Arc::new(discover_subgraphs(
        t.clone(),
        Partitioning { assignment, k: 2 },
    ));
    assert!(
        pg.subgraphs().len() > 2,
        "checkerboard must fragment partitions into many subgraphs"
    );

    let run = |combine: bool| {
        let mut job = JobConfig::sequentially_dependent(12).while_active(12);
        if combine {
            job = job.with_combiner(Arc::new(TdspCombiner));
        }
        run_job(&pg, &source, Tdsp::factory(VertexIdx(0), lat_col), job)
    };
    let plain = run(false);
    let combined = run(true);

    // Results byte-identical…
    assert_eq!(fingerprint(&plain), fingerprint(&combined));

    // …but the combined run did real work and shipped strictly fewer bytes.
    let plain_bytes = total_metric(&plain, |m| m.bytes_remote);
    let combined_bytes = total_metric(&combined, |m| m.bytes_remote);
    let folded = total_metric(&combined, |m| m.msgs_combined);
    assert_eq!(total_metric(&plain, |m| m.msgs_combined), 0);
    assert!(folded > 0, "combiner never fired — topology too tame");
    assert!(
        combined_bytes < plain_bytes,
        "combined run must ship fewer bytes: {combined_bytes} vs {plain_bytes}"
    );

    // Batched framing invariant: every remote frame belongs to a
    // (src, dst, phase) tuple — far fewer frames than messages.
    let frames = total_metric(&combined, |m| m.batches_remote);
    let remote_msgs = total_metric(&combined, |m| m.msgs_remote);
    assert!(frames > 0);
    assert!(frames <= remote_msgs, "one frame carries ≥1 message");
}

/// The combiner keys a relaxation by its target vertex and keeps the
/// smallest arrival. (Covered implicitly by the byte-identical tests; this
/// asserts the key contract directly.)
#[test]
fn tdsp_combiner_key_contract() {
    use tempograph_algos::tdsp::TdspMsg;
    let c = TdspCombiner;
    assert_eq!(c.key(&TdspMsg::Relax(VertexIdx(7), 1.0)), Some(7));
    let mut acc = TdspMsg::Relax(VertexIdx(7), 5.0);
    c.combine(&mut acc, TdspMsg::Relax(VertexIdx(7), 3.0));
    assert_eq!(acc, TdspMsg::Relax(VertexIdx(7), 3.0));
    c.combine(&mut acc, TdspMsg::Relax(VertexIdx(7), 9.0));
    assert_eq!(acc, TdspMsg::Relax(VertexIdx(7), 3.0));
}
