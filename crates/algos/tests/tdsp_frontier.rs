//! `Tdsp` restarts each timestep from its frontier, not from every
//! finalized vertex. These tests pin what that rests on: the answer is the
//! sequential reference's bit for bit on adversarial cuts, a vertex lowered
//! late in a timestep still re-sends, and the traffic is proportional to
//! the wavefront — a finished region sends nothing, loads nothing and is
//! not even called. Under `WhileActive` the loop is kept alive by withheld
//! votes, not by messages, and stops right after the last finalization.

mod common;

use common::{ref_tdsp, road};
use proptest::prelude::*;
use std::sync::Arc;
use tempograph_algos::tdsp::TdspMsg;
use tempograph_algos::{Tdsp, TdspCombiner};
use tempograph_core::{AttrType, GraphTemplate, TemplateBuilder, TimeSeriesCollection, VertexIdx};
use tempograph_engine::{
    run_job, Context, Envelope, InstanceSource, JobConfig, JobResult, SubgraphProgram,
};
use tempograph_gen::{generate_road_latencies, RoadLatencyConfig, LATENCY_ATTR};
use tempograph_partition::{discover_subgraphs, PartitionedGraph, Partitioning, Subgraph};

/// Grid-parity assignment: every lattice neighbour is in the other
/// partition, so every vertex is its own subgraph.
fn checkerboard(t: &Arc<GraphTemplate>, width: usize) -> Arc<PartitionedGraph> {
    let assignment = (0..t.num_vertices())
        .map(|v| ((v % width + v / width) % 2) as u16)
        .collect();
    Arc::new(discover_subgraphs(
        t.clone(),
        Partitioning { assignment, k: 2 },
    ))
}

/// Counter of the calls the engine makes into a [`Counted`] program.
const CALLS: &str = "calls";

/// `Tdsp`, counting every `compute` and `end_of_timestep` call it gets.
struct Counted(Tdsp);

impl SubgraphProgram for Counted {
    type Msg = TdspMsg;

    fn compute(&mut self, ctx: &mut Context<'_, TdspMsg>, msgs: &[Envelope<TdspMsg>]) {
        ctx.add_counter(CALLS, 1);
        self.0.compute(ctx, msgs);
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, TdspMsg>) {
        ctx.add_counter(CALLS, 1);
        self.0.end_of_timestep(ctx);
    }
}

/// Run TDSP over every instance; `while_active` lets the votes end the
/// loop early, otherwise it goes on after the last finalization.
fn run_tdsp(
    pg: &Arc<PartitionedGraph>,
    coll: &Arc<TimeSeriesCollection>,
    source: VertexIdx,
    combiner: bool,
    while_active: bool,
) -> JobResult {
    let lat_col = coll
        .template()
        .edge_schema()
        .index_of(LATENCY_ATTR)
        .unwrap();
    let mut job = JobConfig::sequentially_dependent(coll.len());
    if while_active {
        job = job.while_active(coll.len());
    }
    if combiner {
        job = job.with_combiner(Arc::new(TdspCombiner));
    }
    let tdsp = Tdsp::factory(source, lat_col);
    run_job(
        pg,
        &InstanceSource::Memory(coll.clone()),
        move |sg: &Subgraph, pg: &PartitionedGraph| Counted(tdsp(sg, pg)),
        job,
    )
}

/// Emitted values by vertex as bit patterns (∞ where nothing was emitted).
fn emitted_bits(r: &JobResult, n: usize) -> Vec<u64> {
    let mut got = vec![f64::INFINITY.to_bits(); n];
    for e in &r.emitted {
        got[e.vertex.idx()] = e.value.to_bits();
    }
    got
}

fn reference_bits(coll: &TimeSeriesCollection, source: VertexIdx) -> Vec<u64> {
    ref_tdsp(coll, source).iter().map(|d| d.to_bits()).collect()
}

proptest! {
    /// Periods range from under one latency (edges closed for whole
    /// timesteps, vertices left unreached) to many hops per timestep (labels
    /// lowered over several supersteps, which is what re-sending is for).
    #[test]
    fn tdsp_equals_sequential_reference_bit_for_bit(
        (width, height, seed) in (2usize..7, 2usize..7, any::<u64>()),
        (parts, k, checker) in (proptest::collection::vec(0u16..4, 36), 2usize..5, any::<bool>()),
        (period, min_latency, spread) in (10i64..150, 0.5f64..10.0, 1.0f64..60.0),
        (source, combiner) in (0u32..4, any::<bool>()),
    ) {
        let t = road(width, height, seed);
        let n = t.num_vertices();
        let coll = Arc::new(generate_road_latencies(
            t.clone(),
            &RoadLatencyConfig {
                timesteps: 16,
                period,
                min_latency,
                max_latency: min_latency + spread,
                seed: seed ^ 0x7D5B,
                ..Default::default()
            },
        ));
        let pg = if checker {
            checkerboard(&t, width)
        } else {
            let assignment = parts[..n].iter().map(|&p| p % k as u16).collect();
            Arc::new(discover_subgraphs(t.clone(), Partitioning { assignment, k }))
        };
        let source = VertexIdx(source);
        let expect = reference_bits(&coll, source);
        let result = run_tdsp(&pg, &coll, source, combiner, false);
        prop_assert_eq!(emitted_bits(&result, n), expect.clone());

        // `WhileActive`: same answer, no message keeps the loop alive, and
        // the loop ends right after the last finalization — or runs to the
        // cap while some vertex is unreached.
        let result = run_tdsp(&pg, &coll, source, combiner, true);
        prop_assert_eq!(emitted_bits(&result, n), expect);
        let msgs_local: u64 = result.metrics.iter().flatten().map(|m| m.msgs_local).sum();
        prop_assert_eq!(msgs_local, 0);
        let last = result.emitted.iter().map(|e| e.timestep).max();
        let timesteps_run = match last {
            Some(last) if result.emitted.len() == n => last + 1,
            _ => coll.len(),
        };
        prop_assert_eq!(result.timesteps_run, timesteps_run);
    }
}

/// Hazard: B is first reached over the slow local edge S–B and relaxes R
/// across the cut with arrival 9. Two supersteps later the fast remote
/// path S→P→B lowers B to 2; B must offer R the better arrival 3 over the
/// entry it has already used, in the same timestep.
#[test]
fn vertex_lowered_later_in_the_timestep_resends_over_a_used_entry() {
    const EDGES: [(u64, u64, f64); 4] = [(0, 1, 8.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)];
    let mut b = TemplateBuilder::new("resend", false);
    b.edge_schema().add(LATENCY_ATTR, AttrType::Double);
    for v in 0..4 {
        b.add_vertex(v);
    }
    for (eid, &(s, d, _)) in EDGES.iter().enumerate() {
        b.add_edge(eid as u64, s, d).unwrap();
    }
    let t = Arc::new(b.finalize().unwrap());
    let mut coll = TimeSeriesCollection::new(t.clone(), 0, 100);
    let mut g = coll.new_instance();
    for e in t.edges() {
        let (s, d) = t.endpoints(e);
        let (s, d) = (s.0 as u64, d.0 as u64);
        let &(_, _, latency) = EDGES
            .iter()
            .find(|&&(a, b, _)| (a, b) == (s, d) || (a, b) == (d, s))
            .unwrap();
        g.edge_f64_mut(LATENCY_ATTR).unwrap()[e.idx()] = latency;
    }
    coll.push(g).unwrap();
    let coll = Arc::new(coll);

    // S, B | P, R — with P and R each a subgraph of their own.
    let pg = Arc::new(discover_subgraphs(
        t,
        Partitioning {
            assignment: vec![0, 0, 1, 1],
            k: 2,
        },
    ));
    assert_eq!(pg.subgraphs().len(), 3);

    let result = run_tdsp(&pg, &coll, VertexIdx(0), false, false);
    let expect = [0.0f64, 2.0, 1.0, 3.0].map(f64::to_bits).to_vec();
    assert_eq!(emitted_bits(&result, 4), expect);
    assert_eq!(reference_bits(&coll, VertexIdx(0)), expect);
}

/// Latencies well inside the period, so every open entry is used within a
/// timestep or two of its vertex being finalized.
fn quick_roads(t: &Arc<GraphTemplate>, timesteps: usize) -> Arc<TimeSeriesCollection> {
    Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps,
            period: 50,
            min_latency: 5.0,
            max_latency: 30.0,
            seed: 3,
            ..Default::default()
        },
    ))
}

#[test]
fn a_finished_region_is_silent() {
    let t = road(8, 8, 42);
    let coll = quick_roads(&t, 40);
    // Left half | right half.
    let assignment = (0..t.num_vertices()).map(|v| (v % 8 >= 4) as u16).collect();
    let pg = Arc::new(discover_subgraphs(
        t.clone(),
        Partitioning { assignment, k: 2 },
    ));
    let result = run_tdsp(&pg, &coll, VertexIdx(0), false, false);

    assert_eq!(result.emitted.len(), t.num_vertices());
    assert_eq!(result.timesteps_run, 40, "the job runs on after finishing");
    let last = result.emitted.iter().map(|e| e.timestep).max().unwrap();
    assert!(last + 2 < 20, "finished at {last}: the tail is too short");
    // The timestep after the last finalization may still use entries that
    // were out of horizon before; from then on nothing is open, and every
    // subgraph sleeps.
    let calls = &result.counters[CALLS];
    for (step, per_partition) in result.metrics.iter().enumerate().skip(last + 2) {
        for (p, m) in per_partition.iter().enumerate() {
            // The in-memory source counts every instance request as a load.
            assert_eq!(
                (m.msgs_remote, m.msgs_local, m.slice_loads, calls[step][p]),
                (0, 0, 0, 0),
                "timestep {step}, partition {p} (last finalization at {last})"
            );
        }
    }
}

#[test]
fn relax_traffic_is_bounded_by_the_cut_not_by_the_timesteps() {
    let t = road(8, 8, 42);
    let pg = checkerboard(&t, 8);
    let entries: usize = pg.subgraphs().iter().map(|s| s.num_remote_edges()).sum();
    let sent = |timesteps| -> u64 {
        run_tdsp(&pg, &quick_roads(&t, timesteps), VertexIdx(0), false, false)
            .metrics
            .iter()
            .flatten()
            .map(|m| m.msgs_remote)
            .sum()
    };
    // An entry carries the arrivals its vertex offers while being lowered in
    // the timestep it is reached, and at most one from the frontier after.
    let total = sent(40);
    assert!(
        total <= 2 * entries as u64,
        "{total} Relax messages over {entries} remote adjacency entries"
    );
    assert_eq!(total, sent(20), "timesteps after the wavefront add nothing");
}
