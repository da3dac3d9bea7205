//! Engine integration tests: BSP semantics, TI-BSP patterns, determinism,
//! and GoFS-backed execution.

use std::sync::Arc;
use tempograph_core::{AttrType, TemplateBuilder, TimeSeriesCollection, VertexIdx};
use tempograph_engine::{run_job, Context, Envelope, InstanceSource, JobConfig, SubgraphProgram};
use tempograph_gofs::store::write_dataset;
use tempograph_partition::{
    discover_subgraphs, MultilevelPartitioner, PartitionedGraph, Partitioner, Partitioning,
    SubgraphId,
};

/// Path graph 0-1-…-(n-1), k equal chunks, one i64 vertex attr "x" where
/// x(v, t) = t*1000 + v.
fn fixture(
    n: u64,
    k: usize,
    timesteps: usize,
) -> (Arc<PartitionedGraph>, Arc<TimeSeriesCollection>) {
    let mut b = TemplateBuilder::new("fixture", false);
    b.vertex_schema().add("x", AttrType::Long);
    for i in 0..n {
        b.add_vertex(i);
    }
    for i in 0..n - 1 {
        b.add_edge(i, i, i + 1).unwrap();
    }
    let t = Arc::new(b.finalize().unwrap());
    let chunk = n as usize / k;
    let assignment = (0..n as usize)
        .map(|v| ((v / chunk).min(k - 1)) as u16)
        .collect();
    let pg = Arc::new(discover_subgraphs(
        t.clone(),
        Partitioning { assignment, k },
    ));
    let mut coll = TimeSeriesCollection::new(t, 0, 10);
    for ts in 0..timesteps {
        let mut g = coll.new_instance();
        for (i, x) in g.vertex_i64_mut("x").unwrap().iter_mut().enumerate() {
            *x = (ts * 1000 + i) as i64;
        }
        coll.push(g).unwrap();
    }
    (pg, Arc::new(coll))
}

// ---- 1. superstep messaging over remote edges ---------------------------

/// Floods a token from the subgraph containing vertex 0 across remote edges;
/// every subgraph counts the supersteps until it was reached.
struct Flood {
    reached: bool,
}

impl SubgraphProgram for Flood {
    type Msg = u32;

    fn compute(&mut self, ctx: &mut Context<'_, u32>, msgs: &[Envelope<u32>]) {
        let newly = if ctx.superstep() == 0 {
            ctx.subgraph().local_pos(VertexIdx(0)).is_some()
        } else {
            !msgs.is_empty() && !self.reached
        };
        if newly {
            self.reached = true;
            ctx.add_counter("reached_at", ctx.superstep() as u64 + 1);
            // Notify every neighbouring subgraph once.
            let mut targets: Vec<SubgraphId> = Vec::new();
            for pos in ctx.subgraph().positions() {
                for rn in ctx.subgraph().remote_neighbors(pos) {
                    if !targets.contains(&rn.subgraph) {
                        targets.push(rn.subgraph);
                    }
                }
            }
            for sg in targets {
                ctx.send_to_subgraph(sg, ctx.superstep() as u32);
            }
        }
        ctx.vote_to_halt();
    }
}

#[test]
fn flood_crosses_partitions_in_superstep_order() {
    let (pg, coll) = fixture(30, 3, 1);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        |_, _| Flood { reached: false },
        JobConfig::independent(1),
    );
    // 3 partitions in a path: 3 subgraphs, reached at supersteps 1, 2, 3.
    assert_eq!(result.counter_at("reached_at", 0), 1 + 2 + 3);
    assert_eq!(result.timesteps_run, 1);
    let m = &result.metrics[0];
    assert!(m.iter().map(|x| x.msgs_remote).sum::<u64>() >= 2);
}

// ---- 2. sequentially dependent state threading ---------------------------

/// Accumulates the sum of its instance's `x` values across timesteps by
/// threading a running total through `SendToNextTimestep`.
struct RunningSum {
    total: i64,
}

impl SubgraphProgram for RunningSum {
    type Msg = i64;

    fn compute(&mut self, ctx: &mut Context<'_, i64>, msgs: &[Envelope<i64>]) {
        if ctx.superstep() == 0 {
            let carried: i64 = msgs.iter().map(|e| e.payload).sum();
            let instance = ctx.instance();
            let here: i64 = instance.vertex_i64(0).unwrap().iter().sum();
            self.total = carried + here;
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, i64>) {
        if ctx.timestep() + 1 < ctx.num_timesteps() {
            ctx.send_to_next_timestep(self.total);
        } else {
            // Final timestep: emit per-subgraph total on vertex 0 position.
            ctx.emit(ctx.subgraph().vertex_at(0), self.total as f64);
        }
    }
}

#[test]
fn sequentially_dependent_threads_state() {
    let (pg, coll) = fixture(12, 2, 4);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        |_, _| RunningSum { total: 0 },
        JobConfig::sequentially_dependent(4),
    );
    // Expected global sum: Σ_t Σ_v (1000t + v) for t in 0..4, v in 0..12.
    let expect: i64 = (0..4i64)
        .flat_map(|t| (0..12i64).map(move |v| 1000 * t + v))
        .sum();
    let got: i64 = result.emitted_at(3).map(|e| e.value as i64).sum();
    assert_eq!(got, expect);
    assert_eq!(result.timesteps_run, 4);
}

// ---- 3. eventually dependent merge ---------------------------------------

/// Each timestep sends its subgraph's vertex count to merge; merge sums all
/// received values and forwards them to the designated master subgraph.
struct CountToMerge;

impl SubgraphProgram for CountToMerge {
    type Msg = u64;

    fn compute(&mut self, ctx: &mut Context<'_, u64>, _msgs: &[Envelope<u64>]) {
        if ctx.superstep() == 0 {
            ctx.send_to_merge(ctx.subgraph().num_vertices() as u64);
        }
        ctx.vote_to_halt();
    }

    fn merge(&mut self, ctx: &mut Context<'_, u64>, msgs: &[Envelope<u64>]) {
        let master = ctx
            .partitioned_graph()
            .largest_subgraph_in_partition(0)
            .unwrap();
        if ctx.superstep() == 0 {
            // One message per timestep must have arrived, in order.
            assert_eq!(msgs.len(), ctx.num_timesteps());
            let sum: u64 = msgs.iter().map(|e| e.payload).sum();
            ctx.send_to_subgraph(master, sum);
        } else if ctx.subgraph().id() == master && !msgs.is_empty() {
            let grand: u64 = msgs.iter().map(|e| e.payload).sum();
            ctx.add_counter("grand_total", grand);
        }
        ctx.vote_to_halt();
    }
}

#[test]
fn eventually_dependent_merges_across_timesteps() {
    let (pg, coll) = fixture(20, 2, 5);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        |_, _| CountToMerge,
        JobConfig::eventually_dependent(5),
    );
    // 20 vertices × 5 timesteps = 100.
    let grand: u64 = result
        .merge_counters
        .get("grand_total")
        .unwrap()
        .iter()
        .sum();
    assert_eq!(grand, 100);
}

// ---- 4. while-active early termination ------------------------------------

/// Runs until timestep 2, then all subgraphs vote to halt the timestep loop.
struct StopsEarly;

impl SubgraphProgram for StopsEarly {
    type Msg = ();

    fn compute(&mut self, ctx: &mut Context<'_, ()>, _msgs: &[Envelope<()>]) {
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, ()>) {
        if ctx.timestep() >= 2 {
            ctx.vote_to_halt_timestep();
        } else {
            ctx.send_to_next_timestep(());
        }
    }
}

#[test]
fn while_active_stops_when_all_vote() {
    let (pg, coll) = fixture(10, 2, 8);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        |_, _| StopsEarly,
        JobConfig::sequentially_dependent(8).while_active(8),
    );
    assert_eq!(result.timesteps_run, 3, "stops after timestep index 2");
}

// ---- 5. initial messages ---------------------------------------------------

struct EchoInitial;

impl SubgraphProgram for EchoInitial {
    type Msg = u64;

    fn compute(&mut self, ctx: &mut Context<'_, u64>, msgs: &[Envelope<u64>]) {
        if ctx.timestep() == 0 && ctx.superstep() == 0 {
            for e in msgs {
                ctx.add_counter("initial_sum", e.payload);
            }
        }
        ctx.vote_to_halt();
    }
}

#[test]
fn initial_messages_reach_target_subgraph() {
    let (pg, coll) = fixture(10, 2, 1);
    let target = pg.subgraph_of_vertex(VertexIdx(7));
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        |_, _| EchoInitial,
        JobConfig::independent(1).with_initial_messages(vec![(target, 41), (target, 1)]),
    );
    assert_eq!(result.counter_at("initial_sum", 0), 42);
}

// ---- 6. GoFS source matches memory source ----------------------------------

#[test]
fn gofs_and_memory_sources_agree() {
    let (pg, coll) = fixture(24, 3, 6);
    let dir = std::env::temp_dir().join(format!("engine-gofs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dir, pg.clone(), &coll, 2, 2).unwrap();

    let mem = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        |_, _| RunningSum { total: 0 },
        JobConfig::sequentially_dependent(6),
    );
    let gofs = run_job(
        &pg,
        &InstanceSource::Gofs(dir.clone()),
        |_, _| RunningSum { total: 0 },
        JobConfig::sequentially_dependent(6),
    );
    assert_eq!(mem.emitted, gofs.emitted);
    // GoFS run must actually have hit the disk.
    let loads: u64 = gofs.metrics.iter().flatten().map(|m| m.slice_loads).sum();
    assert!(loads > 0, "expected real slice loads");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- 7. determinism ---------------------------------------------------------

#[test]
fn runs_are_deterministic() {
    let (pg, coll) = fixture(30, 3, 3);
    let src = InstanceSource::Memory(coll);
    let a = run_job(
        &pg,
        &src,
        |_, _| RunningSum { total: 0 },
        JobConfig::sequentially_dependent(3),
    );
    let b = run_job(
        &pg,
        &src,
        |_, _| RunningSum { total: 0 },
        JobConfig::sequentially_dependent(3),
    );
    assert_eq!(a.emitted, b.emitted);
    assert_eq!(a.timesteps_run, b.timesteps_run);
}

// ---- 8. merge phase under the intra-partition compute pool ------------------

#[test]
fn intra_partition_parallelism_matches_sequential_merge() {
    let (pg, coll) = fixture(20, 2, 5);
    let src = InstanceSource::Memory(coll);
    let normal = run_job(
        &pg,
        &src,
        |_, _| CountToMerge,
        JobConfig::eventually_dependent(5),
    );
    let pooled = run_job(
        &pg,
        &src,
        |_, _| CountToMerge,
        JobConfig::eventually_dependent(5).with_intra_partition_parallelism(),
    );
    assert_eq!(
        normal.merge_counters.get("grand_total"),
        pooled.merge_counters.get("grand_total")
    );
}

// ---- 9. lazy instance loading ------------------------------------------------

/// Touches instance data only in the subgraph containing vertex 0.
struct TouchOne;

impl SubgraphProgram for TouchOne {
    type Msg = ();

    fn compute(&mut self, ctx: &mut Context<'_, ()>, _msgs: &[Envelope<()>]) {
        if ctx.subgraph().local_pos(VertexIdx(0)).is_some() {
            let inst = ctx.instance();
            ctx.add_counter(
                "sum",
                inst.vertex_i64(0).unwrap().iter().sum::<i64>() as u64,
            );
        }
        ctx.vote_to_halt();
    }
}

#[test]
fn untouched_subgraphs_cause_no_io() {
    let (pg, coll) = fixture(20, 2, 2);
    let dir = std::env::temp_dir().join(format!("engine-lazy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dir, pg.clone(), &coll, 1, 1).unwrap();
    let result = run_job(
        &pg,
        &InstanceSource::Gofs(dir.clone()),
        |_, _| TouchOne,
        JobConfig::independent(2),
    );
    // Only partition 0 (owning vertex 0) should load slices: 1 slice per
    // timestep with packing=1, binning=1 and one subgraph per partition.
    let p0_loads: u64 = result.metrics.iter().map(|t| t[0].slice_loads).sum();
    let p1_loads: u64 = result.metrics.iter().map(|t| t[1].slice_loads).sum();
    assert_eq!(p0_loads, 2);
    assert_eq!(p1_loads, 0, "inactive partition must not touch disk");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- 10. multilevel-partitioned end-to-end ----------------------------------

#[test]
fn works_with_multilevel_partitioning() {
    let mut b = TemplateBuilder::new("grid", false);
    b.vertex_schema().add("x", AttrType::Long);
    let side = 12u64;
    for i in 0..side * side {
        b.add_vertex(i);
    }
    let mut eid = 0;
    for y in 0..side {
        for x in 0..side {
            let v = y * side + x;
            if x + 1 < side {
                b.add_edge(eid, v, v + 1).unwrap();
                eid += 1;
            }
            if y + 1 < side {
                b.add_edge(eid, v, v + side).unwrap();
                eid += 1;
            }
        }
    }
    let t = Arc::new(b.finalize().unwrap());
    let part = MultilevelPartitioner::default().partition(&t, 4);
    let pg = Arc::new(discover_subgraphs(t.clone(), part));
    let mut coll = TimeSeriesCollection::new(t, 0, 1);
    for _ in 0..2 {
        coll.push(coll.new_instance()).unwrap();
    }
    let result = run_job(
        &pg,
        &InstanceSource::Memory(Arc::new(coll)),
        |_, _| Flood { reached: false },
        JobConfig::independent(1),
    );
    // Every subgraph must eventually be reached (grid is connected).
    let reached_count = result
        .counters
        .get("reached_at")
        .map(|rows| rows[0].iter().sum::<u64>());
    assert!(reached_count.is_some());
}

// ---- 11. intra-partition parallelism -----------------------------------

#[test]
fn intra_partition_parallelism_matches_sequential() {
    let (pg, coll) = fixture(24, 2, 4);
    let src = InstanceSource::Memory(coll);
    let sequential = run_job(
        &pg,
        &src,
        |_, _| RunningSum { total: 0 },
        JobConfig::sequentially_dependent(4),
    );
    let parallel = run_job(
        &pg,
        &src,
        |_, _| RunningSum { total: 0 },
        JobConfig::sequentially_dependent(4).with_intra_partition_parallelism(),
    );
    assert_eq!(sequential.emitted, parallel.emitted);
    assert_eq!(sequential.timesteps_run, parallel.timesteps_run);
}

#[test]
fn intra_partition_parallelism_preserves_messaging_semantics() {
    let (pg, coll) = fixture(30, 3, 1);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        |_, _| Flood { reached: false },
        JobConfig::independent(1).with_intra_partition_parallelism(),
    );
    assert_eq!(result.counter_at("reached_at", 0), 1 + 2 + 3);
}
