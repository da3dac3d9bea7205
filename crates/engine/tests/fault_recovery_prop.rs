//! Property-based recovery equivalence: for *arbitrary* fault-plan seeds
//! and checkpoint intervals, a crashed-and-recovered job must equal the
//! fault-free reference bit for bit.
//!
//! The program under test is a deliberately stateful gossip over a ring
//! (engine tests cannot use `tempograph-algos` — that would be circular):
//! every subgraph folds incoming payloads into an accumulator with a
//! non-commutative-looking but deterministic hash, gossips for two
//! supersteps per timestep, and forwards its accumulator across the
//! timestep boundary. Any lost message, replayed message, stale program
//! state, or mis-restored sequence counter changes the accumulator and
//! fails the equality.
//!
//! The vendored proptest has no shrinking; the failing seed is embedded in
//! the assertion message so a failure is directly replayable.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use tempograph_core::{TemplateBuilder, TimeSeriesCollection};
use tempograph_engine::{
    run_job, Context, Envelope, FaultPlan, InstanceSource, JobConfig, JobResult, SubgraphProgram,
    WireError, WireMsg,
};
use tempograph_partition::{discover_subgraphs, PartitionedGraph, Partitioning, Subgraph};

const PARTITIONS: usize = 3;
const TIMESTEPS: usize = 6;

/// Stateful ring gossip; see module docs.
struct ChainGossip {
    acc: u64,
}

impl SubgraphProgram for ChainGossip {
    type Msg = u64;

    fn compute(&mut self, ctx: &mut Context<'_, u64>, msgs: &[Envelope<u64>]) {
        for e in msgs {
            self.acc = self.acc.wrapping_mul(0x100000001b3).wrapping_add(e.payload);
        }
        if ctx.superstep() < 2 {
            let mut targets = Vec::new();
            for pos in ctx.subgraph().positions() {
                for rn in ctx.subgraph().remote_neighbors(pos) {
                    targets.push(rn.subgraph);
                }
            }
            targets.sort_unstable();
            targets.dedup();
            let val = self.acc ^ (((ctx.timestep() as u64) << 32) | ctx.superstep() as u64);
            for t in targets {
                ctx.send_to_subgraph(t, val);
            }
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, u64>) {
        self.acc = self.acc.wrapping_add(ctx.timestep() as u64 + 1);
        ctx.emit(ctx.subgraph().vertex_at(0), (self.acc & 0xFFFF_FFFF) as f64);
        ctx.add_counter("gossip_acc_low", self.acc & 0xFFFF);
        if ctx.timestep() + 1 < ctx.num_timesteps() {
            ctx.send_to_next_timestep(self.acc);
        }
    }

    fn save_state(&self, buf: &mut bytes::BytesMut) {
        self.acc.encode(buf);
    }

    fn restore_state(&mut self, buf: &mut bytes::Bytes) -> Result<(), WireError> {
        self.acc = u64::decode(buf)?;
        Ok(())
    }
}

fn factory(sg: &Subgraph, _pg: &PartitionedGraph) -> ChainGossip {
    ChainGossip {
        acc: sg.id().0 as u64 + 1,
    }
}

/// A 12-vertex ring, round-robin partitioned so every edge crosses
/// partitions: all gossip is genuine wire traffic.
fn fixture() -> (Arc<PartitionedGraph>, InstanceSource) {
    let mut b = TemplateBuilder::new("ring", false);
    const N: u64 = 12;
    for v in 0..N {
        b.add_vertex(v);
    }
    for v in 0..N {
        b.add_edge(v, v, (v + 1) % N).unwrap();
    }
    let t = Arc::new(b.finalize().unwrap());
    let assignment: Vec<u16> = (0..N).map(|v| (v % PARTITIONS as u64) as u16).collect();
    let pg = Arc::new(discover_subgraphs(
        t.clone(),
        Partitioning {
            assignment,
            k: PARTITIONS,
        },
    ));
    let mut coll = TimeSeriesCollection::new(t, 0, 60);
    for _ in 0..TIMESTEPS {
        coll.push(coll.new_instance()).unwrap();
    }
    (pg, InstanceSource::Memory(Arc::new(coll)))
}

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

fn reference() -> &'static (Arc<PartitionedGraph>, InstanceSource, Fingerprint) {
    static REF: OnceLock<(Arc<PartitionedGraph>, InstanceSource, Fingerprint)> = OnceLock::new();
    REF.get_or_init(|| {
        let (pg, src) = fixture();
        let clean = run_job(
            &pg,
            &src,
            factory,
            JobConfig::sequentially_dependent(TIMESTEPS),
        );
        assert_eq!(clean.recoveries, 0);
        let fp = fingerprint(&clean);
        (pg, src, fp)
    })
}

proptest! {
    /// `usize::MAX` means "checkpointing armed but never due": recovery
    /// degenerates to restart-from-scratch, which must also be equivalent.
    #[test]
    fn recovered_run_equals_fault_free_reference(
        seed in any::<u64>(),
        every_idx in 0usize..4,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let every = [1, 2, 5, usize::MAX][every_idx];
        let (pg, src, clean_fp) = reference();

        let dir = std::env::temp_dir().join(format!(
            "fault-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let plan = FaultPlan::from_seed(seed, PARTITIONS as u16, TIMESTEPS);
        let crashed = run_job(
            pg,
            src,
            factory,
            JobConfig::sequentially_dependent(TIMESTEPS)
                .with_checkpoint(every, &dir)
                .with_faults(plan),
        );
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert!(
            crashed.recoveries >= 1,
            "seed {seed:#x}: from_seed always schedules at least one death \
             at a reachable superstep"
        );
        prop_assert_eq!(
            clean_fp,
            &fingerprint(&crashed),
            "recovery diverged: seed={:#x} every={}",
            seed,
            every
        );
    }
}
