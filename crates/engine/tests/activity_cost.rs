//! Engine cost is proportional to activity — as exact counts.
//!
//! On a ring where every vertex is its own subgraph, a token hops from
//! subgraph to subgraph while one far-away subgraph stays awake for a few
//! supersteps without mail; everyone else halts at superstep 0. The program
//! counts its own `compute` calls in its state, so the test can say
//! exactly who ran: calls at superstep > 0 are the deliveries with mail
//! plus the awake carry-overs, and nothing else. The barrier-wait histogram
//! says how often a worker waited: once per superstep and once per
//! timestep — the checkpoint-commit barriers do not record into it.
//!
//! The checkpointed variant is hazard 4(a) of ISSUE 17 by name: a worker
//! dies at a timestep whose staged next-timestep runs are non-empty, and
//! the resumed timestep must still see its whole superstep-0 inbox.

mod common;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use common::emitted_bits;
use std::sync::Arc;
use tempograph_core::VertexIdx;
use tempograph_engine::{
    run_job_tcp, Cluster, Context, Envelope, FaultPlan, InstanceSource, JobConfig, JobResult,
    SubgraphProgram,
};
use tempograph_metrics::Metric;
use tempograph_partition::{PartitionedGraph, Subgraph, SubgraphId};

const PARTITIONS: usize = 2;
const VERTICES: u64 = 16;
const TIMESTEPS: usize = 3;
/// The token is forwarded this many times after its first delivery.
const HOPS: u32 = 5;
/// Supersteps the lingerer (the subgraph of vertex 8, which the token
/// never reaches) stays awake after superstep 0.
const LINGER: usize = 3;

/// Every vertex its own subgraph, every ring edge crossing partitions.
fn fixture() -> (Arc<PartitionedGraph>, InstanceSource) {
    common::ring(VERTICES, PARTITIONS, TIMESTEPS)
}

fn subgraph_of(pg: &PartitionedGraph, v: u64) -> SubgraphId {
    pg.subgraph_of_vertex(VertexIdx(v as u32))
}

/// Calls at superstep > 0, by why the engine made them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Calls {
    with_mail: u32,
    awake: u32,
    /// No mail and halted: a call the engine must never make.
    idle: u32,
}

struct TokenWalk {
    successor: SubgraphId,
    starts_token: bool,
    lingers: bool,
    halted: bool,
    calls: Calls,
}

impl SubgraphProgram for TokenWalk {
    type Msg = u32;

    fn compute(&mut self, ctx: &mut Context<'_, u32>, msgs: &[Envelope<u32>]) {
        let ss = ctx.superstep();
        if ss == 0 {
            if self.starts_token {
                ctx.send_to_subgraph(self.successor, HOPS);
            }
        } else if !msgs.is_empty() {
            self.calls.with_mail += 1;
        } else if !self.halted {
            self.calls.awake += 1;
        } else {
            self.calls.idle += 1;
        }
        for e in msgs.iter().filter(|e| e.payload > 0) {
            ctx.send_to_subgraph(self.successor, e.payload - 1);
        }
        self.halted = !(self.lingers && ss < LINGER);
        if self.halted {
            ctx.vote_to_halt();
        }
    }

    fn merge(&mut self, ctx: &mut Context<'_, u32>, _msgs: &[Envelope<u32>]) {
        ctx.vote_to_halt();
    }

    fn save_state(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.calls.with_mail);
        buf.put_u32_le(self.calls.awake);
        buf.put_u32_le(self.calls.idle);
    }
}

fn token_walk(sg: &Subgraph, pg: &PartitionedGraph) -> TokenWalk {
    let v = sg.vertex_at(0).0 as u64;
    TokenWalk {
        successor: subgraph_of(pg, (v + 1) % VERTICES),
        starts_token: v == 0,
        lingers: v == VERTICES / 2,
        halted: false,
        calls: Calls::default(),
    }
}

fn calls_of(r: &JobResult) -> Calls {
    let mut sum = Calls::default();
    for (_, state) in &r.final_states {
        let mut buf = Bytes::copy_from_slice(state);
        sum.with_mail += buf.get_u32_le();
        sum.awake += buf.get_u32_le();
        sum.idle += buf.get_u32_le();
    }
    sum
}

fn barrier_wait_samples(r: &JobResult) -> u64 {
    let snap = r.registry.as_ref().expect("metrics armed").snapshot();
    match snap.get("tempograph_barrier_wait_ns", &[]) {
        Some(Metric::Histogram(h)) => h.count(),
        other => panic!("expected the barrier-wait histogram, got {other:?}"),
    }
}

#[test]
fn supersteps_invoke_only_mail_and_carry_overs_and_wait_once() {
    let (pg, src) = fixture();
    let dir = std::env::temp_dir().join(format!("activity-cost-{}", std::process::id()));
    let plain = JobConfig::eventually_dependent(TIMESTEPS).with_metrics();
    for (label, config) in [
        ("plain", plain.clone()),
        ("checkpointing", plain.with_checkpoint(1, &dir)),
    ] {
        let result = run_job_tcp(&pg, &src, token_walk, config, Cluster::InProcess)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let _ = std::fs::remove_dir_all(&dir);

        // The token is delivered HOPS + 1 times per timestep, the lingerer
        // runs LINGER supersteps without mail; the other subgraphs, and
        // every subgraph once it halted, cost no invocation at all.
        let expected = Calls {
            with_mail: (HOPS + 1) * TIMESTEPS as u32,
            awake: (LINGER * TIMESTEPS) as u32,
            idle: 0,
        };
        assert_eq!(calls_of(&result), expected, "{label}");

        // One wait per superstep (the merge phase's included) plus one per
        // timestep, per worker — checkpointing or not.
        let supersteps: u64 = result
            .metrics
            .iter()
            .map(|per_t| u64::from(per_t[0].supersteps))
            .sum();
        assert_eq!(supersteps, (HOPS as u64 + 2) * TIMESTEPS as u64, "{label}");
        let merge_supersteps = u64::from(result.merge_metrics[0].supersteps);
        assert!(merge_supersteps >= 1, "{label}");
        assert_eq!(
            barrier_wait_samples(&result),
            PARTITIONS as u64 * (supersteps + TIMESTEPS as u64 + merge_supersteps),
            "{label}"
        );
    }
}

/// Order-sensitive relay: every superstep each subgraph addresses its
/// successor in the *next* timestep, so each subgraph's next-timestep slot
/// stages several runs; superstep 0 folds them in delivery order.
struct Relay {
    successor: SubgraphId,
    acc: u64,
}

impl SubgraphProgram for Relay {
    type Msg = u64;

    fn compute(&mut self, ctx: &mut Context<'_, u64>, msgs: &[Envelope<u64>]) {
        for e in msgs {
            self.acc = self.acc.wrapping_mul(0x100000001b3).wrapping_add(e.payload);
        }
        let (t, ss) = (ctx.timestep(), ctx.superstep());
        if ss < 3 {
            if t + 1 < ctx.num_timesteps() {
                let stamp = self.acc ^ ((t * 8 + ss) as u64);
                ctx.send_to_subgraph_in_next_timestep(self.successor, stamp);
                ctx.send_to_next_timestep(stamp.rotate_left(7));
            }
        } else {
            ctx.vote_to_halt();
        }
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.emit(ctx.subgraph().vertex_at(0), (self.acc >> 12) as f64);
    }

    fn save_state(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.acc);
    }

    fn restore_state(&mut self, buf: &mut Bytes) {
        self.acc = buf.get_u64_le();
    }
}

fn relay(sg: &Subgraph, pg: &PartitionedGraph) -> Relay {
    let v = sg.vertex_at(0).0 as u64;
    Relay {
        successor: subgraph_of(pg, (v + 1) % VERTICES),
        acc: v + 1,
    }
}

/// Hazard 4(a): recovery resumes at a timestep whose superstep-0 inbox was
/// staged before the crash. `Cluster::Processes` needs a worker binary the
/// engine crate does not have; `tests/recovery_equivalence.rs` kills a MEME
/// worker process (also `SendToNextTimestep`-driven) at the workspace root.
#[test]
fn a_resumed_timestep_keeps_its_staged_inbox() {
    let (pg, src) = fixture();
    let mut clusters = vec![("in-process", Cluster::InProcess)];
    match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(_) => clusters.push(("tcp threads", Cluster::Threads)),
        Err(e) => eprintln!("NOTICE: loopback sockets unavailable ({e}); skipping TCP"),
    }
    let config = || JobConfig::sequentially_dependent(TIMESTEPS);
    let clean = run_job_tcp(&pg, &src, relay, config(), Cluster::InProcess).unwrap();
    assert_eq!(clean.recoveries, 0);
    for (c, (label, cluster)) in clusters.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("activity-ckpt-{}-{c}", std::process::id()));
        let faulted = config()
            .with_checkpoint(1, &dir)
            .with_faults(FaultPlan::new().panic_at(1, 1, 1));
        let recovered = run_job_tcp(&pg, &src, relay, faulted, cluster);
        let _ = std::fs::remove_dir_all(&dir);
        let recovered = recovered.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(recovered.recoveries, 1, "{label}");
        assert_eq!(emitted_bits(&recovered), emitted_bits(&clean), "{label}");
        assert_eq!(recovered.final_states, clean.final_states, "{label}");
    }
}
