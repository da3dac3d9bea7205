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
//!
//! The timestep boundary follows activity too: a subgraph whose
//! `EndOfTimestep` votes to halt sleeps, and the engine skips it at
//! superstep 0 and in `EndOfTimestep` until mail arrives. The `Napper`
//! tests count every call a sleeper gets, and make a call it should not
//! have got visible in its timestep vote as well.

mod common;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use common::emitted_bits;
use std::sync::Arc;
use tempograph_core::VertexIdx;
use tempograph_engine::{
    run_job_tcp, Cluster, Context, Envelope, FaultPlan, InstanceSource, JobConfig, JobResult,
    SubgraphProgram, WireError, WireMsg,
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
        self.acc.encode(buf);
    }

    fn restore_state(&mut self, buf: &mut Bytes) -> Result<(), WireError> {
        self.acc = u64::decode(buf)?;
        Ok(())
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

/// The timestep at which the alarm mails the two sleepers it wakes.
const WAKE_T: usize = 2;
/// The alarm casts `VoteToHaltTimestep` from this timestep on.
const STOP_T: usize = 2;
/// Timesteps of the sleep tests.
const NAP_TIMESTEPS: usize = 5;
/// Woken at superstep 1 of `WAKE_T` by the alarm's superstep message.
const WOKEN_BY_SUPERSTEP: u64 = 1;
/// Woken at superstep 0 of `WAKE_T + 1` by the alarm's next-timestep
/// message.
const WOKEN_BY_NEXT_TIMESTEP: u64 = 3;
/// The sleeper whose standing vote the `WhileActive` test varies.
const VOTER: u64 = 5;

const SS0: &str = "calls_ss0";
const LATER: &str = "calls_later";
const EOT: &str = "calls_eot";
const IDLE: &str = "calls_idle";
const MERGE: &str = "calls_merge";

/// Vertex 0 is an alarm that never sleeps; every other subgraph votes to
/// halt in each `EndOfTimestep`. Every call counts, and a call to a
/// sleeper without mail — one the engine must not make — counts as idle
/// too. Vertex `VOTER`, called idle, casts the opposite of its standing
/// timestep vote, so a call it should not get shows in the loop's length.
/// Mail is folded into `acc`, and an `EndOfTimestep` that follows mail
/// emits it.
struct Napper {
    alarm: bool,
    /// The alarm mails next-timestep traffic only when the pattern allows.
    relay_next: bool,
    superstep_target: SubgraphId,
    next_timestep_target: SubgraphId,
    voter: bool,
    /// The sleeper's timestep vote.
    cast: bool,
    /// Whether the program believes itself asleep (not saved: a restored
    /// worker wakes everyone).
    asleep: bool,
    got_mail: bool,
    acc: u64,
}

impl SubgraphProgram for Napper {
    type Msg = u64;

    fn compute(&mut self, ctx: &mut Context<'_, u64>, msgs: &[Envelope<u64>]) {
        let (t, ss) = (ctx.timestep(), ctx.superstep());
        if !msgs.is_empty() {
            self.asleep = false;
            self.got_mail = true;
        }
        for e in msgs {
            self.acc = self.acc.wrapping_mul(0x100000001b3) ^ e.payload ^ (t * 8 + ss) as u64;
        }
        ctx.add_counter(if ss == 0 { SS0 } else { LATER }, 1);
        if self.asleep {
            ctx.add_counter(IDLE, 1);
        }
        if self.alarm && t == WAKE_T && ss == 0 {
            ctx.send_to_subgraph(self.superstep_target, 17);
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, u64>) {
        let t = ctx.timestep();
        ctx.add_counter(EOT, 1);
        if self.asleep {
            ctx.add_counter(IDLE, 1);
        }
        if std::mem::take(&mut self.got_mail) {
            ctx.emit(ctx.subgraph().vertex_at(0), (self.acc >> 12) as f64);
        }
        if self.alarm {
            if t == WAKE_T && self.relay_next {
                ctx.send_to_subgraph_in_next_timestep(self.next_timestep_target, 29);
            }
            if t >= STOP_T {
                ctx.vote_to_halt_timestep();
            }
        } else {
            if self.cast != (self.voter && self.asleep) {
                ctx.vote_to_halt_timestep();
            }
            self.asleep = true;
            ctx.vote_to_halt();
        }
    }

    fn merge(&mut self, ctx: &mut Context<'_, u64>, _msgs: &[Envelope<u64>]) {
        ctx.add_counter(MERGE, 1);
        ctx.vote_to_halt();
    }

    fn save_state(&self, buf: &mut BytesMut) {
        self.acc.encode(buf);
    }

    fn restore_state(&mut self, buf: &mut Bytes) -> Result<(), WireError> {
        self.acc = u64::decode(buf)?;
        Ok(())
    }
}

/// A `Napper` factory: `voter_casts` is vertex `VOTER`'s standing vote,
/// every other sleeper casts.
fn napper(relay_next: bool, voter_casts: bool) -> impl Fn(&Subgraph, &PartitionedGraph) -> Napper {
    move |sg, pg| {
        let v = sg.vertex_at(0).0 as u64;
        Napper {
            alarm: v == 0,
            relay_next,
            superstep_target: subgraph_of(pg, WOKEN_BY_SUPERSTEP),
            next_timestep_target: subgraph_of(pg, WOKEN_BY_NEXT_TIMESTEP),
            voter: v == VOTER,
            cast: v != VOTER || voter_casts,
            asleep: false,
            got_mail: false,
            acc: v,
        }
    }
}

/// Counter `name` per timestep, summed over partitions.
fn per_timestep(r: &JobResult, name: &str) -> Vec<u64> {
    match r.counters.get(name) {
        Some(rows) => rows.iter().map(|row| row.iter().sum()).collect(),
        None => vec![0; r.timesteps_run],
    }
}

/// (a) A sleeper gets no call at superstep 0 or in `EndOfTimestep`.
/// (b) A superstep message wakes it: its `compute` and `EndOfTimestep`
/// both run that timestep. (c) A next-timestep message wakes it at
/// superstep 0.
#[test]
fn a_sleeper_is_skipped_until_mail_wakes_it() {
    let (pg, src) = common::ring(VERTICES, PARTITIONS, NAP_TIMESTEPS);
    let config = JobConfig::sequentially_dependent(NAP_TIMESTEPS);
    let r = run_job_tcp(&pg, &src, napper(true, true), config, Cluster::InProcess).unwrap();
    let all = VERTICES;
    // t0: everyone; t1: the alarm; t2: the alarm at superstep 0, the woken
    // sleeper at superstep 1, both at the end; t3: the alarm and the
    // sleeper its next-timestep message woke; t4: the alarm.
    assert_eq!(per_timestep(&r, SS0), [all, 1, 1, 2, 1]);
    assert_eq!(per_timestep(&r, LATER), [0, 0, 1, 0, 0]);
    assert_eq!(per_timestep(&r, EOT), [all, 1, 2, 2, 1]);
    assert_eq!(per_timestep(&r, IDLE), [0; NAP_TIMESTEPS]);
    let woken: Vec<(usize, u32)> = r.emitted.iter().map(|e| (e.timestep, e.vertex.0)).collect();
    assert_eq!(
        woken,
        [
            (WAKE_T, WOKEN_BY_SUPERSTEP as u32),
            (WAKE_T + 1, WOKEN_BY_NEXT_TIMESTEP as u32)
        ]
    );
}

/// (e) The merge phase still runs every subgraph, sleepers included.
#[test]
fn the_merge_phase_runs_every_sleeper() {
    let (pg, src) = common::ring(VERTICES, PARTITIONS, NAP_TIMESTEPS);
    let config = JobConfig::eventually_dependent(NAP_TIMESTEPS);
    let r = run_job_tcp(&pg, &src, napper(false, true), config, Cluster::InProcess).unwrap();
    assert_eq!(per_timestep(&r, EOT), [VERTICES, 1, 2, 1, 1]);
    assert_eq!(per_timestep(&r, IDLE), [0; NAP_TIMESTEPS]);
    let merged: u64 = r.merge_counters[MERGE].iter().sum();
    assert_eq!(merged, VERTICES);
}

/// (d) A sleeper's standing `VoteToHaltTimestep` counts without a call:
/// withheld, it keeps a `WhileActive` loop running to the cap; cast, it
/// lets the loop stop once the alarm casts too (and sends no next-timestep
/// message, which would keep it running by itself).
#[test]
fn a_sleepers_standing_vote_decides_the_while_loop() {
    let (pg, src) = common::ring(VERTICES, PARTITIONS, NAP_TIMESTEPS);
    for (voter_casts, timesteps_run) in [(false, NAP_TIMESTEPS), (true, STOP_T + 1)] {
        let config = JobConfig::sequentially_dependent(NAP_TIMESTEPS).while_active(NAP_TIMESTEPS);
        let r = run_job_tcp(
            &pg,
            &src,
            napper(false, voter_casts),
            config,
            Cluster::InProcess,
        )
        .unwrap();
        assert_eq!(r.timesteps_run, timesteps_run, "voter casts: {voter_casts}");
        assert_eq!(
            per_timestep(&r, IDLE),
            vec![0; timesteps_run],
            "voter casts: {voter_casts}"
        );
    }
}

/// (f) A worker killed while most subgraphs sleep resumes with everyone
/// awake, and the run's output is byte-identical to the clean run's: the
/// crash lands in the timestep whose superstep-0 inbox wakes a sleeper.
#[test]
fn a_worker_killed_among_sleepers_resumes_identically() {
    let (pg, src) = common::ring(VERTICES, PARTITIONS, NAP_TIMESTEPS);
    let mut clusters = vec![("in-process", Cluster::InProcess)];
    match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(_) => clusters.push(("tcp threads", Cluster::Threads)),
        Err(e) => eprintln!("NOTICE: loopback sockets unavailable ({e}); skipping TCP"),
    }
    let config = || JobConfig::sequentially_dependent(NAP_TIMESTEPS);
    let clean = run_job_tcp(&pg, &src, napper(true, true), config(), Cluster::InProcess).unwrap();
    assert_eq!(emitted_bits(&clean).len(), 2);
    for (c, (label, cluster)) in clusters.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("activity-nap-{}-{c}", std::process::id()));
        let faulted = config()
            .with_checkpoint(1, &dir)
            .with_faults(FaultPlan::new().panic_at(1, WAKE_T + 1, 0));
        let recovered = run_job_tcp(&pg, &src, napper(true, true), faulted, cluster);
        let _ = std::fs::remove_dir_all(&dir);
        let recovered = recovered.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(recovered.recoveries, 1, "{label}");
        assert_eq!(recovered.timesteps_run, clean.timesteps_run, "{label}");
        assert_eq!(emitted_bits(&recovered), emitted_bits(&clean), "{label}");
        assert_eq!(recovered.final_states, clean.final_states, "{label}");
        // The restored worker woke everyone once, and no call was idle.
        assert_eq!(
            per_timestep(&recovered, IDLE),
            [0; NAP_TIMESTEPS],
            "{label}"
        );
    }
}
