//! Phase isolation: the property the one-rendezvous superstep rests on.
//!
//! A worker leaves `WorkerLinks::close_phase` as soon as it holds the
//! aggregate and its own mail, and may send the next phase's batches while
//! a slower peer is still collecting this one's. Every message here carries
//! the (timestep, superstep) it was sent in, and every delivery checks it
//! was sent in exactly the previous superstep of the same timestep — or,
//! for `SendToNextTimestep` traffic, in the previous timestep. Partition
//! `p` sleeps in `compute` on supersteps ≡ `p` (mod 3), so the workers
//! leave each rendezvous skewed in a rotating order.

mod common;

use std::time::Duration;
use tempograph_engine::{
    run_job_tcp, Cluster, Context, Envelope, JobConfig, JobResult, SubgraphProgram,
};
use tempograph_partition::{PartitionedGraph, Subgraph, SubgraphId};

const PARTITIONS: usize = 3;
const TIMESTEPS: usize = 4;
/// Supersteps 0..SENDING send; superstep SENDING only receives and halts.
const SENDING: usize = 7;
const VERTICES: u64 = 12;

/// `(timestep, superstep, crosses a timestep)` of the send.
type Stamp = (u32, u32, bool);

struct PhaseProbe {
    targets: Vec<SubgraphId>,
    /// The one subgraph per partition that sleeps (keeps the test short).
    sleeper: bool,
}

impl SubgraphProgram for PhaseProbe {
    type Msg = Stamp;

    fn compute(&mut self, ctx: &mut Context<'_, Stamp>, msgs: &[Envelope<Stamp>]) {
        let (t, ss) = (ctx.timestep() as u32, ctx.superstep() as u32);
        if self.sleeper && ss as usize % PARTITIONS == ctx.subgraph().partition() as usize {
            std::thread::sleep(Duration::from_millis(2));
        }
        for e in msgs {
            let expected = if ss == 0 {
                e.payload.0 + 1 == t && e.payload.2
            } else {
                e.payload == (t, ss - 1, false)
            };
            ctx.add_counter("delivered", 1);
            ctx.add_counter("out_of_phase", u64::from(!expected));
        }
        if (ss as usize) < SENDING {
            for &to in &self.targets {
                ctx.send_to_subgraph(to, (t, ss, false));
                // Cross-timestep traffic sent mid-timestep sits through
                // several phase closes before its own.
                if ss % 2 == 1 && (t as usize) + 1 < TIMESTEPS {
                    ctx.send_to_subgraph_in_next_timestep(to, (t, ss, true));
                }
            }
        } else {
            ctx.vote_to_halt();
        }
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, Stamp>) {
        if ctx.timestep() + 1 < TIMESTEPS {
            ctx.send_to_next_timestep((ctx.timestep() as u32, u32::MAX, true));
        }
    }
}

fn targets_of(sg: &Subgraph) -> Vec<SubgraphId> {
    let mut targets: Vec<SubgraphId> = sg
        .positions()
        .flat_map(|pos| sg.remote_neighbors(pos))
        .map(|rn| rn.subgraph)
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

fn total(r: &JobResult, counter: &str) -> u64 {
    (0..r.timesteps_run).map(|t| r.counter_at(counter, t)).sum()
}

fn assert_phases_are_isolated(cluster: Cluster, label: &str) {
    // Every vertex its own subgraph, every edge crossing partitions.
    let (pg, src) = common::ring(VERTICES, PARTITIONS, TIMESTEPS);
    let result = run_job_tcp(
        &pg,
        &src,
        |sg: &Subgraph, pg: &PartitionedGraph| PhaseProbe {
            targets: targets_of(sg),
            sleeper: pg.subgraphs_of_partition(sg.partition()).first() == Some(&sg.id()),
        },
        JobConfig::sequentially_dependent(TIMESTEPS),
        cluster,
    )
    .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(result.timesteps_run, TIMESTEPS, "{label}");
    assert_eq!(total(&result, "out_of_phase"), 0, "{label}");
    // Nothing was lost either: every send has its delivery.
    let links: u64 = pg
        .subgraphs()
        .iter()
        .map(|sg| targets_of(sg).len() as u64)
        .sum();
    let in_timestep = links * (SENDING * TIMESTEPS) as u64;
    let crossing = (links * (SENDING / 2) as u64 + VERTICES) * (TIMESTEPS - 1) as u64;
    assert_eq!(
        total(&result, "delivered"),
        in_timestep + crossing,
        "{label}"
    );
}

#[test]
fn in_process_deliveries_come_from_exactly_the_previous_phase() {
    assert_phases_are_isolated(Cluster::InProcess, "in-process");
}

#[test]
fn tcp_deliveries_come_from_exactly_the_previous_phase() {
    if let Err(e) = std::net::TcpListener::bind("127.0.0.1:0") {
        eprintln!("NOTICE: loopback sockets unavailable ({e}); skipping the TCP cluster");
        return;
    }
    assert_phases_are_isolated(Cluster::Threads, "tcp threads");
}
