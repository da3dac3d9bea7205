//! One driver, one failure vocabulary: the same job over
//! `Cluster::InProcess` and `Cluster::Threads` must end the same way —
//! the same `recoveries` and output when it succeeds, the same
//! `RemoteWorkerDied` naming the *primary* partition when it cannot.
//!
//! The program is a ring gossip (engine tests cannot use
//! `tempograph-algos`) whose message type can be made undecodable on
//! purpose, so a worker fails with a typed wire error on either transport.
//! When loopback sockets are unavailable the TCP column prints a NOTICE
//! and is skipped.

mod common;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use common::emitted_bits;
use tempograph_core::VertexIdx;
use tempograph_engine::{
    run_job_tcp, Cluster, Context, EngineError, Envelope, FaultPlan, JobConfig, SubgraphProgram,
    WireError, WireMsg,
};
use tempograph_partition::{PartitionedGraph, Subgraph};

const PARTITIONS: usize = 3;
const TIMESTEPS: usize = 5;
/// The partition every failing scenario kills (or feeds the bad batch).
const PRIMARY: u16 = 1;

/// A gossip payload; `u64::MAX` encodes fine but refuses to decode, which
/// turns the receiving worker's drain into a typed `EngineError::Wire`.
#[derive(Clone, Debug, PartialEq)]
struct Gossip(u64);

const UNDECODABLE: u64 = u64::MAX;

impl WireMsg for Gossip {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.0);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u64::decode(buf)? {
            UNDECODABLE => Err(WireError::BadTag {
                context: "Gossip",
                tag: 0xFF,
            }),
            v => Ok(Gossip(v)),
        }
    }
}

/// Stateful ring gossip. With `corrupt` set, the subgraph holding vertex 0
/// sends one undecodable message to its neighbour on [`PRIMARY`] at
/// timestep 2.
struct RingGossip {
    acc: u64,
    corrupt: bool,
}

impl SubgraphProgram for RingGossip {
    type Msg = Gossip;

    fn compute(&mut self, ctx: &mut Context<'_, Gossip>, msgs: &[Envelope<Gossip>]) {
        for e in msgs {
            self.acc = self
                .acc
                .wrapping_mul(0x100000001b3)
                .wrapping_add(e.payload.0);
        }
        if ctx.superstep() == 0 {
            let sg = ctx.subgraph();
            let bad_sender =
                self.corrupt && ctx.timestep() == 2 && sg.local_pos(VertexIdx(0)).is_some();
            let mut targets: Vec<_> = sg
                .positions()
                .flat_map(|pos| sg.remote_neighbors(pos))
                .map(|rn| (rn.subgraph, rn.partition))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            for (target, partition) in targets {
                let payload = if bad_sender && partition == PRIMARY {
                    UNDECODABLE
                } else {
                    self.acc ^ ctx.timestep() as u64
                };
                ctx.send_to_subgraph(target, Gossip(payload));
            }
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, Gossip>) {
        ctx.emit(ctx.subgraph().vertex_at(0), (self.acc & 0xFFFF_FFFF) as f64);
        if ctx.timestep() + 1 < ctx.num_timesteps() {
            ctx.send_to_next_timestep(Gossip(self.acc & 0xFFFF));
        }
    }

    fn save_state(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.acc);
    }

    fn restore_state(&mut self, buf: &mut Bytes) {
        self.acc = buf.get_u64_le();
    }
}

#[derive(Clone, Copy, Debug)]
enum Expect {
    /// The job succeeds after this many recoveries, output equal to the
    /// clean run's.
    Recoveries(usize),
    /// The job fails with `RemoteWorkerDied` naming [`PRIMARY`].
    PrimaryDied,
}

struct Scenario {
    name: &'static str,
    kill_primary: bool,
    checkpoint: bool,
    corrupt: bool,
    expect: Expect,
}

const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "clean",
        kill_primary: false,
        checkpoint: false,
        corrupt: false,
        expect: Expect::Recoveries(0),
    },
    Scenario {
        name: "injected panic, checkpoint armed",
        kill_primary: true,
        checkpoint: true,
        corrupt: false,
        expect: Expect::Recoveries(1),
    },
    Scenario {
        name: "injected panic, no checkpoint",
        kill_primary: true,
        checkpoint: false,
        corrupt: false,
        expect: Expect::PrimaryDied,
    },
    // Checkpointing is armed, but a typed worker error is not an injected
    // death: it would recur after a restore, so it must not be retried.
    Scenario {
        name: "undecodable batch (typed worker error)",
        kill_primary: false,
        checkpoint: true,
        corrupt: true,
        expect: Expect::PrimaryDied,
    },
];

#[test]
fn every_cluster_ends_every_scenario_the_same_way() {
    // A 12-vertex ring: every vertex its own subgraph, every edge remote.
    let (pg, src) = common::ring(12, PARTITIONS, TIMESTEPS);
    let mut clusters = vec!["in-process"];
    match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(_) => clusters.push("tcp threads"),
        Err(e) => eprintln!("NOTICE: loopback sockets unavailable ({e}); skipping TCP column"),
    }
    let mut clean: Option<Vec<(usize, u32, u64)>> = None;
    for (s, scenario) in SCENARIOS.iter().enumerate() {
        for (c, &cluster_name) in clusters.iter().enumerate() {
            let cluster = match cluster_name {
                "in-process" => Cluster::InProcess,
                _ => Cluster::Threads,
            };
            let label = format!("{} over {cluster_name}", scenario.name);
            let dir =
                std::env::temp_dir().join(format!("cluster-driver-{}-{s}-{c}", std::process::id()));
            let mut config = JobConfig::sequentially_dependent(TIMESTEPS);
            if scenario.checkpoint {
                config = config.with_checkpoint(1, &dir);
            }
            if scenario.kill_primary {
                config = config.with_faults(FaultPlan::new().panic_at(PRIMARY, 2, 0));
            }
            let corrupt = scenario.corrupt;
            let result = run_job_tcp(
                &pg,
                &src,
                move |sg: &Subgraph, _: &PartitionedGraph| RingGossip {
                    acc: sg.id().0 as u64 + 1,
                    corrupt,
                },
                config,
                cluster,
            );
            let _ = std::fs::remove_dir_all(&dir);
            match (scenario.expect, result) {
                (Expect::Recoveries(n), Ok(r)) => {
                    assert_eq!(r.recoveries, n, "{label}");
                    assert_eq!(r.timesteps_run, TIMESTEPS, "{label}");
                    let bits = emitted_bits(&r);
                    assert_eq!(clean.get_or_insert_with(|| bits.clone()), &bits, "{label}");
                }
                (Expect::PrimaryDied, Err(EngineError::RemoteWorkerDied { partition, detail })) => {
                    assert_eq!(partition, PRIMARY, "{label}: blamed a cascade ({detail})");
                }
                (expect, other) => panic!(
                    "{label}: expected {expect:?}, got {:?}",
                    other.map(|r| r.recoveries)
                ),
            }
        }
    }
}
