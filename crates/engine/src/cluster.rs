//! The cluster driver: one coordinator for every deployment.
//!
//! TI-BSP is one loop (timesteps outside, barriered supersteps inside)
//! served by one manager/worker protocol; *where* the workers live does
//! not change it. [`run_cluster`] is that manager. A job runs as a
//! sequence of **epochs** — one launch of all `k` workers, from scratch or
//! from the latest committed checkpoint — and the [`Cluster`] only decides
//! how an epoch hosts its workers and makes their links:
//!
//! * [`Cluster::InProcess`] — `k` scoped threads whose coordinator
//!   connections and peer mesh are in-memory links (`FrameConn::pair`,
//!   `PeerLink::pair`); no socket is opened.
//! * [`Cluster::Threads`] — `k` scoped threads dialing this process's
//!   coordinator listener over loopback TCP and building a socket mesh.
//! * [`Cluster::Processes`] — `k` spawned worker processes (the
//!   `tempograph worker` subcommand, [`run_tcp_worker`]) doing the same.
//!
//! Everything else is shared: the worker entry (Hello, Start, mesh, the
//! TI-BSP run over a `WorkerLinks`, then an Output or Abort frame), the
//! coordinator's round loop (`serve_epoch`: fold every worker's
//! [`Contribution`] into the [`Aggregate`] it broadcasts), the recovery
//! loop, the judgement of how an epoch ended, the `recoveries`
//! accounting, the driver trace track and result assembly.
//! [`crate::run_job`] is `run_cluster` over `Cluster::InProcess` with the
//! error unwrapped; [`crate::run_job_tcp`] *is* `run_cluster`.
//!
//! **One failure vocabulary.** However a worker dies — a panicking thread,
//! a typed worker error, a process exit, a reset connection — the epoch
//! ends as a death naming the *primary* partition, never a cascade: a
//! worker that sees a peer die reports it to the coordinator in an Abort
//! frame before unwinding, a dropped coordinator link names its own
//! worker, and the coordinator tells every survivor in an Abort frame, so
//! peers fail with [`EngineError::RemoteWorkerDied`]. With checkpointing
//! armed and an *injected* death (the fault plan's panic events, or a
//! killed worker process) the driver relaunches the epoch from the latest
//! committed checkpoint; anything else would recur deterministically
//! after a restore, so it is returned as `RemoteWorkerDied` naming the
//! partition.
//!
//! **Results come home in order.** Each worker sorts its emits as every
//! timestep (and the merge phase) closes, so its Output frame carries one
//! run already in the result's (timestep, vertex, value) order. Assembly
//! merges the `k` runs in one pass (`merge_emit_runs`) and sorts
//! nothing; a run out of order is a protocol error naming its partition.
//! With tracing armed, the driver track shows the collect: a
//! `collect.decode` span per Output frame and one `collect.assemble`.

use crate::checkpoint;
use crate::error::EngineError;
use crate::executor::{run_worker_body, JobConfig, TimestepMode, WorkerOutput};
use crate::faults::{payload_is_injected, FaultPlan};
use crate::metrics::{
    AttributionRow, CostAttribution, Emit, JobResult, TimestepMetrics, EMIT_BYTES,
};
use crate::net::{
    accept_with_deadline, bind_loopback, connect_with_retry, decode_payload, encode_payload,
    AbortMsg, Frame, FrameConn, FrameKind, HelloMsg, PeerLink, StartMsg, COORDINATOR, RESUME_NONE,
};
use crate::program::SubgraphProgram;
use crate::provider::{InstanceSource, JobSource};
use crate::telemetry::CoordTelemetry;
use crate::transport::{connect_mesh, WorkerLinks, HANDSHAKE_TIMEOUT_MS};
use bytes::{Bytes, BytesMut};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use tempograph_core::wire::{self, WireMsg};
use tempograph_partition::{PartitionedGraph, Subgraph, SubgraphId};
use tempograph_trace::{Clock, Trace, TraceConfig, TraceEvent, TraceSink};

/// Exit code a worker process uses for an *injected* death (fault-plan
/// panic), so the coordinator can tell "recoverable drill" from "real bug"
/// across a process boundary, where panic payloads don't travel.
pub const INJECTED_EXIT_CODE: i32 = 42;

// ---- worker results on the wire -----------------------------------------

impl WorkerOutput {
    /// The Output-frame payload: everything an in-process worker hands
    /// back directly, observability included — trace sinks as `(track
    /// name, track, events)`, the metrics shard and the attribution rows —
    /// so the coordinator assembles the [`JobResult`] from exactly what
    /// [`WorkerOutput::decode`] returns.
    pub(crate) fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.payload_hint());
        self.metrics.encode(&mut buf);
        self.merge_metrics.encode(&mut buf);
        self.counters.encode(&mut buf);
        self.merge_counters.encode(&mut buf);
        self.emits.encode(&mut buf);
        (self.timesteps_run as u64).encode(&mut buf);
        self.final_states.encode(&mut buf);
        let sinks: Vec<(String, u32, Vec<TraceEvent>)> = self
            .sinks
            .iter()
            .map(|(name, sink)| (name.clone(), sink.track(), sink.events()))
            .collect();
        sinks.encode(&mut buf);
        self.shard.encode(&mut buf);
        self.attr_rows.encode(&mut buf);
        buf.freeze()
    }

    /// Bytes to reserve for the Output payload: the emit run and the final
    /// states exactly, the per-timestep rows generously, so that a large
    /// payload is written into one allocation and not copied by a
    /// doubling chain. Trace events are not counted: a traced payload may
    /// still grow.
    fn payload_hint(&self) -> usize {
        let states: usize = self.final_states.iter().map(|(_, s)| 8 + s.len()).sum();
        let rows: usize = self
            .metrics
            .iter()
            .map(|m| 256 + 8 * m.superstep_compute_ns.len())
            .sum();
        4 + EMIT_BYTES * self.emits.len() + 4 + states + rows + 4096
    }

    /// Decode an Output-frame payload (see [`WorkerOutput::encode`]).
    pub(crate) fn decode(buf: Bytes) -> Result<WorkerOutput, EngineError> {
        let output = wire::decode_exact(buf, "worker results", |buf| {
            Ok(WorkerOutput {
                metrics: Vec::decode(buf)?,
                merge_metrics: TimestepMetrics::decode(buf)?,
                counters: Vec::decode(buf)?,
                merge_counters: BTreeMap::decode(buf)?,
                emits: Vec::decode(buf)?,
                timesteps_run: u64::decode(buf)? as usize,
                final_states: Vec::decode(buf)?,
                sinks: Vec::<(String, u32, Vec<TraceEvent>)>::decode(buf)?
                    .into_iter()
                    .map(|(name, track, events)| (name, TraceSink::from_recorded(track, events)))
                    .collect(),
                shard: Option::decode(buf)?,
                attr_rows: Vec::decode(buf)?,
            })
        })?;
        Ok(output)
    }
}

// ---- worker side ---------------------------------------------------------

/// How a worker reaches its cluster.
enum Links {
    /// Dial the coordinator at this address; bind a mesh listener, then
    /// dial and accept peers once Start names their addresses.
    Sockets(String),
    /// In-memory links its host made: the coordinator connection and the
    /// peer mesh, indexed by partition (`None` for itself).
    Memory(FrameConn, Vec<Option<PeerLink>>),
}

/// One worker, start to finish, on every [`Cluster`]: Hello to the
/// coordinator, Start back, the peer mesh, the TI-BSP run over a
/// [`WorkerLinks`], and the results home in an Output frame. On a peer
/// death observed first-hand, reports the dead partition to the
/// coordinator (an Abort frame) before unwinding, so the coordinator can
/// attribute the primary failure even when the dying worker's own link
/// drop is observed later.
fn cluster_worker<P, F>(
    links: Links,
    partition: u16,
    pg: &Arc<PartitionedGraph>,
    source: &JobSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
) -> Result<(), EngineError>
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    // A socket worker's mesh is made after Start, from its listener.
    let (mut coord, listen_addr, listener, mesh) = match links {
        Links::Sockets(coord_addr) => {
            let (listener, listen_addr) = bind_loopback("the peer-mesh listener")?;
            let stream = connect_with_retry(&coord_addr, "coordinator")?;
            let coord = FrameConn::new(stream, "coordinator")?;
            (coord, listen_addr, Some(listener), Vec::new())
        }
        Links::Memory(coord, mesh) => (coord, String::new(), None, mesh),
    };
    coord.send(&Frame::control(
        FrameKind::Hello,
        partition,
        0,
        encode_payload(&HelloMsg {
            partition,
            listen_addr,
        }),
    ))?;
    let frame = coord.recv()?;
    if frame.kind != FrameKind::Start {
        return Err(EngineError::Protocol {
            detail: format!("expected Start from coordinator, got {:?}", frame.kind),
        });
    }
    let start: StartMsg = decode_payload(frame.payload)?;
    if let Some(faults) = &config.faults {
        // One-shot events consumed in earlier epochs stay consumed: a
        // relaunched worker process must not re-fire them.
        faults.mark_fired(&start.fired);
    }
    let resume_from = (start.resume_from != RESUME_NONE).then_some(start.resume_from);
    let epoch = start.epoch;
    let peers = match listener {
        Some(listener) => connect_mesh(partition, epoch, &listener, &start.peer_addrs)?,
        None => mesh,
    };
    let tracer = config
        .trace
        .map(|tc| tc.sink(partition as u32))
        .unwrap_or_else(TraceSink::inert);
    let mut links = WorkerLinks::new(
        partition,
        epoch,
        coord,
        peers,
        tracer,
        config.telemetry_armed(),
    );
    let out = run_worker_body::<P, F>(
        partition,
        pg,
        source,
        factory,
        config,
        timesteps,
        resume_from,
        &mut links,
    );
    match out {
        Ok(mut output) => {
            output
                .sinks
                .push((format!("partition {partition} net"), links.take_tracer()));
            let payload = output.encode();
            // The encoded copy is all that goes home: free the original
            // before the coordinator decodes its own.
            drop(output);
            links.coord_send(&Frame::control(
                FrameKind::Output,
                partition,
                epoch,
                payload,
            ))
        }
        Err(e) => {
            if let EngineError::RemoteWorkerDied {
                partition: dead,
                detail,
            } = &e
            {
                // Best-effort: name the primary death for the coordinator,
                // then keep every link open until it rules. A link dropped
                // now would look like one more death to the peers still
                // running, and one of them might blame this worker.
                let abort = Frame::control(
                    FrameKind::Abort,
                    partition,
                    epoch,
                    encode_payload(&AbortMsg {
                        dead_partition: *dead,
                        detail: detail.clone(),
                    }),
                );
                if links.coord_send(&abort).is_ok() {
                    links.await_ruling();
                }
            }
            Err(e)
        }
    }
}

/// Worker-process entry point (the `tempograph worker` subcommand). Runs
/// the worker on a joinable thread so an injected panic can be mapped
/// to [`INJECTED_EXIT_CODE`] — the cross-process substitute for the panic
/// payload a thread-hosted epoch inspects. Returns the process exit code.
pub fn run_tcp_worker<P, F>(
    coordinator: String,
    partition: u16,
    pg: Arc<PartitionedGraph>,
    source: InstanceSource,
    factory: F,
    config: JobConfig<P::Msg>,
) -> i32
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync + 'static,
{
    let handle = std::thread::spawn(move || {
        let source = source.open(&pg)?;
        let timesteps = effective_timesteps(&config, source.num_timesteps())?;
        cluster_worker::<P, F>(
            Links::Sockets(coordinator),
            partition,
            &pg,
            &source,
            &factory,
            &config,
            timesteps,
        )
    });
    match handle.join() {
        Ok(Ok(())) => 0,
        Ok(Err(e)) => {
            eprintln!("worker for partition {partition} failed: {e}");
            1
        }
        Err(payload) => {
            if payload_is_injected(payload.as_ref()) {
                INJECTED_EXIT_CODE
            } else {
                eprintln!(
                    "worker for partition {partition} panicked: {}",
                    panic_message(payload.as_ref())
                );
                101
            }
        }
    }
}

// ---- coordinator side ----------------------------------------------------

/// How [`run_cluster`] hosts a job's workers.
pub enum Cluster {
    /// Workers are threads in this process speaking the coordinator
    /// protocol over in-memory links — the simulated cluster behind
    /// [`crate::run_job`]. No socket is opened.
    InProcess,
    /// Workers are threads in this process dialing the coordinator over
    /// loopback TCP — every frame really crosses a socket, no process
    /// boundary.
    Threads,
    /// Workers are real spawned processes running `worker_bin` with
    /// `worker_args` plus `--partition N --coordinator ADDR` appended.
    /// The binary must reconstruct the same graph, program, and config
    /// from those args (the `tempograph worker` subcommand does).
    Processes {
        /// Path to the worker binary (usually `std::env::current_exe()`).
        worker_bin: PathBuf,
        /// Arguments before the appended per-worker pair — subcommand,
        /// data directory, algorithm, fault spec, checkpoint flags.
        worker_args: Vec<String>,
    },
}

/// Evidence of the primary worker death that ended an epoch.
struct Death {
    partition: u16,
    detail: String,
}

/// How one epoch ended, after every worker was reaped.
enum EpochEnd {
    /// All workers reported results, indexed by partition.
    Done(Vec<WorkerOutput>),
    /// A worker died; `injected` (a fault-plan panic, or a killed worker
    /// process) decides recoverability.
    Died { death: Death, injected: bool },
}

/// The coordinator's own trace track, after the `k` partition tracks:
/// recovery markers and the collect of the results. Inert (it records and
/// allocates nothing) when the job is untraced.
struct DriverTrack {
    sink: TraceSink,
    /// Output-frame bytes decoded so far, over every epoch, so the
    /// `collect.bytes` counter never falls.
    collected: u64,
}

impl DriverTrack {
    fn new(trace: Option<TraceConfig>, k: usize) -> Self {
        DriverTrack {
            sink: trace.map_or_else(TraceSink::inert, |tc| tc.sink(k as u32)),
            collected: 0,
        }
    }

    /// Decode partition `p`'s Output frame: a `collect.decode` span naming
    /// the partition, and the frame's bytes added to `collect.bytes`.
    fn decode_output(&mut self, p: usize, payload: Bytes) -> Result<WorkerOutput, EngineError> {
        let span = self.sink.start();
        self.collected += payload.len() as u64;
        let output = WorkerOutput::decode(payload)?;
        self.sink
            .span_arg_since("collect.decode", span, "partition", p as u64);
        self.sink.counter("collect.bytes", self.collected);
        Ok(output)
    }
}

/// Judge a thread-hosted epoch's primary death by that thread's join
/// result. Only an injected panic is recoverable: a real panic or a typed
/// worker error would recur deterministically after a relaunch.
fn judge_thread_death<T>(
    mut death: Death,
    primary: Option<std::thread::Result<Result<T, EngineError>>>,
) -> EpochEnd {
    let injected = match primary {
        Some(Err(payload)) => {
            let message = panic_message(payload.as_ref());
            death.detail = format!("{} ({message})", death.detail);
            payload_is_injected(payload.as_ref())
        }
        Some(Ok(Err(e))) => {
            death.detail = e.to_string();
            false
        }
        Some(Ok(Ok(_))) | None => false,
    };
    EpochEnd::Died { death, injected }
}

/// Per-worker contribution folded at a coordinator round.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Contribution {
    /// Messages this worker emitted during the phase.
    pub msgs_sent: u64,
    /// True when every subgraph owned by this worker voted to halt.
    pub all_halted: bool,
}

/// Global reduction of all workers' contributions: what the coordinator
/// broadcasts to release a round.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Total messages emitted across the cluster during the phase.
    pub total_msgs: u64,
    /// True when every subgraph in the cluster voted to halt.
    pub all_halted: bool,
}

impl Aggregate {
    /// BSP termination rule: stop when nobody sent anything and everyone
    /// voted to halt.
    pub fn should_stop(&self) -> bool {
        self.total_msgs == 0 && self.all_halted
    }
}

/// The coordinator's fold of one round's contributions.
pub fn fold_contributions(contribs: &[Contribution]) -> Aggregate {
    Aggregate {
        total_msgs: contribs.iter().map(|c| c.msgs_sent).sum(),
        all_halted: contribs.iter().all(|c| c.all_halted),
    }
}

/// The message a panic payload carries, when it was a string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Broadcast an Abort naming the primary death to every live worker
/// connection (best-effort; TCP buffers absorb the frames for workers that
/// reach their next barrier later), and return the evidence.
fn abort_cluster(conns: &mut [FrameConn], primary: u16, detail: String) -> Death {
    let payload = encode_payload(&AbortMsg {
        dead_partition: primary,
        detail: detail.clone(),
    });
    for conn in conns {
        let _ = conn.send(&Frame::control(
            FrameKind::Abort,
            COORDINATOR,
            0,
            payload.clone(),
        ));
    }
    Death {
        partition: primary,
        detail,
    }
}

/// Serve one epoch: take `k` worker connections from `accept` and read
/// each one's Hello, send Start, then serve rounds (fold k Contributions,
/// broadcast the Aggregate) until all k workers deliver Output frames.
/// Round reports (Telemetry frames) interleave with the rounds and are fed
/// to `telem` as they arrive (a protocol error when telemetry is disabled
/// — the zero-cost contract says no such frame may exist). Returns
/// `Ok(Err(death))` when a worker died mid-epoch (remaining workers have
/// been told to abort), and `Err` only for unrecoverable coordinator-side
/// failures (handshake timeout, protocol violations).
fn serve_epoch(
    mut accept: impl FnMut() -> Result<FrameConn, EngineError>,
    k: usize,
    epoch: u32,
    resume_from: Option<u64>,
    faults: Option<&FaultPlan>,
    mut telem: Option<&mut CoordTelemetry>,
    driver: &mut DriverTrack,
) -> Result<Result<Vec<WorkerOutput>, Death>, EngineError> {
    let mut conns: Vec<Option<FrameConn>> = (0..k).map(|_| None).collect();
    let mut peer_addrs = vec![String::new(); k];
    for _ in 0..k {
        let mut conn = accept()?;
        let frame = conn.recv()?;
        if frame.kind != FrameKind::Hello {
            return Err(EngineError::Protocol {
                detail: format!("expected Hello from a worker, got {:?}", frame.kind),
            });
        }
        let hello: HelloMsg = decode_payload(frame.payload)?;
        let p = hello.partition as usize;
        if p >= k || conns[p].is_some() {
            return Err(EngineError::Protocol {
                detail: format!("unexpected Hello from partition {p}"),
            });
        }
        conn.set_peer(format!("worker {p}"));
        peer_addrs[p] = hello.listen_addr;
        conns[p] = Some(conn);
    }
    // k hellos, each claiming a distinct empty slot, filled all k slots.
    let mut conns: Vec<FrameConn> = conns.into_iter().flatten().collect();
    let start = encode_payload(&StartMsg {
        epoch,
        resume_from: resume_from.unwrap_or(RESUME_NONE),
        peer_addrs,
        fired: faults.map(FaultPlan::fired_indices).unwrap_or_default(),
    });
    if let Some(death) = broadcast(&mut conns, FrameKind::Start, epoch, &start) {
        return Ok(Err(death));
    }
    loop {
        let mut contribs: Vec<Contribution> = Vec::with_capacity(k);
        let mut outputs: Vec<WorkerOutput> = Vec::new();
        for p in 0..k {
            // Round reports interleave with the barrier protocol on the
            // same connection; feed them on until a protocol frame arrives.
            let frame = loop {
                let frame = match conns[p].recv() {
                    Ok(f) => f,
                    // EOF / reset without an Abort naming someone else
                    // first: this worker is the primary death.
                    Err(e) => return Ok(Err(abort_cluster(&mut conns, p as u16, e.to_string()))),
                };
                if frame.kind != FrameKind::Abort && frame.epoch != epoch {
                    return Err(EngineError::Protocol {
                        detail: format!(
                            "worker {p} sent a frame for epoch {} (serving {epoch})",
                            frame.epoch
                        ),
                    });
                }
                if frame.kind != FrameKind::Telemetry {
                    break frame;
                }
                match telem.as_deref_mut() {
                    Some(ct) => ct.ingest(p, frame.payload)?,
                    None => {
                        return Err(EngineError::Protocol {
                            detail: format!(
                                "unexpected Telemetry frame from worker {p} \
                                 (observability disabled)"
                            ),
                        })
                    }
                }
            };
            match frame.kind {
                FrameKind::Contribution => contribs.push(decode_payload(frame.payload)?),
                FrameKind::Output => outputs.push(driver.decode_output(p, frame.payload)?),
                FrameKind::Abort => {
                    // A worker saw the death first-hand; trust its
                    // attribution over our own later EOF observation.
                    let abort: AbortMsg = decode_payload(frame.payload)?;
                    return Ok(Err(abort_cluster(
                        &mut conns,
                        abort.dead_partition,
                        abort.detail,
                    )));
                }
                other => {
                    return Err(EngineError::Protocol {
                        detail: format!("unexpected {other:?} frame from worker {p}"),
                    })
                }
            }
        }
        // Workers are polled in partition order, so a full round of
        // Outputs is already indexed by partition.
        if outputs.len() == k {
            return Ok(Ok(outputs));
        }
        if !outputs.is_empty() {
            return Err(EngineError::Protocol {
                detail: "workers disagree on the barrier schedule".into(),
            });
        }
        let agg = encode_payload(&fold_contributions(&contribs));
        if let Some(death) = broadcast(&mut conns, FrameKind::Aggregate, epoch, &agg) {
            return Ok(Err(death));
        }
    }
}

/// Send one coordinator frame to every worker; a failed write is that
/// worker's death (the rest of the cluster is told to abort).
fn broadcast(
    conns: &mut [FrameConn],
    kind: FrameKind,
    epoch: u32,
    payload: &Bytes,
) -> Option<Death> {
    for p in 0..conns.len() {
        let frame = Frame::control(kind, COORDINATOR, epoch, payload.clone());
        if let Err(e) = conns[p].send(&frame) {
            return Some(abort_cluster(conns, p as u16, e.to_string()));
        }
    }
    None
}

/// The in-memory peer meshes of `k` workers: entry `[p][q]` is `p`'s end
/// of its link to `q`; `[p][p]` is `None`.
fn memory_meshes(k: usize) -> Vec<Vec<Option<PeerLink>>> {
    let mut meshes: Vec<Vec<Option<PeerLink>>> =
        (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
    for (p, q) in (0..k).flat_map(|p| (p + 1..k).map(move |q| (p, q))) {
        let (p_end, q_end) = PeerLink::pair(&format!("partition {q}"), &format!("partition {p}"));
        meshes[p][q] = Some(p_end);
        meshes[q][p] = Some(q_end);
    }
    meshes
}

/// A source of unidentified worker connections for [`serve_epoch`].
type Accept = Box<dyn FnMut() -> Result<FrameConn, EngineError>>;

/// Worker connections accepted on the coordinator listener.
fn accept_on(listener: TcpListener) -> impl FnMut() -> Result<FrameConn, EngineError> {
    move || {
        let stream = accept_with_deadline(&listener, HANDSHAKE_TIMEOUT_MS, "a worker hello")?;
        FrameConn::new(stream, "worker (handshaking)")
    }
}

/// One epoch with workers as threads of this process, over in-memory links
/// (`in_memory`) or over loopback TCP. Only how the links are made
/// differs; the workers, the coordinator and the judgement are the same.
#[allow(clippy::too_many_arguments)]
fn run_epoch_threads<P, F>(
    in_memory: bool,
    epoch: u32,
    resume_from: Option<u64>,
    pg: &Arc<PartitionedGraph>,
    source: &JobSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
    telem: Option<&mut CoordTelemetry>,
    driver: &mut DriverTrack,
) -> Result<EpochEnd, EngineError>
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let k = pg.num_partitions();
    // Each accepted connection is dropped with `accept` when `serve_epoch`
    // returns, so no worker is left waiting on a coordinator that is gone.
    let (links, accept): (Vec<Links>, Accept) = if in_memory {
        let (host_ends, worker_ends): (Vec<_>, Vec<_>) = (0..k)
            .map(|_| FrameConn::pair("worker (handshaking)", "coordinator"))
            .unzip();
        let links = worker_ends
            .into_iter()
            .zip(memory_meshes(k))
            .map(|(coord, mesh)| Links::Memory(coord, mesh))
            .collect();
        let mut host_ends = host_ends.into_iter();
        let accept = move || {
            host_ends.next().ok_or_else(|| EngineError::Protocol {
                detail: format!("more than {k} worker hellos"),
            })
        };
        (links, Box::new(accept))
    } else {
        let (listener, coord_addr) = bind_loopback("the coordinator listener")?;
        let links = (0..k).map(|_| Links::Sockets(coord_addr.clone())).collect();
        (links, Box::new(accept_on(listener)))
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(p, links)| {
                // Per-thread clone: `Msg` is Send + Clone but not
                // necessarily Sync.
                let config = config.clone();
                scope.spawn(move || {
                    cluster_worker::<P, F>(links, p as u16, pg, source, factory, &config, timesteps)
                })
            })
            .collect();
        let served = serve_epoch(
            accept,
            k,
            epoch,
            resume_from,
            config.faults.as_deref(),
            telem,
            driver,
        );
        // Reap every thread (an Abort broadcast or the dropped connections
        // unblock them) before judging.
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        match served? {
            Ok(outputs) => {
                for (p, joined) in results.into_iter().enumerate() {
                    match joined {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => return Err(e),
                        Err(_) => {
                            return Err(EngineError::RemoteWorkerDied {
                                partition: p as u16,
                                detail: "worker thread panicked after reporting results".into(),
                            })
                        }
                    }
                }
                Ok(EpochEnd::Done(outputs))
            }
            Err(death) => {
                let primary = results.into_iter().nth(death.partition as usize);
                Ok(judge_thread_death(death, primary))
            }
        }
    })
}

#[cfg(unix)]
fn killed_by_signal(status: &std::process::ExitStatus) -> bool {
    use std::os::unix::process::ExitStatusExt;
    status.signal().is_some()
}

#[cfg(not(unix))]
fn killed_by_signal(_status: &std::process::ExitStatus) -> bool {
    false
}

fn kill_and_reap<'a>(children: impl IntoIterator<Item = &'a mut Child>) {
    for c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// One epoch with workers as spawned processes over loopback TCP.
#[allow(clippy::too_many_arguments)]
fn run_epoch_processes(
    k: usize,
    epoch: u32,
    resume_from: Option<u64>,
    worker_bin: &Path,
    worker_args: &[String],
    faults: Option<&FaultPlan>,
    telem: Option<&mut CoordTelemetry>,
    driver: &mut DriverTrack,
) -> Result<EpochEnd, EngineError> {
    let (listener, coord_addr) = bind_loopback("the coordinator listener")?;
    let mut children: Vec<Child> = Vec::with_capacity(k);
    for p in 0..k {
        match Command::new(worker_bin)
            .args(worker_args)
            .arg("--partition")
            .arg(p.to_string())
            .arg("--coordinator")
            .arg(&coord_addr)
            .spawn()
        {
            Ok(child) => children.push(child),
            Err(e) => {
                kill_and_reap(&mut children);
                return Err(EngineError::Net {
                    context: format!("spawning the worker process for partition {p}"),
                    detail: e.to_string(),
                });
            }
        }
    }
    match serve_epoch(
        accept_on(listener),
        k,
        epoch,
        resume_from,
        faults,
        telem,
        driver,
    ) {
        Ok(Ok(outputs)) => {
            for c in &mut children {
                let _ = c.wait();
            }
            Ok(EpochEnd::Done(outputs))
        }
        Ok(Err(mut death)) => {
            let p = death.partition as usize;
            let mut injected = false;
            // The primary's exit status is the cross-process stand-in for
            // a panic payload: the injected exit code, or a kill signal
            // (the worker-kill drill), marks a recoverable death.
            if let Some(child) = children.get_mut(p) {
                match child.wait() {
                    Ok(status) => {
                        injected =
                            status.code() == Some(INJECTED_EXIT_CODE) || killed_by_signal(&status);
                        death.detail = format!("{}; {status}", death.detail);
                    }
                    Err(e) => death.detail = format!("{}; wait failed: {e}", death.detail),
                }
            }
            kill_and_reap(
                children
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(q, c)| (q != p).then_some(c)),
            );
            Ok(EpochEnd::Died { death, injected })
        }
        Err(e) => {
            kill_and_reap(&mut children);
            Err(e)
        }
    }
}

/// Run a TI-BSP job on the in-process simulated cluster and gather its
/// results and metrics — [`run_cluster`] over [`Cluster::InProcess`], for
/// the callers (tests, examples, benches) that treat a failed job as a
/// bug.
///
/// `factory` builds one program instance per subgraph; program state
/// persists across supersteps and timesteps.
///
/// # Panics
/// If the job fails: on a worker death that cannot be recovered (see the
/// module docs) or a misconfiguration.
pub fn run_job<P, F>(
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: F,
    config: JobConfig<P::Msg>,
) -> JobResult
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    match run_cluster(pg, source, factory, config, Cluster::InProcess) {
        Ok(result) => result,
        Err(e) => panic!("in-process job failed: {e}"),
    }
}

/// Run a TI-BSP job on `cluster` (exported as [`crate::run_job_tcp`]): host
/// the workers epoch by epoch, recover injected deaths from checkpoints,
/// and assemble the [`JobResult`]. Returns a typed error naming the
/// failing partition instead of panicking.
///
/// The result is the same for every [`Cluster`]: delivery order is
/// canonicalised after transport and barrier decisions are pure functions
/// of the folded [`Aggregate`] (see [`crate::transport`]). Every worker
/// ships its results and observability home in its Output frame —
/// `tests/transport_equivalence.rs` checks the clusters agree. With any
/// of trace/metrics/attribution armed, workers also report each closed
/// timestep over the telemetry plane (see [`crate::telemetry`]); with
/// [`JobConfig::status_addr`] set, the coordinator serves those reports as
/// the live status board (the `tempograph status` view) for the life of
/// the job.
pub fn run_cluster<P, F>(
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: F,
    config: JobConfig<P::Msg>,
    cluster: Cluster,
) -> Result<JobResult, EngineError>
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    if config.status_addr.is_some() && !config.telemetry_armed() {
        // The board is fed by round reports, which only an armed job sends:
        // refuse rather than bind a listener that would never show a round.
        return Err(EngineError::Protocol {
            detail: "a status board needs trace, metrics or attribution armed".into(),
        });
    }
    let k = pg.num_partitions();
    let source = &source.open(pg)?;
    let timesteps = effective_timesteps(&config, source.num_timesteps())?;
    let job_start = Clock::start();
    // Each recovery consumes at least one one-shot panic event, so the
    // plan's panic count bounds the attempts a recoverable job can need;
    // anything beyond that is a real bug re-triggering deterministically.
    // Processes can additionally be killed from outside (the worker-kill
    // drill), so they are granted at least one.
    let panic_budget = config.faults.as_ref().map_or(0, |f| f.panic_events());
    let max_recoveries = match &cluster {
        Cluster::InProcess | Cluster::Threads => panic_budget,
        Cluster::Processes { .. } => panic_budget.max(1),
    };
    let mut recoveries = 0usize;
    let mut resume_from: Option<u64> = None;
    let mut epoch = 0u32;
    // Coordinator-side round reports — armed by exactly the same predicate
    // workers use, so a Telemetry frame arriving while this is `None` is a
    // protocol violation, not a silent drop.
    let mut telem = config
        .telemetry_armed()
        .then(|| CoordTelemetry::new(k, config.straggler_factor));
    let mut driver = DriverTrack::new(config.trace, k);
    let _status_server = match (&config.status_addr, &telem) {
        (Some(addr), Some(ct)) => Some(ct.serve_status(addr)?),
        _ => None,
    };
    loop {
        let end = match &cluster {
            Cluster::InProcess | Cluster::Threads => run_epoch_threads::<P, F>(
                matches!(cluster, Cluster::InProcess),
                epoch,
                resume_from,
                pg,
                source,
                &factory,
                &config,
                timesteps,
                telem.as_mut(),
                &mut driver,
            )?,
            Cluster::Processes {
                worker_bin,
                worker_args,
            } => run_epoch_processes(
                k,
                epoch,
                resume_from,
                worker_bin,
                worker_args,
                config.faults.as_deref(),
                telem.as_mut(),
                &mut driver,
            )?,
        };
        let (death, injected) = match end {
            EpochEnd::Done(mut outputs) => {
                let total_wall_ns = job_start.elapsed_ns();
                if let Some(ct) = telem.take() {
                    ct.merge_into(&mut outputs);
                }
                let sinks: Option<Vec<(String, TraceSink)>> = config
                    .trace
                    .map(|_| outputs.iter_mut().flat_map(|o| o.sinks.drain(..)).collect());
                let span = driver.sink.start();
                let mut result = assemble_job_result(
                    outputs,
                    k,
                    total_wall_ns,
                    recoveries,
                    config.metrics,
                    config.attribution,
                )?;
                driver.sink.span_arg_since(
                    "collect.assemble",
                    span,
                    "emits",
                    result.emitted.len() as u64,
                );
                result.trace = sinks.map(|mut sinks| {
                    sinks.push(("driver".to_string(), driver.sink));
                    Trace::from_sinks(sinks)
                });
                return Ok(result);
            }
            EpochEnd::Died { death, injected } => (death, injected),
        };
        if config.checkpoint.is_none() || !injected || recoveries >= max_recoveries {
            return Err(EngineError::RemoteWorkerDied {
                partition: death.partition,
                detail: death.detail,
            });
        }
        recoveries += 1;
        epoch += 1;
        if matches!(cluster, Cluster::Processes { .. }) {
            // The dead process took its latched fault state with it; latch
            // the event it fired in the coordinator's copy so the next
            // epoch's StartMsg ships it as already-fired.
            if let Some(faults) = &config.faults {
                faults.attribute_death(death.partition);
            }
        }
        resume_from = config
            .checkpoint
            .as_ref()
            .and_then(|ck| checkpoint::latest_valid::<P::Msg>(&ck.dir, k as u16));
        if let Some(ct) = telem.as_mut() {
            ct.reset(epoch);
        }
        driver.sink.instant(
            "recovery.attempt",
            Some(("resume_t", resume_from.unwrap_or(u64::MAX))),
        );
    }
}

/// Resolve the configured [`TimestepMode`] against the stored instance
/// count and prepare the checkpoint directory. Shared by the driver and
/// worker processes, so both reject the same misconfigurations and agree
/// on the loop bound.
fn effective_timesteps<M>(config: &JobConfig<M>, available: usize) -> Result<usize, EngineError> {
    let timesteps = match config.mode {
        TimestepMode::Fixed(n) if n > available => {
            return Err(EngineError::Protocol {
                detail: format!("job wants {n} timesteps but source stores {available}"),
            })
        }
        TimestepMode::Fixed(n) => n,
        TimestepMode::WhileActive { max } => max.min(available),
    };
    if let Some(ck) = &config.checkpoint {
        std::fs::create_dir_all(&ck.dir).map_err(|e| EngineError::Checkpoint {
            context: format!("creating checkpoint directory {}", ck.dir.display()),
            detail: e.to_string(),
        })?;
    }
    Ok(timesteps)
}

/// Merge the workers' emit runs, each already in result order (a worker
/// sorts every timestep's emits as the timestep closes), in one pass into
/// a vector reserved to their total. Emits that compare equal are
/// identical, so this is the vector a sort of all of them would return,
/// bit for bit. A run out of order is refused, naming its partition.
///
/// Each step copies, from the run with the least head, every emit up to
/// the least head of the others as one slice, so runs that interleave in
/// long stretches (a partition's vertices are mostly contiguous) cost two
/// comparisons per emit. Each adjacent pair of a run is checked in the
/// step that takes its first emit.
fn merge_emit_runs(runs: Vec<Vec<Emit>>) -> Result<Vec<Emit>, EngineError> {
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    // (partition, what is left of its run) for every run not yet drained.
    let mut live: Vec<(usize, &[Emit])> = runs
        .iter()
        .enumerate()
        .filter(|(_, run)| !run.is_empty())
        .map(|(p, run)| (p, run.as_slice()))
        .collect();
    while let Some((lead, bound)) = lead_and_bound(&live) {
        let (p, run) = &mut live[lead];
        let whole: &[Emit] = run;
        let mut taken = 1;
        for (prev, next) in whole.iter().zip(whole.iter().skip(1)) {
            if next.result_order(prev).is_lt() {
                return Err(EngineError::Protocol {
                    detail: format!("partition {p} sent its emits out of result order"),
                });
            }
            if bound.is_some_and(|b| next.result_order(&b).is_gt()) {
                break;
            }
            taken += 1;
        }
        let (stretch, rest) = whole.split_at(taken);
        merged.extend_from_slice(stretch);
        *run = rest;
        if rest.is_empty() {
            live.swap_remove(lead);
        }
    }
    Ok(merged)
}

/// The index in `live` of the run with the least head, and the least head
/// of the other runs (`None` when it is the last run). `None` when every
/// run is drained.
fn lead_and_bound(live: &[(usize, &[Emit])]) -> Option<(usize, Option<Emit>)> {
    let mut heads = live
        .iter()
        .enumerate()
        .filter_map(|(i, (_, run))| run.first().map(|head| (i, head)));
    let (mut lead, mut least) = heads.next()?;
    let mut bound: Option<&Emit> = None;
    for (i, head) in heads {
        if head.result_order(least).is_lt() {
            bound = Some(least);
            (lead, least) = (i, head);
        } else if bound.is_none_or(|b| head.result_order(b).is_lt()) {
            bound = Some(head);
        }
    }
    Some((lead, bound.copied()))
}

/// Fold per-worker outputs into the global [`JobResult`] (its trace is the
/// caller's to attach).
fn assemble_job_result(
    mut outputs: Vec<WorkerOutput>,
    k: usize,
    total_wall_ns: u64,
    recoveries: usize,
    metrics_enabled: bool,
    attribution_enabled: bool,
) -> Result<JobResult, EngineError> {
    let timesteps_run = outputs.first().map_or(0, |o| o.timesteps_run);
    debug_assert!(outputs.iter().all(|o| o.timesteps_run == timesteps_run));
    let mut metrics = vec![vec![TimestepMetrics::default(); k]; timesteps_run];
    for (p, o) in outputs.iter().enumerate() {
        for (t, m) in o.metrics.iter().enumerate() {
            metrics[t][p] = m.clone();
        }
    }
    let merge_metrics = outputs.iter().map(|o| o.merge_metrics.clone()).collect();

    let mut counters: BTreeMap<String, Vec<Vec<u64>>> = BTreeMap::new();
    for (p, o) in outputs.iter().enumerate() {
        for (t, per_t) in o.counters.iter().enumerate() {
            for (&name, &v) in per_t {
                let rows = counters
                    .entry(name.to_string())
                    .or_insert_with(|| vec![vec![0; k]; timesteps_run]);
                rows[t][p] += v;
            }
        }
    }
    let mut merge_counters: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (p, o) in outputs.iter().enumerate() {
        for (&name, &v) in &o.merge_counters {
            merge_counters
                .entry(name.to_string())
                .or_insert_with(|| vec![0; k])[p] += v;
        }
    }

    let mut final_states: Vec<(SubgraphId, Vec<u8>)> = outputs
        .iter_mut()
        .flat_map(|o| o.final_states.drain(..))
        .collect();
    final_states.sort_by_key(|(sg, _)| *sg);

    // Fold the per-worker histogram shards (barrier-time shard merging is
    // associative and commutative, so worker order cannot matter). Shards
    // cover the final successful epoch; the restored pre-crash portion of
    // a recovered run lives in the counter aggregates added by
    // `JobResult::export_into` below.
    let registry_base = metrics_enabled.then(|| {
        let mut reg = tempograph_metrics::Registry::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for o in &outputs {
            if let Some(sh) = &o.shard {
                sh.fold_into(&mut reg);
                hits += sh.cache_hits;
                misses += sh.cache_misses;
            }
        }
        reg.gauge_set(
            "tempograph_gofs_cache_hit_rate",
            &[],
            tempograph_metrics::ratio_or_zero(hits, hits + misses),
        );
        reg
    });

    // Assemble the attribution table: concatenate worker rows (each
    // subgraph lives on exactly one partition, so rows cannot collide) and
    // sort by (subgraph, timestep) — merge rows (`u32::MAX`) sort last.
    let attribution = attribution_enabled.then(|| {
        let mut rows: Vec<AttributionRow> = outputs
            .iter_mut()
            .flat_map(|o| o.attr_rows.drain(..))
            .collect();
        rows.sort_by_key(|r| (r.subgraph, r.timestep));
        CostAttribution { rows }
    });

    let emitted = merge_emit_runs(outputs.into_iter().map(|o| o.emits).collect())?;

    let mut result = JobResult {
        timesteps_run,
        metrics,
        merge_metrics,
        counters,
        merge_counters,
        emitted,
        total_wall_ns,
        recoveries,
        final_states,
        trace: None,
        attribution,
        registry: None,
    };
    if let Some(mut reg) = registry_base {
        result.export_into(&mut reg);
        result.registry = Some(reg);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::sort_emits;
    use crate::metrics::MetricsShard;
    use bytes::BufMut;
    use tempograph_core::wire::WireError;
    use tempograph_core::VertexIdx;
    use tempograph_gofs::codec::assert_hex_golden;

    /// The unstable emit sort returns the stable sort's vector, bit for
    /// bit: duplicates, both zeros, NaNs of either sign and infinities
    /// included. So does the merge of the emits split over k sorted runs,
    /// some of them empty; a run out of order is a typed error.
    #[test]
    fn emits_sort_as_a_stable_sort_would() {
        let values = [
            1.5,
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.0,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let emits: Vec<Emit> = (0..600)
            .map(|_| Emit {
                timestep: next(4),
                vertex: VertexIdx(next(5) as u32),
                value: values[next(values.len())],
            })
            .collect();
        let mut stable = emits.clone();
        stable.sort_by(|a, b| {
            (a.timestep, a.vertex)
                .cmp(&(b.timestep, b.vertex))
                .then(a.value.total_cmp(&b.value))
        });
        let mut unstable = emits.clone();
        sort_emits(&mut unstable);
        let bits = |v: &[Emit]| -> Vec<(usize, VertexIdx, u64)> {
            v.iter()
                .map(|e| (e.timestep, e.vertex, e.value.to_bits()))
                .collect()
        };
        assert_eq!(bits(&unstable), bits(&stable));

        for k in [1usize, 2, 3, 9] {
            // Run `k - 1` stays empty whenever k > 1; the others draw at
            // random.
            let mut runs: Vec<Vec<Emit>> = vec![Vec::new(); k];
            for &e in &emits {
                runs[next(k.saturating_sub(1).max(1))].push(e);
            }
            for run in &mut runs {
                sort_emits(run);
            }
            let merged = merge_emit_runs(runs).unwrap();
            assert_eq!(bits(&merged), bits(&stable), "{k} runs");
        }
        assert!(merge_emit_runs(vec![Vec::new(); 3]).unwrap().is_empty());

        let at = |timestep: usize, vertex: u32| Emit {
            timestep,
            vertex: VertexIdx(vertex),
            value: 0.0,
        };
        let runs = vec![vec![at(0, 1), at(2, 0)], vec![at(0, 0), at(1, 5), at(1, 4)]];
        match merge_emit_runs(runs) {
            Err(EngineError::Protocol { detail }) => assert!(detail.contains("partition 1")),
            other => panic!("an unsorted run must be refused, got {other:?}"),
        }
    }

    /// `k` workers' ends of in-memory coordinator connections, each having
    /// said Hello, and the coordinator's source of the other ends.
    fn hello_links(k: usize) -> (Vec<FrameConn>, Accept) {
        let (host, mut workers): (Vec<_>, Vec<_>) = (0..k)
            .map(|_| FrameConn::pair("worker (handshaking)", "coordinator"))
            .unzip();
        for (p, w) in workers.iter_mut().enumerate() {
            let hello = HelloMsg {
                partition: p as u16,
                listen_addr: String::new(),
            };
            let frame = Frame::control(FrameKind::Hello, p as u16, 0, encode_payload(&hello));
            w.send(&frame).unwrap();
        }
        let mut host = host.into_iter();
        (workers, Box::new(move || Ok(host.next().unwrap())))
    }

    /// Serve epoch 0 of a fresh, untraced job.
    fn serve_untraced(
        accept: Accept,
        k: usize,
    ) -> Result<Result<Vec<WorkerOutput>, Death>, EngineError> {
        serve_epoch(
            accept,
            k,
            0,
            None,
            None,
            None,
            &mut DriverTrack::new(None, k),
        )
    }

    fn death_of(served: Result<Result<Vec<WorkerOutput>, Death>, EngineError>) -> u16 {
        match served {
            Ok(Err(death)) => death.partition,
            Ok(Ok(_)) => panic!("the epoch must end in a death"),
            Err(e) => panic!("the epoch must end in a death, not {e}"),
        }
    }

    /// What a surviving worker reads, after Start if it got that far: the
    /// Abort naming `dead`.
    fn assert_told_of(worker: &mut FrameConn, dead: u16) {
        let mut abort = worker.recv().unwrap();
        if abort.kind == FrameKind::Start {
            abort = worker.recv().unwrap();
        }
        assert_eq!(abort.kind, FrameKind::Abort);
        let abort: AbortMsg = decode_payload(abort.payload).unwrap();
        assert_eq!(abort.dead_partition, dead);
    }

    /// A worker whose link drops is the primary death, and every survivor
    /// is told so in an Abort frame.
    #[test]
    fn the_coordinator_blames_a_dropped_worker_link() {
        let (mut workers, accept) = hello_links(3);
        drop(workers.remove(1));
        assert_eq!(death_of(serve_untraced(accept, 3)), 1);
        for w in &mut workers {
            assert_told_of(w, 1);
        }
    }

    /// A worker that saw a peer die first-hand names it, and the
    /// coordinator passes that primary death on, not the reporter.
    #[test]
    fn the_coordinator_trusts_a_first_hand_abort() {
        let (mut workers, accept) = hello_links(3);
        let abort = AbortMsg {
            dead_partition: 2,
            detail: "mesh link lost".into(),
        };
        let frame = Frame::control(FrameKind::Abort, 0, 0, encode_payload(&abort));
        workers[0].send(&frame).unwrap();
        assert_eq!(death_of(serve_untraced(accept, 3)), 2);
        for w in &mut workers {
            assert_told_of(w, 2);
        }
    }

    #[test]
    fn contributions_fold_into_the_aggregate() {
        let agg = fold_contributions(&[
            Contribution {
                msgs_sent: 2,
                all_halted: true,
            },
            Contribution {
                msgs_sent: 5,
                all_halted: false,
            },
        ]);
        assert_eq!(agg.total_msgs, 7);
        assert!(!agg.all_halted);
        let agg = fold_contributions(&[Contribution {
            msgs_sent: 0,
            all_halted: true,
        }]);
        assert!(agg.should_stop());
    }

    /// Observability as a worker ships it: a worker sink with a span
    /// with an argument, an instant with and one without, a counter; an
    /// empty transport sink; a shard whose histograms are non-empty; two
    /// attribution rows (one merge-phase).
    fn observed(output: &mut WorkerOutput) {
        use tempograph_metrics::Histogram;
        let mut busy = Histogram::new();
        for v in [0u64, 3, 900, 1 << 33] {
            busy.record(v);
        }
        let mut one = Histogram::new();
        one.record(70);
        let events = vec![
            TraceEvent::Span {
                name: "compute",
                start_ns: 100,
                dur_ns: 50,
                arg: Some(("superstep", 2)),
            },
            TraceEvent::Instant {
                name: "straggler.detected",
                ts_ns: 180,
                arg: Some(("wait_ns", 9000)),
            },
            TraceEvent::Instant {
                name: "marker",
                ts_ns: 190,
                arg: None,
            },
            TraceEvent::Counter {
                name: "net.bytes_sent",
                ts_ns: 200,
                value: 4096,
            },
        ];
        output.sinks = vec![
            ("partition 1".into(), TraceSink::from_recorded(1, events)),
            (
                "partition 1 net".into(),
                TraceSink::from_recorded(1, vec![]),
            ),
        ];
        output.shard = Some(MetricsShard {
            compute_ns: busy.clone(),
            barrier_wait_ns: one.clone(),
            send_ns: busy.clone(),
            checkpoint_write_ns: one,
            recovery_restore_ns: busy,
            cache_hits: 7,
            cache_misses: 2,
            cache_evictions: 1,
            bytes_read: 4096,
        });
        output.attr_rows = vec![
            AttributionRow {
                subgraph: SubgraphId(5),
                timestep: 6,
                compute_ns: 777,
                invocations: 4,
            },
            AttributionRow {
                subgraph: SubgraphId(9),
                timestep: u32::MAX,
                compute_ns: 11,
                invocations: 1,
            },
        ];
    }

    fn sink_parts(output: &WorkerOutput) -> Vec<(String, u32, Vec<TraceEvent>)> {
        let parts = output.sinks.iter();
        parts
            .map(|(name, sink)| (name.clone(), sink.track(), sink.events()))
            .collect()
    }

    /// Byte golden for the Output payload: two timesteps of metrics (with
    /// per-superstep compute), merge metrics, counter rows, emits including
    /// a merge-phase one (timestep = the timestep count), final states,
    /// and the observability of [`observed`].
    #[test]
    fn golden_output_payload() {
        use crate::metrics::sample_metrics;
        let mut output = WorkerOutput {
            metrics: vec![sample_metrics(0), sample_metrics(100)],
            merge_metrics: sample_metrics(200),
            counters: vec![
                BTreeMap::from([("edges", 10), ("visited", 4)]),
                BTreeMap::from([("visited", 3)]),
            ],
            merge_counters: BTreeMap::from([("merged", 1)]),
            emits: vec![
                Emit {
                    timestep: 0,
                    vertex: VertexIdx(9),
                    value: 2.5,
                },
                Emit {
                    timestep: 2,
                    vertex: VertexIdx(4),
                    value: -0.75,
                },
            ],
            timesteps_run: 2,
            final_states: vec![(SubgraphId(3), vec![1, 2, 3]), (SubgraphId(5), vec![])],
            ..WorkerOutput::default()
        };
        observed(&mut output);
        let enc = output.encode();
        assert_hex_golden(
            &enc,
            include_str!("../testdata/worker_output.hex"),
            "FRAME_VERSION",
            crate::net::FRAME_VERSION,
        );
        let back = WorkerOutput::decode(enc).unwrap();
        assert_eq!(back.metrics, output.metrics);
        assert_eq!(back.merge_metrics, output.merge_metrics);
        assert_eq!(back.counters, output.counters);
        assert_eq!(back.merge_counters, output.merge_counters);
        assert_eq!(back.emits, output.emits);
        assert_eq!(back.timesteps_run, 2);
        assert_eq!(back.final_states, output.final_states);
        assert_eq!(sink_parts(&back), sink_parts(&output));
        assert_eq!(back.shard, output.shard);
        assert_eq!(back.attr_rows, output.attr_rows);
    }

    /// Sinks, shard and attribution rows round-trip through the Output
    /// payload; a trailing byte and every truncation are typed errors.
    #[test]
    fn output_payload_carries_observability() {
        let mut output = WorkerOutput {
            timesteps_run: 1,
            ..WorkerOutput::default()
        };
        observed(&mut output);
        let enc = output.encode();
        let back = WorkerOutput::decode(enc.clone()).unwrap();
        assert_eq!(sink_parts(&back), sink_parts(&output));
        assert!(back.sinks.iter().all(|(_, sink)| sink.on()));
        assert_eq!(back.shard, output.shard);
        assert_eq!(back.attr_rows, output.attr_rows);

        let mut longer = BytesMut::from(enc.to_vec());
        longer.put_u8(0);
        assert!(matches!(
            WorkerOutput::decode(longer.freeze()),
            Err(EngineError::Wire(WireError::Trailing { bytes: 1, .. }))
        ));
        for cut in 0..enc.len() {
            assert!(
                matches!(
                    WorkerOutput::decode(enc.slice(..cut)),
                    Err(EngineError::Wire(_))
                ),
                "truncation at {cut} of {} must be a wire error",
                enc.len()
            );
        }
    }

    #[test]
    fn worker_output_roundtrip() {
        let m = TimestepMetrics {
            compute_ns: 42,
            msgs_remote: 7,
            supersteps: 3,
            superstep_compute_ns: vec![40, 2],
            ..Default::default()
        };
        let output = WorkerOutput {
            metrics: vec![m.clone(), TimestepMetrics::default()],
            merge_metrics: m,
            counters: vec![
                BTreeMap::from([("edges", 10), ("visited", 4)]),
                BTreeMap::new(),
            ],
            merge_counters: BTreeMap::from([("merged", 1)]),
            emits: vec![Emit {
                timestep: 1,
                vertex: VertexIdx(9),
                value: 2.5,
            }],
            timesteps_run: 2,
            final_states: vec![(SubgraphId(3), vec![1, 2, 3]), (SubgraphId(5), vec![])],
            ..WorkerOutput::default()
        };
        let enc = output.encode();
        // The Output-frame bytes are a wire format: the frame-v5 encoding
        // of this sample (449 bytes), plus empty sinks, no shard and no
        // attribution rows.
        assert_eq!(
            (enc.len(), tempograph_gofs::codec::fnv1a64(&enc)),
            (458, 0x786a_4d38_1c5b_7b29)
        );
        let decoded = WorkerOutput::decode(enc.clone()).unwrap();
        assert_eq!(decoded.metrics, output.metrics);
        assert_eq!(decoded.merge_metrics, output.merge_metrics);
        assert_eq!(decoded.counters, output.counters);
        assert_eq!(decoded.merge_counters, output.merge_counters);
        assert_eq!(decoded.emits.len(), 1);
        assert_eq!(decoded.emits[0].vertex, VertexIdx(9));
        assert_eq!(decoded.timesteps_run, 2);
        assert_eq!(decoded.final_states, output.final_states);

        // Trailing garbage is rejected, truncation is a typed error.
        let mut longer = BytesMut::from(enc.to_vec());
        longer.put_u8(0);
        assert!(WorkerOutput::decode(longer.freeze()).is_err());
        assert!(WorkerOutput::decode(enc.slice(..enc.len() - 2)).is_err());
    }
}
