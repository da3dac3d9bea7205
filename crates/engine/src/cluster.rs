//! The cluster driver: one coordinator for every deployment.
//!
//! TI-BSP is one loop (timesteps outside, barriered supersteps inside)
//! served by one manager/worker protocol; *where* the workers live does
//! not change it. [`run_cluster`] is that manager. A job runs as a
//! sequence of **epochs** — one launch of all `k` workers, from scratch or
//! from the latest committed checkpoint — and the [`Cluster`] only decides
//! how an epoch hosts its workers:
//!
//! * [`Cluster::InProcess`] — `k` scoped threads over
//!   [`InProcess`] transports (crossbeam channels, a shared
//!   [`SyncPoint`]); no socket, no coordinator protocol.
//! * [`Cluster::Threads`] — `k` scoped threads over [`Tcp`] transports,
//!   dialing this process's coordinator listener over loopback.
//! * [`Cluster::Processes`] — `k` spawned worker processes (the
//!   `tempograph worker` subcommand, [`run_tcp_worker`]) doing the same.
//!
//! Everything else is shared: the recovery loop, the judgement of how an
//! epoch ended, the `recoveries` accounting, the driver trace track and
//! result assembly. [`crate::run_job`] is `run_cluster` over
//! `Cluster::InProcess` with the error unwrapped; [`crate::run_job_tcp`]
//! *is* `run_cluster`.
//!
//! **One failure vocabulary.** However a worker dies — a panicking thread,
//! a typed worker error, a process exit, a reset connection — the epoch
//! ends as a death naming the *primary* partition, never a cascade: TCP
//! workers report a dead peer to the coordinator in an Abort frame before
//! unwinding, in-process workers report it to the [`SyncPoint`], and both
//! surface to peers as [`EngineError::RemoteWorkerDied`]. With
//! checkpointing armed and an *injected* death (the fault plan's panic
//! events, or a killed worker process) the driver relaunches the epoch
//! from the latest committed checkpoint; anything else would recur
//! deterministically after a restore, so it is returned as
//! `RemoteWorkerDied` naming the partition.

use crate::checkpoint;
use crate::error::{EngineError, WireError};
use crate::executor::{run_worker_body, JobConfig, TimestepMode, WorkerOutput};
use crate::faults::{payload_is_injected, FaultPlan};
use crate::metrics::{AttributionRow, CostAttribution, Emit, JobResult, TimestepMetrics};
use crate::net::{
    accept_with_deadline, bind_loopback, connect_with_retry, decode_payload, encode_payload,
    AbortMsg, Frame, FrameConn, FrameKind, HelloMsg, StartMsg, COORDINATOR, RESUME_NONE,
};
use crate::program::SubgraphProgram;
use crate::provider::InstanceSource;
use crate::sync::{panic_message, Aggregate, Contribution, PoisonOnPanic, SyncPoint};
use crate::telemetry::CoordTelemetry;
use crate::transport::{InProcess, Tcp, TelemetryFlush, Transport, HANDSHAKE_TIMEOUT_MS};
use crate::wire::WireMsg;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::unbounded;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use tempograph_partition::{PartitionedGraph, Subgraph, SubgraphId};
use tempograph_trace::{Clock, Trace, TraceSink};

/// Exit code a worker process uses for an *injected* death (fault-plan
/// panic), so the coordinator can tell "recoverable drill" from "real bug"
/// across a process boundary, where panic payloads don't travel.
pub const INJECTED_EXIT_CODE: i32 = 42;

// ---- worker results on the wire -----------------------------------------

fn put_counter_row(buf: &mut BytesMut, row: &BTreeMap<&'static str, u64>) {
    (row.len() as u32).encode(buf);
    for (name, v) in row {
        // Same bytes as `String::encode`, without materialising one.
        (name.len() as u32).encode(buf);
        buf.put_slice(name.as_bytes());
        v.encode(buf);
    }
}

fn get_counter_row(buf: &mut Bytes) -> Result<BTreeMap<&'static str, u64>, EngineError> {
    let n = u32::decode(buf)? as usize;
    let mut row = BTreeMap::new();
    for _ in 0..n {
        let name = checkpoint::intern(&String::decode(buf)?);
        row.insert(name, u64::decode(buf)?);
    }
    Ok(row)
}

fn get_metrics(buf: &mut Bytes) -> Result<TimestepMetrics, EngineError> {
    checkpoint::get_metrics(buf).map_err(|e| EngineError::Protocol {
        detail: format!("worker results metrics: {e}"),
    })
}

impl WorkerOutput {
    /// The Output-frame payload: the transportable subset of a worker's
    /// results. Observability state (`sinks`, `shard`, `attr_rows`)
    /// travels separately, in the Telemetry frames each barrier round and
    /// the final flush emit — the coordinator grafts it back on
    /// ([`CoordTelemetry::merge_into`]) before assembling the
    /// [`JobResult`].
    pub(crate) fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        (self.metrics.len() as u32).encode(&mut buf);
        for m in &self.metrics {
            checkpoint::put_metrics(&mut buf, m);
        }
        checkpoint::put_metrics(&mut buf, &self.merge_metrics);
        (self.counters.len() as u32).encode(&mut buf);
        for row in &self.counters {
            put_counter_row(&mut buf, row);
        }
        put_counter_row(&mut buf, &self.merge_counters);
        (self.emits.len() as u32).encode(&mut buf);
        for e in &self.emits {
            (e.timestep as u64).encode(&mut buf);
            e.vertex.encode(&mut buf);
            e.value.encode(&mut buf);
        }
        (self.timesteps_run as u64).encode(&mut buf);
        (self.final_states.len() as u32).encode(&mut buf);
        for (sg, state) in &self.final_states {
            sg.encode(&mut buf);
            (state.len() as u32).encode(&mut buf);
            buf.put_slice(state);
        }
        buf.freeze()
    }

    /// Decode an Output-frame payload; the observability fields come back
    /// empty (see [`WorkerOutput::encode`]).
    pub(crate) fn decode(mut buf: Bytes) -> Result<WorkerOutput, EngineError> {
        let n_metrics = u32::decode(&mut buf)? as usize;
        let mut metrics = Vec::new();
        for _ in 0..n_metrics {
            metrics.push(get_metrics(&mut buf)?);
        }
        let merge_metrics = get_metrics(&mut buf)?;
        let n_rows = u32::decode(&mut buf)? as usize;
        let mut counters = Vec::new();
        for _ in 0..n_rows {
            counters.push(get_counter_row(&mut buf)?);
        }
        let merge_counters = get_counter_row(&mut buf)?;
        let n_emits = u32::decode(&mut buf)? as usize;
        let mut emits = Vec::new();
        for _ in 0..n_emits {
            emits.push(Emit {
                timestep: u64::decode(&mut buf)? as usize,
                vertex: tempograph_core::VertexIdx::decode(&mut buf)?,
                value: f64::decode(&mut buf)?,
            });
        }
        let timesteps_run = u64::decode(&mut buf)? as usize;
        let n_states = u32::decode(&mut buf)? as usize;
        let mut final_states = Vec::new();
        for _ in 0..n_states {
            let sg = SubgraphId::decode(&mut buf)?;
            let len = u32::decode(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(EngineError::Wire(WireError::Eof {
                    context: "final program state",
                    needed: len,
                    remaining: buf.remaining(),
                }));
            }
            final_states.push((sg, buf.split_to(len).to_vec()));
        }
        if buf.remaining() != 0 {
            return Err(EngineError::Protocol {
                detail: format!("{} trailing bytes after worker results", buf.remaining()),
            });
        }
        Ok(WorkerOutput {
            metrics,
            merge_metrics,
            counters,
            merge_counters,
            emits,
            timesteps_run,
            final_states,
            ..WorkerOutput::default()
        })
    }
}

// ---- worker side ---------------------------------------------------------

/// One TCP worker, start to finish: handshake with the coordinator, build
/// the peer mesh, run the TI-BSP loop over the [`Tcp`] transport, ship the
/// results back. On a peer death observed first-hand, reports the dead
/// partition to the coordinator (an Abort frame) before unwinding, so the
/// coordinator can attribute the primary failure even when the dying
/// worker's own connection reset is observed later.
fn tcp_worker<P, F>(
    coord_addr: &str,
    partition: u16,
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
) -> Result<(), EngineError>
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let (listener, listen_addr) = bind_loopback("the peer-mesh listener")?;
    let stream = connect_with_retry(coord_addr, "coordinator")?;
    let mut coord = FrameConn::new(stream, "coordinator")?;
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
    let tracer = config
        .trace
        .map(|tc| tc.sink(partition as u32))
        .unwrap_or_else(TraceSink::inert);
    let mut tcp = Tcp::connect_mesh(
        partition,
        start.epoch,
        coord,
        &listener,
        &start.peer_addrs,
        config.faults.clone(),
        tracer,
        config.telemetry_armed(),
    )?;
    let epoch = start.epoch;
    let out = run_worker_body::<P, F>(
        partition,
        pg,
        source,
        factory,
        config,
        timesteps,
        resume_from,
        &mut tcp,
    );
    match out {
        Ok(mut output) => {
            if tcp.wants_telemetry() {
                // Final flush: drain whatever the per-round flushes did not
                // cover (merge-phase events, the provider's GoFS sink, the
                // last cumulative shard/attribution snapshots). Sent before
                // the Output frame so the coordinator has the complete
                // picture by the time it assembles the JobResult.
                let mut events = Vec::new();
                for (_, sink) in &mut output.sinks {
                    events.extend(sink.take_events());
                }
                tcp.telemetry(TelemetryFlush {
                    timestep: output.timesteps_run.saturating_sub(1) as u32,
                    supersteps: 0,
                    barrier_wait_ns: 0,
                    final_flush: true,
                    events,
                    shard: output.shard.take().map(|b| *b),
                    attr_rows: std::mem::take(&mut output.attr_rows),
                })?;
            }
            tcp.coord_send(&Frame::control(
                FrameKind::Output,
                partition,
                epoch,
                output.encode(),
            ))
        }
        Err(e) => {
            if let EngineError::RemoteWorkerDied {
                partition: dead,
                detail,
            } = &e
            {
                // Best-effort: name the primary death for the coordinator.
                let _ = tcp.coord_send(&Frame::control(
                    FrameKind::Abort,
                    partition,
                    epoch,
                    encode_payload(&AbortMsg {
                        dead_partition: *dead,
                        detail: detail.clone(),
                    }),
                ));
            }
            Err(e)
        }
    }
}

/// Worker-process entry point (the `tempograph worker` subcommand). Runs
/// [`tcp_worker`] on a joinable thread so an injected panic can be mapped
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
        let timesteps = effective_timesteps(&config, source.num_timesteps())?;
        tcp_worker::<P, F>(
            &coordinator,
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
    /// Workers are threads in this process exchanging batches over
    /// channels and meeting at a shared barrier — the simulated cluster
    /// behind [`crate::run_job`]. No socket is opened.
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

/// One in-process epoch: spawn `k` scoped threads over [`InProcess`]
/// transports, join. Deaths are reported to the shared [`SyncPoint`] —
/// by the unwind guard when a worker panics, by the error branch below
/// when it returns a typed error — so peers fail fast as cascades and the
/// sync point ends up naming the primary.
fn run_epoch_in_process<P, F>(
    resume_from: Option<u64>,
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
) -> EpochEnd
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let k = pg.num_partitions();
    let sync = SyncPoint::new(k);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..k).map(|_| unbounded()).unzip();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(p, rx)| {
                let p = p as u16;
                let txs = txs.clone();
                let sync = &sync;
                // Per-thread clones: `Msg` is Send + Clone but not
                // necessarily Sync.
                let config = config.clone();
                let source = source.clone();
                scope.spawn(move || {
                    let mut transport = InProcess::new(p, rx, txs, sync);
                    // Declared after the transport, so an unwinding worker
                    // reports its death before its channel closes.
                    let _poison = PoisonOnPanic(sync, p);
                    let out = run_worker_body::<P, F>(
                        p,
                        pg,
                        &source,
                        factory,
                        &config,
                        timesteps,
                        resume_from,
                        &mut transport,
                    );
                    match &out {
                        Ok(_) => {}
                        // A cascade passes on the death it was told about.
                        Err(EngineError::RemoteWorkerDied { partition, detail }) => {
                            sync.poison(*partition, detail)
                        }
                        Err(e) => sync.poison(p, &e.to_string()),
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    match sync.poisoned_by() {
        // Every failure path above reports to the sync point, so an
        // unpoisoned one means all k workers returned results.
        None => EpochEnd::Done(results.into_iter().flatten().flatten().collect()),
        Some((partition, detail)) => judge_thread_death(
            Death { partition, detail },
            results.into_iter().nth(partition as usize),
        ),
    }
}

fn fold_contributions(contribs: &[Contribution]) -> Aggregate {
    Aggregate {
        total_msgs: contribs.iter().map(|c| c.msgs_sent).sum(),
        all_halted: contribs.iter().all(|c| c.all_halted),
    }
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

/// Serve one epoch over the coordinator listener: accept `k` hellos, send
/// Start, then serve barrier rounds (fold k Contributions, broadcast the
/// Aggregate) until all k workers deliver Output frames. Telemetry frames
/// interleave with the barrier protocol and are drained into `telem` as
/// they arrive (a protocol error when telemetry is disabled — the zero-cost
/// contract says no such frame may exist). Returns `Ok(Err(death))` when a
/// worker died mid-epoch (remaining workers have been told to abort), and
/// `Err` only for unrecoverable coordinator-side failures (handshake
/// timeout, protocol violations).
fn serve_epoch(
    listener: &TcpListener,
    k: usize,
    epoch: u32,
    resume_from: Option<u64>,
    faults: Option<&FaultPlan>,
    mut telem: Option<&mut CoordTelemetry>,
) -> Result<Result<Vec<WorkerOutput>, Death>, EngineError> {
    let mut conns: Vec<Option<FrameConn>> = (0..k).map(|_| None).collect();
    let mut peer_addrs = vec![String::new(); k];
    for _ in 0..k {
        let stream = accept_with_deadline(listener, HANDSHAKE_TIMEOUT_MS, "a worker hello")?;
        let mut conn = FrameConn::new(stream, "worker (handshaking)")?;
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
            // Telemetry frames interleave with the barrier protocol on the
            // same connection; drain them until a protocol frame arrives.
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
                FrameKind::Output => outputs.push(WorkerOutput::decode(frame.payload)?),
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

/// One epoch with workers as threads of this process over loopback TCP.
#[allow(clippy::too_many_arguments)]
fn run_epoch_threads<P, F>(
    epoch: u32,
    resume_from: Option<u64>,
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
    telem: Option<&mut CoordTelemetry>,
) -> Result<EpochEnd, EngineError>
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let k = pg.num_partitions();
    let (listener, coord_addr) = bind_loopback("the coordinator listener")?;
    let coord_addr = coord_addr.as_str();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|p| {
                // Per-thread clones, as in `run_epoch_in_process`.
                let config = config.clone();
                let source = source.clone();
                scope.spawn(move || {
                    tcp_worker::<P, F>(
                        coord_addr, p as u16, pg, &source, factory, &config, timesteps,
                    )
                })
            })
            .collect();
        let served = serve_epoch(
            &listener,
            k,
            epoch,
            resume_from,
            config.faults.as_deref(),
            telem,
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
fn run_epoch_processes(
    k: usize,
    epoch: u32,
    resume_from: Option<u64>,
    worker_bin: &Path,
    worker_args: &[String],
    faults: Option<&FaultPlan>,
    telem: Option<&mut CoordTelemetry>,
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
    match serve_epoch(&listener, k, epoch, resume_from, faults, telem) {
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
/// of the folded [`Aggregate`] (see [`crate::transport`]). With any of
/// trace/metrics/attribution armed, TCP workers ship their observability
/// over the telemetry plane (see [`crate::telemetry`]) so the returned
/// [`JobResult`] carries the same trace, registry, and attribution an
/// in-process run folds directly — `tests/transport_equivalence.rs`. With
/// [`JobConfig::status_addr`] set, a TCP coordinator additionally serves
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
    let k = pg.num_partitions();
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
    // Coordinator-side telemetry accumulation — armed by exactly the same
    // predicate TCP workers use, so a Telemetry frame arriving while this
    // is `None` is a protocol violation, not a silent drop. In-process
    // workers hand their sinks and shards back directly.
    let over_tcp = !matches!(cluster, Cluster::InProcess);
    let mut telem = (over_tcp && config.telemetry_armed())
        .then(|| CoordTelemetry::new(k, config.straggler_factor));
    // Driver-side sink (its own track, after the k partition tracks) for
    // recovery markers.
    let mut driver_sink = config.trace.map(|tc| tc.sink(k as u32));
    let _status_server = match (&config.status_addr, &telem) {
        (Some(addr), Some(ct)) => Some(ct.serve_status(addr)?),
        _ => None,
    };
    loop {
        let end = match &cluster {
            Cluster::InProcess => {
                run_epoch_in_process::<P, F>(resume_from, pg, source, &factory, &config, timesteps)
            }
            Cluster::Threads => run_epoch_threads::<P, F>(
                epoch,
                resume_from,
                pg,
                source,
                &factory,
                &config,
                timesteps,
                telem.as_mut(),
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
            )?,
        };
        let (death, injected) = match end {
            EpochEnd::Done(mut outputs) => {
                let total_wall_ns = job_start.elapsed_ns();
                if let Some(ct) = telem.take() {
                    ct.merge_into(&mut outputs);
                }
                let trace = config.trace.map(|_| {
                    let mut sinks: Vec<(String, TraceSink)> =
                        outputs.iter_mut().flat_map(|o| o.sinks.drain(..)).collect();
                    if let Some(sink) = driver_sink.take() {
                        if !sink.events().is_empty() {
                            sinks.push(("driver".to_string(), sink));
                        }
                    }
                    Trace::from_sinks(sinks)
                });
                return Ok(assemble_job_result(
                    outputs,
                    k,
                    total_wall_ns,
                    recoveries,
                    trace,
                    config.metrics,
                    config.attribution,
                ));
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
        if let Some(sink) = &mut driver_sink {
            sink.instant(
                "recovery.attempt",
                Some(("resume_t", resume_from.unwrap_or(u64::MAX))),
            );
        }
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

/// Fold per-worker outputs into the global [`JobResult`].
fn assemble_job_result(
    mut outputs: Vec<WorkerOutput>,
    k: usize,
    total_wall_ns: u64,
    recoveries: usize,
    trace: Option<Trace>,
    metrics_enabled: bool,
    attribution_enabled: bool,
) -> JobResult {
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

    let mut emitted: Vec<Emit> = outputs.into_iter().flat_map(|o| o.emits).collect();
    emitted.sort_by(|a, b| {
        (a.timestep, a.vertex)
            .cmp(&(b.timestep, b.vertex))
            .then(a.value.total_cmp(&b.value))
    });

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
        trace,
        attribution,
        registry: None,
    };
    if let Some(mut reg) = registry_base {
        result.export_into(&mut reg);
        result.registry = Some(reg);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempograph_core::VertexIdx;

    #[test]
    fn contributions_fold_like_the_sync_point() {
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
        // The Output-frame bytes are a wire format: this is the encoding of
        // the same sample before counters were keyed by interned names.
        assert_eq!(
            (enc.len(), tempograph_gofs::codec::fnv1a64(&enc)),
            (473, 0xd1cd_c342_67bb_0033)
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
