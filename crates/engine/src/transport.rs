//! Pluggable inter-partition transport.
//!
//! The executor's worker loop is written against one small surface — the
//! [`Transport`] trait: ship encoded `MessageBatch` frames to peers
//! ([`Transport::send`]) and close the phase ([`Transport::close_phase`]:
//! one rendezvous that folds the halting votes and hands back every frame
//! peers shipped here during the phase). Two implementations exist:
//!
//! * [`InProcess`] — the simulated cluster: crossbeam channels between
//!   worker threads and a shared [`SyncPoint`] barrier, no socket.
//! * [`Tcp`] — a real cluster over loopback/LAN TCP: one full-duplex
//!   framed connection per unordered worker pair (see [`crate::net`] for
//!   the frame layout), plus one control connection per worker to a
//!   coordinator that serves barriers by folding [`Contribution`] frames
//!   into [`Aggregate`] broadcasts.
//!
//! Which one a job's workers run over is the [`crate::Cluster`] choice of
//! the one driver in [`crate::cluster`]; this module holds only the
//! worker-side seam.
//!
//! **The sentinel, not a second barrier, fences phases.** A worker that
//! has closed phase g may send for g+1 while a slower peer still collects
//! g. The sender's own mark keeps that traffic out of the peer's phase-g
//! mail: over TCP the [`crate::net::FrameKind::Sentinel`] — written
//! *before* the Contribution, so it is in flight when any Aggregate comes
//! back — with per-connection FIFO putting g+1 frames behind it; in
//! process a generation tag on every channel item. Workers drift by at
//! most one phase (rendezvous g+1 needs every worker's contribution, sent
//! only after collecting g); further off is [`EngineError::Protocol`].
//!
//! **Why both transports produce byte-identical results.** Delivery order
//! is canonicalised *after* transport: staged runs are merged by the
//! globally unique `(from, seq)` key, so TCP arrival nondeterminism cannot
//! leak into algorithm output. Barrier decisions are pure functions of the
//! folded [`Aggregate`], which both transports compute identically. The
//! cross-transport equivalence suite (`tests/transport_equivalence.rs`)
//! asserts this fingerprint-for-fingerprint.
//!
//! **Exactly-once delivery under injected frame faults.** Each data frame
//! carries a per-(sender → receiver) sequence number counted from 1; every
//! phase ends with a Sentinel watermark declaring the cumulative count.
//! The receiver sorts by sequence, drops duplicates, skips
//! checksum-damaged frames (the sender always follows them with a clean
//! retransmission), and fails with [`EngineError::FrameLoss`] if the
//! surviving sequence numbers do not contiguously cover the watermark.
//! See [`crate::FrameFault`] for the injectable fault kinds.
//!
//! **Failure attribution.** Both transports tell a worker about a dead
//! peer the same way: the failing call returns
//! [`EngineError::RemoteWorkerDied`] naming the partition that died
//! *first* — a closed channel or a poisoned [`SyncPoint`] in process, a
//! lost mesh connection or the coordinator's Abort frame over TCP — never
//! the cascade. What the driver does with that is in [`crate::cluster`].

use crate::error::{EngineError, WireError};
use crate::faults::{FaultPlan, FrameFault};
use crate::metrics::{AttributionRow, MetricsShard};
use crate::net::{
    accept_with_deadline, connect_with_retry, decode_payload, encode_payload, net_err, read_frame,
    AbortMsg, AttrRowWire, Frame, FrameConn, FrameKind, MetricsShardWire, TelemetryMsg,
    TraceEventWire,
};
use crate::sync::{Aggregate, Contribution, SyncPoint};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use tempograph_trace::{TraceEvent, TraceSink};

/// Handshake patience: how long the coordinator waits for worker hellos and
/// a worker waits for higher-numbered peers to dial its mesh listener.
/// Generous because process-mode workers pay binary startup plus graph
/// reload before their first frame.
pub(crate) const HANDSHAKE_TIMEOUT_MS: u64 = 30_000;

/// Which inbox a shipped frame is destined for. An enum (not a `u8` tag)
/// so every routing `match` is exhaustive — adding a delivery class forces
/// both the send and drain paths to be updated (lint rule W01).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// Delivered at the next superstep of the current phase.
    Superstep,
    /// Delivered at superstep 0 of the next timestep.
    NextTimestep,
}

/// The frames peers shipped to one worker during one phase.
pub type PhaseMail = Vec<(BatchKind, Bytes)>;

/// Inter-partition batch exchange and barrier synchronisation, as seen by
/// one worker. See the module docs for the contract both implementations
/// honour; the executor is written against this trait only.
pub trait Transport: Send {
    /// Number of partitions in the cluster (== workers, == peers + self).
    fn num_partitions(&self) -> usize;

    /// Ship one encoded `MessageBatch` frame to partition `dst`. Returns
    /// the number of *retransmissions* the transport performed (injected
    /// frame loss recovered under the exactly-once contract) — the worker
    /// accounts them as `send_retries`.
    fn send(&mut self, dst: u16, kind: BatchKind, bytes: Bytes) -> Result<u64, EngineError>;

    /// Close the current phase (a superstep, or a timestep's tail): mark
    /// the end of this worker's sends, rendezvous folding every worker's
    /// [`Contribution`] into the global [`Aggregate`], and collect every
    /// frame peers shipped here during the phase — exactly those, even if
    /// a faster peer is already sending the next phase's (module docs).
    fn close_phase(&mut self, c: Contribution) -> Result<(Aggregate, PhaseMail), EngineError>;

    /// Pure rendezvous that closes no phase: the two checkpoint-commit
    /// barriers. Emits no phase mark, so it cannot be mistaken for one.
    fn barrier(&mut self) -> Result<(), EngineError>;

    /// Whether the worker should hand this transport per-round telemetry
    /// flushes. The default (`false`, used by [`InProcess`] and by a TCP
    /// run with observability disabled) keeps the disabled path to one
    /// virtual call and a branch: no snapshot is built, nothing allocates.
    fn wants_telemetry(&self) -> bool {
        false
    }

    /// Ship one observability snapshot to the coordinator. Called only
    /// when [`Transport::wants_telemetry`] returned `true` — once per
    /// closed timestep, plus one `final_flush` at job end.
    fn telemetry(&mut self, _flush: TelemetryFlush) -> Result<(), EngineError> {
        Ok(())
    }
}

/// One observability snapshot handed to [`Transport::telemetry`] when a
/// worker closes a timestep (or finishes the job). `events` are drained
/// increments — each trace event crosses the wire exactly once; `shard`
/// and `attr_rows` are cumulative snapshots the coordinator replaces, so
/// re-sending after recovery cannot double count.
pub struct TelemetryFlush {
    /// Timestep this flush closes.
    pub(crate) timestep: u32,
    /// Supersteps the closed timestep ran.
    pub(crate) supersteps: u32,
    /// Barrier wait accumulated in the closed timestep, nanoseconds.
    pub(crate) barrier_wait_ns: u64,
    /// True for the end-of-job flush (carries merge-phase observability).
    pub(crate) final_flush: bool,
    /// Trace events recorded since the previous flush.
    pub(crate) events: Vec<TraceEvent>,
    /// Cumulative metrics-shard snapshot (when metrics are armed).
    pub(crate) shard: Option<MetricsShard>,
    /// Cumulative attribution snapshot (when attribution is armed).
    pub(crate) attr_rows: Vec<AttributionRow>,
}

// ---- in-process transport ----------------------------------------------

/// One in-process channel item: a batch tagged with its sender's phase
/// generation (the count of phases that sender had closed when it sent).
pub type PhaseItem = (u64, BatchKind, Bytes);

/// The simulated cluster's transport: unbounded crossbeam channels between
/// worker threads, barriers on a shared [`SyncPoint`].
pub struct InProcess<'a> {
    partition: u16,
    rx: Receiver<PhaseItem>,
    txs: Vec<Sender<PhaseItem>>,
    sync: &'a SyncPoint,
    /// Phases this worker has closed — worker-local, stamped on its sends.
    generation: u64,
    /// The next generation's first batch, from a peer already past its
    /// collect: where this worker's collect stopped; it opens the next.
    early: Option<(BatchKind, Bytes)>,
}

impl<'a> InProcess<'a> {
    /// Wire up one worker's endpoints: its receive side, one sender per
    /// partition, and the shared barrier.
    pub fn new(
        partition: u16,
        rx: Receiver<PhaseItem>,
        txs: Vec<Sender<PhaseItem>>,
        sync: &'a SyncPoint,
    ) -> Self {
        InProcess {
            partition,
            rx,
            txs,
            sync,
            generation: 0,
            early: None,
        }
    }
}

impl Transport for InProcess<'_> {
    fn num_partitions(&self) -> usize {
        self.txs.len()
    }

    fn send(&mut self, dst: u16, kind: BatchKind, bytes: Bytes) -> Result<u64, EngineError> {
        debug_assert_ne!(dst, self.partition, "local messages never reach send");
        let tx = self
            .txs
            .get(dst as usize)
            .ok_or_else(|| EngineError::Protocol {
                detail: format!("send to unknown partition {dst}"),
            })?;
        // A receiver only disappears when its worker died: name it, so
        // the driver blames the primary failure and not this cascade.
        tx.send((self.generation, kind, bytes))
            .map_err(|_| EngineError::RemoteWorkerDied {
                partition: dst,
                detail: "in-process channel closed".into(),
            })?;
        Ok(0)
    }

    fn close_phase(&mut self, c: Contribution) -> Result<(Aggregate, PhaseMail), EngineError> {
        // Every worker sends before it arrives, and nobody sends for the
        // next generation before the rendezvous returns: the channel (one
        // FIFO) holds all of this generation, then possibly the next's.
        let agg = self.sync.arrive(c)?;
        let mut out: PhaseMail = self.early.take().into_iter().collect();
        while let Ok((generation, kind, bytes)) = self.rx.try_recv() {
            match generation.checked_sub(self.generation) {
                Some(0) => out.push((kind, bytes)),
                Some(1) => {
                    self.early = Some((kind, bytes));
                    break;
                }
                _ => {
                    let detail = format!("batch of phase {generation} in {}", self.generation);
                    return Err(EngineError::Protocol { detail });
                }
            }
        }
        self.generation += 1;
        Ok((agg, out))
    }

    fn barrier(&mut self) -> Result<(), EngineError> {
        self.sync.barrier()
    }
}

// ---- TCP transport -------------------------------------------------------

type ReadResult = Result<(Frame, usize), EngineError>;

/// Typed out-of-range error for a peer index. Every per-peer state vector
/// (`peers_tx`, `peers_rx`, `send_seq`, `recv_done`, `held`) shares the
/// mesh length, so this only fires on a corrupt partition id.
fn bad_peer(d: usize) -> EngineError {
    EngineError::Protocol {
        detail: format!("no mesh state for partition {d}"),
    }
}

/// Write half of one peer connection.
struct PeerWriter {
    stream: TcpStream,
    label: String,
}

impl PeerWriter {
    fn send(&mut self, frame: &Frame) -> Result<usize, EngineError> {
        crate::net::write_frame(&mut self.stream, frame, &self.label)
    }

    fn send_corrupted(&mut self, frame: &Frame) -> Result<usize, EngineError> {
        crate::net::write_frame_corrupted(&mut self.stream, frame, &self.label)
    }
}

/// Read half of one peer connection: a detached thread that drains the
/// socket into an unbounded channel. Decoupling reads from the worker's
/// phase structure is what makes the mesh deadlock-free — a peer's send
/// never blocks on this worker reaching its own collect, because the
/// kernel buffer is always being emptied. A checksum failure is pushed and
/// reading continues (the stream stays frame-aligned, the clean
/// retransmission follows); any other error is pushed and the thread exits.
fn spawn_reader(mut reader: BufReader<TcpStream>, label: String) -> Receiver<ReadResult> {
    let (tx, rx) = unbounded();
    std::thread::spawn(move || loop {
        let res = read_frame(&mut reader, &label);
        let fatal = !matches!(
            &res,
            Ok(_) | Err(EngineError::Wire(WireError::Checksum { .. }))
        );
        if tx.send(res).is_err() {
            break; // transport dropped; nobody is listening
        }
        if fatal {
            break;
        }
    });
    rx
}

/// The real-cluster transport: a full mesh of framed TCP connections
/// between workers, barriers served by the coordinator over each worker's
/// control connection. See the module docs for the exactly-once and
/// failure-attribution contracts.
pub struct Tcp {
    partition: u16,
    epoch: u32,
    coord: FrameConn,
    peers_tx: Vec<Option<PeerWriter>>,
    peers_rx: Vec<Option<Receiver<ReadResult>>>,
    /// Data frames sent per peer this epoch (the next frame's seq − 1, and
    /// the sentinel watermark).
    send_seq: Vec<u64>,
    /// Highest contiguously accounted-for seq per peer.
    recv_done: Vec<u64>,
    /// Global 1-based ordinal of data frames sent by this worker — the
    /// fault plan's `f{N}` coordinate (see [`FaultPlan::frame_fault_at`]).
    frames_sent: u64,
    /// One frame per peer held back by an injected Reorder fault; shipped
    /// after the next frame to that peer (or at the phase sentinel).
    held: Vec<Option<Frame>>,
    faults: Option<Arc<FaultPlan>>,
    tracer: TraceSink,
    peer_bytes_sent: u64,
    peer_bytes_received: u64,
    /// Whether the worker loop should hand this transport per-round
    /// telemetry flushes (any of trace/metrics/attribution armed). When
    /// false, no Telemetry frame is ever built or sent.
    telemetry_armed: bool,
}

impl Tcp {
    /// Build the peer mesh: dial every lower-numbered partition (sending a
    /// PeerHello naming us), accept every higher-numbered one (identified
    /// by *its* PeerHello) — one full-duplex connection per unordered pair.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn connect_mesh(
        partition: u16,
        epoch: u32,
        coord: FrameConn,
        listener: &TcpListener,
        peer_addrs: &[String],
        faults: Option<Arc<FaultPlan>>,
        tracer: TraceSink,
        telemetry_armed: bool,
    ) -> Result<Tcp, EngineError> {
        let k = peer_addrs.len();
        let me = partition as usize;
        let mut peers_tx: Vec<Option<PeerWriter>> = (0..k).map(|_| None).collect();
        let mut peers_rx: Vec<Option<Receiver<ReadResult>>> = (0..k).map(|_| None).collect();
        for (j, addr) in peer_addrs.iter().enumerate().take(me) {
            let stream = connect_with_retry(addr, &format!("partition {j}"))?;
            stream
                .set_nodelay(true)
                .map_err(net_err(format!("configuring connection to partition {j}")))?;
            let reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(net_err(format!("cloning connection to partition {j}")))?,
            );
            let mut writer = PeerWriter {
                stream,
                label: format!("partition {j}"),
            };
            writer.send(&Frame {
                kind: FrameKind::PeerHello,
                sender: partition,
                epoch,
                seq: 0,
                payload: Bytes::new(),
            })?;
            peers_rx[j] = Some(spawn_reader(reader, format!("partition {j}")));
            peers_tx[j] = Some(writer);
        }
        for _ in me + 1..k {
            let stream = accept_with_deadline(listener, HANDSHAKE_TIMEOUT_MS, "a peer handshake")?;
            stream
                .set_nodelay(true)
                .map_err(net_err("configuring an accepted peer connection".into()))?;
            let mut reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(net_err("cloning an accepted peer connection".into()))?,
            );
            let (hello, _) = read_frame(&mut reader, "peer (handshaking)")?;
            if hello.kind != FrameKind::PeerHello {
                return Err(EngineError::Protocol {
                    detail: format!("expected PeerHello on mesh accept, got {:?}", hello.kind),
                });
            }
            if hello.epoch != epoch {
                return Err(EngineError::Protocol {
                    detail: format!(
                        "PeerHello from partition {} carries epoch {} (expected {epoch})",
                        hello.sender, hello.epoch
                    ),
                });
            }
            let j = hello.sender as usize;
            if j >= k || j == me || peers_tx[j].is_some() {
                return Err(EngineError::Protocol {
                    detail: format!("unexpected PeerHello from partition {j}"),
                });
            }
            peers_rx[j] = Some(spawn_reader(reader, format!("partition {j}")));
            peers_tx[j] = Some(PeerWriter {
                stream,
                label: format!("partition {j}"),
            });
        }
        Ok(Tcp {
            partition,
            epoch,
            coord,
            peers_tx,
            peers_rx,
            send_seq: vec![0; k],
            recv_done: vec![0; k],
            frames_sent: 0,
            held: (0..k).map(|_| None).collect(),
            faults,
            tracer,
            peer_bytes_sent: 0,
            peer_bytes_received: 0,
            telemetry_armed,
        })
    }

    /// Send one control frame to the coordinator (also used by the worker
    /// wrapper after the run, for Output/Abort frames).
    pub(crate) fn coord_send(&mut self, frame: &Frame) -> Result<(), EngineError> {
        self.coord.send(frame)
    }

    /// Write `frame` to peer `d`, promoting any I/O failure to
    /// [`EngineError::RemoteWorkerDied`] naming that peer — a mesh
    /// connection only fails when the worker behind it is gone, and naming
    /// it is what lets the coordinator distinguish primary from cascade.
    fn send_to_peer(&mut self, d: usize, frame: &Frame) -> Result<(), EngineError> {
        let writer = self
            .peers_tx
            .get_mut(d)
            .and_then(Option::as_mut)
            .ok_or_else(|| EngineError::Protocol {
                detail: format!("no mesh connection to partition {d}"),
            })?;
        match writer.send(frame) {
            Ok(n) => {
                self.peer_bytes_sent += n as u64;
                Ok(())
            }
            Err(e) => Err(EngineError::RemoteWorkerDied {
                partition: d as u16,
                detail: e.to_string(),
            }),
        }
    }

    /// Ship `frame` to peer `d` under an optional injected fault, honouring
    /// the exactly-once contract (see [`FrameFault`]). Returns the
    /// retransmission count the fault forced.
    fn deliver(
        &mut self,
        d: usize,
        frame: Frame,
        fault: Option<FrameFault>,
    ) -> Result<u64, EngineError> {
        if let Some(FrameFault::Reorder) = fault {
            // Swap with the next frame to this peer: flush anything already
            // held, then hold this one back.
            if let Some(prev) = self.held.get_mut(d).and_then(Option::take) {
                self.send_to_peer(d, &prev)?;
            }
            *self.held.get_mut(d).ok_or_else(|| bad_peer(d))? = Some(frame);
            return Ok(0);
        }
        let retransmits = match fault {
            None | Some(FrameFault::Reorder) => {
                self.send_to_peer(d, &frame)?;
                0
            }
            Some(FrameFault::Drop) => {
                // The first transmission is lost in flight; what reaches
                // the wire is already the retransmission.
                self.send_to_peer(d, &frame)?;
                1
            }
            Some(FrameFault::Duplicate) => {
                // Two identical copies; the receiver's seq-dedup keeps one.
                self.send_to_peer(d, &frame)?;
                self.send_to_peer(d, &frame)?;
                0
            }
            Some(FrameFault::Truncate) => {
                // A checksum-damaged copy the receiver discards, then the
                // clean retransmission.
                let writer = self
                    .peers_tx
                    .get_mut(d)
                    .and_then(Option::as_mut)
                    .ok_or_else(|| EngineError::Protocol {
                        detail: format!("no mesh connection to partition {d}"),
                    })?;
                match writer.send_corrupted(&frame) {
                    Ok(n) => self.peer_bytes_sent += n as u64,
                    Err(e) => {
                        return Err(EngineError::RemoteWorkerDied {
                            partition: d as u16,
                            detail: e.to_string(),
                        })
                    }
                }
                self.send_to_peer(d, &frame)?;
                1
            }
        };
        // A frame held by an earlier Reorder ships right after this one.
        if let Some(prev) = self.held.get_mut(d).and_then(Option::take) {
            self.send_to_peer(d, &prev)?;
        }
        Ok(retransmits)
    }

    /// Collect each peer's frames up to its sentinel, ascending. Blocking
    /// is safe: the rendezvous that precedes every collect proves all
    /// peers sent their sentinel, and per-connection FIFO puts this
    /// phase's data before it and the next phase's behind it.
    fn collect(&mut self) -> Result<PhaseMail, EngineError> {
        let t0 = self.tracer.now();
        let k = self.peers_tx.len();
        let me = self.partition as usize;
        let mut out = PhaseMail::new();
        for j in 0..k {
            if j == me {
                continue;
            }
            let mut got: Vec<(u64, BatchKind, Bytes)> = Vec::new();
            let watermark = loop {
                let rx = self
                    .peers_rx
                    .get(j)
                    .and_then(Option::as_ref)
                    .ok_or_else(|| EngineError::Protocol {
                        detail: format!("no mesh connection to partition {j}"),
                    })?;
                let res = match rx.recv() {
                    Ok(res) => res,
                    Err(_) => {
                        return Err(EngineError::RemoteWorkerDied {
                            partition: j as u16,
                            detail: "mesh connection lost".into(),
                        })
                    }
                };
                let (frame, n) = match res {
                    Ok(pair) => pair,
                    // A damaged frame was discarded; its retransmission is
                    // behind it on the same connection.
                    Err(EngineError::Wire(WireError::Checksum { .. })) => continue,
                    Err(e) => {
                        return Err(EngineError::RemoteWorkerDied {
                            partition: j as u16,
                            detail: e.to_string(),
                        })
                    }
                };
                self.peer_bytes_received += n as u64;
                if frame.epoch != self.epoch {
                    return Err(EngineError::Protocol {
                        detail: format!(
                            "frame from partition {j} carries epoch {} (expected {})",
                            frame.epoch, self.epoch
                        ),
                    });
                }
                match frame.kind {
                    FrameKind::Sentinel => break frame.seq,
                    FrameKind::DataSuperstep => {
                        got.push((frame.seq, BatchKind::Superstep, frame.payload));
                    }
                    FrameKind::DataNextTimestep => {
                        got.push((frame.seq, BatchKind::NextTimestep, frame.payload));
                    }
                    other => {
                        return Err(EngineError::Protocol {
                            detail: format!(
                                "unexpected {other:?} frame from partition {j} during collect"
                            ),
                        })
                    }
                }
            };
            // Canonicalise: injected reordering sorts out, duplicates drop
            // out, and the sentinel convicts any genuine loss.
            got.sort_by_key(|(seq, _, _)| *seq);
            got.dedup_by_key(|(seq, _, _)| *seq);
            let done = self.recv_done.get_mut(j).ok_or_else(|| bad_peer(j))?;
            let mut covered = *done;
            for (seq, _, _) in &got {
                if *seq != covered + 1 {
                    return Err(EngineError::FrameLoss {
                        peer: j as u16,
                        expected: watermark,
                        got: covered,
                    });
                }
                covered = *seq;
            }
            if covered != watermark {
                return Err(EngineError::FrameLoss {
                    peer: j as u16,
                    expected: watermark,
                    got: covered,
                });
            }
            *done = watermark;
            out.extend(got.into_iter().map(|(_, kind, payload)| (kind, payload)));
        }
        let t1 = self.tracer.now();
        self.tracer.span_at("net.recv", t0, t1);
        self.tracer
            .counter("net.bytes_recv", self.peer_bytes_received);
        Ok(out)
    }

    /// One coordinator round: contribute, receive the folded aggregate.
    fn coord_round(&mut self, c: Contribution) -> Result<Aggregate, EngineError> {
        let t0 = self.tracer.now();
        self.coord.send(&Frame::control(
            FrameKind::Contribution,
            self.partition,
            self.epoch,
            encode_payload(&c),
        ))?;
        let frame = self.coord.recv()?;
        let result = match frame.kind {
            FrameKind::Aggregate => {
                if frame.epoch != self.epoch {
                    return Err(EngineError::Protocol {
                        detail: format!(
                            "aggregate carries epoch {} (expected {})",
                            frame.epoch, self.epoch
                        ),
                    });
                }
                decode_payload::<Aggregate>(frame.payload)
            }
            FrameKind::Abort => {
                let abort: AbortMsg = decode_payload(frame.payload)?;
                Err(EngineError::RemoteWorkerDied {
                    partition: abort.dead_partition,
                    detail: abort.detail,
                })
            }
            other => Err(EngineError::Protocol {
                detail: format!("unexpected {other:?} frame from coordinator at a barrier"),
            }),
        };
        let t1 = self.tracer.now();
        self.tracer.span_at("net.barrier", t0, t1);
        result
    }
}

impl Transport for Tcp {
    fn num_partitions(&self) -> usize {
        self.peers_tx.len()
    }

    fn send(&mut self, dst: u16, kind: BatchKind, bytes: Bytes) -> Result<u64, EngineError> {
        let t0 = self.tracer.now();
        let d = dst as usize;
        let fkind = match kind {
            BatchKind::Superstep => FrameKind::DataSuperstep,
            BatchKind::NextTimestep => FrameKind::DataNextTimestep,
        };
        self.frames_sent += 1;
        let seq = {
            let s = self.send_seq.get_mut(d).ok_or_else(|| bad_peer(d))?;
            *s += 1;
            *s
        };
        let frame = Frame {
            kind: fkind,
            sender: self.partition,
            epoch: self.epoch,
            seq,
            payload: bytes,
        };
        let fault = self
            .faults
            .as_ref()
            .and_then(|f| f.frame_fault(self.partition, self.frames_sent));
        let retransmits = self.deliver(d, frame, fault)?;
        let t1 = self.tracer.now();
        self.tracer
            .span_arg_at("net.send", t0, t1, "peer", dst as u64);
        self.tracer.counter("net.bytes_sent", self.peer_bytes_sent);
        Ok(retransmits)
    }

    fn close_phase(&mut self, c: Contribution) -> Result<(Aggregate, PhaseMail), EngineError> {
        // Flush Reorder holds and declare this phase's watermark to every
        // peer, ascending — before contributing (module docs).
        let me = self.partition as usize;
        for d in 0..self.peers_tx.len() {
            if d == me {
                continue;
            }
            if let Some(prev) = self.held.get_mut(d).and_then(Option::take) {
                self.send_to_peer(d, &prev)?;
            }
            let sentinel = Frame {
                kind: FrameKind::Sentinel,
                sender: self.partition,
                epoch: self.epoch,
                seq: self.send_seq.get(d).copied().ok_or_else(|| bad_peer(d))?,
                payload: Bytes::new(),
            };
            self.send_to_peer(d, &sentinel)?;
        }
        let agg = self.coord_round(c)?;
        Ok((agg, self.collect()?))
    }

    fn barrier(&mut self) -> Result<(), EngineError> {
        self.coord_round(Contribution::default()).map(|_| ())
    }

    fn wants_telemetry(&self) -> bool {
        self.telemetry_armed
    }

    fn telemetry(&mut self, mut flush: TelemetryFlush) -> Result<(), EngineError> {
        // The transport's own net.* spans and byte counters ride along
        // with the worker's events — same track, merged at assembly.
        flush.events.extend(self.tracer.take_events());
        let msg = TelemetryMsg {
            timestep: flush.timestep,
            supersteps: flush.supersteps,
            barrier_wait_ns: flush.barrier_wait_ns,
            clock_ns: self.tracer.now(),
            bytes_sent: self.coord.bytes_sent() + self.peer_bytes_sent,
            bytes_received: self.coord.bytes_received() + self.peer_bytes_received,
            final_flush: flush.final_flush,
            events: flush
                .events
                .iter()
                .map(TraceEventWire::from_event)
                .collect(),
            shard: flush.shard.as_ref().map(MetricsShardWire::from_shard),
            attr: flush.attr_rows.iter().map(AttrRowWire::from_row).collect(),
        };
        self.coord_send(&Frame::control(
            FrameKind::Telemetry,
            self.partition,
            self.epoch,
            encode_payload(&msg),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(b: &[u8]) -> Bytes {
        Bytes::copy_from_slice(b)
    }

    #[test]
    fn in_process_transport_round_trips_and_synchronises() {
        let sync = SyncPoint::new(1);
        let (tx, rx) = unbounded();
        // One channel, addressed as partition 0, with "self" labelled 1 so
        // the sends count as remote — one thread exercises the whole loop.
        let mut t = InProcess::new(1, rx, vec![tx], &sync);
        assert_eq!(t.num_partitions(), 1);
        t.send(0, BatchKind::Superstep, bytes(b"abc")).unwrap();
        t.send(0, BatchKind::NextTimestep, bytes(b"xyz")).unwrap();
        let (agg, got) = t
            .close_phase(Contribution {
                msgs_sent: 3,
                all_halted: true,
            })
            .unwrap();
        assert_eq!(
            got,
            vec![
                (BatchKind::Superstep, bytes(b"abc")),
                (BatchKind::NextTimestep, bytes(b"xyz")),
            ]
        );
        assert_eq!(agg.total_msgs, 3);
        assert!(agg.all_halted);
        t.barrier().unwrap();
    }

    /// The phase fence: a peer one phase ahead gets its batch delivered by
    /// the *next* collect, a barrier in between closes nothing, and a peer
    /// two phases ahead is a protocol error.
    #[test]
    fn in_process_holds_the_next_generation_and_rejects_the_one_after() {
        let sync = SyncPoint::new(1);
        let (tx, rx) = unbounded();
        let peer = tx.clone();
        let mut t = InProcess::new(0, rx, vec![tx], &sync);
        let c = Contribution::default();
        // The peer already closed phase 0 and sends for phase 1 before this
        // worker collects phase 0.
        peer.send((0, BatchKind::Superstep, bytes(b"g0"))).unwrap();
        peer.send((1, BatchKind::Superstep, bytes(b"g1"))).unwrap();
        let (_, got) = t.close_phase(c).unwrap();
        assert_eq!(got, vec![(BatchKind::Superstep, bytes(b"g0"))]);
        t.barrier().unwrap();
        peer.send((1, BatchKind::NextTimestep, bytes(b"g1b")))
            .unwrap();
        let (_, got) = t.close_phase(c).unwrap();
        assert_eq!(
            got,
            vec![
                (BatchKind::Superstep, bytes(b"g1")),
                (BatchKind::NextTimestep, bytes(b"g1b")),
            ]
        );
        // Now collecting generation 2: generation 4 is two ahead.
        peer.send((4, BatchKind::Superstep, bytes(b"g4"))).unwrap();
        assert!(matches!(
            t.close_phase(c),
            Err(EngineError::Protocol { .. })
        ));
    }
}
