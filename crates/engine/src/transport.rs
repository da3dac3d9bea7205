//! The worker's transport: its links to the coordinator and to every peer.
//!
//! The executor's worker loop talks to its cluster through one type,
//! `WorkerLinks`: ship encoded `MessageBatch` frames to peers
//! (`WorkerLinks::send`) and close the phase
//! (`WorkerLinks::close_phase`: one coordinator round that folds the
//! halting votes, then every frame peers shipped here during the phase).
//! Its links are sockets — a full mesh of framed TCP connections, one per
//! unordered worker pair, plus one control connection to the coordinator
//! — or, for [`crate::Cluster::InProcess`], the in-memory links of
//! [`crate::net`]. The protocol above them is the same: frames, sequence
//! numbers, sentinels, Contribution → Aggregate rounds and Abort frames.
//! Which links a job's workers get is the [`crate::Cluster`] choice of the
//! one driver in [`crate::cluster`].
//!
//! **The sentinel, not a second barrier, fences phases.** A worker that
//! has closed phase g may send for g+1 while a slower peer still collects
//! g. The sender's [`crate::net::FrameKind::Sentinel`] keeps that traffic
//! out of the peer's phase-g mail: it is written *before* the
//! Contribution, so it is in flight when any Aggregate comes back, and
//! per-link FIFO puts g+1 frames behind it. Workers drift by at most one
//! phase (round g+1 needs every worker's contribution, sent only after
//! collecting g).
//!
//! **Why every cluster produces byte-identical results.** Delivery order
//! is canonicalised *after* transport: staged runs are merged by the
//! globally unique `(from, seq)` key, so arrival nondeterminism cannot
//! leak into algorithm output. Barrier decisions are pure functions of the
//! folded [`Aggregate`]. The cross-cluster equivalence suite
//! (`tests/transport_equivalence.rs`) asserts this
//! fingerprint-for-fingerprint.
//!
//! **Links are reliable FIFOs, and the receiver checks that they are.** A
//! socket and an in-memory queue both deliver a peer's frames once, in
//! send order and undamaged, or fail. Each data frame carries a
//! per-(sender → receiver) sequence number counted from 1, and every phase
//! ends with a Sentinel watermark declaring the cumulative count. The
//! receiver checks, frame by frame, that each data frame's seq is the
//! previous one + 1 and that the watermark equals the last seq; a repeated,
//! reordered or damaged frame is a [`EngineError::Protocol`] error and a
//! short count is [`EngineError::FrameLoss`], each naming the peer. Nothing
//! is repaired: there is no retransmission to wait for.
//!
//! **Failure attribution.** A worker learns of a dead peer from a lost
//! mesh link or from the coordinator's Abort frame; the failing call
//! returns [`EngineError::RemoteWorkerDied`] naming the partition that
//! died *first*, never the cascade. What the driver does with that is in
//! [`crate::cluster`].

use crate::cluster::{Aggregate, Contribution};
use crate::error::EngineError;
use crate::net::{
    accept_with_deadline, connect_with_retry, decode_payload, encode_payload, net_err, read_frame,
    AbortMsg, Frame, FrameConn, FrameKind, PeerLink, TelemetryMsg,
};
use bytes::{Bytes, BytesMut};
use std::io::BufReader;
use std::net::TcpListener;
use tempograph_core::wire::WireMsg;
use tempograph_trace::TraceSink;

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

/// Typed out-of-range error for a peer index. Every per-peer state vector
/// (`peers`, `send_seq`, `recv_seq`) shares the mesh length, so
/// this only fires on a corrupt partition id.
fn bad_peer(d: usize) -> EngineError {
    EngineError::Protocol {
        detail: format!("no mesh state for partition {d}"),
    }
}

/// Build one worker's socket mesh: dial every lower-numbered partition
/// (sending a PeerHello naming us), accept every higher-numbered one
/// (identified by *its* PeerHello) — one full-duplex connection per
/// unordered pair. Entry `p` is the link to partition `p`; our own is
/// `None`.
pub(crate) fn connect_mesh(
    partition: u16,
    epoch: u32,
    listener: &TcpListener,
    peer_addrs: &[String],
) -> Result<Vec<Option<PeerLink>>, EngineError> {
    let k = peer_addrs.len();
    let me = partition as usize;
    let mut peers: Vec<Option<PeerLink>> = (0..k).map(|_| None).collect();
    for (j, addr) in peer_addrs.iter().enumerate().take(me) {
        let label = format!("partition {j}");
        let stream = connect_with_retry(addr, &label)?;
        stream
            .set_nodelay(true)
            .map_err(net_err(format!("configuring connection to {label}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(net_err(format!("cloning connection to {label}")))?,
        );
        let mut link = PeerLink::socket(stream, reader, label);
        link.send(&Frame {
            kind: FrameKind::PeerHello,
            sender: partition,
            epoch,
            seq: 0,
            payload: Bytes::new(),
        })?;
        peers[j] = Some(link);
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
        if j >= k || j == me || peers[j].is_some() {
            return Err(EngineError::Protocol {
                detail: format!("unexpected PeerHello from partition {j}"),
            });
        }
        peers[j] = Some(PeerLink::socket(stream, reader, format!("partition {j}")));
    }
    Ok(peers)
}

/// One worker's transport: its coordinator connection and its peer mesh,
/// over sockets or in-memory links alike. See the module docs for the
/// phase fence and the in-order and failure-attribution contracts.
pub(crate) struct WorkerLinks {
    partition: u16,
    epoch: u32,
    coord: FrameConn,
    /// Link to each partition, indexed by partition; `None` for our own.
    peers: Vec<Option<PeerLink>>,
    /// Data frames sent per peer this epoch (the next frame's seq − 1, and
    /// the sentinel watermark).
    send_seq: Vec<u64>,
    /// Seq of the last data frame received from each peer this epoch.
    recv_seq: Vec<u64>,
    tracer: TraceSink,
    peer_bytes_sent: u64,
    peer_bytes_received: u64,
    /// Whether the worker loop should hand this transport a round report
    /// per closed timestep (any of trace/metrics/attribution armed). When
    /// false, no Telemetry frame is ever built or sent.
    telemetry_armed: bool,
    /// The last round report's payload. The coordinator has dropped its
    /// view by the time the next report is due (the round in between
    /// needed it read), so the next report reuses the buffer.
    report: Option<Bytes>,
}

impl WorkerLinks {
    /// Assemble a worker's transport over its established links for
    /// `epoch`: `peers` is indexed by partition, with `None` for itself.
    pub(crate) fn new(
        partition: u16,
        epoch: u32,
        coord: FrameConn,
        peers: Vec<Option<PeerLink>>,
        tracer: TraceSink,
        telemetry_armed: bool,
    ) -> WorkerLinks {
        let k = peers.len();
        WorkerLinks {
            partition,
            epoch,
            coord,
            peers,
            send_seq: vec![0; k],
            recv_seq: vec![0; k],
            tracer,
            peer_bytes_sent: 0,
            peer_bytes_received: 0,
            telemetry_armed,
            report: None,
        }
    }

    /// Number of partitions in the cluster (== workers, == peers + self).
    pub(crate) fn num_partitions(&self) -> usize {
        self.peers.len()
    }

    /// Hand over the transport's own `net.*` sink at the end of the job;
    /// the worker ships it home with its results, on the partition's track.
    pub(crate) fn take_tracer(&mut self) -> TraceSink {
        std::mem::replace(&mut self.tracer, TraceSink::inert())
    }

    /// Send one control frame to the coordinator (also used by the worker
    /// wrapper after the run, for Output/Abort frames).
    pub(crate) fn coord_send(&mut self, frame: &Frame) -> Result<(), EngineError> {
        self.coord.send(frame)
    }

    /// Block until the coordinator rules on a death this worker reported:
    /// its Abort frame, or its connection closing.
    pub(crate) fn await_ruling(&mut self) {
        while let Ok(frame) = self.coord.recv() {
            if frame.kind == FrameKind::Abort {
                break;
            }
        }
    }

    /// The link to peer `d`.
    fn link(&mut self, d: usize) -> Result<&mut PeerLink, EngineError> {
        self.peers
            .get_mut(d)
            .and_then(Option::as_mut)
            .ok_or_else(|| EngineError::Protocol {
                detail: format!("no mesh connection to partition {d}"),
            })
    }

    /// Write `frame` to peer `d`, promoting any link failure to
    /// [`EngineError::RemoteWorkerDied`] naming that peer: a mesh link only
    /// fails when the worker behind it is gone, and naming it is what lets
    /// the coordinator distinguish primary from cascade.
    fn send_to_peer(&mut self, d: usize, frame: &Frame) -> Result<(), EngineError> {
        match self.link(d)?.send(frame) {
            Ok(n) => {
                self.peer_bytes_sent += n as u64;
                Ok(())
            }
            // Refused before writing: this worker's fault, not the peer's.
            Err(e @ EngineError::FrameTooLarge { .. }) => Err(e),
            Err(e) => Err(EngineError::RemoteWorkerDied {
                partition: d as u16,
                detail: e.to_string(),
            }),
        }
    }

    /// Collect each peer's frames up to its sentinel, ascending, checking
    /// that each link delivered them once and in order (module docs).
    /// Blocking is safe: the round that precedes every collect proves all
    /// peers sent their sentinel, and per-link FIFO puts this phase's data
    /// before it and the next phase's behind it.
    fn collect(&mut self) -> Result<PhaseMail, EngineError> {
        let t0 = self.tracer.now();
        let me = self.partition as usize;
        let mut out = PhaseMail::new();
        for j in 0..self.peers.len() {
            if j == me {
                continue;
            }
            let mut last = self.recv_seq.get(j).copied().ok_or_else(|| bad_peer(j))?;
            loop {
                let (frame, n) = match self.link(j)?.recv() {
                    Ok(pair) => pair,
                    Err(e @ EngineError::Wire(_)) => {
                        return Err(EngineError::Protocol {
                            detail: format!("damaged frame from partition {j}: {e}"),
                        })
                    }
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
                let kind = match frame.kind {
                    FrameKind::Sentinel if frame.seq == last => break,
                    FrameKind::Sentinel => {
                        return Err(EngineError::FrameLoss {
                            peer: j as u16,
                            expected: frame.seq,
                            got: last,
                        })
                    }
                    FrameKind::DataSuperstep => BatchKind::Superstep,
                    FrameKind::DataNextTimestep => BatchKind::NextTimestep,
                    other => {
                        return Err(EngineError::Protocol {
                            detail: format!(
                                "unexpected {other:?} frame from partition {j} during collect"
                            ),
                        })
                    }
                };
                if frame.seq != last + 1 {
                    return Err(EngineError::Protocol {
                        detail: format!(
                            "data frame from partition {j} carries seq {} (expected {})",
                            frame.seq,
                            last + 1
                        ),
                    });
                }
                last = frame.seq;
                out.push((kind, frame.payload));
            }
            *self.recv_seq.get_mut(j).ok_or_else(|| bad_peer(j))? = last;
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

    /// Ship one encoded `MessageBatch` frame to partition `dst`.
    pub(crate) fn send(
        &mut self,
        dst: u16,
        kind: BatchKind,
        bytes: Bytes,
    ) -> Result<(), EngineError> {
        let t0 = self.tracer.now();
        let d = dst as usize;
        let fkind = match kind {
            BatchKind::Superstep => FrameKind::DataSuperstep,
            BatchKind::NextTimestep => FrameKind::DataNextTimestep,
        };
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
        self.send_to_peer(d, &frame)?;
        let t1 = self.tracer.now();
        self.tracer
            .span_arg_at("net.send", t0, t1, "peer", dst as u64);
        self.tracer.counter("net.bytes_sent", self.peer_bytes_sent);
        Ok(())
    }

    /// Close the current phase (a superstep, or a timestep's tail): send
    /// every peer this phase's sentinel, take part in one coordinator
    /// round that folds every worker's [`Contribution`] into the global
    /// [`Aggregate`], then collect every frame peers shipped here during
    /// the phase — exactly those, even if a faster peer is already sending
    /// the next phase's (module docs).
    pub(crate) fn close_phase(
        &mut self,
        c: Contribution,
    ) -> Result<(Aggregate, PhaseMail), EngineError> {
        // Declare this phase's watermark to every peer, ascending — before
        // contributing.
        let me = self.partition as usize;
        for d in 0..self.peers.len() {
            if d == me {
                continue;
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

    /// A coordinator round that closes no phase: the two checkpoint-commit
    /// barriers. Sends no sentinel, so it cannot be mistaken for one.
    pub(crate) fn barrier(&mut self) -> Result<(), EngineError> {
        self.coord_round(Contribution::default()).map(|_| ())
    }

    /// Whether the worker should hand this transport a round report per
    /// closed timestep. When false, the report site is one branch: no
    /// report is built, nothing allocates.
    pub(crate) fn wants_telemetry(&self) -> bool {
        self.telemetry_armed
    }

    /// Send one round report to the coordinator's status board and
    /// straggler judge, once per closed timestep. The worker fills the
    /// round's fields; the transport adds its clock and byte counters.
    /// Trace sinks, metrics and attribution go home with the worker's
    /// results instead.
    pub(crate) fn telemetry(&mut self, mut msg: TelemetryMsg) -> Result<(), EngineError> {
        msg.clock_ns = self.tracer.now();
        msg.bytes_sent = self.coord.bytes_sent() + self.peer_bytes_sent;
        msg.bytes_received = self.coord.bytes_received() + self.peer_bytes_received;
        // 40 bytes: a report's wire size (six fixed-width fields).
        let mut buf = self
            .report
            .take()
            .and_then(|last| last.try_into_mut().ok())
            .unwrap_or_else(|| BytesMut::with_capacity(40));
        buf.clear();
        msg.encode(&mut buf);
        let payload = buf.freeze();
        self.report = Some(payload.clone());
        self.coord_send(&Frame::control(
            FrameKind::Telemetry,
            self.partition,
            self.epoch,
            payload,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{bind_loopback, HEADER_LEN};

    const EPOCH: u32 = 3;

    fn bytes(b: &[u8]) -> Bytes {
        Bytes::copy_from_slice(b)
    }

    /// Worker 0 of a `k`-worker cluster over in-memory links, with the
    /// coordinator's end of its connection and each peer's end of its mesh
    /// link (index `p - 1` for partition `p`) — one thread plays everyone.
    fn worker0(k: usize, telemetry: bool) -> (WorkerLinks, FrameConn, Vec<PeerLink>) {
        let (coord, mine) = FrameConn::pair("worker 0", "coordinator");
        let (ours, theirs): (Vec<_>, Vec<_>) = (1..k)
            .map(|p| PeerLink::pair(&format!("partition {p}"), "partition 0"))
            .unzip();
        let peers = std::iter::once(None).chain(ours.into_iter().map(Some));
        let links = WorkerLinks::new(
            0,
            EPOCH,
            mine,
            peers.collect(),
            TraceSink::inert(),
            telemetry,
        );
        (links, coord, theirs)
    }

    fn data(from: u16, seq: u64, payload: &[u8]) -> Frame {
        Frame {
            kind: FrameKind::DataSuperstep,
            sender: from,
            epoch: EPOCH,
            seq,
            payload: bytes(payload),
        }
    }

    fn sentinel(from: u16, watermark: u64) -> Frame {
        Frame {
            kind: FrameKind::Sentinel,
            sender: from,
            epoch: EPOCH,
            seq: watermark,
            payload: Bytes::new(),
        }
    }

    /// The coordinator's release of one round, queued ahead of the round.
    fn release(coord: &mut FrameConn, total_msgs: u64) {
        let agg = Aggregate {
            total_msgs,
            all_halted: false,
        };
        let frame = Frame::control(FrameKind::Aggregate, u16::MAX, EPOCH, encode_payload(&agg));
        coord.send(&frame).unwrap();
    }

    /// Sends, one coordinator round, the peer's mail, and a round report
    /// whose byte counters are the wire sizes a socket would count.
    #[test]
    fn in_process_transport_round_trips_and_synchronises() {
        let (mut links, mut coord, mut peers) = worker0(2, true);
        assert_eq!(links.num_partitions(), 2);
        links.send(1, BatchKind::Superstep, bytes(b"abc")).unwrap();
        links
            .send(1, BatchKind::NextTimestep, bytes(b"xyz"))
            .unwrap();
        let peer = &mut peers[0];
        peer.send(&data(1, 1, b"hello")).unwrap();
        peer.send(&sentinel(1, 1)).unwrap();
        release(&mut coord, 9);
        let c = Contribution {
            msgs_sent: 3,
            all_halted: true,
        };
        let (agg, mail) = links.close_phase(c).unwrap();
        assert_eq!(agg.total_msgs, 9);
        assert_eq!(mail, vec![(BatchKind::Superstep, bytes(b"hello"))]);
        let round = coord.recv().unwrap();
        assert_eq!(round.kind, FrameKind::Contribution);
        assert_eq!(decode_payload::<Contribution>(round.payload).unwrap(), c);
        let kinds: Vec<(FrameKind, u64)> = (0..3)
            .map(|_| peer.recv().unwrap().0)
            .map(|f| (f.kind, f.seq))
            .collect();
        assert_eq!(
            kinds,
            [
                (FrameKind::DataSuperstep, 1),
                (FrameKind::DataNextTimestep, 2),
                (FrameKind::Sentinel, 2)
            ]
        );

        links.telemetry(TelemetryMsg::default()).unwrap();
        let report: TelemetryMsg = decode_payload(coord.recv().unwrap().payload).unwrap();
        let contribution_len = encode_payload(&c).len();
        let agg_len = encode_payload(&agg).len();
        assert_eq!(
            report.bytes_sent,
            (4 * HEADER_LEN + 6 + contribution_len) as u64
        );
        assert_eq!(report.bytes_received, (3 * HEADER_LEN + 5 + agg_len) as u64);
    }

    /// The phase fence: a peer one phase ahead has its next frame queued
    /// behind its sentinel, and only the next collect delivers it.
    #[test]
    fn frames_behind_a_sentinel_wait_for_the_next_collect() {
        let (mut links, mut coord, mut peers) = worker0(2, false);
        let peer = &mut peers[0];
        peer.send(&data(1, 1, b"g0")).unwrap();
        peer.send(&sentinel(1, 1)).unwrap();
        peer.send(&data(1, 2, b"g1")).unwrap();
        release(&mut coord, 0);
        let (_, mail) = links.close_phase(Contribution::default()).unwrap();
        assert_eq!(mail, vec![(BatchKind::Superstep, bytes(b"g0"))]);
        // A barrier in between closes no phase and touches no mail.
        release(&mut coord, 0);
        links.barrier().unwrap();
        peer.send(&sentinel(1, 2)).unwrap();
        release(&mut coord, 0);
        let (_, mail) = links.close_phase(Contribution::default()).unwrap();
        assert_eq!(mail, vec![(BatchKind::Superstep, bytes(b"g1"))]);
    }

    /// Links deliver once and in order, so the receiver repairs nothing:
    /// a repeated seq, two swapped frames and a gap below the watermark
    /// each end the phase in a typed error naming the peer. (A damaged
    /// frame is the socket case below; an in-memory link cannot damage
    /// one.)
    #[test]
    fn duplicates_drop_and_a_gap_is_frame_loss() {
        let names_peer_1 = |r: Result<(Aggregate, PhaseMail), EngineError>| match r {
            Err(EngineError::Protocol { detail }) => {
                assert!(detail.contains("partition 1"), "{detail}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        };
        let cases: [&[Frame]; 2] = [
            &[data(1, 1, b"one"), data(1, 1, b"one"), sentinel(1, 1)],
            &[data(1, 2, b"two"), data(1, 1, b"one"), sentinel(1, 2)],
        ];
        for frames in cases {
            let (mut links, mut coord, mut peers) = worker0(2, false);
            for f in frames {
                peers[0].send(f).unwrap();
            }
            release(&mut coord, 0);
            names_peer_1(links.close_phase(Contribution::default()));
        }

        let (mut links, mut coord, mut peers) = worker0(2, false);
        let peer = &mut peers[0];
        peer.send(&data(1, 1, b"one")).unwrap();
        peer.send(&sentinel(1, 1)).unwrap();
        release(&mut coord, 0);
        let (_, mail) = links.close_phase(Contribution::default()).unwrap();
        assert_eq!(mail, vec![(BatchKind::Superstep, bytes(b"one"))]);
        // Seq 2 never arrives; the next phase's data starts at 3.
        peer.send(&data(1, 3, b"three")).unwrap();
        peer.send(&sentinel(1, 3)).unwrap();
        release(&mut coord, 0);
        names_peer_1(links.close_phase(Contribution::default()));
        // Seq 2 never arrives and the sentinel declares it.
        let (mut links, mut coord, mut peers) = worker0(2, false);
        peers[0].send(&data(1, 1, b"one")).unwrap();
        peers[0].send(&sentinel(1, 2)).unwrap();
        release(&mut coord, 0);
        assert_eq!(
            links.close_phase(Contribution::default()),
            Err(EngineError::FrameLoss {
                peer: 1,
                expected: 2,
                got: 1
            })
        );
    }

    /// A frame whose payload was damaged on a real socket ends the phase in
    /// a typed error naming the peer at once: nothing will retransmit it.
    #[test]
    fn a_damaged_frame_on_a_socket_is_a_typed_error() {
        use std::io::Write;
        use std::net::TcpStream;
        let (listener, addr) = match bind_loopback("a test peer") {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("NOTICE: loopback unavailable ({e}); skipping");
                return;
            }
        };
        let mut peer_end = TcpStream::connect(&addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let (mut coord, mine) = FrameConn::pair("worker 0", "coordinator");
        let link = PeerLink::socket(stream, reader, "partition 1".into());
        let mut links = WorkerLinks::new(
            0,
            EPOCH,
            mine,
            vec![None, Some(link)],
            TraceSink::inert(),
            false,
        );
        let mut wire = data(1, 1, b"payload").encode().to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0xff; // a payload byte
        peer_end.write_all(&wire).unwrap();
        // The peer then hangs up, so a receiver waiting for a
        // retransmission sees the link end instead of blocking forever.
        drop(peer_end);
        release(&mut coord, 0);
        match links.close_phase(Contribution::default()) {
            Err(EngineError::Protocol { detail }) => {
                assert!(detail.contains("partition 1"), "{detail}");
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn a_frame_from_another_epoch_is_a_protocol_error() {
        let (mut links, mut coord, mut peers) = worker0(2, false);
        let mut stale = data(1, 1, b"old");
        stale.epoch = EPOCH - 1;
        peers[0].send(&stale).unwrap();
        release(&mut coord, 0);
        assert!(matches!(
            links.close_phase(Contribution::default()),
            Err(EngineError::Protocol { .. })
        ));
    }

    /// A dropped peer link is that peer's death; the coordinator's Abort
    /// names the primary death, whichever peer it is.
    #[test]
    fn a_dropped_link_and_an_abort_name_the_dead_partition() {
        let (mut links, mut coord, mut peers) = worker0(3, false);
        drop(peers.remove(0));
        release(&mut coord, 0);
        assert!(matches!(
            links.close_phase(Contribution::default()),
            Err(EngineError::RemoteWorkerDied { partition: 1, .. })
        ));

        let (mut links, mut coord, _peers) = worker0(3, false);
        let abort = AbortMsg {
            dead_partition: 2,
            detail: "killed".into(),
        };
        let frame = Frame::control(FrameKind::Abort, u16::MAX, 0, encode_payload(&abort));
        coord.send(&frame).unwrap();
        assert_eq!(
            links.barrier(),
            Err(EngineError::RemoteWorkerDied {
                partition: 2,
                detail: "killed".into()
            })
        );
    }
}
