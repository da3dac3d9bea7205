//! Coordinator-side telemetry plane and live status board.
//!
//! Workers of a TCP cluster ship their observability (trace events,
//! metrics shards, attribution rows) to the coordinator in
//! [`FrameKind::Telemetry`] frames — one per closed timestep plus a final
//! flush (see [`crate::transport::TelemetryFlush`]). `CoordTelemetry`
//! accumulates them during [`crate::cluster`]'s epochs, judges stragglers
//! over complete barrier rounds, and grafts the result back onto the
//! epoch's worker outputs so the assembled [`crate::JobResult`] carries
//! what an in-process run folds directly. The same frames feed the
//! status board that `tempograph status` queries over
//! [`query_status`].

use crate::error::EngineError;
use crate::executor::WorkerOutput;
use crate::metrics::{AttributionRow, MetricsShard};
use crate::net::{
    connect_with_retry, decode_payload, encode_payload, net_err, AttrRowWire, Frame, FrameConn,
    FrameKind, StatusReplyMsg, TelemetryMsg, TraceEventWire, WorkerStatusWire, COORDINATOR,
};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tempograph_trace::{Clock, TraceEvent, TraceSink};

/// Per-partition observability accumulated at the coordinator from
/// Telemetry frames.
struct PartTelemetry {
    /// Decoded trace events, in arrival order (worker clock domain).
    events: Vec<TraceEvent>,
    /// Latest cumulative metrics-shard snapshot.
    shard: Option<MetricsShard>,
    /// Latest cumulative attribution snapshot.
    attr_rows: Vec<AttributionRow>,
}

/// The coordinator's half of the telemetry plane: ingests Telemetry frames
/// while an epoch is served, keeps the live status board, judges
/// stragglers over complete barrier rounds, and grafts the accumulated
/// observability back onto the epoch's outputs so result assembly sees
/// exactly what an in-process epoch hands it directly.
pub(crate) struct CoordTelemetry {
    parts: Vec<PartTelemetry>,
    /// Straggler threshold (multiple of the round's median barrier wait).
    straggler_factor: f64,
    /// Barrier-wait reports per timestep — `(partition, wait_ns,
    /// clock_ns)` per worker — judged once the round is complete.
    rounds: BTreeMap<u32, Vec<(u16, u64, u64)>>,
    /// Live status board, shared with the status-server thread.
    board: Arc<Mutex<StatusBoard>>,
}

impl CoordTelemetry {
    pub(crate) fn new(k: usize, straggler_factor: f64) -> CoordTelemetry {
        CoordTelemetry {
            parts: (0..k)
                .map(|_| PartTelemetry {
                    events: Vec::new(),
                    shard: None,
                    attr_rows: Vec::new(),
                })
                .collect(),
            straggler_factor,
            rounds: BTreeMap::new(),
            board: Arc::new(Mutex::new(StatusBoard::new(k))),
        }
    }

    /// Discard a failed epoch's accumulation. The relaunched workers
    /// re-record events from the restore point and re-send cumulative
    /// snapshots, so keeping the dead epoch's state would double count —
    /// this mirrors an in-process cluster, whose result only carries the
    /// final successful epoch's sinks and shards.
    pub(crate) fn reset(&mut self, epoch: u32) {
        for part in &mut self.parts {
            part.events.clear();
            part.shard = None;
            part.attr_rows.clear();
        }
        self.rounds.clear();
        lock_board(&self.board).reset(epoch);
    }

    /// Ingest one Telemetry frame from partition `p`: append drained
    /// events, replace cumulative snapshots, update the status board, and
    /// judge the barrier round once all `k` workers reported it.
    pub(crate) fn ingest(&mut self, p: usize, payload: Bytes) -> Result<(), EngineError> {
        let msg: TelemetryMsg = decode_payload(payload)?;
        if p >= self.parts.len() {
            return Err(EngineError::Protocol {
                detail: format!("telemetry from unknown partition {p}"),
            });
        }
        lock_board(&self.board).note(p as u16, &msg);
        if !msg.final_flush {
            let k = self.parts.len();
            let round = self.rounds.entry(msg.timestep).or_default();
            round.push((p as u16, msg.barrier_wait_ns, msg.clock_ns));
            if round.len() == k {
                let round = self.rounds.remove(&msg.timestep).unwrap_or_default();
                self.judge_round(round);
            }
        }
        if let Some(part) = self.parts.get_mut(p) {
            part.events
                .extend(msg.events.into_iter().map(TraceEventWire::into_event));
            if let Some(shard) = msg.shard {
                part.shard = Some(shard.into_shard());
            }
            part.attr_rows = msg.attr.into_iter().map(AttrRowWire::into_row).collect();
        }
        Ok(())
    }

    /// A complete barrier round: any worker whose wait exceeded
    /// `straggler_factor` × the round's median earns a
    /// `straggler.detected` instant on its own track — timestamped in the
    /// worker's clock domain, with the wait riding the `wait_ns` arg (the
    /// partition is the track identity).
    fn judge_round(&mut self, round: Vec<(u16, u64, u64)>) {
        let mut waits: Vec<u64> = round.iter().map(|&(_, w, _)| w).collect();
        waits.sort_unstable();
        let median = waits.get(waits.len() / 2).copied().unwrap_or(0);
        if median == 0 {
            return;
        }
        let threshold = median as f64 * self.straggler_factor;
        for (p, wait, clock_ns) in round {
            if (wait as f64) > threshold {
                if let Some(part) = self.parts.get_mut(p as usize) {
                    part.events.push(TraceEvent::Instant {
                        name: "straggler.detected",
                        ts_ns: clock_ns,
                        arg: Some(("wait_ns", wait)),
                    });
                }
            }
        }
    }

    /// Serve this telemetry's status board on `addr` until the returned
    /// handle drops.
    pub(crate) fn serve_status(&self, addr: &str) -> Result<StatusServer, EngineError> {
        StatusServer::spawn(addr, self.board.clone())
    }

    /// Graft the accumulated observability onto the epoch's outputs:
    /// per-partition recorded sinks, the latest shard snapshots, and the
    /// latest attribution rows.
    pub(crate) fn merge_into(self, outputs: &mut [WorkerOutput]) {
        for (p, (out, part)) in outputs.iter_mut().zip(self.parts).enumerate() {
            if !part.events.is_empty() {
                out.sinks.push((
                    format!("partition {p}"),
                    TraceSink::from_recorded(p as u32, part.events),
                ));
            }
            out.shard = part.shard.map(Box::new);
            out.attr_rows = part.attr_rows;
        }
    }
}

/// The coordinator's live status board: one row per partition, updated on
/// every Telemetry frame, served to `tempograph status` clients.
struct StatusBoard {
    /// Recovery epoch currently being served.
    epoch: u32,
    rows: Vec<WorkerStatusWire>,
    /// Coordinator-clock reading at each partition's last telemetry
    /// (`None` = not heard from this epoch).
    last_seen_ns: Vec<Option<u64>>,
    /// The coordinator clock the last-telemetry ages are measured on.
    clock: Clock,
}

fn blank_row(p: usize, epoch: u32) -> WorkerStatusWire {
    WorkerStatusWire {
        partition: p as u16,
        epoch,
        timestep: 0,
        supersteps: 0,
        barrier_wait_ns: 0,
        bytes_sent: 0,
        bytes_received: 0,
        last_telemetry_ms: u64::MAX,
    }
}

impl StatusBoard {
    fn new(k: usize) -> StatusBoard {
        StatusBoard {
            epoch: 0,
            rows: (0..k).map(|p| blank_row(p, 0)).collect(),
            last_seen_ns: vec![None; k],
            clock: Clock::start(),
        }
    }

    fn reset(&mut self, epoch: u32) {
        let k = self.rows.len();
        self.epoch = epoch;
        self.rows = (0..k).map(|p| blank_row(p, epoch)).collect();
        self.last_seen_ns = vec![None; k];
    }

    fn note(&mut self, p: u16, msg: &TelemetryMsg) {
        let epoch = self.epoch;
        let now = self.clock.elapsed_ns();
        if let (Some(row), Some(seen)) = (
            self.rows.get_mut(p as usize),
            self.last_seen_ns.get_mut(p as usize),
        ) {
            row.epoch = epoch;
            row.timestep = msg.timestep;
            if !msg.final_flush {
                // The final flush closes no new round; keep the last
                // round's superstep count on the board.
                row.supersteps = msg.supersteps;
            }
            row.barrier_wait_ns = row.barrier_wait_ns.max(msg.barrier_wait_ns);
            row.bytes_sent = msg.bytes_sent;
            row.bytes_received = msg.bytes_received;
            *seen = Some(now);
        }
    }

    /// Snapshot with last-telemetry ages materialised (coordinator clock).
    fn snapshot(&self) -> StatusReplyMsg {
        let now = self.clock.elapsed_ns();
        let workers = self
            .rows
            .iter()
            .zip(&self.last_seen_ns)
            .map(|(row, seen)| {
                let mut row = row.clone();
                row.last_telemetry_ms = match seen {
                    Some(t) => now.saturating_sub(*t) / 1_000_000,
                    None => u64::MAX,
                };
                row
            })
            .collect();
        StatusReplyMsg { workers }
    }
}

fn lock_board(board: &Mutex<StatusBoard>) -> std::sync::MutexGuard<'_, StatusBoard> {
    // A poisoned board only means a panicking thread held the lock; the
    // data (plain counters) is still coherent enough to serve.
    board.lock().unwrap_or_else(|e| e.into_inner())
}

/// Handle to the coordinator's status endpoint: a polling accept thread
/// serving one StatusRequest → StatusReply exchange per connection.
/// Stopped and joined on drop, when the job ends.
pub(crate) struct StatusServer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    fn spawn(addr: &str, board: Arc<Mutex<StatusBoard>>) -> Result<StatusServer, EngineError> {
        let listener = TcpListener::bind(addr)
            .map_err(net_err(format!("binding the status listener on {addr}")))?;
        listener
            .set_nonblocking(true)
            .map_err(net_err("configuring the status listener".into()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        if let Ok(mut conn) = FrameConn::new(stream, "status client") {
                            let _ = serve_status_client(&mut conn, &board);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(StatusServer {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One status exchange: expect a StatusRequest, answer with the board.
fn serve_status_client(
    conn: &mut FrameConn,
    board: &Mutex<StatusBoard>,
) -> Result<(), EngineError> {
    let frame = conn.recv()?;
    if frame.kind != FrameKind::StatusRequest {
        return Err(EngineError::Protocol {
            detail: format!("expected StatusRequest, got {:?}", frame.kind),
        });
    }
    let (epoch, reply) = {
        let b = lock_board(board);
        (b.epoch, b.snapshot())
    };
    conn.send(&Frame::control(
        FrameKind::StatusReply,
        COORDINATOR,
        epoch,
        encode_payload(&reply),
    ))
}

/// Query a running coordinator's status board (the `tempograph status`
/// subcommand): one StatusRequest over a fresh connection, one decoded
/// StatusReply back.
pub fn query_status(addr: &str) -> Result<StatusReplyMsg, EngineError> {
    let stream = connect_with_retry(addr, "status server")?;
    let mut conn = FrameConn::new(stream, "status server")?;
    conn.send(&Frame::control(
        FrameKind::StatusRequest,
        COORDINATOR,
        0,
        Bytes::new(),
    ))?;
    let frame = conn.recv()?;
    if frame.kind != FrameKind::StatusReply {
        return Err(EngineError::Protocol {
            detail: format!("expected StatusReply, got {:?}", frame.kind),
        });
    }
    decode_payload(frame.payload)
}
