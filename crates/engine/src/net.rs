//! TCP framing for the [`crate::transport::Tcp`] transport.
//!
//! Everything that crosses a socket is a **frame**: a fixed 33-byte header
//! followed by a checksummed payload. One frame type carries both data
//! (encoded `MessageBatch` bytes) and control traffic (handshakes, barrier
//! contributions/aggregates, abort notices), so a connection needs exactly
//! one reader loop and corruption anywhere surfaces as a typed error.
//!
//! ```text
//! offset  size  field
//!      0     4  magic          b"TGFR"
//!      4     2  version        u16 le (currently 1)
//!      6     1  kind           FrameKind tag
//!      7     2  sender         partition id (u16::MAX = coordinator)
//!      9     4  epoch          recovery attempt this frame belongs to
//!     13     8  seq            per (sender → receiver) data-frame counter,
//!                              counted from 1; 0 for control frames
//!     21     4  len            payload length, u32 le (capped)
//!     25     8  checksum       fnv1a64_words of the payload
//!     33     …  payload
//! ```
//!
//! The header itself is not checksummed: the engine trusts TCP's integrity
//! for the fixed-width fields and uses the payload checksum to catch the
//! one corruption mode the fault plan injects (damaged payload bytes, see
//! [`crate::FrameFault::Truncate`]). A checksum mismatch is detected *after*
//! the whole frame has been consumed, so the stream stays frame-aligned and
//! the receiver can simply await the retransmission.
//!
//! [`Frame::decode`] is a pure buffer decoder (what the codec proptests
//! attack); [`read_frame`]/[`write_frame`] run the same codec over any
//! `Read`/`Write` — an in-memory pipe in tests, a [`FrameConn`]-wrapped
//! `TcpStream` in production.

use crate::error::{EngineError, WireError};
use crate::sync::{Aggregate, Contribution};
use crate::wire::{get_u16, get_u32, get_u64, get_u8, WireMsg};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use tempograph_gofs::codec::fnv1a64_words;
use tempograph_trace::Clock;

/// Frame magic: "TempoGraph FRame".
pub const FRAME_MAGIC: [u8; 4] = *b"TGFR";

/// Current frame format version. Bump on any header/payload layout change;
/// a version mismatch at decode is corruption (mixed-build clusters are not
/// supported). v2 added the telemetry plane ([`FrameKind::Telemetry`],
/// [`FrameKind::StatusRequest`], [`FrameKind::StatusReply`]).
pub const FRAME_VERSION: u16 = 2;

/// Fixed header size in bytes (see the module-level layout table).
pub const HEADER_LEN: usize = 33;

/// Upper bound on a declared payload length. A corrupt `len` field must not
/// make a stream reader allocate gigabytes before the payload read fails.
pub const MAX_PAYLOAD_LEN: u32 = 256 << 20;

/// `sender` value identifying the coordinator (never a valid partition:
/// partition counts are far below `u16::MAX`).
pub const COORDINATOR: u16 = u16::MAX;

/// What a frame carries. Tags are part of the wire format — append only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Worker → coordinator: "partition P is up, my peer listener is at
    /// ADDR". Payload: [`HelloMsg`].
    Hello = 1,
    /// Coordinator → worker: epoch begins. Payload: [`StartMsg`].
    Start = 2,
    /// Worker → coordinator: barrier arrival. Payload: [`Contribution`].
    Contribution = 3,
    /// Coordinator → worker: barrier release. Payload: [`Aggregate`].
    Aggregate = 4,
    /// Coordinator → worker: a peer died, unwind now. Payload: [`AbortMsg`].
    Abort = 5,
    /// Worker → worker: encoded `MessageBatch` for the current superstep.
    DataSuperstep = 6,
    /// Worker → worker: encoded `MessageBatch` for the next timestep.
    DataNextTimestep = 7,
    /// Worker → worker: end-of-phase watermark — "I have sent you `seq`
    /// data frames in total this epoch" — written *before* the phase's
    /// Contribution, so it is in flight by the time any Aggregate returns.
    /// Payload: empty (the watermark rides in the header's `seq` field).
    Sentinel = 8,
    /// Worker → worker: mesh handshake naming the dialing partition.
    PeerHello = 9,
    /// Worker → coordinator: final results. Payload: encoded
    /// `WorkerEssentials`.
    Output = 10,
    /// Worker → coordinator: cumulative observability snapshot (trace
    /// events, metrics shard, attribution rows). Sent once per barrier
    /// round and once at job end, only when observability is armed.
    /// Payload: [`TelemetryMsg`].
    Telemetry = 11,
    /// Introspection client → coordinator: status probe. Payload: empty.
    StatusRequest = 12,
    /// Coordinator → introspection client: per-worker status board.
    /// Payload: [`StatusReplyMsg`].
    StatusReply = 13,
}

impl FrameKind {
    fn tag(self) -> u8 {
        self as u8
    }
}

/// One unit of socket traffic. See the module docs for the byte layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Sending partition ([`COORDINATOR`] for the coordinator).
    pub sender: u16,
    /// Recovery epoch the frame belongs to.
    pub epoch: u32,
    /// Data-frame sequence number (per sender → receiver direction,
    /// counted from 1); watermark for [`FrameKind::Sentinel`]; 0 otherwise.
    pub seq: u64,
    /// The checksummed payload.
    pub payload: Bytes,
}

impl Frame {
    /// A control frame (seq = 0).
    pub fn control(kind: FrameKind, sender: u16, epoch: u32, payload: Bytes) -> Frame {
        Frame {
            kind,
            sender,
            epoch,
            seq: 0,
            payload,
        }
    }

    /// Serialise header + payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + self.payload.len());
        buf.put_slice(&FRAME_MAGIC);
        buf.put_u16_le(FRAME_VERSION);
        buf.put_u8(self.kind.tag());
        buf.put_u16_le(self.sender);
        buf.put_u32_le(self.epoch);
        buf.put_u64_le(self.seq);
        buf.put_u32_le(self.payload.len() as u32);
        buf.put_u64_le(fnv1a64_words(&self.payload));
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Decode one frame from an in-memory buffer, verifying the payload
    /// checksum. Any malformation — short buffer, wrong magic/version,
    /// unknown kind, payload overrun, checksum mismatch — is a typed
    /// [`WireError`], never a panic.
    pub fn decode(buf: &mut Bytes) -> Result<Frame, WireError> {
        let h = Header::decode(buf)?;
        if buf.remaining() < h.len {
            return Err(WireError::Eof {
                context: "frame payload",
                needed: h.len,
                remaining: buf.remaining(),
            });
        }
        let payload = buf.split_to(h.len);
        if fnv1a64_words(&payload) != h.checksum {
            return Err(WireError::Checksum {
                context: "frame payload",
            });
        }
        Ok(Frame {
            kind: h.kind,
            sender: h.sender,
            epoch: h.epoch,
            seq: h.seq,
            payload,
        })
    }
}

/// The parsed fixed-width header, before the payload is available.
struct Header {
    kind: FrameKind,
    sender: u16,
    epoch: u32,
    seq: u64,
    len: usize,
    checksum: u64,
}

impl Header {
    /// Decode and validate the 33-byte header (magic, version, kind tag,
    /// length cap). Shared by the pure decoder and the stream reader.
    fn decode(buf: &mut Bytes) -> Result<Header, WireError> {
        let magic = get_u32(buf, "frame magic")?;
        if magic != u32::from_le_bytes(FRAME_MAGIC) {
            return Err(WireError::BadTag {
                context: "frame magic",
                tag: magic.to_le_bytes()[0],
            });
        }
        let version = get_u16(buf, "frame version")?;
        if version != FRAME_VERSION {
            return Err(WireError::BadTag {
                context: "frame version",
                tag: version.to_le_bytes()[0],
            });
        }
        let kind = match get_u8(buf, "frame kind")? {
            1 => FrameKind::Hello,
            2 => FrameKind::Start,
            3 => FrameKind::Contribution,
            4 => FrameKind::Aggregate,
            5 => FrameKind::Abort,
            6 => FrameKind::DataSuperstep,
            7 => FrameKind::DataNextTimestep,
            8 => FrameKind::Sentinel,
            9 => FrameKind::PeerHello,
            10 => FrameKind::Output,
            11 => FrameKind::Telemetry,
            12 => FrameKind::StatusRequest,
            13 => FrameKind::StatusReply,
            tag => {
                return Err(WireError::BadTag {
                    context: "frame kind",
                    tag,
                })
            }
        };
        let sender = get_u16(buf, "frame sender")?;
        let epoch = get_u32(buf, "frame epoch")?;
        let seq = get_u64(buf, "frame seq")?;
        let len = get_u32(buf, "frame length")? as usize;
        let checksum = get_u64(buf, "frame checksum")?;
        if len > MAX_PAYLOAD_LEN as usize {
            // The length field is corrupt; report its most significant
            // byte as the offending tag so the error names evidence.
            return Err(WireError::BadTag {
                context: "frame length (over cap)",
                tag: (len >> 24) as u8,
            });
        }
        Ok(Header {
            kind,
            sender,
            epoch,
            seq,
            len,
            checksum,
        })
    }
}

pub(crate) fn net_err(context: String) -> impl FnOnce(io::Error) -> EngineError {
    move |e| EngineError::Net {
        context,
        detail: e.to_string(),
    }
}

/// Fill `buf` from `r`, distinguishing the two EOF shapes the coordinator
/// must tell apart: a clean close *between* frames (`at_boundary` and zero
/// bytes read — the peer hung up) versus an EOF *inside* a frame (the peer
/// died mid-write; the frame is unrecoverable).
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    peer: &str,
    at_boundary: bool,
) -> Result<(), EngineError> {
    let mut filled = 0;
    while filled < buf.len() {
        let Some(rest) = buf.get_mut(filled..) else {
            break;
        };
        match r.read(rest) {
            Ok(0) => {
                let detail = if at_boundary && filled == 0 {
                    "connection closed by peer".to_string()
                } else {
                    format!(
                        "mid-frame EOF: connection closed after {filled} of {} bytes",
                        buf.len()
                    )
                };
                return Err(EngineError::Net {
                    context: format!("reading frame from {peer}"),
                    detail,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(net_err(format!("reading frame from {peer}"))(e)),
        }
    }
    Ok(())
}

/// Read one frame from any byte stream. Returns the frame and the total
/// bytes consumed. A checksum mismatch surfaces as
/// `EngineError::Wire(WireError::Checksum)` **after** the full frame has
/// been consumed, so the stream stays aligned and the caller may keep
/// reading (that is how damaged-then-retransmitted data frames are
/// skipped).
pub fn read_frame(r: &mut impl Read, peer: &str) -> Result<(Frame, usize), EngineError> {
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, peer, true)?;
    let h = match Header::decode(&mut Bytes::copy_from_slice(&header)) {
        Ok(h) => h,
        Err(WireError::BadTag {
            context: "frame length (over cap)",
            ..
        }) => {
            return Err(EngineError::Protocol {
                detail: format!(
                    "frame from {peer} declares a payload over the {MAX_PAYLOAD_LEN}-byte cap"
                ),
            })
        }
        Err(e) => return Err(EngineError::Wire(e)),
    };
    let mut payload = vec![0u8; h.len];
    read_full(r, &mut payload, peer, false)?;
    if fnv1a64_words(&payload) != h.checksum {
        return Err(EngineError::Wire(WireError::Checksum {
            context: "frame payload",
        }));
    }
    Ok((
        Frame {
            kind: h.kind,
            sender: h.sender,
            epoch: h.epoch,
            seq: h.seq,
            payload: Bytes::from(payload),
        },
        HEADER_LEN + h.len,
    ))
}

/// Write one frame to any byte stream; returns bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame, peer: &str) -> Result<usize, EngineError> {
    let enc = frame.encode();
    w.write_all(&enc)
        .and_then(|()| w.flush())
        .map_err(net_err(format!("writing frame to {peer}")))?;
    Ok(enc.len())
}

/// Write a deliberately damaged copy of `frame`: the last byte of the
/// encoding is flipped (a payload byte when there is a payload, a checksum
/// byte otherwise), so the header stays parseable but the receiver's
/// checksum verification fails and the frame is discarded. Fault injection
/// only ([`crate::FrameFault::Truncate`]).
pub fn write_frame_corrupted(
    w: &mut impl Write,
    frame: &Frame,
    peer: &str,
) -> Result<usize, EngineError> {
    let mut enc = frame.encode().to_vec();
    if let Some(last) = enc.last_mut() {
        *last ^= 0xff;
    }
    w.write_all(&enc)
        .and_then(|()| w.flush())
        .map_err(net_err(format!("writing frame to {peer}")))?;
    Ok(enc.len())
}

/// A framed, bidirectional TCP connection: buffered reads, Nagle disabled,
/// cumulative byte accounting for the transport's counters.
pub struct FrameConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: String,
    bytes_sent: u64,
    bytes_received: u64,
}

impl FrameConn {
    /// Wrap an established stream. `peer` is a human label ("peer 2",
    /// "coordinator") used in error contexts.
    pub fn new(stream: TcpStream, peer: impl Into<String>) -> Result<FrameConn, EngineError> {
        let peer = peer.into();
        stream
            .set_nodelay(true)
            .map_err(net_err(format!("configuring connection to {peer}")))?;
        let writer = stream
            .try_clone()
            .map_err(net_err(format!("cloning connection to {peer}")))?;
        Ok(FrameConn {
            reader: BufReader::new(stream),
            writer,
            peer,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// The peer label this connection reports in errors.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Relabel the peer once its identity is known (the coordinator learns
    /// which partition a connection belongs to from its Hello frame).
    pub fn set_peer(&mut self, peer: impl Into<String>) {
        self.peer = peer.into();
    }

    /// Send one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), EngineError> {
        let n = write_frame(&mut self.writer, frame, &self.peer)?;
        self.bytes_sent += n as u64;
        Ok(())
    }

    /// Send a checksum-damaged copy of `frame` (fault injection only).
    pub fn send_corrupted(&mut self, frame: &Frame) -> Result<(), EngineError> {
        let n = write_frame_corrupted(&mut self.writer, frame, &self.peer)?;
        self.bytes_sent += n as u64;
        Ok(())
    }

    /// Receive one frame. See [`read_frame`] for the checksum-mismatch
    /// contract (typed error, stream stays aligned).
    pub fn recv(&mut self) -> Result<Frame, EngineError> {
        let (f, n) = read_frame(&mut self.reader, &self.peer)?;
        self.bytes_received += n as u64;
        Ok(f)
    }

    /// Cumulative bytes written to this connection.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Cumulative bytes read from this connection.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Half-close the write side (lets the peer observe a clean EOF while
    /// this side keeps reading). Best-effort.
    pub fn shutdown_write(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
    }
}

/// Bind an ephemeral loopback listener for `what`; returns it with its
/// dialable address.
pub(crate) fn bind_loopback(what: &str) -> Result<(TcpListener, String), EngineError> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(net_err(format!("binding {what}")))?;
    let addr = listener
        .local_addr()
        .map_err(net_err(format!("resolving the address of {what}")))?;
    Ok((listener, addr.to_string()))
}

/// Dial `addr`, retrying with doubling backoff (2 ms base, 200 ms cap,
/// ~4 s total) — workers race the coordinator/each other to bind, so the
/// first dials legitimately lose.
pub fn connect_with_retry(addr: &str, peer: &str) -> Result<TcpStream, EngineError> {
    connect_with_retry_attempts(addr, peer, 25)
}

fn connect_with_retry_attempts(
    addr: &str,
    peer: &str,
    attempts: u32,
) -> Result<TcpStream, EngineError> {
    let mut backoff_ms = 2u64;
    let mut last = String::new();
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = e.to_string(),
        }
        if attempt + 1 < attempts {
            std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
            backoff_ms = (backoff_ms * 2).min(200);
        }
    }
    Err(EngineError::Net {
        context: format!("dialing {peer} at {addr}"),
        detail: format!("{last} (after {attempts} attempts)"),
    })
}

/// Accept one connection with a deadline, so a worker that never dials in
/// (crashed before its handshake) turns into a typed timeout instead of a
/// hang. Restores the listener to blocking mode on success.
pub fn accept_with_deadline(
    listener: &TcpListener,
    deadline_ms: u64,
    what: &str,
) -> Result<TcpStream, EngineError> {
    listener
        .set_nonblocking(true)
        .map_err(net_err(format!("configuring listener for {what}")))?;
    let clock = Clock::start();
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)
                    .map_err(net_err(format!("configuring connection for {what}")))?;
                return Ok(s);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if clock.elapsed_ns() > deadline_ms.saturating_mul(1_000_000) {
                    return Err(EngineError::Net {
                        context: format!("accepting {what}"),
                        detail: format!("timed out after {deadline_ms} ms"),
                    });
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => return Err(net_err(format!("accepting {what}"))(e)),
        }
    }
}

// ---- control payloads ---------------------------------------------------

/// Worker → coordinator handshake: names the partition and where its peer
/// listener accepts mesh connections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloMsg {
    /// The partition this worker serves.
    pub partition: u16,
    /// Address of the worker's peer-mesh listener ("127.0.0.1:PORT").
    pub listen_addr: String,
}

impl WireMsg for HelloMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.partition.encode(buf);
        self.listen_addr.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(HelloMsg {
            partition: u16::decode(buf)?,
            listen_addr: String::decode(buf)?,
        })
    }
}

/// Sentinel for [`StartMsg::resume_from`]: start fresh, no checkpoint.
pub const RESUME_NONE: u64 = u64::MAX;

/// Coordinator → worker: begin (or re-begin, after recovery) the epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartMsg {
    /// Epoch number (0 on the first attempt; +1 per recovery).
    pub epoch: u32,
    /// Timestep of the checkpoint to restore, or [`RESUME_NONE`].
    pub resume_from: u64,
    /// Every worker's mesh listener address, indexed by partition.
    pub peer_addrs: Vec<String>,
    /// Fault-plan event indices already fired in earlier epochs (see
    /// [`crate::FaultPlan::fired_indices`]).
    pub fired: Vec<u32>,
}

impl WireMsg for StartMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.epoch.encode(buf);
        self.resume_from.encode(buf);
        self.peer_addrs.encode(buf);
        self.fired.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(StartMsg {
            epoch: u32::decode(buf)?,
            resume_from: u64::decode(buf)?,
            peer_addrs: Vec::<String>::decode(buf)?,
            fired: Vec::<u32>::decode(buf)?,
        })
    }
}

/// Coordinator → worker: a peer worker died; unwind this epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbortMsg {
    /// The partition whose worker died.
    pub dead_partition: u16,
    /// Evidence (exit status, socket error) for error reporting.
    pub detail: String,
}

impl WireMsg for AbortMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.dead_partition.encode(buf);
        self.detail.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(AbortMsg {
            dead_partition: u16::decode(buf)?,
            detail: String::decode(buf)?,
        })
    }
}

impl WireMsg for Contribution {
    fn encode(&self, buf: &mut BytesMut) {
        self.msgs_sent.encode(buf);
        self.all_halted.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Contribution {
            msgs_sent: u64::decode(buf)?,
            all_halted: bool::decode(buf)?,
        })
    }
}

impl WireMsg for Aggregate {
    fn encode(&self, buf: &mut BytesMut) {
        self.total_msgs.encode(buf);
        self.all_halted.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Aggregate {
            total_msgs: u64::decode(buf)?,
            all_halted: bool::decode(buf)?,
        })
    }
}

// ---- telemetry payloads -------------------------------------------------

/// One recorded trace event in wire form. A plain tagged struct rather than
/// an enum so the field layout is locked by the W02 schema goldens: `kind`
/// is 1 = span, 2 = instant, 3 = counter (explicit tags, validated at
/// decode). `a` carries the span start / event timestamp, `b` the span
/// duration / counter value (0 for instants).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEventWire {
    /// Event discriminant: 1 = span, 2 = instant, 3 = counter.
    pub kind: u8,
    /// Event name (interned back to `&'static str` on the receiver).
    pub name: String,
    /// Span `start_ns`; instant/counter `ts_ns`.
    pub a: u64,
    /// Span `dur_ns`; counter `value`; 0 for instants.
    pub b: u64,
    /// Optional `(key, value)` argument (spans and instants only).
    pub arg: Option<(String, u64)>,
}

impl TraceEventWire {
    /// Wire form of a recorded event (worker side, before shipping).
    pub(crate) fn from_event(ev: &tempograph_trace::TraceEvent) -> TraceEventWire {
        use tempograph_trace::TraceEvent;
        match *ev {
            TraceEvent::Span {
                name,
                start_ns,
                dur_ns,
                arg,
            } => TraceEventWire {
                kind: 1,
                name: name.to_string(),
                a: start_ns,
                b: dur_ns,
                arg: arg.map(|(k, v)| (k.to_string(), v)),
            },
            TraceEvent::Instant { name, ts_ns, arg } => TraceEventWire {
                kind: 2,
                name: name.to_string(),
                a: ts_ns,
                b: 0,
                arg: arg.map(|(k, v)| (k.to_string(), v)),
            },
            TraceEvent::Counter { name, ts_ns, value } => TraceEventWire {
                kind: 3,
                name: name.to_string(),
                a: ts_ns,
                b: value,
                arg: None,
            },
        }
    }

    /// Rebuild the in-memory event (coordinator side). Names are interned
    /// to `&'static str` through the same pool checkpoint restore uses, so
    /// repeated names across frames share one allocation. `kind` was
    /// validated at decode; 3 (counter) is the residual arm.
    pub(crate) fn into_event(self) -> tempograph_trace::TraceEvent {
        use tempograph_trace::TraceEvent;
        let name = crate::checkpoint::intern(&self.name);
        let arg = self.arg.map(|(k, v)| (crate::checkpoint::intern(&k), v));
        match self.kind {
            1 => TraceEvent::Span {
                name,
                start_ns: self.a,
                dur_ns: self.b,
                arg,
            },
            2 => TraceEvent::Instant {
                name,
                ts_ns: self.a,
                arg,
            },
            _ => TraceEvent::Counter {
                name,
                ts_ns: self.a,
                value: self.b,
            },
        }
    }
}

impl WireMsg for TraceEventWire {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.kind);
        self.name.encode(buf);
        self.a.encode(buf);
        self.b.encode(buf);
        self.arg.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let kind = match get_u8(buf, "trace event kind")? {
            1 => 1,
            2 => 2,
            3 => 3,
            tag => {
                return Err(WireError::BadTag {
                    context: "trace event kind",
                    tag,
                })
            }
        };
        Ok(TraceEventWire {
            kind,
            name: String::decode(buf)?,
            a: u64::decode(buf)?,
            b: u64::decode(buf)?,
            arg: Option::<(String, u64)>::decode(buf)?,
        })
    }
}

/// A log2-bucket histogram in wire form. `buckets` must hold exactly
/// [`tempograph_metrics::BUCKETS`] counts (validated at decode).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramWire {
    /// Per-bucket observation counts (length = `BUCKETS`).
    pub buckets: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramWire {
    pub(crate) fn from_histogram(h: &tempograph_metrics::Histogram) -> HistogramWire {
        HistogramWire {
            buckets: h.buckets().to_vec(),
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
        }
    }

    /// Rebuild the histogram. The bucket count was validated at decode;
    /// `zip` makes a short vector (impossible off the wire) harmless.
    pub(crate) fn into_histogram(self) -> tempograph_metrics::Histogram {
        let mut buckets = [0u64; tempograph_metrics::BUCKETS];
        for (slot, &count) in buckets.iter_mut().zip(&self.buckets) {
            *slot = count;
        }
        tempograph_metrics::Histogram::from_parts(buckets, self.count, self.sum, self.min, self.max)
    }
}

impl WireMsg for HistogramWire {
    fn encode(&self, buf: &mut BytesMut) {
        self.buckets.encode(buf);
        self.count.encode(buf);
        self.sum.encode(buf);
        self.min.encode(buf);
        self.max.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let buckets = Vec::<u64>::decode(buf)?;
        if buckets.len() != tempograph_metrics::BUCKETS {
            return Err(WireError::BadTag {
                context: "histogram bucket count",
                tag: buckets.len() as u8,
            });
        }
        Ok(HistogramWire {
            buckets,
            count: u64::decode(buf)?,
            sum: u64::decode(buf)?,
            min: u64::decode(buf)?,
            max: u64::decode(buf)?,
        })
    }
}

/// A worker's cumulative metrics shard in wire form (mirrors
/// `crate::metrics::MetricsShard` field-for-field).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsShardWire {
    /// Barriered compute durations.
    pub compute_ns: HistogramWire,
    /// Barrier wait durations.
    pub barrier_wait_ns: HistogramWire,
    /// Message marshalling/hand-off durations.
    pub send_ns: HistogramWire,
    /// Checkpoint snapshot+write durations.
    pub checkpoint_write_ns: HistogramWire,
    /// Checkpoint restore durations.
    pub recovery_restore_ns: HistogramWire,
    /// GoFS instance-cache hits.
    pub cache_hits: u64,
    /// GoFS instance-cache misses.
    pub cache_misses: u64,
    /// GoFS instance-cache evictions.
    pub cache_evictions: u64,
    /// Bytes read and decoded from slice files.
    pub bytes_read: u64,
}

impl MetricsShardWire {
    pub(crate) fn from_shard(s: &crate::metrics::MetricsShard) -> MetricsShardWire {
        MetricsShardWire {
            compute_ns: HistogramWire::from_histogram(&s.compute_ns),
            barrier_wait_ns: HistogramWire::from_histogram(&s.barrier_wait_ns),
            send_ns: HistogramWire::from_histogram(&s.send_ns),
            checkpoint_write_ns: HistogramWire::from_histogram(&s.checkpoint_write_ns),
            recovery_restore_ns: HistogramWire::from_histogram(&s.recovery_restore_ns),
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            cache_evictions: s.cache_evictions,
            bytes_read: s.bytes_read,
        }
    }

    pub(crate) fn into_shard(self) -> crate::metrics::MetricsShard {
        crate::metrics::MetricsShard {
            compute_ns: self.compute_ns.into_histogram(),
            barrier_wait_ns: self.barrier_wait_ns.into_histogram(),
            send_ns: self.send_ns.into_histogram(),
            checkpoint_write_ns: self.checkpoint_write_ns.into_histogram(),
            recovery_restore_ns: self.recovery_restore_ns.into_histogram(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_evictions: self.cache_evictions,
            bytes_read: self.bytes_read,
        }
    }
}

impl WireMsg for MetricsShardWire {
    fn encode(&self, buf: &mut BytesMut) {
        self.compute_ns.encode(buf);
        self.barrier_wait_ns.encode(buf);
        self.send_ns.encode(buf);
        self.checkpoint_write_ns.encode(buf);
        self.recovery_restore_ns.encode(buf);
        self.cache_hits.encode(buf);
        self.cache_misses.encode(buf);
        self.cache_evictions.encode(buf);
        self.bytes_read.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(MetricsShardWire {
            compute_ns: HistogramWire::decode(buf)?,
            barrier_wait_ns: HistogramWire::decode(buf)?,
            send_ns: HistogramWire::decode(buf)?,
            checkpoint_write_ns: HistogramWire::decode(buf)?,
            recovery_restore_ns: HistogramWire::decode(buf)?,
            cache_hits: u64::decode(buf)?,
            cache_misses: u64::decode(buf)?,
            cache_evictions: u64::decode(buf)?,
            bytes_read: u64::decode(buf)?,
        })
    }
}

/// One per-(subgraph, timestep) attribution row in wire form (mirrors
/// `crate::metrics::AttributionRow`; `timestep == u32::MAX` ⇒ merge phase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttrRowWire {
    /// Subgraph id.
    pub subgraph: u32,
    /// Timestep index (`u32::MAX` ⇒ merge phase).
    pub timestep: u32,
    /// Measured nanoseconds inside this subgraph's program hooks.
    pub compute_ns: u64,
    /// Program-hook invocations folded into this row.
    pub invocations: u32,
}

impl AttrRowWire {
    pub(crate) fn from_row(r: &crate::metrics::AttributionRow) -> AttrRowWire {
        AttrRowWire {
            subgraph: r.subgraph.0,
            timestep: r.timestep,
            compute_ns: r.compute_ns,
            invocations: r.invocations,
        }
    }

    pub(crate) fn into_row(self) -> crate::metrics::AttributionRow {
        crate::metrics::AttributionRow {
            subgraph: tempograph_partition::SubgraphId(self.subgraph),
            timestep: self.timestep,
            compute_ns: self.compute_ns,
            invocations: self.invocations,
        }
    }
}

impl WireMsg for AttrRowWire {
    fn encode(&self, buf: &mut BytesMut) {
        self.subgraph.encode(buf);
        self.timestep.encode(buf);
        self.compute_ns.encode(buf);
        self.invocations.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(AttrRowWire {
            subgraph: u32::decode(buf)?,
            timestep: u32::decode(buf)?,
            compute_ns: u64::decode(buf)?,
            invocations: u32::decode(buf)?,
        })
    }
}

/// Worker → coordinator observability snapshot, one per barrier round plus
/// one final flush. `shard` and `attr` are **cumulative** snapshots (the
/// coordinator replaces, never adds, so a re-sent snapshot cannot double
/// count); `events` are **drained** increments (sent exactly once).
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryMsg {
    /// Timestep this flush closes (worker-local progress marker).
    pub timestep: u32,
    /// Supersteps the closed timestep ran.
    pub supersteps: u32,
    /// Barrier wait accumulated in the closed timestep, nanoseconds.
    pub barrier_wait_ns: u64,
    /// Worker clock reading at flush time, nanoseconds since the worker's
    /// session epoch. Worker clock domain: comparable within one worker's
    /// frames, not across workers or with the coordinator clock.
    pub clock_ns: u64,
    /// Cumulative bytes this worker has written to sockets.
    pub bytes_sent: u64,
    /// Cumulative bytes this worker has read from sockets.
    pub bytes_received: u64,
    /// True for the end-of-job flush (sent just before the Output frame).
    pub final_flush: bool,
    /// Trace events recorded since the previous flush (drained increments).
    pub events: Vec<TraceEventWire>,
    /// Cumulative metrics shard snapshot (when metrics are armed).
    pub shard: Option<MetricsShardWire>,
    /// Cumulative attribution snapshot (when attribution is armed).
    pub attr: Vec<AttrRowWire>,
}

impl WireMsg for TelemetryMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.timestep.encode(buf);
        self.supersteps.encode(buf);
        self.barrier_wait_ns.encode(buf);
        self.clock_ns.encode(buf);
        self.bytes_sent.encode(buf);
        self.bytes_received.encode(buf);
        self.final_flush.encode(buf);
        self.events.encode(buf);
        self.shard.encode(buf);
        self.attr.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(TelemetryMsg {
            timestep: u32::decode(buf)?,
            supersteps: u32::decode(buf)?,
            barrier_wait_ns: u64::decode(buf)?,
            clock_ns: u64::decode(buf)?,
            bytes_sent: u64::decode(buf)?,
            bytes_received: u64::decode(buf)?,
            final_flush: bool::decode(buf)?,
            events: Vec::<TraceEventWire>::decode(buf)?,
            shard: Option::<MetricsShardWire>::decode(buf)?,
            attr: Vec::<AttrRowWire>::decode(buf)?,
        })
    }
}

/// One row of the coordinator's live status board.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStatusWire {
    /// The partition this row describes.
    pub partition: u16,
    /// Recovery epoch the worker is executing.
    pub epoch: u32,
    /// Last timestep the worker closed.
    pub timestep: u32,
    /// Supersteps the last closed timestep ran.
    pub supersteps: u32,
    /// Barrier-wait watermark: the worker's largest per-timestep barrier
    /// wait observed so far, nanoseconds.
    pub barrier_wait_ns: u64,
    /// Cumulative bytes the worker has sent.
    pub bytes_sent: u64,
    /// Cumulative bytes the worker has received.
    pub bytes_received: u64,
    /// Milliseconds since the coordinator last heard telemetry from this
    /// worker (coordinator clock).
    pub last_telemetry_ms: u64,
}

impl WireMsg for WorkerStatusWire {
    fn encode(&self, buf: &mut BytesMut) {
        self.partition.encode(buf);
        self.epoch.encode(buf);
        self.timestep.encode(buf);
        self.supersteps.encode(buf);
        self.barrier_wait_ns.encode(buf);
        self.bytes_sent.encode(buf);
        self.bytes_received.encode(buf);
        self.last_telemetry_ms.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(WorkerStatusWire {
            partition: u16::decode(buf)?,
            epoch: u32::decode(buf)?,
            timestep: u32::decode(buf)?,
            supersteps: u32::decode(buf)?,
            barrier_wait_ns: u64::decode(buf)?,
            bytes_sent: u64::decode(buf)?,
            bytes_received: u64::decode(buf)?,
            last_telemetry_ms: u64::decode(buf)?,
        })
    }
}

/// Coordinator → introspection client: the whole status board.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatusReplyMsg {
    /// One row per partition, sorted by partition.
    pub workers: Vec<WorkerStatusWire>,
}

impl WireMsg for StatusReplyMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.workers.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(StatusReplyMsg {
            workers: Vec::<WorkerStatusWire>::decode(buf)?,
        })
    }
}

/// Encode a control payload into `Bytes`.
pub fn encode_payload<M: WireMsg>(m: &M) -> Bytes {
    let mut buf = BytesMut::new();
    m.encode(&mut buf);
    buf.freeze()
}

/// Decode a full control payload, requiring exact consumption.
pub fn decode_payload<M: WireMsg>(mut payload: Bytes) -> Result<M, EngineError> {
    let m = M::decode(&mut payload)?;
    if payload.remaining() != 0 {
        return Err(EngineError::Protocol {
            detail: format!(
                "{} trailing bytes after control payload",
                payload.remaining()
            ),
        });
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Loopback socket pair, or `None` (with a notice) where the sandbox
    /// forbids sockets — the documented skip path for TCP tests.
    fn loopback_pair() -> Option<(TcpStream, TcpStream)> {
        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => {
                eprintln!("NOTICE: loopback sockets unavailable ({e}); skipping TCP test");
                return None;
            }
        };
        let addr = listener.local_addr().ok()?;
        let a = TcpStream::connect(addr).ok()?;
        let (b, _) = listener.accept().ok()?;
        Some((a, b))
    }

    fn data_frame(seq: u64, payload: &[u8]) -> Frame {
        Frame {
            kind: FrameKind::DataSuperstep,
            sender: 1,
            epoch: 3,
            seq,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn frame_roundtrips_through_buffer_and_pipe() {
        let frames = vec![
            Frame::control(FrameKind::Hello, 2, 0, encode_payload(&"x".to_string())),
            data_frame(1, b"hello world"),
            data_frame(2, &[]),
            Frame {
                kind: FrameKind::Sentinel,
                sender: 0,
                epoch: 1,
                seq: 17,
                payload: Bytes::new(),
            },
        ];
        // Pure buffer decode.
        for f in &frames {
            let mut enc = f.encode();
            assert_eq!(Frame::decode(&mut enc).unwrap(), *f);
            assert_eq!(enc.remaining(), 0, "must consume exactly");
        }
        // Stream codec over an in-memory pipe, frames back-to-back.
        let mut pipe = Vec::new();
        for f in &frames {
            write_frame(&mut pipe, f, "pipe").unwrap();
        }
        let mut r = Cursor::new(pipe);
        for f in &frames {
            let (got, _) = read_frame(&mut r, "pipe").unwrap();
            assert_eq!(got, *f);
        }
        // Pipe drained: the next read reports a clean close.
        let err = read_frame(&mut r, "pipe").unwrap_err();
        assert!(err.to_string().contains("closed by peer"), "{err}");
    }

    #[test]
    fn corrupted_frame_is_a_typed_checksum_error_and_stream_stays_aligned() {
        let bad = data_frame(1, b"payload bytes");
        let good = data_frame(2, b"clean retransmission");
        let mut pipe = Vec::new();
        write_frame_corrupted(&mut pipe, &bad, "pipe").unwrap();
        write_frame(&mut pipe, &good, "pipe").unwrap();
        let mut r = Cursor::new(pipe);
        let err = read_frame(&mut r, "pipe").unwrap_err();
        assert_eq!(
            err,
            EngineError::Wire(WireError::Checksum {
                context: "frame payload"
            })
        );
        let (got, _) = read_frame(&mut r, "pipe").unwrap();
        assert_eq!(
            got, good,
            "stream must stay frame-aligned after a bad frame"
        );
    }

    #[test]
    fn header_malformations_are_typed_errors() {
        let enc = data_frame(1, b"abc").encode();
        // Wrong magic.
        let mut bad = enc.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            Frame::decode(&mut Bytes::from(bad)),
            Err(WireError::BadTag {
                context: "frame magic",
                ..
            })
        ));
        // Wrong version.
        let mut bad = enc.to_vec();
        bad[4] = 99;
        assert!(matches!(
            Frame::decode(&mut Bytes::from(bad)),
            Err(WireError::BadTag {
                context: "frame version",
                ..
            })
        ));
        // Unknown kind.
        let mut bad = enc.to_vec();
        bad[6] = 0;
        assert!(matches!(
            Frame::decode(&mut Bytes::from(bad)),
            Err(WireError::BadTag {
                context: "frame kind",
                tag: 0
            })
        ));
        // First tag past the telemetry kinds is still unknown.
        let mut bad = enc.to_vec();
        bad[6] = 14;
        assert!(matches!(
            Frame::decode(&mut Bytes::from(bad)),
            Err(WireError::BadTag {
                context: "frame kind",
                tag: 14
            })
        ));
        // Truncated payload.
        let mut cut = Bytes::copy_from_slice(&enc[..enc.len() - 1]);
        assert!(matches!(
            Frame::decode(&mut cut),
            Err(WireError::Eof {
                context: "frame payload",
                ..
            })
        ));
        // Oversized declared length.
        let mut bad = enc.to_vec();
        bad[21..25].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&mut Bytes::from(bad.clone())),
            Err(WireError::BadTag {
                context: "frame length (over cap)",
                ..
            })
        ));
        let err = read_frame(&mut Cursor::new(bad), "pipe").unwrap_err();
        assert!(matches!(err, EngineError::Protocol { .. }), "{err}");
    }

    #[test]
    fn half_open_and_mid_frame_eof_are_distinguished() {
        // Clean close between frames.
        let Some((a, b)) = loopback_pair() else {
            return;
        };
        let mut conn = FrameConn::new(a, "peer 1").unwrap();
        drop(b);
        let err = conn.recv().unwrap_err();
        assert!(err.to_string().contains("closed by peer"), "{err}");
        assert!(err.to_string().contains("peer 1"), "{err}");

        // EOF inside a frame: peer writes a partial header then dies.
        let Some((a, mut b)) = loopback_pair() else {
            return;
        };
        let mut conn = FrameConn::new(a, "peer 2").unwrap();
        b.write_all(&data_frame(1, b"payload").encode()[..10])
            .unwrap();
        drop(b);
        let err = conn.recv().unwrap_err();
        assert!(err.to_string().contains("mid-frame EOF"), "{err}");
        assert!(err.to_string().contains("10 of 33"), "{err}");

        // EOF inside the payload is mid-frame too.
        let Some((a, mut b)) = loopback_pair() else {
            return;
        };
        let mut conn = FrameConn::new(a, "peer 3").unwrap();
        let enc = data_frame(1, b"payload").encode();
        b.write_all(&enc[..HEADER_LEN + 3]).unwrap();
        drop(b);
        let err = conn.recv().unwrap_err();
        assert!(err.to_string().contains("mid-frame EOF"), "{err}");
    }

    #[test]
    fn frame_conn_counts_bytes_both_ways() {
        let Some((a, b)) = loopback_pair() else {
            return;
        };
        let mut tx = FrameConn::new(a, "rx").unwrap();
        let mut rx = FrameConn::new(b, "tx").unwrap();
        let f = data_frame(1, b"12345");
        tx.send(&f).unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(got, f);
        assert_eq!(tx.bytes_sent(), (HEADER_LEN + 5) as u64);
        assert_eq!(rx.bytes_received(), (HEADER_LEN + 5) as u64);
    }

    #[test]
    fn connect_with_retry_reports_failure_after_attempts() {
        // Bind then drop a listener to obtain a port that refuses.
        let addr = match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l.local_addr().unwrap().to_string(),
            Err(e) => {
                eprintln!("NOTICE: loopback sockets unavailable ({e}); skipping TCP test");
                return;
            }
        };
        let err = connect_with_retry_attempts(&addr, "worker 1", 2).unwrap_err();
        assert!(err.to_string().contains("worker 1"), "{err}");
        assert!(err.to_string().contains("2 attempts"), "{err}");
    }

    #[test]
    fn control_payloads_roundtrip() {
        let hello = HelloMsg {
            partition: 4,
            listen_addr: "127.0.0.1:9000".into(),
        };
        assert_eq!(
            decode_payload::<HelloMsg>(encode_payload(&hello)).unwrap(),
            hello
        );
        let start = StartMsg {
            epoch: 2,
            resume_from: RESUME_NONE,
            peer_addrs: vec!["a:1".into(), "b:2".into()],
            fired: vec![0, 3],
        };
        assert_eq!(
            decode_payload::<StartMsg>(encode_payload(&start)).unwrap(),
            start
        );
        let abort = AbortMsg {
            dead_partition: 1,
            detail: "exit status: 42".into(),
        };
        assert_eq!(
            decode_payload::<AbortMsg>(encode_payload(&abort)).unwrap(),
            abort
        );
        let c = Contribution {
            msgs_sent: 7,
            all_halted: false,
        };
        assert_eq!(
            decode_payload::<Contribution>(encode_payload(&c)).unwrap(),
            c
        );
        let a = Aggregate {
            total_msgs: 7,
            all_halted: true,
        };
        assert_eq!(decode_payload::<Aggregate>(encode_payload(&a)).unwrap(), a);
        // Trailing bytes are a protocol violation, not silently ignored.
        let mut buf = BytesMut::new();
        hello.encode(&mut buf);
        buf.put_u8(0);
        assert!(decode_payload::<HelloMsg>(buf.freeze()).is_err());
    }

    fn sample_histogram_wire() -> HistogramWire {
        let mut h = tempograph_metrics::Histogram::new();
        h.record(0);
        h.record(17);
        h.record(1 << 40);
        HistogramWire::from_histogram(&h)
    }

    #[test]
    fn telemetry_payload_roundtrips() {
        let msg = TelemetryMsg {
            timestep: 3,
            supersteps: 5,
            barrier_wait_ns: 12_345,
            clock_ns: 999_999,
            bytes_sent: 4096,
            bytes_received: 8192,
            final_flush: false,
            events: vec![
                TraceEventWire {
                    kind: 1,
                    name: "compute".into(),
                    a: 100,
                    b: 50,
                    arg: Some(("superstep".into(), 2)),
                },
                TraceEventWire {
                    kind: 2,
                    name: "marker".into(),
                    a: 180,
                    b: 0,
                    arg: None,
                },
                TraceEventWire {
                    kind: 3,
                    name: "msgs".into(),
                    a: 200,
                    b: 42,
                    arg: None,
                },
            ],
            shard: Some(MetricsShardWire {
                compute_ns: sample_histogram_wire(),
                barrier_wait_ns: sample_histogram_wire(),
                send_ns: HistogramWire::from_histogram(&tempograph_metrics::Histogram::new()),
                checkpoint_write_ns: sample_histogram_wire(),
                recovery_restore_ns: sample_histogram_wire(),
                cache_hits: 7,
                cache_misses: 2,
                cache_evictions: 1,
                bytes_read: 4096,
            }),
            attr: vec![
                AttrRowWire {
                    subgraph: 0,
                    timestep: 3,
                    compute_ns: 777,
                    invocations: 4,
                },
                AttrRowWire {
                    subgraph: 1,
                    timestep: u32::MAX,
                    compute_ns: 11,
                    invocations: 1,
                },
            ],
        };
        assert_eq!(
            decode_payload::<TelemetryMsg>(encode_payload(&msg)).unwrap(),
            msg
        );
    }

    #[test]
    fn telemetry_event_and_histogram_malformations_are_typed() {
        // Unknown trace-event kind tag.
        let ev = TraceEventWire {
            kind: 1,
            name: "x".into(),
            a: 0,
            b: 0,
            arg: None,
        };
        let mut buf = BytesMut::new();
        ev.encode(&mut buf);
        let mut bad = buf.freeze().to_vec();
        bad[0] = 9;
        assert!(matches!(
            TraceEventWire::decode(&mut Bytes::from(bad)),
            Err(WireError::BadTag {
                context: "trace event kind",
                tag: 9
            })
        ));
        // Wrong histogram bucket count.
        let hw = HistogramWire {
            buckets: vec![0; 3],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        };
        let mut buf = BytesMut::new();
        hw.encode(&mut buf);
        assert!(matches!(
            HistogramWire::decode(&mut buf.freeze()),
            Err(WireError::BadTag {
                context: "histogram bucket count",
                tag: 3
            })
        ));
    }

    #[test]
    fn trace_event_wire_conversions_roundtrip() {
        use tempograph_trace::TraceEvent;
        let events = [
            TraceEvent::Span {
                name: "compute",
                start_ns: 10,
                dur_ns: 5,
                arg: Some(("superstep", 3)),
            },
            TraceEvent::Instant {
                name: "straggler.detected",
                ts_ns: 99,
                arg: Some(("wait_ns", 1234)),
            },
            TraceEvent::Counter {
                name: "net.bytes_sent",
                ts_ns: 50,
                value: 4096,
            },
        ];
        for ev in &events {
            assert_eq!(TraceEventWire::from_event(ev).into_event(), *ev);
        }
    }

    #[test]
    fn histogram_wire_conversions_roundtrip() {
        let mut h = tempograph_metrics::Histogram::new();
        for v in [0u64, 1, 17, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let w = HistogramWire::from_histogram(&h);
        assert_eq!(w.into_histogram(), h);
        // Empty histograms roundtrip too (min sentinel restored).
        let empty = tempograph_metrics::Histogram::new();
        assert_eq!(
            HistogramWire::from_histogram(&empty).into_histogram(),
            empty
        );
    }

    #[test]
    fn status_payload_roundtrips() {
        let reply = StatusReplyMsg {
            workers: vec![
                WorkerStatusWire {
                    partition: 0,
                    epoch: 1,
                    timestep: 4,
                    supersteps: 3,
                    barrier_wait_ns: 555,
                    bytes_sent: 1000,
                    bytes_received: 2000,
                    last_telemetry_ms: 12,
                },
                WorkerStatusWire {
                    partition: 1,
                    epoch: 1,
                    timestep: 4,
                    supersteps: 3,
                    barrier_wait_ns: 444,
                    bytes_sent: 900,
                    bytes_received: 1800,
                    last_telemetry_ms: 7,
                },
            ],
        };
        assert_eq!(
            decode_payload::<StatusReplyMsg>(encode_payload(&reply)).unwrap(),
            reply
        );
    }
}
