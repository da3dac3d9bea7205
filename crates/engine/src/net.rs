//! Framing and links for the worker transport ([`crate::transport`]).
//!
//! Everything that crosses a link is a **frame**: a fixed 33-byte header
//! followed by a checksummed payload. One frame type carries both data
//! (encoded `MessageBatch` bytes) and control traffic (handshakes, barrier
//! contributions/aggregates, abort notices), so a connection needs exactly
//! one reader loop and corruption anywhere surfaces as a typed error.
//!
//! ```text
//! offset  size  field
//!      0     4  magic          b"TGFR"
//!      4     2  version        u16 le, FRAME_VERSION
//!      6     1  kind           FrameKind tag
//!      7     2  sender         partition id (u16::MAX = coordinator)
//!      9     4  epoch          recovery attempt this frame belongs to
//!     13     8  seq            per (sender → receiver) data-frame counter,
//!                              counted from 1; 0 for control frames
//!     21     4  len            payload length, u32 le (capped)
//!     25     8  checksum       fnv1a64_lanes of the payload (four-lane FNV-1a,
//!                              the checksum of every GoFS frame and chunk)
//!     33     …  payload
//! ```
//!
//! The header itself is not checksummed: the engine trusts TCP's integrity
//! for the fixed-width fields and uses the payload checksum as a last
//! check on the bytes it hands the decoders. Nothing is ever retransmitted,
//! so a checksum mismatch is fatal to the link: a socket's reader reports
//! it and stops, and the receiving worker fails with a typed error naming
//! the peer (see [`crate::transport`]). The codec itself reads the whole
//! damaged frame before reporting it, so [`read_frame`] leaves a stream
//! frame-aligned.
//!
//! [`Frame::decode`] is a pure buffer decoder (what the codec proptests
//! attack); [`read_frame`]/[`write_frame`] run the same codec over any
//! `Read`/`Write` — an in-memory pipe in tests, a [`FrameConn`]-wrapped
//! `TcpStream` in production.
//!
//! **Two kinds of link, one contract.** A link is a socket or an in-memory
//! queue of `ReadResult`s — the items a socket reader yields. A queue
//! carries `Frame` values, so a payload is shared, never copied, and it
//! reports what a socket would: the wire size `HEADER_LEN` + payload
//! length, the payload cap ([`MAX_PAYLOAD_LEN`]), and a closed connection
//! once the other end is dropped. It cannot damage a frame.
//! `FrameConn::pair` and `PeerLink::pair` make the in-memory links of
//! an in-process cluster; everything above them cannot tell the two apart.

use crate::cluster::{Aggregate, Contribution};
use crate::error::EngineError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use tempograph_core::wire::{self, WireError, WireMsg};
use tempograph_gofs::codec::fnv1a64_lanes;
use tempograph_trace::Clock;

/// Frame magic: "TempoGraph FRame".
pub const FRAME_MAGIC: [u8; 4] = *b"TGFR";

/// Current frame format version. Bump on any header/payload layout change;
/// a version mismatch at decode is corruption (mixed-build clusters are not
/// supported). v2 added the telemetry plane ([`FrameKind::Telemetry`],
/// [`FrameKind::StatusRequest`], [`FrameKind::StatusReply`]). v3 encodes
/// telemetry from the engine's own records
/// ([`TraceEvent`](tempograph_trace::TraceEvent),
/// [`Histogram`](tempograph_metrics::Histogram),
/// [`MetricsShard`](crate::metrics::MetricsShard),
/// [`AttributionRow`](crate::metrics::AttributionRow)) instead of
/// field-for-field wire copies; the payload bytes did not change. v4 moves
/// observability into the Output frame (trace sinks, metrics shard,
/// attribution rows, once at job end) and slims [`TelemetryMsg`] to the
/// per-timestep round report. v5 checksums payloads with GoFS's four-lane
/// FNV-1a ([`fnv1a64_lanes`]) and drops `send_retries` from
/// [`TimestepMetrics`](crate::metrics::TimestepMetrics).
pub const FRAME_VERSION: u16 = 5;

/// Fixed header size in bytes (see the module-level layout table).
pub const HEADER_LEN: usize = 33;

/// Upper bound on a payload length. A corrupt `len` field must not make a
/// stream reader allocate gigabytes before the payload read fails, and a
/// sender refuses a larger frame ([`EngineError::FrameTooLarge`]) rather
/// than write one every receiver rejects.
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
    /// Worker → coordinator: final results (metrics, counters, emits,
    /// final program states, trace sinks, metrics shard, attribution
    /// rows). Payload: an encoded `WorkerOutput`.
    Output = 10,
    /// Worker → coordinator: round report for one closed timestep, only
    /// when observability is armed. Payload: [`TelemetryMsg`].
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
        buf.put_u64_le(fnv1a64_lanes(&self.payload));
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Decode one frame from an in-memory buffer, verifying the payload
    /// checksum. Any malformation — short buffer, wrong magic/version,
    /// unknown kind, payload overrun, checksum mismatch — is a typed
    /// [`WireError`], never a panic.
    pub fn decode(buf: &mut Bytes) -> Result<Frame, WireError> {
        let h = Header::parse(buf.first_chunk().ok_or(WireError::Eof {
            context: "frame header",
            needed: HEADER_LEN,
            remaining: buf.remaining(),
        })?)?;
        if h.over_cap() {
            // The length field is corrupt; report its most significant
            // byte as the offending tag so the error names evidence.
            return Err(WireError::BadTag {
                context: "frame length (over cap)",
                tag: (h.len >> 24) as u8,
            });
        }
        buf.advance(HEADER_LEN);
        if buf.remaining() < h.len {
            return Err(WireError::Eof {
                context: "frame payload",
                needed: h.len,
                remaining: buf.remaining(),
            });
        }
        let payload = buf.split_to(h.len);
        if fnv1a64_lanes(&payload) != h.checksum {
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
    /// Parse and validate the 33-byte header (magic, version, kind tag)
    /// where it lies: in the buffer [`Frame::decode`] reads, or in the
    /// stack array [`read_frame`] fills. The length cap is the caller's
    /// to report ([`Header::over_cap`]).
    fn parse(header: &[u8; HEADER_LEN]) -> Result<Header, WireError> {
        let h = &mut &header[..];
        let magic = wire::get_u32(h, "frame magic")?;
        if magic != u32::from_le_bytes(FRAME_MAGIC) {
            return Err(WireError::BadTag {
                context: "frame magic",
                tag: magic.to_le_bytes()[0],
            });
        }
        let version = wire::get_u16(h, "frame version")?;
        if version != FRAME_VERSION {
            return Err(WireError::BadTag {
                context: "frame version",
                tag: version.to_le_bytes()[0],
            });
        }
        let kind = match wire::get_u8(h, "frame kind")? {
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
        Ok(Header {
            kind,
            sender: wire::get_u16(h, "frame sender")?,
            epoch: wire::get_u32(h, "frame epoch")?,
            seq: wire::get_u64(h, "frame seq")?,
            len: wire::get_u32(h, "frame length")? as usize,
            checksum: wire::get_u64(h, "frame checksum")?,
        })
    }

    /// True when the declared payload is over [`MAX_PAYLOAD_LEN`]: the
    /// length field is corrupt, and no byte of the payload may be read.
    fn over_cap(&self) -> bool {
        self.len > MAX_PAYLOAD_LEN as usize
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
/// been consumed, so the stream stays aligned.
pub fn read_frame(r: &mut impl Read, peer: &str) -> Result<(Frame, usize), EngineError> {
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, peer, true)?;
    let h = Header::parse(&header).map_err(EngineError::Wire)?;
    if h.over_cap() {
        return Err(EngineError::Protocol {
            detail: format!(
                "frame from {peer} declares a payload over the {MAX_PAYLOAD_LEN}-byte cap"
            ),
        });
    }
    let mut payload = vec![0u8; h.len];
    read_full(r, &mut payload, peer, false)?;
    if fnv1a64_lanes(&payload) != h.checksum {
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

/// Refuse a frame whose payload exceeds [`MAX_PAYLOAD_LEN`], before any
/// byte of it is encoded or written.
fn check_len(frame: &Frame, peer: &str) -> Result<(), EngineError> {
    if frame.payload.len() > MAX_PAYLOAD_LEN as usize {
        return Err(EngineError::FrameTooLarge {
            peer: peer.to_string(),
            kind: frame.kind,
            len: frame.payload.len(),
            cap: MAX_PAYLOAD_LEN,
        });
    }
    Ok(())
}

/// Write one frame to any byte stream; returns bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame, peer: &str) -> Result<usize, EngineError> {
    check_len(frame, peer)?;
    let enc = frame.encode();
    w.write_all(&enc)
        .and_then(|()| w.flush())
        .map_err(net_err(format!("writing frame to {peer}")))?;
    Ok(enc.len())
}

/// What the receive side of a link yields: a frame and the bytes it
/// occupied on the wire, or the error reading it raised, which ends the
/// link.
type ReadResult = Result<(Frame, usize), EngineError>;

/// The error a link reports, in `context`, once the other end is gone.
fn closed(context: String) -> EngineError {
    EngineError::Net {
        context,
        detail: "connection closed by peer".to_string(),
    }
}

/// Room a queue starts with: a phase's frames from one peer (a batch per
/// delivery kind and the sentinel), twice over for a peer one phase
/// ahead, with slack — so a queue does not grow, and allocate, by how far
/// apart its two ends happen to run.
const QUEUE_SLOTS: usize = 16;

/// An unbounded FIFO of link items between one sending and one receiving
/// end; closed once either end is dropped. A mutex and a condvar rather
/// than `std::sync::mpsc`, whose blocked receive allocates the first time
/// a channel blocks: here equal runs allocate equally however their
/// threads interleave (the counting-allocator smoke tests compare them).
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    items: VecDeque<ReadResult>,
    open: bool,
    /// The receiving end is blocked on `ready`: only then does a push pay
    /// for a wake-up.
    waiting: bool,
}

impl Queue {
    fn state(&self) -> MutexGuard<'_, QueueState> {
        // Every update leaves the state whole, so a holder's panic leaves
        // nothing half-done behind the poison.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn close(&self) {
        self.state().open = false;
        self.ready.notify_all();
    }
}

/// The sending end of a [`Queue`].
struct QueueTx(Arc<Queue>);

/// The receiving end of a [`Queue`].
struct QueueRx(Arc<Queue>);

/// A new open queue.
fn queue() -> (QueueTx, QueueRx) {
    let queue = Arc::new(Queue {
        state: Mutex::new(QueueState {
            items: VecDeque::with_capacity(QUEUE_SLOTS),
            open: true,
            waiting: false,
        }),
        ready: Condvar::new(),
    });
    (QueueTx(queue.clone()), QueueRx(queue))
}

impl QueueTx {
    /// Append one item; a dropped receiving end is a closed connection.
    fn push(&self, item: ReadResult, peer: &str) -> Result<(), EngineError> {
        let mut state = self.0.state();
        if !state.open {
            return Err(closed(format!("writing frame to {peer}")));
        }
        state.items.push_back(item);
        if state.waiting {
            self.0.ready.notify_one();
        }
        Ok(())
    }
}

impl QueueRx {
    /// Block for the next item; once the sending end is gone and every
    /// item it sent is read, the closed connection a socket reports.
    fn recv(&self, peer: &str) -> ReadResult {
        let mut state = self.0.state();
        loop {
            if let Some(item) = state.items.pop_front() {
                return item;
            }
            if !state.open {
                return Err(closed(format!("reading frame from {peer}")));
            }
            state.waiting = true;
            state = self
                .0
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting = false;
        }
    }
}

impl Drop for QueueTx {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Drop for QueueRx {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The send half of a link: a socket, or the queue an in-memory peer
/// reads from.
enum FrameTx {
    Socket(TcpStream),
    Queue(QueueTx),
}

impl FrameTx {
    /// Send one frame to `peer`; returns its wire size.
    fn send(&mut self, frame: &Frame, peer: &str) -> Result<usize, EngineError> {
        match self {
            FrameTx::Socket(stream) => write_frame(stream, frame, peer),
            FrameTx::Queue(queue) => {
                check_len(frame, peer)?;
                let n = HEADER_LEN + frame.payload.len();
                queue.push(Ok((frame.clone(), n)), peer)?;
                Ok(n)
            }
        }
    }
}

/// An in-memory link: the send half of each end is the other's queue.
fn queue_pair() -> ((FrameTx, QueueRx), (FrameTx, QueueRx)) {
    let (a_tx, b_rx) = queue();
    let (b_tx, a_rx) = queue();
    ((FrameTx::Queue(a_tx), a_rx), (FrameTx::Queue(b_tx), b_rx))
}

/// The receive half of a [`FrameConn`].
enum FrameRx {
    Socket(BufReader<TcpStream>),
    Queue(QueueRx),
}

/// A framed, bidirectional connection — a TCP stream (buffered reads,
/// Nagle disabled) or one end of an in-memory pair — with cumulative byte
/// accounting for the transport's counters.
pub struct FrameConn {
    tx: FrameTx,
    rx: FrameRx,
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
            tx: FrameTx::Socket(writer),
            rx: FrameRx::Socket(BufReader::new(stream)),
            peer,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// An in-memory connection: two ends, labelled with the peer each one
    /// talks to. Dropping one end closes the other's reads.
    pub(crate) fn pair(a_peer: &str, b_peer: &str) -> (FrameConn, FrameConn) {
        let ((a_tx, a_rx), (b_tx, b_rx)) = queue_pair();
        let end = |tx, rx, peer: &str| FrameConn {
            tx,
            rx: FrameRx::Queue(rx),
            peer: peer.to_string(),
            bytes_sent: 0,
            bytes_received: 0,
        };
        (end(a_tx, a_rx, a_peer), end(b_tx, b_rx, b_peer))
    }

    /// Relabel the peer once its identity is known (the coordinator learns
    /// which partition a connection belongs to from its Hello frame).
    pub fn set_peer(&mut self, peer: impl Into<String>) {
        self.peer = peer.into();
    }

    /// Send one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), EngineError> {
        let n = self.tx.send(frame, &self.peer)?;
        self.bytes_sent += n as u64;
        Ok(())
    }

    /// Receive one frame. A checksum mismatch is a typed error (see
    /// [`read_frame`]).
    pub fn recv(&mut self) -> Result<Frame, EngineError> {
        let (f, n) = match &mut self.rx {
            FrameRx::Socket(reader) => read_frame(reader, &self.peer)?,
            FrameRx::Queue(queue) => queue.recv(&self.peer)?,
        };
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
}

/// One worker's end of a peer-mesh link: the send half, and the queue of
/// what the peer sent — filled by a reader thread over a socket
/// ([`PeerLink::socket`]), by the peer itself in memory
/// ([`PeerLink::pair`]).
pub(crate) struct PeerLink {
    tx: FrameTx,
    rx: QueueRx,
    /// The peer's label in errors ("partition 2").
    peer: String,
}

impl PeerLink {
    /// A mesh link over an established stream. The read half is drained
    /// by a detached thread into an unbounded queue. Decoupling reads from
    /// the worker's phase structure is what makes the mesh deadlock-free —
    /// a peer's send never blocks on this worker reaching its own collect,
    /// because the kernel buffer is always being emptied. A read error —
    /// a closed stream, a malformed header, a checksum mismatch — is
    /// pushed and the thread exits: the link is over.
    pub(crate) fn socket(
        stream: TcpStream,
        mut reader: BufReader<TcpStream>,
        peer: String,
    ) -> PeerLink {
        let (tx, rx) = queue();
        let label = peer.clone();
        std::thread::spawn(move || loop {
            let res = read_frame(&mut reader, &label);
            let fatal = res.is_err();
            if tx.push(res, &label).is_err() || fatal {
                break; // nobody is listening, or the stream is done
            }
        });
        PeerLink {
            tx: FrameTx::Socket(stream),
            rx,
            peer,
        }
    }

    /// Both ends of an in-memory mesh link, labelled with the peer each
    /// one talks to. Its queues are unbounded, like a socket's reader
    /// queue, so a send never waits for the peer.
    pub(crate) fn pair(a_peer: &str, b_peer: &str) -> (PeerLink, PeerLink) {
        let ((a_tx, a_rx), (b_tx, b_rx)) = queue_pair();
        let end = |tx, rx, peer: &str| PeerLink {
            tx,
            rx,
            peer: peer.to_string(),
        };
        (end(a_tx, a_rx, a_peer), end(b_tx, b_rx, b_peer))
    }

    /// Send one frame to the peer; returns its wire size.
    pub(crate) fn send(&mut self, frame: &Frame) -> Result<usize, EngineError> {
        self.tx.send(frame, &self.peer)
    }

    /// Block for the next item from the peer; a dropped peer end is the
    /// closed connection a socket reader reports.
    pub(crate) fn recv(&self) -> ReadResult {
        self.rx.recv(&self.peer)
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

// ---- observability records and telemetry payloads ----------------------

/// Worker → coordinator round report, one per closed timestep: what the
/// status board shows and the straggler judge reads. The worker fills the
/// round's fields; its transport fills `clock_ns` and the byte counters as
/// it sends the report. Trace events, the metrics shard and attribution
/// rows travel once, in the Output frame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryMsg {
    /// Timestep this report closes (worker-local progress marker).
    pub timestep: u32,
    /// Supersteps the closed timestep ran.
    pub supersteps: u32,
    /// Barrier wait accumulated in the closed timestep, nanoseconds.
    pub barrier_wait_ns: u64,
    /// Worker clock reading at send time, nanoseconds since the worker's
    /// session epoch. Worker clock domain: comparable within one worker's
    /// frames, not across workers or with the coordinator clock.
    pub clock_ns: u64,
    /// Cumulative bytes this worker has written to its links.
    pub bytes_sent: u64,
    /// Cumulative bytes this worker has read from its links.
    pub bytes_received: u64,
}

impl WireMsg for TelemetryMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.timestep.encode(buf);
        self.supersteps.encode(buf);
        self.barrier_wait_ns.encode(buf);
        self.clock_ns.encode(buf);
        self.bytes_sent.encode(buf);
        self.bytes_received.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(TelemetryMsg {
            timestep: u32::decode(buf)?,
            supersteps: u32::decode(buf)?,
            barrier_wait_ns: u64::decode(buf)?,
            clock_ns: u64::decode(buf)?,
            bytes_sent: u64::decode(buf)?,
            bytes_received: u64::decode(buf)?,
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
pub fn decode_payload<M: WireMsg>(payload: Bytes) -> Result<M, EngineError> {
    Ok(wire::decode_exact(payload, "control payload", M::decode)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use tempograph_gofs::codec::assert_hex_golden;
    use tempograph_metrics::Histogram;
    use tempograph_trace::TraceEvent;

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

    /// `frame`'s encoding with its last byte flipped — a payload byte when
    /// there is a payload, a checksum byte otherwise: the header parses,
    /// the checksum does not match.
    fn damaged(frame: &Frame) -> Vec<u8> {
        let mut enc = frame.encode().to_vec();
        if let Some(last) = enc.last_mut() {
            *last ^= 0xff;
        }
        enc
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
        let good = data_frame(2, b"the next frame");
        let mut pipe = damaged(&bad);
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

    /// An in-memory connection counts the bytes a socket would, refuses
    /// an oversize payload before queueing it, and reports a dropped end
    /// as a closed connection.
    #[test]
    fn in_memory_conn_behaves_like_a_socket() {
        let (mut tx, mut rx) = FrameConn::pair("rx", "tx");
        let f = data_frame(1, b"12345");
        tx.send(&f).unwrap();
        assert_eq!(rx.recv().unwrap(), f);
        assert_eq!(tx.bytes_sent(), (HEADER_LEN + 5) as u64);
        assert_eq!(rx.bytes_received(), (HEADER_LEN + 5) as u64);

        let len = MAX_PAYLOAD_LEN as usize + 1;
        let big = Frame::control(FrameKind::Output, 2, 0, Bytes::from(vec![0u8; len]));
        assert!(matches!(
            tx.send(&big),
            Err(EngineError::FrameTooLarge { .. })
        ));
        assert_eq!(tx.bytes_sent(), (HEADER_LEN + 5) as u64);

        drop(tx);
        let err = rx.recv().unwrap_err();
        assert!(err.to_string().contains("closed by peer"), "{err}");
        assert!(err.to_string().contains("tx"), "{err}");
        let err = rx.send(&f).unwrap_err();
        assert!(err.to_string().contains("closed by peer"), "{err}");
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

    fn roundtrip<M: WireMsg + PartialEq + std::fmt::Debug>(m: &M) {
        assert_eq!(decode_payload::<M>(encode_payload(m)).unwrap(), *m);
    }

    #[test]
    fn telemetry_payload_roundtrips() {
        roundtrip(&TelemetryMsg {
            timestep: 3,
            supersteps: 5,
            barrier_wait_ns: 12_345,
            clock_ns: 999_999,
            bytes_sent: 4096,
            bytes_received: 8192,
        });
        roundtrip(&TelemetryMsg::default());
    }

    /// Byte golden for the Telemetry payload: the round report alone.
    #[test]
    fn golden_telemetry_payload() {
        let msg = TelemetryMsg {
            timestep: 6,
            supersteps: 4,
            barrier_wait_ns: 0x1122,
            clock_ns: 0x3344_5566,
            bytes_sent: 777,
            bytes_received: 888,
        };
        let enc = encode_payload(&msg);
        assert_hex_golden(
            &enc,
            include_str!("../testdata/telemetry_msg.hex"),
            "FRAME_VERSION",
            FRAME_VERSION,
        );
        assert_eq!(decode_payload::<TelemetryMsg>(enc).unwrap(), msg);
    }

    /// Byte golden for one frame of every kind: the header layout and all
    /// 13 explicit `FrameKind` discriminants.
    #[test]
    fn golden_frame_headers() {
        use FrameKind::*;
        let kinds = [
            Hello,
            Start,
            Contribution,
            Aggregate,
            Abort,
            DataSuperstep,
            DataNextTimestep,
            Sentinel,
            PeerHello,
            Output,
            Telemetry,
            StatusRequest,
            StatusReply,
        ];
        let frames: Vec<Frame> = (0u8..)
            .zip(kinds)
            .map(|(i, kind)| Frame {
                kind,
                sender: u16::from(i),
                epoch: 0x100 + u32::from(i),
                seq: 0x1_0000_0000 + u64::from(i),
                payload: Bytes::from(vec![i; usize::from(i % 3)]),
            })
            .collect();
        let mut enc = BytesMut::new();
        for f in &frames {
            enc.extend_from_slice(&f.encode());
        }
        assert_hex_golden(
            &enc,
            include_str!("../testdata/frame_headers.hex"),
            "FRAME_VERSION",
            FRAME_VERSION,
        );
        let mut bytes = enc.freeze();
        for f in &frames {
            assert_eq!(&Frame::decode(&mut bytes).unwrap(), f);
        }
    }

    /// Byte golden for the control payloads: Hello, Start and Abort.
    #[test]
    fn golden_control_payloads() {
        let hello = HelloMsg {
            partition: 3,
            listen_addr: "127.0.0.1:4242".into(),
        };
        let start = StartMsg {
            epoch: 2,
            resume_from: 15,
            peer_addrs: vec!["a:1".into(), "b:2".into()],
            fired: vec![0, 7],
        };
        let abort = AbortMsg {
            dead_partition: 1,
            detail: "exit 9".into(),
        };
        let mut enc = BytesMut::new();
        hello.encode(&mut enc);
        start.encode(&mut enc);
        abort.encode(&mut enc);
        assert_hex_golden(
            &enc,
            include_str!("../testdata/control_payloads.hex"),
            "FRAME_VERSION",
            FRAME_VERSION,
        );
        let mut bytes = enc.freeze();
        assert_eq!(HelloMsg::decode(&mut bytes).unwrap(), hello);
        assert_eq!(StartMsg::decode(&mut bytes).unwrap(), start);
        assert_eq!(AbortMsg::decode(&mut bytes).unwrap(), abort);
    }

    /// Byte golden for the barrier payloads: Contribution and Aggregate.
    #[test]
    fn golden_barrier_payloads() {
        let contribution = Contribution {
            msgs_sent: 0x0102_0304,
            all_halted: true,
        };
        let aggregate = Aggregate {
            total_msgs: 0x0a0b_0c0d,
            all_halted: false,
        };
        let mut enc = BytesMut::new();
        contribution.encode(&mut enc);
        aggregate.encode(&mut enc);
        assert_hex_golden(
            &enc,
            include_str!("../testdata/barrier_payloads.hex"),
            "FRAME_VERSION",
            FRAME_VERSION,
        );
        let mut bytes = enc.freeze();
        assert_eq!(Contribution::decode(&mut bytes).unwrap(), contribution);
        assert_eq!(Aggregate::decode(&mut bytes).unwrap(), aggregate);
    }

    /// Byte golden for the StatusReply payload and its worker rows.
    #[test]
    fn golden_status_reply_payload() {
        let row = |p: u16| WorkerStatusWire {
            partition: p,
            epoch: 1,
            timestep: 10 + u32::from(p),
            supersteps: 3,
            barrier_wait_ns: 0x1111,
            bytes_sent: 0x2222,
            bytes_received: 0x3333,
            last_telemetry_ms: 0x44,
        };
        let msg = StatusReplyMsg {
            workers: vec![row(0), row(1)],
        };
        let enc = encode_payload(&msg);
        assert_hex_golden(
            &enc,
            include_str!("../testdata/status_reply.hex"),
            "FRAME_VERSION",
            FRAME_VERSION,
        );
        assert_eq!(decode_payload::<StatusReplyMsg>(enc).unwrap(), msg);
    }

    /// A payload past the cap is refused before anything is written, with
    /// an error naming the peer, the frame kind, the length and the cap.
    #[test]
    fn oversize_frame_is_refused_before_writing() {
        struct Counting(usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let len = MAX_PAYLOAD_LEN as usize + 1;
        // Zeroed allocations are mapped lazily: this touches no pages.
        let frame = Frame::control(FrameKind::Output, 2, 0, Bytes::from(vec![0u8; len]));
        let mut w = Counting(0);
        let err = write_frame(&mut w, &frame, "coordinator").unwrap_err();
        assert_eq!(
            err,
            EngineError::FrameTooLarge {
                peer: "coordinator".into(),
                kind: FrameKind::Output,
                len,
                cap: MAX_PAYLOAD_LEN,
            }
        );
        let text = err.to_string();
        for part in [
            "coordinator",
            "Output",
            &len.to_string(),
            &MAX_PAYLOAD_LEN.to_string(),
        ] {
            assert!(text.contains(part), "{text}");
        }
        assert_eq!(w.0, 0, "nothing may be written");
    }

    #[test]
    fn telemetry_event_and_histogram_malformations_are_typed() {
        // Unknown trace-event kind tag.
        let ev = TraceEvent::Instant {
            name: "x",
            ts_ns: 0,
            arg: None,
        };
        let mut bad = encode_payload(&ev).to_vec();
        bad[0] = 9;
        assert!(matches!(
            TraceEvent::decode(&mut Bytes::from(bad)),
            Err(WireError::BadTag {
                context: "trace event kind",
                tag: 9
            })
        ));
        // Wrong histogram bucket count: the error carries the count found,
        // also past 255.
        for count in [3u32, 256] {
            let mut bad = encode_payload(&Histogram::new()).to_vec();
            bad[..4].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                Histogram::decode(&mut Bytes::from(bad)),
                Err(WireError::OutOfRange {
                    context: "histogram bucket count",
                    value: count.into()
                })
            );
        }
    }

    #[test]
    fn trace_event_wire_conversions_roundtrip() {
        let events = [
            TraceEvent::Span {
                name: "compute",
                start_ns: 10,
                dur_ns: 5,
                arg: Some(("superstep", 3)),
            },
            TraceEvent::Span {
                name: "barrier.arrive",
                start_ns: 16,
                dur_ns: 2,
                arg: None,
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
            roundtrip(ev);
        }
        // Decoded names are interned: one allocation per distinct name.
        let a = decode_payload::<TraceEvent>(encode_payload(&events[0])).unwrap();
        let b = decode_payload::<TraceEvent>(encode_payload(&events[0])).unwrap();
        match (a, b) {
            (TraceEvent::Span { name: x, .. }, TraceEvent::Span { name: y, .. }) => {
                assert!(std::ptr::eq(x, y))
            }
            other => panic!("expected spans, got {other:?}"),
        }
    }

    #[test]
    fn histogram_wire_conversions_roundtrip() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 17, 1 << 20, u64::MAX] {
            h.record(v);
        }
        roundtrip(&h);
        // Empty histograms roundtrip too (min sentinel restored).
        roundtrip(&Histogram::new());
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
