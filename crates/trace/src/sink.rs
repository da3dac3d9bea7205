//! Per-worker event recording: the hot path.

use bytes::{BufMut, Bytes, BytesMut};
use std::io::Write;
use std::time::Instant;
use tempograph_core::wire::{get_u8, WireError, WireMsg};

/// One recorded event. `Copy`-sized and allocation-free; names are
/// `&'static str` so the hot path never formats or clones strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A completed span (Chrome `ph: "X"`). Nested spans on one track must
    /// be properly contained in their parent.
    Span {
        /// Span name (e.g. `"compute"`, `"barrier.arrive"`).
        name: &'static str,
        /// Start, nanoseconds since the session epoch.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Optional `(key, value)` argument (e.g. `("superstep", 3)`).
        arg: Option<(&'static str, u64)>,
    },
    /// A point event (Chrome `ph: "i"`).
    Instant {
        /// Event name (e.g. `"straggler.detected"`).
        name: &'static str,
        /// Timestamp, nanoseconds since the session epoch.
        ts_ns: u64,
        /// Optional `(key, value)` argument.
        arg: Option<(&'static str, u64)>,
    },
    /// A sampled counter value (Chrome `ph: "C"`).
    Counter {
        /// Counter name (e.g. `"gofs.bytes_read"`).
        name: &'static str,
        /// Sample timestamp, nanoseconds since the session epoch.
        ts_ns: u64,
        /// Sampled value.
        value: u64,
    },
}

impl TraceEvent {
    /// The event's (start) timestamp in nanoseconds since the epoch.
    pub fn ts_ns(&self) -> u64 {
        match *self {
            TraceEvent::Span { start_ns, .. } => start_ns,
            TraceEvent::Instant { ts_ns, .. } | TraceEvent::Counter { ts_ns, .. } => ts_ns,
        }
    }

    /// The event's name.
    pub fn name(&self) -> &'static str {
        match *self {
            TraceEvent::Span { name, .. }
            | TraceEvent::Instant { name, .. }
            | TraceEvent::Counter { name, .. } => name,
        }
    }
}

/// One tag byte (1 = span, 2 = instant, 3 = counter), then the name, `a`
/// (span start / event timestamp), `b` (span duration / counter value, 0
/// for instants) and the optional argument (always `None` for counters).
/// Names are written straight from their `&'static str` and interned back
/// on decode.
impl WireMsg for TraceEvent {
    fn encode(&self, buf: &mut BytesMut) {
        let (tag, name, a, b, arg) = match *self {
            TraceEvent::Span {
                name,
                start_ns,
                dur_ns,
                arg,
            } => (1u8, name, start_ns, dur_ns, arg),
            TraceEvent::Instant { name, ts_ns, arg } => (2, name, ts_ns, 0, arg),
            TraceEvent::Counter { name, ts_ns, value } => (3, name, ts_ns, value, None),
        };
        buf.put_u8(tag);
        name.encode(buf);
        a.encode(buf);
        b.encode(buf);
        arg.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        type Arg = Option<(&'static str, u64)>;
        let build: fn(&'static str, u64, u64, Arg) -> TraceEvent =
            match get_u8(buf, "trace event kind")? {
                1 => |name, start_ns, dur_ns, arg| TraceEvent::Span {
                    name,
                    start_ns,
                    dur_ns,
                    arg,
                },
                2 => |name, ts_ns, _, arg| TraceEvent::Instant { name, ts_ns, arg },
                3 => |name, ts_ns, value, _| TraceEvent::Counter { name, ts_ns, value },
                tag => {
                    return Err(WireError::BadTag {
                        context: "trace event kind",
                        tag,
                    })
                }
            };
        Ok(build(
            <&'static str>::decode(buf)?,
            u64::decode(buf)?,
            u64::decode(buf)?,
            Arg::decode(buf)?,
        ))
    }
}

/// How a sink stores events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep every event (full trace; memory grows with the run).
    Full,
    /// Keep only the most recent `ring_capacity` events — a bounded flight
    /// recorder for long production runs where a full trace is too heavy.
    FlightRecorder,
}

/// Session-wide tracing configuration, shared by every sink of one job.
///
/// Cloning is cheap; all sinks built from clones of one config share its
/// epoch, so their timestamps are directly comparable.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    epoch: Instant,
    /// Buffer policy (full trace vs. bounded flight recorder).
    pub mode: TraceMode,
    /// Events kept per sink in [`TraceMode::FlightRecorder`], and the
    /// maximum tail length of a stderr flight-recorder dump.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            epoch: Instant::now(),
            mode: TraceMode::Full,
            ring_capacity: 4096,
        }
    }
}

impl TraceConfig {
    /// A full-trace config whose epoch is now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switch to bounded flight-recorder buffering.
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.mode = TraceMode::FlightRecorder;
        self.ring_capacity = capacity.max(1);
        self
    }

    /// Build the recording sink for one track (one partition/worker).
    pub fn sink(&self, track: u32) -> TraceSink {
        TraceSink {
            active: true,
            epoch: self.epoch,
            track,
            ring: match self.mode {
                TraceMode::Full => 0,
                TraceMode::FlightRecorder => self.ring_capacity.max(1),
            },
            tail: self.ring_capacity.max(1),
            next_overwrite: 0,
            events: Vec::new(),
        }
    }
}

/// Opaque handle returned by [`TraceSink::start`]; feeds
/// [`TraceSink::span_arg_since`].
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(u64);

/// A per-worker event buffer. Owned by exactly one thread; every record
/// method is one clock read + one `Vec` push (no locks, no allocation once
/// warm). Dropping a sink **while its thread is panicking** dumps the
/// flight-recorder tail to stderr.
#[derive(Debug)]
pub struct TraceSink {
    active: bool,
    epoch: Instant,
    track: u32,
    /// Ring capacity; `0` means unbounded (full trace).
    ring: usize,
    /// Tail length for flight-recorder dumps.
    tail: usize,
    /// Next overwrite position once a bounded ring is full.
    next_overwrite: usize,
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// A sink that records nothing (for untraced jobs). Its [`Self::now`]
    /// clock still works, so callers can use one code path for timing.
    pub fn inert() -> Self {
        TraceSink {
            active: false,
            epoch: Instant::now(),
            track: 0,
            ring: 0,
            tail: 64,
            next_overwrite: 0,
            events: Vec::new(),
        }
    }

    /// Rebuild a sink from events recorded elsewhere — e.g. shipped across
    /// a process boundary in a worker's Output frame. The sink is active and
    /// unbounded, so `Trace::from_sinks` treats it exactly like a locally
    /// recorded one. Its epoch is fresh: the recorded timestamps keep the
    /// clock domain of the worker that produced them.
    pub fn from_recorded(track: u32, events: Vec<TraceEvent>) -> Self {
        TraceSink {
            active: true,
            epoch: Instant::now(),
            track,
            ring: 0,
            tail: 64,
            next_overwrite: 0,
            events,
        }
    }

    /// The track (partition) id this sink records under.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Whether this sink records: built from a [`TraceConfig`] or
    /// [`Self::from_recorded`], not [`Self::inert`].
    #[inline]
    pub fn on(&self) -> bool {
        self.active
    }

    /// Nanoseconds since the session epoch. Works on inert sinks too, so
    /// the engine reads one clock for metrics and trace alike.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.ring > 0 && self.events.len() >= self.ring {
            self.events[self.next_overwrite] = ev;
            self.next_overwrite = (self.next_overwrite + 1) % self.ring;
        } else {
            self.events.push(ev);
        }
    }

    /// Begin a trace-only span: reads the clock only when recording is on.
    /// Pair with [`Self::span_arg_since`].
    #[inline]
    pub fn start(&self) -> SpanStart {
        SpanStart(if self.on() { self.now() } else { 0 })
    }

    /// Record a span begun by [`Self::start`], ending now, with one
    /// argument.
    #[inline]
    pub fn span_arg_since(
        &mut self,
        name: &'static str,
        start: SpanStart,
        key: &'static str,
        value: u64,
    ) {
        if !self.on() {
            return;
        }
        let end = self.now();
        self.push(TraceEvent::Span {
            name,
            start_ns: start.0,
            dur_ns: end.saturating_sub(start.0),
            arg: Some((key, value)),
        });
    }

    /// Record a span from explicit clock readings (both from [`Self::now`]).
    /// Lets the engine reuse the exact timestamps it already reads for
    /// metrics, making aggregates *exactly* derivable from the trace.
    #[inline]
    pub fn span_at(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.on() {
            return;
        }
        self.push(TraceEvent::Span {
            name,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            arg: None,
        });
    }

    /// [`Self::span_at`] with one argument.
    #[inline]
    pub fn span_arg_at(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        key: &'static str,
        value: u64,
    ) {
        if !self.on() {
            return;
        }
        self.push(TraceEvent::Span {
            name,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            arg: Some((key, value)),
        });
    }

    /// Record a point event at the current time.
    #[inline]
    pub fn instant(&mut self, name: &'static str, arg: Option<(&'static str, u64)>) {
        if !self.on() {
            return;
        }
        let ts_ns = self.now();
        self.push(TraceEvent::Instant { name, ts_ns, arg });
    }

    /// Sample a counter value at the current time.
    #[inline]
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if !self.on() {
            return;
        }
        let ts_ns = self.now();
        self.push(TraceEvent::Counter { name, ts_ns, value });
    }

    /// Events recorded so far, oldest first (un-rotates a wrapped ring).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = self.events.clone();
        if self.ring > 0 && self.events.len() >= self.ring {
            out.rotate_left(self.next_overwrite);
        }
        out
    }

    /// Drain this sink's events (oldest first), leaving it empty.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        let wrapped = self.ring > 0 && self.events.len() >= self.ring;
        let pivot = self.next_overwrite;
        self.next_overwrite = 0;
        let mut out = std::mem::take(&mut self.events);
        if wrapped {
            out.rotate_left(pivot);
        }
        out
    }

    /// Write the flight-recorder tail (most recent events, bounded by the
    /// ring capacity) to `w`, newest last.
    pub fn dump_tail(&self, w: &mut dyn Write, reason: &str) -> std::io::Result<()> {
        let events = self.events();
        let tail_len = self.tail.min(events.len());
        writeln!(
            w,
            "==== flight recorder: track {} — {reason} (last {tail_len} of {} events) ====",
            self.track,
            events.len()
        )?;
        for ev in &events[events.len() - tail_len..] {
            match *ev {
                TraceEvent::Span {
                    name,
                    start_ns,
                    dur_ns,
                    arg,
                } => {
                    write!(w, "  [{:>14}ns] span    {name} dur={dur_ns}ns", start_ns)?;
                    if let Some((k, v)) = arg {
                        write!(w, " {k}={v}")?;
                    }
                    writeln!(w)?;
                }
                TraceEvent::Instant { name, ts_ns, arg } => {
                    write!(w, "  [{:>14}ns] instant {name}", ts_ns)?;
                    if let Some((k, v)) = arg {
                        write!(w, " {k}={v}")?;
                    }
                    writeln!(w)?;
                }
                TraceEvent::Counter { name, ts_ns, value } => {
                    writeln!(w, "  [{:>14}ns] counter {name} = {value}", ts_ns)?;
                }
            }
        }
        writeln!(w, "==== end flight recorder (track {}) ====", self.track)
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        // The flight-recorder promise: a panicking worker leaves its last
        // events on stderr. Normal completion moves events out via
        // `take_events` first, so this fires only on unwind.
        if self.active && !self.events.is_empty() && std::thread::panicking() {
            let _ = self.dump_tail(&mut std::io::stderr().lock(), "worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TraceConfig {
        TraceConfig::new()
    }

    #[test]
    fn records_spans_counters_instants() {
        let mut s = cfg().sink(3);
        let t0 = s.now();
        let t1 = s.now();
        s.span_arg_at("compute", t0, t1, "superstep", 7);
        s.counter("msgs", 42);
        s.instant("marker", None);
        let evs = s.take_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].name(), "compute");
        assert!(matches!(evs[1], TraceEvent::Counter { value: 42, .. }));
        assert!(s.take_events().is_empty(), "take drains");
    }

    #[test]
    fn from_recorded_replays_shipped_events() {
        let evs = vec![
            TraceEvent::Span {
                name: "compute",
                start_ns: 5,
                dur_ns: 2,
                arg: None,
            },
            TraceEvent::Counter {
                name: "msgs",
                ts_ns: 9,
                value: 3,
            },
        ];
        let mut s = TraceSink::from_recorded(7, evs.clone());
        assert_eq!(s.track(), 7);
        assert_eq!(s.take_events(), evs);
    }

    #[test]
    fn inert_sink_records_nothing_but_clock_works() {
        let mut s = TraceSink::inert();
        let a = s.now();
        let start = s.start();
        s.span_arg_since("x", start, "k", 1);
        s.span_at("y", 0, 10);
        s.counter("c", 1);
        s.instant("i", None);
        let b = s.now();
        assert!(b >= a, "clock is monotonic");
        assert!(s.events().is_empty());
    }

    #[test]
    fn flight_recorder_ring_keeps_most_recent_in_order() {
        let mut s = cfg().flight_recorder(4).sink(0);
        for i in 0..10u64 {
            s.counter("n", i);
        }
        let evs = s.take_events();
        let vals: Vec<u64> = evs
            .iter()
            .map(|e| match *e {
                TraceEvent::Counter { value, .. } => value,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vals, vec![6, 7, 8, 9]);
    }

    #[test]
    fn dump_tail_formats_events() {
        let mut s = cfg().sink(5);
        s.counter("gofs.bytes_read", 1024);
        let t0 = s.now();
        s.span_at("compute", t0, t0 + 5);
        let mut buf = Vec::new();
        s.dump_tail(&mut buf, "unit test").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("track 5"));
        assert!(text.contains("unit test"));
        assert!(text.contains("gofs.bytes_read = 1024"));
        assert!(text.contains("span    compute"));
    }
}
