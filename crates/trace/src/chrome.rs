//! Chrome trace-event JSON export (the `chrome://tracing` / Perfetto
//! format).
//!
//! Emits the JSON-object form `{"traceEvents": [...]}` with:
//!
//! * one `M` (metadata) event naming the process and one per track naming
//!   its "thread" — partitions render as threads;
//! * `X` (complete) events for spans: `ts`/`dur` in microseconds, so
//!   nested engine spans (timestep ⊃ superstep ⊃ compute/send/barrier)
//!   form a flame chart;
//! * `i` (instant) events (e.g. straggler markers);
//! * `C` (counter) events (messages, bytes, GoFS cache hits/misses).
//!
//! Open at <https://ui.perfetto.dev> ("Open trace file") or
//! `chrome://tracing` ("Load").

use crate::sink::TraceEvent;
use crate::trace::Trace;
use std::fmt::Write;

/// The single synthetic process id all tracks live under.
const PID: u32 = 1;

/// Microseconds (3 decimals) from nanoseconds — the trace-event `ts` unit.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Minimal JSON string escaping (names are engine-controlled, but track
/// names are built at runtime).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn arg_json(arg: Option<(&'static str, u64)>) -> String {
    match arg {
        Some((k, v)) => format!(",\"args\":{{\"{}\":{v}}}", escape(k)),
        None => String::new(),
    }
}

impl Trace {
    /// Serialise as Chrome trace-event JSON (see module docs).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.num_events() * 96);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"tempograph\"}}}}"
        ));
        for t in &self.tracks {
            out.push_str(&format!(
                ",\n{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.track,
                escape(&t.name)
            ));
        }
        for t in &self.tracks {
            for ev in &t.events {
                out.push_str(",\n");
                match *ev {
                    TraceEvent::Span {
                        name,
                        start_ns,
                        dur_ns,
                        arg,
                    } => {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"dur\":{},\
                             \"name\":\"{}\"{}}}",
                            t.track,
                            us(start_ns),
                            us(dur_ns),
                            escape(name),
                            arg_json(arg)
                        );
                    }
                    TraceEvent::Instant { name, ts_ns, arg } => {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\"tid\":{},\"ts\":{},\
                             \"name\":\"{}\"{}}}",
                            t.track,
                            us(ts_ns),
                            escape(name),
                            arg_json(arg)
                        );
                    }
                    TraceEvent::Counter { name, ts_ns, value } => {
                        let _ = write!(
                            out,
                            "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"name\":\"{}\",\
                             \"args\":{{\"value\":{value}}}}}",
                            t.track,
                            us(ts_ns),
                            escape(name)
                        );
                    }
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceTrack;

    #[test]
    fn exports_all_phases_with_stable_pid_tid() {
        let tr = Trace {
            tracks: vec![TraceTrack {
                track: 2,
                name: "partition 2".into(),
                events: vec![
                    TraceEvent::Span {
                        name: "compute",
                        start_ns: 1_500,
                        dur_ns: 2_000,
                        arg: Some(("superstep", 4)),
                    },
                    TraceEvent::Instant {
                        name: "straggler.detected",
                        ts_ns: 4_000,
                        arg: Some(("wait_ns", 123_456)),
                    },
                    TraceEvent::Counter {
                        name: "msgs.remote",
                        ts_ns: 5_000,
                        value: 17,
                    },
                ],
            }],
        };
        let json = tr.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"partition 2\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"superstep\":4"));
        assert!(json.contains("\"ph\":\"i\""));
        // The straggler marker carries its wait duration as an args field,
        // so Perfetto shows *how long* the barrier wait was, not just that
        // one happened.
        assert!(json.contains("\"wait_ns\":123456"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":17"));
        // Every event carries the same pid and this track's tid.
        assert_eq!(json.matches("\"pid\":1").count(), 5);
        assert_eq!(json.matches("\"tid\":2").count(), 4);
        // Brace balance: a cheap structural sanity check (no serde in-tree).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn escapes_runtime_strings() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
