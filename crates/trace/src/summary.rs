//! Plain-text top-N trace digest: the at-a-glance companion to the
//! Perfetto export.

use crate::trace::{SpanView, Trace};

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn top_n(mut spans: Vec<SpanView>, n: usize) -> Vec<SpanView> {
    spans.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
    spans.truncate(n);
    spans
}

fn span_line(s: &SpanView) -> String {
    let arg = match s.arg {
        Some((k, v)) => format!("  {k}={v}"),
        None => String::new(),
    };
    format!(
        "  track {:<3} {:>10.3} ms  @ {:>10.3} ms{arg}",
        s.track,
        ms(s.dur_ns),
        ms(s.start_ns)
    )
}

impl Trace {
    /// A plain-text digest: the `n` slowest supersteps, the `n` worst
    /// barrier waits, straggler incidents, and the GoFS cache hit rate.
    pub fn summary(&self, n: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== trace summary ({} tracks, {} events) ===\n",
            self.tracks.len(),
            self.num_events()
        ));

        out.push_str(&format!("slowest supersteps (top {n}):\n"));
        let slow = top_n(self.spans("superstep").collect(), n);
        if slow.is_empty() {
            out.push_str("  (no superstep spans)\n");
        }
        for s in &slow {
            out.push_str(&span_line(s));
            out.push('\n');
        }

        out.push_str(&format!("worst barrier waits (top {n}):\n"));
        let waits = top_n(self.spans("barrier.arrive").collect(), n);
        if waits.is_empty() {
            out.push_str("  (no barrier spans)\n");
        }
        for s in &waits {
            out.push_str(&span_line(s));
            out.push('\n');
        }

        let stragglers = self.instants("straggler.detected");
        if !stragglers.is_empty() {
            out.push_str(&format!(
                "stragglers: {} barrier wait(s) above the straggler factor × the round median\n",
                stragglers.len()
            ));
        }

        let hits = self.counter_final("gofs.cache_hits");
        let misses = self.counter_final("gofs.cache_misses");
        let bytes = self.counter_final("gofs.bytes_read");
        if hits + misses > 0 {
            out.push_str(&format!(
                "gofs cache: {hits} hits / {misses} misses ({:.1}% hit rate), \
                 {:.2} MiB read\n",
                100.0 * hits as f64 / (hits + misses) as f64,
                bytes as f64 / (1024.0 * 1024.0)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceEvent;
    use crate::trace::TraceTrack;

    fn span(name: &'static str, start: u64, dur: u64, arg: u64) -> TraceEvent {
        TraceEvent::Span {
            name,
            start_ns: start,
            dur_ns: dur,
            arg: Some(("superstep", arg)),
        }
    }

    #[test]
    fn summary_reports_slowest_and_cache_rate() {
        let tr = Trace {
            tracks: vec![TraceTrack {
                track: 0,
                name: "partition 0".into(),
                events: vec![
                    span("superstep", 0, 5_000_000, 0),
                    span("superstep", 5_000_000, 9_000_000, 1),
                    TraceEvent::Span {
                        name: "barrier.arrive",
                        start_ns: 100,
                        dur_ns: 2_000_000,
                        arg: None,
                    },
                    TraceEvent::Counter {
                        name: "gofs.cache_hits",
                        ts_ns: 1,
                        value: 9,
                    },
                    TraceEvent::Counter {
                        name: "gofs.cache_misses",
                        ts_ns: 1,
                        value: 1,
                    },
                    TraceEvent::Counter {
                        name: "gofs.bytes_read",
                        ts_ns: 1,
                        value: 2 * 1024 * 1024,
                    },
                ],
            }],
        };
        let text = tr.summary(1);
        assert!(text.contains("slowest supersteps"));
        assert!(text.contains("superstep=1"), "the 9 ms one wins: {text}");
        assert!(!text.contains("superstep=0"), "top-1 truncates");
        assert!(text.contains("90.0% hit rate"));
        assert!(text.contains("2.00 MiB read"));
    }

    /// The coordinator's judge is the one straggler detector; its
    /// `straggler.detected` instants are what the digest counts.
    #[test]
    fn summary_counts_detected_stragglers() {
        let instant = |ts_ns| TraceEvent::Instant {
            name: "straggler.detected",
            ts_ns,
            arg: Some(("wait_ns", 7_000_000)),
        };
        let tr = Trace {
            tracks: vec![TraceTrack {
                track: 1,
                name: "partition 1".into(),
                events: vec![instant(10), instant(20)],
            }],
        };
        let text = tr.summary(3);
        assert!(text.contains("stragglers: 2 barrier wait(s)"), "{text}");
        assert!(!Trace::default().summary(3).contains("stragglers"));
    }

    #[test]
    fn summary_handles_empty_trace() {
        let text = Trace::default().summary(3);
        assert!(text.contains("(no superstep spans)"));
        assert!(text.contains("(no barrier spans)"));
        assert!(!text.contains("gofs cache"));
    }
}
