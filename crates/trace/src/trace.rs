//! The assembled trace: per-track event streams with queries and
//! validation.

use crate::sink::{TraceEvent, TraceSink};

/// One track of events (one partition/worker, rendered as one "thread" in
/// Perfetto). Events are sorted by `(start, longest-first)` so nested spans
/// follow their parents.
#[derive(Clone, Debug)]
pub struct TraceTrack {
    /// Track id (the partition id).
    pub track: u32,
    /// Human-readable name (e.g. `"partition 3"`).
    pub name: String,
    /// Chronologically sorted events.
    pub events: Vec<TraceEvent>,
}

/// One instant event as returned by [`Trace::instants`]:
/// `(track, ts_ns, arg)`.
pub type InstantView = (u32, u64, Option<(&'static str, u64)>);

/// A flattened view of one span, returned by [`Trace::spans`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanView {
    /// Track the span was recorded on.
    pub track: u32,
    /// Span name.
    pub name: &'static str,
    /// Start, nanoseconds since the session epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Optional `(key, value)` argument.
    pub arg: Option<(&'static str, u64)>,
}

/// A drained, assembled trace — the session-level artefact a
/// [`crate::TraceSink`] feeds. Attached to the engine's `JobResult`;
/// export via [`Trace::to_chrome_json`] / [`Trace::summary`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Tracks in ascending track-id order.
    pub tracks: Vec<TraceTrack>,
}

fn sort_key(ev: &TraceEvent) -> (u64, std::cmp::Reverse<u64>) {
    match *ev {
        TraceEvent::Span {
            start_ns, dur_ns, ..
        } => (start_ns, std::cmp::Reverse(dur_ns)),
        _ => (ev.ts_ns(), std::cmp::Reverse(0)),
    }
}

impl Trace {
    /// Assemble a trace from drained sinks. Multiple sinks may share a
    /// track id (e.g. a worker and its GoFS loader record onto the same
    /// partition track); their events are merged and time-sorted. The
    /// track takes its name from the first sink seen with that id.
    pub fn from_sinks(named_sinks: Vec<(String, TraceSink)>) -> Self {
        let mut tracks: Vec<TraceTrack> = Vec::new();
        for (name, mut sink) in named_sinks {
            let id = sink.track();
            let events = sink.take_events();
            match tracks.iter_mut().find(|t| t.track == id) {
                Some(t) => t.events.extend(events),
                None => tracks.push(TraceTrack {
                    track: id,
                    name,
                    events,
                }),
            }
        }
        for t in &mut tracks {
            t.events.sort_by_key(sort_key);
        }
        tracks.sort_by_key(|t| t.track);
        Trace { tracks }
    }

    /// Total events across all tracks.
    pub fn num_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// All spans named `name`, across tracks.
    pub fn spans<'a>(&'a self, name: &str) -> impl Iterator<Item = SpanView> + 'a {
        let name = name.to_string();
        self.tracks.iter().flat_map(move |t| {
            let name = name.clone();
            t.events.iter().filter_map(move |ev| match *ev {
                TraceEvent::Span {
                    name: n,
                    start_ns,
                    dur_ns,
                    arg,
                } if n == name => Some(SpanView {
                    track: t.track,
                    name: n,
                    start_ns,
                    dur_ns,
                    arg,
                }),
                _ => None,
            })
        })
    }

    /// Sum of the durations of all spans named `name` (all tracks).
    pub fn sum_spans(&self, name: &str) -> u64 {
        self.spans(name).map(|s| s.dur_ns).sum()
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans(name).count()
    }

    /// The last sampled value of counter `name` on each track, summed — a
    /// cluster-wide final counter reading.
    pub fn counter_final(&self, name: &str) -> u64 {
        self.tracks
            .iter()
            .filter_map(|t| {
                t.events.iter().rev().find_map(|ev| match *ev {
                    TraceEvent::Counter { name: n, value, .. } if n == name => Some(value),
                    _ => None,
                })
            })
            .sum()
    }

    /// Instant events named `name`, as `(track, ts_ns, arg)` tuples.
    pub fn instants(&self, name: &str) -> Vec<InstantView> {
        let mut out = Vec::new();
        for t in &self.tracks {
            for ev in &t.events {
                if let TraceEvent::Instant {
                    name: n,
                    ts_ns,
                    arg,
                } = *ev
                {
                    if n == name {
                        out.push((t.track, ts_ns, arg));
                    }
                }
            }
        }
        out
    }

    /// Validate structural invariants: track ids are unique, events are
    /// time-sorted, spans on each track obey stack discipline (every
    /// span is fully contained in the enclosing one — the property that
    /// makes the Perfetto rendering a sensible flame chart), and counter
    /// samples are non-decreasing per `(track, name)` — every counter in
    /// the workspace records a cumulative lifetime total, so a regression
    /// means a producer sampled a resettable window by mistake.
    ///
    /// With the `deep-validate` feature, additionally runs an exhaustive
    /// pairwise check that no two spans on a track partially overlap.
    pub fn validate(&self) -> Result<(), String> {
        for (i, t) in self.tracks.iter().enumerate() {
            if self.tracks[..i].iter().any(|o| o.track == t.track) {
                return Err(format!("duplicate track id {}", t.track));
            }
            let mut last_key = (0u64, std::cmp::Reverse(u64::MAX));
            let mut stack: Vec<(u64, u64)> = Vec::new(); // (start, end)
            let mut counter_last: Vec<(&'static str, u64)> = Vec::new();
            for ev in &t.events {
                let key = sort_key(ev);
                if key < last_key {
                    return Err(format!(
                        "track {}: events not time-sorted at {:?}",
                        t.track, ev
                    ));
                }
                last_key = key;
                if let TraceEvent::Span {
                    name,
                    start_ns,
                    dur_ns,
                    ..
                } = *ev
                {
                    let end = start_ns + dur_ns;
                    while let Some(&(_, pend)) = stack.last() {
                        if start_ns >= pend {
                            stack.pop();
                        } else {
                            break;
                        }
                    }
                    if let Some(&(pstart, pend)) = stack.last() {
                        if !(start_ns >= pstart && end <= pend) {
                            return Err(format!(
                                "track {}: span {name:?} [{start_ns}, {end}) not contained \
                                 in enclosing span [{pstart}, {pend})",
                                t.track
                            ));
                        }
                    }
                    stack.push((start_ns, end));
                }
                if let TraceEvent::Counter { name, value, .. } = *ev {
                    match counter_last.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, last)) => {
                            if value < *last {
                                return Err(format!(
                                    "track {}: counter {name:?} regressed from {last} to {value}",
                                    t.track
                                ));
                            }
                            *last = value;
                        }
                        None => counter_last.push((name, value)),
                    }
                }
            }
            #[cfg(feature = "deep-validate")]
            deep_validate_track(t)?;
        }
        Ok(())
    }
}

/// Exhaustive O(n²) pairwise overlap check: any two spans on a track must
/// be disjoint or nested.
#[cfg(feature = "deep-validate")]
fn deep_validate_track(t: &TraceTrack) -> Result<(), String> {
    let spans: Vec<(u64, u64)> = t
        .events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Span {
                start_ns, dur_ns, ..
            } => Some((start_ns, start_ns + dur_ns)),
            _ => None,
        })
        .collect();
    for (i, &(s1, e1)) in spans.iter().enumerate() {
        for &(s2, e2) in &spans[i + 1..] {
            let disjoint = e1 <= s2 || e2 <= s1;
            let nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
            if !disjoint && !nested {
                return Err(format!(
                    "track {}: spans [{s1}, {e1}) and [{s2}, {e2}) partially overlap",
                    t.track
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceConfig;

    fn span(name: &'static str, start: u64, dur: u64) -> TraceEvent {
        TraceEvent::Span {
            name,
            start_ns: start,
            dur_ns: dur,
            arg: None,
        }
    }

    fn track(id: u32, events: Vec<TraceEvent>) -> TraceTrack {
        let mut events = events;
        events.sort_by_key(super::sort_key);
        TraceTrack {
            track: id,
            name: format!("partition {id}"),
            events,
        }
    }

    #[test]
    fn from_sinks_merges_same_track_and_sorts() {
        let cfg = TraceConfig::new();
        let mut a = cfg.sink(0);
        let mut b = cfg.sink(0); // same track: worker + loader
        let mut c = cfg.sink(1);
        a.span_at("outer", 0, 100);
        b.span_at("inner", 10, 20);
        c.span_at("other", 5, 6);
        let trace = Trace::from_sinks(vec![
            ("partition 0".into(), a),
            ("partition 0 loader".into(), b),
            ("partition 1".into(), c),
        ]);
        assert_eq!(trace.tracks.len(), 2);
        assert_eq!(trace.tracks[0].track, 0);
        assert_eq!(trace.tracks[0].name, "partition 0");
        assert_eq!(trace.tracks[0].events.len(), 2);
        // Outer (longer) sorts before inner at later start.
        assert_eq!(trace.tracks[0].events[0].name(), "outer");
        assert!(trace.validate().is_ok());
        assert_eq!(trace.num_events(), 3);
    }

    #[test]
    fn queries_sum_count_and_counters() {
        let tr = Trace {
            tracks: vec![
                track(
                    0,
                    vec![
                        span("compute", 0, 10),
                        span("compute", 20, 5),
                        TraceEvent::Counter {
                            name: "msgs",
                            ts_ns: 1,
                            value: 3,
                        },
                        TraceEvent::Counter {
                            name: "msgs",
                            ts_ns: 30,
                            value: 9,
                        },
                    ],
                ),
                track(1, vec![span("compute", 0, 7)]),
            ],
        };
        assert_eq!(tr.sum_spans("compute"), 22);
        assert_eq!(tr.span_count("compute"), 3);
        assert_eq!(tr.counter_final("msgs"), 9, "last sample per track");
        assert_eq!(tr.counter_final("absent"), 0);
    }

    #[test]
    fn validate_rejects_partial_overlap_and_dup_tracks() {
        let bad = Trace {
            tracks: vec![track(0, vec![span("a", 0, 10), span("b", 5, 10)])],
        };
        assert!(bad.validate().is_err(), "partial overlap must fail");

        let nested = Trace {
            tracks: vec![track(
                0,
                vec![span("a", 0, 100), span("b", 10, 20), span("c", 12, 3)],
            )],
        };
        assert!(nested.validate().is_ok(), "proper nesting passes");

        let dup = Trace {
            tracks: vec![track(2, vec![]), track(2, vec![])],
        };
        assert!(dup.validate().is_err(), "duplicate track ids must fail");
    }

    #[test]
    fn validate_rejects_unbalanced_spans() {
        // A child that starts inside its parent but outlives it — the
        // shape an unbalanced begin/end pair produces.
        let dangling = Trace {
            tracks: vec![track(
                0,
                vec![span("parent", 0, 50), span("child", 40, 100)],
            )],
        };
        assert!(
            dangling.validate().is_err(),
            "child outliving parent must fail"
        );

        // Zero-duration spans are legal leaves anywhere inside a parent.
        let empty_leaf = Trace {
            tracks: vec![track(0, vec![span("parent", 0, 50), span("leaf", 25, 0)])],
        };
        assert!(empty_leaf.validate().is_ok());
    }

    #[test]
    fn validate_rejects_counter_regressions() {
        fn counter(name: &'static str, ts: u64, value: u64) -> TraceEvent {
            TraceEvent::Counter {
                name,
                ts_ns: ts,
                value,
            }
        }

        let monotone = Trace {
            tracks: vec![track(
                0,
                vec![
                    counter("msgs", 0, 3),
                    counter("msgs", 10, 3),
                    counter("msgs", 20, 9),
                ],
            )],
        };
        assert!(monotone.validate().is_ok(), "flat samples are fine");

        let regressing = Trace {
            tracks: vec![track(
                0,
                vec![counter("msgs", 0, 9), counter("msgs", 10, 3)],
            )],
        };
        let err = regressing.validate().unwrap_err();
        assert!(err.contains("regressed"), "got: {err}");

        // Independent names and independent tracks don't interfere.
        let independent = Trace {
            tracks: vec![
                track(0, vec![counter("a", 0, 9), counter("b", 10, 3)]),
                track(1, vec![counter("a", 0, 1)]),
            ],
        };
        assert!(independent.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_order_events() {
        // Build the track by hand (no sort) to simulate a stream whose
        // clock readings went backwards.
        let tr = Trace {
            tracks: vec![TraceTrack {
                track: 0,
                name: "partition 0".into(),
                events: vec![
                    TraceEvent::Instant {
                        name: "late",
                        ts_ns: 100,
                        arg: None,
                    },
                    TraceEvent::Instant {
                        name: "early",
                        ts_ns: 50,
                        arg: None,
                    },
                ],
            }],
        };
        let err = tr.validate().unwrap_err();
        assert!(err.contains("not time-sorted"), "got: {err}");
    }

    #[test]
    fn sibling_spans_after_pop_are_fine() {
        let tr = Trace {
            tracks: vec![track(
                0,
                vec![
                    span("ts", 0, 100),
                    span("ss", 0, 40),
                    span("ss", 40, 60),
                    span("compute", 41, 10),
                ],
            )],
        };
        assert!(tr.validate().is_ok());
    }
}
