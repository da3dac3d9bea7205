//! Fixture trace event: an enum locked by another crate's group.

pub enum TraceEvent {
    Span { name: &'static str, dur_ns: u64 },
    Counter { name: &'static str, value: u64 },
}
