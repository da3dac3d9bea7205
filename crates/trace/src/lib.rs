//! # tempograph-trace — structured tracing for the TI-BSP engine
//!
//! The paper's evaluation (§IV, Figs. 6–7) is an observability story:
//! per-timestep wall times, compute vs. partition vs. sync overhead,
//! straggler idling. This crate records those signals as *events* rather
//! than pre-aggregated sums, making the trace the ground truth from which
//! the engine's `TimestepMetrics` aggregates are derivable.
//!
//! Design constraints (and how they are met):
//!
//! * **Low overhead.** A [`TraceSink`] is owned by exactly one worker
//!   thread; recording an event is one monotonic clock read plus one `Vec`
//!   push — no locks, no allocation once the buffer is warm. Sinks are
//!   drained into a [`Trace`] only after the job finishes.
//! * **Cheap when off.** Jobs that never configure tracing get an
//!   *inert* sink: every record method is one branch on the sink's
//!   `active` flag, and its [`TraceSink::now`] clock still feeds the
//!   engine's metrics.
//! * **Few dependencies.** `std`, plus `tempograph-core`'s codec
//!   vocabulary and `bytes` for [`TraceEvent`]'s `WireMsg` impl (events
//!   travel in a worker's output frame).
//!
//! Three exports:
//!
//! 1. [`Trace::to_chrome_json`] — Chrome trace-event JSON, loadable in
//!    [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`, with
//!    partitions as "threads" and timesteps/supersteps/barriers/GoFS loads
//!    as nested spans;
//! 2. [`Trace::summary`] — a plain-text top-N digest (slowest supersteps,
//!    worst barrier waits, GoFS cache hit rate);
//! 3. the **flight recorder**: every sink keeps a bounded tail of recent
//!    events ([`TraceMode::FlightRecorder`] bounds the whole buffer) that
//!    is dumped to stderr when its worker thread panics.

#![forbid(unsafe_code)]

mod chrome;
mod clock;
mod sink;
mod summary;
mod trace;

pub use clock::Clock;
pub use sink::{SpanStart, TraceConfig, TraceEvent, TraceMode, TraceSink};
pub use trace::{SpanView, Trace, TraceTrack};
