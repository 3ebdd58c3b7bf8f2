//! Telemetry for the TimberWolfMC reproduction.
//!
//! The paper's annealing machinery is a stack of feedback controllers —
//! the Table-1/2 cooling schedules, the eq. 12–14 range limiter, the
//! move-ratio controller — whose runtime signals (acceptance ratios,
//! cost decomposition, `S_T` scaling, window spans) are otherwise
//! invisible. This crate is the dependency-light observation layer the
//! rest of the workspace threads through its hot paths:
//!
//! * [`Recorder`] — the sink trait; producers call
//!   [`Recorder::record`] with structured [`Event`]s and gate any
//!   event-construction work on [`Recorder::enabled`];
//! * [`NullRecorder`] — the disabled sink; `enabled()` is `false`, so
//!   instrumented code compiles to a per-temperature branch and nothing
//!   else (the annealing inner loop itself is never instrumented
//!   per-move — see DESIGN.md §8 for the overhead argument);
//! * [`JsonlRecorder`] — a buffered JSON-lines sink over any
//!   `io::Write` (one event per line, `{"kind": …}` tagged);
//! * [`SummaryRecorder`] — an in-memory sink for tests and for the
//!   per-replica buffers a multi-replica run replays in replica order;
//! * [`Interval`] — times a stage, a phase, a checkpoint write, a
//!   routing execution or a job wait: one clock read on close, and the
//!   same duration to its trace span, `stage_span` event and hub
//!   histogram;
//! * [`validate`] — the workspace's JSON reader: a parser linear in
//!   its input plus typed field accessors (the vendored `serde_json`
//!   stand-in only serializes). Telemetry streams are read, and
//!   checked, by `twmc_analyze::parse_stream`.
//!
//! # Examples
//!
//! ```
//! use twmc_obs::{Event, JsonlRecorder, Recorder, StageSpan};
//!
//! let mut rec = JsonlRecorder::new(Vec::new());
//! if rec.enabled() {
//!     rec.record(&Event::StageSpan(StageSpan {
//!         stage: "stage1",
//!         iteration: 0,
//!         wall_us: 1250,
//!     }));
//! }
//! let bytes = rec.finish().unwrap();
//! let line = String::from_utf8(bytes).unwrap();
//! assert!(line.starts_with("{\"kind\":\"stage_span\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cancel;
mod event;
mod interval;
mod recorder;
pub mod validate;

pub use cancel::{CancelToken, StopReason};
pub use event::{
    ClassCount, CostBreakdown, Event, PlaceTemp, ReplicaFailed, ReplicaSummary, RouteIter, RunEnd,
    RunInterrupted, RunScope, RunStart, StageSpan, Swap, EVENT_KINDS,
};
pub use interval::{Interval, OpenInterval};
pub use recorder::{
    DurableFile, Instrumented, JsonlRecorder, NullRecorder, Recorder, SummaryRecorder,
};
pub use twmc_metrics::{MetricsHub, MOVE_EVAL_SAMPLE};
pub use twmc_trace as trace;
pub use twmc_trace::{Lane, TraceSnapshot, Tracer};
