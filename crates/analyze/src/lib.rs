//! Offline judgements of recorded TimberWolfMC artefacts (the engine
//! behind `twmc report` and `twmc diff`).
//!
//! The twmc-obs crate records what the annealing stack *did*; this
//! crate judges whether that matches what the paper says a healthy run
//! *does*. Every judgement is a list of pass/warn/fail [`Finding`]s
//! against fixed bounds, rendered by the one [`format_findings`] and
//! gated by the one [`worst`]:
//!
//! * [`parse_stream`] — the one reader of the JSONL telemetry format:
//!   parses each line once, lifting it into typed records while it
//!   checks it (known kinds, every field a record reads, run envelope,
//!   temperature monotonicity; every error names its line);
//! * [`analyze`] — the health checks: Table-1 cooling regions and
//!   `S_T`/`T_∞` scaling (eqs. 18–21), eq. 12–14 range-limiter decay
//!   with ρ = 4, acceptance-rate trajectory, cost convergence, the
//!   r ≈ 10 move mix (Fig. 3), and the phase-2 routing overflow
//!   guarantees (eq. 24);
//! * [`format_runs`] — the run tables `twmc report` prints after the
//!   findings: one row per anneal scope and per routing execution, the
//!   wall clock per stage, and the swap acceptance;
//! * [`parse_capture`] / [`check_trace`] — a span-trace capture's
//!   wall-time split and self-time table;
//! * [`diff_runs`] — compares two runs' headline [`Metrics`]: quality
//!   regressions beyond fixed bounds fail, wall-clock is informational;
//! * [`check_metrics_snapshot`] — holds a scraped `/metrics`
//!   exposition to fixed operational bounds;
//! * [`check_bench_parallel`] — the equal-wall-clock bench gate over
//!   `BENCH_parallel.json`: tempering must beat best-of-N multistart
//!   on the same CPU budget at ≥ 4 replicas;
//! * [`testgen`] — deterministic synthetic streams that follow (or
//!   deliberately bend) the laws, for tests and CI fixtures.
//!
//! # Examples
//!
//! ```
//! use twmc_analyze::{analyze, diff_runs, parse_stream, worst, Severity};
//! use twmc_analyze::testgen::{synth_stream, SynthSpec};
//!
//! let stream = parse_stream(&synth_stream(&SynthSpec::default())).unwrap();
//! let report = analyze(&stream);
//! assert!(report.healthy());
//!
//! let diff = diff_runs(&report.metrics, &report.metrics);
//! assert_eq!(worst(&diff), Severity::Pass);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bench;
mod diff;
mod health;
mod promsnap;
mod runs;
mod stream;
pub mod testgen;
mod trace;

pub use bench::check_bench_parallel;
pub use diff::diff_runs;
pub use health::{
    analyze, format_findings, format_report, metrics, worst, Finding, HealthReport, Metrics,
    Severity,
};
pub use promsnap::check_metrics_snapshot;
pub use runs::format_runs;
pub use stream::{
    parse_stream, ClassRec, ReplicaFailedRec, ReplicaSummaryRec, RouteRec, RunEndRec,
    RunInterruptedRec, RunStartRec, RunStream, SpanRec, StreamStats, SwapRec, TempRec,
};
pub use trace::{
    check_trace, format_trace_report, parse_capture, TraceReport, CHECKPOINT_SHARE_WARN,
    INDEX_SHARE_FAIL, MOVE_SHARE_WARN,
};
