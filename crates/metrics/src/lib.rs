//! The live metrics plane: a dependency-free in-process registry of
//! counters, gauges, and fixed-bucket histograms, rendered in the
//! Prometheus text exposition format.
//!
//! The telemetry crate (`twmc-obs`) answers "what did this run do?"
//! after the fact; this crate answers "what is the process doing right
//! now?" while it runs. The design constraints, in order:
//!
//! 1. **Hot-path cheap.** A counter is one atomic, added to with a
//!    relaxed `fetch_add`; the stage-1 Metropolis loop folds its move
//!    counts into it once per temperature step, so it can stay on
//!    permanently. Histograms observe through one relaxed `fetch_add`
//!    per bucket plus a fixed-point sum — no locks, no allocation, no
//!    formatting until scrape time.
//! 2. **Never perturbs results.** Nothing here touches an RNG or any
//!    annealing state; recording is write-only from the producers'
//!    perspective. The obs bench proves runs stay bit-identical with
//!    the registry recording (`BENCH_obs.json`, `metrics` scope).
//! 3. **No dependencies.** Like the rest of the workspace, the wire
//!    format is hand-rolled: [`Registry::render`] emits Prometheus
//!    text exposition 0.0.4 and [`expo::parse`] reads it back (for
//!    offline snapshot diffing and tests).
//!
//! [`MetricsHub`] is the curated family inventory the rest of the
//! workspace threads through its layers — one struct of pre-registered
//! handles so hot paths never do name lookups.
//!
//! # Examples
//!
//! ```
//! use twmc_metrics::Registry;
//!
//! let registry = Registry::new();
//! let moves = registry.counter("twmc_moves_total", "Move attempts");
//! let lat = registry.histogram(
//!     "twmc_move_eval_ns",
//!     "Sampled per-move evaluation latency (ns)",
//!     &[100.0, 1_000.0, 10_000.0],
//! );
//! moves.add(3);
//! lat.observe(250.0);
//! let text = registry.render();
//! assert!(text.contains("twmc_moves_total 3"));
//! assert!(text.contains("twmc_move_eval_ns_bucket{le=\"1000\"} 1"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod expo;
mod families;
mod registry;

pub use families::{MetricsHub, JOB_STATES, MOVE_EVAL_SAMPLE};
pub use registry::{
    escape_help, escape_label_value, Counter, Gauge, GaugeVec, Histogram, HistogramSnapshot,
    Registry,
};
