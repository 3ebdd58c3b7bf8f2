//! The TimberWolfMC pipeline: macro/custom-cell chip-planning, placement,
//! and global routing using simulated annealing (Sechen, DAC 1988).
//!
//! This crate ties the substrates together into the user-facing flow:
//!
//! 1. **Stage 1** — simulated-annealing placement with the dynamic
//!    interconnect-area estimator ([`twmc_place`], [`twmc_estimator`]);
//! 2. **Stage 2** — three executions of channel definition, global
//!    routing, and low-temperature placement refinement
//!    ([`twmc_route`], [`twmc_refine`]);
//!
//! plus the baseline placers ([`quadratic_placement`],
//! [`greedy_placement`], [`shelf_placement`]) used for Table-4-style
//! comparisons, and report formatting.
//!
//! # Examples
//!
//! ```no_run
//! use twmc_core::{run_timberwolf, TimberWolfConfig};
//! use twmc_netlist::{paper_circuit, synthesize_profile};
//!
//! // Reproduce the "i3" row of the paper's Table 4 on a synthetic
//! // circuit with the published cell/net/pin counts.
//! let circuit = synthesize_profile(paper_circuit("i3").unwrap(), 42);
//! let result = run_timberwolf(&circuit, &TimberWolfConfig::fast(42));
//! println!(
//!     "TEIL {:.0}, chip {} x {}",
//!     result.teil,
//!     result.chip.width(),
//!     result.chip.height(),
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod config;
mod finalize;
mod pipeline;
mod render;
mod report;
mod resilient;

pub use baseline::{greedy_placement, quadratic_placement, shelf_placement, BaselineResult};
pub use config::TimberWolfConfig;
pub use finalize::{finalize_chip, finalize_chip_with, FinalChip};
pub use pipeline::{
    run_timberwolf, run_timberwolf_with, snapshot_placement, PlacedCellRecord, TimberWolfResult,
};
pub use render::render_svg;
pub use report::{compare, format_parallel_report, format_table4, ComparisonRow};
pub use resilient::{run_timberwolf_resilient, InterruptedRun, PipelineError, RunOutcome};

// Orchestration knobs and reports surface through the pipeline config
// and result; re-export them so front ends need no direct dependency.
pub use twmc_parallel::{
    ParallelParams, ParallelReport, ReplicaReport, RunCtrl, Strategy, SwapReport,
};

// Telemetry surface: front ends build recorders and consume events
// without depending on `twmc-obs` directly.
pub use twmc_obs as obs;
