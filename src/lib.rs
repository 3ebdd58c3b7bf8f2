//! TimberWolfMC reproduction — umbrella crate.
//!
//! A from-scratch Rust reproduction of Carl Sechen's *"Chip-Planning,
//! Placement, and Global Routing of Macro/Custom Cell Integrated
//! Circuits Using Simulated Annealing"* (DAC 1988). This crate re-exports
//! the workspace's public API under one roof:
//!
//! * [`geom`] — grid geometry, orientations, rectilinear tile sets;
//! * [`netlist`] — macro/custom cells, pins, nets, netlist I/O,
//!   synthetic circuits matching the paper's nine test cases;
//! * [`anneal`] — cooling schedules (Tables 1–2), range limiter, the
//!   tempering ladder;
//! * [`estimator`] — the dynamic interconnect-area estimator (eqs. 1–5);
//! * [`place`] — stage-1 annealing placement (§3);
//! * [`parallel`] — multi-replica orchestration of stage 1: deterministic
//!   multi-start and parallel tempering with replica exchange;
//! * [`route`] — channel definition and the two-phase global router (§4.1–4.2);
//! * [`refine`] — stage-2 placement refinement (§4.3);
//! * [`channel`] — a detailed channel router (constrained left-edge
//!   with doglegs) validating the `t ≤ d+1` assumption behind eq. 22;
//! * [`core`] — the full pipeline, baselines, and reports;
//! * [`obs`] — dependency-light telemetry: recorders, the JSONL event
//!   schema, and stream validation;
//! * [`trace`] — hierarchical span tracing: per-thread span buffers,
//!   self-time profiles, and Chrome Trace Event export
//!   (`twmc place --trace` / `twmc trace`);
//! * [`analyze`] — offline run-health diagnostics over recorded
//!   telemetry and cross-run regression diffs (`twmc report` / `twmc
//!   diff`);
//! * [`serve`] — the multi-tenant placement daemon (`twmc serve`): an
//!   HTTP/1.1 JSON job API with a priority queue, checkpoint-based
//!   preemption, and per-job telemetry streams;
//! * [`fault`] — the durable-write abstraction ([`fault::Vfs`]) and the
//!   deterministic fault injector behind the crash-consistency test
//!   harness (`twmc serve --fault-schedule`).
//!
//! # Quickstart
//!
//! ```no_run
//! use timberwolfmc::core::{run_timberwolf, TimberWolfConfig};
//! use timberwolfmc::netlist::{paper_circuit, synthesize_profile};
//!
//! let circuit = synthesize_profile(paper_circuit("i3").unwrap(), 42);
//! let result = run_timberwolf(&circuit, &TimberWolfConfig::fast(42));
//! println!("TEIL {:.0}  chip area {}", result.teil, result.chip_area());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use twmc_analyze as analyze;
pub use twmc_anneal as anneal;
pub use twmc_channel as channel;
pub use twmc_core as core;
pub use twmc_estimator as estimator;
pub use twmc_fault as fault;
pub use twmc_geom as geom;
pub use twmc_netlist as netlist;
pub use twmc_obs as obs;
pub use twmc_parallel as parallel;
pub use twmc_place as place;
pub use twmc_refine as refine;
pub use twmc_resume as resume;
pub use twmc_route as route;
pub use twmc_serve as serve;
pub use twmc_trace as trace;
