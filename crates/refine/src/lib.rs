//! Stage-2 placement refinement of TimberWolfMC (paper §4).
//!
//! Corrects the (usually small) inaccuracies of the stage-1 dynamic
//! interconnect-area estimator: if insufficient space was allocated
//! between a pair of cells, more is provided; if excessive, the cells are
//! compacted. Each of the three refinement executions runs channel
//! definition, global routing, and a low-temperature anneal with the
//! exact, *static* channel-width spacings (`w = (d+2)·t_s`, half per
//! bordering edge).
//!
//! # Examples
//!
//! ```no_run
//! use twmc_anneal::CoolingSchedule;
//! use twmc_estimator::EstimatorParams;
//! use twmc_netlist::{synthesize, SynthParams};
//! use twmc_place::{place_stage1, PlaceParams};
//! use twmc_refine::{refine_placement, RefineParams};
//!
//! let circuit = synthesize(&SynthParams::default());
//! let pp = PlaceParams::default();
//! let (mut state, s1) = place_stage1(
//!     &circuit, &pp, &EstimatorParams::default(),
//!     &CoolingSchedule::stage1(), 42);
//! let s2 = refine_placement(
//!     &mut state, &circuit, &pp, &RefineParams::default(),
//!     s1.s_t, s1.t_infinity, 43);
//! println!("TEIL {} -> {}", s1.teil, s2.teil);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod detailed;
mod expand;
mod spread;
mod stage2;
mod verify;

pub use detailed::{detailed_check, ChannelCheck, DetailedCheck};
pub use expand::static_expansions;
pub use spread::{spacing_constraints, spread_for_widths, SpacingConstraint};
pub use stage2::{
    refine_placement, refine_placement_resilient, refine_placement_with, routing_snapshot,
    RefineParams, RefinementRecord, Stage2Result, REFINEMENTS,
};
pub use verify::{verify_channel_widths, WidthReport, WidthViolation};
