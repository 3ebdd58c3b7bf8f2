//! Stage-1 simulated-annealing placement of TimberWolfMC (paper §3).
//!
//! Finds a placement of macro/custom cells with sufficient interconnect
//! area allotted between cells and minimal Total Estimated Interconnect
//! Cost. The cost function has three terms:
//!
//! * `C₁` — the TEIC: weighted net bounding-box spans (eq. 6);
//! * `C₂` — the cell-overlap penalty on estimator-expanded tiles with the
//!   `p₂` normalization calibrated so `p₂C₂ = η·C₁` at `T_∞` (eqs. 7–9);
//! * `C₃` — the pin-site over-capacity penalty (eqs. 10–11).
//!
//! New states come from the `generate` cascade of §3.2.1 (displacement →
//! aspect-inverted retry → orientation change; interchange → inverted
//! retry; pin and aspect-ratio moves for custom cells), displacement
//! targets from the quantized `D_s` selector (§3.2.3) inside the ρ = 4
//! range-limiter window (§3.2.2), cooled per Table 1 (§3.3).
//!
//! # Examples
//!
//! ```no_run
//! use twmc_anneal::CoolingSchedule;
//! use twmc_estimator::EstimatorParams;
//! use twmc_netlist::{synthesize, SynthParams};
//! use twmc_place::{place_stage1, PlaceParams};
//!
//! let circuit = synthesize(&SynthParams::default());
//! let (state, result) = place_stage1(
//!     &circuit,
//!     &PlaceParams::default(),
//!     &EstimatorParams::default(),
//!     &CoolingSchedule::stage1(),
//!     42,
//! );
//! println!("TEIL {} in chip {}", result.teil, result.chip);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod displacement;
mod index;
mod legalize;
mod moves;
mod params;
pub mod persist;
mod sites;
mod stage1;
mod state;

pub use displacement::select_displacement;
pub use legalize::{legalize, separated};
pub use moves::{generate, metropolis, MoveSet, MoveStats};
pub use params::{DisplacementSelector, PlaceParams};
pub use sites::{SiteLayout, SiteRef};
pub use stage1::{
    inner_loop, place_stage1, place_stage1_with, run_annealing, run_annealing_cancellable,
    CoolingRun, Stage1Context, Stage1Result, TempRecord, COST_ATTRIB_SAMPLE,
};
pub use state::{CellPlace, CostClock, CostTimes, MoveCost, PlacementSnapshot, PlacementState};
