//! The annealing control math of the TimberWolfMC reproduction: the
//! problem-independent schedule, window and ladder formulas that the
//! placement loop (`twmc-place`'s `CoolingRun`) and the replica
//! orchestrator (`twmc-parallel`) drive.
//!
//! * [`CoolingSchedule`] — the experimentally derived `α(T_old)` tables
//!   (Tables 1 and 2) with `S_T` temperature scaling (eqs. 18–21);
//! * [`RangeLimiter`] — the log-T window control of eqs. 12–14 with the
//!   paper's ρ = 4;
//! * [`derive_seed`], [`swap_probability`], [`cool_ladder`] and
//!   [`adapt_gap`] — replica seed streams and the adaptive tempering
//!   ladder.
//!
//! # Examples
//!
//! ```
//! use twmc_anneal::{CoolingSchedule, RangeLimiter, temperature_scale, t_infinity};
//!
//! let s_t = temperature_scale(2.0e4); // circuit with c̄_a = 2·10⁴
//! let t_inf = t_infinity(s_t);
//! assert_eq!(t_inf, 2.0e5);
//! let schedule = CoolingSchedule::stage1();
//! assert_eq!(schedule.alpha(t_inf, s_t), 0.85);
//! let limiter = RangeLimiter::paper(1000.0, 1000.0, t_inf);
//! assert!(limiter.window_x(t_inf / 1000.0) < 1000.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod parallel;
mod range_limiter;
mod schedule;

pub use parallel::{
    adapt_gap, cool_ladder, derive_seed, initial_gaps, ladder_landed, swap_probability, GAP_ETA,
    GAP_INIT, GAP_MAX, GAP_MIN, SWAP_HOT_SCALED_T, SWAP_TARGET,
};
pub use range_limiter::{RangeLimiter, DEFAULT_RHO, MIN_WINDOW_SPAN};
pub use schedule::{
    t_infinity, temperature_scale, CoolingSchedule, REF_AVG_CELL_AREA, REF_T_INFINITY,
};
