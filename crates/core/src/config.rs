//! Top-level configuration of the TimberWolfMC pipeline.

use twmc_anneal::CoolingSchedule;
use twmc_estimator::EstimatorParams;
use twmc_parallel::ParallelParams;
use twmc_place::PlaceParams;
use twmc_refine::RefineParams;

/// Configuration for a full TimberWolfMC run (stage 1 + stage 2).
#[derive(Debug, Clone)]
pub struct TimberWolfConfig {
    /// Stage-1 placement parameters (move ratio, `A_c`, η, ρ, …).
    pub place: PlaceParams,
    /// Interconnect-area estimator parameters (modulation, γ, core
    /// aspect).
    pub estimator: EstimatorParams,
    /// Stage-2 refinement parameters: the global router's (μ and the
    /// refinement count are the paper's constants).
    pub refine: RefineParams,
    /// Stage-1 cooling schedule (Table 1 by default).
    pub schedule: CoolingSchedule,
    /// Multi-replica orchestration of stage 1 (1 replica = classic run).
    pub parallel: ParallelParams,
    /// Master RNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
}

impl Default for TimberWolfConfig {
    fn default() -> Self {
        TimberWolfConfig {
            place: PlaceParams::default(),
            estimator: EstimatorParams::default(),
            refine: RefineParams::default(),
            schedule: CoolingSchedule::stage1(),
            parallel: ParallelParams::default(),
            seed: 1,
        }
    }
}

impl TimberWolfConfig {
    /// Paper-quality settings (`A_c = 400`): hours of CPU on large
    /// circuits, the best TEIL (paper Fig. 5/6).
    pub fn paper_quality(seed: u64) -> Self {
        TimberWolfConfig {
            place: PlaceParams::paper_quality(),
            seed,
            ..Default::default()
        }
    }

    /// Fast settings (`A_c = 25`): ≈16× cheaper, ≈13% worse TEIL —
    /// appropriate in the early design stages (paper §3.3).
    pub fn fast(seed: u64) -> Self {
        TimberWolfConfig {
            place: PlaceParams::fast(),
            seed,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(TimberWolfConfig::default().place.attempts_per_cell, 100);
        assert_eq!(
            TimberWolfConfig::paper_quality(9).place.attempts_per_cell,
            400
        );
        assert_eq!(TimberWolfConfig::fast(9).place.attempts_per_cell, 25);
        assert_eq!(TimberWolfConfig::fast(9).seed, 9);
    }
}
