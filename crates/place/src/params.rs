//! Stage-1 placement parameters and their paper defaults.

/// How displacement targets are selected within the range-limiter window
/// (paper §3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DisplacementSelector {
    /// `D_s`: one of 48 evenly-dispersed quantized points — slightly
    /// better TEIL and 22% lower residual overlap than `D_r`.
    #[default]
    Quantized,
    /// `D_r`: uniformly random point in the window (the paper's baseline).
    Random,
}

/// Tunable parameters of the stage-1 annealing placement: the ones the
/// paper's experiments sweep. The pin-site constant κ of eq. 10 and the
/// cap on pin moves per `generate` call are constants of the move
/// machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceParams {
    /// Ratio `r` of single-cell displacements to pairwise interchanges
    /// (paper Fig. 3: values in 7–15 are within 1% of the best; we default
    /// to 10).
    pub move_ratio: f64,
    /// Attempts per cell per temperature `A_c` (paper Fig. 5/6: ≈400 for
    /// best quality on 30–60-cell circuits; smaller values trade quality
    /// for CPU time linearly).
    pub attempts_per_cell: usize,
    /// Overlap-penalty balance η: `p₂·C₂ = η·C₁` at `T = T_∞`
    /// (paper §3.1.2: best ≈0.5; insensitive within [0.25, 1.0]).
    pub eta: f64,
    /// Range-limiter exponent ρ (paper §3.2.2 selects 4).
    pub rho: f64,
    /// Displacement-point selector (`D_s` by default).
    pub selector: DisplacementSelector,
    /// Number of random placements sampled to calibrate the `p₂`
    /// normalization at `T_∞`.
    pub normalization_samples: usize,
}

impl Default for PlaceParams {
    fn default() -> Self {
        PlaceParams {
            move_ratio: 10.0,
            attempts_per_cell: 100,
            eta: 0.5,
            rho: 4.0,
            selector: DisplacementSelector::Quantized,
            normalization_samples: 64,
        }
    }
}

impl PlaceParams {
    /// The paper's full-quality setting (`A_c = 400`).
    pub fn paper_quality() -> Self {
        PlaceParams {
            attempts_per_cell: 400,
            ..Default::default()
        }
    }

    /// A fast setting for early design iterations (`A_c = 25`; the paper
    /// reports ≈13% worse TEIL at 16× less CPU).
    pub fn fast() -> Self {
        PlaceParams {
            attempts_per_cell: 25,
            ..Default::default()
        }
    }

    /// The probability of choosing a single-cell displacement over an
    /// interchange: `p = r / (r + 1)` (so `r = p / (1 − p)`).
    pub fn displacement_probability(&self) -> f64 {
        self.move_ratio / (self.move_ratio + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = PlaceParams::default();
        assert_eq!(p.move_ratio, 10.0);
        assert_eq!(p.eta, 0.5);
        assert_eq!(p.rho, 4.0);
        assert_eq!(p.selector, DisplacementSelector::Quantized);
        assert_eq!(PlaceParams::paper_quality().attempts_per_cell, 400);
        assert_eq!(PlaceParams::fast().attempts_per_cell, 25);
    }

    #[test]
    fn probability_from_ratio() {
        let p = PlaceParams {
            move_ratio: 10.0,
            ..Default::default()
        };
        let prob = p.displacement_probability();
        assert!((prob - 10.0 / 11.0).abs() < 1e-12);
        // r = p/(1-p) roundtrip.
        assert!((prob / (1.0 - prob) - 10.0).abs() < 1e-9);
    }
}
