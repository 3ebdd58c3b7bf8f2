//! The dynamic interconnect-area estimator and target-core determination
//! (paper §2.2–2.3, eqs. 1–5).

use twmc_geom::{Rect, Side, TRACK_PITCH};
use twmc_netlist::Netlist;

use crate::{
    channel_width, estimate_channel_length, estimate_total_interconnect_length, Modulation,
    PinDensityFactors, DEFAULT_GAMMA,
};

/// Tunable parameters of the estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorParams {
    /// Peak horizontal modulation `M_x` (paper default 2).
    pub m_x: f64,
    /// Border horizontal modulation `B_x` (paper default 1).
    pub b_x: f64,
    /// Peak vertical modulation `M_y`.
    pub m_y: f64,
    /// Border vertical modulation `B_y`.
    pub b_y: f64,
    /// Optimized-placement length factor γ for the `N_L` estimate.
    pub gamma: f64,
    /// Desired core aspect ratio (width / height).
    pub target_aspect: f64,
}

impl Default for EstimatorParams {
    fn default() -> Self {
        EstimatorParams {
            m_x: 2.0,
            b_x: 1.0,
            m_y: 2.0,
            b_y: 1.0,
            gamma: DEFAULT_GAMMA,
            target_aspect: 1.0,
        }
    }
}

/// The dynamic interconnect-area estimator for one circuit and core.
///
/// Produced by [`determine_core`], which fixes the target core area and
/// the expected average channel width `C_w` simultaneously.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimator {
    modulation: Modulation,
    c_w: f64,
    avg_pin_density: f64,
    core: Rect,
}

impl Estimator {
    /// The expected average channel width `C_w` (eq. 1).
    #[inline]
    pub fn c_w(&self) -> f64 {
        self.c_w
    }

    /// The target core region, centered at the origin.
    #[inline]
    pub fn core(&self) -> Rect {
        self.core
    }

    /// The circuit-average pin density `D̄_p`.
    #[inline]
    pub fn avg_pin_density(&self) -> f64 {
        self.avg_pin_density
    }

    /// The position-modulation profile.
    #[inline]
    pub fn modulation(&self) -> &Modulation {
        &self.modulation
    }

    /// Interconnect allowance for a cell edge whose midpoint sits at chip
    /// position `(x, y)` with relative pin density factor `f_rp` — the
    /// corrected eq. 2:
    ///
    /// ```text
    /// e_w = 0.5 · C_w · f_x(x) · f_y(y) · f_rp / α
    /// ```
    ///
    /// so that `E[e_w] = 0.5 C_w` over uniform edge positions at
    /// `f_rp = 1` (see [`Modulation::alpha`] for the α discussion).
    pub fn edge_allowance(&self, x: f64, y: f64, f_rp: f64) -> f64 {
        0.5 * self.c_w * self.modulation.at(x, y) * f_rp / self.modulation.alpha()
    }

    /// The position-independent initial allowance of eq. 5, used before
    /// edge positions are known (core-area determination): modulation at
    /// its peak, `f_rp = 1`.
    pub fn initial_allowance(&self) -> f64 {
        0.5 * self.c_w * self.modulation.peak() / self.modulation.alpha()
    }

    /// Integer per-side expansions `(left, right, bottom, top)` for a cell
    /// whose bounding box is placed at `placed` (absolute chip
    /// coordinates), evaluating the allowance at each side's midpoint.
    ///
    /// This is the quantity updated every time a cell participates in a
    /// new-state generation: moving toward the core center grows the
    /// effective area, moving toward a corner shrinks it (paper §2.2).
    pub fn side_expansions(
        &self,
        placed: Rect,
        factors: impl Fn(Side) -> f64,
    ) -> (i64, i64, i64, i64) {
        let cx = placed.center().x as f64;
        let cy = placed.center().y as f64;
        let lx = placed.lo().x as f64;
        let hx = placed.hi().x as f64;
        let ly = placed.lo().y as f64;
        let hy = placed.hi().y as f64;
        let round = |v: f64| v.round().max(0.0) as i64;
        (
            round(self.edge_allowance(lx, cy, factors(Side::Left))),
            round(self.edge_allowance(hx, cy, factors(Side::Right))),
            round(self.edge_allowance(cx, ly, factors(Side::Bottom))),
            round(self.edge_allowance(cx, hy, factors(Side::Top))),
        )
    }
}

/// Outcome of the target-core determination (paper §2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreDetermination {
    /// The estimator bound to the determined core.
    pub estimator: Estimator,
    /// Total effective cell area (cells plus allowances) the core was
    /// sized for.
    pub effective_area: f64,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

/// Determines the target core area and builds the estimator.
///
/// The wiring area cannot be known before placement, and the allowance
/// `e_w` itself depends on the core size through `C_w`; this resolves the
/// circularity by fixed-point iteration: size the core for the current
/// effective cell area, recompute `C_w` and the eq. 5 allowance, re-grow
/// the cells, and repeat until the area is stable (a few iterations).
///
/// # Panics
///
/// Panics if the netlist has no cells.
pub fn determine_core(nl: &Netlist, params: &EstimatorParams) -> CoreDetermination {
    let stats = nl.stats();
    assert!(stats.cells > 0, "cannot size a core for an empty netlist");

    // Cell bounding boxes at default shapes.
    let dims: Vec<(f64, f64)> = nl
        .cells()
        .iter()
        .map(|c| {
            let s = c.default_shape();
            (s.width() as f64, s.height() as f64)
        })
        .collect();

    let cell_area: f64 = dims.iter().map(|&(w, h)| w * h).sum();
    let mut effective = cell_area;
    let mut c_w = 0.0;
    let mut w = 0.0;
    let mut h = 0.0;
    let mut iterations = 0;
    for _ in 0..16 {
        iterations += 1;
        w = (effective * params.target_aspect).sqrt();
        h = (effective / params.target_aspect).sqrt();
        let n_l = estimate_total_interconnect_length(nl, w, h, params.gamma);
        let c_l = estimate_channel_length(nl, w, h);
        c_w = channel_width(n_l, c_l, TRACK_PITCH);
        // Eq. 5 allowance with a fresh modulation for this core size.
        let modulation = Modulation::new(w, h, params.m_x, params.b_x, params.m_y, params.b_y);
        let e = 0.5 * c_w * modulation.peak() / modulation.alpha();
        let grown: f64 = dims
            .iter()
            .map(|&(cw, ch)| (cw + 2.0 * e) * (ch + 2.0 * e))
            .sum();
        if (grown - effective).abs() <= 1e-6 * effective.max(1.0) {
            effective = grown;
            break;
        }
        effective = grown;
    }

    let half_w = (w / 2.0).ceil() as i64;
    let half_h = (h / 2.0).ceil() as i64;
    let core = Rect::new(
        twmc_geom::Point::new(-half_w, -half_h),
        twmc_geom::Point::new(half_w, half_h),
    );
    let modulation = Modulation::new(
        core.width() as f64,
        core.height() as f64,
        params.m_x,
        params.b_x,
        params.m_y,
        params.b_y,
    );
    CoreDetermination {
        estimator: Estimator {
            modulation,
            c_w,
            avg_pin_density: stats.avg_pin_density,
            core,
        },
        effective_area: effective,
        iterations,
    }
}

/// Builds per-cell pin-density factors for every cell of a netlist, using
/// fixed positions where available (macro cells, instance 0) and the
/// uniform spread for custom cells.
pub fn cell_density_factors(nl: &Netlist, avg_density: f64) -> Vec<PinDensityFactors> {
    nl.cells()
        .iter()
        .map(|c| {
            if c.is_custom() {
                PinDensityFactors::uniform(c.pins.len(), c.perimeter(), avg_density)
            } else {
                let inst = &c.instances()[0];
                PinDensityFactors::from_pins(&inst.tiles, &inst.pin_positions, avg_density)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_netlist::{synthesize, SynthParams};

    fn circuit() -> Netlist {
        synthesize(&SynthParams {
            cells: 20,
            nets: 60,
            pins: 240,
            custom_fraction: 0.25,
            ..Default::default()
        })
    }

    #[test]
    fn core_determination_converges() {
        let nl = circuit();
        let det = determine_core(&nl, &EstimatorParams::default());
        assert!(det.iterations < 16, "did not converge: {}", det.iterations);
        let core = det.estimator.core();
        // Core must exceed raw cell area (wiring space added).
        let cell_area: i64 = nl.cells().iter().map(|c| c.area()).sum();
        assert!(core.area() > cell_area);
        // Centered at origin.
        assert_eq!(core.center(), twmc_geom::Point::new(0, 0));
        // Aspect ratio near target.
        let ar = core.width() as f64 / core.height() as f64;
        assert!((ar - 1.0).abs() < 0.05, "aspect {ar}");
    }

    #[test]
    fn expected_allowance_is_half_cw() {
        // E[e_w] over uniform positions at f_rp = 1 must be 0.5 C_w —
        // the calibration property the α normalization exists for.
        let nl = circuit();
        let est = determine_core(&nl, &EstimatorParams::default()).estimator;
        let core = est.core();
        let n = 200;
        let mut sum = 0.0;
        for i in 0..n {
            for j in 0..n {
                let x = core.lo().x as f64 + (i as f64 + 0.5) * core.width() as f64 / n as f64;
                let y = core.lo().y as f64 + (j as f64 + 0.5) * core.height() as f64 / n as f64;
                sum += est.edge_allowance(x, y, 1.0);
            }
        }
        let mean = sum / (n * n) as f64;
        assert!(
            (mean - 0.5 * est.c_w()).abs() < 0.01 * est.c_w(),
            "mean {mean} vs 0.5*C_w {}",
            0.5 * est.c_w()
        );
    }

    #[test]
    fn center_allowance_exceeds_corner() {
        let nl = circuit();
        let est = determine_core(&nl, &EstimatorParams::default()).estimator;
        let core = est.core();
        let center = est.edge_allowance(0.0, 0.0, 1.0);
        let corner = est.edge_allowance(core.hi().x as f64, core.hi().y as f64, 1.0);
        // M=2, B=1: center channels ≈4x corner channels.
        assert!((center / corner - 4.0).abs() < 1e-9, "{center} / {corner}");
        let mid_side = est.edge_allowance(core.hi().x as f64, 0.0, 1.0);
        assert!((center / mid_side - 2.0).abs() < 1e-9);
    }

    #[test]
    fn initial_allowance_is_peak() {
        let nl = circuit();
        let est = determine_core(&nl, &EstimatorParams::default()).estimator;
        assert!((est.initial_allowance() - est.edge_allowance(0.0, 0.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn side_expansions_track_position() {
        let nl = circuit();
        let est = determine_core(&nl, &EstimatorParams::default()).estimator;
        let core = est.core();
        // A cell near the right border: its right side gets less allowance
        // than its left side (which faces the center).
        let w = core.width() / 10;
        let cell = Rect::from_wh(core.hi().x - w, -w / 2, w, w);
        let (l, r, _b, _t) = est.side_expansions(cell, |_| 1.0);
        // Quantization can collapse a sub-unit difference, so the strict
        // ordering is checked on the raw allowance.
        assert!(l >= r, "left {l} right {r}");
        let raw_l = est.edge_allowance(cell.lo().x as f64, cell.center().y as f64, 1.0);
        let raw_r = est.edge_allowance(cell.hi().x as f64, cell.center().y as f64, 1.0);
        assert!(raw_l > raw_r, "raw left {raw_l} vs right {raw_r}");
        // Moving the same cell to the center grows the effective area.
        let centered = Rect::from_wh(-w / 2, -w / 2, w, w);
        let (cl, cr, cb, ct) = est.side_expansions(centered, |_| 1.0);
        assert!(cl + cr + cb + ct > l + r + _b + _t);
    }

    #[test]
    fn pin_dense_side_gets_more_room() {
        let nl = circuit();
        let est = determine_core(&nl, &EstimatorParams::default()).estimator;
        let cell = Rect::from_wh(-10, -10, 20, 20);
        let dense = est.side_expansions(cell, |s| if s == Side::Left { 3.0 } else { 1.0 });
        let flat = est.side_expansions(cell, |_| 1.0);
        assert!(dense.0 > flat.0);
        assert_eq!(dense.1, flat.1);
    }

    #[test]
    fn density_factors_cover_all_cells() {
        let nl = circuit();
        let f = cell_density_factors(&nl, nl.stats().avg_pin_density);
        assert_eq!(f.len(), nl.cells().len());
        for (c, fac) in nl.cells().iter().zip(&f) {
            for side in Side::ALL {
                assert!(fac.factor(side) >= 1.0, "cell {}", c.name);
            }
        }
    }
}
