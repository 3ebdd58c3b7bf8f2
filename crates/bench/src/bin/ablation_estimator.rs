//! **Ablation**: the dynamic interconnect-area estimator, factor by
//! factor.
//!
//! The paper's per-edge allowance (eq. 2) multiplies three factors:
//! average traffic `C_w`, position modulation `f_x·f_y`, and relative
//! pin density `f_rp`. The claim (§2.2) is that the *dynamic* estimate
//! allocates space where routing will need it, so stage 2 barely moves
//! anything. This ablation runs stage 1 with four estimator variants —
//! the full dynamic estimate, position-only (`f_rp ≡ 1`), pin-density-
//! only (modulation frozen at its mean), and a uniform static border
//! (eq. 5) — and measures how much stage 2 has to correct.
//!
//! ```sh
//! cargo run --release -p twmc-bench --bin ablation_estimator [--full]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use twmc_anneal::{t_infinity, temperature_scale, CoolingSchedule, RangeLimiter};
use twmc_bench::{fig3_suite, mean, ExpOptions};
use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
use twmc_place::{run_annealing, MoveSet, PlaceParams, PlacementState};
use twmc_refine::{refine_placement, RefineParams};
use twmc_route::RouterParams;

#[derive(Serialize)]
struct Row {
    mode: &'static str,
    avg_stage1_teil: f64,
    avg_drift_teil_pct: f64,
    avg_drift_area_pct: f64,
    avg_final_area: f64,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Full eq. 2: position modulation x pin density, updated per move.
    Dynamic,
    /// Position modulation only (f_rp = 1).
    PositionOnly,
    /// Pin density only (modulation at its mean): static per-side border
    /// 0.5 * C_w * f_rp.
    DensityOnly,
    /// Uniform eq. 5 border, never updated.
    Uniform,
}

fn run_one(nl: &twmc_netlist::Netlist, mode: Mode, ac: usize, seed: u64) -> (f64, f64, f64, f64) {
    let est_params = EstimatorParams::default();
    let det = determine_core(nl, &est_params);
    let density = cell_density_factors(nl, nl.stats().avg_pin_density);
    let mut rng = StdRng::seed_from_u64(seed);
    let params = PlaceParams {
        attempts_per_cell: ac,
        normalization_samples: 16,
        ..Default::default()
    };
    // PositionOnly ablates f_rp by feeding unit density factors.
    let factors = if mode == Mode::PositionOnly {
        vec![twmc_estimator::PinDensityFactors::UNIT; nl.cells().len()]
    } else {
        density.clone()
    };
    let mut state = PlacementState::random(nl, det.estimator.clone(), factors, &mut rng);
    match mode {
        Mode::Dynamic | Mode::PositionOnly => {}
        Mode::DensityOnly => {
            // Static per-side border at the mean modulation:
            // e = 0.5 * C_w * f_rp(side).
            use twmc_geom::Side;
            let e0 = 0.5 * det.estimator.c_w();
            let statics = density
                .iter()
                .map(|f| {
                    let side = |s: Side| (e0 * f.factor(s)).round().max(0.0) as i64;
                    (
                        side(Side::Left),
                        side(Side::Right),
                        side(Side::Bottom),
                        side(Side::Top),
                    )
                })
                .collect();
            state.set_static_expansions(statics);
        }
        Mode::Uniform => {
            // Frozen uniform eq. 5 border: no modulation, no density.
            let e = det.estimator.initial_allowance().round() as i64;
            state.set_static_expansions(vec![(e, e, e, e); nl.cells().len()]);
        }
    }
    state.calibrate_p2(params.eta, params.normalization_samples, &mut rng);

    let c_a = det.effective_area / nl.cells().len() as f64;
    let s_t = temperature_scale(c_a);
    let t_inf = t_infinity(s_t);
    let core = state.estimator().core();
    let limiter = RangeLimiter::new(
        2.0 * core.width() as f64,
        2.0 * core.height() as f64,
        t_inf,
        params.rho,
    );
    let s1 = run_annealing(
        &mut state,
        &params,
        MoveSet::Full,
        &CoolingSchedule::stage1(),
        &limiter,
        t_inf,
        s_t,
        None,
        &mut rng,
    );
    // Stage 2 installs routed expansions either way (it always uses the
    // true channel densities).
    if mode == Mode::DensityOnly || mode == Mode::Uniform {
        state.clear_static_expansions();
    }
    let rp = RefineParams {
        router: RouterParams {
            m_alternatives: 6,
            per_level: 3,
        },
    };
    let s2 = refine_placement(&mut state, nl, &params, &rp, s_t, t_inf, seed ^ 0x2);
    let drift_teil = 100.0 * (s2.teil - s1.teil) / s1.teil.max(1.0);
    let drift_area =
        100.0 * (s2.chip.area() as f64 - s1.chip.area() as f64) / s1.chip.area().max(1) as f64;
    (s1.teil, drift_teil, drift_area, s2.chip.area() as f64)
}

fn main() {
    let opts = ExpOptions::parse(60);
    let ac = if opts.full { 200 } else { opts.ac };
    let circuits = fig3_suite(if opts.full { 4 } else { 3 }, opts.seed);

    let mut rows = Vec::new();
    for (mode, name) in [
        (Mode::Dynamic, "full dynamic (eq. 2)"),
        (Mode::PositionOnly, "position only"),
        (Mode::DensityOnly, "pin density only"),
        (Mode::Uniform, "uniform (eq. 5)"),
    ] {
        let mut teils = Vec::new();
        let mut dteil = Vec::new();
        let mut darea = Vec::new();
        let mut areas = Vec::new();
        for (ci, nl) in circuits.iter().enumerate() {
            for t in 0..opts.trials {
                let seed = opts.seed + (ci * 1000 + t) as u64;
                let (teil, dt, da, area) = run_one(nl, mode, ac, seed);
                teils.push(teil);
                dteil.push(dt.abs());
                darea.push(da.abs());
                areas.push(area);
            }
        }
        let row = Row {
            mode: name,
            avg_stage1_teil: mean(&teils),
            avg_drift_teil_pct: mean(&dteil),
            avg_drift_area_pct: mean(&darea),
            avg_final_area: mean(&areas),
        };
        eprintln!(
            "{name:<22}: stage1 TEIL {:.0}, |drift| TEIL {:.1}% area {:.1}%, final area {:.0}",
            row.avg_stage1_teil, row.avg_drift_teil_pct, row.avg_drift_area_pct, row.avg_final_area
        );
        rows.push(row);
    }

    println!("\nAblation — the eq. 2 estimator, factor by factor");
    println!(
        "{:<20} {:>14} {:>16} {:>16} {:>14}",
        "mode", "stage1 TEIL", "|TEIL drift| %", "|area drift| %", "final area"
    );
    for r in &rows {
        println!(
            "{:<20} {:>14.0} {:>16.1} {:>16.1} {:>14.0}",
            r.mode, r.avg_stage1_teil, r.avg_drift_teil_pct, r.avg_drift_area_pct, r.avg_final_area
        );
    }
    println!("\nexpected: the dynamic estimator needs less stage-2 correction (smaller drifts),");
    println!("matching the paper's claim that its placements need little modification");
    opts.dump_json(&rows);
}
