//! **Ablation**: the rich stage-1 move set (orientation changes,
//! aspect-ratio inversions, interchange retries) versus displacement-only
//! moves.
//!
//! TimberWolfMC's `generate` considers all eight orientations and retries
//! failed moves with the aspect ratio inverted (paper §3.2.1, Fig. 2) —
//! none of the prior annealing placers did. This ablation runs stage 1
//! with the full cascade and with the stage-2 (displacement + pin moves
//! only) subset, from identical seeds.
//!
//! ```sh
//! cargo run --release -p twmc-bench --bin ablation_orientations [--full]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use twmc_anneal::{t_infinity, temperature_scale, CoolingSchedule, RangeLimiter};
use twmc_bench::{fig3_suite, mean, ExpOptions};
use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
use twmc_place::{run_annealing, MoveSet, PlaceParams, PlacementState};

#[derive(Serialize)]
struct Row {
    mode: &'static str,
    avg_teil: f64,
    avg_residual_overlap: f64,
}

fn main() {
    let opts = ExpOptions::parse(60);
    let ac = if opts.full { 200 } else { opts.ac };
    let circuits = fig3_suite(if opts.full { 4 } else { 3 }, opts.seed);

    let mut rows = Vec::new();
    for (move_set, mode) in [
        (MoveSet::Full, "full cascade"),
        (MoveSet::Refinement, "displacement only"),
    ] {
        let mut teils = Vec::new();
        let mut overlaps = Vec::new();
        for (ci, nl) in circuits.iter().enumerate() {
            for t in 0..opts.trials {
                let seed = opts.seed + (ci * 1000 + t) as u64;
                let det = determine_core(nl, &EstimatorParams::default());
                let density = cell_density_factors(nl, nl.stats().avg_pin_density);
                let mut rng = StdRng::seed_from_u64(seed);
                let params = PlaceParams {
                    attempts_per_cell: ac,
                    ..Default::default()
                };
                let mut state = PlacementState::random(nl, det.estimator, density, &mut rng);
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
                let r = run_annealing(
                    &mut state,
                    &params,
                    move_set,
                    &CoolingSchedule::stage1(),
                    &limiter,
                    t_inf,
                    s_t,
                    None,
                    &mut rng,
                );
                teils.push(r.teil);
                overlaps.push(r.residual_overlap as f64);
            }
        }
        let row = Row {
            mode,
            avg_teil: mean(&teils),
            avg_residual_overlap: mean(&overlaps),
        };
        eprintln!(
            "{mode:<18}: avg TEIL {:.0}, residual overlap {:.0}",
            row.avg_teil, row.avg_residual_overlap
        );
        rows.push(row);
    }

    println!("\nAblation — full generate cascade vs displacement-only moves");
    println!(
        "{:<20} {:>12} {:>18}",
        "mode", "avg TEIL", "residual overlap"
    );
    for r in &rows {
        println!(
            "{:<20} {:>12.0} {:>18.0}",
            r.mode, r.avg_teil, r.avg_residual_overlap
        );
    }
    println!(
        "\nfull cascade TEIL vs displacement-only: {:+.1}%",
        100.0 * (rows[0].avg_teil / rows[1].avg_teil - 1.0)
    );
    opts.dump_json(&rows);
}
