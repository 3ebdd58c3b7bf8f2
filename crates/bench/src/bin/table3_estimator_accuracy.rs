//! **Table 3**: accuracy of the dynamic interconnect-area estimator —
//! TEIL and core-area change between the end of stage 1 and the end of
//! stage 2, for the nine circuits.
//!
//! A large change would mean the stage-2 router found the stage-1
//! spacings wrong and moved cells a lot. Paper finding: averages of
//! ≈4.4% TEIL reduction and ≈4.1% area reduction — negligible movement,
//! i.e. the estimator was accurate.
//!
//! ```sh
//! cargo run --release -p twmc-bench --bin table3_estimator_accuracy [--full]
//! ```

use serde::Serialize;
use twmc_anneal::CoolingSchedule;
use twmc_bench::{mean, ExpOptions};
use twmc_estimator::EstimatorParams;
use twmc_netlist::{synthesize_profile, PAPER_CIRCUITS};
use twmc_place::{place_stage1, PlaceParams};
use twmc_refine::{refine_placement, RefineParams};
use twmc_route::RouterParams;

#[derive(Serialize)]
struct Row {
    circuit: &'static str,
    cells: usize,
    nets: usize,
    pins: usize,
    trials: usize,
    avg_teil_reduction_pct: f64,
    avg_area_reduction_pct: f64,
}

fn main() {
    let opts = ExpOptions::parse(40);
    let ac = if opts.full { 200 } else { opts.ac };
    // The paper used 2-6 trials per circuit.
    let trials = if opts.full {
        opts.trials.max(4)
    } else {
        opts.trials
    };
    let router = if opts.full {
        RouterParams::default()
    } else {
        RouterParams {
            m_alternatives: 6,
            per_level: 3,
        }
    };

    println!("Table 3 — stage-1 -> stage-2 TEIL and core-area change");
    println!(
        "{:<8} {:>5} {:>5} {:>5} {:>7} {:>15} {:>15}",
        "Circuit", "Cells", "Nets", "Pins", "Trials", "TEIL Red. (%)", "Area Red. (%)"
    );

    let mut rows = Vec::new();
    let mut all_teil = Vec::new();
    let mut all_area = Vec::new();
    for profile in PAPER_CIRCUITS {
        let mut teil_reds = Vec::new();
        let mut area_reds = Vec::new();
        for t in 0..trials {
            let nl = synthesize_profile(profile, opts.seed + t as u64);
            let params = PlaceParams {
                attempts_per_cell: ac,
                ..Default::default()
            };
            let (mut state, s1) = place_stage1(
                &nl,
                &params,
                &EstimatorParams::default(),
                &CoolingSchedule::stage1(),
                opts.seed + 31 * t as u64,
            );
            let teil1 = s1.teil;
            let area1 = s1.chip_area() as f64;
            let rp = RefineParams {
                router: router.clone(),
            };
            let s2 = refine_placement(
                &mut state,
                &nl,
                &params,
                &rp,
                s1.s_t,
                s1.t_infinity,
                opts.seed + 77 * t as u64,
            );
            teil_reds.push(100.0 * (1.0 - s2.teil / teil1.max(1e-9)));
            area_reds.push(100.0 * (1.0 - s2.chip.area() as f64 / area1.max(1.0)));
        }
        let row = Row {
            circuit: profile.name,
            cells: profile.cells,
            nets: profile.nets,
            pins: profile.pins,
            trials,
            avg_teil_reduction_pct: mean(&teil_reds),
            avg_area_reduction_pct: mean(&area_reds),
        };
        println!(
            "{:<8} {:>5} {:>5} {:>5} {:>7} {:>15.1} {:>15.1}",
            row.circuit,
            row.cells,
            row.nets,
            row.pins,
            row.trials,
            row.avg_teil_reduction_pct,
            row.avg_area_reduction_pct
        );
        all_teil.push(row.avg_teil_reduction_pct);
        all_area.push(row.avg_area_reduction_pct);
        rows.push(row);
    }
    println!(
        "{:<8} {:>5} {:>5} {:>5} {:>7} {:>15.1} {:>15.1}",
        "Avg.",
        "",
        "",
        "",
        "",
        mean(&all_teil),
        mean(&all_area)
    );
    println!(
        "\npaper Table 3: per-circuit changes of a few percent; averages 4.4% TEIL, 4.1% area"
    );
    println!("(small values = the stage-1 estimator allocated nearly the right interconnect area)");
    opts.dump_json(&rows);
}
