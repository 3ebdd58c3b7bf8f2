//! **Table 4**: TimberWolfMC versus other placement methods, on the nine
//! circuits.
//!
//! The paper compared each circuit against one available method:
//! a resistive-network optimizer (i1), the CIPAR automatic package
//! (i2, i3), and manual layouts (p1, x1 treated likewise here, l1, d1,
//! d2, d3). We map: resistive network → `quadratic`, automatic package →
//! `greedy`, manual → `shelf`, and report the same columns. Paper
//! findings: TEIL reductions of 8–49% (avg 24.9%) and area reductions of
//! 4–56% (avg 26.9%).
//!
//! ```sh
//! cargo run --release -p twmc-bench --bin table4_vs_baselines [--full]
//! ```

use serde::Serialize;
use twmc_bench::{mean, ExpOptions};
use twmc_core::{
    greedy_placement, quadratic_placement, run_timberwolf, shelf_placement, BaselineResult,
    TimberWolfConfig,
};
use twmc_estimator::EstimatorParams;
use twmc_netlist::{synthesize_profile, PAPER_CIRCUITS};
use twmc_place::PlaceParams;
use twmc_route::RouterParams;

#[derive(Serialize)]
struct Row {
    circuit: &'static str,
    cells: usize,
    nets: usize,
    pins: usize,
    teil: f64,
    area_x: i64,
    area_y: i64,
    teil_reduction_pct: f64,
    area_reduction_pct: f64,
    versus: &'static str,
}

/// The paper's comparator per circuit, mapped to our baselines.
fn comparator(name: &str) -> &'static str {
    match name {
        "i1" => "quadratic",     // resistive-network optimization (Cheng–Kuh)
        "i2" | "i3" => "greedy", // CIPAR automatic placement
        _ => "shelf",            // manual layouts (Intel, HP, AMD)
    }
}

fn main() {
    let opts = ExpOptions::parse(40);
    let ac = if opts.full { 400 } else { opts.ac };
    let router = if opts.full {
        RouterParams::default()
    } else {
        RouterParams {
            m_alternatives: 6,
            per_level: 3,
        }
    };

    println!("Table 4 — TimberWolfMC vs other placement methods");
    println!(
        "{:<8} {:>5} {:>5} {:>5} {:>9} {:>13} {:>10} {:>10}  vs",
        "Circuit", "Cells", "Nets", "Pins", "TEIL", "Area (x*y)", "TEIL Red%", "Area Red%"
    );

    let mut rows = Vec::new();
    let mut teil_reds = Vec::new();
    let mut area_reds = Vec::new();
    for profile in PAPER_CIRCUITS {
        let nl = synthesize_profile(profile, opts.seed);
        let config = TimberWolfConfig {
            place: PlaceParams {
                attempts_per_cell: ac,
                ..Default::default()
            },
            refine: twmc_refine::RefineParams {
                router: router.clone(),
            },
            seed: opts.seed,
            ..Default::default()
        };
        let est = EstimatorParams::default();
        let twmc = run_timberwolf(&nl, &config);
        let versus = comparator(profile.name);
        let baseline: BaselineResult = match versus {
            "quadratic" => quadratic_placement(&nl, &est, opts.seed),
            "greedy" => greedy_placement(&nl, &est, 60, opts.seed),
            _ => shelf_placement(&nl, &est, opts.seed),
        };
        let teil_red = 100.0 * (1.0 - twmc.teil / baseline.teil.max(1e-9));
        let area_red = 100.0 * (1.0 - twmc.chip_area() as f64 / baseline.chip_area().max(1) as f64);
        let row = Row {
            circuit: profile.name,
            cells: profile.cells,
            nets: profile.nets,
            pins: profile.pins,
            teil: twmc.teil,
            area_x: twmc.chip.width(),
            area_y: twmc.chip.height(),
            teil_reduction_pct: teil_red,
            area_reduction_pct: area_red,
            versus,
        };
        println!(
            "{:<8} {:>5} {:>5} {:>5} {:>9.0} {:>6} x {:<6} {:>9.1} {:>10.1}  {}",
            row.circuit,
            row.cells,
            row.nets,
            row.pins,
            row.teil,
            row.area_x,
            row.area_y,
            row.teil_reduction_pct,
            row.area_reduction_pct,
            row.versus
        );
        teil_reds.push(teil_red);
        area_reds.push(area_red);
        rows.push(row);
    }
    println!(
        "{:<8} {:>36} {:>13} {:>10.1} {:>10.1}",
        "Avg.",
        "",
        "",
        mean(&teil_reds),
        mean(&area_reds)
    );
    println!(
        "\npaper Table 4: TEIL reductions 8-49% (avg 24.9%); area reductions 4-56% (avg 26.9%)"
    );
    opts.dump_json(&rows);
}
