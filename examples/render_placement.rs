//! Render a placed-and-routed chip as SVG — the view the paper's
//! Figs. 8–9 show: cells, critical-region channels (shaded by whether
//! they carry routed nets), and the route trees.
//!
//! ```sh
//! cargo run --release --example render_placement [outfile.svg]
//! ```

use timberwolfmc::core::{render_svg, run_timberwolf, TimberWolfConfig};
use timberwolfmc::netlist::{synthesize, SynthParams};
use timberwolfmc::place::PlaceParams;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "placement.svg".to_owned());

    let circuit = synthesize(&SynthParams {
        cells: 12,
        nets: 30,
        pins: 110,
        custom_fraction: 0.25,
        rectilinear_fraction: 0.3,
        seed: 9,
        ..Default::default()
    });
    let config = TimberWolfConfig {
        place: PlaceParams {
            attempts_per_cell: 80,
            ..Default::default()
        },
        seed: 9,
        ..Default::default()
    };
    eprintln!("placing and routing {} cells...", circuit.stats().cells);
    let result = run_timberwolf(&circuit, &config);

    let svg = render_svg(
        &result.placement,
        Some(&result.stage2.final_routing),
        result.chip,
    );
    std::fs::write(&out, &svg).expect("writable output path");
    println!(
        "wrote {out}: chip {} x {}, TEIL {:.0}, {} channels, {} routed nets",
        result.chip.width(),
        result.chip.height(),
        result.teil,
        result.stage2.final_routing.graph.len(),
        result
            .stage2
            .final_routing
            .routes
            .iter()
            .filter(|r| r.is_some())
            .count(),
    );
}
