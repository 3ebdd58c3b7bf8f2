//! Import a chip described in YAL (the MCNC macro-cell benchmark
//! format) and run the full TimberWolfMC flow on it.
//!
//! ```sh
//! cargo run --release --example yal_import [file.yal]
//! ```
//!
//! Defaults to the bundled `examples/data/fab9.yal`, a 9-block chip in
//! the style of the apte/xerox benchmarks.

use timberwolfmc::core::{render_svg, run_timberwolf, TimberWolfConfig};
use timberwolfmc::netlist::parse_yal;
use timberwolfmc::place::PlaceParams;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/fab9.yal").into());
    let text = std::fs::read_to_string(&path).expect("readable YAL file");
    let circuit = parse_yal(&text).expect("valid YAL");
    let stats = circuit.stats();
    println!(
        "{path}: {} cells, {} nets, {} pins",
        stats.cells, stats.nets, stats.pins
    );
    for cell in circuit.cells() {
        let s = cell.default_shape();
        println!(
            "  {:<8} {:>4} x {:<4} ({} tiles, {} pins)",
            cell.name,
            s.width(),
            s.height(),
            s.tiles().len(),
            cell.pins.len()
        );
    }

    let config = TimberWolfConfig {
        place: PlaceParams {
            attempts_per_cell: 100,
            ..Default::default()
        },
        seed: 1988,
        ..Default::default()
    };
    let result = run_timberwolf(&circuit, &config);
    println!(
        "\nplaced: TEIL {:.0}, chip {} x {}, routed length {}",
        result.teil,
        result.chip.width(),
        result.chip.height(),
        result.routed_length
    );
    let svg = render_svg(
        &result.placement,
        Some(&result.stage2.final_routing),
        result.chip,
    );
    std::fs::write("fab9.svg", svg).expect("writable cwd");
    println!("wrote fab9.svg");
}
