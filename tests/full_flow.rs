//! End-to-end integration: synthetic circuit → stage-1 annealing →
//! stage-2 refinement → routed, width-legal chip.

use timberwolfmc::core::{run_timberwolf, TimberWolfConfig};
use timberwolfmc::netlist::{paper_circuit, synthesize_profile, Netlist};
use timberwolfmc::place::PlaceParams;
use timberwolfmc::route::RouterParams;

fn i3() -> Netlist {
    synthesize_profile(paper_circuit("i3").expect("known circuit"), 42)
}

fn quick_config(seed: u64) -> TimberWolfConfig {
    TimberWolfConfig {
        place: PlaceParams {
            attempts_per_cell: 15,
            normalization_samples: 8,
            ..Default::default()
        },
        refine: timberwolfmc::refine::RefineParams {
            router: RouterParams {
                m_alternatives: 6,
                per_level: 3,
            },
        },
        seed,
        ..Default::default()
    }
}

#[test]
fn paper_profile_runs_end_to_end() {
    let nl = i3();
    let r = run_timberwolf(&nl, &quick_config(1));

    // Legal placement.
    for i in 0..r.placement.len() {
        for j in (i + 1)..r.placement.len() {
            assert_eq!(
                r.placement[i].bbox.overlap_area(r.placement[j].bbox),
                0,
                "{} overlaps {}",
                r.placement[i].name,
                r.placement[j].name
            );
        }
    }

    // Three refinement executions happened, with routing data.
    assert_eq!(r.stage2.records.len(), 3);
    for rec in &r.stage2.records {
        assert!(rec.routed_length > 0);
        assert!(rec.max_density > 0);
    }

    // Every net routed in the final routing.
    assert_eq!(r.stage2.final_routing.routes.len(), nl.nets().len());
    let unrouted = r.stage2.final_routing.unrouted;
    assert!(
        unrouted * 20 <= nl.nets().len(),
        "{unrouted}/{} nets unrouted",
        nl.nets().len()
    );

    // The chip contains every cell and has nonzero wiring space: chip
    // area strictly exceeds total cell area.
    let cell_area: i64 = nl.cells().iter().map(|c| c.area()).sum();
    assert!(r.chip_area() > cell_area);
    for p in &r.placement {
        assert!(r.chip.contains_rect(p.bbox));
    }
}

#[test]
fn stage1_history_shows_annealing_profile() {
    let nl = i3();
    let r = run_timberwolf(&nl, &quick_config(2));
    let hist = &r.stage1.history;
    assert!(hist.len() > 30, "too few temperature steps: {}", hist.len());
    // Temperatures strictly decrease.
    for w in hist.windows(2) {
        assert!(w[1].temperature < w[0].temperature);
    }
    // Early acceptance near 1, late acceptance low — the annealing
    // signature the paper's T_infinity calibration targets.
    let early = hist[0].accepts as f64 / hist[0].attempts.max(1) as f64;
    let late_rec = &hist[hist.len() - 1];
    let late = late_rec.accepts as f64 / late_rec.attempts.max(1) as f64;
    assert!(early > 0.85, "early acceptance {early}");
    assert!(late < 0.5, "late acceptance {late}");
    // Window shrinks monotonically.
    for w in hist.windows(2) {
        assert!(w[1].window_x <= w[0].window_x + 1e-9);
    }
}

#[test]
fn different_seeds_give_different_placements_similar_quality() {
    let nl = i3();
    let a = run_timberwolf(&nl, &quick_config(10));
    let b = run_timberwolf(&nl, &quick_config(11));
    assert_ne!(a.placement, b.placement, "seeds must decorrelate");
    // Quality within a reasonable band (annealing variance).
    let ratio = a.teil / b.teil;
    assert!(
        (0.5..2.0).contains(&ratio),
        "TEIL spread too wide: {} vs {}",
        a.teil,
        b.teil
    );
}

#[test]
fn custom_cells_have_aspect_in_range_and_sites_respected() {
    let nl = i3();
    let r = run_timberwolf(&nl, &quick_config(3));
    for (cell, rec) in nl.cells().iter().zip(&r.placement) {
        if let timberwolfmc::netlist::CellGeometry::Flexible { aspect, .. } = &cell.geometry {
            assert!(
                aspect.contains(rec.aspect),
                "cell {} aspect {} out of range",
                cell.name,
                rec.aspect
            );
        } else {
            assert!(rec.instance < cell.instance_count());
        }
    }
}
