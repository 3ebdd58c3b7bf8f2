//! Property-based tests of the placement state: the incremental cost
//! bookkeeping must match a from-scratch recomputation under arbitrary
//! move sequences, and legalization must terminate in a legal state.
//! They use `assert!`, so they also check release builds, where the
//! engine's own `debug_assert!` cross-checks are compiled out.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
use twmc_geom::{Orientation, Point, Span};
use twmc_netlist::{synthesize, Netlist, PinPlacement, SynthParams};
use twmc_place::{
    generate, legalize, separated, MoveSet, MoveStats, PlaceParams, PlacementState, SiteRef,
};

fn circuit(seed: u64, custom: bool) -> Netlist {
    synthesize(&SynthParams {
        cells: 8,
        nets: 18,
        pins: 60,
        custom_fraction: if custom { 0.4 } else { 0.0 },
        seed,
        avg_cell_dim: 18,
        ..Default::default()
    })
}

/// A circuit shaped like the benchmark's stage-1 ladder (3 nets and 12
/// pins per cell, a quarter custom), built once: 10,000 cells in release
/// builds, 1,200 in debug builds, whose engine also cross-checks itself
/// with `debug_assert!` scans on every move.
fn large_circuit() -> &'static Netlist {
    static NL: OnceLock<Netlist> = OnceLock::new();
    NL.get_or_init(|| {
        let cells = if cfg!(debug_assertions) { 1200 } else { 10_000 };
        synthesize(&SynthParams {
            cells,
            nets: 3 * cells,
            pins: 12 * cells,
            custom_fraction: 0.25,
            seed: 1988,
            ..Default::default()
        })
    })
}

/// A net's span over its primary pins, from the pin positions alone.
fn span_of(st: &PlacementState<'_>, nl: &Netlist, net: usize) -> Option<(Span, Span)> {
    nl.nets()[net]
        .primary_pins()
        .map(|p| {
            let q = st.pin_position(p.index());
            (Span::new(q.x, q.x), Span::new(q.y, q.y))
        })
        .reduce(|(ax, ay), (bx, by)| (ax.hull(bx), ay.hull(by)))
}

fn state(nl: &Netlist, seed: u64) -> PlacementState<'_> {
    let det = determine_core(nl, &EstimatorParams::default());
    let density = cell_density_factors(nl, nl.stats().avg_pin_density);
    let mut rng = StdRng::seed_from_u64(seed);
    PlacementState::random(nl, det.estimator, density, &mut rng)
}

/// An arbitrary state mutation.
#[derive(Debug, Clone)]
enum Mutation {
    Move(usize, i64, i64),
    Orient(usize, usize),
    Aspect(usize, u8),
    PinSite(usize, u8, u32),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..8, -150i64..150, -150i64..150).prop_map(|(i, x, y)| Mutation::Move(i, x, y)),
        (0usize..8, 0usize..8).prop_map(|(i, o)| Mutation::Orient(i, o)),
        (0usize..8, 0u8..4).prop_map(|(i, a)| Mutation::Aspect(i, a)),
        (0usize..60, 0u8..4, 0u32..8).prop_map(|(p, s, k)| Mutation::PinSite(p, s, k)),
    ]
}

fn apply(st: &mut PlacementState<'_>, nl: &Netlist, m: &Mutation) {
    match *m {
        Mutation::Move(i, x, y) => {
            let i = i % nl.cells().len();
            let involved = [i];
            let nets = st.nets_touching(&involved);
            let before = st.move_cost(&involved, &nets);
            st.set_cell_center(i, Point::new(x, y));
            let after = st.move_cost(&involved, &nets);
            st.commit_cost(before, after);
        }
        Mutation::Orient(i, o) => {
            let i = i % nl.cells().len();
            let involved = [i];
            let nets = st.nets_touching(&involved);
            let before = st.move_cost(&involved, &nets);
            st.set_cell_orientation(i, Orientation::ALL[o % 8]);
            let after = st.move_cost(&involved, &nets);
            st.commit_cost(before, after);
        }
        Mutation::Aspect(i, a) => {
            let i = i % nl.cells().len();
            if !nl.cells()[i].is_custom() {
                return;
            }
            let ratio = [0.5, 1.0, 1.5, 2.0][a as usize % 4];
            let involved = [i];
            let nets = st.nets_touching(&involved);
            let before = st.move_cost(&involved, &nets);
            st.set_cell_aspect(i, ratio);
            let after = st.move_cost(&involved, &nets);
            st.commit_cost(before, after);
        }
        Mutation::PinSite(p, s, k) => {
            let p = p % nl.pins().len();
            // Only reassign sited pins, respecting their side constraint.
            let pin = &nl.pins()[p];
            let PinPlacement::Sites(sides) = pin.placement else {
                return;
            };
            let cell = pin.cell.index();
            let Some(layout) = st.cell(cell).sites.as_ref() else {
                return;
            };
            let allowed: Vec<twmc_geom::Side> = if sides.is_empty() {
                twmc_geom::Side::ALL.to_vec()
            } else {
                sides.iter().collect()
            };
            let site = SiteRef {
                side: allowed[s as usize % allowed.len()],
                slot: k % layout.sites_per_edge(),
            };
            let nets: Vec<twmc_netlist::NetId> = pin.net.into_iter().collect();
            let before = twmc_place::MoveCost {
                c1: nets.iter().map(|n| st.net_cost_live(n.index())).sum(),
                overlap: 0,
                c3: st.cells_c3(&[cell]),
            };
            st.set_pin_site(p, site);
            let after = twmc_place::MoveCost {
                c1: nets.iter().map(|n| st.net_cost_live(n.index())).sum(),
                overlap: 0,
                c3: st.cells_c3(&[cell]),
            };
            st.commit_cost(before, after);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bookkeeping_matches_scratch(
        seed in 0u64..1000,
        muts in prop::collection::vec(arb_mutation(), 1..60),
    ) {
        let nl = circuit(seed, true);
        let mut st = state(&nl, seed ^ 0xabc);
        for m in &muts {
            apply(&mut st, &nl, m);
        }
        let (c1, ov, c3) = st.recompute_totals();
        prop_assert!((st.c1() - c1).abs() < 1e-6 * c1.max(1.0), "C1 {} vs {}", st.c1(), c1);
        prop_assert_eq!(st.raw_overlap(), ov, "overlap drifted");
        prop_assert!((st.c3() - c3).abs() < 1e-6, "C3 {} vs {}", st.c3(), c3);
    }

    /// The generate cascade with *static* expansions installed (stage-2
    /// mode: the refinement move set over frozen interconnect estimates)
    /// must leave the cached (C1, overlap, C3) equal to a from-scratch
    /// recomputation — the incremental engine may not drift.
    #[test]
    fn bookkeeping_survives_generates_with_static_expansions(
        seed in 0u64..1000,
        steps in 50usize..300,
        margin in 0i64..6,
    ) {
        let nl = circuit(seed, true);
        let mut st = state(&nl, seed ^ 0x51a);
        let expansions = vec![(margin, margin, margin, margin); nl.cells().len()];
        st.set_static_expansions(expansions);
        let params = PlaceParams::default();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let mut stats = MoveStats::default();
        for step in 0..steps {
            let t = 1.0e5 * 0.97f64.powi(step as i32);
            generate(
                &mut st,
                &params,
                MoveSet::Refinement,
                150.0,
                150.0,
                t,
                &mut rng,
                &mut stats,
            );
        }
        prop_assert!(stats.attempts() >= steps);
        let (c1, ov, c3) = st.recompute_totals();
        prop_assert!((st.c1() - c1).abs() < 1e-6 * c1.max(1.0), "C1 {} vs {}", st.c1(), c1);
        prop_assert_eq!(st.raw_overlap(), ov, "overlap drifted under static expansions");
        prop_assert!((st.c3() - c3).abs() < 1e-6, "C3 {} vs {}", st.c3(), c3);
    }

    #[test]
    fn site_occupancy_is_conserved(
        seed in 0u64..1000,
        muts in prop::collection::vec(arb_mutation(), 1..60),
    ) {
        let nl = circuit(seed, true);
        let mut st = state(&nl, seed);
        let sited = nl
            .pins()
            .iter()
            .filter(|p| p.is_uncommitted() && nl.cell(p.cell).is_custom())
            .count() as u32;
        for m in &muts {
            apply(&mut st, &nl, m);
        }
        let total: u32 = (0..nl.cells().len())
            .filter_map(|i| st.cell(i).sites.as_ref())
            .map(|s| s.total_occupancy())
            .sum();
        prop_assert_eq!(total, sited, "pins lost or duplicated in site bookkeeping");
    }

    #[test]
    fn legalize_reaches_separation(
        seed in 0u64..1000,
        muts in prop::collection::vec(arb_mutation(), 0..30),
    ) {
        let nl = circuit(seed, false);
        let mut st = state(&nl, seed);
        for m in &muts {
            apply(&mut st, &nl, m);
        }
        let ok = legalize(&mut st, 2, 500);
        prop_assert!(ok);
        prop_assert!(separated(&st, 2));
        // Bookkeeping intact after legalization.
        let (c1, ov, c3) = st.recompute_totals();
        prop_assert!((st.c1() - c1).abs() < 1e-6 * c1.max(1.0));
        prop_assert_eq!(st.raw_overlap(), ov);
        prop_assert!((st.c3() - c3).abs() < 1e-6);
    }

    #[test]
    fn teil_is_translation_invariant(seed in 0u64..1000, dx in -500i64..500, dy in -500i64..500) {
        let nl = circuit(seed, false);
        let mut st = state(&nl, seed);
        let before = st.teil();
        for i in 0..nl.cells().len() {
            let pos = st.cell(i).pos + Point::new(dx, dy);
            st.set_cell_pos(i, pos);
        }
        st.rebuild_all();
        prop_assert!((st.teil() - before).abs() < 1e-9, "{} vs {before}", st.teil());
    }

    #[test]
    fn orientation_roundtrip_restores_pins(seed in 0u64..1000, o in 0usize..8) {
        let nl = circuit(seed, false);
        let mut st = state(&nl, seed);
        let orientation = Orientation::ALL[o];
        let pins_before: Vec<Point> = (0..nl.pins().len()).map(|p| st.pin_position(p)).collect();
        let pos_before = st.cell(0).pos;
        st.set_cell_orientation(0, orientation);
        st.set_cell_orientation(0, Orientation::R0);
        st.set_cell_pos(0, pos_before);
        let pins_after: Vec<Point> = (0..nl.pins().len()).map(|p| st.pin_position(p)).collect();
        prop_assert_eq!(pins_before, pins_after);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random `generate` sequences on a large circuit, with snapshots
    /// taken and restored along the way: the incremental C1, overlap and
    /// C3 equal a from-scratch recompute exactly (unit net weights and an
    /// integral kappa keep every term an integer), every cached net span
    /// equals the hull of its pins, every indexed rect equals its cell's
    /// expanded bbox, and the indexed overlap query equals the all-cells
    /// scan for every cell.
    #[test]
    fn incremental_engine_matches_scratch_at_scale(
        seed in 0u64..1000,
        steps in 200usize..1200,
        log_t in 1i32..7,
        window in 0.02f64..1.0,
        every in 40usize..400,
    ) {
        let nl = large_circuit();
        let mut st = state(nl, seed);
        let core = st.estimator().core();
        let params = PlaceParams::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1c);
        let mut stats = MoveStats::default();
        let mut snap = None;
        for step in 1..=steps {
            generate(
                &mut st,
                &params,
                MoveSet::Full,
                window * core.width() as f64,
                window * core.height() as f64,
                10f64.powi(log_t),
                &mut rng,
                &mut stats,
            );
            // Alternately capture the state and rewind to the capture.
            if step % every == 0 {
                match snap.take() {
                    None => snap = Some(st.snapshot()),
                    Some(s) => st.restore(&s),
                }
            }
        }
        prop_assert!(stats.accepts() > 0 && stats.accepts() < stats.attempts());
        prop_assert_eq!((st.c1(), st.raw_overlap(), st.c3()), st.recompute_totals());
        for n in 0..nl.nets().len() {
            prop_assert_eq!(st.net_spans(n), span_of(&st, nl, n), "net {}", n);
        }
        for i in 0..nl.cells().len() {
            prop_assert_eq!(st.indexed_rect(i), st.expanded_bbox(i), "cell {}", i);
            prop_assert_eq!(st.group_overlap(&[i]), st.group_overlap_scan(&[i]), "cell {}", i);
        }
    }
}
