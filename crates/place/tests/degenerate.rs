//! Regression: nets with no primary pins (degenerate nets) must not
//! panic the placement cost engine.
//!
//! The text-netlist parser accepts `net NAME :` with an empty pin list
//! (the YAL importer filters such nets, but the native format does not),
//! and `NetlistBuilder::add_net` records them verbatim. `net_spans` used
//! to unwrap the span fold and panicked on the first cost evaluation;
//! now it reports `None` and the net contributes zero cost.

use rand::rngs::StdRng;
use rand::SeedableRng;

use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
use twmc_netlist::{parse_netlist, Netlist, NetlistBuilder};
use twmc_place::PlacementState;

fn state(nl: &Netlist) -> PlacementState<'_> {
    let det = determine_core(nl, &EstimatorParams::default());
    let density = cell_density_factors(nl, nl.stats().avg_pin_density);
    let mut rng = StdRng::seed_from_u64(7);
    PlacementState::random(nl, det.estimator, density, &mut rng)
}

#[test]
fn parsed_zero_pin_net_does_not_panic_cost_engine() {
    let nl = parse_netlist(
        "macro a\n tile 0 0 10 10\n pin o 10 5\nend\n\
         macro b\n tile 0 0 8 6\n pin i 0 3\nend\n\
         net w : a.o b.i\n\
         net empty :\n",
    )
    .expect("valid text netlist");
    let empty = nl.net_by_name("empty").expect("net recorded").id();

    let mut st = state(&nl);
    // The degenerate net has no spans and no cost; everything else works.
    assert_eq!(st.net_spans(empty.index()), None);
    assert_eq!(st.net_cost_live(empty.index()), 0.0);
    assert!(st.cost().is_finite());
    assert!(st.teil().is_finite());
    // Full rebuild (snapshot of every cached term) tolerates it too.
    st.rebuild_all();
    let (c1, _, _) = st.recompute_totals();
    assert!((st.c1() - c1).abs() < 1e-9 * c1.max(1.0));
}

#[test]
fn builder_zero_pin_net_does_not_panic_cost_engine() {
    let mut b = NetlistBuilder::new();
    let a = b.add_macro("a", twmc_geom::TileSet::rect(10, 10));
    let p = b
        .add_fixed_pin(a, "p", twmc_geom::Point::new(5, 10))
        .expect("pin");
    let m = b.add_macro("m", twmc_geom::TileSet::rect(8, 8));
    let q = b
        .add_fixed_pin(m, "q", twmc_geom::Point::new(0, 4))
        .expect("pin");
    b.add_simple_net("real", &[p, q]).expect("net");
    b.add_net("hollow", Vec::new(), 1.0, 1.0).expect("net");
    let nl = b.build().expect("valid");

    let st = state(&nl);
    let hollow = nl.net_by_name("hollow").expect("net recorded").id();
    assert_eq!(st.net_spans(hollow.index()), None);
    assert_eq!(st.net_cost_live(hollow.index()), 0.0);
    assert!(st.cost().is_finite());
}
