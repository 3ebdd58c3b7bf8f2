//! End-to-end detailed-routing validation: the full flow's channels are
//! routable by an actual channel router within the paper's track bound.

use timberwolfmc::anneal::CoolingSchedule;
use timberwolfmc::estimator::EstimatorParams;
use timberwolfmc::netlist::{paper_circuit, synthesize_profile};
use timberwolfmc::place::{place_stage1, PlaceParams};
use timberwolfmc::refine::{detailed_check, refine_placement, routing_snapshot, RefineParams};
use timberwolfmc::route::{global_route, RouterParams};

#[test]
fn full_flow_channels_route_in_detail() {
    let nl = synthesize_profile(paper_circuit("i3").expect("known"), 11);
    let params = PlaceParams {
        attempts_per_cell: 20,
        normalization_samples: 8,
        ..Default::default()
    };
    let router = RouterParams {
        m_alternatives: 6,
        per_level: 3,
    };
    let (mut state, s1) = place_stage1(
        &nl,
        &params,
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        11,
    );
    let rp = RefineParams {
        router: router.clone(),
    };
    refine_placement(&mut state, &nl, &params, &rp, s1.s_t, s1.t_infinity, 12);
    let fin = timberwolfmc::core::finalize_chip(&nl, &mut state, &router, 13);

    let (geometry, nets) = routing_snapshot(&state);
    let routing = global_route(&geometry, &nets, &router, 14);
    let check = detailed_check(&routing);

    // Every channel routes (no unresolved constraint cycles).
    assert_eq!(check.failed, 0);
    assert!(!check.channels.is_empty());
    // The paper's t <= d+1 assumption holds essentially everywhere.
    assert!(
        check.bound_rate() > 0.95,
        "t<=d+1 rate {}",
        check.bound_rate()
    );
    // Most channels accept their detailed route without cell movement.
    assert!(check.fit_rate() > 0.7, "fit rate {}", check.fit_rate());
    // And the finalize-level width report agrees with the claim.
    assert!(
        fin.width_report.violation_rate() < 0.3,
        "width violations {}",
        fin.width_report.violation_rate()
    );
}

#[test]
fn detailed_and_global_densities_are_consistent() {
    let nl = synthesize_profile(paper_circuit("i3").expect("known"), 21);
    let params = PlaceParams {
        attempts_per_cell: 15,
        normalization_samples: 8,
        ..Default::default()
    };
    let (mut state, _s1) = place_stage1(
        &nl,
        &params,
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        21,
    );
    timberwolfmc::place::legalize(&mut state, 2, 500);
    let (geometry, nets) = routing_snapshot(&state);
    let router = RouterParams {
        m_alternatives: 4,
        per_level: 3,
    };
    let routing = global_route(&geometry, &nets, &router, 22);
    let check = detailed_check(&routing);
    for c in &check.channels {
        // The channel problem never involves more nets than the global
        // router put through the channel, so detailed tracks are bounded
        // by that count (plus doglegs cannot increase net count).
        assert!(
            c.tracks <= c.global_density as usize + c.doglegs + 1,
            "node {}: t={} d={} doglegs={}",
            c.node,
            c.tracks,
            c.global_density,
            c.doglegs
        );
    }
}
