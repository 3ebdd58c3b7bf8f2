//! Stage-2 routing telemetry: `global_route_with` must report exactly
//! what the returned routing contains, never perturb the routing
//! itself, and produce a stream `twmc_analyze::parse_stream` reads
//! end-to-end.

use twmc_geom::{Point, Rect, TileSet};
use twmc_obs::{Event, JsonlRecorder, SummaryRecorder};
use twmc_route::{global_route, global_route_with, NetPins, PlacedGeometry, RouterParams};

/// A 2×2 cell grid with enough nets to congest the center channels.
fn congested_instance() -> (PlacedGeometry, Vec<NetPins>) {
    let mut cells = Vec::new();
    for gy in 0..2 {
        for gx in 0..2 {
            cells.push((
                TileSet::rect(10, 10),
                Point::new(gx as i64 * 16 - 13, gy as i64 * 16 - 13),
            ));
        }
    }
    let geometry = PlacedGeometry {
        cells,
        core: Rect::from_wh(-18, -18, 40, 40),
    };
    let mut nets = Vec::new();
    for k in 0..8i64 {
        nets.push(NetPins {
            points: vec![
                vec![Point::new(-13 + (k % 3), -2)],
                vec![Point::new(3 + (k % 2), -2 + 16 * (k % 2))],
            ],
        });
    }
    (geometry, nets)
}

#[test]
fn route_iter_matches_the_returned_routing() {
    let (geometry, nets) = congested_instance();
    let params = RouterParams {
        m_alternatives: 6,
        per_level: 3,
        ..Default::default()
    };

    let plain = global_route(&geometry, &nets, &params, 77);
    let mut rec = SummaryRecorder::new();
    let recorded = global_route_with(&geometry, &nets, &params, 77, &mut rec, "stage2", 1);

    // Observation only: identical routing with or without a recorder.
    assert_eq!(plain.routes, recorded.routes);
    assert_eq!(plain.assignment, recorded.assignment);

    assert_eq!(rec.count("route_iter"), 1);
    let Event::RouteIter(ev) = &rec.events()[0] else {
        panic!("expected a route_iter event");
    };
    assert_eq!(ev.phase, "stage2");
    assert_eq!(ev.iteration, 1);
    assert_eq!(ev.nets, nets.len());
    assert_eq!(ev.unrouted, recorded.unrouted);
    assert_eq!(ev.overflow, recorded.overflow());
    assert_eq!(ev.total_length, recorded.total_length());
    assert_eq!(ev.attempts, recorded.assignment.attempts);
    assert_eq!(ev.reassignments, recorded.assignment.reassignments);
    // Phase 2 only accepts dX <= 0 moves, so the residual overflow
    // never exceeds the all-shortest-routes starting overflow.
    assert_eq!(ev.overflow_start, recorded.assignment.overflow_start);
    assert!(ev.overflow <= ev.overflow_start);
    assert!(ev.reassignments <= ev.attempts);
    // The utilization histogram buckets every channel edge exactly
    // once, and the usage total is the summed per-edge demand of the
    // chosen routes.
    assert_eq!(
        ev.util_hist.iter().sum::<u64>(),
        recorded.graph.edges.len() as u64
    );
    assert_eq!(
        ev.usage_total,
        recorded
            .assignment
            .edge_usage
            .iter()
            .map(|&d| d as u64)
            .sum::<u64>()
    );
    // Phase 1 enumerated at least one alternative per routed net, at
    // most M per net.
    assert!(ev.alts_total >= nets.len() - ev.unrouted);
    assert!(ev.alts_max <= params.m_alternatives);
}

#[test]
fn repeated_routes_keep_overflow_within_the_shortest_route_bound() {
    let (geometry, nets) = congested_instance();
    let params = RouterParams {
        m_alternatives: 6,
        per_level: 3,
        ..Default::default()
    };
    // Every reassign iteration (distinct seeds, as stage 2 drives it)
    // honors the accept rule: selected overflow <= starting overflow.
    for k in 0..4u64 {
        let mut rec = SummaryRecorder::new();
        let routing = global_route_with(&geometry, &nets, &params, 100 ^ k, &mut rec, "stage2", k);
        let Event::RouteIter(ev) = &rec.events()[0] else {
            panic!("expected a route_iter event");
        };
        assert!(
            ev.overflow <= ev.overflow_start,
            "iteration {k}: {} > {}",
            ev.overflow,
            ev.overflow_start
        );
        assert_eq!(ev.overflow, routing.overflow());
    }
}

#[test]
fn route_iter_stream_validates_end_to_end() {
    let (geometry, nets) = congested_instance();
    let mut rec = JsonlRecorder::new(Vec::new());
    let _ = global_route_with(
        &geometry,
        &nets,
        &RouterParams::default(),
        5,
        &mut rec,
        "final",
        3,
    );
    let text = String::from_utf8(rec.finish().expect("memory sink")).expect("utf-8");
    let stream = twmc_analyze::parse_stream(&text).expect("stream validates");
    assert_eq!(stream.stats.kind_counts["route_iter"], 1);
    assert_eq!(stream.routes.len(), 1);
}
