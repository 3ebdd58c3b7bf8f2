//! Criterion benchmarks of channel definition and global routing.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use twmc_core::TimberWolfConfig;
use twmc_geom::{Point, Rect, TileSet};
use twmc_netlist::{synthesize, SynthParams};
use twmc_place::{legalize, place_stage1};
use twmc_refine::routing_snapshot;
use twmc_route::{
    assign_routes, build_channel_graph, critical_regions, enumerate_route_trees, global_route,
    k_shortest_paths, NetPins, PlacedGeometry, RouteTree, RouterParams,
};

/// A 4x4 grid of cells: a realistic mid-size channel network.
fn grid_geometry() -> PlacedGeometry {
    let mut cells = Vec::new();
    for gy in 0..4i64 {
        for gx in 0..4i64 {
            cells.push((
                TileSet::rect(12, 12),
                Point::new(gx * 20 - 38, gy * 20 - 38),
            ));
        }
    }
    PlacedGeometry {
        cells,
        core: Rect::from_wh(-44, -44, 88, 88),
    }
}

fn bench_channel_definition(c: &mut Criterion) {
    let g = grid_geometry();
    c.bench_function("route/critical_regions_16cells", |bench| {
        bench.iter(|| black_box(critical_regions(black_box(&g))))
    });
    c.bench_function("route/build_channel_graph_16cells", |bench| {
        bench.iter(|| black_box(build_channel_graph(black_box(&g))))
    });
}

fn bench_paths(c: &mut Criterion) {
    let graph = build_channel_graph(&grid_geometry());
    let (s, t) = (0, graph.len() - 1);
    c.bench_function("route/k_shortest_paths_k8", |bench| {
        bench.iter(|| black_box(k_shortest_paths(&graph, black_box(s), black_box(t), 8)))
    });
    c.bench_function("route/enumerate_trees_4pin_m8", |bench| {
        let points = vec![
            vec![0],
            vec![graph.len() / 3],
            vec![2 * graph.len() / 3],
            vec![graph.len() - 1],
        ];
        bench.iter(|| black_box(enumerate_route_trees(&graph, black_box(&points), 8, 3)))
    });
}

fn bench_assignment(c: &mut Criterion) {
    let mut graph = build_channel_graph(&grid_geometry());
    for e in &mut graph.edges {
        e.capacity = 1; // force congestion so phase 2 has work to do
    }
    let alternatives: Vec<Vec<RouteTree>> = (0..16)
        .map(|k| {
            let s = k % graph.len();
            let t = (k * 7 + 5) % graph.len();
            if s == t {
                Vec::new()
            } else {
                enumerate_route_trees(&graph, &[vec![s], vec![t]], 8, 3)
            }
        })
        .collect();
    c.bench_function("route/assign_routes_16nets_congested", |bench| {
        bench.iter(|| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
            black_box(assign_routes(&graph, &alternatives, &mut rng).expect("fresh routes"))
        })
    });
}

fn bench_full_route(c: &mut Criterion) {
    let g = grid_geometry();
    let nets: Vec<NetPins> = (0..10)
        .map(|k| NetPins {
            points: vec![
                vec![Point::new(-26, -38 + 5 * k)],
                vec![Point::new(26, 38 - 5 * k)],
            ],
        })
        .collect();
    let mut group = c.benchmark_group("route/global_route");
    group.sample_size(20);
    group.bench_function("10nets_16cells", |bench| {
        bench.iter(|| black_box(global_route(&g, &nets, &RouterParams::default(), 5)))
    });
    group.finish();
}

/// One `global_route` of a placement from the size ladder: a circuit of
/// `CELLS` cells with 3 nets and 12 pins per cell, a quarter of the
/// cells custom (circuit seed 1988), placed by stage 1 at `A_c` = 2
/// (seed 7) and legalized at gap 2, routed at the default parameters.
/// Phase 1's search memo answers most of its searches.
fn bench_ladder_route(c: &mut Criterion) {
    const CELLS: usize = 100;
    let nl = synthesize(&SynthParams {
        cells: CELLS,
        nets: 3 * CELLS,
        pins: 12 * CELLS,
        custom_fraction: 0.25,
        seed: 1988,
        ..Default::default()
    });
    let mut config = TimberWolfConfig::fast(7);
    config.place.attempts_per_cell = 2;
    let (mut state, _) = place_stage1(&nl, &config.place, &config.estimator, &config.schedule, 7);
    legalize(&mut state, 2, 500);
    let (geometry, nets) = routing_snapshot(&state);
    let mut group = c.benchmark_group("route/global_route");
    group.sample_size(10);
    group.bench_function(format!("ladder_{CELLS}cells"), |bench| {
        bench.iter(|| black_box(global_route(&geometry, &nets, &RouterParams::default(), 7)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_channel_definition,
    bench_paths,
    bench_assignment,
    bench_full_route,
    bench_ladder_route
);
criterion_main!(benches);
