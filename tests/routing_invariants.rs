//! Property-based integration tests of channel definition and global
//! routing over randomly generated *legal* placements.

use proptest::prelude::*;

use timberwolfmc::core::TimberWolfConfig;
use timberwolfmc::geom::{Point, Rect, TileSet};
use timberwolfmc::netlist::{paper_circuit, synthesize_profile};
use timberwolfmc::place::{legalize, place_stage1};
use timberwolfmc::refine::routing_snapshot;
use timberwolfmc::route::{
    build_channel_graph, critical_regions, enumerate_route_trees, global_route, NetPins,
    PlacedGeometry, RouterParams,
};

/// A random legal placement: cells shelf-packed with random sizes and a
/// random gap, inside a fitted core.
fn arb_geometry() -> impl Strategy<Value = PlacedGeometry> {
    (prop::collection::vec((6i64..30, 6i64..30), 2..10), 2i64..8).prop_map(|(sizes, gap)| {
        let max_w: i64 = 90;
        let mut cells = Vec::new();
        let (mut x, mut y, mut shelf) = (0i64, 0i64, 0i64);
        for (w, h) in sizes {
            if x > 0 && x + w + gap > max_w {
                y += shelf;
                x = 0;
                shelf = 0;
            }
            cells.push((TileSet::rect(w, h), Point::new(x, y)));
            x += w + gap;
            shelf = shelf.max(h + gap);
        }
        let bbox = cells
            .iter()
            .map(|(t, p)| t.bbox().translate(*p))
            .reduce(|a, b| a.hull(b))
            .expect("at least two cells");
        PlacedGeometry {
            core: bbox.expand(gap.max(4)),
            cells,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn critical_regions_are_empty_and_in_core(geometry in arb_geometry()) {
        for r in critical_regions(&geometry) {
            // Region interiors contain no cell area.
            prop_assert!(geometry.is_empty_region(r.rect), "{:?}", r.rect);
            // Regions have positive separation and extent.
            prop_assert!(r.separation() > 0);
            prop_assert!(r.extent() > 0);
        }
    }

    #[test]
    fn channel_graph_is_connected(geometry in arb_geometry()) {
        let g = build_channel_graph(&geometry);
        prop_assert!(!g.is_empty());
        let mut seen = vec![false; g.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(n) = stack.pop() {
            for &(m, _) in g.neighbors(n) {
                if !seen[m] {
                    seen[m] = true;
                    stack.push(m);
                }
            }
        }
        prop_assert!(
            seen.iter().all(|&s| s),
            "channel graph of a legal gapped placement must be connected"
        );
    }

    #[test]
    fn every_boundary_pin_routes(geometry in arb_geometry(), seed in 0u64..1000) {
        // Nets between pins on the first and last cells' edges.
        let first = geometry.cells.first().expect("cells");
        let last = geometry.cells.last().expect("cells");
        let p1 = Point::new(
            first.1.x + first.0.width(),
            first.1.y + first.0.height() / 2,
        );
        let p2 = Point::new(last.1.x, last.1.y + last.0.height() / 2);
        let nets = vec![NetPins { points: vec![vec![p1], vec![p2]] }];
        let routing = global_route(&geometry, &nets, &RouterParams::default(), seed);
        prop_assert_eq!(routing.unrouted, 0);
        let tree = routing.routes[0].as_ref().expect("routed");
        // Tree edges exist in the graph.
        for &(a, b) in &tree.edges {
            prop_assert!(routing.graph.edge_between(a, b).is_some());
        }
        // Densities are consistent with the single net.
        prop_assert!(routing.node_density.iter().all(|&d| d <= 1));
    }

    #[test]
    fn required_widths_follow_eq22(geometry in arb_geometry()) {
        let routing = global_route(&geometry, &[], &RouterParams::default(), 1);
        for node in 0..routing.graph.len() {
            // Unused channels still need (0+2)*t_s.
            let w = routing.required_width(node);
            prop_assert_eq!(w, 4.0);
        }
    }

    #[test]
    fn region_count_scales_with_cells(geometry in arb_geometry()) {
        // Sanity: at least one region per cell side facing another cell
        // or the core (coarse lower bound: 4 regions total).
        let regions = critical_regions(&geometry);
        prop_assert!(regions.len() >= 4);
        // And all regions lie within the expanded core hull.
        let hull = geometry.core.expand(1);
        for r in &regions {
            prop_assert!(hull.contains_rect(r.rect), "{:?} outside {hull:?}", r.rect);
        }
    }
}

#[test]
fn routed_length_reacts_to_congestion() {
    // A narrow corridor forces detours once capacity is exceeded.
    let geometry = PlacedGeometry {
        cells: vec![
            (TileSet::rect(30, 30), Point::new(-35, -15)),
            (TileSet::rect(30, 30), Point::new(5, -15)),
        ],
        core: Rect::from_wh(-45, -25, 90, 50),
    };
    // Many nets crossing the central channel.
    let nets: Vec<NetPins> = (0..12)
        .map(|k| NetPins {
            points: vec![
                vec![Point::new(-5, -13 + 2 * k)],
                vec![Point::new(5, -13 + 2 * k)],
            ],
        })
        .collect();
    let routing = global_route(&geometry, &nets, &RouterParams::default(), 3);
    assert_eq!(routing.unrouted, 0);
    // The crossing nets all pass through the central channel: its density
    // reaches 12, and eq. 22 demands a (12+2)*t_s-wide channel — the
    // signal stage 2 uses to spread the cells.
    let (node, &density) = routing
        .node_density
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| d)
        .expect("nonempty graph");
    assert_eq!(density, 12, "central channel must carry every net");
    assert_eq!(routing.required_width(node), 28.0);
    // The channel is only 10 wide: the required width exceeds the
    // separation, which is exactly what forces refinement to expand it.
    assert!(routing.required_width(node) > routing.graph.nodes[node].region.separation() as f64);
}

/// 64-bit FNV-1a over a stream of integers (little-endian bytes), so the
/// golden digest below does not depend on `std`'s unspecified hasher.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn int(&mut self, v: i64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// splitmix64: a fixed, dependency-free stream for the golden inputs.
struct Stream(u64);

impl Stream {
    /// A draw from `lo..hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        lo + ((z ^ (z >> 31)) % (hi - lo) as u64) as i64
    }

    /// A pin inside one side of a random cell.
    fn pin(&mut self, cells: &[(TileSet, Point)]) -> Point {
        let (tile, at) = &cells[self.range(0, cells.len() as i64) as usize];
        let (w, h) = (tile.width(), tile.height());
        match self.range(0, 4) {
            0 => Point::new(at.x + self.range(1, w), at.y),
            1 => Point::new(at.x + self.range(1, w), at.y + h),
            2 => Point::new(at.x, at.y + self.range(1, h)),
            _ => Point::new(at.x + w, at.y + self.range(1, h)),
        }
    }
}

/// `n_nets` nets of `points` connection points each (a draw from the
/// range) on the cells' edges, some with two or three
/// electrically-equivalent candidates.
fn golden_nets(
    draw: &mut Stream,
    cells: &[(TileSet, Point)],
    points: (i64, i64),
    n_nets: usize,
) -> Vec<NetPins> {
    (0..n_nets)
        .map(|_| {
            let points = (0..draw.range(points.0, points.1))
                .map(|_| {
                    let equivalents = draw.range(1, 4).min(draw.range(1, 4));
                    (0..equivalents).map(|_| draw.pin(cells)).collect()
                })
                .collect();
            NetPins { points }
        })
        .collect()
}

/// The placement of `cells` in a core `gap` (at least 4) beyond their
/// bounding box.
fn golden_geometry(cells: Vec<(TileSet, Point)>, gap: i64) -> PlacedGeometry {
    let bbox = cells
        .iter()
        .map(|(t, p)| t.bbox().translate(*p))
        .reduce(|a, b| a.hull(b))
        .expect("cells");
    PlacedGeometry {
        core: bbox.expand(gap.max(4)),
        cells,
    }
}

/// A shelf-packed placement of `n` cells and `n_nets` nets of 2–5
/// connection points.
fn golden_case(
    draw: &mut Stream,
    n: usize,
    gap: i64,
    n_nets: usize,
) -> (PlacedGeometry, Vec<NetPins>) {
    let (mut x, mut y, mut shelf) = (0i64, 0i64, 0i64);
    let mut cells = Vec::new();
    for _ in 0..n {
        let (w, h) = (draw.range(8, 26), draw.range(8, 26));
        if x > 0 && x + w + gap > 80 {
            y += shelf;
            x = 0;
            shelf = 0;
        }
        cells.push((TileSet::rect(w, h), Point::new(x, y)));
        x += w + gap;
        shelf = shelf.max(h + gap);
    }
    let nets = golden_nets(draw, &cells, (2, 6), n_nets);
    (golden_geometry(cells, gap), nets)
}

/// Hashes what the router makes of `nets` on `geometry` at `params`:
/// every alternative phase 1 enumerates per net (edges, nodes and
/// length), then phase 2's choice per net, `L`, `X` and every node's
/// density. Returns the interchange's attempt count.
fn digest_routing(
    h: &mut Fnv1a,
    geometry: &PlacedGeometry,
    nets: &[NetPins],
    params: &RouterParams,
    seed: u64,
    with_nodes: bool,
) -> usize {
    let graph = build_channel_graph(geometry);
    for net in nets {
        let points: Vec<Vec<usize>> = net
            .points
            .iter()
            .map(|cands| {
                let mut nodes: Vec<usize> =
                    cands.iter().filter_map(|&p| graph.attach_pin(p)).collect();
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            })
            .collect();
        let trees = enumerate_route_trees(&graph, &points, params.m_alternatives, params.per_level);
        h.int(trees.len() as i64);
        for tree in &trees {
            h.int(tree.edges.len() as i64);
            for &(a, b) in &tree.edges {
                h.int(a as i64);
                h.int(b as i64);
            }
            if with_nodes {
                h.int(tree.nodes.len() as i64);
                for &n in &tree.nodes {
                    h.int(n as i64);
                }
            }
            h.int(tree.length);
        }
    }
    let routing = global_route(geometry, nets, params, seed);
    assert_eq!(routing.unrouted, 0);
    for &k in &routing.assignment.choice {
        h.int(k as i64);
    }
    h.int(routing.total_length());
    h.int(routing.overflow());
    for &d in &routing.node_density {
        h.int(d as i64);
    }
    routing.assignment.attempts
}

#[test]
fn golden_router_digest() {
    // Pins every alternative phase 1 enumerates and every number phase 2
    // settles on for a few fixed placements at the default parameters,
    // so any change to the router that is meant to keep its output
    // identical is held to it. Narrow gaps make channels congested
    // enough for the interchange to run.
    let params = RouterParams::default();
    let mut draw = Stream(1988);
    let mut h = Fnv1a::new();
    let mut attempts = 0;
    for (n, gap, n_nets, seed) in [(5, 2, 8, 5u64), (6, 3, 7, 11), (7, 4, 6, 23)] {
        let (geometry, nets) = golden_case(&mut draw, n, gap, n_nets);
        attempts += digest_routing(&mut h, &geometry, &nets, &params, seed, false);
    }
    assert!(attempts > 0, "no case exercised the interchange");
    assert_eq!(h.0, 10_095_313_619_275_830_698, "router output changed");
}

#[test]
fn golden_router_digest_lattice() {
    // Equal square cells at equal gaps make the channel graph a lattice
    // of equal-length steps, where equal-length paths abound: this pins
    // how phase 1 breaks its ties, alternative by alternative.
    let params = RouterParams::default();
    let mut draw = Stream(1988);
    let mut h = Fnv1a::new();
    let mut attempts = 0;
    for (side, gap, n_nets, seed) in [(4, 4, 10, 7u64), (5, 4, 10, 13)] {
        let (size, pitch) = (10, 10 + gap);
        let cells: Vec<(TileSet, Point)> = (0..side * side)
            .map(|k| {
                let at = Point::new((k % side) * pitch, (k / side) * pitch);
                (TileSet::rect(size, size), at)
            })
            .collect();
        let nets = golden_nets(&mut draw, &cells, (3, 7), n_nets);
        let geometry = golden_geometry(cells, gap);
        attempts += digest_routing(&mut h, &geometry, &nets, &params, seed, true);
    }
    assert!(attempts > 0, "no case exercised the interchange");
    assert_eq!(h.0, 11_080_888_186_397_519_065, "router output changed");
}

#[test]
fn golden_router_digest_paper() {
    // The placements the full flow routes first: a fast stage 1 of the
    // i3 and p1 paper profiles, legalized as stage 2 does before its
    // first route. Their graphs and nets are the sizes the flow routes
    // (p1 has nets of up to 14 connection points), which the small
    // shelf-packed and lattice digests above are not. Every alternative
    // phase 1 enumerates is hashed in the order `global_route` sees it
    // (dropping, as `global_route` does, points without an attachment
    // and nets left with fewer than two points), then what one
    // `global_route` selects.
    let params = RouterParams::default();
    let mut h = Fnv1a::new();
    let mut attempts = 0;
    for (name, seed) in [("i3", 7u64), ("p1", 7)] {
        let nl = synthesize_profile(paper_circuit(name).expect("a paper circuit"), 1988);
        let config = TimberWolfConfig::fast(seed);
        let (mut state, _) = place_stage1(
            &nl,
            &config.place,
            &config.estimator,
            &config.schedule,
            seed,
        );
        legalize(&mut state, 2, 500);
        let (geometry, nets) = routing_snapshot(&state);
        let graph = build_channel_graph(&geometry);
        for net in &nets {
            let points: Vec<Vec<usize>> = net
                .points
                .iter()
                .map(|cands| {
                    let mut nodes: Vec<usize> =
                        cands.iter().filter_map(|&p| graph.attach_pin(p)).collect();
                    nodes.sort_unstable();
                    nodes.dedup();
                    nodes
                })
                .filter(|nodes| !nodes.is_empty())
                .collect();
            if points.len() < 2 {
                h.int(-1);
                continue;
            }
            let trees =
                enumerate_route_trees(&graph, &points, params.m_alternatives, params.per_level);
            h.int(trees.len() as i64);
            for tree in &trees {
                h.int(tree.nodes.len() as i64);
                for &n in &tree.nodes {
                    h.int(n as i64);
                }
                h.int(tree.edges.len() as i64);
                for &(a, b) in &tree.edges {
                    h.int(a as i64);
                    h.int(b as i64);
                }
                h.int(tree.length);
            }
        }
        let routing = global_route(&geometry, &nets, &params, seed);
        for &k in &routing.assignment.choice {
            h.int(k as i64);
        }
        for route in routing.routes.iter().flatten() {
            h.int(route.length);
            for &(a, b) in &route.edges {
                h.int(a as i64);
                h.int(b as i64);
            }
        }
        h.int(routing.total_length());
        h.int(routing.overflow());
        h.int(routing.assignment.overflow_start);
        h.int(routing.assignment.reassignments as i64);
        h.int(routing.assignment.attempts as i64);
        h.int(routing.unrouted as i64);
        attempts += routing.assignment.attempts;
    }
    assert!(attempts > 0, "no case exercised the interchange");
    assert_eq!(h.0, 2_735_998_456_166_556_588, "router output changed");
}
