//! Property-based tests for the router: the Yen/Lawler enumeration is
//! checked against brute-force simple-path enumeration, and the phase-2
//! assignment invariants are exercised on random instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

use twmc_geom::{Point, Rect, TileSet};
use twmc_route::{
    assign_routes, build_channel_graph, enumerate_route_trees, k_shortest_paths, ChannelGraph,
    PlacedGeometry, RouteTree,
};

/// A small random legal placement (grid with some cells removed), giving
/// varied channel graphs.
fn arb_graph() -> impl Strategy<Value = ChannelGraph> {
    (2usize..4, 2usize..4, any::<u16>()).prop_map(|(nx, ny, mask)| {
        let mut cells = Vec::new();
        for gy in 0..ny {
            for gx in 0..nx {
                if mask & (1 << (gy * nx + gx)) != 0 && cells.len() + 1 < nx * ny {
                    continue; // drop this cell (keep at least one)
                }
                cells.push((
                    TileSet::rect(8, 8),
                    Point::new(gx as i64 * 14, gy as i64 * 14),
                ));
            }
        }
        if cells.is_empty() {
            cells.push((TileSet::rect(8, 8), Point::new(0, 0)));
        }
        let w = nx as i64 * 14 + 6;
        let h = ny as i64 * 14 + 6;
        build_channel_graph(
            &PlacedGeometry {
                cells,
                core: Rect::from_wh(-6, -6, w + 6, h + 6),
            },
            2.0,
        )
    })
}

/// Brute force: all simple paths from `s` to `t` via DFS, as
/// `(length, nodes)` sorted by length.
fn all_simple_paths(g: &ChannelGraph, s: usize, t: usize, cap: usize) -> Vec<(i64, Vec<usize>)> {
    let mut out = Vec::new();
    let mut path = vec![s];
    let mut on_path = vec![false; g.len()];
    on_path[s] = true;
    fn dfs(
        g: &ChannelGraph,
        t: usize,
        path: &mut Vec<usize>,
        on_path: &mut Vec<bool>,
        len: i64,
        out: &mut Vec<(i64, Vec<usize>)>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        let u = *path.last().expect("nonempty");
        if u == t {
            out.push((len, path.clone()));
            return;
        }
        for &(v, e) in g.neighbors(u) {
            if !on_path[v] {
                on_path[v] = true;
                path.push(v);
                dfs(g, t, path, on_path, len + g.edges[e].length, out, cap);
                path.pop();
                on_path[v] = false;
            }
        }
    }
    dfs(g, t, &mut path, &mut on_path, 0, &mut out, cap);
    out.sort();
    out
}

proptest! {
    // Modest case count: the brute-force oracle enumerates up to 10⁵
    // simple paths per case.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn yen_matches_brute_force(g in arb_graph(), pick in any::<u64>()) {
        prop_assume!(g.len() >= 2);
        let s = (pick as usize) % g.len();
        let t = (pick as usize / 7 + 1) % g.len();
        prop_assume!(s != t);

        let brute = all_simple_paths(&g, s, t, 100_000);
        prop_assume!(brute.len() <= 2000); // keep the oracle tractable
        let k = 5.min(brute.len());
        let paths = k_shortest_paths(&g, s, t, k);
        prop_assert_eq!(paths.len(), k, "Yen found fewer paths than exist");
        // Lengths match the brute-force top-k exactly (paths may tie).
        for (i, p) in paths.iter().enumerate() {
            prop_assert_eq!(p.length, brute[i].0, "rank {}", i);
        }
    }

    #[test]
    fn trees_cover_points_and_lengths_add_up(g in arb_graph(), pick in any::<u64>()) {
        prop_assume!(g.len() >= 3);
        let a = (pick as usize) % g.len();
        let b = (pick as usize / 3 + 1) % g.len();
        let c = (pick as usize / 11 + 2) % g.len();
        let points = vec![vec![a], vec![b], vec![c]];
        let trees = enumerate_route_trees(&g, &points, 6, 3);
        prop_assert!(!trees.is_empty(), "connected graph must route");
        for t in &trees {
            for pt in &points {
                prop_assert!(pt.iter().any(|n| t.nodes.contains(n)));
            }
            let len: i64 = t
                .edges
                .iter()
                .map(|&(x, y)| {
                    let e = g.edge_between(x, y).expect("edges exist");
                    g.edges[e].length
                })
                .sum();
            prop_assert_eq!(len, t.length);
            // No duplicate edges.
            let set: HashSet<_> = t.edges.iter().collect();
            prop_assert_eq!(set.len(), t.edges.len());
        }
        // Sorted by length.
        for w in trees.windows(2) {
            prop_assert!(w[0].length <= w[1].length);
        }
    }

    #[test]
    fn three_terminal_trees_are_near_optimal(g in arb_graph(), pick in any::<u64>()) {
        // The paper claims the Prim-guided enumeration finds the minimal
        // Steiner route among the M alternatives for nearly all nets
        // (§4.2.1). For 3 terminals the optimum is computable exactly:
        // min over Steiner vertices v of d(a,v)+d(b,v)+d(c,v).
        prop_assume!(g.len() >= 4);
        let a = (pick as usize) % g.len();
        let b = (pick as usize / 5 + 1) % g.len();
        let c = (pick as usize / 17 + 2) % g.len();
        prop_assume!(a != b && b != c && a != c);
        let da = twmc_route::dijkstra(&g, &[a]);
        let db = twmc_route::dijkstra(&g, &[b]);
        let dc = twmc_route::dijkstra(&g, &[c]);
        let optimal = (0..g.len())
            .map(|v| da[v].saturating_add(db[v]).saturating_add(dc[v]))
            .min()
            .expect("nonempty");
        prop_assume!(optimal < i64::MAX / 4);
        let trees = enumerate_route_trees(&g, &[vec![a], vec![b], vec![c]], 8, 4);
        prop_assert!(!trees.is_empty());
        let best = trees[0].length;
        // Never better than optimal, and within 25% of it (exact on most
        // instances; the beam occasionally misses by a small margin).
        prop_assert!(best >= optimal, "{best} < optimal {optimal}");
        prop_assert!(
            best * 4 <= optimal * 5,
            "best {best} vs optimal {optimal}"
        );
    }

    #[test]
    fn assignment_never_worsens_overflow(g in arb_graph(), seed in any::<u64>(), n_nets in 2usize..10) {
        prop_assume!(g.len() >= 2);
        let mut tight = g.clone();
        for e in &mut tight.edges {
            e.capacity = 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let alternatives: Vec<Vec<RouteTree>> = (0..n_nets)
            .map(|_| {
                let s = rand::Rng::random_range(&mut rng, 0..tight.len());
                let mut t = rand::Rng::random_range(&mut rng, 0..tight.len());
                if t == s {
                    t = (t + 1) % tight.len();
                }
                enumerate_route_trees(&tight, &[vec![s], vec![t]], 6, 3)
            })
            .collect();
        let start_usage = {
            let mut usage = vec![0u32; tight.edges.len()];
            for alts in &alternatives {
                if let Some(t0) = alts.first() {
                    for &(a, b) in &t0.edges {
                        usage[tight.edge_between(a, b).expect("edge")] += 1;
                    }
                }
            }
            usage
        };
        let start_x: i64 = start_usage
            .iter()
            .zip(&tight.edges)
            .map(|(&d, e)| (d as i64 - e.capacity as i64).max(0))
            .sum();
        let a = assign_routes(&tight, &alternatives, &mut rng).expect("fresh routes");
        // Phase 2 only accepts ΔX <= 0 moves: overflow never grows.
        prop_assert!(a.overflow <= start_x, "{} > {start_x}", a.overflow);
        // Choice indices are valid.
        for (net, &k) in a.choice.iter().enumerate() {
            if !alternatives[net].is_empty() {
                prop_assert!(k < alternatives[net].len());
            }
        }
        // Reported length matches the chosen routes.
        let l: i64 = a
            .choice
            .iter()
            .enumerate()
            .filter(|(net, _)| !alternatives[*net].is_empty())
            .map(|(net, &k)| alternatives[net][k].length)
            .sum();
        prop_assert_eq!(l, a.total_length);
        // Usage D_j and overflow X (eq. 24) equal a recompute from the
        // chosen routes, in release builds too.
        let mut usage = vec![0u32; tight.edges.len()];
        for (net, &k) in a.choice.iter().enumerate() {
            if let Some(tree) = alternatives[net].get(k) {
                for &(x, y) in &tree.edges {
                    usage[tight.edge_between(x, y).expect("edge")] += 1;
                }
            }
        }
        prop_assert_eq!(&a.edge_usage, &usage);
        let x: i64 = usage
            .iter()
            .zip(&tight.edges)
            .map(|(&d, e)| (d as i64 - e.capacity as i64).max(0))
            .sum();
        prop_assert_eq!(a.overflow, x);
    }

    #[test]
    fn attach_pin_prefers_containing_region(g in arb_graph(), pick in any::<u64>()) {
        prop_assume!(!g.is_empty());
        let node = (pick as usize) % g.len();
        let center = g.nodes[node].center;
        let attached = g.attach_pin(center).expect("nonempty graph");
        // The chosen region contains the point (possibly a narrower one
        // when regions overlap).
        prop_assert!(g.nodes[attached].region.rect.contains(center));
        prop_assert!(
            g.nodes[attached].region.separation() <= g.nodes[node].region.separation()
                || !g.nodes[node].region.rect.contains(center)
        );
    }
}
