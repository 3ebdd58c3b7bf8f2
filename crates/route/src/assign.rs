//! Phase two of the global router: route selection by random interchange
//! (paper §4.2.2).
//!
//! Phase one stored up to `M` alternative routes per net; phase two picks
//! one per net, minimizing total length `L` (eq. 23) subject to the
//! channel-edge capacity constraints, by driving the overflow
//! `X = Σ max(0, D_j − C_j)` (eq. 24) to zero. Starting from every net on
//! its shortest route, the interchange repeatedly picks a random
//! over-capacity edge, a random net through it, and a random alternative
//! with `ΔX ≤ 0`, accepting when `ΔX < 0`, or `ΔX = 0 ∧ ΔL ≤ 0`. This
//! avoids the classical net-routing-order dependence problem.

use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;

use crate::{ChannelGraph, RouteTree};

/// A route tree references a node pair with no edge in the channel graph:
/// the alternatives were enumerated against a different (since
/// regenerated) graph. Re-enumerate against the current graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRouteError {
    /// The offending net (index into the alternatives).
    pub net: usize,
    /// The alternative whose tree is stale.
    pub alternative: usize,
    /// The node pair with no corresponding graph edge.
    pub nodes: (usize, usize),
}

impl fmt::Display for StaleRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "net {} alternative {} crosses nodes {}–{} with no edge in the \
             channel graph (stale route from a regenerated graph?)",
            self.net, self.alternative, self.nodes.0, self.nodes.1
        )
    }
}

impl std::error::Error for StaleRouteError {}

/// The outcome of route selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Chosen alternative index per net (into the per-net alternatives).
    pub choice: Vec<usize>,
    /// Total routed length `L`.
    pub total_length: i64,
    /// Remaining overflow `X` (0 when all capacities are met).
    pub overflow: i64,
    /// Overflow `X` at the interchange's starting point (every net on
    /// its shortest route). The accept rule only ever takes `ΔX ≤ 0`
    /// moves, so `overflow ≤ overflow_start` always holds.
    pub overflow_start: i64,
    /// Per-graph-edge usage `D_j`.
    pub edge_usage: Vec<u32>,
    /// Interchange attempts performed.
    pub attempts: usize,
    /// Accepted interchanges (nets ripped up and moved to an
    /// alternative route).
    pub reassignments: usize,
}

/// The graph edge indices of every alternative's tree, resolved once per
/// call (flattened in net-major order).
struct EdgeIds {
    ids: Vec<usize>,
    /// Alternative `j` (flattened) owns `ids[ends[j]..ends[j + 1]]`.
    ends: Vec<usize>,
    /// Flattened index of each net's first alternative.
    first: Vec<usize>,
}

impl EdgeIds {
    /// Resolves every tree segment; the error names the first stale
    /// `(net, alternative)` in index order.
    fn resolve(
        graph: &ChannelGraph,
        alternatives: &[Vec<RouteTree>],
    ) -> Result<EdgeIds, StaleRouteError> {
        let mut out = EdgeIds {
            ids: Vec::new(),
            ends: vec![0],
            first: Vec::with_capacity(alternatives.len()),
        };
        for (net, alts) in alternatives.iter().enumerate() {
            out.first.push(out.ends.len() - 1);
            for (alternative, tree) in alts.iter().enumerate() {
                for &(a, b) in &tree.edges {
                    let e = graph.edge_between(a, b).ok_or(StaleRouteError {
                        net,
                        alternative,
                        nodes: (a.min(b), a.max(b)),
                    })?;
                    out.ids.push(e);
                }
                out.ends.push(out.ids.len());
            }
        }
        Ok(out)
    }

    fn of(&self, net: usize, k: usize) -> &[usize] {
        let j = self.first[net] + k;
        &self.ids[self.ends[j]..self.ends[j + 1]]
    }
}

fn usage_of(
    graph: &ChannelGraph,
    alternatives: &[Vec<RouteTree>],
    ids: &EdgeIds,
    choice: &[usize],
) -> Vec<u32> {
    let mut usage = vec![0u32; graph.edges.len()];
    for (net, &k) in choice.iter().enumerate() {
        if alternatives[net].is_empty() {
            continue;
        }
        for &e in ids.of(net, k) {
            usage[e] += 1;
        }
    }
    usage
}

fn overflow_of(graph: &ChannelGraph, usage: &[u32]) -> i64 {
    usage
        .iter()
        .zip(&graph.edges)
        .map(|(&d, e)| (d as i64 - e.capacity as i64).max(0))
        .sum()
}

fn length_of(alternatives: &[Vec<RouteTree>], choice: &[usize]) -> i64 {
    choice
        .iter()
        .enumerate()
        .filter(|(net, _)| !alternatives[*net].is_empty())
        .map(|(net, &k)| alternatives[net][k].length)
        .sum()
}

/// Selects one route per net from the phase-one alternatives.
///
/// `alternatives[net]` must be sorted by length (index 0 = shortest), as
/// produced by [`crate::enumerate_route_trees`]; empty lists (unroutable
/// nets) are skipped. The stall bound is `M · N` new-state attempts
/// without change, per the paper's stopping criterion.
///
/// # Errors
///
/// Returns [`StaleRouteError`] when any alternative crosses a node pair
/// absent from `graph` — the trees were enumerated against a different
/// (regenerated) channel graph. The first stale `(net, alternative)` in
/// index order is reported.
pub fn assign_routes(
    graph: &ChannelGraph,
    alternatives: &[Vec<RouteTree>],
    rng: &mut StdRng,
) -> Result<Assignment, StaleRouteError> {
    let ids = EdgeIds::resolve(graph, alternatives)?;
    let n_nets = alternatives.len();
    let mut choice = vec![0usize; n_nets];
    let mut usage = usage_of(graph, alternatives, &ids, &choice);
    let mut x = overflow_of(graph, &usage);
    let overflow_start = x;
    let mut l = length_of(alternatives, &choice);
    let m_max = alternatives.iter().map(|a| a.len()).max().unwrap_or(1);
    let stall_limit = (m_max * n_nets).max(64);
    let over = |edge: usize, d: i64| (d - graph.edges[edge].capacity as i64).max(0);

    // The over-capacity edges in ascending index order, and the nets
    // whose chosen tree uses such an edge, ascending, from the first
    // time the edge is picked until it falls back to capacity. Both are
    // updated on every accepted interchange, so they hold what a rescan
    // of every edge and every net would list, in the same order, and
    // each draw from them picks what it would.
    let mut overfull: Vec<usize> = (0..graph.edges.len())
        .filter(|&e| usage[e] > graph.edges[e].capacity)
        .collect();
    let mut users: Vec<Option<Vec<usize>>> = vec![None; graph.edges.len()];

    // Per-attempt buffers. `leaving[e]` is -1 on the edges of the net's
    // current tree while its alternatives are priced, 0 elsewhere.
    let mut leaving = vec![0i64; graph.edges.len()];
    let mut candidates: Vec<(usize, i64, i64)> = Vec::new();

    let mut attempts = 0usize;
    let mut reassignments = 0usize;
    let mut stall = 0usize;
    while x > 0 && stall < stall_limit {
        attempts += 1;
        stall += 1;
        // Random over-capacity edge.
        let Some(&edge) = pick(&overfull, rng) else {
            break;
        };
        // Random net with a segment on that edge.
        let on_edge =
            users[edge].get_or_insert_with(|| users_of(graph, alternatives, &choice, edge));
        let Some(&net) = pick(on_edge, rng) else {
            continue;
        };
        // Alternatives with ΔX <= 0: ΔX is the change of ripping up the
        // current tree plus that of adding alternative k on top.
        let cur = choice[net];
        let cur_ids = ids.of(net, cur);
        let mut dx_leave = 0i64;
        for &e in cur_ids {
            let d = usage[e] as i64;
            dx_leave += over(e, d - 1) - over(e, d);
            leaving[e] = -1;
        }
        candidates.clear();
        for k in 0..alternatives[net].len() {
            if k == cur {
                continue;
            }
            let mut dx = dx_leave;
            for &e in ids.of(net, k) {
                let d = usage[e] as i64 + leaving[e];
                dx += over(e, d + 1) - over(e, d);
            }
            if dx <= 0 {
                let dl = alternatives[net][k].length - alternatives[net][cur].length;
                candidates.push((k, dx, dl));
            }
        }
        for &e in cur_ids {
            leaving[e] = 0;
        }
        let Some(&(k, dx, dl)) = pick(&candidates, rng) else {
            continue;
        };
        let accept = dx < 0 || dl <= 0;
        if accept && (dx != 0 || dl != 0) {
            for &e in cur_ids {
                usage[e] -= 1;
                if usage[e] == graph.edges[e].capacity {
                    remove_sorted(&mut overfull, e);
                    users[e] = None;
                } else if let Some(on_edge) = &mut users[e] {
                    remove_sorted(on_edge, net);
                }
            }
            for &e in ids.of(net, k) {
                usage[e] += 1;
                if usage[e] == graph.edges[e].capacity + 1 {
                    insert_sorted(&mut overfull, e);
                } else if let Some(on_edge) = &mut users[e] {
                    insert_sorted(on_edge, net);
                }
            }
            choice[net] = k;
            x += dx;
            l += dl;
            reassignments += 1;
            stall = 0;
            debug_assert_eq!(usage, usage_of(graph, alternatives, &ids, &choice));
            debug_assert_eq!(x, overflow_of(graph, &usage));
            debug_assert_eq!(l, length_of(alternatives, &choice));
            debug_assert!(overfull
                .iter()
                .copied()
                .eq((0..usage.len()).filter(|&e| usage[e] > graph.edges[e].capacity)));
            debug_assert!(users.iter().enumerate().all(|(e, on_edge)| on_edge
                .as_ref()
                .is_none_or(|on_edge| overfull.binary_search(&e).is_ok()
                    && *on_edge == users_of(graph, alternatives, &choice, e))));
        }
    }

    Ok(Assignment {
        choice,
        total_length: l,
        overflow: x,
        overflow_start,
        edge_usage: usage,
        attempts,
        reassignments,
    })
}

/// The nets whose chosen tree uses graph edge `edge`, ascending.
fn users_of(
    graph: &ChannelGraph,
    alternatives: &[Vec<RouteTree>],
    choice: &[usize],
    edge: usize,
) -> Vec<usize> {
    let (a, b) = (graph.edges[edge].a, graph.edges[edge].b);
    let key = (a.min(b), a.max(b));
    (0..alternatives.len())
        .filter(|&net| {
            !alternatives[net].is_empty()
                && alternatives[net][choice[net]]
                    .edges
                    .binary_search(&key)
                    .is_ok()
        })
        .collect()
}

fn insert_sorted(items: &mut Vec<usize>, item: usize) {
    if let Err(at) = items.binary_search(&item) {
        items.insert(at, item);
    }
}

fn remove_sorted(items: &mut Vec<usize>, item: usize) {
    if let Ok(at) = items.binary_search(&item) {
        items.remove(at);
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.random_range(0..items.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_channel_graph, enumerate_route_trees, PlacedGeometry};
    use rand::SeedableRng;
    use twmc_geom::{Point, Rect, TileSet};

    fn grid_graph() -> ChannelGraph {
        let mut cells = Vec::new();
        for gy in 0..3 {
            for gx in 0..3 {
                cells.push((
                    TileSet::rect(10, 10),
                    Point::new(gx * 20 - 25, gy * 20 - 25),
                ));
            }
        }
        build_channel_graph(
            &PlacedGeometry {
                cells,
                core: Rect::from_wh(-30, -30, 60, 60),
            },
            2.0,
        )
    }

    fn nets_for(g: &ChannelGraph, n: usize, seed: u64) -> Vec<Vec<RouteTree>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let s = rng.random_range(0..g.len());
                let mut t = rng.random_range(0..g.len());
                if t == s {
                    t = (t + 1) % g.len();
                }
                enumerate_route_trees(g, &[vec![s], vec![t]], 8, 4)
            })
            .collect()
    }

    #[test]
    fn no_congestion_keeps_shortest_routes() {
        let g = grid_graph();
        let alts = nets_for(&g, 3, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let a = assign_routes(&g, &alts, &mut rng).expect("fresh routes");
        // Few nets on a capacious grid: no overflow and every net keeps
        // its k=1 (index 0) shortest route; the algorithm terminates
        // immediately.
        assert_eq!(a.overflow, 0);
        assert!(a.choice.iter().all(|&k| k == 0));
        assert_eq!(a.attempts, 0);
    }

    #[test]
    fn congestion_is_traded_for_length() {
        let g = grid_graph();
        // Build a capacity-1 version of the same graph to force conflicts.
        let mut tight = g.clone();
        for e in &mut tight.edges {
            e.capacity = 1;
        }
        let alts = nets_for(&tight, 12, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let a = assign_routes(&tight, &alts, &mut rng).expect("fresh routes");
        let shortest_l: i64 = alts
            .iter()
            .filter(|a| !a.is_empty())
            .map(|a| a[0].length)
            .sum();
        // Either overflow is fully resolved (usually) or at least reduced
        // versus the all-shortest start.
        let ids = EdgeIds::resolve(&tight, &alts).expect("fresh routes");
        let start_usage = usage_of(&tight, &alts, &ids, &vec![0; alts.len()]);
        let start_x = overflow_of(&tight, &start_usage);
        assert!(start_x > 0, "test premise: congestion exists");
        assert!(
            a.overflow < start_x,
            "overflow {} not reduced from {start_x}",
            a.overflow
        );
        // Length can only grow relative to all-shortest.
        assert!(a.total_length >= shortest_l);
        // Bookkeeping consistent.
        assert_eq!(a.edge_usage, usage_of(&tight, &alts, &ids, &a.choice));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid_graph();
        let mut tight = g.clone();
        for e in &mut tight.edges {
            e.capacity = 1;
        }
        let alts = nets_for(&tight, 10, 7);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            assign_routes(&tight, &alts, &mut rng)
                .expect("fresh routes")
                .choice
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn empty_alternatives_are_skipped() {
        let g = grid_graph();
        let alts = vec![Vec::new(), nets_for(&g, 1, 9).remove(0)];
        let mut rng = StdRng::seed_from_u64(1);
        let a = assign_routes(&g, &alts, &mut rng).expect("fresh routes");
        assert_eq!(a.overflow, 0);
        assert_eq!(a.choice.len(), 2);
    }

    /// The reference for [`assign_routes`]: the interchange as it was
    /// first written, rescanning every edge for the over-capacity ones
    /// and every net for the users of the picked edge on each attempt.
    fn assign_routes_rescan(
        graph: &ChannelGraph,
        alternatives: &[Vec<RouteTree>],
        rng: &mut StdRng,
    ) -> Assignment {
        let ids = EdgeIds::resolve(graph, alternatives).expect("fresh routes");
        let n_nets = alternatives.len();
        let mut choice = vec![0usize; n_nets];
        let mut usage = usage_of(graph, alternatives, &ids, &choice);
        let mut x = overflow_of(graph, &usage);
        let overflow_start = x;
        let mut l = length_of(alternatives, &choice);
        let m_max = alternatives.iter().map(|a| a.len()).max().unwrap_or(1);
        let stall_limit = (m_max * n_nets).max(64);
        let over = |edge: usize, d: i64| (d - graph.edges[edge].capacity as i64).max(0);
        let mut leaving = vec![0i64; graph.edges.len()];
        let mut overfull: Vec<usize> = Vec::new();
        let mut users: Vec<usize> = Vec::new();
        let mut candidates: Vec<(usize, i64, i64)> = Vec::new();
        let (mut attempts, mut reassignments, mut stall) = (0, 0, 0);
        while x > 0 && stall < stall_limit {
            attempts += 1;
            stall += 1;
            overfull.clear();
            overfull.extend(
                usage
                    .iter()
                    .zip(&graph.edges)
                    .enumerate()
                    .filter(|(_, (&d, e))| d > e.capacity)
                    .map(|(i, _)| i),
            );
            let Some(&edge) = pick(&overfull, rng) else {
                break;
            };
            let (ea, eb) = (graph.edges[edge].a, graph.edges[edge].b);
            let key = (ea.min(eb), ea.max(eb));
            users.clear();
            users.extend((0..n_nets).filter(|&net| {
                !alternatives[net].is_empty()
                    && alternatives[net][choice[net]]
                        .edges
                        .binary_search(&key)
                        .is_ok()
            }));
            let Some(&net) = pick(&users, rng) else {
                continue;
            };
            let cur = choice[net];
            let cur_ids = ids.of(net, cur);
            let mut dx_leave = 0i64;
            for &e in cur_ids {
                let d = usage[e] as i64;
                dx_leave += over(e, d - 1) - over(e, d);
                leaving[e] = -1;
            }
            candidates.clear();
            for k in 0..alternatives[net].len() {
                if k == cur {
                    continue;
                }
                let mut dx = dx_leave;
                for &e in ids.of(net, k) {
                    let d = usage[e] as i64 + leaving[e];
                    dx += over(e, d + 1) - over(e, d);
                }
                if dx <= 0 {
                    let dl = alternatives[net][k].length - alternatives[net][cur].length;
                    candidates.push((k, dx, dl));
                }
            }
            for &e in cur_ids {
                leaving[e] = 0;
            }
            let Some(&(k, dx, dl)) = pick(&candidates, rng) else {
                continue;
            };
            let accept = dx < 0 || dl <= 0;
            if accept && (dx != 0 || dl != 0) {
                for &e in cur_ids {
                    usage[e] -= 1;
                }
                for &e in ids.of(net, k) {
                    usage[e] += 1;
                }
                choice[net] = k;
                x += dx;
                l += dl;
                reassignments += 1;
                stall = 0;
            }
        }
        assert_eq!(usage, usage_of(graph, alternatives, &ids, &choice));
        assert_eq!(x, overflow_of(graph, &usage));
        assert_eq!(l, length_of(alternatives, &choice));
        Assignment {
            choice,
            total_length: l,
            overflow: x,
            overflow_start,
            edge_usage: usage,
            attempts,
            reassignments,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn interchange_matches_the_rescanning_loop(
            nets in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<usize>(), 2..5),
                1..24,
            ),
            capacities in proptest::collection::vec(0u32..4, 1..64),
            m in 1usize..10,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut g = grid_graph();
            let n = g.len();
            for (e, edge) in g.edges.iter_mut().enumerate() {
                edge.capacity = capacities[e % capacities.len()];
            }
            // Alternatives of 2–4-point nets, and an unroutable net
            // (no alternatives) wherever a net draws one point.
            let alternatives: Vec<Vec<RouteTree>> = nets
                .iter()
                .map(|pins| {
                    let points: Vec<Vec<usize>> = pins.iter().map(|&p| vec![p % n]).collect();
                    if pins[0] % 7 == 0 {
                        Vec::new()
                    } else {
                        enumerate_route_trees(&g, &points, m, 3)
                    }
                })
                .collect();
            let fast = assign_routes(&g, &alternatives, &mut StdRng::seed_from_u64(seed))
                .expect("fresh routes");
            let reference = assign_routes_rescan(&g, &alternatives, &mut StdRng::seed_from_u64(seed));
            proptest::prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    fn stale_route_is_a_typed_error() {
        let g = grid_graph();
        // A tree crossing a node pair with no edge: last–first node of a
        // 3x3 grid's channel graph are far apart, so no edge joins them.
        let (a, b) = (0, g.len() - 1);
        assert!(g.edge_between(a, b).is_none(), "test premise: not adjacent");
        let stale = RouteTree {
            nodes: vec![a, b],
            edges: vec![(a.min(b), a.max(b))],
            length: 1,
        };
        let alts = vec![vec![stale]];
        let mut rng = StdRng::seed_from_u64(1);
        let err = assign_routes(&g, &alts, &mut rng).expect_err("stale route must error");
        assert_eq!(err.net, 0);
        assert_eq!(err.alternative, 0);
        assert_eq!(err.nodes, (a.min(b), a.max(b)));
        assert!(err.to_string().contains("stale route"));
    }

    #[test]
    fn stale_alternative_is_reported_without_congestion() {
        // A stale route behind fresh ones (longest, so the list stays
        // sorted): the graph is not congested, so the interchange never
        // prices it, yet the error must name it.
        let g = grid_graph();
        let mut alts = nets_for(&g, 2, 1);
        let (a, b) = (0, g.len() - 1);
        assert!(g.edge_between(a, b).is_none(), "test premise: not adjacent");
        let k = alts[1].len();
        alts[1].push(RouteTree {
            nodes: vec![a, b],
            edges: vec![(a, b)],
            length: i64::MAX / 4,
        });
        let mut rng = StdRng::seed_from_u64(1);
        let err = assign_routes(&g, &alts, &mut rng).expect_err("stale route must error");
        assert_eq!((err.net, err.alternative, err.nodes), (1, k, (a, b)));
    }
}
