//! Route-tree enumeration for multi-pin nets (paper §4.2.1, Figs. 10–12).
//!
//! The paper generalizes Lawler's M-shortest-paths to n-pin nets: pins
//! are connected in Prim order (nearest unconnected pin group next), and
//! each time a pin group is added, the M shortest paths from the current
//! tree's nodes to the group's (electrically-equivalent) candidates are
//! generated; the recursion over path choices keeps the overall M best
//! complete route-trees. We bound the recursion with a beam over partial
//! trees (documented in DESIGN.md); for small per-level counts this
//! explores the same alternatives the paper's recursion stores.

use std::collections::{BinaryHeap, HashMap};

use crate::mpaths::{edge_length, Path, SearchSpace};
use crate::ChannelGraph;

/// One complete route (a Steiner tree over channel-graph nodes) for a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTree {
    /// Nodes used by the route (sorted, deduplicated).
    pub nodes: Vec<usize>,
    /// Edges used, as `(a, b)` with `a < b`, sorted.
    pub edges: Vec<(usize, usize)>,
    /// Total length: sum of used edge lengths (shared segments counted
    /// once — the Steiner objective).
    pub length: i64,
}

impl RouteTree {
    fn signature(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The length of the tree extended by `path`: the path's length less
    /// that of its edges already in the tree (a simple path uses each
    /// edge once).
    fn length_with(&self, graph: &ChannelGraph, path: &Path) -> i64 {
        let mut length = self.length + path.length;
        for w in path.nodes.windows(2) {
            if self.edges.binary_search(&edge_key(w[0], w[1])).is_ok() {
                length -= edge_length(graph, w[0], w[1]);
            }
        }
        length
    }

    /// The tree extended by `path`, of length `length` (see
    /// [`RouteTree::length_with`]): its new edges and nodes merged in
    /// sorted order.
    fn absorb(&self, path: &[usize], length: i64) -> RouteTree {
        let mut out = self.clone();
        for w in path.windows(2) {
            let key = edge_key(w[0], w[1]);
            if let Err(at) = out.edges.binary_search(&key) {
                out.edges.insert(at, key);
            }
        }
        for &n in path {
            if let Err(at) = out.nodes.binary_search(&n) {
                out.nodes.insert(at, n);
            }
        }
        out.length = length;
        out
    }
}

fn edge_key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// One level of the beam: the children of its states, each distinct
/// tree once, with the lengths of the `width` shortest of them.
struct Level {
    width: usize,
    states: Vec<(RouteTree, Vec<usize>)>,
    /// A max-heap of the `width` least child lengths so far.
    best: BinaryHeap<i64>,
}

impl Level {
    fn new(width: usize) -> Level {
        Level {
            width,
            states: Vec::new(),
            best: BinaryHeap::with_capacity(width + 1),
        }
    }

    /// Whether a child of length `length` can still be kept: the level
    /// keeps its `width` shortest distinct children, so once it holds
    /// `width` of them it keeps none longer than the longest.
    fn admits(&self, length: i64) -> bool {
        self.best.len() < self.width || self.best.peek().is_some_and(|&u| length <= u)
    }

    /// Adds `tree` unless an equal tree came first. The beam keeps the
    /// first of equal trees (they have equal lengths, so the stable sort
    /// leaves the first one first), so a later one is never kept.
    fn offer(&mut self, tree: RouteTree, rest: &[usize]) {
        let length = tree.length;
        if self
            .states
            .iter()
            .any(|(t, _)| t.length == length && t.edges == tree.edges && t.nodes == tree.nodes)
        {
            return;
        }
        if self.best.len() < self.width {
            self.best.push(length);
        } else if self.best.peek().is_some_and(|&u| length < u) {
            self.best.pop();
            self.best.push(length);
        }
        self.states.push((tree, rest.to_vec()));
    }

    /// The kept states: the `width` shortest, stably sorted by length.
    fn into_beam(mut self) -> Vec<(RouteTree, Vec<usize>)> {
        self.states.sort_by_key(|(t, _)| t.length);
        self.states.truncate(self.width);
        self.states
    }
}

/// Enumerates up to `m` alternative route-trees for a net whose
/// connection points are given as candidate node lists (one list per
/// point; alternatives within a list are electrically equivalent).
///
/// `per_level` is the number of alternative tree-to-pin paths explored at
/// each Prim step (the paper stores the M shortest at each level; small
/// values keep the enumeration sharp).
///
/// Returns trees sorted by length, deduplicated by edge set. Empty when
/// some point cannot be reached from the first.
pub fn enumerate_route_trees(
    graph: &ChannelGraph,
    points: &[Vec<usize>],
    m: usize,
    per_level: usize,
) -> Vec<RouteTree> {
    enumerate_in(
        &mut SearchSpace::new(graph.len()),
        graph,
        points,
        m,
        per_level,
    )
}

/// [`enumerate_route_trees`] with the caller's search buffers.
///
/// Ties resolve as follows, which keeps the output a function of the
/// graph alone: Prim's step takes the first point in `rest` order among
/// equally near ones, and the beam is stably sorted by length and keeps
/// the first occurrence of each `(edges, nodes)` tree.
///
/// Work whose result is known or thrown away is skipped, exactly: a
/// state whose every child is longer than `beam_width` distinct
/// children already found is not searched, no child longer than them
/// is built, and a state searches nothing a state of the same level or
/// an earlier one searched for the same point and tree nodes.
pub(crate) fn enumerate_in(
    space: &mut SearchSpace,
    graph: &ChannelGraph,
    points: &[Vec<usize>],
    m: usize,
    per_level: usize,
) -> Vec<RouteTree> {
    if graph.is_empty() || points.is_empty() || m == 0 {
        return Vec::new();
    }
    // One distance table per point to connect (all but the first).
    let mut tables = vec![usize::MAX];
    tables.extend(space.tables_for(graph, &points[1..]));
    let beam_width = m.max(per_level * per_level).min(64);
    // Per point, the paths found from each set of tree nodes.
    let mut searched: Vec<HashMap<Vec<usize>, Vec<Path>>> = vec![HashMap::new(); points.len()];

    // Start states: each candidate of the first connection point, with
    // the points still to connect.
    let mut beam: Vec<(RouteTree, Vec<usize>)> = points[0]
        .iter()
        .map(|&n| {
            let tree = RouteTree {
                nodes: vec![n],
                edges: Vec::new(),
                length: 0,
            };
            (tree, (1..points.len()).collect())
        })
        .collect();

    // Every state of a level has connected as many points.
    while beam.first().is_some_and(|(_, rest)| !rest.is_empty()) {
        let mut level = Level::new(beam_width);
        for (tree, mut rest) in beam {
            // Prim: nearest unconnected point next.
            let (pos, d) = space.prim_step(&tree.nodes, &rest, &tables);
            // Every child adds at least `d`: its path past the last tree
            // node uses no tree edge and still has to reach the point.
            if !level.admits(tree.length.saturating_add(d)) {
                continue;
            }
            let point = rest.remove(pos);
            let paths = match searched[point].get(&tree.nodes) {
                Some(paths) => paths,
                None => {
                    let paths = space.k_shortest(
                        graph,
                        &tree.nodes,
                        &points[point],
                        tables[point],
                        per_level,
                    );
                    searched[point].entry(tree.nodes.clone()).or_insert(paths)
                }
            };
            for p in paths {
                let length = tree.length_with(graph, p);
                if level.admits(length) {
                    level.offer(tree.absorb(&p.nodes, length), &rest);
                }
            }
        }
        if level.states.is_empty() {
            // Some point is unreachable.
            return Vec::new();
        }
        beam = level.into_beam();
    }

    let mut routes: Vec<RouteTree> = beam.into_iter().map(|(t, _)| t).collect();
    routes.sort_by(|a, b| a.length.cmp(&b.length).then(a.edges.cmp(&b.edges)));
    routes.dedup_by(|a, b| a.signature() == b.signature());
    routes.truncate(m);
    routes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_channel_graph, dijkstra, PlacedGeometry};
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
        build_channel_graph(&PlacedGeometry {
            cells,
            core: Rect::from_wh(-30, -30, 60, 60),
        })
    }

    #[test]
    fn two_pin_routes_match_k_shortest() {
        let g = grid_graph();
        let (s, t) = (0, g.len() - 1);
        let trees = enumerate_route_trees(&g, &[vec![s], vec![t]], 6, 6);
        let paths = crate::k_shortest_paths(&g, s, t, 6);
        assert_eq!(trees[0].length, paths[0].length);
        // Trees are sorted and distinct.
        for pair in trees.windows(2) {
            assert!(pair[0].length <= pair[1].length);
            assert_ne!(pair[0].edges, pair[1].edges);
        }
    }

    #[test]
    fn multi_pin_tree_connects_all_points() {
        let g = grid_graph();
        let n = g.len();
        let points = vec![vec![0], vec![n / 2], vec![n - 1], vec![n / 3]];
        let trees = enumerate_route_trees(&g, &points, 8, 3);
        assert!(!trees.is_empty());
        for t in &trees {
            // Every point's chosen candidate is in the tree.
            for p in &points {
                assert!(p.iter().any(|c| t.nodes.binary_search(c).is_ok()));
            }
            // The tree's edge set is connected over its nodes.
            let mut reach = std::collections::BTreeSet::new();
            reach.insert(t.nodes[0]);
            let mut changed = true;
            while changed {
                changed = false;
                for &(a, b) in &t.edges {
                    if reach.contains(&a) != reach.contains(&b) {
                        reach.insert(a);
                        reach.insert(b);
                        changed = true;
                    }
                }
            }
            for &node in &t.nodes {
                assert!(reach.contains(&node), "disconnected tree");
            }
            // Length equals the sum of its edges.
            let len: i64 = t
                .edges
                .iter()
                .map(|&(a, b)| {
                    let e = g.edge_between(a, b).expect("edges exist");
                    g.edges[e].length
                })
                .sum();
            assert_eq!(len, t.length);
        }
    }

    #[test]
    fn steiner_shares_trunk() {
        // Tree length must be at most the sum of independent 2-pin paths
        // (sharing can only help).
        let g = grid_graph();
        let n = g.len();
        let points = vec![vec![0], vec![n - 1], vec![n / 2]];
        let trees = enumerate_route_trees(&g, &points, 4, 4);
        let d0 = dijkstra(&g, &[0]);
        let bound = d0[n - 1] + d0[n / 2];
        assert!(trees[0].length <= bound);
    }

    #[test]
    fn equivalent_pins_reduce_length() {
        let g = grid_graph();
        let n = g.len();
        let d = dijkstra(&g, &[0]);
        let mut far = 0;
        for i in 0..n {
            if d[i] > d[far] && d[i] < i64::MAX {
                far = i;
            }
        }
        // Route 0 -> {far} vs 0 -> {far or 0-adjacent node}.
        let near = g.neighbors(0).first().map(|&(m, _)| m).expect("grid");
        let strict = enumerate_route_trees(&g, &[vec![0], vec![far]], 1, 2);
        let relaxed = enumerate_route_trees(&g, &[vec![0], vec![far, near]], 1, 2);
        assert!(relaxed[0].length <= strict[0].length);
        assert!(relaxed[0].length <= d[near]);
    }

    /// The reference for [`enumerate_in`]: the beam as it was first
    /// written, searching every state, building every child and
    /// deduplicating the sorted level through a hash set, on a fresh
    /// workspace.
    fn enumerate_eager(
        graph: &ChannelGraph,
        points: &[Vec<usize>],
        m: usize,
        per_level: usize,
    ) -> Vec<RouteTree> {
        if graph.is_empty() || points.is_empty() || m == 0 {
            return Vec::new();
        }
        let mut space = SearchSpace::new(graph.len());
        let tables = space.tables_for(graph, points);
        let absorb_path = |tree: &RouteTree, path: &[usize]| {
            let mut out = tree.clone();
            for w in path.windows(2) {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                if let Err(at) = out.edges.binary_search(&key) {
                    out.edges.insert(at, key);
                    out.length += edge_length(graph, w[0], w[1]);
                }
            }
            for &n in path {
                if let Err(at) = out.nodes.binary_search(&n) {
                    out.nodes.insert(at, n);
                }
            }
            out
        };
        let beam_width = m.max(per_level * per_level).min(64);
        let mut beam: Vec<(RouteTree, Vec<usize>)> = points[0]
            .iter()
            .map(|&n| {
                let tree = RouteTree {
                    nodes: vec![n],
                    edges: Vec::new(),
                    length: 0,
                };
                (tree, (1..points.len()).collect())
            })
            .collect();
        while beam.iter().any(|(_, rest)| !rest.is_empty()) {
            let mut next_beam: Vec<(RouteTree, Vec<usize>)> = Vec::new();
            for (tree, mut rest) in beam {
                if rest.is_empty() {
                    next_beam.push((tree, rest));
                    continue;
                }
                let (pos, _) = space.prim_step(&tree.nodes, &rest, &tables);
                let point = rest.remove(pos);
                for p in
                    space.k_shortest(graph, &tree.nodes, &points[point], tables[point], per_level)
                {
                    next_beam.push((absorb_path(&tree, &p.nodes), rest.clone()));
                }
            }
            if next_beam.is_empty() {
                return Vec::new();
            }
            next_beam.sort_by_key(|(t, _)| t.length);
            let mut seen = std::collections::HashSet::new();
            let keep: Vec<bool> = next_beam
                .iter()
                .map(|(t, _)| {
                    seen.len() < beam_width && seen.insert((t.edges.clone(), t.nodes.clone()))
                })
                .collect();
            let mut keep = keep.into_iter();
            next_beam.retain(|_| keep.next().expect("one flag per state"));
            beam = next_beam;
        }
        let mut routes: Vec<RouteTree> = beam.into_iter().map(|(t, _)| t).collect();
        routes.sort_by(|a, b| a.length.cmp(&b.length).then(a.edges.cmp(&b.edges)));
        routes.dedup_by(|a, b| a.edges == b.edges);
        routes.truncate(m);
        routes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn trees_match_the_eager_beam_tree_for_tree(
            rects in proptest::collection::vec((0i64..6, 0i64..6, 1i64..3, 1i64..3), 1..40),
            nets in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(proptest::prelude::any::<usize>(), 1..4),
                    1..6,
                ),
                1..5,
            ),
            in_tree in proptest::prelude::any::<bool>(),
            m in 1usize..12,
            per_level in 1usize..5,
            tiny_budget in proptest::prelude::any::<bool>(),
        ) {
            let g = crate::mpaths::tests::lattice_graph(&rects);
            let n = g.len();
            // One workspace for every net, as in a routing call; a budget
            // of two tables drops the cache between most nets.
            let mut space = SearchSpace::new(n);
            if tiny_budget {
                space.table_budget = 2 * n;
            }
            for cands in &nets {
                let mut points: Vec<Vec<usize>> =
                    cands.iter().map(|c| c.iter().map(|&v| v % n).collect()).collect();
                if in_tree && points.len() > 1 {
                    // A later point can be reached at a start node.
                    let first = points[0][0];
                    points.last_mut().expect("two points").push(first);
                }
                let expected = enumerate_eager(&g, &points, m, per_level);
                let trees = enumerate_in(&mut space, &g, &points, m, per_level);
                proptest::prop_assert_eq!(trees, expected);
            }
        }
    }

    #[test]
    fn single_point_is_trivial() {
        let g = grid_graph();
        let trees = enumerate_route_trees(&g, &[vec![3]], 4, 4);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].length, 0);
        assert_eq!(trees[0].nodes, vec![3]);
    }

    #[test]
    fn alternatives_are_distinct_and_bounded() {
        let g = grid_graph();
        let n = g.len();
        let trees = enumerate_route_trees(&g, &[vec![0], vec![n - 1]], 20, 6);
        assert!(trees.len() <= 20);
        let set: std::collections::HashSet<&Vec<(usize, usize)>> =
            trees.iter().map(|t| &t.edges).collect();
        assert_eq!(set.len(), trees.len());
    }
}
