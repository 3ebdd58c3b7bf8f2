//! M-shortest-path enumeration (paper §4.2.1).
//!
//! For two-pin nets the paper uses Lawler's algorithm for the M shortest
//! paths between two vertices; we implement the equivalent deviation
//! scheme (Yen's algorithm) over the channel graph, generalized to
//! multiple sources (the already-connected tree) and multiple targets
//! (electrically-equivalent pins) via virtual terminals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ChannelGraph;

/// A simple path through the channel graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Node sequence (first is a source, last is a target).
    pub nodes: Vec<usize>,
    /// Total length.
    pub length: i64,
}

/// Multi-source Dijkstra over the channel graph; returns per-node
/// distance (`i64::MAX` when unreachable).
pub fn dijkstra(graph: &ChannelGraph, sources: &[usize]) -> Vec<i64> {
    let mut dist = vec![i64::MAX; graph.len()];
    let mut heap = BinaryHeap::new();
    for &s in sources {
        dist[s] = 0;
        heap.push(Reverse((0i64, s)));
    }
    while let Some(Reverse((d, n))) = heap.pop() {
        if d > dist[n] {
            continue;
        }
        for &(m, e) in graph.neighbors(n) {
            let nd = d + graph.edges[e].length;
            if nd < dist[m] {
                dist[m] = nd;
                heap.push(Reverse((nd, m)));
            }
        }
    }
    dist
}

/// Reusable state for the searches of one routing call.
///
/// The M-path searches run over the channel graph plus two virtual
/// terminals, handled inline rather than materialized: node `n` is
/// joined to every source and node `n + 1` is joined from every target,
/// all at zero length. Every search pops the heap by `(dist, node)` and
/// relaxes only on a strict `<`, so the distances, predecessors and
/// paths it finds depend only on the graph, never on the order in which
/// neighbors are visited or buffers were used before. Buffers hold
/// `n + 2` entries and are reset by visiting only what a search touched.
pub(crate) struct SearchSpace {
    /// Tentative distance per node, `i64::MAX` when untouched.
    dist: Vec<i64>,
    /// Predecessor on the shortest path found so far.
    prev: Vec<usize>,
    /// Nodes whose `dist` is set, for the reset.
    touched: Vec<usize>,
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// The virtual source's neighbors.
    sources: Vec<usize>,
    /// Nodes joined to the virtual target (in the nearest-point search:
    /// the candidates of the unconnected points).
    target: Vec<bool>,
    /// Nodes the current Yen spur search may not enter.
    banned: Vec<bool>,
    /// Nodes the current spur node may not step to directly (Yen's
    /// banned edges all leave the spur node).
    banned_next: Vec<bool>,
}

impl SearchSpace {
    /// Buffers for searches over a graph of `n` nodes.
    pub(crate) fn new(n: usize) -> SearchSpace {
        SearchSpace {
            dist: vec![i64::MAX; n + 2],
            prev: vec![usize::MAX; n + 2],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            sources: Vec::new(),
            target: vec![false; n + 2],
            banned: vec![false; n + 2],
            banned_next: vec![false; n + 2],
        }
    }

    fn relax(&mut self, from: usize, to: usize, d: i64) {
        if d < self.dist[to] {
            if self.dist[to] == i64::MAX {
                self.touched.push(to);
            }
            self.dist[to] = d;
            self.prev[to] = from;
            self.heap.push(Reverse((d, to)));
        }
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.dist[v] = i64::MAX;
        }
        self.touched.clear();
        self.heap.clear();
    }

    /// The position in `rest` of the connection point nearest to
    /// `sources` (Prim's next pin group): the first point, in `rest`
    /// order, whose closest candidate is at the minimum distance, or the
    /// first point when none is reachable — what [`dijkstra`] followed
    /// by taking the first minimum gives. The search stops once every
    /// node at the winning distance is settled.
    pub(crate) fn nearest_point(
        &mut self,
        graph: &ChannelGraph,
        sources: &[usize],
        points: &[Vec<usize>],
        rest: &[usize],
    ) -> usize {
        for &pi in rest {
            for &c in &points[pi] {
                self.target[c] = true;
            }
        }
        for &s in sources {
            self.relax(usize::MAX, s, 0);
        }
        let mut best = None;
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u] {
                continue;
            }
            match best {
                Some(b) if d > b => break,
                None if self.target[u] => best = Some(d),
                _ => {}
            }
            for &(v, e) in graph.neighbors(u) {
                self.relax(u, v, d + graph.edges[e].length);
            }
        }
        // Unsettled candidates are farther than the winner, and so are
        // their tentative distances: the first minimum is unchanged.
        let (pos, _) = rest
            .iter()
            .enumerate()
            .map(|(k, &pi)| {
                let d = points[pi]
                    .iter()
                    .map(|&c| self.dist[c])
                    .min()
                    .unwrap_or(i64::MAX);
                (k, d)
            })
            .min_by_key(|&(_, d)| d)
            .expect("rest nonempty");
        for &pi in rest {
            for &c in &points[pi] {
                self.target[c] = false;
            }
        }
        self.reset();
        pos
    }

    /// Shortest path from `spur` to the virtual target avoiding the
    /// banned nodes and spur steps, as the node sequence and its length.
    fn shortest(&mut self, graph: &ChannelGraph, spur: usize) -> Option<(Vec<usize>, i64)> {
        let n = graph.len();
        let t = n + 1;
        self.relax(usize::MAX, spur, 0);
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u] {
                continue;
            }
            if u == t {
                break;
            }
            let blocked =
                |ws: &SearchSpace, v: usize| ws.banned[v] || (u == spur && ws.banned_next[v]);
            if u == n {
                for i in 0..self.sources.len() {
                    let s = self.sources[i];
                    if !blocked(self, s) {
                        self.relax(u, s, d);
                    }
                }
                continue;
            }
            for &(v, e) in graph.neighbors(u) {
                if !blocked(self, v) {
                    self.relax(u, v, d + graph.edges[e].length);
                }
            }
            if self.target[u] && !blocked(self, t) {
                self.relax(u, t, d);
            }
        }
        let found = (self.dist[t] != i64::MAX).then(|| {
            let mut nodes = vec![t];
            let mut cur = t;
            while cur != spur {
                cur = self.prev[cur];
                nodes.push(cur);
            }
            nodes.reverse();
            (nodes, self.dist[t])
        });
        self.reset();
        found
    }

    /// Yen's deviation algorithm from the virtual source to the virtual
    /// target: up to `k` (at least one) paths, each with both virtual
    /// terminals. Candidates are taken in `(length, nodes)` order.
    fn yen(&mut self, graph: &ChannelGraph, k: usize) -> Vec<(Vec<usize>, i64)> {
        let n = graph.len();
        let mut found: Vec<(Vec<usize>, i64)> = Vec::new();
        let mut candidates: BinaryHeap<Reverse<(i64, Vec<usize>)>> = BinaryHeap::new();
        let Some(first) = self.shortest(graph, n) else {
            return found;
        };
        found.push(first);

        while found.len() < k {
            let last_path = &found.last().expect("nonempty").0;
            let mut root_len = 0;
            // Deviate at every spur node of the previous path.
            for spur_idx in 0..last_path.len() - 1 {
                let spur = last_path[spur_idx];
                let root = &last_path[..=spur_idx];
                if spur_idx > 0 {
                    root_len += step_length(graph, last_path[spur_idx - 1], spur);
                }
                // Ban steps out of the spur taken by found paths sharing
                // this root, and the root nodes except the spur.
                for (p, _) in &found {
                    if p.len() > spur_idx && p[..=spur_idx] == *root {
                        self.banned_next[p[spur_idx + 1]] = true;
                    }
                }
                for &r in &root[..spur_idx] {
                    self.banned[r] = true;
                }
                let tail = self.shortest(graph, spur);
                for (p, _) in &found {
                    if let Some(&next) = p.get(spur_idx + 1) {
                        self.banned_next[next] = false;
                    }
                }
                for &r in &root[..spur_idx] {
                    self.banned[r] = false;
                }
                if let Some((tail, tail_len)) = tail {
                    let mut nodes = root[..spur_idx].to_vec();
                    nodes.extend(tail);
                    candidates.push(Reverse((root_len + tail_len, nodes)));
                }
            }
            // Pop the best unseen candidate.
            let mut next = None;
            while let Some(Reverse((len, nodes))) = candidates.pop() {
                if !found.iter().any(|(p, _)| *p == nodes) {
                    next = Some((nodes, len));
                    break;
                }
            }
            match next {
                Some(p) => found.push(p),
                None => break,
            }
        }
        found
    }

    /// [`k_shortest_from_set`] on this workspace.
    pub(crate) fn k_shortest(
        &mut self,
        graph: &ChannelGraph,
        sources: &[usize],
        targets: &[usize],
        k: usize,
    ) -> Vec<Path> {
        if graph.is_empty() || sources.is_empty() || targets.is_empty() || k == 0 {
            return Vec::new();
        }
        // Degenerate: a target is already a source.
        if let Some(&t) = targets.iter().find(|t| sources.contains(t)) {
            let mut out = vec![Path {
                nodes: vec![t],
                length: 0,
            }];
            out.extend(
                self.k_shortest_nontrivial(graph, sources, targets, k - 1)
                    .into_iter()
                    .filter(|p| p.nodes.len() > 1),
            );
            return out;
        }
        self.k_shortest_nontrivial(graph, sources, targets, k)
    }

    fn k_shortest_nontrivial(
        &mut self,
        graph: &ChannelGraph,
        sources: &[usize],
        targets: &[usize],
        k: usize,
    ) -> Vec<Path> {
        self.sources.clear();
        self.sources.extend_from_slice(sources);
        for &t in targets {
            self.target[t] = true;
        }
        let found = self.yen(graph, k);
        for &t in targets {
            self.target[t] = false;
        }
        found
            .into_iter()
            .map(|(mut nodes, length)| {
                // Strip the virtual terminals.
                nodes.pop();
                nodes.remove(0);
                Path { nodes, length }
            })
            .collect()
    }
}

/// Length of one step of a path over the graph with virtual terminals.
fn step_length(graph: &ChannelGraph, a: usize, b: usize) -> i64 {
    if a >= graph.len() || b >= graph.len() {
        return 0;
    }
    edge_length(graph, a, b)
}

/// Length of the graph edge joining `a` and `b`.
pub(crate) fn edge_length(graph: &ChannelGraph, a: usize, b: usize) -> i64 {
    graph
        .neighbors(a)
        .iter()
        .find(|&&(m, _)| m == b)
        .map(|&(_, e)| graph.edges[e].length)
        .expect("paths follow graph edges")
}

/// The `k` shortest simple paths between two channel-graph nodes, sorted
/// by length (Lawler/Yen).
pub fn k_shortest_paths(graph: &ChannelGraph, s: usize, t: usize, k: usize) -> Vec<Path> {
    k_shortest_from_set(graph, &[s], &[t], k)
}

/// The `k` shortest simple paths from any of `sources` to any of
/// `targets` (used to connect the next pin group to the growing tree;
/// `targets` holds electrically-equivalent alternatives).
pub fn k_shortest_from_set(
    graph: &ChannelGraph,
    sources: &[usize],
    targets: &[usize],
    k: usize,
) -> Vec<Path> {
    SearchSpace::new(graph.len()).k_shortest(graph, sources, targets, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_channel_graph, PlacedGeometry};
    use twmc_geom::{Point, Rect, TileSet};

    /// A 3x3 grid of cells: a rich channel network with many alternative
    /// routes.
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

    #[test]
    fn dijkstra_distances_are_consistent() {
        let g = grid_graph();
        let d = dijkstra(&g, &[0]);
        assert_eq!(d[0], 0);
        // Triangle inequality along every edge.
        for e in &g.edges {
            if d[e.a] < i64::MAX && d[e.b] < i64::MAX {
                assert!(d[e.b] <= d[e.a] + e.length);
                assert!(d[e.a] <= d[e.b] + e.length);
            }
        }
    }

    #[test]
    fn k_paths_sorted_and_simple() {
        let g = grid_graph();
        let (s, t) = (0, g.len() - 1);
        let paths = k_shortest_paths(&g, s, t, 8);
        assert!(!paths.is_empty());
        for pair in paths.windows(2) {
            assert!(pair[0].length <= pair[1].length, "not sorted");
        }
        for p in &paths {
            // Simple: no repeated nodes.
            let mut seen = std::collections::HashSet::new();
            assert!(p.nodes.iter().all(|&n| seen.insert(n)), "cycle in path");
            assert_eq!(*p.nodes.first().expect("nonempty"), s);
            assert_eq!(*p.nodes.last().expect("nonempty"), t);
            // Consecutive nodes are adjacent and lengths add up.
            let mut len = 0;
            for w in p.nodes.windows(2) {
                let e = g.edge_between(w[0], w[1]).expect("adjacent");
                len += g.edges[e].length;
            }
            assert_eq!(len, p.length);
        }
        // All distinct.
        let set: std::collections::HashSet<&Vec<usize>> = paths.iter().map(|p| &p.nodes).collect();
        assert_eq!(set.len(), paths.len());
    }

    #[test]
    fn first_path_matches_dijkstra() {
        let g = grid_graph();
        let (s, t) = (1, g.len() - 2);
        let d = dijkstra(&g, &[s]);
        let paths = k_shortest_paths(&g, s, t, 3);
        assert_eq!(paths[0].length, d[t]);
    }

    #[test]
    fn multi_source_reaches_nearest() {
        let g = grid_graph();
        let sources = [0, 1, 2];
        let t = g.len() - 1;
        let paths = k_shortest_from_set(&g, &sources, &[t], 4);
        assert!(!paths.is_empty());
        // Starts at one of the sources.
        assert!(sources.contains(paths[0].nodes.first().expect("nonempty")));
        // Not longer than any single-source shortest.
        let best_single = sources
            .iter()
            .map(|&s| dijkstra(&g, &[s])[t])
            .min()
            .expect("nonempty");
        assert_eq!(paths[0].length, best_single);
    }

    #[test]
    fn equivalent_targets_pick_closer() {
        let g = grid_graph();
        let s = 0;
        let d = dijkstra(&g, &[s]);
        // Choose two targets with different distances.
        let mut far = 0;
        let mut near = 0;
        for i in 0..g.len() {
            if d[i] > d[far] {
                far = i;
            }
        }
        for i in 0..g.len() {
            if d[i] > 0 && d[i] < d[near] || d[near] == 0 {
                near = i;
            }
        }
        let paths = k_shortest_from_set(&g, &[s], &[near, far], 2);
        assert_eq!(paths[0].length, d[near].min(d[far]));
    }

    #[test]
    fn target_in_source_set_is_zero_length() {
        let g = grid_graph();
        let paths = k_shortest_from_set(&g, &[3, 4], &[4], 3);
        assert_eq!(paths[0].length, 0);
        assert_eq!(paths[0].nodes, vec![4]);
    }

    #[test]
    fn k_larger_than_path_count_saturates() {
        // A hand-built chain of three touching regions has exactly one
        // simple path end to end; asking for 50 must return just it.
        use crate::{ChannelGraph, ChannelKind, CriticalRegion, EdgeRef};
        use twmc_geom::{Side, Span};
        let strip = |x0: i64| CriticalRegion {
            rect: Rect::from_wh(x0, 0, 2, 10),
            kind: ChannelKind::Vertical,
            lo_edge: EdgeRef {
                cell: None,
                side: Side::Right,
                coord: x0,
                span: Span::new(0, 10),
            },
            hi_edge: EdgeRef {
                cell: None,
                side: Side::Left,
                coord: x0 + 2,
                span: Span::new(0, 10),
            },
        };
        let g = ChannelGraph::build(vec![strip(0), strip(2), strip(4)], 2.0);
        assert_eq!(g.len(), 3);
        let paths = k_shortest_paths(&g, 0, 2, 50);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![0, 1, 2]);
    }

    /// A region over `rect` (its bounding edges do not matter to the
    /// graph beyond the separation).
    fn region(rect: Rect) -> crate::CriticalRegion {
        use crate::{ChannelKind, EdgeRef};
        use twmc_geom::{Side, Span};
        let edge = |side, coord| EdgeRef {
            cell: None,
            side,
            coord,
            span: Span::new(rect.lo().y, rect.hi().y),
        };
        crate::CriticalRegion {
            rect,
            kind: ChannelKind::Vertical,
            lo_edge: edge(Side::Right, rect.lo().x),
            hi_edge: edge(Side::Left, rect.hi().x),
        }
    }

    /// The reference for [`SearchSpace::nearest_point`]: a full
    /// [`dijkstra`], then the first point at the minimum distance.
    fn nearest_by_dijkstra(
        g: &ChannelGraph,
        sources: &[usize],
        points: &[Vec<usize>],
        rest: &[usize],
    ) -> usize {
        let dist = dijkstra(g, sources);
        rest.iter()
            .enumerate()
            .map(|(k, &pi)| {
                let d = points[pi].iter().map(|&c| dist[c]).min();
                (k, d.unwrap_or(i64::MAX))
            })
            .min_by_key(|&(_, d)| d)
            .map(|(k, _)| k)
            .expect("rest nonempty")
    }

    #[test]
    fn nearest_point_breaks_ties_in_rest_order() {
        // Five unit-spaced strips in a row, plus one far away that
        // touches nothing: nodes 1 and 3 are equally near node 2.
        let mut regions: Vec<_> = (0..5)
            .map(|i| region(Rect::from_wh(2 * i, 0, 2, 10)))
            .collect();
        regions.push(region(Rect::from_wh(100, 0, 2, 10)));
        let g = ChannelGraph::build(regions, 2.0);
        let points = vec![vec![5], vec![3], vec![4, 1], vec![0]];
        let mut space = SearchSpace::new(g.len());
        for rest in [vec![0, 1, 2, 3], vec![0, 2, 1, 3], vec![0, 3], vec![0]] {
            let expected = nearest_by_dijkstra(&g, &[2], &points, &rest);
            assert_eq!(space.nearest_point(&g, &[2], &points, &rest), expected);
        }
        // The tie goes to the earlier point; an unreachable-only rest
        // picks its first point.
        assert_eq!(space.nearest_point(&g, &[2], &points, &[0, 2, 1]), 1);
        assert_eq!(space.nearest_point(&g, &[2], &points, &[0, 1, 2]), 1);
        assert_eq!(space.nearest_point(&g, &[2], &points, &[0]), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn nearest_point_matches_dijkstra(
            rects in proptest::collection::vec((0i64..5, 0i64..5, 1i64..3, 1i64..3), 1..16),
            cands in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<usize>(), 0..4),
                1..7,
            ),
            sources in proptest::collection::vec(proptest::prelude::any::<usize>(), 1..4),
            skip in proptest::prelude::any::<usize>(),
        ) {
            // Rectangles on a coarse lattice: equal edge lengths abound,
            // and a width of 2 leaves a gap, so components are often
            // disconnected and some points unreachable.
            let g = ChannelGraph::build(
                rects
                    .iter()
                    .map(|&(x, y, w, h)| region(Rect::from_wh(4 * x, 4 * y, 2 * w, 2 * h)))
                    .collect(),
                2.0,
            );
            let n = g.len();
            let points: Vec<Vec<usize>> =
                cands.iter().map(|c| c.iter().map(|&v| v % n).collect()).collect();
            let sources: Vec<usize> = sources.iter().map(|&v| v % n).collect();
            let rest: Vec<usize> = (0..points.len())
                .filter(|&k| k != skip % (points.len() + 1))
                .collect();
            proptest::prop_assume!(!rest.is_empty());
            let expected = nearest_by_dijkstra(&g, &sources, &points, &rest);
            let mut space = SearchSpace::new(n);
            proptest::prop_assert_eq!(space.nearest_point(&g, &sources, &points, &rest), expected);
            // A workspace is left clean for the next search.
            proptest::prop_assert_eq!(space.nearest_point(&g, &sources, &points, &rest), expected);
        }
    }
}
