//! M-shortest-path enumeration (paper §4.2.1).
//!
//! For two-pin nets the paper uses Lawler's algorithm for the M shortest
//! paths between two vertices; we implement the equivalent deviation
//! scheme (Yen's algorithm) over the channel graph, generalized to
//! multiple sources (the already-connected tree) and multiple targets
//! (electrically-equivalent pins) via virtual terminals. Spur searches
//! run only when an exact lower bound says they could win, as A*
//! searches guided by per-point distance tables; the paths, and their
//! order, are those of the eager algorithm over plain Dijkstra.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::ChannelGraph;

/// The most distance-table entries one routing call keeps cached (2 MB).
/// A net whose new tables would pass it drops the cache first.
const TABLE_BUDGET: usize = 1 << 18;

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
    let mut dist = Vec::new();
    dijkstra_into(graph, sources, &mut dist, &mut BinaryHeap::new());
    dist
}

/// [`dijkstra`] into the caller's buffers.
fn dijkstra_into(
    graph: &ChannelGraph,
    sources: &[usize],
    dist: &mut Vec<i64>,
    heap: &mut BinaryHeap<Reverse<(i64, usize)>>,
) {
    dist.clear();
    dist.resize(graph.len(), i64::MAX);
    heap.clear();
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
}

/// A Yen spur search not yet run: `(bound, f, spur_idx, root_len)`. It
/// deviates from the `f`-th path found at its `spur_idx`-th node, after a
/// root of length `root_len`, and no candidate it yields is shorter than
/// `bound`.
type Deferred = (i64, usize, usize, i64);

/// Reusable state for the searches of one routing call.
///
/// The M-path searches run over the channel graph plus two virtual
/// terminals, handled inline rather than materialized: node `n` is
/// joined to every source and node `n + 1` is joined from every target,
/// all at zero length. Every search returns the path a Dijkstra popping
/// its heap by `(dist, node)` and relaxing only on a strict `<` would,
/// so the distances, predecessors and paths it finds depend only on the
/// graph, never on the order in which neighbors are visited or buffers
/// were used before. Buffers hold `n + 2` entries and are reset by
/// visiting only what a search touched.
pub(crate) struct SearchSpace {
    /// Per candidate set, each node's distance to the set's nearest
    /// node (`i64::MAX` when unreachable): the Prim step's lookup and
    /// the spur searches' heuristic. The first `table_of.len()` are live.
    tables: Vec<Vec<i64>>,
    /// Sorted, deduplicated candidate set → its live table.
    table_of: HashMap<Vec<usize>, usize>,
    /// Live table entries allowed before a net drops the cache.
    pub(crate) table_budget: usize,
    /// Tentative distance per node, `i64::MAX` when untouched.
    dist: Vec<i64>,
    /// Predecessor on the shortest path found so far.
    prev: Vec<usize>,
    /// Nodes whose `dist` is set, for the reset.
    touched: Vec<usize>,
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// The virtual source's neighbors.
    sources: Vec<usize>,
    /// Nodes joined to the virtual target.
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
            tables: Vec::new(),
            table_of: HashMap::new(),
            table_budget: TABLE_BUDGET,
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

    /// The tables of distances to each of `candidate_sets`, as indices
    /// for [`SearchSpace::prim_step`] and [`SearchSpace::k_shortest`]. A
    /// table depends only on the graph and the set, so a set an earlier
    /// call already filled is not searched again. When the new tables
    /// would take the cache past its budget, the cache is dropped first,
    /// so the returned tables stay live until the next call.
    pub(crate) fn tables_for(
        &mut self,
        graph: &ChannelGraph,
        candidate_sets: &[Vec<usize>],
    ) -> Vec<usize> {
        let keys: Vec<Vec<usize>> = candidate_sets
            .iter()
            .map(|c| {
                let mut key = c.clone();
                key.sort_unstable();
                key.dedup();
                key
            })
            .collect();
        let new = keys
            .iter()
            .filter(|k| !self.table_of.contains_key(*k))
            .count();
        if new > 0 && (self.table_of.len() + new) * graph.len() > self.table_budget {
            self.table_of.clear();
        }
        keys.into_iter()
            .map(|key| {
                if let Some(&t) = self.table_of.get(&key) {
                    return t;
                }
                let t = self.table_of.len();
                if self.tables.len() == t {
                    self.tables.push(Vec::new());
                }
                dijkstra_into(graph, &key, &mut self.tables[t], &mut self.heap);
                self.table_of.insert(key, t);
                t
            })
            .collect()
    }

    /// The position in `rest` of the connection point nearest to `tree`
    /// (Prim's next pin group), and its distance: the first point, in
    /// `rest` order, whose table (`tables[point]`) has the smallest least
    /// entry over `tree`, or the first point, at `i64::MAX`, when none is
    /// reachable. Tables hold exact distances on an undirected graph, so
    /// this is the point a [`dijkstra`] from `tree` followed by taking
    /// the first minimum picks.
    pub(crate) fn prim_step(
        &self,
        tree: &[usize],
        rest: &[usize],
        tables: &[usize],
    ) -> (usize, i64) {
        rest.iter()
            .enumerate()
            .map(|(k, &p)| {
                let table = &self.tables[tables[p]];
                (k, tree.iter().map(|&v| table[v]).min().unwrap_or(i64::MAX))
            })
            .min_by_key(|&(_, d)| d)
            .expect("rest nonempty")
    }

    /// Lowers `to`'s distance to `d` through `from` and queues it at
    /// `f = d + h(to)`. At an equal distance `to` keeps, of the two
    /// settled predecessors, the one least in `(dist, node)`: the one a
    /// Dijkstra popping by `(dist, node)` would have relaxed it from
    /// first.
    fn relax(&mut self, from: usize, to: usize, d: i64, f: i64) {
        let cur = self.dist[to];
        if d < cur {
            if cur == i64::MAX {
                self.touched.push(to);
            }
            self.dist[to] = d;
            self.prev[to] = from;
            self.heap.push(Reverse((f, to)));
        } else if d == cur {
            let p = self.prev[to];
            if (self.dist[from], from) < (self.dist[p], p) {
                self.prev[to] = from;
            }
        }
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.dist[v] = i64::MAX;
        }
        self.touched.clear();
        self.heap.clear();
    }

    /// Shortest path from `spur` to the virtual target avoiding the
    /// banned nodes and spur steps, as the node sequence and its length.
    ///
    /// An A* search whose heuristic `h` is the distance to the targets
    /// without bans, extended by the least entry over the sources at the
    /// virtual source and 0 at the virtual target. It is consistent:
    /// every edge is at least 1 long and bans only lengthen paths, so a
    /// popped node's distance is final. Nodes with no finite `h` reach no
    /// target and are never queued. Each node keeps its least tight
    /// predecessor (see [`SearchSpace::relax`]), and the search pops
    /// until the least `f` exceeds the target's distance, which settles
    /// every tight predecessor of every node on a shortest path: the
    /// path returned is the one Dijkstra's pop order gives.
    fn astar(&mut self, graph: &ChannelGraph, h: &[i64], spur: usize) -> Option<(Vec<usize>, i64)> {
        let n = graph.len();
        let t = n + 1;
        let h_source = self.sources.iter().map(|&s| h[s]).min().unwrap_or(i64::MAX);
        let h_of = |v: usize| match v.cmp(&n) {
            std::cmp::Ordering::Less => h[v],
            std::cmp::Ordering::Equal => h_source,
            std::cmp::Ordering::Greater => 0,
        };
        if h_of(spur) == i64::MAX {
            return None;
        }
        self.relax(usize::MAX, spur, 0, h_of(spur));
        while let Some(Reverse((f, u))) = self.heap.pop() {
            if f > self.dist[t] {
                break;
            }
            let d = self.dist[u];
            if f > d + h_of(u) || u == t {
                continue;
            }
            let blocked =
                |ws: &SearchSpace, v: usize| ws.banned[v] || (u == spur && ws.banned_next[v]);
            if u == n {
                for i in 0..self.sources.len() {
                    let s = self.sources[i];
                    if !blocked(self, s) && h[s] != i64::MAX {
                        self.relax(u, s, d, d + h[s]);
                    }
                }
                continue;
            }
            for &(v, e) in graph.neighbors(u) {
                if !blocked(self, v) && h[v] != i64::MAX {
                    let nd = d + graph.edges[e].length;
                    self.relax(u, v, nd, nd + h[v]);
                }
            }
            if self.target[u] && !blocked(self, t) {
                self.relax(u, t, d, d);
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
    /// terminals, taken in `(length, nodes)` order.
    ///
    /// Spur searches are deferred (see [`SearchSpace::defer_spurs`]) and
    /// run, in bound order, only while the least bound is at most the
    /// best unseen candidate's length, or no candidate is left. A search
    /// not run would yield a candidate no shorter than its bound, so
    /// strictly longer than the path accepted: every path is the one,
    /// and comes in the order, that running every spur search at once
    /// gives.
    fn yen(&mut self, graph: &ChannelGraph, h: &[i64], k: usize) -> Vec<(Vec<usize>, i64)> {
        let mut found: Vec<(Vec<usize>, i64)> = Vec::new();
        let mut candidates: BinaryHeap<Reverse<(i64, Vec<usize>)>> = BinaryHeap::new();
        let mut deferred: BinaryHeap<Reverse<Deferred>> = BinaryHeap::new();
        let Some(first) = self.astar(graph, h, graph.len()) else {
            return found;
        };
        found.push(first);

        while found.len() < k {
            self.defer_spurs(graph, h, &found, &mut deferred);
            loop {
                while candidates
                    .peek()
                    .is_some_and(|Reverse((_, c))| found.iter().any(|(p, _)| p == c))
                {
                    candidates.pop();
                }
                let best = candidates.peek().map(|&Reverse((len, _))| len);
                match deferred.peek() {
                    Some(&Reverse((bound, ..))) if best.is_none_or(|b| bound <= b) => {
                        let Reverse(spur) = deferred.pop().expect("peeked");
                        if let Some(c) = self.spur_search(graph, h, &found, spur) {
                            candidates.push(Reverse(c));
                        }
                    }
                    _ => break,
                }
            }
            // Take the best unseen candidate.
            match candidates.pop() {
                Some(Reverse((len, nodes))) => found.push((nodes, len)),
                None => break,
            }
        }
        found
    }

    /// Records one deferred spur search per spur node of the last path
    /// found. Its bound is the root's length plus the least, over the
    /// spur's allowed steps, of step length + `h`: 0 for a step to the
    /// virtual target. A spur with no allowed step gets none, as its
    /// search would find nothing.
    fn defer_spurs(
        &mut self,
        graph: &ChannelGraph,
        h: &[i64],
        found: &[(Vec<usize>, i64)],
        deferred: &mut BinaryHeap<Reverse<Deferred>>,
    ) {
        let n = graph.len();
        let f = found.len();
        let last = &found[f - 1].0;
        // Found paths sharing the root so far.
        let mut sharing: Vec<usize> = (0..f).collect();
        let mut root_len = 0;
        for spur_idx in 0..last.len() - 1 {
            let spur = last[spur_idx];
            if spur_idx > 0 {
                root_len += step_length(graph, last[spur_idx - 1], spur);
                self.banned[last[spur_idx - 1]] = true;
            }
            sharing.retain(|&i| found[i].0.get(spur_idx) == Some(&spur));
            for &i in &sharing {
                self.banned_next[found[i].0[spur_idx + 1]] = true;
            }
            let allowed = |ws: &SearchSpace, v: usize| {
                !ws.banned[v] && !ws.banned_next[v] && h.get(v).is_none_or(|&d| d != i64::MAX)
            };
            let least = if spur == n {
                self.sources
                    .iter()
                    .filter(|&&s| allowed(self, s))
                    .map(|&s| h[s])
                    .min()
            } else if self.target[spur] && allowed(self, n + 1) {
                Some(0)
            } else {
                graph
                    .neighbors(spur)
                    .iter()
                    .filter(|&&(v, _)| allowed(self, v))
                    .map(|&(v, e)| graph.edges[e].length + h[v])
                    .min()
            };
            for &i in &sharing {
                self.banned_next[found[i].0[spur_idx + 1]] = false;
            }
            if let Some(least) = least {
                deferred.push(Reverse((root_len + least, f, spur_idx, root_len)));
            }
        }
        for &r in &last[..last.len() - 1] {
            self.banned[r] = false;
        }
    }

    /// Runs a deferred spur search under the bans Yen sets for it when
    /// its path is found: the steps out of the spur that the first `f`
    /// paths sharing its root take, and the root's nodes before the spur.
    /// Returns the candidate it yields, as `(length, nodes)`.
    fn spur_search(
        &mut self,
        graph: &ChannelGraph,
        h: &[i64],
        found: &[(Vec<usize>, i64)],
        (_, f, spur_idx, root_len): Deferred,
    ) -> Option<(i64, Vec<usize>)> {
        let root = &found[f - 1].0[..=spur_idx];
        for (p, _) in &found[..f] {
            if p.len() > spur_idx && p[..=spur_idx] == *root {
                self.banned_next[p[spur_idx + 1]] = true;
            }
        }
        for &r in &root[..spur_idx] {
            self.banned[r] = true;
        }
        let tail = self.astar(graph, h, root[spur_idx]);
        for (p, _) in &found[..f] {
            if let Some(&next) = p.get(spur_idx + 1) {
                self.banned_next[next] = false;
            }
        }
        for &r in &root[..spur_idx] {
            self.banned[r] = false;
        }
        tail.map(|(tail, tail_len)| {
            let mut nodes = root[..spur_idx].to_vec();
            nodes.extend(tail);
            (root_len + tail_len, nodes)
        })
    }

    /// [`k_shortest_from_set`] on this workspace; table `table` (from
    /// [`SearchSpace::tables_for`]) holds the distances to `targets`.
    pub(crate) fn k_shortest(
        &mut self,
        graph: &ChannelGraph,
        sources: &[usize],
        targets: &[usize],
        table: usize,
        k: usize,
    ) -> Vec<Path> {
        if graph.is_empty() || sources.is_empty() || targets.is_empty() || k == 0 {
            return Vec::new();
        }
        // The searches borrow the table while they mutate the rest.
        let h = std::mem::take(&mut self.tables[table]);
        // Degenerate: a target is already a source.
        let out = if let Some(&t) = targets.iter().find(|t| sources.contains(t)) {
            let mut out = vec![Path {
                nodes: vec![t],
                length: 0,
            }];
            out.extend(
                self.k_shortest_nontrivial(graph, sources, targets, &h, k - 1)
                    .into_iter()
                    .filter(|p| p.nodes.len() > 1),
            );
            out
        } else {
            self.k_shortest_nontrivial(graph, sources, targets, &h, k)
        };
        self.tables[table] = h;
        out
    }

    fn k_shortest_nontrivial(
        &mut self,
        graph: &ChannelGraph,
        sources: &[usize],
        targets: &[usize],
        h: &[i64],
        k: usize,
    ) -> Vec<Path> {
        self.sources.clear();
        self.sources.extend_from_slice(sources);
        for &t in targets {
            self.target[t] = true;
        }
        let found = self.yen(graph, h, k);
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
    let mut space = SearchSpace::new(graph.len());
    let table = space.tables_for(graph, &[targets.to_vec()])[0];
    space.k_shortest(graph, sources, targets, table, k)
}

#[cfg(test)]
pub(crate) mod tests {
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
        build_channel_graph(&PlacedGeometry {
            cells,
            core: Rect::from_wh(-30, -30, 60, 60),
        })
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
        let g = ChannelGraph::build(vec![strip(0), strip(2), strip(4)]);
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

    /// The reference for [`SearchSpace::prim_step`]: a full [`dijkstra`]
    /// from the tree, then the first point at the minimum distance.
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

    /// [`SearchSpace::prim_step`]'s position from `tree` after filling
    /// every point's table; its distance is checked against [`dijkstra`].
    fn prim_step(g: &ChannelGraph, tree: &[usize], points: &[Vec<usize>], rest: &[usize]) -> usize {
        let mut space = SearchSpace::new(g.len());
        let tables = space.tables_for(g, points);
        let (k, d) = space.prim_step(tree, rest, &tables);
        let dist = dijkstra(g, tree);
        let nearest = points[rest[k]].iter().map(|&c| dist[c]).min();
        assert_eq!(d, nearest.unwrap_or(i64::MAX));
        k
    }

    #[test]
    fn nearest_point_breaks_ties_in_rest_order() {
        // Five unit-spaced strips in a row, plus one far away that
        // touches nothing: nodes 1 and 3 are equally near node 2.
        let mut regions: Vec<_> = (0..5)
            .map(|i| region(Rect::from_wh(2 * i, 0, 2, 10)))
            .collect();
        regions.push(region(Rect::from_wh(100, 0, 2, 10)));
        let g = ChannelGraph::build(regions);
        let points = vec![vec![5], vec![3], vec![4, 1], vec![0]];
        for rest in [vec![0, 1, 2, 3], vec![0, 2, 1, 3], vec![0, 3], vec![0]] {
            let expected = nearest_by_dijkstra(&g, &[2], &points, &rest);
            assert_eq!(prim_step(&g, &[2], &points, &rest), expected);
        }
        // The tie goes to the earlier point; an unreachable-only rest
        // picks its first point.
        assert_eq!(prim_step(&g, &[2], &points, &[0, 2, 1]), 1);
        assert_eq!(prim_step(&g, &[2], &points, &[0, 1, 2]), 1);
        assert_eq!(prim_step(&g, &[2], &points, &[0]), 0);
    }

    /// The eager search this module's lazy one must match path for path:
    /// every Yen spur search run at once with a plain Dijkstra popping by
    /// `(dist, node)`, over the same virtual terminals.
    struct Eager {
        dist: Vec<i64>,
        prev: Vec<usize>,
        sources: Vec<usize>,
        target: Vec<bool>,
        banned: Vec<bool>,
        banned_next: Vec<bool>,
    }

    impl Eager {
        fn shortest(&mut self, graph: &ChannelGraph, spur: usize) -> Option<(Vec<usize>, i64)> {
            let n = graph.len();
            let t = n + 1;
            self.dist.fill(i64::MAX);
            let mut heap = BinaryHeap::new();
            self.dist[spur] = 0;
            heap.push(Reverse((0, spur)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > self.dist[u] {
                    continue;
                }
                if u == t {
                    break;
                }
                let blocked =
                    |ws: &Eager, v: usize| ws.banned[v] || (u == spur && ws.banned_next[v]);
                let mut steps: Vec<(usize, i64)> = Vec::new();
                if u == n {
                    steps.extend(self.sources.iter().map(|&s| (s, 0)));
                } else {
                    steps.extend(
                        graph
                            .neighbors(u)
                            .iter()
                            .map(|&(v, e)| (v, graph.edges[e].length)),
                    );
                    if self.target[u] {
                        steps.push((t, 0));
                    }
                }
                for (v, w) in steps {
                    if !blocked(self, v) && d + w < self.dist[v] {
                        self.dist[v] = d + w;
                        self.prev[v] = u;
                        heap.push(Reverse((d + w, v)));
                    }
                }
            }
            (self.dist[t] != i64::MAX).then(|| {
                let mut nodes = vec![t];
                let mut cur = t;
                while cur != spur {
                    cur = self.prev[cur];
                    nodes.push(cur);
                }
                nodes.reverse();
                (nodes, self.dist[t])
            })
        }

        fn yen(&mut self, graph: &ChannelGraph, k: usize) -> Vec<(Vec<usize>, i64)> {
            let n = graph.len();
            let mut found: Vec<(Vec<usize>, i64)> = Vec::new();
            let mut candidates: BinaryHeap<Reverse<(i64, Vec<usize>)>> = BinaryHeap::new();
            let Some(first) = self.shortest(graph, n) else {
                return found;
            };
            found.push(first);
            while found.len() < k {
                let last_path = found.last().expect("nonempty").0.clone();
                let mut root_len = 0;
                for spur_idx in 0..last_path.len() - 1 {
                    let spur = last_path[spur_idx];
                    let root = &last_path[..=spur_idx];
                    if spur_idx > 0 {
                        root_len += step_length(graph, last_path[spur_idx - 1], spur);
                    }
                    for (p, _) in &found {
                        if p.len() > spur_idx && p[..=spur_idx] == *root {
                            self.banned_next[p[spur_idx + 1]] = true;
                        }
                    }
                    for &r in &root[..spur_idx] {
                        self.banned[r] = true;
                    }
                    let tail = self.shortest(graph, spur);
                    self.banned_next.fill(false);
                    self.banned.fill(false);
                    if let Some((tail, tail_len)) = tail {
                        let mut nodes = root[..spur_idx].to_vec();
                        nodes.extend(tail);
                        candidates.push(Reverse((root_len + tail_len, nodes)));
                    }
                }
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

        /// [`k_shortest_from_set`] on the eager search.
        fn k_shortest(
            graph: &ChannelGraph,
            sources: &[usize],
            targets: &[usize],
            k: usize,
        ) -> Vec<Path> {
            let n = graph.len();
            let mut eager = Eager {
                dist: vec![i64::MAX; n + 2],
                prev: vec![usize::MAX; n + 2],
                sources: sources.to_vec(),
                target: vec![false; n + 2],
                banned: vec![false; n + 2],
                banned_next: vec![false; n + 2],
            };
            for &t in targets {
                eager.target[t] = true;
            }
            let strip = |found: Vec<(Vec<usize>, i64)>| {
                found.into_iter().map(|(nodes, length)| Path {
                    nodes: nodes[1..nodes.len() - 1].to_vec(),
                    length,
                })
            };
            match targets.iter().find(|t| sources.contains(t)) {
                Some(&t) => {
                    let mut out = vec![Path {
                        nodes: vec![t],
                        length: 0,
                    }];
                    out.extend(strip(eager.yen(graph, k - 1)).filter(|p| p.nodes.len() > 1));
                    out
                }
                None => strip(eager.yen(graph, k)).collect(),
            }
        }
    }

    /// A channel graph of regions on a coarse lattice: equal edge lengths
    /// abound, and a width of 2 leaves a gap, so components are often
    /// disconnected and some nodes unreachable.
    pub(crate) fn lattice_graph(rects: &[(i64, i64, i64, i64)]) -> ChannelGraph {
        ChannelGraph::build(
            rects
                .iter()
                .map(|&(x, y, w, h)| region(Rect::from_wh(4 * x, 4 * y, 2 * w, 2 * h)))
                .collect(),
        )
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
            let g = lattice_graph(&rects);
            let n = g.len();
            let points: Vec<Vec<usize>> =
                cands.iter().map(|c| c.iter().map(|&v| v % n).collect()).collect();
            let sources: Vec<usize> = sources.iter().map(|&v| v % n).collect();
            let rest: Vec<usize> = (0..points.len())
                .filter(|&k| k != skip % (points.len() + 1))
                .collect();
            proptest::prop_assume!(!rest.is_empty());
            let expected = nearest_by_dijkstra(&g, &sources, &points, &rest);
            proptest::prop_assert_eq!(prim_step(&g, &sources, &points, &rest), expected);
        }

        #[test]
        fn paths_match_the_eager_search_tie_for_tie(
            rects in proptest::collection::vec((0i64..5, 0i64..5, 1i64..3, 1i64..3), 1..16),
            sources in proptest::collection::vec(proptest::prelude::any::<usize>(), 1..4),
            targets in proptest::collection::vec(proptest::prelude::any::<usize>(), 1..4),
            overlap in proptest::prelude::any::<bool>(),
            k in 1usize..9,
        ) {
            let g = lattice_graph(&rects);
            let n = g.len();
            let sources: Vec<usize> = sources.iter().map(|&v| v % n).collect();
            let mut targets: Vec<usize> = targets.iter().map(|&v| v % n).collect();
            if overlap {
                targets[0] = sources[0];
            }
            let expected = Eager::k_shortest(&g, &sources, &targets, k);
            proptest::prop_assert_eq!(k_shortest_from_set(&g, &sources, &targets, k), expected.clone());
            // A workspace is left clean for the next search.
            let mut space = SearchSpace::new(n);
            let tables = space.tables_for(&g, &[targets.clone(), sources.clone()]);
            let first = space.k_shortest(&g, &sources, &targets, tables[0], k);
            space.k_shortest(&g, &targets, &sources, tables[1], k);
            proptest::prop_assert_eq!(&first, &expected);
            proptest::prop_assert_eq!(space.k_shortest(&g, &sources, &targets, tables[0], k), expected);
        }
    }
}
