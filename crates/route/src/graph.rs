//! The channel graph (paper §4.1, Figs. 8–9).
//!
//! Each empty-space critical region is a *node*; graph *edges* join
//! regions whose rectangles touch or overlap. Pins on cell edges project
//! perpendicularly onto the adjacent channel and attach to its node. Edge
//! capacities derive from the fixed separations of the channels they
//! join (the constraint set of the phase-2 route selection, §4.2.2).

use std::collections::HashMap;

use twmc_geom::{Point, Rect};

use crate::CriticalRegion;

/// A node of the channel graph: one critical region.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelNode {
    /// The underlying critical region.
    pub region: CriticalRegion,
    /// Node position (region center), used for edge lengths.
    pub center: Point,
    /// Wiring capacity of the channel: `floor(separation / t_s)` tracks.
    pub capacity: u32,
}

/// An edge joining two adjacent channel nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEdge {
    /// Endpoint node indices (`a < b`).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// Manhattan length between the node centers (min 1, so that path
    /// counting never sees zero-length cycles).
    pub length: i64,
    /// Capacity: the narrower of the two channels' track counts.
    pub capacity: u32,
}

/// The channel graph.
#[derive(Debug, Clone, Default)]
pub struct ChannelGraph {
    /// Nodes (one per critical region).
    pub nodes: Vec<ChannelNode>,
    /// Edges between adjacent regions.
    pub edges: Vec<GraphEdge>,
    adjacency: Vec<Vec<(usize, usize)>>,
    /// Ordered node pair `(min, max)` → edge index, so the phase-2
    /// interchange's inner loop resolves edges in O(1) instead of
    /// scanning the adjacency list.
    edge_index: HashMap<(usize, usize), usize>,
}

impl ChannelGraph {
    /// Builds the graph from the critical regions of a placement.
    ///
    /// `track_spacing` is the center-to-center wiring pitch `t_s` used to
    /// convert separations to track capacities.
    pub fn build(regions: Vec<CriticalRegion>, track_spacing: f64) -> ChannelGraph {
        let ts = track_spacing.max(1.0);
        let nodes: Vec<ChannelNode> = regions
            .into_iter()
            .map(|region| {
                let capacity = (region.separation() as f64 / ts).floor() as u32;
                ChannelNode {
                    center: region.rect.center(),
                    capacity,
                    region,
                }
            })
            .collect();

        let mut edges = Vec::new();
        for a in 0..nodes.len() {
            for b in (a + 1)..nodes.len() {
                let ra = nodes[a].region.rect;
                let rb = nodes[b].region.rect;
                if ra.intersect(rb).is_some() {
                    edges.push(GraphEdge {
                        a,
                        b,
                        length: nodes[a].center.manhattan(nodes[b].center).max(1),
                        capacity: nodes[a].capacity.min(nodes[b].capacity),
                    });
                }
            }
        }

        let mut adjacency = vec![Vec::new(); nodes.len()];
        let mut edge_index = HashMap::with_capacity(edges.len());
        for (ei, e) in edges.iter().enumerate() {
            adjacency[e.a].push((e.b, ei));
            adjacency[e.b].push((e.a, ei));
            edge_index.insert((e.a, e.b), ei);
        }
        ChannelGraph {
            nodes,
            edges,
            adjacency,
            edge_index,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Neighbors of a node as `(neighbor, edge index)` pairs.
    #[inline]
    pub fn neighbors(&self, node: usize) -> &[(usize, usize)] {
        &self.adjacency[node]
    }

    /// The edge index joining `a` and `b`, if adjacent (O(1); also safe
    /// on out-of-range node ids, which simply aren't adjacent).
    pub fn edge_between(&self, a: usize, b: usize) -> Option<usize> {
        self.edge_index.get(&(a.min(b), a.max(b))).copied()
    }

    /// Attaches a pin at absolute position `p` to a channel node.
    ///
    /// Preference order: the narrowest region whose closed rectangle
    /// contains `p` (a pin on a cell edge lies on the boundary of the
    /// regions that edge defines); otherwise the node with the nearest
    /// center. Returns `None` only for an empty graph.
    pub fn attach_pin(&self, p: Point) -> Option<usize> {
        let mut containing: Option<(usize, i64)> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.region.rect.contains(p) {
                let sep = n.region.separation();
                if containing.is_none_or(|(_, best)| sep < best) {
                    containing = Some((i, sep));
                }
            }
        }
        if let Some((i, _)) = containing {
            return Some(i);
        }
        self.nodes
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| n.center.manhattan(p))
            .map(|(i, _)| i)
    }

    /// The bounding rectangle of all regions.
    pub fn bbox(&self) -> Option<Rect> {
        let mut it = self.nodes.iter().map(|n| n.region.rect);
        let first = it.next()?;
        Some(it.fold(first, |acc, r| acc.hull(r)))
    }
}

/// Convenience: run channel definition and build the graph in one step.
pub fn build_channel_graph(geometry: &crate::PlacedGeometry, track_spacing: f64) -> ChannelGraph {
    ChannelGraph::build(crate::critical_regions(geometry), track_spacing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelKind, PlacedGeometry};
    use twmc_geom::TileSet;

    fn quad_geometry() -> PlacedGeometry {
        // Four 10x10 cells on a 2x2 grid with 10-unit streets.
        PlacedGeometry {
            cells: vec![
                (TileSet::rect(10, 10), Point::new(-15, -15)),
                (TileSet::rect(10, 10), Point::new(5, -15)),
                (TileSet::rect(10, 10), Point::new(-15, 5)),
                (TileSet::rect(10, 10), Point::new(5, 5)),
            ],
            core: Rect::from_wh(-20, -20, 40, 40),
        }
    }

    #[test]
    fn graph_is_connected_for_grid_placement() {
        let g = build_channel_graph(&quad_geometry(), 2.0);
        assert!(!g.is_empty());
        assert!(!g.edges.is_empty());
        // BFS reaches every node: the channel network around a legal
        // placement is connected.
        let mut seen = vec![false; g.len()];
        let mut stack = vec![0];
        seen[0] = true;
        while let Some(n) = stack.pop() {
            for &(m, _) in g.neighbors(n) {
                if !seen[m] {
                    seen[m] = true;
                    stack.push(m);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "disconnected channel graph");
    }

    #[test]
    fn capacities_follow_separation() {
        let g = build_channel_graph(&quad_geometry(), 2.0);
        // The street between the west cells and east cells is 10 wide:
        // capacity 5 at t_s = 2.
        let street = g
            .nodes
            .iter()
            .find(|n| {
                n.region.kind == ChannelKind::Vertical
                    && n.region.rect.x_span() == twmc_geom::Span::new(-5, 5)
                    && n.region.lo_edge.cell.is_some()
                    && n.region.hi_edge.cell.is_some()
            })
            .expect("vertical street");
        assert_eq!(street.capacity, 5);
        // Edge capacity is the min of its endpoints.
        for e in &g.edges {
            assert_eq!(e.capacity, g.nodes[e.a].capacity.min(g.nodes[e.b].capacity));
            assert!(e.length >= 1);
        }
    }

    #[test]
    fn pin_attaches_to_adjacent_channel() {
        let g = build_channel_graph(&quad_geometry(), 2.0);
        // A pin on the right edge of the SW cell (x=-5, y=-10) lies on the
        // boundary of the vertical street region.
        let node = g.attach_pin(Point::new(-5, -10)).expect("graph nonempty");
        let r = &g.nodes[node].region;
        assert!(r.rect.contains(Point::new(-5, -10)));
        // A pin in the middle of nowhere attaches to the nearest region.
        let far = g.attach_pin(Point::new(100, 100)).expect("nonempty");
        assert!(far < g.len());
    }

    #[test]
    fn edge_between_lookup() {
        let g = build_channel_graph(&quad_geometry(), 2.0);
        let e = g.edges[0];
        assert_eq!(g.edge_between(e.a, e.b), Some(0));
        assert_eq!(g.edge_between(e.b, e.a), Some(0));
    }

    #[test]
    fn empty_geometry_gives_single_core_region() {
        // One cell in a core: four side channels plus corners overlap.
        let g = build_channel_graph(
            &PlacedGeometry {
                cells: vec![(TileSet::rect(10, 10), Point::new(-5, -5))],
                core: Rect::from_wh(-15, -15, 30, 30),
            },
            2.0,
        );
        // Four cell-to-border channels exist.
        let cell_border = g
            .nodes
            .iter()
            .filter(|n| (n.region.lo_edge.cell.is_some()) != (n.region.hi_edge.cell.is_some()))
            .count();
        assert!(cell_border >= 4, "{cell_border}");
    }
}
