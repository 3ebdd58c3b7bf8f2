//! Boundary edge extraction for tile sets.
//!
//! The dynamic interconnect-area estimator assigns an interconnect
//! allowance to every *cell edge* (paper eq. 2), and the channel definition
//! step pairs facing cell edges into critical regions (paper §4.1). Both
//! need the exposed boundary segments of a cell's tile union.

use crate::{Span, TileSet};

/// Which way a boundary edge faces (its outward normal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Vertical edge, cell interior to the right (outward normal −x).
    Left,
    /// Vertical edge, cell interior to the left (outward normal +x).
    Right,
    /// Horizontal edge, cell interior above (outward normal −y).
    Bottom,
    /// Horizontal edge, cell interior below (outward normal +y).
    Top,
}

impl Side {
    /// All four sides.
    pub const ALL: [Side; 4] = [Side::Left, Side::Right, Side::Bottom, Side::Top];

    /// Whether the edge itself runs vertically (Left/Right sides).
    #[inline]
    pub const fn is_vertical(self) -> bool {
        matches!(self, Side::Left | Side::Right)
    }

    /// The side facing the opposite way.
    #[inline]
    pub const fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
            Side::Bottom => Side::Top,
            Side::Top => Side::Bottom,
        }
    }
}

/// One maximal straight segment of a tile-set boundary.
///
/// For a vertical edge, `coord` is the x position and `span` the y extent;
/// for a horizontal edge, `coord` is y and `span` is the x extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundaryEdge {
    /// Orientation and outward direction of the edge.
    pub side: Side,
    /// Position along the fixed axis.
    pub coord: i64,
    /// Extent along the edge.
    pub span: Span,
}

impl BoundaryEdge {
    /// Length of the edge.
    #[inline]
    pub fn len(&self) -> i64 {
        self.span.len()
    }

    /// Whether the edge is degenerate (zero length).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.span.is_empty()
    }
}

/// Extracts the exposed boundary edges of a tile set, in cell-local
/// coordinates.
///
/// A segment of a tile edge is part of the boundary exactly when the cell
/// covers one side of it but not the other. Segments are merged per
/// `(side, coord)` into maximal runs.
///
/// # Examples
///
/// ```
/// use twmc_geom::{boundary_edges, Side, TileSet};
///
/// let edges = boundary_edges(&TileSet::rect(4, 3));
/// assert_eq!(edges.len(), 4);
/// assert!(edges.iter().any(|e| e.side == Side::Top && e.coord == 3));
/// ```
pub fn boundary_edges(ts: &TileSet) -> Vec<BoundaryEdge> {
    let mut out = Vec::new();
    let tiles = ts.tiles();

    // Coverage of the vertical strip immediately left / right of x.
    let cover_x = |x: i64, right_of: bool| -> Vec<Span> {
        tiles
            .iter()
            .filter(|t| {
                if right_of {
                    t.lo().x <= x && x < t.hi().x
                } else {
                    t.lo().x < x && x <= t.hi().x
                }
            })
            .map(|t| t.y_span())
            .collect()
    };
    let cover_y = |y: i64, above: bool| -> Vec<Span> {
        tiles
            .iter()
            .filter(|t| {
                if above {
                    t.lo().y <= y && y < t.hi().y
                } else {
                    t.lo().y < y && y <= t.hi().y
                }
            })
            .map(|t| t.x_span())
            .collect()
    };

    let mut xs: Vec<i64> = tiles.iter().flat_map(|t| [t.lo().x, t.hi().x]).collect();
    xs.sort_unstable();
    xs.dedup();
    for x in xs {
        let left_cover = cover_x(x, false);
        let right_cover = cover_x(x, true);
        // Right-facing boundary at x: covered on the left, empty on the right.
        for base in &left_cover {
            for gap in crate::span_difference(*base, &right_cover) {
                out.push(BoundaryEdge {
                    side: Side::Right,
                    coord: x,
                    span: gap,
                });
            }
        }
        // Left-facing boundary at x: covered on the right, empty on the left.
        for base in &right_cover {
            for gap in crate::span_difference(*base, &left_cover) {
                out.push(BoundaryEdge {
                    side: Side::Left,
                    coord: x,
                    span: gap,
                });
            }
        }
    }

    let mut ys: Vec<i64> = tiles.iter().flat_map(|t| [t.lo().y, t.hi().y]).collect();
    ys.sort_unstable();
    ys.dedup();
    for y in ys {
        let below_cover = cover_y(y, false);
        let above_cover = cover_y(y, true);
        for base in &below_cover {
            for gap in crate::span_difference(*base, &above_cover) {
                out.push(BoundaryEdge {
                    side: Side::Top,
                    coord: y,
                    span: gap,
                });
            }
        }
        for base in &above_cover {
            for gap in crate::span_difference(*base, &below_cover) {
                out.push(BoundaryEdge {
                    side: Side::Bottom,
                    coord: y,
                    span: gap,
                });
            }
        }
    }

    merge_edges(out)
}

/// Merges collinear touching edges of the same side into maximal runs.
fn merge_edges(mut edges: Vec<BoundaryEdge>) -> Vec<BoundaryEdge> {
    edges.sort_by_key(|e| (e.side as u8, e.coord, e.span.lo(), e.span.hi()));
    let mut out: Vec<BoundaryEdge> = Vec::with_capacity(edges.len());
    for e in edges {
        if e.is_empty() {
            continue;
        }
        if let Some(last) = out.last_mut() {
            if last.side == e.side && last.coord == e.coord && last.span.hi() >= e.span.lo() {
                last.span = last.span.hull(e.span);
                continue;
            }
        }
        out.push(e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    fn find(edges: &[BoundaryEdge], side: Side) -> Vec<BoundaryEdge> {
        edges.iter().copied().filter(|e| e.side == side).collect()
    }

    #[test]
    fn rectangle_has_four_edges() {
        let edges = boundary_edges(&TileSet::rect(4, 3));
        assert_eq!(edges.len(), 4);
        assert_eq!(
            find(&edges, Side::Left),
            vec![BoundaryEdge {
                side: Side::Left,
                coord: 0,
                span: Span::new(0, 3)
            }]
        );
        assert_eq!(
            find(&edges, Side::Right),
            vec![BoundaryEdge {
                side: Side::Right,
                coord: 4,
                span: Span::new(0, 3)
            }]
        );
        assert_eq!(
            find(&edges, Side::Bottom),
            vec![BoundaryEdge {
                side: Side::Bottom,
                coord: 0,
                span: Span::new(0, 4)
            }]
        );
        assert_eq!(
            find(&edges, Side::Top),
            vec![BoundaryEdge {
                side: Side::Top,
                coord: 3,
                span: Span::new(0, 4)
            }]
        );
    }

    #[test]
    fn split_rectangle_merges_interior() {
        // Two tiles forming a single 4x2 rectangle: the shared edge at x=2
        // must not appear.
        let ts = TileSet::new(vec![Rect::from_wh(0, 0, 2, 2), Rect::from_wh(2, 0, 2, 2)]).unwrap();
        let edges = boundary_edges(&ts);
        assert_eq!(edges.len(), 4, "{edges:?}");
        assert!(edges.iter().all(|e| e.coord != 2 || !e.side.is_vertical()));
        // Top edge is merged into one run of length 4.
        let top = find(&edges, Side::Top);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].span, Span::new(0, 4));
    }

    #[test]
    fn l_shape_has_six_edges() {
        // L-shape: lower arm 4x2, upper arm 2x2 (notch at top-right).
        let ts = TileSet::new(vec![Rect::from_wh(0, 0, 4, 2), Rect::from_wh(0, 2, 2, 2)]).unwrap();
        let edges = boundary_edges(&ts);
        assert_eq!(edges.len(), 6, "{edges:?}");
        // The notch contributes a right edge at x=2 spanning y in [2,4]...
        assert!(edges.contains(&BoundaryEdge {
            side: Side::Right,
            coord: 2,
            span: Span::new(2, 4)
        }));
        // ...and a top edge at y=2 spanning x in [2,4].
        assert!(edges.contains(&BoundaryEdge {
            side: Side::Top,
            coord: 2,
            span: Span::new(2, 4)
        }));
        // The left edge merges across both arms.
        assert!(edges.contains(&BoundaryEdge {
            side: Side::Left,
            coord: 0,
            span: Span::new(0, 4)
        }));
        // Total length = perimeter.
        let perim: i64 = edges.iter().map(|e| e.len()).sum();
        assert_eq!(perim, 16);
    }

    #[test]
    fn u_shape_boundary() {
        // U-shape: two vertical arms joined by a base.
        let ts = TileSet::new(vec![
            Rect::from_wh(0, 0, 6, 2),
            Rect::from_wh(0, 2, 2, 3),
            Rect::from_wh(4, 2, 2, 3),
        ])
        .unwrap();
        let edges = boundary_edges(&ts);
        let perim: i64 = edges.iter().map(|e| e.len()).sum();
        // Outer: 6+5+2+2+5 on the hull walk plus the notch 3+2+3 = 28.
        assert_eq!(perim, 28, "{edges:?}");
        // Inside of the U: a left-facing edge at x=4 and right-facing at x=2.
        assert!(edges.contains(&BoundaryEdge {
            side: Side::Left,
            coord: 4,
            span: Span::new(2, 5)
        }));
        assert!(edges.contains(&BoundaryEdge {
            side: Side::Right,
            coord: 2,
            span: Span::new(2, 5)
        }));
    }

    #[test]
    fn edge_lengths_balance_per_axis() {
        // For any closed rectilinear boundary, total left length equals
        // total right length, and total top equals total bottom.
        let ts = TileSet::new(vec![
            Rect::from_wh(0, 0, 6, 2),
            Rect::from_wh(2, 2, 2, 2),
            Rect::from_wh(0, 4, 6, 1),
        ])
        .unwrap();
        let edges = boundary_edges(&ts);
        let total =
            |s: Side| -> i64 { edges.iter().filter(|e| e.side == s).map(|e| e.len()).sum() };
        assert_eq!(total(Side::Left), total(Side::Right));
        assert_eq!(total(Side::Top), total(Side::Bottom));
    }
}
