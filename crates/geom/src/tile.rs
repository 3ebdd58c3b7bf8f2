//! Tile sets: rectilinear cell areas stored as unions of non-overlapping
//! rectangular tiles.
//!
//! The paper stores the area occupied by each rectilinear cell as a set of
//! one or more non-overlapping rectangular *tiles* (§3.1.2); the overlap
//! function `O(i, j)` between two cells is the sum of pairwise tile
//! intersections (eq. 8).

use crate::{Orientation, Point, Rect};

/// A union of non-overlapping axis-aligned rectangles, in cell-local
/// coordinates with the bounding box anchored at the origin.
///
/// # Examples
///
/// ```
/// use twmc_geom::{Rect, TileSet};
///
/// // An L-shaped cell as two tiles.
/// let l = TileSet::new(vec![
///     Rect::from_wh(0, 0, 4, 2),
///     Rect::from_wh(0, 2, 2, 2),
/// ]).unwrap();
/// assert_eq!(l.area(), 12);
/// assert_eq!(l.bbox(), Rect::from_wh(0, 0, 4, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TileSet {
    tiles: Vec<Rect>,
    bbox: Rect,
}

/// Error building a [`TileSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileSetError {
    /// The tile list was empty.
    Empty,
    /// Two tiles (given by index) have interiors that overlap.
    Overlapping(usize, usize),
    /// A tile has zero area.
    Degenerate(usize),
}

impl core::fmt::Display for TileSetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TileSetError::Empty => write!(f, "tile set must contain at least one tile"),
            TileSetError::Overlapping(i, j) => {
                write!(f, "tiles {i} and {j} have overlapping interiors")
            }
            TileSetError::Degenerate(i) => write!(f, "tile {i} has zero area"),
        }
    }
}

impl std::error::Error for TileSetError {}

impl TileSet {
    /// Builds a tile set from non-overlapping tiles, normalizing the
    /// coordinates so the bounding box starts at the origin.
    ///
    /// # Errors
    ///
    /// Returns an error if `tiles` is empty, any tile is degenerate, or two
    /// tiles overlap in their interiors (touching is fine).
    pub fn new(tiles: Vec<Rect>) -> Result<Self, TileSetError> {
        if tiles.is_empty() {
            return Err(TileSetError::Empty);
        }
        for (i, t) in tiles.iter().enumerate() {
            if t.is_degenerate() {
                return Err(TileSetError::Degenerate(i));
            }
            for (j, u) in tiles.iter().enumerate().skip(i + 1) {
                if t.overlap_area(*u) > 0 {
                    return Err(TileSetError::Overlapping(i, j));
                }
            }
        }
        let bbox = tiles[1..].iter().fold(tiles[0], |acc, t| acc.hull(*t));
        let shift = -bbox.lo();
        let tiles = tiles
            .into_iter()
            .map(|t| t.translate(shift))
            .collect::<Vec<_>>();
        let bbox = bbox.translate(shift);
        Ok(TileSet { tiles, bbox })
    }

    /// A single `w × h` rectangular cell.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is not positive.
    pub fn rect(w: i64, h: i64) -> Self {
        let mut out = TileSet {
            tiles: Vec::with_capacity(1),
            bbox: Rect::from_wh(0, 0, 0, 0),
        };
        out.set_rect(w, h);
        out
    }

    /// Overwrites this set with a single `w × h` rectangle, reusing its
    /// tile buffer: the in-place form of [`TileSet::rect`].
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is not positive.
    pub fn set_rect(&mut self, w: i64, h: i64) {
        assert!(
            w > 0 && h > 0,
            "cell dimensions must be positive, got {w}x{h}"
        );
        let r = Rect::from_wh(0, 0, w, h);
        self.tiles.clear();
        self.tiles.push(r);
        self.bbox = r;
    }

    /// The tiles, in cell-local coordinates.
    #[inline]
    pub fn tiles(&self) -> &[Rect] {
        &self.tiles
    }

    /// Bounding box (anchored at the origin).
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Width of the bounding box.
    #[inline]
    pub fn width(&self) -> i64 {
        self.bbox.width()
    }

    /// Height of the bounding box.
    #[inline]
    pub fn height(&self) -> i64 {
        self.bbox.height()
    }

    /// Total tile area (the cell area).
    pub fn area(&self) -> i64 {
        self.tiles.iter().map(|t| t.area()).sum()
    }

    /// Whether the cell-local point lies inside (or on the boundary of)
    /// some tile.
    pub fn contains(&self, p: Point) -> bool {
        self.tiles.iter().any(|t| t.contains(p))
    }

    /// The tile set under the given orientation (tiles transformed, bbox
    /// dimensions possibly swapped).
    pub fn oriented(&self, o: Orientation) -> TileSet {
        let mut out = TileSet {
            tiles: Vec::with_capacity(self.tiles.len()),
            bbox: self.bbox,
        };
        out.set_oriented(self, o);
        out
    }

    /// Overwrites this set with `src` under orientation `o`, reusing its
    /// tile buffer: the in-place form of [`TileSet::oriented`].
    pub fn set_oriented(&mut self, src: &TileSet, o: Orientation) {
        let (w, h) = (src.width(), src.height());
        self.tiles.clear();
        self.tiles
            .extend(src.tiles.iter().map(|t| o.apply_rect(*t, w, h)));
        let (ww, hh) = o.apply_dims(w, h);
        self.bbox = Rect::from_wh(0, 0, ww, hh);
    }

    /// Overlap area between `self` placed with its bbox lower-left corner
    /// at `at` and `other` placed at `other_at` — the paper's `O(i, j)`
    /// (eq. 8) without expansion.
    pub fn overlap_area_at(&self, at: Point, other: &TileSet, other_at: Point) -> i64 {
        // Cheap bbox rejection first.
        if self
            .bbox
            .translate(at)
            .overlap_area(other.bbox.translate(other_at))
            == 0
        {
            return 0;
        }
        let mut total = 0;
        for t in &self.tiles {
            let tt = t.translate(at);
            for u in &other.tiles {
                total += tt.overlap_area(u.translate(other_at));
            }
        }
        total
    }

    /// Overlap area with per-cell *expanded* tiles: each cell's tiles are
    /// grown outward by its four per-side interconnect allowances before
    /// intersection, as the dynamic estimator prescribes (paper §2.2).
    ///
    /// `exp` order is `(left, right, bottom, top)`.
    ///
    /// The expanded bboxes are intersected first: when they are disjoint
    /// no tiles can meet, and when both sets hold a single tile that tile
    /// *is* the bbox, so their intersection is the answer.
    #[allow(clippy::too_many_arguments)]
    pub fn expanded_overlap_area_at(
        &self,
        at: Point,
        exp: (i64, i64, i64, i64),
        other: &TileSet,
        other_at: Point,
        other_exp: (i64, i64, i64, i64),
    ) -> i64 {
        let grow = |r: Rect, e: (i64, i64, i64, i64)| r.expand_sides(e.0, e.1, e.2, e.3);
        let self_bb = grow(self.bbox.translate(at), exp);
        let other_bb = grow(other.bbox.translate(other_at), other_exp);
        let bb_overlap = self_bb.overlap_area(other_bb);
        if bb_overlap == 0 || (self.tiles.len() == 1 && other.tiles.len() == 1) {
            return bb_overlap;
        }
        let mut total = 0;
        for t in &self.tiles {
            let tt = grow(t.translate(at), exp);
            for u in &other.tiles {
                total += tt.overlap_area(grow(u.translate(other_at), other_exp));
            }
        }
        total
    }

    /// Sum of the perimeters of the exposed boundary of the union.
    ///
    /// Used for the circuit-average pin density `D̄_p` (paper §2.2 factor 3),
    /// which divides the total pin count by the sum of cell perimeters.
    pub fn perimeter(&self) -> i64 {
        crate::edge::boundary_edges(self)
            .iter()
            .map(|e| e.span.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_input() {
        assert_eq!(TileSet::new(vec![]), Err(TileSetError::Empty));
        assert_eq!(
            TileSet::new(vec![Rect::from_wh(0, 0, 0, 5)]),
            Err(TileSetError::Degenerate(0))
        );
        assert_eq!(
            TileSet::new(vec![Rect::from_wh(0, 0, 4, 4), Rect::from_wh(2, 2, 4, 4)]),
            Err(TileSetError::Overlapping(0, 1))
        );
    }

    #[test]
    fn touching_tiles_allowed() {
        let ts = TileSet::new(vec![Rect::from_wh(0, 0, 2, 2), Rect::from_wh(2, 0, 2, 2)]).unwrap();
        assert_eq!(ts.area(), 8);
        assert_eq!(ts.bbox(), Rect::from_wh(0, 0, 4, 2));
    }

    #[test]
    fn normalizes_to_origin() {
        let ts = TileSet::new(vec![Rect::from_wh(10, 20, 3, 4)]).unwrap();
        assert_eq!(ts.bbox(), Rect::from_wh(0, 0, 3, 4));
    }

    #[test]
    fn rect_constructor() {
        let ts = TileSet::rect(5, 3);
        assert_eq!(ts.area(), 15);
        assert_eq!(ts.width(), 5);
        assert_eq!(ts.height(), 3);
        assert!(ts.contains(Point::new(5, 3)));
        assert!(!ts.contains(Point::new(6, 3)));
    }

    #[test]
    fn overlap_between_rect_cells() {
        let a = TileSet::rect(4, 4);
        let b = TileSet::rect(4, 4);
        assert_eq!(a.overlap_area_at(Point::new(0, 0), &b, Point::new(2, 2)), 4);
        assert_eq!(a.overlap_area_at(Point::new(0, 0), &b, Point::new(4, 0)), 0);
        assert_eq!(
            a.overlap_area_at(Point::new(0, 0), &b, Point::new(0, 0)),
            16
        );
    }

    #[test]
    fn overlap_with_l_shape_respects_notch() {
        // L-shape with the notch at top-right.
        let l = TileSet::new(vec![Rect::from_wh(0, 0, 4, 2), Rect::from_wh(0, 2, 2, 2)]).unwrap();
        let b = TileSet::rect(2, 2);
        // Placed in the notch: no overlap.
        assert_eq!(l.overlap_area_at(Point::new(0, 0), &b, Point::new(2, 2)), 0);
        // Placed over the lower arm: full overlap.
        assert_eq!(l.overlap_area_at(Point::new(0, 0), &b, Point::new(2, 0)), 4);
    }

    #[test]
    fn expanded_overlap() {
        let a = TileSet::rect(4, 4);
        let b = TileSet::rect(4, 4);
        // Touching cells, 1 unit of allowance each side: overlap band 2 wide.
        let e = (1, 1, 1, 1);
        assert_eq!(
            a.expanded_overlap_area_at(Point::new(0, 0), e, &b, Point::new(4, 0), e),
            2 * 6
        );
        // Far enough apart that even expanded tiles clear.
        assert_eq!(
            a.expanded_overlap_area_at(Point::new(0, 0), e, &b, Point::new(6, 0), e),
            0
        );
    }

    #[test]
    fn oriented_preserves_area() {
        let l = TileSet::new(vec![Rect::from_wh(0, 0, 6, 2), Rect::from_wh(0, 2, 2, 3)]).unwrap();
        for o in Orientation::ALL {
            let t = l.oriented(o);
            assert_eq!(t.area(), l.area(), "{o:?}");
            let (w, h) = o.apply_dims(l.width(), l.height());
            assert_eq!((t.width(), t.height()), (w, h), "{o:?}");
        }
    }

    #[test]
    fn perimeter_of_rect_and_l() {
        assert_eq!(TileSet::rect(4, 3).perimeter(), 14);
        let l = TileSet::new(vec![Rect::from_wh(0, 0, 4, 2), Rect::from_wh(0, 2, 2, 2)]).unwrap();
        // L-shape perimeter: 4+2+2+2+2+4 = 16.
        assert_eq!(l.perimeter(), 16);
    }
}
