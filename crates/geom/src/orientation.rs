//! The eight cell orientations (the dihedral group D4).
//!
//! TimberWolfMC considers all eight possible orientations for each cell
//! (paper §1), because the TEIC calculation uses exact pin locations rather
//! than cell centers. Orientation names follow the common layout-tool
//! convention: four rotations and four mirrored rotations.
//!
//! An orientation acts on *cell-local* coordinates: the unoriented cell
//! occupies `[0, w] × [0, h]`, and the oriented cell occupies
//! `[0, w'] × [0, h']` where `(w', h')` equals `(w, h)` or `(h, w)`.

use crate::{Point, Rect};

/// One of the eight orientations of the dihedral group D4.
///
/// `R*` are counter-clockwise rotations; `MX` mirrors about the x-axis
/// (flips vertically); `MY` mirrors about the y-axis (flips horizontally);
/// `MX90`/`MY90` are the mirrors followed by a 90° rotation.
///
/// # Examples
///
/// ```
/// use twmc_geom::{Orientation, Point};
///
/// // A pin at (4, 1) on a 5x2 cell, rotated 90° CCW, lands at (1, 4) on
/// // the resulting 2x5 cell.
/// let p = Orientation::R90.apply(Point::new(4, 1), 5, 2);
/// assert_eq!(p, Point::new(1, 4));
/// assert_eq!(Orientation::R90.apply_dims(5, 2), (2, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// Identity.
    #[default]
    R0,
    /// 90° counter-clockwise rotation.
    R90,
    /// 180° rotation.
    R180,
    /// 270° counter-clockwise rotation.
    R270,
    /// Mirror about the x-axis (y coordinates flip).
    MX,
    /// Mirror about the y-axis (x coordinates flip).
    MY,
    /// Mirror about the x-axis, then rotate 90° CCW (transpose).
    MX90,
    /// Mirror about the y-axis, then rotate 90° CCW (anti-transpose).
    MY90,
}

impl Orientation {
    /// All eight orientations, in a fixed order.
    pub const ALL: [Orientation; 8] = [
        Orientation::R0,
        Orientation::R90,
        Orientation::R180,
        Orientation::R270,
        Orientation::MX,
        Orientation::MY,
        Orientation::MX90,
        Orientation::MY90,
    ];

    /// The signed-permutation matrix `[[a, b], [c, d]]` of the linear part,
    /// mapping `(x, y)` to `(a·x + b·y, c·x + d·y)`.
    const fn matrix(self) -> [[i8; 2]; 2] {
        match self {
            Orientation::R0 => [[1, 0], [0, 1]],
            Orientation::R90 => [[0, -1], [1, 0]],
            Orientation::R180 => [[-1, 0], [0, -1]],
            Orientation::R270 => [[0, 1], [-1, 0]],
            Orientation::MX => [[1, 0], [0, -1]],
            Orientation::MY => [[-1, 0], [0, 1]],
            // MX then R90: (x,y) -> (x,-y) -> (y, x)
            Orientation::MX90 => [[0, 1], [1, 0]],
            // MY then R90: (x,y) -> (-x,y) -> (-y, -x)
            Orientation::MY90 => [[0, -1], [-1, 0]],
        }
    }

    fn from_matrix(m: [[i8; 2]; 2]) -> Orientation {
        for o in Orientation::ALL {
            if o.matrix() == m {
                return o;
            }
        }
        unreachable!("every signed permutation matrix is a D4 element")
    }

    /// Whether this orientation exchanges the cell's width and height.
    ///
    /// Composing a cell's orientation with an axis-swapping element effects
    /// the "aspect-ratio inversion" used by the `generate` function when a
    /// displacement fails for the current aspect ratio (paper §3.2.1).
    #[inline]
    pub const fn swaps_axes(self) -> bool {
        matches!(
            self,
            Orientation::R90 | Orientation::R270 | Orientation::MX90 | Orientation::MY90
        )
    }

    /// Dimensions of the oriented cell given unoriented dimensions.
    #[inline]
    pub const fn apply_dims(self, w: i64, h: i64) -> (i64, i64) {
        if self.swaps_axes() {
            (h, w)
        } else {
            (w, h)
        }
    }

    /// Maps a cell-local point of the unoriented `w × h` cell to its
    /// location in the oriented cell (whose extent is
    /// `[0, w'] × [0, h']` with `(w', h') = apply_dims(w, h)`).
    pub fn apply(self, p: Point, w: i64, h: i64) -> Point {
        let [[a, b], [c, d]] = self.matrix();
        let lin = |r0: i8, r1: i8| -> i64 { r0 as i64 * p.x + r1 as i64 * p.y };
        // Shift each output component so the image of [0,w]x[0,h] starts
        // at zero: a negated x-source adds w, a negated y-source adds h.
        let off = |r0: i8, r1: i8| -> i64 {
            if r0 < 0 {
                w
            } else if r1 < 0 {
                h
            } else {
                0
            }
        };
        Point::new(lin(a, b) + off(a, b), lin(c, d) + off(c, d))
    }

    /// Maps a cell-local rectangle (a geometry tile) of the unoriented cell.
    pub fn apply_rect(self, r: Rect, w: i64, h: i64) -> Rect {
        Rect::new(self.apply(r.lo(), w, h), self.apply(r.hi(), w, h))
    }

    /// Composition: first apply `self`, then apply `then`.
    ///
    /// The composite is again one of the eight orientations (group closure).
    pub fn then(self, then: Orientation) -> Orientation {
        let m1 = self.matrix();
        let m2 = then.matrix();
        let mut out = [[0i8; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = m2[i][0] * m1[0][j] + m2[i][1] * m1[1][j];
            }
        }
        Orientation::from_matrix(out)
    }

    /// The inverse orientation: `o.then(o.inverse()) == R0`. The quarter
    /// turns undo each other; every other element is an involution.
    #[inline]
    pub const fn inverse(self) -> Orientation {
        match self {
            Orientation::R90 => Orientation::R270,
            Orientation::R270 => Orientation::R90,
            other => other,
        }
    }

    /// Where a cell side (identified by its outward normal) lands under
    /// this orientation: e.g. the left side of a cell rotated 90° CCW
    /// becomes the bottom side.
    pub fn apply_side(self, side: crate::Side) -> crate::Side {
        use crate::Side;
        let (nx, ny): (i64, i64) = match side {
            Side::Left => (-1, 0),
            Side::Right => (1, 0),
            Side::Bottom => (0, -1),
            Side::Top => (0, 1),
        };
        let [[a, b], [c, d]] = self.matrix();
        let mx = a as i64 * nx + b as i64 * ny;
        let my = c as i64 * nx + d as i64 * ny;
        match (mx, my) {
            (-1, 0) => Side::Left,
            (1, 0) => Side::Right,
            (0, -1) => Side::Bottom,
            (0, 1) => Side::Top,
            _ => unreachable!("signed permutation maps axes to axes"),
        }
    }

    /// This orientation composed with a 90° rotation — the canonical
    /// aspect-ratio-inverting alternative tried by `generate` when a move
    /// fails with the current orientation (paper Fig. 2 discussion).
    #[inline]
    pub fn aspect_inverted(self) -> Orientation {
        self.then(Orientation::R90)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_distinct_elements() {
        for (i, a) in Orientation::ALL.iter().enumerate() {
            for b in &Orientation::ALL[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.matrix(), b.matrix());
            }
        }
    }

    #[test]
    fn rotations_compose() {
        use Orientation::*;
        assert_eq!(R90.then(R90), R180);
        assert_eq!(R90.then(R180), R270);
        assert_eq!(R180.then(R180), R0);
        assert_eq!(R270.then(R90), R0);
        assert_eq!(MX.then(MX), R0);
        assert_eq!(MY.then(MY), R0);
        assert_eq!(MX.then(R90), MX90);
        assert_eq!(MY.then(R90), MY90);
    }

    #[test]
    fn inverses() {
        for o in Orientation::ALL {
            assert_eq!(o.then(o.inverse()), Orientation::R0);
            assert_eq!(o.inverse().then(o), Orientation::R0);
        }
    }

    #[test]
    fn apply_corners_stay_in_bounds() {
        let (w, h) = (7, 3);
        for o in Orientation::ALL {
            let (ww, hh) = o.apply_dims(w, h);
            for p in [
                Point::new(0, 0),
                Point::new(w, 0),
                Point::new(0, h),
                Point::new(w, h),
                Point::new(3, 2),
            ] {
                let q = o.apply(p, w, h);
                assert!(
                    (0..=ww).contains(&q.x) && (0..=hh).contains(&q.y),
                    "{o:?} maps {p} out of bounds to {q}"
                );
            }
        }
    }

    #[test]
    fn apply_matches_known_values() {
        use Orientation::*;
        let (w, h) = (5, 2);
        let p = Point::new(4, 1);
        assert_eq!(R0.apply(p, w, h), Point::new(4, 1));
        assert_eq!(R90.apply(p, w, h), Point::new(1, 4)); // (-y,x)+(h,0)
        assert_eq!(R180.apply(p, w, h), Point::new(1, 1));
        assert_eq!(R270.apply(p, w, h), Point::new(1, 1).min(Point::new(1, 1)));
        assert_eq!(R270.apply(p, w, h), Point::new(1, 1));
        assert_eq!(MX.apply(p, w, h), Point::new(4, 1).min(Point::new(4, 1)));
        assert_eq!(MX.apply(p, w, h), Point::new(4, h - 1));
        assert_eq!(MY.apply(p, w, h), Point::new(w - 4, 1));
        assert_eq!(MX90.apply(p, w, h), Point::new(1, 4)); // transpose
        assert_eq!(MY90.apply(p, w, h), Point::new(h - 1, w - 4));
    }

    #[test]
    fn apply_agrees_with_composition() {
        let (w, h) = (6, 4);
        let p = Point::new(2, 3);
        for a in Orientation::ALL {
            let (w1, h1) = a.apply_dims(w, h);
            for b in Orientation::ALL {
                let via_steps = b.apply(a.apply(p, w, h), w1, h1);
                let via_compose = a.then(b).apply(p, w, h);
                assert_eq!(via_steps, via_compose, "{a:?} then {b:?}");
            }
        }
    }

    #[test]
    fn aspect_inverted_swaps_dims() {
        for o in Orientation::ALL {
            assert_ne!(o.swaps_axes(), o.aspect_inverted().swaps_axes());
        }
    }

    #[test]
    fn apply_side_matches_geometry() {
        use crate::{boundary_edges, Side, TileSet};
        // For every orientation, the boundary edge that was on `side` of
        // the unoriented cell must land on `apply_side(side)` of the
        // oriented cell. Use an asymmetric cell so sides are distinct.
        let cell = TileSet::rect(7, 3);
        for o in Orientation::ALL {
            let rotated = cell.oriented(o);
            for side in Side::ALL {
                let mapped = o.apply_side(side);
                // The total edge length on `side` equals the total on
                // `mapped` after orientation.
                let len_before: i64 = boundary_edges(&cell)
                    .iter()
                    .filter(|e| e.side == side)
                    .map(|e| e.len())
                    .sum();
                let len_after: i64 = boundary_edges(&rotated)
                    .iter()
                    .filter(|e| e.side == mapped)
                    .map(|e| e.len())
                    .sum();
                assert_eq!(len_before, len_after, "{o:?} {side:?}->{mapped:?}");
            }
        }
        // Spot checks.
        assert_eq!(Orientation::R90.apply_side(Side::Left), Side::Bottom);
        assert_eq!(Orientation::R90.apply_side(Side::Bottom), Side::Right);
        assert_eq!(Orientation::MY.apply_side(Side::Left), Side::Right);
        assert_eq!(Orientation::MX.apply_side(Side::Top), Side::Bottom);
    }

    #[test]
    fn apply_rect_preserves_area() {
        let (w, h) = (9, 5);
        let r = Rect::from_wh(1, 2, 3, 2);
        for o in Orientation::ALL {
            let q = o.apply_rect(r, w, h);
            assert_eq!(q.area(), r.area(), "{o:?}");
        }
    }
}
