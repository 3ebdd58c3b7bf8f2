//! Integer grid points and displacement vectors.
//!
//! TimberWolfMC works on the integer grid inherent in the netlist
//! specification of cell geometry and pin locations (paper §3.2.3), so all
//! coordinates are [`i64`].

use core::fmt;
use core::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// A point on the layout grid.
///
/// # Examples
///
/// ```
/// use twmc_geom::Point;
///
/// let p = Point::new(3, -4);
/// assert_eq!(p + Point::new(1, 1), Point::new(4, -3));
/// assert_eq!(p.manhattan(Point::new(0, 0)), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: i64,
    /// Vertical coordinate.
    pub y: i64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }

    /// Manhattan (L1) distance to `other`.
    ///
    /// This is the metric used for interconnect length throughout the
    /// package, since routing is rectilinear.
    #[inline]
    pub fn manhattan(self, other: Point) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i64, i64)> for Point {
    #[inline]
    fn from((x, y): (i64, i64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(2, 3);
        let b = Point::new(-1, 5);
        assert_eq!(a + b, Point::new(1, 8));
        assert_eq!(a - b, Point::new(3, -2));
        assert_eq!(-a, Point::new(-2, -3));
        let mut c = a;
        c += b;
        assert_eq!(c, Point::new(1, 8));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Point::new(0, 0).manhattan(Point::new(3, 4)), 7);
        assert_eq!(Point::new(-2, -2).manhattan(Point::new(2, 2)), 8);
        assert_eq!(Point::new(5, 5).manhattan(Point::new(5, 5)), 0);
    }

    #[test]
    fn min_max() {
        let a = Point::new(1, 7);
        let b = Point::new(4, 2);
        assert_eq!(a.min(b), Point::new(1, 2));
        assert_eq!(a.max(b), Point::new(4, 7));
    }

    #[test]
    fn display_and_from_tuple() {
        let p: Point = (3, 4).into();
        assert_eq!(format!("{p}"), "(3, 4)");
    }
}
