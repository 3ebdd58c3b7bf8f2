//! Axis-aligned rectangles.

use core::fmt;

use crate::{Point, Span};

/// An axis-aligned rectangle `[lo.x, hi.x] × [lo.y, hi.y]`.
///
/// Degenerate rectangles (zero width and/or height) are permitted; they
/// arise as shared boundaries between touching tiles.
///
/// # Examples
///
/// ```
/// use twmc_geom::{Point, Rect};
///
/// let r = Rect::new(Point::new(0, 0), Point::new(4, 3));
/// assert_eq!(r.area(), 12);
/// assert_eq!(r.center(), Point::new(2, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Creates a rectangle from `(x, y)` of the lower-left corner plus
    /// width and height.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative.
    #[inline]
    pub fn from_wh(x: i64, y: i64, w: i64, h: i64) -> Self {
        assert!(w >= 0 && h >= 0, "negative rectangle dimensions {w}x{h}");
        Rect {
            lo: Point::new(x, y),
            hi: Point::new(x + w, y + h),
        }
    }

    /// Creates a rectangle from its horizontal and vertical spans.
    #[inline]
    pub fn from_spans(xs: Span, ys: Span) -> Self {
        Rect {
            lo: Point::new(xs.lo(), ys.lo()),
            hi: Point::new(xs.hi(), ys.hi()),
        }
    }

    /// Lower-left corner.
    #[inline]
    pub const fn lo(self) -> Point {
        self.lo
    }

    /// Upper-right corner.
    #[inline]
    pub const fn hi(self) -> Point {
        self.hi
    }

    /// Horizontal extent.
    #[inline]
    pub fn x_span(self) -> Span {
        Span::new(self.lo.x, self.hi.x)
    }

    /// Vertical extent.
    #[inline]
    pub fn y_span(self) -> Span {
        Span::new(self.lo.y, self.hi.y)
    }

    /// Width.
    #[inline]
    pub const fn width(self) -> i64 {
        self.hi.x - self.lo.x
    }

    /// Height.
    #[inline]
    pub const fn height(self) -> i64 {
        self.hi.y - self.lo.y
    }

    /// Area.
    #[inline]
    pub const fn area(self) -> i64 {
        self.width() * self.height()
    }

    /// Half the perimeter (`width + height`) — the bounding-box wirelength
    /// contribution of a net spanning this rectangle.
    #[inline]
    pub const fn half_perimeter(self) -> i64 {
        self.width() + self.height()
    }

    /// Center, rounded toward the lower-left corner.
    #[inline]
    pub fn center(self) -> Point {
        Point::new(self.x_span().mid(), self.y_span().mid())
    }

    /// Whether the rectangle has zero area.
    #[inline]
    pub const fn is_degenerate(self) -> bool {
        self.width() == 0 || self.height() == 0
    }

    /// Whether `p` lies within the closed rectangle.
    #[inline]
    pub const fn contains(self, p: Point) -> bool {
        self.lo.x <= p.x && p.x <= self.hi.x && self.lo.y <= p.y && p.y <= self.hi.y
    }

    /// Whether `other` lies entirely within `self`.
    #[inline]
    pub const fn contains_rect(self, other: Rect) -> bool {
        self.contains(other.lo) && self.contains(other.hi)
    }

    /// Closed intersection; `None` if disjoint. Touching rectangles
    /// intersect in a degenerate rectangle.
    #[inline]
    pub fn intersect(self, other: Rect) -> Option<Rect> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo.x <= hi.x && lo.y <= hi.y).then_some(Rect { lo, hi })
    }

    /// Area of overlap of the open interiors — the `O_t` tile-overlap
    /// function of the paper's overlap penalty (eq. 8).
    ///
    /// Touching rectangles overlap zero.
    #[inline]
    pub fn overlap_area(self, other: Rect) -> i64 {
        let w = (self.hi.x.min(other.hi.x) - self.lo.x.max(other.lo.x)).max(0);
        let h = (self.hi.y.min(other.hi.y) - self.lo.y.max(other.lo.y)).max(0);
        w * h
    }

    /// Smallest rectangle covering both.
    #[inline]
    pub fn hull(self, other: Rect) -> Rect {
        Rect {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Translates by `d`.
    #[inline]
    pub fn translate(self, d: Point) -> Rect {
        Rect {
            lo: self.lo + d,
            hi: self.hi + d,
        }
    }

    /// Expands each side outward by the given (non-negative) amounts.
    ///
    /// This is how the dynamic interconnect-area estimator appends a border
    /// around a tile before overlap evaluation (paper §2.2, eq. 2).
    #[inline]
    pub fn expand_sides(self, left: i64, right: i64, bottom: i64, top: i64) -> Rect {
        debug_assert!(
            left >= 0 && right >= 0 && bottom >= 0 && top >= 0,
            "expansion amounts must be non-negative"
        );
        Rect {
            lo: Point::new(self.lo.x - left, self.lo.y - bottom),
            hi: Point::new(self.hi.x + right, self.hi.y + top),
        }
    }

    /// Expands uniformly by `amount` on every side (may shrink if negative,
    /// clamping at the center).
    #[inline]
    pub fn expand(self, amount: i64) -> Rect {
        if amount >= 0 {
            return self.expand_sides(amount, amount, amount, amount);
        }
        let shrink = (-amount).min(self.width() / 2).min(self.height() / 2);
        Rect {
            lo: Point::new(self.lo.x + shrink, self.lo.y + shrink),
            hi: Point::new(self.hi.x - shrink, self.hi.y - shrink),
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn corner_normalization() {
        assert_eq!(Rect::new(Point::new(4, 3), Point::new(0, 0)), r(0, 0, 4, 3));
    }

    #[test]
    fn dimensions() {
        let a = r(1, 2, 5, 9);
        assert_eq!(a.width(), 4);
        assert_eq!(a.height(), 7);
        assert_eq!(a.area(), 28);
        assert_eq!(a.half_perimeter(), 11);
        assert_eq!(a.center(), Point::new(3, 5));
    }

    #[test]
    fn overlap_touching_is_zero() {
        let a = r(0, 0, 4, 4);
        let b = r(4, 0, 8, 4);
        assert_eq!(a.overlap_area(b), 0);
        assert!(a.intersect(b).unwrap().is_degenerate());
    }

    #[test]
    fn overlap_partial() {
        let a = r(0, 0, 4, 4);
        let b = r(2, 2, 6, 6);
        assert_eq!(a.overlap_area(b), 4);
        assert_eq!(b.overlap_area(a), 4);
        assert_eq!(a.intersect(b), Some(r(2, 2, 4, 4)));
    }

    #[test]
    fn overlap_containment() {
        let a = r(0, 0, 10, 10);
        let b = r(2, 2, 4, 4);
        assert_eq!(a.overlap_area(b), b.area());
        assert!(a.contains_rect(b));
        assert!(!b.contains_rect(a));
    }

    #[test]
    fn disjoint() {
        let a = r(0, 0, 1, 1);
        let b = r(5, 5, 6, 6);
        assert_eq!(a.intersect(b), None);
        assert_eq!(a.overlap_area(b), 0);
        assert_eq!(a.hull(b), r(0, 0, 6, 6));
    }

    #[test]
    fn translate_and_expand() {
        let a = r(0, 0, 2, 2);
        assert_eq!(a.translate(Point::new(3, 4)), r(3, 4, 5, 6));
        assert_eq!(a.expand_sides(1, 2, 3, 4), r(-1, -3, 4, 6));
        assert_eq!(a.expand(-5), r(1, 1, 1, 1)); // clamps at center
    }

    #[test]
    fn from_wh_and_spans() {
        assert_eq!(Rect::from_wh(1, 2, 3, 4), r(1, 2, 4, 6));
        assert_eq!(
            Rect::from_spans(Span::new(1, 4), Span::new(2, 6)),
            r(1, 2, 4, 6)
        );
    }
}
