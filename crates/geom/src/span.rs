//! One-dimensional closed integer intervals.
//!
//! Spans are the workhorse of channel definition: the common span of two
//! facing cell edges determines the extent of a critical region (paper
//! §4.1), and pin projections are positions within a span.

use core::fmt;

/// A closed interval `[lo, hi]` on the grid, with `lo <= hi`.
///
/// A span with `lo == hi` is a single grid point and has zero length.
///
/// # Examples
///
/// ```
/// use twmc_geom::Span;
///
/// let a = Span::new(0, 10);
/// let b = Span::new(4, 20);
/// assert_eq!(a.intersect(b), Some(Span::new(4, 10)));
/// assert_eq!(a.len(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    lo: i64,
    hi: i64,
}

impl Span {
    /// Creates a span from its endpoints, normalizing the order.
    #[inline]
    pub fn new(a: i64, b: i64) -> Self {
        if a <= b {
            Span { lo: a, hi: b }
        } else {
            Span { lo: b, hi: a }
        }
    }

    /// Lower endpoint.
    #[inline]
    pub const fn lo(self) -> i64 {
        self.lo
    }

    /// Upper endpoint.
    #[inline]
    pub const fn hi(self) -> i64 {
        self.hi
    }

    /// Length `hi - lo` (zero for a degenerate span).
    #[inline]
    pub const fn len(self) -> i64 {
        self.hi - self.lo
    }

    /// Whether the span is a single point.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.hi == self.lo
    }

    /// Midpoint, rounded toward `lo`.
    #[inline]
    pub const fn mid(self) -> i64 {
        self.lo + (self.hi - self.lo) / 2
    }

    /// Whether `v` lies in the closed interval.
    #[inline]
    pub const fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub const fn contains_span(self, other: Span) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Intersection of two closed spans, `None` if they are disjoint.
    ///
    /// Touching spans (sharing one endpoint) intersect in a degenerate
    /// single-point span.
    #[inline]
    pub fn intersect(self, other: Span) -> Option<Span> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Span { lo, hi })
    }

    /// Length of the overlap of the *open* interiors of two spans.
    ///
    /// This is the "common span" used when deciding whether two facing
    /// edges define a critical region: touching at a point does not count.
    #[inline]
    pub fn overlap_len(self, other: Span) -> i64 {
        (self.hi.min(other.hi) - self.lo.max(other.lo)).max(0)
    }

    /// Smallest span covering both.
    #[inline]
    pub fn hull(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Translates the span by `d`.
    #[inline]
    pub const fn shift(self, d: i64) -> Span {
        Span {
            lo: self.lo + d,
            hi: self.hi + d,
        }
    }

    /// Grows the span by `amount` on both ends (shrinks if negative).
    ///
    /// # Panics
    ///
    /// Panics if shrinking would invert the span.
    #[inline]
    pub fn expand(self, amount: i64) -> Span {
        let lo = self.lo - amount;
        let hi = self.hi + amount;
        assert!(lo <= hi, "span inverted by expand({amount})");
        Span { lo, hi }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Subtracts a set of spans from a base span, returning the uncovered parts.
///
/// Used when extracting the exposed boundary edges of a tile set: the parts
/// of a tile edge not covered by neighbouring tiles are boundary.
///
/// The `cover` slice does not need to be sorted or disjoint. Degenerate
/// (single-point) gaps are dropped.
///
/// # Examples
///
/// ```
/// use twmc_geom::{span_difference, Span};
///
/// let gaps = span_difference(Span::new(0, 10), &[Span::new(2, 4), Span::new(6, 8)]);
/// assert_eq!(gaps, vec![Span::new(0, 2), Span::new(4, 6), Span::new(8, 10)]);
/// ```
pub fn span_difference(base: Span, cover: &[Span]) -> Vec<Span> {
    let mut clipped: Vec<Span> = cover
        .iter()
        .filter_map(|s| s.intersect(base))
        .filter(|s| !s.is_empty())
        .collect();
    clipped.sort();
    let mut out = Vec::new();
    let mut cursor = base.lo();
    for s in clipped {
        if s.lo() > cursor {
            out.push(Span::new(cursor, s.lo()));
        }
        cursor = cursor.max(s.hi());
    }
    if cursor < base.hi() {
        out.push(Span::new(cursor, base.hi()));
    }
    out
}

/// Computes the total length of the union of the given spans.
///
/// # Examples
///
/// ```
/// use twmc_geom::{span_union_len, Span};
///
/// assert_eq!(span_union_len(&[Span::new(0, 5), Span::new(3, 8)]), 8);
/// ```
pub fn span_union_len(spans: &[Span]) -> i64 {
    let mut sorted: Vec<Span> = spans.to_vec();
    sorted.sort();
    let mut total = 0;
    let mut cursor = i64::MIN;
    for s in sorted {
        let lo = s.lo().max(cursor);
        if s.hi() > lo {
            total += s.hi() - lo;
        }
        cursor = cursor.max(s.hi());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_order() {
        assert_eq!(Span::new(5, 1), Span::new(1, 5));
    }

    #[test]
    fn intersection() {
        let a = Span::new(0, 10);
        assert_eq!(a.intersect(Span::new(5, 15)), Some(Span::new(5, 10)));
        assert_eq!(a.intersect(Span::new(10, 20)), Some(Span::new(10, 10)));
        assert_eq!(a.intersect(Span::new(11, 20)), None);
    }

    #[test]
    fn overlap_len_open_interior() {
        let a = Span::new(0, 10);
        assert_eq!(a.overlap_len(Span::new(10, 20)), 0);
        assert_eq!(a.overlap_len(Span::new(9, 20)), 1);
        assert_eq!(a.overlap_len(Span::new(-5, -1)), 0);
    }

    #[test]
    fn hull_and_contains() {
        let a = Span::new(0, 4);
        let b = Span::new(8, 9);
        assert_eq!(a.hull(b), Span::new(0, 9));
        assert!(a.hull(b).contains_span(a));
        assert!(a.contains(0) && a.contains(4) && !a.contains(5));
    }

    #[test]
    fn difference_full_cover() {
        assert!(span_difference(Span::new(0, 10), &[Span::new(-1, 11)]).is_empty());
    }

    #[test]
    fn difference_no_cover() {
        assert_eq!(
            span_difference(Span::new(0, 10), &[]),
            vec![Span::new(0, 10)]
        );
        assert_eq!(
            span_difference(Span::new(0, 10), &[Span::new(20, 30)]),
            vec![Span::new(0, 10)]
        );
    }

    #[test]
    fn difference_overlapping_cover() {
        let gaps = span_difference(
            Span::new(0, 10),
            &[Span::new(1, 5), Span::new(4, 6), Span::new(9, 12)],
        );
        assert_eq!(gaps, vec![Span::new(0, 1), Span::new(6, 9)]);
    }

    #[test]
    fn union_len() {
        assert_eq!(span_union_len(&[]), 0);
        assert_eq!(
            span_union_len(&[Span::new(0, 2), Span::new(2, 4), Span::new(1, 3)]),
            4
        );
        assert_eq!(span_union_len(&[Span::new(0, 1), Span::new(5, 7)]), 3);
    }

    #[test]
    fn shift_and_expand() {
        assert_eq!(Span::new(1, 3).shift(10), Span::new(11, 13));
        assert_eq!(Span::new(1, 3).expand(2), Span::new(-1, 5));
    }

    #[test]
    #[should_panic(expected = "span inverted")]
    fn expand_panics_on_inversion() {
        let _ = Span::new(0, 2).expand(-2);
    }
}
