//! Uniform bin-grid spatial index over expanded cell bounding boxes.
//!
//! `PlacementState::group_overlap` is the stage-1 hot path: it runs up to
//! twice per `generate` attempt, millions of times per run. A full scan over
//! all `N` cells per query (the obvious implementation) makes every move
//! O(N); the TimberWolf lineage instead keeps cells binned by position so
//! an overlap query touches only bin-neighbors. This module is that
//! index: each cell is registered in every bin its *expanded* bounding
//! box (placed bbox grown by the per-side interconnect expansions)
//! intersects, and keeps that rect next to its bin range. A query takes
//! a rect, not a cell, so a move attempt can ask about its cells' live
//! footprints while the index still holds their committed ones.
//!
//! Exactness: expanded tiles are subsets of the expanded bounding box, so
//! any pair with nonzero `O(i,j)` has expanded bboxes overlapping with
//! positive area. Bin coordinates are a monotone (clamped) function of
//! geometry coordinates, so such bboxes always share at least one bin;
//! the query reports every one of them once, and the i64 overlap sum over
//! them equals the full-scan sum term for term. Cells straying outside
//! the binned region (the core, which displacement targets are clamped
//! to) land in the border bins, preserving that property.

use twmc_geom::{Point, Rect};

/// Sentinel range meaning "not currently inserted" (`lo > hi`).
const EMPTY: (u32, u32, u32, u32) = (1, 0, 1, 0);

/// One cell's registration: the rect it was binned under and the
/// inclusive bin range `(bx0, bx1, by0, by1)` that rect covers.
#[derive(Debug, Clone, Copy)]
struct Entry {
    range: (u32, u32, u32, u32),
    rect: Rect,
}

/// Whether two rects overlap with positive area (touching ones do not).
#[inline]
fn overlaps(a: Rect, b: Rect) -> bool {
    a.lo().x < b.hi().x && b.lo().x < a.hi().x && a.lo().y < b.hi().y && b.lo().y < a.hi().y
}

/// The bin grid: cell ids bucketed by expanded-bbox coverage.
#[derive(Debug, Clone)]
pub(crate) struct BinGrid {
    origin: Point,
    bin_w: i64,
    bin_h: i64,
    nx: u32,
    ny: u32,
    bins: Vec<Vec<u32>>,
    /// Per-cell registration, indexed by cell id.
    entries: Vec<Entry>,
    /// Wholesale [`BinGrid::rebuild`] calls (telemetry counter).
    full_rebuilds: u64,
    /// [`BinGrid::update`] calls that actually re-binned a cell.
    updates: u64,
}

impl BinGrid {
    /// Builds the grid over `area` with bins sized near `target_bin`
    /// (typically the mean registered rect's dimension, so a rect covers
    /// a handful of bins), and registers every rect of `rects`.
    pub fn build(area: Rect, target_bin: i64, rects: &[Rect]) -> Self {
        let n = rects.len().max(1);
        // Cap the axis resolution so the bin count stays O(N) even when
        // cells are tiny relative to the core.
        let max_axis = ((4.0 * (n as f64).sqrt()).ceil() as i64).clamp(1, 512);
        let t = target_bin.max(1);
        let nx = (area.width() / t).clamp(1, max_axis) as u32;
        let ny = (area.height() / t).clamp(1, max_axis) as u32;
        let mut grid = BinGrid {
            origin: area.lo(),
            bin_w: (area.width() / nx as i64).max(1),
            bin_h: (area.height() / ny as i64).max(1),
            nx,
            ny,
            bins: vec![Vec::new(); (nx * ny) as usize],
            entries: Vec::new(),
            full_rebuilds: 0,
            updates: 0,
        };
        grid.register_all(rects);
        grid
    }

    /// The inclusive bin range covered by `r`, clamped to the grid.
    fn range_for(&self, r: Rect) -> (u32, u32, u32, u32) {
        let bx = |x: i64| {
            ((x - self.origin.x).div_euclid(self.bin_w)).clamp(0, self.nx as i64 - 1) as u32
        };
        let by = |y: i64| {
            ((y - self.origin.y).div_euclid(self.bin_h)).clamp(0, self.ny as i64 - 1) as u32
        };
        (bx(r.lo().x), bx(r.hi().x), by(r.lo().y), by(r.hi().y))
    }

    #[inline]
    fn bin(&self, bx: u32, by: u32) -> usize {
        (by * self.nx + bx) as usize
    }

    fn insert(&mut self, cell: usize, range: (u32, u32, u32, u32)) {
        let (bx0, bx1, by0, by1) = range;
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                let b = self.bin(bx, by);
                self.bins[b].push(cell as u32);
            }
        }
        self.entries[cell].range = range;
    }

    fn remove(&mut self, cell: usize) {
        let (bx0, bx1, by0, by1) = self.entries[cell].range;
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                let b = self.bin(bx, by);
                let id = cell as u32;
                let pos = self.bins[b]
                    .iter()
                    .position(|&c| c == id)
                    .expect("indexed cell present in its bins");
                self.bins[b].swap_remove(pos);
            }
        }
        self.entries[cell].range = EMPTY;
    }

    /// Re-registers `cell` under its new expanded bbox. The rect is always
    /// recorded; the bins change only when its bin range does.
    pub fn update(&mut self, cell: usize, r: Rect) {
        self.entries[cell].rect = r;
        let range = self.range_for(r);
        if range == self.entries[cell].range {
            return;
        }
        self.updates += 1;
        self.remove(cell);
        self.insert(cell, range);
    }

    /// The rect `cell` is currently indexed under.
    pub fn rect(&self, cell: usize) -> Rect {
        self.entries[cell].rect
    }

    /// Wholesale rebuilds performed so far.
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// Incremental re-bin operations performed so far (update calls that
    /// changed a cell's bin range).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Overwrites both telemetry counters (resume-only; see
    /// [`crate::PlacementState::force_index_counters`]).
    pub fn force_counters(&mut self, full_rebuilds: u64, updates: u64) {
        self.full_rebuilds = full_rebuilds;
        self.updates = updates;
    }

    /// Drops and re-registers everything (wholesale state replacement).
    pub fn rebuild(&mut self, rects: &[Rect]) {
        self.full_rebuilds += 1;
        for b in &mut self.bins {
            b.clear();
        }
        self.register_all(rects);
    }

    fn register_all(&mut self, rects: &[Rect]) {
        self.entries.clear();
        self.entries
            .extend(rects.iter().map(|&rect| Entry { range: EMPTY, rect }));
        for (i, &r) in rects.iter().enumerate() {
            self.insert(i, self.range_for(r));
        }
    }

    /// Calls `f(j)` exactly once for every cell `j` whose indexed rect
    /// overlaps `r` with positive area.
    ///
    /// The query rect and an overlapping entry share every bin of the
    /// intersection of their ranges; the entry is taken only in the first
    /// of them, at the `max` of the two lower bin coordinates, so no
    /// candidate list needs deduplicating. Entries whose rects merely
    /// touch `r` or are apart are rejected before the caller looks at
    /// their tiles.
    #[inline]
    pub fn query(&self, r: Rect, mut f: impl FnMut(usize)) {
        let (bx0, bx1, by0, by1) = self.range_for(r);
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                for &jc in &self.bins[self.bin(bx, by)] {
                    let j = jc as usize;
                    let other = &self.entries[j];
                    if bx == bx0.max(other.range.0)
                        && by == by0.max(other.range.2)
                        && overlaps(r, other.rect)
                    {
                        f(j);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid() -> BinGrid {
        let rects = vec![
            Rect::from_wh(0, 0, 10, 10),
            Rect::from_wh(5, 5, 10, 10),
            Rect::from_wh(80, 80, 10, 10),
        ];
        BinGrid::build(Rect::from_wh(0, 0, 100, 100), 10, &rects)
    }

    /// Every other cell the query on `cell`'s indexed rect visits, in
    /// order (duplicates kept).
    fn neighbors(g: &BinGrid, cell: usize) -> Vec<usize> {
        let mut out = Vec::new();
        g.query(g.rect(cell), |j| {
            if j != cell {
                out.push(j);
            }
        });
        out
    }

    #[test]
    fn overlapping_rects_are_neighbors() {
        let g = grid();
        assert_eq!(neighbors(&g, 0), vec![1]);
        assert_eq!(neighbors(&g, 1), vec![0]);
        assert!(neighbors(&g, 2).is_empty());
    }

    #[test]
    fn update_moves_between_bins() {
        let mut g = grid();
        g.update(2, Rect::from_wh(8, 8, 10, 10));
        assert!(neighbors(&g, 0).contains(&2));
        g.update(2, Rect::from_wh(80, 80, 10, 10));
        assert!(!neighbors(&g, 0).contains(&2));
        assert_eq!(g.rect(2), Rect::from_wh(80, 80, 10, 10));
    }

    #[test]
    fn touching_rects_are_not_neighbors() {
        let mut g = grid();
        // Shares an edge with cell 0 and a corner with cell 1: both pairs
        // share bins, neither overlaps with positive area.
        g.update(2, Rect::from_wh(10, -5, 10, 5));
        g.update(1, Rect::from_wh(20, 0, 5, 5));
        assert!(neighbors(&g, 2).is_empty());
        assert!(neighbors(&g, 0).is_empty());
    }

    #[test]
    fn out_of_area_rects_clamp_to_border_bins() {
        let mut g = grid();
        // An interior rect far from the escape corner.
        g.update(2, Rect::from_wh(40, 40, 10, 10));
        // Two rects far beyond the same corner still see each other.
        g.update(0, Rect::from_wh(500, 500, 10, 10));
        g.update(1, Rect::from_wh(505, 505, 10, 10));
        assert_eq!(neighbors(&g, 0), vec![1]);
        assert!(neighbors(&g, 2).is_empty());
    }

    #[test]
    fn counters_track_rebuilds_and_updates() {
        let mut g = grid();
        assert_eq!((g.full_rebuilds(), g.updates()), (0, 0));
        g.update(2, Rect::from_wh(8, 8, 10, 10));
        assert_eq!(g.updates(), 1);
        // Same bin range again: no re-bin, counter unchanged, rect kept.
        g.update(2, Rect::from_wh(9, 9, 10, 10));
        assert_eq!(g.updates(), 1);
        assert_eq!(g.rect(2), Rect::from_wh(9, 9, 10, 10));
        g.rebuild(&[Rect::from_wh(0, 0, 10, 10)]);
        assert_eq!(g.full_rebuilds(), 1);
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let mut g = grid();
        let rects = vec![
            Rect::from_wh(50, 50, 10, 10),
            Rect::from_wh(55, 55, 10, 10),
            Rect::from_wh(0, 0, 10, 10),
        ];
        g.rebuild(&rects);
        assert_eq!(neighbors(&g, 0), vec![1]);
        assert!(neighbors(&g, 2).is_empty());
    }

    /// A rect on a coarse lattice, so ties (shared edges and corners) are
    /// common, reaching well past the 100×100 binned area on every side.
    fn arb_rect() -> impl Strategy<Value = Rect> {
        (-8i64..28, -8i64..28, 1i64..10, 1i64..10)
            .prop_map(|(x, y, w, h)| Rect::from_wh(x * 5, y * 5, w * 5, h * 5))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The query visits exactly the registered cells whose rects
        /// overlap the query rect with positive area, each exactly once —
        /// for query rects inside and past the binned area, after a build
        /// and after random re-registrations alike.
        #[test]
        fn query_visits_each_overlapping_cell_once(
            rects in prop::collection::vec(arb_rect(), 1..40),
            moves in prop::collection::vec((0usize..40, arb_rect()), 0..40),
            queries in prop::collection::vec(arb_rect(), 1..16),
            bin in 3i64..40,
        ) {
            let mut rects = rects;
            let mut g = BinGrid::build(Rect::from_wh(0, 0, 100, 100), bin, &rects);
            for (k, r) in moves {
                let k = k % rects.len();
                rects[k] = r;
                g.update(k, r);
            }
            for (i, &ri) in rects.iter().enumerate() {
                assert_eq!(g.rect(i), ri);
            }
            for q in queries.into_iter().chain(rects.iter().copied()) {
                let mut seen = Vec::new();
                g.query(q, |j| seen.push(j));
                let visits = seen.len();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), visits, "query {q:?} visited a cell twice");
                let expected: Vec<usize> = (0..rects.len())
                    .filter(|&j| q.overlap_area(rects[j]) > 0)
                    .collect();
                assert_eq!(seen, expected, "query {q:?}");
            }
        }
    }
}
