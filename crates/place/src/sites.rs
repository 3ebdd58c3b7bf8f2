//! Pin sites on custom-cell edges (paper §2.4).
//!
//! Storing every legal pin location for all eight orientations would be
//! excessive, and during the hot part of the run approximate locations
//! suffice; instead a fixed number of *pin sites* is defined per edge,
//! approximately evenly spaced, each with a capacity. A penalty function
//! (`C₃`, eqs. 10–11) discourages exceeding the capacity.

use twmc_geom::{Point, Side};

/// Identifies one pin site on a custom cell: a side of the unoriented
/// rectangle and a slot index along it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteRef {
    /// Side of the unoriented cell.
    pub side: Side,
    /// Slot index in `0..sites_per_edge`.
    pub slot: u32,
}

/// The pin-site layout of one custom cell at its current dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteLayout {
    pub(crate) sites_per_edge: u32,
    pub(crate) w: i64,
    pub(crate) h: i64,
    /// Capacity per site on each side (uniform along a side).
    pub(crate) cap: [u32; 4],
    /// Occupancy per (side, slot).
    pub(crate) occ: [Vec<u32>; 4],
    pub(crate) kappa: f64,
}

fn side_index(side: Side) -> usize {
    match side {
        Side::Left => 0,
        Side::Right => 1,
        Side::Bottom => 2,
        Side::Top => 3,
    }
}

impl SiteLayout {
    /// Creates the layout for a `w × h` custom cell with `sites_per_edge`
    /// sites per side.
    ///
    /// Site capacity is the number of legal pin locations the site spans:
    /// `max(1, edge_len / (sites_per_edge · t_s))` with track spacing
    /// `t_s` rounded to a grid unit.
    pub fn new(w: i64, h: i64, sites_per_edge: u32, track_spacing: f64, kappa: f64) -> Self {
        let n = sites_per_edge.max(1);
        SiteLayout {
            sites_per_edge: n,
            w,
            h,
            cap: capacities(w, h, n, track_spacing),
            occ: [
                vec![0; n as usize],
                vec![0; n as usize],
                vec![0; n as usize],
                vec![0; n as usize],
            ],
            kappa,
        }
    }

    /// Number of sites along each edge.
    #[inline]
    pub fn sites_per_edge(&self) -> u32 {
        self.sites_per_edge
    }

    /// Capacity of the sites on the given side.
    #[inline]
    pub fn capacity(&self, side: Side) -> u32 {
        self.cap[side_index(side)]
    }

    /// Occupancy of a site.
    #[inline]
    pub fn occupancy(&self, site: SiteRef) -> u32 {
        self.occ[side_index(site.side)][site.slot as usize]
    }

    /// Cell-local (unoriented) coordinates of a site: evenly spaced along
    /// its edge.
    pub fn position(&self, site: SiteRef) -> Point {
        let n = self.sites_per_edge as i64;
        let k = site.slot as i64;
        let along = |len: i64| (2 * k + 1) * len / (2 * n);
        match site.side {
            Side::Left => Point::new(0, along(self.h)),
            Side::Right => Point::new(self.w, along(self.h)),
            Side::Bottom => Point::new(along(self.w), 0),
            Side::Top => Point::new(along(self.w), self.h),
        }
    }

    /// Adds a pin to a site.
    pub fn occupy(&mut self, site: SiteRef) {
        self.occ[side_index(site.side)][site.slot as usize] += 1;
    }

    /// Removes a pin from a site.
    ///
    /// # Panics
    ///
    /// Panics if the site is empty (bookkeeping bug).
    pub fn vacate(&mut self, site: SiteRef) {
        let o = &mut self.occ[side_index(site.side)][site.slot as usize];
        assert!(*o > 0, "vacating empty site {site:?}");
        *o -= 1;
    }

    /// The eq. 10 penalty of one site: `0` when within capacity, else
    /// `(contents − capacity + κ)` (the paper's second case reads `<`,
    /// an evident typo for `>`).
    fn site_penalty(&self, side: usize, slot: usize) -> f64 {
        let occ = self.occ[side][slot];
        let cap = self.cap[side];
        if occ <= cap {
            0.0
        } else {
            (occ - cap) as f64 + self.kappa
        }
    }

    /// The cell's total `C₃` contribution: `Σ E(s)²` (eq. 11).
    pub fn penalty(&self) -> f64 {
        let mut total = 0.0;
        for side in 0..4 {
            for slot in 0..self.sites_per_edge as usize {
                let e = self.site_penalty(side, slot);
                total += e * e;
            }
        }
        total
    }

    /// Total number of pins currently assigned to sites on this cell.
    pub fn total_occupancy(&self) -> u32 {
        self.occ.iter().flatten().sum()
    }

    /// Re-spaces the layout in place for new dimensions (aspect-ratio
    /// move): the capacities follow the new edges, and occupancy by
    /// (side, slot) is kept.
    pub fn resize(&mut self, w: i64, h: i64, track_spacing: f64) {
        self.w = w;
        self.h = h;
        self.cap = capacities(w, h, self.sites_per_edge, track_spacing);
    }
}

/// Per-side site capacities `[left, right, bottom, top]` of a `w × h`
/// cell with `n` sites per edge: `max(1, edge_len / (n · t_s))`.
fn capacities(w: i64, h: i64, n: u32, track_spacing: f64) -> [u32; 4] {
    let ts = track_spacing.max(1.0);
    let cap_for = |len: i64| -> u32 { ((len as f64 / (n as f64 * ts)).floor() as u32).max(1) };
    [cap_for(h), cap_for(h), cap_for(w), cap_for(w)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> SiteLayout {
        SiteLayout::new(40, 20, 4, 2.0, 5.0)
    }

    #[test]
    fn capacities_scale_with_edge_length() {
        let l = layout();
        // Horizontal edges (len 40): 40 / (4 sites * ts 2) = 5.
        assert_eq!(l.capacity(Side::Bottom), 5);
        assert_eq!(l.capacity(Side::Top), 5);
        // Vertical edges (len 20): 20 / 8 = 2.
        assert_eq!(l.capacity(Side::Left), 2);
        assert_eq!(l.capacity(Side::Right), 2);
        // Tiny cell floors at 1.
        let tiny = SiteLayout::new(3, 3, 8, 2.0, 5.0);
        assert_eq!(tiny.capacity(Side::Left), 1);
    }

    #[test]
    fn positions_evenly_spaced() {
        let l = layout();
        let xs: Vec<i64> = (0..4)
            .map(|k| {
                l.position(SiteRef {
                    side: Side::Bottom,
                    slot: k,
                })
                .x
            })
            .collect();
        assert_eq!(xs, vec![5, 15, 25, 35]);
        assert_eq!(
            l.position(SiteRef {
                side: Side::Left,
                slot: 1
            }),
            Point::new(0, 7)
        );
        assert_eq!(
            l.position(SiteRef {
                side: Side::Right,
                slot: 0
            }),
            Point::new(40, 2)
        );
        assert_eq!(
            l.position(SiteRef {
                side: Side::Top,
                slot: 3
            }),
            Point::new(35, 20)
        );
    }

    #[test]
    fn penalty_kicks_in_above_capacity() {
        let mut l = layout();
        let s = SiteRef {
            side: Side::Left,
            slot: 0,
        }; // capacity 2
        assert_eq!(l.penalty(), 0.0);
        l.occupy(s);
        l.occupy(s);
        assert_eq!(l.penalty(), 0.0);
        l.occupy(s); // 3 > 2: E = 1 + κ = 6 → 36
        assert_eq!(l.penalty(), 36.0);
        l.occupy(s); // E = 2 + 5 = 7 → 49
        assert_eq!(l.penalty(), 49.0);
        l.vacate(s);
        l.vacate(s);
        assert_eq!(l.penalty(), 0.0);
        assert_eq!(l.total_occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "vacating empty site")]
    fn vacate_empty_panics() {
        let mut l = layout();
        l.vacate(SiteRef {
            side: Side::Top,
            slot: 0,
        });
    }

    #[test]
    fn resize_preserves_occupancy() {
        let mut l = layout();
        let s = SiteRef {
            side: Side::Bottom,
            slot: 2,
        };
        l.occupy(s);
        l.resize(20, 40, 2.0);
        assert_eq!(l.occupancy(s), 1);
        assert_eq!(l.total_occupancy(), 1);
        // Capacities and positions follow the new dimensions.
        assert_eq!(l.capacity(Side::Bottom), 2);
        assert_eq!(l.capacity(Side::Left), 5);
        assert_eq!(l.position(s), Point::new(12, 0));
        // The in-place form equals a fresh layout with the same occupancy.
        let mut fresh = SiteLayout::new(20, 40, 4, 2.0, 5.0);
        fresh.occupy(s);
        assert_eq!(l, fresh);
    }
}
