//! Residual-overlap legalization.
//!
//! Stage 1 drives the overlap penalty to (near) zero; the paper reports
//! only small residual overlap for well-tuned runs (§3.2.2). Channel
//! definition, however, requires strictly disjoint cells with nonzero
//! gaps between facing edges. This pass removes any residue by pushing
//! overlapping (or gap-violating) cell pairs apart along the axis of
//! least penetration — a cheap deterministic cleanup, not a placement
//! algorithm.

use twmc_geom::Point;

use crate::PlacementState;

/// Pushes cells apart until every pair of bounding boxes is separated by
/// at least `gap` grid units (or `max_iters` sweeps elapse), keeping
/// cells inside the core where possible. Returns `true` when fully
/// separated.
///
/// Uses bounding boxes (conservative for rectilinear cells) and rebuilds
/// the cost bookkeeping once at the end.
pub fn legalize(state: &mut PlacementState<'_>, gap: i64, max_iters: usize) -> bool {
    let n = state.cells().len();
    let core = state.estimator().core();
    let mut clean = false;
    for _ in 0..max_iters {
        let mut moved = false;
        for i in 0..n {
            for j in (i + 1)..n {
                let a = state.cell(i).placed_bbox();
                let b = state.cell(j).placed_bbox();
                // Penetration including the required gap.
                let pen_x = (a.hi().x.min(b.hi().x) + gap) - a.lo().x.max(b.lo().x);
                let pen_y = (a.hi().y.min(b.hi().y) + gap) - a.lo().y.max(b.lo().y);
                if pen_x <= 0 || pen_y <= 0 {
                    continue;
                }
                moved = true;
                // Push along the axis of least penetration, half each way
                // (rounding the odd unit onto the `i` side).
                if pen_x <= pen_y {
                    let (di, dj) = if a.center().x <= b.center().x {
                        (-(pen_x - pen_x / 2), pen_x / 2 + pen_x % 2)
                    } else {
                        (pen_x - pen_x / 2, -(pen_x / 2 + pen_x % 2))
                    };
                    shift(state, i, Point::new(di, 0));
                    shift(state, j, Point::new(dj, 0));
                } else {
                    let (di, dj) = if a.center().y <= b.center().y {
                        (-(pen_y - pen_y / 2), pen_y / 2 + pen_y % 2)
                    } else {
                        (pen_y - pen_y / 2, -(pen_y / 2 + pen_y % 2))
                    };
                    shift(state, i, Point::new(0, di));
                    shift(state, j, Point::new(0, dj));
                }
            }
        }
        if !moved {
            clean = true;
            break;
        }
    }
    if !clean {
        // Relaxation failed to settle (dense stacks can oscillate): fall
        // back to a deterministic shelf packing — always legal, possibly
        // slightly larger than the core.
        shelf_pack(state, gap);
        clean = true;
    }
    state.rebuild_all();
    debug_assert!(separated(state, gap));
    let _ = core;
    clean
}

/// Deterministic fallback: pack cells onto shelves (rows) in order of
/// their current position, with `gap` separation, centered on the core.
fn shelf_pack(state: &mut PlacementState<'_>, gap: i64) {
    let core = state.estimator().core();
    let n = state.cells().len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        let c = state.cell(i).center();
        (c.y, c.x, i)
    });
    // Row width target: the core width, or a square outline when the
    // boxes' total area exceeds the core, instead of a tall sliver.
    let total_area: i64 = (0..n)
        .map(|i| {
            let bb = state.cell(i).placed_bbox();
            (bb.width() + gap) * (bb.height() + gap)
        })
        .sum();
    let square_w = ((total_area as f64 * 1.15).sqrt()).ceil() as i64;
    let max_w = core.width().max(square_w).max(1);
    let mut x = 0i64;
    let mut y = 0i64;
    let mut shelf_h = 0i64;
    let mut placed: Vec<(usize, Point)> = Vec::new();
    for &i in &order {
        let bb = state.cell(i).placed_bbox();
        let (w, h) = (bb.width() + gap, bb.height() + gap);
        if x > 0 && x + w > max_w {
            y += shelf_h;
            x = 0;
            shelf_h = 0;
        }
        placed.push((i, Point::new(x, y)));
        x += w;
        shelf_h = shelf_h.max(h);
    }
    let total_h = y + shelf_h;
    // Center the packing on the core.
    let off = Point::new(core.lo().x.max(-max_w / 2), -total_h / 2);
    for (i, p) in placed {
        state.set_cell_pos(i, p + off);
    }
}

fn shift(state: &mut PlacementState<'_>, i: usize, d: Point) {
    if d != Point::ORIGIN {
        let pos = state.cell(i).pos + d;
        state.set_cell_pos(i, pos);
    }
}

/// Whether every pair of cell bounding boxes is separated by `gap`.
pub fn separated(state: &PlacementState<'_>, gap: i64) -> bool {
    let n = state.cells().len();
    for i in 0..n {
        for j in (i + 1)..n {
            let a = state.cell(i).placed_bbox().expand(gap);
            let b = state.cell(j).placed_bbox();
            if a.overlap_area(b) > 0 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
    use twmc_netlist::{synthesize, Netlist, SynthParams};

    fn circuit() -> Netlist {
        synthesize(&SynthParams {
            cells: 10,
            nets: 20,
            pins: 60,
            seed: 4,
            avg_cell_dim: 20,
            ..Default::default()
        })
    }

    fn stacked_state(nl: &Netlist) -> PlacementState<'_> {
        let det = determine_core(nl, &EstimatorParams::default());
        let density = cell_density_factors(nl, nl.stats().avg_pin_density);
        let mut rng = StdRng::seed_from_u64(8);
        let mut st = PlacementState::random(nl, det.estimator, density, 5.0, &mut rng);
        // Worst case: everything stacked at the origin.
        for i in 0..nl.cells().len() {
            st.set_cell_center(i, twmc_geom::Point::ORIGIN);
        }
        st.rebuild_all();
        st
    }

    #[test]
    fn separates_fully_stacked_cells() {
        let nl = circuit();
        let mut st = stacked_state(&nl);
        assert!(!separated(&st, 2));
        let ok = legalize(&mut st, 2, 500);
        assert!(ok, "legalization did not converge");
        assert!(separated(&st, 2));
        // Raw pairwise tile overlap is zero.
        for i in 0..nl.cells().len() {
            for j in (i + 1)..nl.cells().len() {
                let a = st.cell(i);
                let b = st.cell(j);
                assert_eq!(
                    a.shape.overlap_area_at(a.pos, &b.shape, b.pos),
                    0,
                    "cells {i},{j} overlap"
                );
            }
        }
        // Bookkeeping rebuilt correctly.
        let (c1, ov, c3) = st.recompute_totals();
        assert!((st.c1() - c1).abs() < 1e-6 * c1.max(1.0));
        assert_eq!(st.raw_overlap(), ov);
        assert!((st.c3() - c3).abs() < 1e-6);
    }

    #[test]
    fn already_legal_is_untouched() {
        let nl = circuit();
        let mut st = stacked_state(&nl);
        legalize(&mut st, 2, 500);
        let pos: Vec<_> = st.cells().iter().map(|c| c.pos).collect();
        let ok = legalize(&mut st, 2, 500);
        assert!(ok);
        let pos2: Vec<_> = st.cells().iter().map(|c| c.pos).collect();
        assert_eq!(pos, pos2, "legal placement must be a fixed point");
    }
}
