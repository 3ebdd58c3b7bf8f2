//! Constraint-based spacing: enforce each channel's required width by
//! moving its two bordering cells apart — the precise, per-pair version
//! of the spacing problem the paper contrasts with general spacers
//! (§2.2 cites SPARCS; §4.1's two-edge channels make the constraint
//! local and exact).
//!
//! Per-side *maximum* expansions (as in [`crate::static_expansions`])
//! are conservative: one congested channel inflates a whole cell side,
//! over-spreading dense designs. Here each routed channel contributes
//! one pairwise constraint `gap(i, j) ≥ w = (d+2)·t_s`, relaxed
//! iteratively.

use twmc_geom::Rect;
use twmc_place::PlacementState;
use twmc_route::{ChannelKind, GlobalRouting};

/// One spacing constraint between two cells (or a cell and the core).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpacingConstraint {
    /// Low-side cell index (`None` = core border, immovable).
    pub lo: Option<usize>,
    /// High-side cell index.
    pub hi: Option<usize>,
    /// Direction of the required separation.
    pub kind: ChannelKind,
    /// Required separation in grid units.
    pub required: i64,
}

/// Extracts one constraint per routed channel whose two bordering edges
/// belong to cells (core-border channels are skipped: the core can
/// grow).
pub fn spacing_constraints(routing: &GlobalRouting) -> Vec<SpacingConstraint> {
    let mut out = Vec::new();
    for (node, gn) in routing.graph.nodes.iter().enumerate() {
        let required = routing.required_width(node).ceil() as i64;
        let c = SpacingConstraint {
            lo: gn.region.lo_edge.cell,
            hi: gn.region.hi_edge.cell,
            kind: gn.region.kind,
            required,
        };
        if c.lo.is_some() || c.hi.is_some() {
            out.push(c);
        }
    }
    // Deduplicate to the strongest requirement per (lo, hi, kind).
    out.sort_by_key(|c| (c.lo, c.hi, c.kind as u8, std::cmp::Reverse(c.required)));
    out.dedup_by_key(|c| (c.lo, c.hi, c.kind as u8));
    out
}

fn gap(a: Rect, b: Rect, kind: ChannelKind) -> Option<i64> {
    match kind {
        ChannelKind::Vertical => {
            // Only meaningful while the pair still faces horizontally.
            (a.y_span().overlap_len(b.y_span()) > 0).then(|| b.lo().x - a.hi().x)
        }
        ChannelKind::Horizontal => {
            (a.x_span().overlap_len(b.x_span()) > 0).then(|| b.lo().y - a.hi().y)
        }
    }
}

/// Iteratively spreads cells until every pairwise constraint holds (or
/// `max_sweeps` elapse). Returns `true` when all constraints are
/// satisfied. Pairs that no longer face each other (a cell slid past)
/// are dropped — their channel no longer exists.
pub fn spread_for_widths(
    state: &mut PlacementState<'_>,
    constraints: &[SpacingConstraint],
    max_sweeps: usize,
) -> bool {
    let mut satisfied = false;
    for _ in 0..max_sweeps {
        let mut moved = false;
        for c in constraints {
            let (Some(i), Some(j)) = (c.lo, c.hi) else {
                continue;
            };
            let a = state.cell(i).placed_bbox();
            let b = state.cell(j).placed_bbox();
            let Some(g) = gap(a, b, c.kind) else {
                continue;
            };
            if g >= c.required {
                continue;
            }
            let deficit = c.required - g;
            let (di, dj) = (-(deficit - deficit / 2), deficit / 2 + deficit % 2);
            moved = true;
            match c.kind {
                ChannelKind::Vertical => {
                    let pi = state.cell(i).pos + twmc_geom::Point::new(di, 0);
                    state.set_cell_pos(i, pi);
                    let pj = state.cell(j).pos + twmc_geom::Point::new(dj, 0);
                    state.set_cell_pos(j, pj);
                }
                ChannelKind::Horizontal => {
                    let pi = state.cell(i).pos + twmc_geom::Point::new(0, di);
                    state.set_cell_pos(i, pi);
                    let pj = state.cell(j).pos + twmc_geom::Point::new(0, dj);
                    state.set_cell_pos(j, pj);
                }
            }
        }
        if !moved {
            satisfied = true;
            break;
        }
    }
    state.rebuild_all();
    satisfied
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
    use twmc_netlist::{synthesize, Netlist, SynthParams};
    use twmc_place::legalize;
    use twmc_route::{global_route, RouterParams};

    fn circuit() -> Netlist {
        synthesize(&SynthParams {
            cells: 8,
            nets: 24,
            pins: 80,
            seed: 5,
            avg_cell_dim: 20,
            ..Default::default()
        })
    }

    fn state(nl: &Netlist) -> PlacementState<'_> {
        let det = determine_core(nl, &EstimatorParams::default());
        let density = cell_density_factors(nl, nl.stats().avg_pin_density);
        let mut rng = StdRng::seed_from_u64(2);
        let mut st = PlacementState::random(nl, det.estimator, density, &mut rng);
        legalize(&mut st, 2, 500);
        st
    }

    #[test]
    fn constraints_extracted_and_satisfiable() {
        let nl = circuit();
        let mut st = state(&nl);
        let (geometry, nets) = crate::routing_snapshot(&st);
        let routing = global_route(&geometry, &nets, &RouterParams::default(), 3);
        let constraints = spacing_constraints(&routing);
        assert!(!constraints.is_empty());
        // Every cell-cell constraint references valid cells.
        for c in &constraints {
            for cell in [c.lo, c.hi].into_iter().flatten() {
                assert!(cell < nl.cells().len());
            }
            assert!(c.required >= 4); // (0+2)*2 minimum
        }
        let ok = spread_for_widths(&mut st, &constraints, 500);
        assert!(ok, "spreading did not converge");
        // Spot-check: every still-facing pair meets its requirement.
        for c in &constraints {
            let (Some(i), Some(j)) = (c.lo, c.hi) else {
                continue;
            };
            let a = st.cell(i).placed_bbox();
            let b = st.cell(j).placed_bbox();
            if let Some(g) = gap(a, b, c.kind) {
                assert!(
                    g >= c.required,
                    "pair ({i},{j}) gap {g} < required {}",
                    c.required
                );
            }
        }
    }

    #[test]
    fn satisfied_constraints_leave_placement_alone() {
        let nl = circuit();
        let mut st = state(&nl);
        // Trivially satisfied constraints (arbitrary pairs may face in
        // either order, so use a requirement no geometry can violate).
        let constraints: Vec<SpacingConstraint> = (0..nl.cells().len() - 1)
            .map(|i| SpacingConstraint {
                lo: Some(i),
                hi: Some(i + 1),
                kind: ChannelKind::Vertical,
                required: -100_000,
            })
            .collect();
        let before: Vec<_> = st.cells().iter().map(|c| c.pos).collect();
        assert!(spread_for_widths(&mut st, &constraints, 10));
        let after: Vec<_> = st.cells().iter().map(|c| c.pos).collect();
        assert_eq!(before, after);
    }
}
