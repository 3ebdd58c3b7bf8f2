//! Post-routing chip finalization: the common yardstick for comparing
//! placement methods.
//!
//! The paper's Table 4 compares chip areas of *routed* layouts. For any
//! placement (TimberWolfMC or a baseline), this pass derives the spacing
//! a detailed router would force: global-route the placement, convert
//! channel densities to required widths (`w = (d+2)·t_s`, eq. 22), and
//! spread the cells until every channel has its width. The resulting
//! bounding box is the comparable "chip area"; a placement that packed
//! cells with no regard for wiring pays for it here.

use twmc_geom::{Rect, TRACK_PITCH};
use twmc_netlist::Netlist;
use twmc_place::PlacementState;
use twmc_refine::{
    routing_snapshot, spacing_constraints, spread_for_widths, static_expansions,
    verify_channel_widths, WidthReport,
};
use twmc_route::{global_route_with, RouterParams};

/// The routed, width-legal chip.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalChip {
    /// TEIL of the spread placement.
    pub teil: f64,
    /// Chip bounding box with every channel at its required width.
    pub chip: Rect,
    /// Globally-routed total length of the final placement.
    pub routed_length: i64,
    /// Residual capacity overflow after spreading (normally 0).
    pub overflow: i64,
    /// Unrouted nets (normally 0).
    pub unrouted: usize,
    /// Channel-width verification of the final routing (the paper's
    /// "ready for detailed routing" condition).
    pub width_report: WidthReport,
}

impl FinalChip {
    /// Chip area.
    pub fn chip_area(&self) -> i64 {
        self.chip.area()
    }
}

/// Routes the placement, installs the required channel widths, spreads
/// the cells to honor them, and re-routes for the final length.
pub fn finalize_chip(
    nl: &Netlist,
    state: &mut PlacementState<'_>,
    router: &RouterParams,
    seed: u64,
) -> FinalChip {
    finalize_chip_with(nl, state, router, seed, &mut twmc_obs::NullRecorder)
}

/// [`finalize_chip`] with a telemetry sink: the width-derivation route
/// and the closing route each emit a `route_iter` event (phase
/// `"finalize"`, iterations 0 and 1). Recording never touches any RNG,
/// so results are bit-identical to [`finalize_chip`].
pub fn finalize_chip_with(
    nl: &Netlist,
    state: &mut PlacementState<'_>,
    router: &RouterParams,
    seed: u64,
    rec: &mut dyn twmc_obs::Recorder,
) -> FinalChip {
    let gap = TRACK_PITCH as i64;
    twmc_place::legalize(state, gap, 500);

    // Route the legal placement and derive required widths.
    let (geometry, nets) = routing_snapshot(state);
    let routing = global_route_with(&geometry, &nets, router, seed, rec, "finalize", 0);
    let expansions = static_expansions(&routing, nl.cells().len());
    state.set_static_expansions(expansions);

    // Spread per-channel: one spacing constraint per routed channel
    // (precise), then a raw-gap legalization to fix anything the
    // spreading pushed together.
    let constraints = spacing_constraints(&routing);
    spread_for_widths(state, &constraints, 500);
    twmc_place::legalize(state, gap, 500);

    // Final routing of the spread placement.
    let (geometry, nets) = routing_snapshot(state);
    let routing = global_route_with(&geometry, &nets, router, seed ^ 0xf17a1, rec, "finalize", 1);
    let width_report = verify_channel_widths(&routing);

    FinalChip {
        teil: state.teil(),
        chip: state.effective_bbox(),
        routed_length: routing.total_length(),
        overflow: routing.overflow(),
        unrouted: routing.unrouted,
        width_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
    use twmc_netlist::{synthesize, SynthParams};

    #[test]
    fn finalization_spreads_tight_packings() {
        let nl = synthesize(&SynthParams {
            cells: 8,
            nets: 20,
            pins: 60,
            seed: 3,
            avg_cell_dim: 20,
            ..Default::default()
        });
        let det = determine_core(&nl, &EstimatorParams::default());
        let density = cell_density_factors(&nl, nl.stats().avg_pin_density);
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = PlacementState::random(&nl, det.estimator, density, &mut rng);
        // Pack everything tightly (no wiring space).
        for i in 0..nl.cells().len() {
            state.set_cell_center(i, twmc_geom::Point::ORIGIN);
        }
        twmc_place::legalize(&mut state, 1, 500);
        let packed_bbox = state.placement_bbox();

        let fin = finalize_chip(&nl, &mut state, &RouterParams::default(), 9);
        // Spreading for channel widths must grow the chip beyond the raw
        // packing.
        assert!(
            fin.chip.area() > packed_bbox.area(),
            "{} vs {}",
            fin.chip.area(),
            packed_bbox.area()
        );
        assert_eq!(fin.unrouted, 0);
        // The whole point of finalization: (nearly) every channel at its
        // required width. The re-route can shift a few nets into
        // narrower channels, so allow a small violation tail.
        assert!(
            fin.width_report.violation_rate() < 0.25,
            "{} of {} used channels violate widths",
            fin.width_report.violations.len(),
            fin.width_report.used_channels
        );
        // Cells remain disjoint with their channel allowances.
        for i in 0..nl.cells().len() {
            for j in (i + 1)..nl.cells().len() {
                let a = state.cell(i).placed_bbox();
                let b = state.cell(j).placed_bbox();
                assert_eq!(a.overlap_area(b), 0);
            }
        }
    }
}
