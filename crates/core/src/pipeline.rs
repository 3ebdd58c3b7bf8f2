//! The full TimberWolfMC pipeline: stage-1 annealing placement, then
//! three refinement executions of channel definition, global routing,
//! and low-temperature placement refinement.

use twmc_geom::{Orientation, Point, Rect};
use twmc_netlist::Netlist;
use twmc_obs::{NullRecorder, Recorder};
use twmc_parallel::ParallelReport;
use twmc_place::{PlacementState, Stage1Result};
use twmc_refine::Stage2Result;

use crate::{run_timberwolf_resilient, RunCtrl, RunOutcome, TimberWolfConfig};

/// Final placement of one cell, in owned form.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedCellRecord {
    /// Cell name.
    pub name: String,
    /// Lower-left corner of the oriented bounding box.
    pub pos: Point,
    /// Final orientation.
    pub orientation: Orientation,
    /// Selected instance (macro cells).
    pub instance: usize,
    /// Final aspect ratio (custom cells; 0 for macros).
    pub aspect: f64,
    /// Placed bounding box.
    pub bbox: Rect,
    /// Oriented tile geometry (cell-local; translate by `pos` to place).
    pub shape: twmc_geom::TileSet,
}

/// The result of a full TimberWolfMC run.
#[derive(Debug, Clone)]
pub struct TimberWolfResult {
    /// Stage-1 record (TEIL, residual overlap, history, move stats) of
    /// the winning replica.
    pub stage1: Stage1Result,
    /// Multi-replica orchestration report (`None` for single-replica runs).
    pub parallel: Option<ParallelReport>,
    /// Stage-2 record (refinements, final routing).
    pub stage2: Stage2Result,
    /// Final cell placements.
    pub placement: Vec<PlacedCellRecord>,
    /// Final total estimated interconnect length.
    pub teil: f64,
    /// Final chip bounding box (cells plus channel allowances).
    pub chip: Rect,
    /// Final globally-routed total length.
    pub routed_length: i64,
}

impl TimberWolfResult {
    /// Final chip area.
    pub fn chip_area(&self) -> i64 {
        self.chip.area()
    }

    /// TEIL change across stage 2 (end of refinement vs end of stage 1),
    /// as a fraction of the stage-1 TEIL (negative = stage 2 shortened
    /// the nets). Table 3 reports this as a small percentage, evidencing
    /// the estimator's accuracy. The final width-enforcement spread is
    /// deliberately *not* included — it is the comparison yardstick, not
    /// part of the two-stage algorithm.
    pub fn stage2_teil_change(&self) -> f64 {
        (self.stage2.teil - self.stage1.teil) / self.stage1.teil.max(1.0)
    }

    /// Chip-area change across stage 2 as a fraction of the stage-1 area.
    pub fn stage2_area_change(&self) -> f64 {
        let a1 = self.stage1.chip_area() as f64;
        (self.stage2.chip.area() as f64 - a1) / a1.max(1.0)
    }
}

/// Runs the complete TimberWolfMC flow on a circuit.
///
/// # Examples
///
/// ```no_run
/// use twmc_core::{run_timberwolf, TimberWolfConfig};
/// use twmc_netlist::{synthesize, SynthParams};
///
/// let circuit = synthesize(&SynthParams::default());
/// let result = run_timberwolf(&circuit, &TimberWolfConfig::fast(42));
/// println!("TEIL {}  chip {}", result.teil, result.chip);
/// ```
pub fn run_timberwolf(nl: &Netlist, config: &TimberWolfConfig) -> TimberWolfResult {
    run_timberwolf_with(nl, config, &mut NullRecorder)
}

/// [`run_timberwolf`] with a telemetry sink.
///
/// The event stream opens with a [`twmc_obs::RunStart`], carries every
/// layer's events (per-temperature [`twmc_obs::PlaceTemp`]s, stage
/// [`twmc_obs::StageSpan`]s, replica summaries and swaps for
/// orchestrated runs), and closes with a [`twmc_obs::RunEnd`] holding
/// the headline results. Recording never touches any RNG stream, so
/// results are bit-identical to [`run_timberwolf`] for any recorder.
///
/// This is [`run_timberwolf_resilient`] under the default (no-op)
/// [`RunCtrl`].
///
/// # Panics
///
/// Panics if `config.parallel` fails [`twmc_parallel::ParallelParams::validate`]
/// or every stage-1 replica panics, as
/// [`twmc_parallel::parallel_stage1_with`] does.
pub fn run_timberwolf_with(
    nl: &Netlist,
    config: &TimberWolfConfig,
    rec: &mut dyn Recorder,
) -> TimberWolfResult {
    match run_timberwolf_resilient(nl, config, RunCtrl::default(), rec) {
        Ok(RunOutcome::Complete(result)) => result,
        Ok(RunOutcome::Interrupted(_)) => unreachable!("default options cannot interrupt"),
        Err(e) => panic!("{e}"),
    }
}

/// Extracts an owned placement snapshot from a state.
pub fn snapshot_placement(nl: &Netlist, state: &PlacementState<'_>) -> Vec<PlacedCellRecord> {
    nl.cells()
        .iter()
        .zip(state.cells())
        .map(|(cell, place)| PlacedCellRecord {
            name: cell.name.clone(),
            pos: place.pos,
            orientation: place.orientation,
            instance: place.instance,
            aspect: place.aspect,
            bbox: place.placed_bbox(),
            shape: place.shape.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_netlist::{synthesize, SynthParams};
    use twmc_place::PlaceParams;

    fn tiny_config() -> TimberWolfConfig {
        TimberWolfConfig {
            place: PlaceParams {
                attempts_per_cell: 10,
                normalization_samples: 8,
                ..Default::default()
            },
            refine: twmc_refine::RefineParams {
                router: twmc_route::RouterParams {
                    m_alternatives: 6,
                    per_level: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            seed: 5,
            ..Default::default()
        }
    }

    fn circuit() -> Netlist {
        synthesize(&SynthParams {
            cells: 8,
            nets: 16,
            pins: 50,
            custom_fraction: 0.25,
            seed: 2,
            avg_cell_dim: 20,
            ..Default::default()
        })
    }

    #[test]
    fn full_pipeline_produces_legal_routable_placement() {
        let nl = circuit();
        let r = run_timberwolf(&nl, &tiny_config());
        assert_eq!(r.placement.len(), nl.cells().len());
        // Placement legal: pairwise bbox overlap zero.
        for i in 0..r.placement.len() {
            for j in (i + 1)..r.placement.len() {
                assert_eq!(
                    r.placement[i].bbox.overlap_area(r.placement[j].bbox),
                    0,
                    "{} overlaps {}",
                    r.placement[i].name,
                    r.placement[j].name
                );
            }
        }
        // Chip covers all cells.
        for p in &r.placement {
            assert!(r.chip.contains_rect(p.bbox), "{} outside chip", p.name);
        }
        // Router reached (nearly) all nets.
        let routed = r
            .stage2
            .final_routing
            .routes
            .iter()
            .filter(|t| t.is_some())
            .count();
        assert!(routed * 10 >= nl.nets().len() * 9, "{routed} routed");
        assert!(r.teil > 0.0 && r.routed_length > 0);
    }

    #[test]
    fn determinism() {
        let nl = circuit();
        let a = run_timberwolf(&nl, &tiny_config());
        let b = run_timberwolf(&nl, &tiny_config());
        assert_eq!(a.teil, b.teil);
        assert_eq!(a.chip, b.chip);
        assert_eq!(a.placement, b.placement);
        assert!(a.parallel.is_none());
    }

    #[test]
    fn parallel_replicas_flow_through_pipeline() {
        let nl = circuit();
        let mut config = tiny_config();
        config.parallel = twmc_parallel::ParallelParams {
            replicas: 2,
            threads: 2,
            ..Default::default()
        };
        let r = run_timberwolf(&nl, &config);
        let report = r.parallel.expect("orchestrated run reports replicas");
        assert_eq!(report.replicas, 2);
        assert_eq!(report.replica_reports.len(), 2);
        // The winner's stage-1 TEIL is what stage 2 started from.
        let best = &report.replica_reports[report.best_replica];
        assert_eq!(best.teil, r.stage1.teil);
        // Best-of-N selection: no replica beats the winner.
        for rep in &report.replica_reports {
            assert!(best.teil <= rep.teil);
        }
        // Same seed, same replica count → same result, regardless of threads.
        config.parallel.threads = 1;
        let r1 = run_timberwolf(&nl, &config);
        assert_eq!(r.teil, r1.teil);
        assert_eq!(r.placement, r1.placement);
    }

    #[test]
    fn stage2_changes_are_reported() {
        let nl = circuit();
        let r = run_timberwolf(&nl, &tiny_config());
        assert!(r.stage2_teil_change().is_finite());
        assert!(r.stage2_area_change().is_finite());
        assert_eq!(r.stage2.records.len(), 3);
    }
}
