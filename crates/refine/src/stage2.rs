//! The stage-2 placement-refinement driver (paper §4).
//!
//! Several (three) executions of: (1) channel definition, (2) global
//! routing, (3) low-temperature placement refinement. Step 2's densities
//! give the exact interconnect area every channel needs; step 3 re-anneal
//! s with those *static* spacings, single-cell displacements and pin
//! moves only, a window starting at μ = 3% of the core span (eq. 28),
//! and the Table 2 schedule. Three iterations suffice for the final TEIL
//! and chip area to converge (Table 3).

use rand::rngs::StdRng;
use rand::SeedableRng;

use twmc_anneal::{CoolingSchedule, RangeLimiter};
use twmc_geom::{Rect, TRACK_PITCH};
use twmc_netlist::Netlist;
use twmc_obs::{CancelToken, Interval, NullRecorder, Recorder, RunScope, StopReason};
use twmc_place::{run_annealing_cancellable, MoveSet, PlaceParams, PlacementState};
use twmc_route::{global_route_cancellable, GlobalRouting, NetPins, PlacedGeometry, RouterParams};

use crate::static_expansions;

/// Number of refinement executions (paper §4: three suffice).
pub const REFINEMENTS: usize = 3;

/// Initial window fraction μ of the full span (eq. 28; the paper uses
/// 0.03).
const MU: f64 = 0.03;

/// Consecutive unchanged inner loops that end the *final* refinement.
const FINAL_STALL: usize = 3;

/// Stage-2 parameters: the router's. μ, the refinement count and the
/// final stall rule are the paper's constants ([`REFINEMENTS`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RefineParams {
    /// Global router settings.
    pub router: RouterParams,
}

/// Record of one refinement execution.
#[derive(Debug, Clone)]
pub struct RefinementRecord {
    /// TEIL before / after the refinement anneal.
    pub teil_before: f64,
    /// TEIL after.
    pub teil_after: f64,
    /// Effective chip bounding box after the refinement.
    pub chip_after: Rect,
    /// Total globally-routed length at the start of the execution.
    pub routed_length: i64,
    /// Capacity overflow left by the route selection.
    pub overflow: i64,
    /// Nets the router could not route.
    pub unrouted: usize,
    /// Maximum channel density observed.
    pub max_density: u32,
}

/// Outcome of stage 2.
#[derive(Debug, Clone)]
pub struct Stage2Result {
    /// One record per refinement execution.
    pub records: Vec<RefinementRecord>,
    /// A final routing of the refined placement (for reporting and
    /// downstream detailed routing).
    pub final_routing: GlobalRouting,
    /// Final TEIL.
    pub teil: f64,
    /// Final effective chip bounding box.
    pub chip: Rect,
}

/// Builds the router's view of the current placement.
pub fn routing_snapshot(state: &PlacementState<'_>) -> (PlacedGeometry, Vec<NetPins>) {
    let core = state.estimator().core().hull(state.effective_bbox());
    let geometry = PlacedGeometry {
        cells: state.placed_cells(),
        core,
    };
    let nets: Vec<NetPins> = state
        .netlist()
        .nets()
        .iter()
        .map(|net| NetPins {
            points: net
                .pins
                .iter()
                .map(|np| {
                    np.candidates()
                        .map(|pid| state.pin_position(pid.index()))
                        .collect()
                })
                .collect(),
        })
        .collect();
    (geometry, nets)
}

/// Runs stage 2 on a stage-1 placement.
///
/// `s_t` and `t_inf` are the temperature scale and starting temperature
/// of the stage-1 run (the μ→T′ conversion of eq. 28 is relative to the
/// same `T_∞`).
pub fn refine_placement(
    state: &mut PlacementState<'_>,
    nl: &Netlist,
    place_params: &PlaceParams,
    params: &RefineParams,
    s_t: f64,
    t_inf: f64,
    seed: u64,
) -> Stage2Result {
    refine_placement_with(
        state,
        nl,
        place_params,
        params,
        s_t,
        t_inf,
        seed,
        &mut NullRecorder,
    )
}

/// [`refine_placement`] with a telemetry sink: each refinement execution
/// emits wall-clock [`twmc_obs::StageSpan`]s for channel definition, global
/// routing, and the refinement anneal, plus the anneal's per-temperature
/// [`twmc_obs::PlaceTemp`] stream scoped to `stage2` iteration `k`; the
/// closing route emits a `final_routing` span. Recording never touches
/// the RNG streams, so results are bit-identical to [`refine_placement`].
#[allow(clippy::too_many_arguments)]
pub fn refine_placement_with(
    state: &mut PlacementState<'_>,
    nl: &Netlist,
    place_params: &PlaceParams,
    params: &RefineParams,
    s_t: f64,
    t_inf: f64,
    seed: u64,
    rec: &mut dyn Recorder,
) -> Stage2Result {
    let never = CancelToken::new();
    match refine_placement_resilient(
        state,
        nl,
        place_params,
        params,
        s_t,
        t_inf,
        seed,
        rec,
        &never,
    ) {
        Ok(r) => r,
        Err(_) => unreachable!("a token that never fires cannot interrupt"),
    }
}

/// [`refine_placement_with`] under a cancellation token, polled at every
/// refinement boundary, per net inside global routing, and at every
/// temperature step of the refinement anneals (move attempts count
/// toward the token's move budget).
///
/// `Err(reason)` means the run stopped early; `state` is left at the
/// best placement reached so far — legal to snapshot and report, since
/// cancellation only lands between whole refinement steps. A run that is
/// not stopped is bit-identical to [`refine_placement_with`].
#[allow(clippy::too_many_arguments)]
pub fn refine_placement_resilient(
    state: &mut PlacementState<'_>,
    nl: &Netlist,
    place_params: &PlaceParams,
    params: &RefineParams,
    s_t: f64,
    t_inf: f64,
    seed: u64,
    rec: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<Stage2Result, StopReason> {
    let mut rng = StdRng::seed_from_u64(seed);
    let core = state.estimator().core();
    let limiter = RangeLimiter::new(
        2.0 * core.width() as f64,
        2.0 * core.height() as f64,
        t_inf,
        place_params.rho,
    );
    let t_start = limiter.temperature_for_fraction(MU);
    let schedule = CoolingSchedule::stage2();

    let mut records = Vec::new();
    for k in 0..REFINEMENTS {
        if let Some(reason) = cancel.check() {
            return Err(reason);
        }
        // Channel definition needs strictly disjoint cells with routable
        // gaps; clean up whatever residual overlap annealing left.
        let channel_time = Interval::ChannelDefinition(k as u64).open();
        twmc_place::legalize(state, TRACK_PITCH as i64, 500);

        // (1) + (2): channel definition and global routing.
        let (geometry, nets) = routing_snapshot(state);
        channel_time.close(rec);
        let routing_time = Interval::GlobalRouting(k as u64).open();
        let routing = global_route_cancellable(
            &geometry,
            &nets,
            &params.router,
            seed ^ (k as u64 + 1),
            rec,
            "stage2",
            k as u64,
            cancel,
        )?;
        let max_density = routing.node_density.iter().copied().max().unwrap_or(0);

        // Static expansions from the routed densities.
        let expansions = static_expansions(&routing, nl.cells().len());
        state.set_static_expansions(expansions);
        routing_time.close(rec);

        // (3): low-temperature refinement.
        let anneal_time = Interval::RefineAnneal(k as u64).open();
        let teil_before = state.teil();
        let stall = (k + 1 == REFINEMENTS).then_some(FINAL_STALL);
        let (_run, stopped) = run_annealing_cancellable(
            state,
            place_params,
            MoveSet::Refinement,
            &schedule,
            &limiter,
            t_start,
            s_t,
            stall,
            &mut rng,
            rec,
            RunScope::stage2(k),
            cancel,
        );
        anneal_time.close(rec);
        records.push(RefinementRecord {
            teil_before,
            teil_after: state.teil(),
            chip_after: state.effective_bbox(),
            routed_length: routing.total_length(),
            overflow: routing.overflow(),
            unrouted: routing.unrouted,
            max_density,
        });
        if let Some(reason) = stopped {
            return Err(reason);
        }
    }

    // Final routing of the refined placement.
    let final_time = Interval::FinalRouting(REFINEMENTS as u64).open();
    twmc_place::legalize(state, TRACK_PITCH as i64, 500);
    let (geometry, nets) = routing_snapshot(state);
    let final_routing = global_route_cancellable(
        &geometry,
        &nets,
        &params.router,
        seed ^ 0xffff,
        rec,
        "final",
        REFINEMENTS as u64,
        cancel,
    )?;
    final_time.close(rec);

    Ok(Stage2Result {
        teil: state.teil(),
        chip: state.effective_bbox(),
        records,
        final_routing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_estimator::EstimatorParams;
    use twmc_netlist::{synthesize, SynthParams};
    use twmc_place::place_stage1;
    use twmc_route::global_route;

    fn small_circuit() -> Netlist {
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

    fn fast_params() -> PlaceParams {
        PlaceParams {
            attempts_per_cell: 12,
            normalization_samples: 8,
            ..Default::default()
        }
    }

    #[test]
    fn full_two_stage_flow_converges() {
        let nl = small_circuit();
        let pp = fast_params();
        let (mut state, s1) = place_stage1(
            &nl,
            &pp,
            &EstimatorParams::default(),
            &CoolingSchedule::stage1(),
            42,
        );
        let rp = RefineParams {
            router: RouterParams {
                m_alternatives: 6,
                per_level: 3,
            },
        };
        let s2 = refine_placement(&mut state, &nl, &pp, &rp, s1.s_t, s1.t_infinity, 7);
        assert_eq!(s2.records.len(), 3);
        // Stage-2 changes are small relative to stage 1 — the headline
        // claim behind Table 3. Allow a generous band for tiny circuits.
        let rel_change = (s2.teil - s1.teil).abs() / s1.teil.max(1.0);
        assert!(rel_change < 0.8, "TEIL changed {rel_change} across stage 2");
        // Routing covers the nets.
        assert_eq!(s2.final_routing.routes.len(), nl.nets().len());
        let routed = s2
            .final_routing
            .routes
            .iter()
            .filter(|r| r.is_some())
            .count();
        assert!(routed * 10 >= nl.nets().len() * 9, "{routed} routed");
        // Records are internally consistent.
        for r in &s2.records {
            assert!(r.teil_after.is_finite());
            assert!(r.chip_after.area() > 0);
        }
    }

    #[test]
    fn refinement_respects_static_expansions() {
        let nl = small_circuit();
        let pp = fast_params();
        let (mut state, s1) = place_stage1(
            &nl,
            &pp,
            &EstimatorParams::default(),
            &CoolingSchedule::stage1(),
            3,
        );
        let (geometry, nets) = routing_snapshot(&state);
        let routing = global_route(&geometry, &nets, &RouterParams::default(), 5);
        let exp = static_expansions(&routing, nl.cells().len());
        state.set_static_expansions(exp.clone());
        // After any motion, expansions stay frozen.
        state.set_cell_center(0, twmc_geom::Point::ORIGIN);
        assert_eq!(state.cell(0).expansions, exp[0]);
        state.clear_static_expansions();
        let _ = s1;
    }
}
