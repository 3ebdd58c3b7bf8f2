//! The stage-1 placement driver (paper §3).
//!
//! Wires together the estimator, the cost terms, the `generate` cascade,
//! the range limiter, and the cooling schedule into the full annealing
//! run: starting from a random configuration at `T_∞` (chosen so nearly
//! every move is accepted), cool per Table 1 until the range-limiter
//! window reaches its minimum span.

use rand::rngs::StdRng;
use rand::SeedableRng;

use twmc_anneal::{t_infinity, temperature_scale, CoolingSchedule, RangeLimiter};
use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams, PinDensityFactors};
use twmc_netlist::Netlist;
use twmc_obs::{
    CancelToken, ClassCount, CostBreakdown, Event, Lane, MetricsHub, NullRecorder, PlaceTemp,
    Recorder, RunScope, StopReason, MOVE_EVAL_SAMPLE,
};

use crate::state::CostTimes;
use crate::{generate, MoveSet, MoveStats, PlaceParams, PlacementState};

/// Record of one temperature step of a placement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TempRecord {
    /// Temperature of the inner loop.
    pub temperature: f64,
    /// Attempts made (including cascade retries).
    pub attempts: usize,
    /// Acceptances.
    pub accepts: usize,
    /// Total cost after the loop.
    pub cost: f64,
    /// TEIL after the loop.
    pub teil: f64,
    /// Raw overlap after the loop.
    pub overlap: i64,
    /// Range-limiter window span `W_x(T)` during the loop.
    pub window_x: f64,
}

/// Outcome of a stage-1 run.
#[derive(Debug, Clone)]
pub struct Stage1Result {
    /// Final total estimated interconnect length.
    pub teil: f64,
    /// Final TEIC (`C₁`).
    pub c1: f64,
    /// Residual raw overlap area (should be ≈0; the paper tracks this as
    /// the quality signal of the ρ and `D_s` choices).
    pub residual_overlap: i64,
    /// Final pin-site penalty (should be 0 at the end of stage 1).
    pub c3: f64,
    /// Chip bounding box including interconnect allowances.
    pub chip: twmc_geom::Rect,
    /// Starting temperature used.
    pub t_infinity: f64,
    /// Temperature scale `S_T`.
    pub s_t: f64,
    /// Per-temperature history.
    pub history: Vec<TempRecord>,
    /// Move-class counters.
    pub moves: MoveStats,
}

impl Stage1Result {
    /// Chip area estimate (bounding box including allowances).
    pub fn chip_area(&self) -> i64 {
        self.chip.area()
    }
}

/// Hard cap on temperature steps (a paper run is ≈120).
const MAX_STEPS: usize = 1200;

/// One move block in this many gets its `move_cost` time split across
/// the three cost terms when a tracer is attached: the armed
/// [`crate::CostClock`] adds ~12 clock reads per move, so sampling
/// 1-in-16 blocks keeps the traced path within the benched <2% per-move
/// overhead gate while still sampling hundreds of blocks per temperature
/// step on real circuits. The terms' spans cover `move_cost` only; the
/// rest of each attempt stays in the block's self time.
pub const COST_ATTRIB_SAMPLE: usize = 16;

/// One inner loop at temperature `t`: `inner` calls of [`generate`]
/// (`A = A_c · N_c`, eq. 17) inside the `wx × wy` range-limiter window,
/// counted into `stats`. Every annealing run of the workspace — stage 1,
/// the stage-2 refinements, each tempering rung and each quench — runs
/// its moves through here.
///
/// With neither a metrics `hub` nor a trace `lane` this is the bare
/// loop. Otherwise the moves run in [`MOVE_EVAL_SAMPLE`]-move blocks
/// whose two clock reads are shared between the hub's per-move
/// histogram and the lane's `move_block` spans — a fraction of a
/// nanosecond per move — while the block body stays branch-free,
/// identical to the plain loop. Every [`COST_ATTRIB_SAMPLE`]-th traced
/// block additionally arms the state's cost stopwatch, whose synthetic
/// child spans split move-eval time across the three cost terms; the
/// whole loop closes with one `temp_step` span and the hub's move and
/// step counters. Neither the hub nor the lane ever sees the RNG, so
/// results are bit-identical either way.
#[allow(clippy::too_many_arguments)]
pub fn inner_loop(
    state: &mut PlacementState<'_>,
    params: &PlaceParams,
    move_set: MoveSet,
    wx: f64,
    wy: f64,
    t: f64,
    inner: usize,
    rng: &mut StdRng,
    stats: &mut MoveStats,
    hub: Option<&MetricsHub>,
    mut lane: Option<Lane>,
) {
    if hub.is_none() && lane.is_none() {
        for _ in 0..inner {
            generate(state, params, move_set, wx, wy, t, rng, stats);
        }
        return;
    }
    let step_t0 = std::time::Instant::now();
    let before = *stats;
    let mut done = 0usize;
    let mut block = 0usize;
    while done < inner {
        let n = MOVE_EVAL_SAMPLE.min(inner - done);
        let attributed = lane.is_some() && block.is_multiple_of(COST_ATTRIB_SAMPLE);
        if attributed {
            state.cost_clock().start();
        }
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            generate(state, params, move_set, wx, wy, t, rng, stats);
        }
        let elapsed = t0.elapsed();
        if let Some(hub) = hub {
            hub.move_eval_ns
                .observe(elapsed.as_nanos() as f64 / n as f64);
        }
        if let Some(lane) = &mut lane {
            lane.span("move_block", "place", t0, elapsed);
            if attributed {
                attribute_cost_terms(lane, t0, elapsed, state.cost_clock().stop());
            }
        }
        done += n;
        block += 1;
    }
    if let Some(hub) = hub {
        let delta = stats.since(&before);
        hub.moves_total.add(delta.attempts() as u64);
        hub.moves_accepted_total.add(delta.accepts() as u64);
        hub.temp_steps_total.inc();
    }
    if let Some(lane) = &mut lane {
        lane.span("temp_step", "place", step_t0, step_t0.elapsed());
    }
}

/// Lays the sampled block's cost-term times into the trace as
/// synthetic children of its `move_block` span: consecutive spans from
/// the block's start, one per cost term. Their sum is bounded by the
/// block duration (they are measured subintervals of it), so time
/// containment — which is how the profiler re-derives nesting — holds
/// by construction; each span is clamped to the block end anyway in
/// case clock granularity rounds the terms past it.
fn attribute_cost_terms(
    lane: &mut Lane,
    t0: std::time::Instant,
    elapsed: std::time::Duration,
    times: CostTimes,
) {
    let block_ts = lane.rel_of(t0);
    let block_end = block_ts + elapsed.as_nanos() as u64;
    let mut at = block_ts;
    for (name, dur) in [
        ("net_span", times.net_ns),
        ("overlap_index", times.overlap_ns),
        ("penalty", times.penalty_ns),
    ] {
        if dur == 0 {
            continue;
        }
        let start = at.min(block_end);
        let dur = dur.min(block_end - start);
        lane.span_rel(name, "cost", start, dur);
        at = start + dur;
    }
}

/// Scaled temperature floor: once the window is at its minimum span, keep
/// cooling until `T ≤ 5 · S_T` so the cost firmly converges (the paper's
/// final regime runs below `10 · S_T`, Table 1). On the paper's large
/// grids the window criterion alone lands here; on small grids it would
/// stop hot.
const FINAL_SCALED_T: f64 = 5.0;

/// Netlist-determined context shared by every stage-1 run on a circuit.
///
/// Core determination, density factors, the temperature scale, and the
/// range limiter depend only on the netlist and parameters — not on the
/// seed — so a multi-replica orchestrator builds this once and derives
/// one [`PlacementState`] per replica from it.
#[derive(Debug, Clone)]
pub struct Stage1Context<'a> {
    nl: &'a Netlist,
    estimator: twmc_estimator::Estimator,
    density: Vec<PinDensityFactors>,
    /// Temperature scale `S_T` (eq. 20) from the average effective area.
    pub s_t: f64,
    /// Starting temperature `T_∞ = S_T · T*_∞` (eq. 21).
    pub t_infinity: f64,
    /// Range limiter spanning twice the core at `T_∞` (Fig. 4).
    pub limiter: RangeLimiter,
}

impl<'a> Stage1Context<'a> {
    /// Determines the core and the annealing scales for a circuit.
    pub fn new(nl: &'a Netlist, params: &PlaceParams, est_params: &EstimatorParams) -> Self {
        let det = determine_core(nl, est_params);
        let density = cell_density_factors(nl, nl.stats().avg_pin_density);
        // Temperature scale from the average *effective* cell area (cell
        // plus interconnect allowance), per §3.3.
        let c_a = det.effective_area / nl.cells().len() as f64;
        let s_t = temperature_scale(c_a);
        let t_inf = t_infinity(s_t);
        // At T_∞ the window extends beyond the core (Fig. 4).
        let core = det.estimator.core();
        let limiter = RangeLimiter::new(
            2.0 * core.width() as f64,
            2.0 * core.height() as f64,
            t_inf,
            params.rho,
        );
        Stage1Context {
            nl,
            estimator: det.estimator,
            density,
            s_t,
            t_infinity: t_inf,
            limiter,
        }
    }

    /// The netlist this context was built for.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// The scaled temperature floor at which a stage-1 run stops once the
    /// range-limiter window is minimal — the coldest useful rung for a
    /// tempering ladder.
    pub fn final_temperature(&self) -> f64 {
        self.s_t * FINAL_SCALED_T
    }

    /// Creates a calibrated random initial configuration from `rng`.
    ///
    /// Consumes the stream exactly as [`place_stage1`] does (random
    /// placement, then `p₂` calibration), so a replica fed
    /// `StdRng::seed_from_u64(seed)` starts bit-identically to
    /// `place_stage1(.., seed)`.
    pub fn random_state(&self, params: &PlaceParams, rng: &mut StdRng) -> PlacementState<'a> {
        let mut state = PlacementState::random(
            self.nl,
            self.estimator.clone(),
            self.density.clone(),
            params.kappa,
            rng,
        );
        state.calibrate_p2(params.eta, params.normalization_samples, rng);
        state
    }
}

/// Runs stage-1 placement on a fresh random configuration.
///
/// Returns the final state (input to stage 2) and the run record.
pub fn place_stage1<'a>(
    nl: &'a Netlist,
    params: &PlaceParams,
    est_params: &EstimatorParams,
    schedule: &CoolingSchedule,
    seed: u64,
) -> (PlacementState<'a>, Stage1Result) {
    place_stage1_with(nl, params, est_params, schedule, seed, &mut NullRecorder)
}

/// [`place_stage1`] with a telemetry sink receiving one
/// [`PlaceTemp`] event per temperature step ([`RunScope::STAGE1`]).
///
/// Recording never touches the RNG stream: with any recorder the run is
/// bit-identical to [`place_stage1`] on the same seed.
pub fn place_stage1_with<'a>(
    nl: &'a Netlist,
    params: &PlaceParams,
    est_params: &EstimatorParams,
    schedule: &CoolingSchedule,
    seed: u64,
    rec: &mut dyn Recorder,
) -> (PlacementState<'a>, Stage1Result) {
    let ctx = Stage1Context::new(nl, params, est_params);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = ctx.random_state(params, &mut rng);
    let (result, _) = run_annealing_cancellable(
        &mut state,
        params,
        MoveSet::Full,
        schedule,
        &ctx.limiter,
        ctx.t_infinity,
        ctx.s_t,
        None,
        &mut rng,
        rec,
        RunScope::STAGE1,
        &CancelToken::new(),
    );
    (state, result)
}

/// The shared annealing loop (stage 1 uses the full move set; stage 2
/// re-enters with [`MoveSet::Refinement`], a smaller window, and Table 2).
///
/// When `cost_stall` is `Some(k)`, the run additionally stops once the
/// cost is unchanged for `k` consecutive inner loops — the paper's
/// stopping criterion for the final placement-refinement step (§4.3).
#[allow(clippy::too_many_arguments)]
pub fn run_annealing(
    state: &mut PlacementState<'_>,
    params: &PlaceParams,
    move_set: MoveSet,
    schedule: &CoolingSchedule,
    limiter: &RangeLimiter,
    t_start: f64,
    s_t: f64,
    cost_stall: Option<usize>,
    rng: &mut StdRng,
) -> Stage1Result {
    run_annealing_cancellable(
        state,
        params,
        move_set,
        schedule,
        limiter,
        t_start,
        s_t,
        cost_stall,
        rng,
        &mut NullRecorder,
        RunScope::STAGE1,
        &CancelToken::new(),
    )
    .0
}

/// The annealing loop in resumable stepping form: one
/// [`CoolingRun::step`] call executes exactly one temperature step (one
/// [`inner_loop`] plus history/telemetry bookkeeping), so an
/// orchestrator can checkpoint, cancel, or interleave replicas at every
/// step boundary. [`run_annealing_cancellable`] drives it as a closed
/// loop.
///
/// All fields are public so a checkpoint codec can capture and restore
/// the loop position exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CoolingRun {
    /// Temperature the *next* step will run at.
    pub t: f64,
    /// Per-temperature history so far.
    pub history: Vec<TempRecord>,
    /// Cumulative move-class counters.
    pub moves: MoveStats,
    /// Consecutive cost-unchanged steps (the `cost_stall` criterion).
    pub stall: usize,
    /// Cost after the previous step (`NaN` before the first).
    pub last_cost: f64,
    /// Whether a stopping criterion has fired.
    pub done: bool,
}

impl CoolingRun {
    /// A fresh run that will start at `t_start`.
    pub fn new(t_start: f64) -> Self {
        CoolingRun {
            t: t_start,
            history: Vec::new(),
            moves: MoveStats::default(),
            stall: 0,
            last_cost: f64::NAN,
            done: false,
        }
    }

    /// Temperature steps completed so far.
    pub fn steps(&self) -> usize {
        self.history.len()
    }

    /// Runs one temperature step. Returns `true` once the run is
    /// finished (further calls are no-ops that keep returning `true`).
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        state: &mut PlacementState<'_>,
        params: &PlaceParams,
        move_set: MoveSet,
        schedule: &CoolingSchedule,
        limiter: &RangeLimiter,
        s_t: f64,
        cost_stall: Option<usize>,
        rng: &mut StdRng,
        rec: &mut dyn Recorder,
        scope: RunScope,
        lane: &str,
    ) -> bool {
        if self.done || self.history.len() >= MAX_STEPS {
            self.done = true;
            return true;
        }
        let t = self.t;
        let step = self.history.len();
        self.sweep(
            state, params, move_set, limiter, s_t, t, step, rng, rec, scope, lane,
        );
        if let Some(k) = cost_stall {
            let cost = state.cost();
            if (cost - self.last_cost).abs() <= 1e-9 * cost.abs().max(1.0) {
                self.stall += 1;
                if self.stall >= k {
                    self.done = true;
                    return true;
                }
            } else {
                self.stall = 0;
            }
            self.last_cost = cost;
        }
        if limiter.at_minimum(t) && t <= s_t * FINAL_SCALED_T {
            self.done = true;
            return true;
        }
        let next = schedule.next(t, s_t);
        if next <= 0.0 || !next.is_finite() {
            self.done = true;
            return true;
        }
        self.t = next;
        if self.history.len() >= MAX_STEPS {
            self.done = true;
            return true;
        }
        false
    }

    /// Runs one inner loop at `t`, appends it to the history and records
    /// it as one [`PlaceTemp`] labelled `scope` and numbered `step`.
    /// [`CoolingRun::step`] sweeps at the run's own temperature; a
    /// tempering rung sweeps at its ladder temperature, numbered by
    /// round. Moves trace onto trace lane `lane`, the one of the thread
    /// that runs them.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep(
        &mut self,
        state: &mut PlacementState<'_>,
        params: &PlaceParams,
        move_set: MoveSet,
        limiter: &RangeLimiter,
        s_t: f64,
        t: f64,
        step: usize,
        rng: &mut StdRng,
        rec: &mut dyn Recorder,
        scope: RunScope,
        lane: &str,
    ) {
        let inner = params.attempts_per_cell * state.cells().len();
        let wx = limiter.window_x(t);
        let wy = limiter.window_y(t);
        let before = self.moves;
        inner_loop(
            state,
            params,
            move_set,
            wx,
            wy,
            t,
            inner,
            rng,
            &mut self.moves,
            rec.hub().map(|hub| &**hub),
            rec.tracer().map(|tr| tr.lane(lane)),
        );
        self.history.push(TempRecord {
            temperature: t,
            attempts: self.moves.attempts() - before.attempts(),
            accepts: self.moves.accepts() - before.accepts(),
            cost: state.cost(),
            teil: state.teil(),
            overlap: state.raw_overlap(),
            window_x: wx,
        });
        if rec.enabled() {
            let delta = self.moves.since(&before);
            rec.record(&Event::PlaceTemp(PlaceTemp {
                phase: scope.phase,
                iteration: scope.iteration,
                replica: scope.replica,
                step,
                temperature: t,
                s_t,
                window_x: wx,
                window_y: wy,
                inner,
                attempts: delta.attempts(),
                accepts: delta.accepts(),
                cost: CostBreakdown {
                    total: state.cost(),
                    c1: state.c1(),
                    overlap: state.raw_overlap(),
                    overlap_penalty: state.p2() * state.raw_overlap() as f64,
                    c3: state.c3(),
                },
                teil: state.teil(),
                index_rebuilds: state.index_rebuilds(),
                index_updates: state.index_updates(),
                classes: delta
                    .classes()
                    .iter()
                    .map(|&(class, (attempts, accepts))| ClassCount {
                        class,
                        attempts,
                        accepts,
                    })
                    .collect(),
            }));
        }
    }

    /// Closes the run into a [`Stage1Result`] over the final state.
    pub fn into_result(self, state: &PlacementState<'_>, t_start: f64, s_t: f64) -> Stage1Result {
        Stage1Result {
            teil: state.teil(),
            c1: state.c1(),
            residual_overlap: state.raw_overlap(),
            c3: state.c3(),
            chip: state.effective_bbox(),
            t_infinity: t_start,
            s_t,
            history: self.history,
            moves: self.moves,
        }
    }
}

/// [`run_annealing`] with a telemetry sink and cooperative
/// cancellation. Each temperature step emits one [`PlaceTemp`] event
/// labeled with `scope`, carrying the full controller state (window,
/// cost decomposition, per-class counters, spatial-index counters). The
/// token is polled after every step (its move budget fed with the
/// step's attempts), and on a stop the partial result is returned with
/// the reason. Events and the token stay outside the Metropolis loop and
/// never touch the RNG, so the run is bit-identical to [`run_annealing`]
/// for any recorder and any token that never fires. The run's moves
/// trace on lane `main`: it runs on the calling thread.
#[allow(clippy::too_many_arguments)]
pub fn run_annealing_cancellable(
    state: &mut PlacementState<'_>,
    params: &PlaceParams,
    move_set: MoveSet,
    schedule: &CoolingSchedule,
    limiter: &RangeLimiter,
    t_start: f64,
    s_t: f64,
    cost_stall: Option<usize>,
    rng: &mut StdRng,
    rec: &mut dyn Recorder,
    scope: RunScope,
    cancel: &CancelToken,
) -> (Stage1Result, Option<StopReason>) {
    let mut run = CoolingRun::new(t_start);
    let mut stopped = None;
    loop {
        let before = run.moves;
        let finished = run.step(
            state, params, move_set, schedule, limiter, s_t, cost_stall, rng, rec, scope, "main",
        );
        cancel.add_moves((run.moves.attempts() - before.attempts()) as u64);
        if finished {
            break;
        }
        if let Some(reason) = cancel.check() {
            stopped = Some(reason);
            break;
        }
    }
    (run.into_result(state, t_start, s_t), stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_anneal::MIN_WINDOW_SPAN;
    use twmc_netlist::{synthesize, SynthParams};

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
    fn stage1_improves_teil_and_clears_overlap() {
        let nl = small_circuit();
        let (state, result) = place_stage1(
            &nl,
            &fast_params(),
            &EstimatorParams::default(),
            &CoolingSchedule::stage1(),
            42,
        );
        // The total cost at the end is far below the hot-equilibrium cost.
        // (TEIL alone is not monotone: random configurations stack cells,
        // which shortens nets while violating overlap — the paper notes
        // TEIL *rises* while infeasibilities are removed at low T.)
        let hot_cost = result.history.first().expect("history").cost;
        let final_cost = result.history.last().expect("history").cost;
        // Legal (overlap-free) configurations necessarily have longer
        // nets than stacked random ones, so the cost improvement is
        // bounded; what matters is that it improves *and* goes feasible.
        assert!(
            final_cost < 0.95 * hot_cost,
            "final {final_cost} vs hot {hot_cost}"
        );
        // Residual overlap is small relative to total cell area.
        let cell_area: i64 = nl.cells().iter().map(|c| c.area()).sum();
        assert!(
            result.residual_overlap < cell_area / 10,
            "residual overlap {} vs cell area {cell_area}",
            result.residual_overlap
        );
        // Bookkeeping still exact.
        let (c1, ov, c3) = state.recompute_totals();
        assert!((state.c1() - c1).abs() < 1e-6 * c1.max(1.0));
        assert_eq!(state.raw_overlap(), ov);
        assert!((state.c3() - c3).abs() < 1e-6);
    }

    #[test]
    fn initial_acceptance_is_high() {
        let nl = small_circuit();
        let (_, result) = place_stage1(
            &nl,
            &fast_params(),
            &EstimatorParams::default(),
            &CoolingSchedule::stage1(),
            7,
        );
        let first = result.history.first().expect("history");
        let rate = first.accepts as f64 / first.attempts.max(1) as f64;
        assert!(rate > 0.85, "initial acceptance {rate}");
        // And it decays substantially by the end.
        let last = result.history.last().expect("history");
        let last_rate = last.accepts as f64 / last.attempts.max(1) as f64;
        assert!(last_rate < rate);
    }

    #[test]
    fn deterministic_given_seed() {
        let nl = small_circuit();
        let run = |seed| {
            place_stage1(
                &nl,
                &fast_params(),
                &EstimatorParams::default(),
                &CoolingSchedule::stage1(),
                seed,
            )
            .1
            .teil
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn history_temperatures_decrease() {
        let nl = small_circuit();
        let (_, result) = place_stage1(
            &nl,
            &fast_params(),
            &EstimatorParams::default(),
            &CoolingSchedule::stage1(),
            11,
        );
        for pair in result.history.windows(2) {
            assert!(pair[1].temperature < pair[0].temperature);
        }
        assert!(result.history.len() > 20, "expected a real cooling run");
    }

    #[test]
    fn every_step_runs_the_eq17_inner_loop() {
        let nl = small_circuit();
        let params = fast_params();
        let mut rec = twmc_obs::SummaryRecorder::new();
        let (_, result) = place_stage1_with(
            &nl,
            &params,
            &EstimatorParams::default(),
            &CoolingSchedule::stage1(),
            42,
            &mut rec,
        );
        let steps = rec.place_temps("stage1");
        assert_eq!(steps.len(), result.history.len());
        // A = A_c · N_c (eq. 17); cascade retries only add attempts.
        let inner = params.attempts_per_cell * nl.cells().len();
        for step in steps {
            assert_eq!(step.inner, inner, "step {}", step.step);
            assert!(step.attempts >= inner, "step {}", step.step);
        }
    }

    #[test]
    fn stage1_stops_on_the_window_and_floor_rule() {
        let nl = small_circuit();
        let params = fast_params();
        let est = EstimatorParams::default();
        let (_, result) = place_stage1(&nl, &params, &est, &CoolingSchedule::stage1(), 42);
        let ctx = Stage1Context::new(&nl, &params, &est);
        let floor = FINAL_SCALED_T * result.s_t;
        let stops =
            |r: &TempRecord| ctx.limiter.at_minimum(r.temperature) && r.temperature <= floor;
        let (last, earlier) = result.history.split_last().expect("history");
        assert_eq!(last.window_x, MIN_WINDOW_SPAN);
        assert!(stops(last), "{last:?} (floor {floor})");
        assert!(!earlier.iter().any(stops), "the run went past its stop");
        assert!(result.history.len() < MAX_STEPS);
    }

    #[test]
    fn refinement_stops_on_a_stalled_cost_above_the_floor() {
        let nl = small_circuit();
        let est = EstimatorParams::default();
        let stage1 = fast_params();
        let params = PlaceParams {
            attempts_per_cell: 1,
            ..stage1
        };
        for seed in [7, 42] {
            let (mut state, _) = place_stage1(&nl, &stage1, &est, &CoolingSchedule::stage1(), seed);
            let ctx = Stage1Context::new(&nl, &params, &est);
            let result = run_annealing(
                &mut state,
                &params,
                MoveSet::Refinement,
                &CoolingSchedule::stage2(),
                &ctx.limiter,
                ctx.limiter.temperature_for_fraction(0.03),
                ctx.s_t,
                Some(1),
                &mut StdRng::seed_from_u64(seed),
            );
            // The run ends on the first pair of equal consecutive costs…
            let costs: Vec<f64> = result.history.iter().map(|r| r.cost).collect();
            let (&last, rest) = costs.split_last().expect("history");
            assert_eq!(rest.last(), Some(&last), "seed {seed}: {costs:?}");
            assert!(
                rest.windows(2).all(|w| w[0] != w[1]),
                "seed {seed}: {costs:?}"
            );
            // …before the window-and-floor rule would have stopped it.
            let t = result.history.last().expect("history").temperature;
            assert!(t > FINAL_SCALED_T * ctx.s_t, "seed {seed}: T {t}");
        }
    }
}
