//! Multi-start orchestration: independent replicas, best TEIL wins.
//!
//! Replicas are driven in *step-synchronized rounds* by [`drive`]: each
//! round, every live replica runs exactly one temperature step
//! ([`CoolingRun::step`]) in parallel, then the orchestrator drains
//! telemetry, probes the cancellation token, and writes a checkpoint
//! when one is due. All replicas share the Table-1 temperature
//! trajectory (the stage-1 stop conditions depend only on the
//! temperature), so they finish on the same step and a round boundary
//! is a consistent cut of the whole ensemble — which is what makes the
//! checkpoint/resume cycle and the interrupted-telemetry-prefix property
//! exact. The tempering quench drives its rungs through the same
//! [`drive`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

use twmc_anneal::{derive_seed, CoolingSchedule};
use twmc_estimator::EstimatorParams;
use twmc_netlist::Netlist;
use twmc_obs::{
    Event, Instrumented, NullRecorder, Recorder, ReplicaFailed, ReplicaSummary, RunScope,
    StopReason, SummaryRecorder,
};
use twmc_place::{CoolingRun, MoveSet, PlaceParams, PlacementState, Stage1Context, Stage1Result};

use crate::{
    fault, pool, resume, OrchestratorError, ParallelParams, ParallelReport, ReplicaFailure,
    ReplicaReport, RunCtrl, Stage1Outcome, SwapReport,
};

/// Builds the report row for one finished replica.
pub(crate) fn replica_report(
    replica: usize,
    seed: u64,
    state: &PlacementState<'_>,
    result: &Stage1Result,
) -> ReplicaReport {
    ReplicaReport {
        replica,
        seed,
        rung_temperature: None,
        teil: result.teil,
        cost: state.cost(),
        attempts: result.moves.attempts(),
        accepts: result.moves.accepts(),
        teil_trajectory: result.history.iter().map(|r| r.teil).collect(),
    }
}

/// The telemetry footer of one finished replica.
pub(crate) fn replica_summary(phase: &'static str, r: &ReplicaReport) -> Event {
    Event::ReplicaSummary(ReplicaSummary {
        phase,
        replica: r.replica,
        seed: r.seed,
        rung_temperature: r.rung_temperature,
        teil: r.teil,
        cost: r.cost,
        attempts: r.attempts,
        accepts: r.accepts,
    })
}

/// One replica of a [`drive`]n ensemble (a multi-start replica or a
/// quenching tempering rung): its configuration, RNG stream,
/// cooling-loop position, a private telemetry buffer drained by the
/// orchestrator after each round, and the failure note that retires it.
pub(crate) struct Replica<'a> {
    pub(crate) index: usize,
    pub(crate) seed: u64,
    pub(crate) state: PlacementState<'a>,
    pub(crate) rng: StdRng,
    pub(crate) run: CoolingRun,
    pub(crate) local: SummaryRecorder,
    pub(crate) failed: Option<String>,
}

impl<'a> Replica<'a> {
    /// A live replica about to run `run` from `state`.
    pub(crate) fn new(
        index: usize,
        seed: u64,
        state: PlacementState<'a>,
        rng: StdRng,
        run: CoolingRun,
    ) -> Self {
        Replica {
            index,
            seed,
            state,
            rng,
            run,
            local: SummaryRecorder::new(),
            failed: None,
        }
    }

    pub(crate) fn live(&self) -> bool {
        self.failed.is_none()
    }

    pub(crate) fn checkpoint(&self) -> resume::ReplicaCk {
        resume::ReplicaCk {
            seed: self.seed,
            failed: self.failed.clone(),
            rng: self.rng.state(),
            run: self.run.clone(),
            snap: self.state.snapshot(),
            rebuilds: self.state.index_rebuilds(),
            updates: self.state.index_updates(),
        }
    }

    pub(crate) fn restore(&mut self, ck: &resume::ReplicaCk) {
        self.state.restore(&ck.snap);
        self.state.force_index_counters(ck.rebuilds, ck.updates);
        self.rng = StdRng::from_state(ck.rng);
        self.run = ck.run.clone();
        self.failed = ck.failed.clone();
    }
}

/// Runs `params.replicas` independent stage-1 placements under the run
/// controller and keeps the one with the lowest final TEIL (ties go to
/// the lowest replica index, so the selection is total and
/// deterministic). `single` runs the one-replica degenerate form whose
/// event stream and results are bit-identical to
/// [`twmc_place::place_stage1_with`]: it emits no replica summary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_controlled<'a>(
    nl: &'a Netlist,
    place: &PlaceParams,
    est: &EstimatorParams,
    schedule: &CoolingSchedule,
    params: &ParallelParams,
    master_seed: u64,
    rec: &mut dyn Recorder,
    ctrl: &mut RunCtrl,
    resume_payload: Option<&Value>,
    single: bool,
) -> Result<Stage1Outcome<'a>, OrchestratorError> {
    let replicas = if single { 1 } else { params.replicas };
    let threads = params.effective_threads(replicas);
    let stats = nl.stats();
    let config = resume::config_value(
        master_seed,
        params,
        place.attempts_per_cell,
        (stats.cells, stats.nets, stats.pins),
    );
    let phase_tag = if single { "single" } else { "multistart" };
    let ctx = Stage1Context::new(nl, place, est);

    // Fresh construction first (identical for fresh and resumed runs:
    // the restore below overwrites everything construction consumed).
    let seeds: Vec<u64> = (0..replicas).map(|i| derive_seed(master_seed, i)).collect();
    let init = pool::try_run_indexed(replicas, threads, |i| {
        let mut rng = StdRng::seed_from_u64(seeds[i]);
        let state = ctx.random_state(place, &mut rng);
        (state, rng)
    });
    let mut reps: Vec<Replica<'a>> = Vec::with_capacity(replicas);
    let mut failures: Vec<ReplicaFailure> = Vec::new();
    for (i, r) in init.into_iter().enumerate() {
        // Construction is deterministic and non-panicking in production;
        // an init failure (possible only under fault injection in the
        // pool layer) would leave no state to salvage, so surface it.
        let (state, rng) = r.map_err(|e| {
            OrchestratorError::AllReplicasFailed(vec![ReplicaFailure {
                replica: e.index,
                round: 0,
                error: e.message,
            }])
        })?;
        reps.push(Replica::new(
            i,
            seeds[i],
            state,
            rng,
            CoolingRun::new(ctx.t_infinity),
        ));
    }

    if let Some(payload) = resume_payload {
        let cks = resume::multistart_replicas(payload)?;
        if cks.len() != replicas {
            return Err(OrchestratorError::Checkpoint(
                twmc_resume::CheckpointError::Corrupt("checkpoint replica count differs".into()),
            ));
        }
        for (rep, ck) in reps.iter_mut().zip(&cks) {
            rep.restore(ck);
        }
        failures = resume::failures_from(twmc_resume::codec::field(payload, "failed")?)?;
    }

    let scope_for = |i: usize| {
        if single {
            RunScope::STAGE1
        } else {
            RunScope::STAGE1.with_replica(i)
        }
    };
    let build_payload = |reps: &[Replica<'a>], failures: &[ReplicaFailure]| {
        resume::phase_payload(
            phase_tag,
            config.clone(),
            vec![
                (
                    "replicas",
                    Value::Array(
                        reps.iter()
                            .map(|r| resume::replica_value(&r.checkpoint(), nl))
                            .collect(),
                    ),
                ),
                ("failed", resume::failures_value(failures)),
            ],
        )
    };

    if let Some(reason) = drive(
        &ctx,
        place,
        schedule,
        &mut reps,
        threads,
        "multistart",
        0,
        scope_for,
        &mut failures,
        rec,
        ctrl,
        build_payload,
    )? {
        return Ok(interrupted(reason, reps));
    }

    let mut reports: Vec<ReplicaReport> = Vec::new();
    for rep in reps.iter().filter(|r| r.live()) {
        let result = rep
            .run
            .clone()
            .into_result(&rep.state, ctx.t_infinity, ctx.s_t);
        reports.push(replica_report(rep.index, rep.seed, &rep.state, &result));
    }
    let Some(best) = best_live(&reps) else {
        return Err(OrchestratorError::AllReplicasFailed(failures));
    };
    if !single && rec.enabled() {
        for r in &reports {
            rec.record(&replica_summary("multistart", r));
        }
    }
    let rep = reps.swap_remove(best);
    let result = rep.run.into_result(&rep.state, ctx.t_infinity, ctx.s_t);
    let report = ParallelReport {
        strategy: params.strategy,
        replicas,
        threads,
        best_replica: rep.index,
        replica_reports: reports,
        swaps: SwapReport::default(),
        failed: failures,
    };
    Ok(Stage1Outcome::Complete {
        state: rep.state,
        result,
        report,
    })
}

/// Drives `reps` in step-synchronized rounds until every live replica's
/// cooling run is done (`Ok(None)`) or the run controller's token fires
/// (`Ok(Some(reason))`, after flushing a final checkpoint).
///
/// Each round every live replica runs one [`CoolingRun::step`] on the
/// pool, scoped by `scope_for(index)`; round `k` of replica `i` is
/// `round_base + k`, the coordinate fault injection, failure records and
/// the checkpoint cadence use. A replica whose worker panicked is
/// retired with a [`ReplicaFailed`] event tagged `phase`. Worker threads
/// cannot share the caller's `&mut dyn Recorder` (the pool requires
/// `Sync` closures), so each replica records its step's events into its
/// own [`SummaryRecorder`] and the orchestrator drains them in replica
/// order after every round — step-major order, deterministic for any
/// thread count. A run interrupted at a round boundary has therefore
/// emitted an exact prefix of the uninterrupted stream, and the resumed
/// run emits exactly the remaining suffix. The hub and the tracer ride
/// into the workers, so each replica's moves fill the per-move
/// histogram and its own `replica<k>` trace lane. Checkpoints hold
/// `payload(reps, failures)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<'a>(
    ctx: &Stage1Context<'a>,
    place: &PlaceParams,
    schedule: &CoolingSchedule,
    reps: &mut [Replica<'a>],
    threads: usize,
    phase: &'static str,
    round_base: usize,
    scope_for: impl Fn(usize) -> RunScope + Sync,
    failures: &mut Vec<ReplicaFailure>,
    rec: &mut dyn Recorder,
    ctrl: &mut RunCtrl,
    payload: impl Fn(&[Replica<'a>], &[ReplicaFailure]) -> Value,
) -> Result<Option<StopReason>, OrchestratorError> {
    let enabled = rec.enabled();
    while reps.iter().any(|r| r.live() && !r.run.done) {
        let before: usize = reps.iter().map(|r| r.run.moves.attempts()).sum();
        let round_hub = rec.hub().cloned();
        let round_tracer = rec.tracer().cloned();
        let outcomes = pool::try_run_mut(reps, threads, |_, rep| {
            if !rep.live() || rep.run.done {
                return;
            }
            fault::maybe_fail(rep.index, round_base + rep.run.steps());
            let mut null = NullRecorder;
            let sink: &mut dyn Recorder = if enabled { &mut rep.local } else { &mut null };
            let mut sink = Instrumented::new(sink, round_hub.clone(), round_tracer.clone());
            rep.run.step(
                &mut rep.state,
                place,
                MoveSet::Full,
                schedule,
                &ctx.limiter,
                ctx.s_t,
                None,
                &mut rep.rng,
                &mut sink,
                scope_for(rep.index),
            );
        });
        for (rep, out) in reps.iter_mut().zip(&outcomes) {
            if let Err(e) = out {
                if rep.live() {
                    rep.failed = Some(e.message.clone());
                    let round = (round_base + rep.run.steps()) as u64;
                    failures.push(ReplicaFailure {
                        replica: rep.index,
                        round,
                        error: e.message.clone(),
                    });
                    if let Some(hub) = rec.hub() {
                        hub.replica_failures_total.inc();
                    }
                    if enabled {
                        rec.record(&Event::ReplicaFailed(ReplicaFailed {
                            phase,
                            replica: rep.index,
                            round,
                            error: e.message.clone(),
                        }));
                    }
                }
            }
        }
        if enabled {
            for rep in reps.iter_mut() {
                for e in std::mem::take(&mut rep.local).into_events() {
                    rec.record(&e);
                }
            }
        }
        let after: usize = reps.iter().map(|r| r.run.moves.attempts()).sum();
        ctrl.cancel.add_moves((after - before) as u64);

        if let Some(reason) = ctrl.cancel.check() {
            ctrl.write_checkpoint(&payload(reps, failures), rec)?;
            return Ok(Some(reason));
        }
        let step = reps
            .iter()
            .filter(|r| r.live())
            .map(|r| r.run.steps())
            .max()
            .unwrap_or(0);
        if step > 0 && ctrl.checkpoint_due((round_base + step) as u64 - 1) {
            ctrl.write_checkpoint(&payload(reps, failures), rec)?;
        }
    }
    Ok(None)
}

/// Closes an interrupted run over the best live replica so far (lowest
/// TEIL — total costs are not comparable across multi-start replicas,
/// whose `p₂` normalizations differ).
pub(crate) fn interrupted(reason: StopReason, mut reps: Vec<Replica<'_>>) -> Stage1Outcome<'_> {
    // With every replica failed *and* an interrupt at the same boundary,
    // fall back to replica 0's mid-mutation state — still a placement.
    let rep = reps.swap_remove(best_live(&reps).unwrap_or(0));
    Stage1Outcome::Interrupted {
        reason,
        teil: rep.state.teil(),
        cost: rep.state.cost(),
        state: rep.state,
    }
}

/// Position of the live replica with the lowest TEIL, the first on ties
/// (`Iterator::min_by` would keep the last), so the selection is total
/// and deterministic; `None` once every replica has failed.
pub(crate) fn best_live(reps: &[Replica<'_>]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, rep) in reps.iter().enumerate() {
        if rep.live() && best.is_none_or(|b| rep.state.teil() < reps[b].state.teil()) {
            best = Some(i);
        }
    }
    best
}
