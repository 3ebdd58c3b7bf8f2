//! The replica round loop and multi-start orchestration.
//!
//! Every ensemble — multi-start replicas, the tempering ladder's rungs
//! and their quench — is driven in *step-synchronized rounds* by
//! [`drive`]: each round, every live replica its strategy lets sweep
//! runs one inner loop in parallel, then the orchestrator retires
//! failed replicas, drains telemetry, runs the strategy's between-round
//! work (the ladder's swaps and cooling), probes the cancellation token,
//! and writes a checkpoint when one is due. A strategy supplies only its
//! own rules, as a [`Rounds`] implementation.
//!
//! Multi-start replicas share the Table-1 temperature trajectory (the
//! stage-1 stop conditions depend only on the temperature), so they
//! finish on the same step and a round boundary is a consistent cut of
//! the whole ensemble — which is what makes the checkpoint/resume cycle
//! and the interrupted-telemetry-prefix property exact.

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
use twmc_place::{CoolingRun, MoveSet, PlaceParams, PlacementState, Stage1Context};
use twmc_resume::codec::{self, field, get, Codec};
use twmc_resume::CheckpointError;

use crate::{
    pool, resume, OrchestratorError, ParallelParams, ParallelReport, ReplicaFailure, ReplicaReport,
    RunCtrl, Stage1Outcome, SwapReport,
};

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
/// tempering rung): its configuration, RNG stream, cooling run (move
/// counters and TEIL history), a private telemetry buffer drained by
/// the orchestrator after each round, and the failure note that retires
/// it. A tempering swap exchanges `state` between rungs; everything
/// else stays with the rung.
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
    pub(crate) fn live(&self) -> bool {
        self.failed.is_none()
    }

    /// The report row of the replica as it stands.
    pub(crate) fn report(&self) -> ReplicaReport {
        ReplicaReport {
            replica: self.index,
            seed: self.seed,
            rung_temperature: None,
            teil: self.state.teil(),
            cost: self.state.cost(),
            attempts: self.run.moves.attempts(),
            accepts: self.run.moves.accepts(),
            teil_trajectory: self.run.history.iter().map(|r| r.teil).collect(),
        }
    }
}

/// Builds `replicas` live replicas on the pool, replica `i` from the
/// random start its stream `derive_seed(master_seed, i)` draws, each
/// about to cool from `T∞`. Fresh and resumed runs both start here (a
/// resume then overwrites everything construction consumed).
pub(crate) fn spawn<'a>(
    ctx: &Stage1Context<'a>,
    place: &PlaceParams,
    master_seed: u64,
    replicas: usize,
    threads: usize,
) -> Result<Vec<Replica<'a>>, OrchestratorError> {
    let seeds: Vec<u64> = (0..replicas).map(|i| derive_seed(master_seed, i)).collect();
    let init = pool::try_run_indexed(replicas, threads, |i| {
        let mut rng = StdRng::seed_from_u64(seeds[i]);
        let state = ctx.random_state(place, &mut rng);
        (state, rng)
    });
    init.into_iter()
        .enumerate()
        .map(|(index, r)| {
            // Construction is deterministic and does not panic; a
            // failure here would leave no state to salvage, so surface it.
            let (state, rng) = r.map_err(|e| {
                OrchestratorError::AllReplicasFailed(vec![ReplicaFailure {
                    replica: e.index,
                    round: 0,
                    error: e.message,
                }])
            })?;
            Ok(Replica {
                index,
                seed: seeds[index],
                state,
                rng,
                run: CoolingRun::new(ctx.t_infinity),
                local: SummaryRecorder::new(),
                failed: None,
            })
        })
        .collect()
}

/// Restores every replica of `reps` from a checkpoint payload, if
/// there is one, and returns its failure list.
pub(crate) fn restore(
    reps: &mut [Replica<'_>],
    payload: Option<&Value>,
) -> Result<Vec<ReplicaFailure>, OrchestratorError> {
    let Some(payload) = payload else {
        return Ok(Vec::new());
    };
    let Value::Array(records) = get(payload, "replicas")? else {
        return Err(CheckpointError::Corrupt("`replicas` is not an array".into()).into());
    };
    if records.len() != reps.len() {
        return Err(CheckpointError::Corrupt("checkpoint replica count differs".into()).into());
    }
    for (rep, v) in reps.iter_mut().zip(records) {
        resume::restore_replica(rep, v)?;
    }
    Ok(field(payload, "failed")?)
}

/// Rounds the ensemble has completed: the step count of its live
/// replicas, which every cooling replica that is still running shares.
pub(crate) fn steps_done(reps: &[Replica<'_>]) -> usize {
    reps.iter()
        .filter(|r| r.live())
        .map(|r| r.run.steps())
        .max()
        .unwrap_or(0)
}

/// A strategy's own rules around [`drive`]'s round loop.
pub(crate) trait Rounds<'a>: Sync {
    /// The phase of the checkpoint payload and the `replica_failed`
    /// events.
    fn phase(&self) -> &'static str;
    /// Whether round `round` runs; checked before each round.
    fn more(&self, reps: &[Replica<'a>], round: usize) -> bool;
    /// Whether the live `rep` sweeps this round.
    fn sweeps(&self, rep: &Replica<'a>) -> bool;
    /// Runs `rep`'s sweep of round `round` on a worker thread, tracing
    /// its moves on trace lane `lane`.
    fn sweep(&self, rep: &mut Replica<'a>, round: usize, rec: &mut dyn Recorder, lane: &str);
    /// Runs on the orchestrator once round `round`'s failures are
    /// retired and its telemetry drained, before the cancellation probe.
    fn after_round(&mut self, _reps: &mut [Replica<'a>], _round: usize, _rec: &mut dyn Recorder) {}
    /// The checkpoint fields the strategy adds to the replicas and
    /// failures.
    fn state(&self) -> Vec<(&'static str, Value)> {
        Vec::new()
    }
}

/// Cooling runs: every live replica takes one [`CoolingRun::step`] per
/// round until its stop rule fires — multi-start, the single run and
/// the tempering quench.
pub(crate) struct Cooling<'c, 'a> {
    pub(crate) ctx: &'c Stage1Context<'a>,
    pub(crate) place: &'c PlaceParams,
    pub(crate) schedule: &'c CoolingSchedule,
    pub(crate) phase: &'static str,
    /// The telemetry scope of replica `i`'s steps.
    pub(crate) scope: &'c (dyn Fn(usize) -> RunScope + Sync),
    /// The checkpoint fields beyond the replicas and failures (the
    /// quench's ladder outcome), encoded only when a checkpoint is.
    pub(crate) state: &'c (dyn Fn() -> Vec<(&'static str, Value)> + Sync),
}

impl<'a> Rounds<'a> for Cooling<'_, 'a> {
    fn phase(&self) -> &'static str {
        self.phase
    }

    fn more(&self, reps: &[Replica<'a>], _round: usize) -> bool {
        reps.iter().any(|r| r.live() && !r.run.done)
    }

    fn sweeps(&self, rep: &Replica<'a>) -> bool {
        !rep.run.done
    }

    fn sweep(&self, rep: &mut Replica<'a>, _round: usize, rec: &mut dyn Recorder, lane: &str) {
        rep.run.step(
            &mut rep.state,
            self.place,
            MoveSet::Full,
            self.schedule,
            &self.ctx.limiter,
            self.ctx.s_t,
            None,
            &mut rep.rng,
            rec,
            (self.scope)(rep.index),
            lane,
        );
    }

    fn state(&self) -> Vec<(&'static str, Value)> {
        (self.state)()
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
    let ctx = Stage1Context::new(nl, place, est);
    let mut reps = spawn(&ctx, place, master_seed, replicas, threads)?;
    let mut failures = restore(&mut reps, resume_payload)?;
    let scope = |i: usize| {
        if single {
            RunScope::STAGE1
        } else {
            RunScope::STAGE1.with_replica(i)
        }
    };
    let mut cooling = Cooling {
        ctx: &ctx,
        place,
        schedule,
        phase: "multistart",
        scope: &scope,
        state: &Vec::new,
    };
    let config = resume::run_config(master_seed, params, place, nl);
    let first = steps_done(&reps);
    if let Some(reason) = drive(
        &mut reps,
        threads,
        &mut cooling,
        first,
        &config,
        &mut failures,
        rec,
        ctrl,
    )? {
        return Ok(interrupted(reason, reps, PlacementState::teil));
    }

    let reports: Vec<ReplicaReport> = reps
        .iter()
        .filter(|r| r.live())
        .map(Replica::report)
        .collect();
    let Some(best) = best_live(&reps, PlacementState::teil) else {
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

/// Drives `reps` in step-synchronized rounds, numbered from `first`,
/// while `rounds` says more are due (`Ok(None)`), until the run
/// controller's token fires (`Ok(Some(reason))`, after flushing a final
/// checkpoint), or until no replica is left alive (`AllReplicasFailed`).
///
/// Each round every live replica that `rounds` lets sweep runs its
/// sweep on the pool, after the run controller's fault schedule is
/// probed at its (replica, round) coordinate. A replica whose worker
/// panicked is retired with a [`ReplicaFailed`] event tagged with the
/// strategy's phase and the round. Worker threads cannot share the
/// caller's `&mut dyn Recorder` (the pool requires `Sync` closures), so
/// each replica records its sweep's events into its own
/// [`SummaryRecorder`] and the orchestrator drains them in replica order
/// after every round — deterministic for any thread count. A run
/// interrupted at a round boundary has therefore emitted an exact
/// prefix of the uninterrupted stream, and the resumed run emits
/// exactly the remaining suffix. The hub and the tracer ride into the
/// workers, so each replica's moves fill the per-move histogram and the
/// trace lane of the thread that runs them: its own `replica<k>` on a
/// pool worker, and `main` when the pool runs every sweep inline on the
/// orchestrator (one thread, or a single run), whose `stage1` span then
/// contains them on the same lane. Checkpoints
/// hold every replica, the failures and the strategy's
/// [`Rounds::state`] under the config digest `config`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<'a>(
    reps: &mut [Replica<'a>],
    threads: usize,
    rounds: &mut dyn Rounds<'a>,
    first: usize,
    config: &Value,
    failures: &mut Vec<ReplicaFailure>,
    rec: &mut dyn Recorder,
    ctrl: &mut RunCtrl,
) -> Result<Option<StopReason>, OrchestratorError> {
    let enabled = rec.enabled();
    let inline = pool::runs_inline(reps.len(), threads);
    let lanes: Vec<String> = reps
        .iter()
        .map(|r| {
            if inline {
                "main".to_owned()
            } else {
                format!("replica{}", r.index)
            }
        })
        .collect();
    let mut round = first;
    while rounds.more(reps, round) {
        let before: usize = reps.iter().map(|r| r.run.moves.attempts()).sum();
        let hub = rec.hub().cloned();
        let tracer = rec.tracer().cloned();
        let (policy, faults) = (&*rounds, &ctrl.faults);
        let outcomes = pool::try_run_mut(reps, threads, |i, rep| {
            if !rep.live() || !policy.sweeps(rep) {
                return;
            }
            faults.replica_round(rep.index, round);
            let (mut local, mut null) = (std::mem::take(&mut rep.local), NullRecorder);
            let sink: &mut dyn Recorder = if enabled { &mut local } else { &mut null };
            policy.sweep(
                rep,
                round,
                &mut Instrumented::new(sink, hub.clone(), tracer.clone()),
                &lanes[i],
            );
            rep.local = local;
        });
        for (rep, out) in reps.iter_mut().zip(outcomes) {
            if let Err(e) = out {
                rep.failed = Some(e.message.clone());
                if let Some(hub) = rec.hub() {
                    hub.replica_failures_total.inc();
                }
                if enabled {
                    rec.record(&Event::ReplicaFailed(ReplicaFailed {
                        phase: rounds.phase(),
                        replica: rep.index,
                        round: round as u64,
                        error: e.message.clone(),
                    }));
                }
                failures.push(ReplicaFailure {
                    replica: rep.index,
                    round: round as u64,
                    error: e.message,
                });
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
        if !reps.iter().any(Replica::live) {
            return Err(OrchestratorError::AllReplicasFailed(failures.clone()));
        }
        rounds.after_round(reps, round, rec);

        let stop = ctrl.cancel.check();
        if stop.is_some() || ctrl.checkpoint_due(round as u64) {
            let mut fields = vec![
                ("phase", Value::Str(rounds.phase().to_owned())),
                ("config", config.clone()),
                (
                    "replicas",
                    Value::Array(reps.iter().map(resume::replica_value).collect()),
                ),
                ("failed", failures.encode()),
            ];
            fields.extend(rounds.state());
            ctrl.write_checkpoint(&codec::object(fields), rec)?;
        }
        if stop.is_some() {
            return Ok(stop);
        }
        round += 1;
    }
    Ok(None)
}

/// Closes an interrupted run over the live replica with the lowest
/// `key` ([`drive`] stops only while one is alive).
pub(crate) fn interrupted<'a>(
    reason: StopReason,
    mut reps: Vec<Replica<'a>>,
    key: fn(&PlacementState<'a>) -> f64,
) -> Stage1Outcome<'a> {
    let best = best_live(&reps, key).expect("drive stops only with a live replica");
    let rep = reps.swap_remove(best);
    Stage1Outcome::Interrupted {
        reason,
        teil: rep.state.teil(),
        cost: rep.state.cost(),
        state: rep.state,
    }
}

/// Position of the live replica with the lowest `key`, the first on
/// ties (`Iterator::min_by` would keep the last), so the selection is
/// total and deterministic; `None` once every replica has failed.
pub(crate) fn best_live<'a>(
    reps: &[Replica<'a>],
    key: fn(&PlacementState<'a>) -> f64,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, rep) in reps.iter().enumerate() {
        if rep.live() && best.is_none_or(|b| key(&rep.state) < key(&reps[b].state)) {
            best = Some(i);
        }
    }
    best
}
