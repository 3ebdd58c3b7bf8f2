//! The crash-safe pipeline driver: periodic checkpoints, resume, and
//! graceful interruption for the full TimberWolfMC flow.
//!
//! Layering: stage 1 delegates checkpointing and cancellation to the
//! replica orchestrator ([`parallel_stage1_resilient`]), which cuts at
//! temperature-step/round boundaries. The moment stage 1 completes, one
//! `"stage2"`-phase checkpoint is written holding the winning snapshot
//! and the stage-1 record — stage 2 itself re-runs deterministically
//! from that state on resume (its refinements are minutes, not hours,
//! so fine-grained stage-2 checkpoints would buy little). Interrupts
//! land at stage boundaries, flush a final checkpoint and a
//! [`twmc_obs::RunInterrupted`] event, and still return the best-so-far
//! placement.
//!
//! Telemetry appended across a stage-2 cut keeps both attempts' stage 2;
//! `twmc-analyze`'s `parse_stream` reads only the resumed one.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

use twmc_netlist::Netlist;
use twmc_obs::{Event, Interval, OpenInterval, Recorder, RunInterrupted, RunStart, StopReason};
use twmc_parallel::{
    check_config, config_value, parallel_stage1_resilient, OrchestratorError, RunCtrl,
    Stage1Outcome,
};
use twmc_place::{persist, PlacementState, Stage1Context};
use twmc_refine::refine_placement_resilient;
use twmc_resume::codec::{self, field, get, Codec};
use twmc_resume::CheckpointError;

use crate::pipeline::{snapshot_placement, PlacedCellRecord, TimberWolfResult};
use crate::TimberWolfConfig;

/// What became of a resilient run.
// `TimberWolfResult` dwarfs the interrupt record; boxing a value built
// once per run would buy nothing but an extra indirection for callers.
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// The pipeline ran to the end.
    Complete(TimberWolfResult),
    /// The run stopped early at a stage/step boundary.
    Interrupted(InterruptedRun),
}

/// The best-so-far result of an interrupted run — always a usable
/// placement, never a torn state.
pub struct InterruptedRun {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Pipeline stage the interrupt landed in (`"stage1"`, `"stage2"`,
    /// or `"finalize"` for the closing width-enforcement pass).
    pub stage: &'static str,
    /// Best placement reached before stopping.
    pub placement: Vec<PlacedCellRecord>,
    /// Its TEIL.
    pub teil: f64,
    /// Its total cost.
    pub cost: f64,
}

/// Errors a resilient run can surface instead of panicking.
#[derive(Debug)]
pub enum PipelineError {
    /// The stage-1 orchestrator failed (every replica died, or its
    /// checkpointing failed).
    Orchestrator(OrchestratorError),
    /// Reading, validating, or writing a checkpoint failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Orchestrator(e) => write!(f, "{e}"),
            PipelineError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<OrchestratorError> for PipelineError {
    fn from(e: OrchestratorError) -> Self {
        PipelineError::Orchestrator(e)
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// The full TimberWolfMC flow under a [`RunCtrl`]: periodic atomic
/// checkpoints, resume from any checkpoint phase, cooperative
/// cancellation, and fault-isolated replicas.
///
/// Determinism contract: interrupt-then-resume reproduces the
/// uninterrupted run's final placement, costs, and reports bit for bit,
/// at any worker-thread count. A resumed run skips the work the
/// checkpoint already covers (mid-stage-1 state, or all of stage 1 for
/// a `"stage2"`-phase checkpoint) and does not re-emit the telemetry
/// of that work — append the resumed stream to the original JSONL file
/// to obtain the full-run stream (a stage-2 cut's partial stage 2 stays
/// in the file; see the module docs).
pub fn run_timberwolf_resilient(
    nl: &Netlist,
    config: &TimberWolfConfig,
    mut ctrl: RunCtrl,
    rec: &mut dyn Recorder,
) -> Result<RunOutcome, PipelineError> {
    let run = Interval::Run.open();
    let resume_phase: Option<String> = match &ctrl.resume {
        Some(payload) => Some(field(payload, "phase")?),
        None => None,
    };
    let stats = nl.stats();
    let circuit = (stats.cells, stats.nets, stats.pins);
    if rec.enabled() && resume_phase.is_none() {
        rec.record(&Event::RunStart(RunStart {
            seed: config.seed,
            cells: stats.cells,
            nets: stats.nets,
            pins: stats.pins,
            replicas: config.parallel.replicas.max(1),
            strategy: if config.parallel.replicas > 1 {
                match config.parallel.strategy {
                    twmc_parallel::Strategy::MultiStart => "multistart",
                    twmc_parallel::Strategy::Tempering => "tempering",
                }
            } else {
                "single"
            },
        }));
    }

    // --- stage 1 (or its restoration from a stage2-phase checkpoint) ---
    let (mut state, stage1, parallel) = if resume_phase.as_deref() == Some("stage2") {
        let payload = ctrl.resume.take().expect("phase implies a payload");
        check_config(
            &payload,
            config.seed,
            &config.parallel,
            config.place.attempts_per_cell,
            circuit,
        )?;
        let snap = persist::snapshot_from(get(&payload, "snap")?, nl)?;
        let stage1 = field(&payload, "stage1")?;
        let parallel = field(&payload, "parallel")?;
        let ctx = Stage1Context::new(nl, &config.place, &config.estimator);
        // Seed value is irrelevant: the restore overwrites everything
        // construction randomized.
        let mut state = ctx.random_state(&config.place, &mut StdRng::seed_from_u64(0));
        state.restore(&snap);
        state.force_index_counters(field(&payload, "rebuilds")?, field(&payload, "updates")?);
        (state, stage1, parallel)
    } else {
        let stage1_time = Interval::Stage1.open();
        let outcome = parallel_stage1_resilient(
            nl,
            &config.place,
            &config.estimator,
            &config.schedule,
            &config.parallel,
            config.seed,
            rec,
            &mut ctrl,
        );
        match outcome? {
            Stage1Outcome::Complete {
                state,
                result,
                report,
            } => {
                stage1_time.close(rec);
                let parallel = (config.parallel.replicas > 1).then_some(report);
                (state, result, parallel)
            }
            Stage1Outcome::Interrupted {
                reason,
                state,
                teil,
                cost,
            } => {
                // The orchestrator already flushed its final checkpoint.
                return Ok(interrupted(
                    rec, run, reason, "stage1", nl, &state, teil, cost,
                ));
            }
        }
    };

    // Durable stage-1-complete mark: from here, resume re-runs stage 2
    // from this exact state and never repeats stage 1.
    if ctrl.writer.is_some() {
        let payload = codec::object(vec![
            ("phase", Value::Str("stage2".to_owned())),
            (
                "config",
                config_value(
                    config.seed,
                    &config.parallel,
                    config.place.attempts_per_cell,
                    circuit,
                ),
            ),
            ("snap", persist::snapshot_value(&state.snapshot())),
            ("stage1", stage1.encode()),
            ("parallel", parallel.encode()),
            ("rebuilds", state.index_rebuilds().encode()),
            ("updates", state.index_updates().encode()),
        ]);
        ctrl.write_checkpoint(&payload, rec)?;
    }

    // --- stage 2 -------------------------------------------------------
    let stage2_time = Interval::Stage2.open();
    let stage2 = match refine_placement_resilient(
        &mut state,
        nl,
        &config.place,
        &config.refine,
        stage1.s_t,
        stage1.t_infinity,
        config.seed.wrapping_add(0x5eed),
        rec,
        &ctrl.cancel,
    ) {
        Ok(s2) => {
            stage2_time.close(rec);
            s2
        }
        Err(reason) => {
            // The stage2-phase checkpoint on disk stays authoritative —
            // stage 2 restarts from the stage-1 state by design.
            let (teil, cost) = (state.teil(), state.cost());
            return Ok(interrupted(
                rec, run, reason, "stage2", nl, &state, teil, cost,
            ));
        }
    };

    // --- finalize ------------------------------------------------------
    if let Some(reason) = ctrl.cancel.check() {
        let (teil, cost) = (state.teil(), state.cost());
        return Ok(interrupted(
            rec, run, reason, "finalize", nl, &state, teil, cost,
        ));
    }
    let finalize_time = Interval::Finalize.open();
    let fin = crate::finalize_chip_with(
        nl,
        &mut state,
        &config.refine.router,
        config.seed.wrapping_add(0xf17a1),
        rec,
    );
    finalize_time.close(rec);
    let wall = run.close(rec);
    let placement = snapshot_placement(nl, &state);
    if rec.enabled() {
        rec.record(&Event::RunEnd(twmc_obs::RunEnd {
            teil: fin.teil,
            chip_width: fin.chip.width(),
            chip_height: fin.chip.height(),
            routed_length: fin.routed_length,
            wall_us: wall.as_micros() as u64,
        }));
    }
    rec.flush();
    Ok(RunOutcome::Complete(TimberWolfResult {
        teil: fin.teil,
        chip: fin.chip,
        routed_length: fin.routed_length,
        stage1,
        parallel,
        stage2,
        placement,
    }))
}

/// Closes an interrupted run: closes the `run` interval, emits the
/// [`RunInterrupted`] footer, flushes telemetry, and packages the
/// best-so-far placement.
#[allow(clippy::too_many_arguments)]
fn interrupted(
    rec: &mut dyn Recorder,
    run: OpenInterval,
    reason: StopReason,
    stage: &'static str,
    nl: &Netlist,
    state: &PlacementState<'_>,
    teil: f64,
    cost: f64,
) -> RunOutcome {
    let wall = run.close(rec);
    if rec.enabled() {
        rec.record(&Event::RunInterrupted(RunInterrupted {
            reason: reason.as_str(),
            stage,
            teil,
            cost,
            wall_us: wall.as_micros() as u64,
        }));
    }
    rec.flush();
    RunOutcome::Interrupted(InterruptedRun {
        reason,
        stage,
        placement: snapshot_placement(nl, state),
        teil,
        cost,
    })
}
