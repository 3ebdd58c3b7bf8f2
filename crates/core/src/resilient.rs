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

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

use twmc_netlist::Netlist;
use twmc_obs::{CancelToken, Event, Recorder, RunInterrupted, RunStart, StopReason};
use twmc_parallel::{
    check_config, config_value, parallel_report_from, parallel_report_value,
    parallel_stage1_resilient, OrchestratorError, RunCtrl, Stage1Outcome,
};
use twmc_place::{persist, PlacementState, Stage1Context};
use twmc_refine::refine_placement_resilient;
use twmc_resume::codec::{self, field, str_field, u64_field};
use twmc_resume::{CheckpointError, CheckpointWriter};

use crate::pipeline::{snapshot_placement, PlacedCellRecord, TimberWolfResult};
use crate::TimberWolfConfig;

/// Resilience options for [`run_timberwolf_resilient`]. The default is
/// a no-op: never cancels, never writes, starts fresh — the plain
/// [`crate::run_timberwolf_with`] runs under it.
#[derive(Default)]
pub struct RunOptions {
    /// Cancellation token polled at every stage/step boundary; wire it
    /// to signal flags, deadlines, and move budgets.
    pub cancel: CancelToken,
    /// Periodic checkpoint writer (also flushed once on interrupt).
    pub checkpoint: Option<CheckpointWriter>,
    /// Decoded checkpoint payload to resume from.
    pub resume: Option<Value>,
}

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

/// The full TimberWolfMC flow under [`RunOptions`]: periodic atomic
/// checkpoints, resume from any checkpoint phase, cooperative
/// cancellation, and fault-isolated replicas.
///
/// Determinism contract: interrupt-then-resume reproduces the
/// uninterrupted run's final placement, costs, and reports bit for bit,
/// at any worker-thread count. A resumed run skips the work the
/// checkpoint already covers (mid-stage-1 state, or all of stage 1 for
/// a `"stage2"`-phase checkpoint) and does not re-emit the telemetry
/// the interrupted run already flushed — append the resumed stream to
/// the original JSONL file to obtain the full-run stream.
pub fn run_timberwolf_resilient(
    nl: &Netlist,
    config: &TimberWolfConfig,
    mut opts: RunOptions,
    rec: &mut dyn Recorder,
) -> Result<RunOutcome, PipelineError> {
    let run_t0 = Instant::now();
    // Pipeline-level trace spans land on the `main` lane, checked out
    // per span so the stages' own spans share the ring and nest by
    // containment: run → stage1/stage2/finalize → temp_step → ...
    let tracer = rec.tracer().cloned();
    let tspan = |name: &'static str, t0: Instant| {
        if let Some(tr) = &tracer {
            tr.lane("main").span(name, "run", t0, t0.elapsed());
        }
    };
    let resume_phase: Option<String> = match &opts.resume {
        Some(payload) => Some(str_field(payload, "phase")?.to_owned()),
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
        let payload = opts.resume.take().expect("phase implies a payload");
        check_config(
            &payload,
            config.seed,
            &config.parallel,
            config.place.attempts_per_cell,
            circuit,
        )?;
        let snap = persist::snapshot_from(field(&payload, "snap")?)?;
        let stage1 = persist::stage1_result_from(field(&payload, "stage1")?)?;
        let parallel = match field(&payload, "parallel")? {
            Value::Null => None,
            v => Some(parallel_report_from(v)?),
        };
        let ctx = Stage1Context::new(nl, &config.place, &config.estimator);
        // Seed value is irrelevant: the restore overwrites everything
        // construction randomized.
        let mut state = ctx.random_state(&config.place, &mut StdRng::seed_from_u64(0));
        state.restore(&snap);
        state.force_index_counters(
            u64_field(&payload, "rebuilds")?,
            u64_field(&payload, "updates")?,
        );
        (state, stage1, parallel)
    } else {
        let t0 = Instant::now();
        let mut ctrl = RunCtrl {
            cancel: opts.cancel.clone(),
            writer: opts.checkpoint.take(),
            resume: opts.resume.take(),
            hub: rec.hub().cloned(),
            tracer: rec.tracer().cloned(),
        };
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
        opts.checkpoint = ctrl.writer.take();
        match outcome? {
            Stage1Outcome::Complete {
                state,
                result,
                report,
            } => {
                span(rec, "stage1", t0);
                tspan("stage1", t0);
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
                tspan("run", run_t0);
                return Ok(interrupted(
                    rec, run_t0, reason, "stage1", nl, &state, teil, cost,
                ));
            }
        }
    };

    // Durable stage-1-complete mark: from here, resume re-runs stage 2
    // from this exact state and never repeats stage 1.
    if opts.checkpoint.is_some() {
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
            ("snap", persist::snapshot_value(&state.snapshot(), nl)),
            ("stage1", persist::stage1_result_value(&stage1)),
            (
                "parallel",
                match &parallel {
                    None => Value::Null,
                    Some(r) => parallel_report_value(r),
                },
            ),
            ("rebuilds", Value::UInt(state.index_rebuilds())),
            ("updates", Value::UInt(state.index_updates())),
        ]);
        if let Some(w) = opts.checkpoint.as_mut() {
            let t0 = Instant::now();
            w.write(&payload)?;
            if let Some(hub) = rec.hub() {
                hub.checkpoint_writes_total.inc();
                hub.checkpoint_write_ms
                    .observe(t0.elapsed().as_secs_f64() * 1e3);
            }
            if let Some(tracer) = rec.tracer() {
                tracer
                    .lane("ckpt")
                    .span("checkpoint_write", "ckpt", t0, t0.elapsed());
            }
        }
    }

    // --- stage 2 -------------------------------------------------------
    let s2_t0 = Instant::now();
    let stage2 = match refine_placement_resilient(
        &mut state,
        nl,
        &config.place,
        &config.refine,
        stage1.s_t,
        stage1.t_infinity,
        config.seed.wrapping_add(0x5eed),
        rec,
        &opts.cancel,
    ) {
        Ok(s2) => {
            tspan("stage2", s2_t0);
            s2
        }
        Err(reason) => {
            // The stage2-phase checkpoint on disk stays authoritative —
            // stage 2 restarts from the stage-1 state by design.
            let (teil, cost) = (state.teil(), state.cost());
            tspan("run", run_t0);
            return Ok(interrupted(
                rec, run_t0, reason, "stage2", nl, &state, teil, cost,
            ));
        }
    };

    // --- finalize ------------------------------------------------------
    if let Some(reason) = opts.cancel.check() {
        let (teil, cost) = (state.teil(), state.cost());
        tspan("run", run_t0);
        return Ok(interrupted(
            rec, run_t0, reason, "finalize", nl, &state, teil, cost,
        ));
    }
    let t0 = Instant::now();
    let fin = crate::finalize_chip_with(
        nl,
        &mut state,
        &config.refine.router,
        config.seed.wrapping_add(0xf17a1),
        rec,
    );
    span(rec, "finalize", t0);
    tspan("finalize", t0);
    tspan("run", run_t0);
    let placement = snapshot_placement(nl, &state);
    if rec.enabled() {
        rec.record(&Event::RunEnd(twmc_obs::RunEnd {
            teil: fin.teil,
            chip_width: fin.chip.width(),
            chip_height: fin.chip.height(),
            routed_length: fin.routed_length,
            wall_us: run_t0.elapsed().as_micros() as u64,
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

/// Closes an interrupted run: emits the [`RunInterrupted`] footer,
/// flushes telemetry, and packages the best-so-far placement.
#[allow(clippy::too_many_arguments)]
fn interrupted(
    rec: &mut dyn Recorder,
    run_t0: Instant,
    reason: StopReason,
    stage: &'static str,
    nl: &Netlist,
    state: &PlacementState<'_>,
    teil: f64,
    cost: f64,
) -> RunOutcome {
    if rec.enabled() {
        rec.record(&Event::RunInterrupted(RunInterrupted {
            reason: reason.as_str(),
            stage,
            teil,
            cost,
            wall_us: run_t0.elapsed().as_micros() as u64,
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

/// Emits a pipeline-level [`twmc_obs::StageSpan`] (iteration 0).
fn span(rec: &mut dyn Recorder, stage: &'static str, t0: Instant) {
    if rec.enabled() {
        rec.record(&Event::StageSpan(twmc_obs::StageSpan {
            stage,
            iteration: 0,
            wall_us: t0.elapsed().as_micros() as u64,
        }));
    }
}
