//! Multi-replica parallel annealing orchestration (stage 1).
//!
//! The paper's quality/CPU trade (§3.3) extends beyond a single Markov
//! chain: with cheap cores, N independent replicas explore N basins for
//! the wall-clock of one. This crate orchestrates stage-1 placement
//! replicas over [`twmc_place`] in two modes:
//!
//! * **Multi-start** ([`Strategy::MultiStart`]) — N full stage-1 runs
//!   from seeds derived deterministically from the master seed
//!   ([`twmc_anneal::derive_seed`]); the best final TEIL wins. Replica 0
//!   uses the master seed itself, so the winner is never worse than the
//!   single-replica run with the same seed.
//! * **Parallel tempering** ([`Strategy::Tempering`]) — N replicas on a
//!   cooling adaptive temperature ladder: the coldest rung follows the
//!   Table-1 trajectory ([`twmc_anneal::cool_ladder`]) while per-pair
//!   gap ratios adapt toward the 20–40% swap-acceptance band
//!   ([`twmc_anneal::adapt_gap`]); between rounds of inner loops,
//!   adjacent rungs exchange configurations under the Metropolis rule
//!   ([`twmc_anneal::swap_probability`]), letting good configurations
//!   migrate cold while stuck ones re-heat. Every surviving rung is then
//!   quenched through the remaining schedule and the best post-quench
//!   TEIL wins.
//!
//! # Determinism
//!
//! Results depend on the master seed and the replica count, **not** on
//! the thread count: every replica owns an RNG stream derived from its
//! index, swap decisions come from a dedicated orchestrator stream, and
//! workers are synchronized at round boundaries. `threads = 1` and
//! `threads = 8` produce bit-identical placements.
//!
//! # Examples
//!
//! ```no_run
//! use twmc_anneal::CoolingSchedule;
//! use twmc_estimator::EstimatorParams;
//! use twmc_netlist::{synthesize, SynthParams};
//! use twmc_parallel::{parallel_stage1, ParallelParams};
//! use twmc_place::PlaceParams;
//!
//! let circuit = synthesize(&SynthParams::default());
//! let params = ParallelParams { replicas: 4, threads: 4, ..Default::default() };
//! let (state, result, report) = parallel_stage1(
//!     &circuit,
//!     &PlaceParams::default(),
//!     &EstimatorParams::default(),
//!     &CoolingSchedule::stage1(),
//!     &params,
//!     42,
//! );
//! println!("best replica {} TEIL {}", report.best_replica, result.teil);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod multistart;
mod pool;
mod resume;
mod tempering;

use serde::Value;
use twmc_anneal::CoolingSchedule;
use twmc_estimator::EstimatorParams;
use twmc_fault::FaultSchedule;
use twmc_netlist::Netlist;
use twmc_obs::{CancelToken, Interval, NullRecorder, Recorder, StopReason};
use twmc_place::{PlaceParams, PlacementState, Stage1Result};
use twmc_resume::{CheckpointError, CheckpointWriter};

pub use pool::{try_run_indexed, try_run_mut, ReplicaError};
pub use resume::{
    check_config, config_value, ladder_temps_from, ladder_temps_value, parallel_report_from,
    parallel_report_value,
};

/// How the replicas cooperate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Independent full runs; keep the best final TEIL.
    #[default]
    MultiStart,
    /// Replicas pinned to temperature rungs with Metropolis exchanges.
    Tempering,
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "multistart" | "multi-start" | "ms" => Ok(Strategy::MultiStart),
            "tempering" | "parallel-tempering" | "pt" => Ok(Strategy::Tempering),
            other => Err(format!(
                "unknown strategy `{other}` (expected `multistart` or `tempering`)"
            )),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Strategy::MultiStart => "multistart",
            Strategy::Tempering => "tempering",
        })
    }
}

/// Configuration of the parallel orchestrator.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelParams {
    /// Number of annealing replicas. 1 disables orchestration.
    pub replicas: usize,
    /// Worker threads; 1 runs the replicas sequentially (graceful
    /// fallback), 0 means one thread per replica. The thread count never
    /// affects results, only wall-clock.
    pub threads: usize,
    /// Cooperation mode.
    pub strategy: Strategy,
    /// Tempering: rounds of inner loops between swap sweeps. Each round
    /// is already one full eq.-17 inner loop per rung, so the default of
    /// 1 sweeps after every round (the textbook cadence); larger values
    /// trade ladder mixing for fewer orchestrator barriers. Must be ≥ 1.
    pub swap_interval: usize,
}

impl Default for ParallelParams {
    fn default() -> Self {
        ParallelParams {
            replicas: 1,
            threads: 1,
            strategy: Strategy::MultiStart,
            swap_interval: 1,
        }
    }
}

impl ParallelParams {
    /// Effective worker count for `n` jobs (`threads = 0` → `n`).
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let t = if self.threads == 0 {
            jobs
        } else {
            self.threads
        };
        t.clamp(1, jobs.max(1))
    }

    /// Validates the orchestration shape, returning a message naming the
    /// offending knob and its valid range. Tempering needs a ladder (at
    /// least two rungs) and a positive sweep cadence — silently clamping
    /// either would run a different experiment than the one requested.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 {
            return Err(
                "`replicas` must be at least 1 (got 0); valid range: --replicas 1..".into(),
            );
        }
        if self.swap_interval == 0 {
            return Err(
                "`swap_interval` must be at least 1 (got 0); valid range: --swap-interval 1.."
                    .into(),
            );
        }
        if self.strategy == Strategy::Tempering && self.replicas < 2 {
            return Err(format!(
                "`--strategy tempering` needs at least 2 replicas (got {}); \
                 valid range: --replicas 2.. (use --strategy multistart for \
                 single-replica runs)",
                self.replicas
            ));
        }
        Ok(())
    }
}

/// Per-replica outcome statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// Replica index (multi-start) or rung index, 0 = hottest (tempering).
    pub replica: usize,
    /// Derived RNG seed this replica's stream started from.
    pub seed: u64,
    /// Pinned rung temperature (tempering only).
    pub rung_temperature: Option<f64>,
    /// Final TEIL of the replica (before any shared quench).
    pub teil: f64,
    /// Final total cost of the replica.
    pub cost: f64,
    /// Move attempts made by this replica.
    pub attempts: usize,
    /// Moves accepted.
    pub accepts: usize,
    /// TEIL after each temperature step (multi-start) or round (tempering).
    pub teil_trajectory: Vec<f64>,
}

impl ReplicaReport {
    /// Fraction of attempts accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.accepts as f64 / self.attempts as f64
        }
    }
}

/// Replica-exchange statistics (all zero for multi-start).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SwapReport {
    /// Swap attempts between adjacent rungs.
    pub attempts: usize,
    /// Swaps accepted.
    pub accepts: usize,
    /// Per-adjacent-pair counters: `pairs[i]` covers exchanges between
    /// rung `i` and rung `i + 1`. Empty for multi-start.
    pub pairs: Vec<PairSwap>,
}

/// Exchange counters for one adjacent rung pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairSwap {
    /// Swap attempts between this pair.
    pub attempts: usize,
    /// Swaps accepted.
    pub accepts: usize,
}

impl PairSwap {
    /// Fraction of this pair's attempts accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.accepts as f64 / self.attempts as f64
        }
    }
}

impl SwapReport {
    /// Fraction of swap attempts accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.accepts as f64 / self.attempts as f64
        }
    }
}

/// Outcome of a parallel stage-1 run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelReport {
    /// Cooperation mode that produced this report.
    pub strategy: Strategy,
    /// Replica count.
    pub replicas: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// Index of the winning replica (multi-start: lowest TEIL; tempering:
    /// the rung whose configuration was quenched).
    pub best_replica: usize,
    /// Per-replica statistics of the surviving replicas, in replica/rung
    /// order.
    pub replica_reports: Vec<ReplicaReport>,
    /// Replica-exchange statistics.
    pub swaps: SwapReport,
    /// Replicas retired by worker panics; non-empty marks the run as
    /// degraded (the survivors' result still stands).
    pub failed: Vec<ReplicaFailure>,
}

impl ParallelReport {
    /// Whether any replica was lost along the way.
    pub fn degraded(&self) -> bool {
        !self.failed.is_empty()
    }
}

/// A replica retired by a worker panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaFailure {
    /// Replica (or rung) index.
    pub replica: usize,
    /// Temperature step (multi-start) or round (tempering) it died on.
    pub round: u64,
    /// Panic message.
    pub error: String,
}

/// Errors the resilient orchestrator can surface instead of panicking.
#[derive(Debug)]
pub enum OrchestratorError {
    /// The orchestration parameters are invalid (e.g. a tempering ladder
    /// with fewer than two rungs or a zero swap interval).
    Config(String),
    /// Every replica died; there is no survivor to return.
    AllReplicasFailed(Vec<ReplicaFailure>),
    /// Writing or decoding a checkpoint failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrchestratorError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            OrchestratorError::AllReplicasFailed(fs) => {
                write!(f, "all {} replicas failed", fs.len())?;
                if let Some(first) = fs.first() {
                    write!(f, " (replica {}: {})", first.replica, first.error)?;
                }
                Ok(())
            }
            OrchestratorError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for OrchestratorError {}

impl From<CheckpointError> for OrchestratorError {
    fn from(e: CheckpointError) -> Self {
        OrchestratorError::Checkpoint(e)
    }
}

/// Run controller for [`parallel_stage1_resilient`] and the full
/// pipeline (`twmc_core::run_timberwolf_resilient`): cooperative
/// cancellation, periodic checkpoints, an optional decoded checkpoint to
/// resume from, and the replica faults to inject. [`RunCtrl::default`]
/// is a no-op controller (never cancels, never writes, starts fresh,
/// injects nothing) under which the resilient entry points behave
/// exactly like [`parallel_stage1_with`] and
/// `twmc_core::run_timberwolf_with`.
#[derive(Default)]
pub struct RunCtrl {
    /// Cancellation token polled at every step/round boundary; wire it
    /// to signal flags, deadlines, and move budgets.
    pub cancel: CancelToken,
    /// Periodic checkpoint writer (also flushed once on interrupt).
    pub writer: Option<CheckpointWriter>,
    /// Decoded checkpoint payload to resume from.
    pub resume: Option<Value>,
    /// Replica faults for resilience tests: the worker of replica `k`
    /// panics on reaching round `r` of its ensemble for every
    /// `panic=replica:<k>@<r>` clause. Only those clauses apply here.
    pub faults: FaultSchedule,
}

impl RunCtrl {
    fn checkpoint_due(&self, step: u64) -> bool {
        self.writer.as_ref().is_some_and(|w| w.due(step))
    }

    /// Writes `payload` through the writer, if there is one, as one
    /// timed [`Interval::CheckpointWrite`] fed to `rec`'s hub and
    /// tracer.
    pub fn write_checkpoint(
        &mut self,
        payload: &Value,
        rec: &mut dyn Recorder,
    ) -> Result<(), CheckpointError> {
        let Some(w) = self.writer.as_mut() else {
            return Ok(());
        };
        let timed = Interval::CheckpointWrite.open();
        let result = w.write(payload);
        timed.close(rec);
        result
    }
}

/// Outcome of a resilient stage-1 run: either the completed placement or
/// the best-so-far placement at the point an interrupt was honored.
// Both variants carry the (large) placement state; boxing it would only
// shuffle one allocation around for a value produced once per run.
#[allow(clippy::large_enum_variant)]
pub enum Stage1Outcome<'a> {
    /// The run finished normally.
    Complete {
        /// Winning placement state.
        state: PlacementState<'a>,
        /// Its stage-1 record.
        result: Stage1Result,
        /// Orchestration report (including any replica failures).
        report: ParallelReport,
    },
    /// The run stopped at a step boundary before finishing; a final
    /// checkpoint (when a writer is configured) has been flushed.
    Interrupted {
        /// Why the run stopped.
        reason: StopReason,
        /// Best placement so far (lowest TEIL for multi-start, lowest
        /// cost for tempering).
        state: PlacementState<'a>,
        /// Its TEIL.
        teil: f64,
        /// Its total cost.
        cost: f64,
    },
}

/// Runs stage-1 placement with `params.replicas` cooperating replicas.
///
/// Returns the winning state, its stage-1 record, and the orchestration
/// report. With `replicas <= 1` this is exactly
/// [`twmc_place::place_stage1`] plus a one-row report.
pub fn parallel_stage1<'a>(
    nl: &'a Netlist,
    place: &PlaceParams,
    est: &EstimatorParams,
    schedule: &CoolingSchedule,
    params: &ParallelParams,
    master_seed: u64,
) -> (PlacementState<'a>, Stage1Result, ParallelReport) {
    parallel_stage1_with(
        nl,
        place,
        est,
        schedule,
        params,
        master_seed,
        &mut NullRecorder,
    )
}

/// [`parallel_stage1`] with a telemetry sink.
///
/// Replica annealing streams are recorded per worker and replayed into
/// `rec` in replica order after every round, with any
/// [`twmc_obs::Swap`] events of the round, followed by one
/// [`twmc_obs::ReplicaSummary`] per replica (none for a single replica,
/// whose stream equals [`twmc_place::place_stage1_with`]'s). Recording
/// never touches any RNG stream, so results are bit-identical to
/// [`parallel_stage1`] for any recorder and any thread count.
pub fn parallel_stage1_with<'a>(
    nl: &'a Netlist,
    place: &PlaceParams,
    est: &EstimatorParams,
    schedule: &CoolingSchedule,
    params: &ParallelParams,
    master_seed: u64,
    rec: &mut dyn Recorder,
) -> (PlacementState<'a>, Stage1Result, ParallelReport) {
    let mut ctrl = RunCtrl::default();
    match parallel_stage1_resilient(
        nl,
        place,
        est,
        schedule,
        params,
        master_seed,
        rec,
        &mut ctrl,
    ) {
        Ok(Stage1Outcome::Complete {
            state,
            result,
            report,
        }) => (state, result, report),
        // A default controller never cancels.
        Ok(Stage1Outcome::Interrupted { .. }) => {
            unreachable!("no-op controller cannot interrupt")
        }
        // Preserve the legacy contract: a replica panic propagates.
        Err(e) => panic!("{e}"),
    }
}

/// [`parallel_stage1_with`] under a [`RunCtrl`]: cooperative
/// cancellation at step/round boundaries, periodic atomic checkpoints,
/// resume from a decoded checkpoint payload, and fault-isolated
/// replicas (a worker panic retires that replica and the survivors
/// finish; only the loss of *every* replica is an error).
///
/// With a default controller and no failures, results and the telemetry
/// stream are bit-identical to [`parallel_stage1_with`]. A resumed run
/// continues the RNG streams, cooling positions, and swap stream
/// exactly where the checkpoint cut them, so interrupt-then-resume
/// reproduces the uninterrupted run bit for bit — at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn parallel_stage1_resilient<'a>(
    nl: &'a Netlist,
    place: &PlaceParams,
    est: &EstimatorParams,
    schedule: &CoolingSchedule,
    params: &ParallelParams,
    master_seed: u64,
    rec: &mut dyn Recorder,
    ctrl: &mut RunCtrl,
) -> Result<Stage1Outcome<'a>, OrchestratorError> {
    params.validate().map_err(OrchestratorError::Config)?;
    let resume_payload = ctrl.resume.take();
    if let Some(payload) = &resume_payload {
        let stats = nl.stats();
        resume::check_config(
            payload,
            master_seed,
            params,
            place.attempts_per_cell,
            (stats.cells, stats.nets, stats.pins),
        )?;
    }
    if params.strategy == Strategy::Tempering {
        return tempering::run_controlled(
            nl,
            place,
            est,
            schedule,
            params,
            master_seed,
            rec,
            ctrl,
            resume_payload.as_ref(),
        );
    }
    multistart::run_controlled(
        nl,
        place,
        est,
        schedule,
        params,
        master_seed,
        rec,
        ctrl,
        resume_payload.as_ref(),
        params.replicas <= 1,
    )
}
