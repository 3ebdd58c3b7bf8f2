//! Parallel tempering: replicas on an adaptive, cooling temperature
//! ladder with Metropolis configuration exchanges between adjacent
//! rungs.
//!
//! The ladder is *not* static: every rung starts at `T∞` and performs
//! its own complete Table-1 descent, staggered cold-end-first. The
//! coldest rung (the anchor) steps every round; each hotter rung waits
//! at `T∞` until its colder neighbour has pulled a full gap ratio
//! ahead, then descends at its own schedule pace
//! ([`twmc_anneal::cool_ladder`]) — so every rung spends the
//! experimentally tuned dwell time in its own critical region instead
//! of sprinting through it on a scaled copy of the anchor's
//! trajectory. The gap ratios adapt after every swap attempt toward
//! the 20–40% acceptance band ([`twmc_anneal::adapt_gap`]): accepted
//! swaps widen a pair, rejected swaps pull it together, so spacing
//! tracks the circuit's actual energy fluctuations instead of a
//! geometric guess. A rung only burns moves while its temperature is
//! in transit (waiting at `T∞` it already holds an equilibrium sample;
//! once landed, its polish comes from the quench), which keeps the
//! ensemble's move budget near one multi-start batch. Ensembles wider
//! than [`MAX_LADDER_RUNGS`] split into a pack of independent ladders
//! (`8 = 4 + 4`): a swap chain propagates a discovery one rung per
//! sweep, so past about four rungs the hot end cannot reach the anchor
//! before it freezes, and the pack keeps multi-start's best-of-N order
//! statistics instead. After the ladder lands, **every** surviving
//! rung is quenched through the tail of the schedule from a short
//! reheat under its own overlap calibration, with an elitist rollback
//! guaranteeing no rung ends worse than it started; the best
//! post-quench TEIL wins.
//!
//! The ladder and the quench both run on the shared round loop
//! ([`multistart::drive`]); each rung is a [`Replica`]. The ladder adds
//! only its own rules ([`Ladder`]): which rungs sweep (those in
//! transit), at what temperature, the swap sweeps, the gap adaptation
//! and cooling between rounds, and when the ladder has landed. A round
//! boundary is therefore a consistent cut of the ladder (rung states,
//! per-rung RNG streams, the orchestrator's swap stream, the sweep
//! parity, and the adaptive temperatures/gaps), and interrupt/resume is
//! exact. A rung whose worker panics is retired: it stops stepping, is
//! skipped by swap pairing (no orchestrator RNG draw for a dead pair),
//! and is excluded from winner selection; the survivors complete the
//! run.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use twmc_anneal::{
    adapt_gap, cool_ladder, derive_seed, initial_gaps, ladder_landed, swap_probability,
    CoolingSchedule,
};
use twmc_estimator::EstimatorParams;
use twmc_netlist::Netlist;
use twmc_obs::{Event, Recorder, RunScope, Swap};
use twmc_place::{
    CoolingRun, MoveSet, PlaceParams, PlacementSnapshot, PlacementState, Stage1Context,
};
use twmc_resume::codec::{array_field, field, u64x4_field, usize_field};
use twmc_resume::CheckpointError;

use crate::multistart::{self, Cooling, Replica, Rounds};
use crate::{
    resume, OrchestratorError, PairSwap, ParallelParams, ParallelReport, ReplicaFailure,
    ReplicaReport, RunCtrl, Stage1Outcome, SwapReport,
};

/// Longest ladder a single exchange chain is allowed to span. A swap
/// moves a configuration one rung per sweep at the target acceptance
/// rate, so a discovery at the hot end of an `n`-rung ladder needs
/// `O(n / rate)` sweeps to reach the anchor — past about four rungs it
/// cannot arrive before the cold end freezes. Wider ensembles therefore
/// run as a pack of independent adaptive ladders (`8 = 4 + 4`): each
/// keeps the fast in-ladder exchange, and the pack keeps the
/// best-of-N order statistics that made multi-start strong.
const MAX_LADDER_RUNGS: usize = 4;

/// Quench restart temperature as a multiple of the stage-1 floor. The
/// post-ladder quench re-starts every rung a few schedule steps above
/// the floor rather than at it: the brief reheat lets a configuration
/// shed strain accumulated under the ladder's shared overlap penalty
/// before the final descent, and the elitist harvest in `quench_all`
/// makes the reheat risk-free (a rung that ends worse than it started
/// is rolled back to its pre-quench configuration).
const QUENCH_REHEAT: f64 = 4.0;

/// Splits `replicas` rungs into balanced contiguous ladders of at most
/// [`MAX_LADDER_RUNGS`] each (`6 → 3 + 3`, `8 → 4 + 4`).
pub(crate) fn ladder_partitions(replicas: usize) -> Vec<Range<usize>> {
    let n = replicas.div_ceil(MAX_LADDER_RUNGS).max(1);
    let base = replicas / n;
    let rem = replicas % n;
    let mut parts = Vec::with_capacity(n);
    let mut start = 0;
    for p in 0..n {
        let len = base + usize::from(p < rem);
        parts.push(start..start + len);
        start += len;
    }
    parts
}

/// The ladder's own rules around the shared round loop: the adaptive
/// ladder state and the policy that reads and advances it.
struct Ladder<'c, 'a> {
    ctx: &'c Stage1Context<'a>,
    place: &'c PlaceParams,
    schedule: &'c CoolingSchedule,
    /// The pack's ladders, as contiguous rung ranges.
    parts: Vec<Range<usize>>,
    /// Whether pair `i`–`i + 1` lies inside one ladder of the pack; the
    /// pair that straddles two ladders never swaps.
    intra: Vec<bool>,
    swap_interval: usize,
    t_floor: f64,
    /// Backstop for pathological schedules that never land; the quench
    /// harvests whatever is still mid-air if it ever triggers.
    round_cap: usize,
    /// Per-rung temperatures.
    temps: Vec<f64>,
    /// Per-pair gap ratios.
    gaps: Vec<f64>,
    /// The orchestrator's swap stream.
    orch_rng: StdRng,
    swaps: SwapReport,
    /// Swap sweeps so far; its parity picks the even or odd pairs.
    sweep: usize,
    /// Rounds completed.
    round: usize,
}

impl Ladder<'_, '_> {
    /// Reloads the adaptive ladder state [`Rounds::state`] saved.
    fn restore(&mut self, payload: &Value) -> Result<(), CheckpointError> {
        self.round = usize_field(payload, "round")?;
        self.sweep = usize_field(payload, "sweep")?;
        self.orch_rng = StdRng::from_state(u64x4_field(payload, "orch_rng")?);
        self.temps = resume::f64s_from(field(payload, "temps")?, "temps")?;
        self.gaps = resume::f64s_from(field(payload, "gaps")?, "gaps")?;
        self.swaps = resume::swaps_from(field(payload, "swaps")?)?;
        if self.temps.len() != self.intra.len() + 1 || self.gaps.len() != self.intra.len() {
            return Err(CheckpointError::Corrupt(
                "checkpoint rung count differs".into(),
            ));
        }
        Ok(())
    }

    /// One swap sweep after round `round`: alternate even/odd adjacent
    /// pairs per sweep, the standard scheme that lets a configuration
    /// traverse the ladder, adapting each attempted pair's gap.
    fn swap_sweep(&mut self, reps: &mut [Replica<'_>], round: usize, rec: &mut dyn Recorder) {
        let start = self.sweep % 2;
        self.sweep += 1;
        for i in (start..reps.len().saturating_sub(1)).step_by(2) {
            if !self.intra[i] || !reps[i].live() || !reps[i + 1].live() {
                continue;
            }
            // Before the fan reaches a pair both rungs sit at the same
            // temperature; exchanging them is a no-op, so skip
            // deterministically (no orchestrator RNG draw, no counters)
            // instead of logging a meaningless free swap.
            let (t_lower, t_upper) = (self.temps[i], self.temps[i + 1]);
            if t_lower <= t_upper {
                continue;
            }
            let p = swap_probability(
                t_lower,
                t_upper,
                reps[i].state.cost(),
                reps[i + 1].state.cost(),
            );
            self.swaps.attempts += 1;
            self.swaps.pairs[i].attempts += 1;
            let accepted = self.orch_rng.random::<f64>() < p;
            if accepted {
                let (a, b) = reps.split_at_mut(i + 1);
                std::mem::swap(&mut a[i].state, &mut b[0].state);
                self.swaps.accepts += 1;
                self.swaps.pairs[i].accepts += 1;
            }
            self.gaps[i] = adapt_gap(self.gaps[i], accepted);
            if let Some(hub) = rec.hub() {
                hub.swap_attempts_total.inc();
                if accepted {
                    hub.swaps_accepted_total.inc();
                }
            }
            if rec.enabled() {
                rec.record(&Event::Swap(Swap {
                    round: round as u64,
                    lower: i,
                    upper: i + 1,
                    t_lower,
                    t_upper,
                    s_t: self.ctx.s_t,
                    accepted,
                }));
            }
        }
    }
}

impl<'a> Rounds<'a> for Ladder<'_, 'a> {
    fn phase(&self) -> &'static str {
        "tempering"
    }

    fn more(&self, _reps: &[Replica<'a>], round: usize) -> bool {
        // The ladder ends once every rung has completed its staggered
        // descent to the floor.
        round < self.round_cap && !ladder_landed(&self.temps, self.t_floor)
    }

    /// A rung moves only while its temperature is in transit. Waiting at
    /// `T∞` it already holds an equilibrium sample (any configuration
    /// is), and once landed its floor polish comes from the quench — so
    /// skipping both dwells costs nothing in quality while keeping the
    /// ensemble's total move budget near `replicas × schedule length`,
    /// the same budget a multi-start batch spends.
    fn sweeps(&self, rep: &Replica<'a>) -> bool {
        let t = self.temps[rep.index];
        t > self.t_floor && t < self.ctx.t_infinity
    }

    fn sweep(&self, rep: &mut Replica<'a>, round: usize, rec: &mut dyn Recorder, lane: &str) {
        rep.run.sweep(
            &mut rep.state,
            self.place,
            MoveSet::Full,
            &self.ctx.limiter,
            self.ctx.s_t,
            self.temps[rep.index],
            round,
            &mut rep.rng,
            rec,
            RunScope {
                phase: "tempering",
                iteration: 0,
                replica: rep.index as i64,
            },
            lane,
        );
    }

    fn after_round(&mut self, reps: &mut [Replica<'a>], round: usize, rec: &mut dyn Recorder) {
        if (round + 1).is_multiple_of(self.swap_interval) {
            self.swap_sweep(reps, round, rec);
        }
        // Advance every ladder of the pack one cooling step under the
        // freshly adapted gaps; rungs never re-heat and stay ordered.
        for part in &self.parts {
            cool_ladder(
                self.schedule,
                &mut self.temps[part.clone()],
                &self.gaps[part.start..part.end - 1],
                self.ctx.s_t,
                self.t_floor,
            );
        }
        self.round = round + 1;
    }

    fn state(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("round", Value::UInt(self.round as u64)),
            ("sweep", Value::UInt(self.sweep as u64)),
            ("orch_rng", twmc_resume::codec::u64x4(self.orch_rng.state())),
            ("temps", resume::ladder_temps_value(&self.temps)),
            ("gaps", resume::ladder_temps_value(&self.gaps)),
            ("swaps", resume::swaps_value(&self.swaps)),
        ]
    }
}

/// Runs the tempering ladder under the run controller and quenches every
/// surviving rung's configuration through the rest of the schedule,
/// keeping the lowest post-quench TEIL.
///
/// Per round, every live rung in transit performs one inner loop
/// (`A_c · N_c` attempts, eq. 17) at its current ladder temperature —
/// rounds run in parallel, swap sweeps are sequential on the
/// orchestrator's own RNG stream so the outcome is independent of the
/// thread count. Between rounds the whole ladder advances: the anchor
/// takes one Table-1 step and the per-pair gaps adapt toward the target
/// swap-acceptance band.
///
/// Telemetry (deterministic event order for any thread count): one
/// `tempering`-phase [`twmc_obs::PlaceTemp`] per live rung in transit
/// per round, one [`Swap`] per exchange attempt, a
/// [`twmc_obs::ReplicaFailed`] when a rung dies, one
/// [`twmc_obs::ReplicaSummary`] per surviving rung at ladder end, then
/// the per-rung quench streams under phase `quench`.
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
) -> Result<Stage1Outcome<'a>, OrchestratorError> {
    let replicas = params.replicas;
    let threads = params.effective_threads(replicas);
    let config = resume::run_config(master_seed, params, place, nl);
    let ctx = Stage1Context::new(nl, place, est);
    let t_floor = ctx.final_temperature();

    // Independent random starting configurations, one RNG stream per
    // rung — identical for fresh and resumed runs (restores below
    // overwrite everything construction consumed).
    let mut reps = multistart::spawn(&ctx, place, master_seed, replicas, threads)?;
    // The `p₂` overlap normalization is calibrated per random start; the
    // exchange rule compares energies across rungs, so every rung of a
    // ladder must price overlap identically — the ladder's first rung
    // calibrates its whole ladder. Each rung's own calibration is kept
    // for the quench, where no exchanges happen and per-replica pricing
    // is legitimate again.
    let parts = ladder_partitions(replicas);
    let own_p2: Vec<f64> = reps.iter().map(|r| r.state.p2()).collect();
    for part in &parts {
        let p2 = own_p2[part.start];
        for rep in &mut reps[part.start + 1..part.end] {
            rep.state.set_p2(p2);
        }
    }

    let mut failures = multistart::restore(&mut reps, resume_payload)?;
    // Resuming a quench skips the ladder: drop straight back into the
    // rungs' cooling runs.
    if let Some(payload) = resume_payload {
        if resume::payload_phase(payload)? == "quench" {
            let ladder = LadderOutcome::decode(payload, nl, replicas)?;
            return quench_all(
                &ctx, place, schedule, params, rec, ctrl, &config, reps, ladder, failures,
            );
        }
    }

    // The ladder runs until every rung has completed its own staggered
    // descent to the floor, so the ensemble ends with `replicas`
    // finished anneals. The Table-1 trajectory length is the anchor's
    // landing time.
    let schedule_len = schedule
        .steps_between(ctx.t_infinity, t_floor, ctx.s_t)
        .max(1);
    // Adaptive ladder state: every rung starts at T∞ (the fan opens from
    // the cold end as the anchor descends) with uniform initial gaps.
    let mut ladder = Ladder {
        ctx: &ctx,
        place,
        schedule,
        intra: (0..replicas - 1)
            .map(|i| parts.iter().any(|p| p.start <= i && i + 1 < p.end))
            .collect(),
        parts,
        swap_interval: params.swap_interval,
        t_floor,
        round_cap: schedule_len.saturating_mul(replicas),
        temps: vec![ctx.t_infinity; replicas],
        gaps: initial_gaps(replicas),
        orch_rng: StdRng::seed_from_u64(derive_seed(master_seed, replicas)),
        swaps: SwapReport {
            pairs: vec![PairSwap::default(); replicas - 1],
            ..SwapReport::default()
        },
        sweep: 0,
        round: 0,
    };
    if let Some(payload) = resume_payload {
        ladder.restore(payload)?;
    }

    let first = ladder.round;
    if let Some(reason) = multistart::drive(
        &mut reps,
        threads,
        &mut ladder,
        first,
        &config,
        &mut failures,
        rec,
        ctrl,
    )? {
        // Best live configuration by cost (comparable: shared `p₂`).
        return Ok(multistart::interrupted(reason, reps, PlacementState::cost));
    }

    // Report the ladder phase before the quench mutates the rungs.
    let reports: Vec<ReplicaReport> = reps
        .iter()
        .filter(|r| r.live())
        .map(|r| ReplicaReport {
            rung_temperature: Some(ladder.temps[r.index]),
            ..r.report()
        })
        .collect();
    if rec.enabled() {
        for report in &reports {
            rec.record(&multistart::replica_summary("tempering", report));
        }
    }

    // Quench every surviving rung through the tail of the schedule.
    // Each rung re-starts from a few steps above the floor
    // (`QUENCH_REHEAT × t_floor`) under its own calibrated overlap
    // penalty: the short reheat lets a configuration shed the strain
    // the ladder's shared penalty left in it, and every rung carries a
    // distinct basin, multiplying the chances one anneals out ahead of
    // the single-quench baseline. The elitist harvest in `quench_all`
    // guarantees the reheat can never end worse than it started.
    for rep in &mut reps {
        rep.state.set_p2(own_p2[rep.index]);
        rep.run = CoolingRun::new(ladder.temps[rep.index].max(t_floor * QUENCH_REHEAT));
    }
    // Elitist baselines: each live rung's pre-quench configuration and
    // TEIL. They ride in every quench checkpoint so a resumed quench
    // rolls back against the exact baselines of the uninterrupted run.
    let outcome = LadderOutcome {
        elites: reps
            .iter()
            .map(|r| r.live().then(|| (r.state.snapshot(), r.state.teil())))
            .collect(),
        reports,
        swaps: ladder.swaps,
        rounds: ladder.round,
    };
    quench_all(
        &ctx, place, schedule, params, rec, ctrl, &config, reps, outcome, failures,
    )
}

/// What the ladder hands the quench, and every quench checkpoint
/// carries: the final ladder reports and exchange statistics, the
/// elitist baselines, and the ladder's round count, from which the
/// quench numbers its rounds.
struct LadderOutcome {
    reports: Vec<ReplicaReport>,
    swaps: SwapReport,
    elites: Vec<Option<(PlacementSnapshot, f64)>>,
    rounds: usize,
}

impl LadderOutcome {
    fn encode(&self) -> Vec<(&'static str, Value)> {
        vec![
            (
                "reports",
                Value::Array(self.reports.iter().map(resume::report_value).collect()),
            ),
            ("swaps", resume::swaps_value(&self.swaps)),
            ("elites", resume::elites_value(&self.elites)),
            ("ladder_rounds", Value::UInt(self.rounds as u64)),
        ]
    }

    fn decode(payload: &Value, nl: &Netlist, replicas: usize) -> Result<Self, CheckpointError> {
        let ladder = LadderOutcome {
            reports: array_field(payload, "reports")?
                .iter()
                .map(resume::report_from)
                .collect::<Result<_, _>>()?,
            swaps: resume::swaps_from(field(payload, "swaps")?)?,
            elites: resume::elites_from(field(payload, "elites")?, nl)?,
            rounds: usize_field(payload, "ladder_rounds")?,
        };
        if ladder.elites.len() != replicas {
            return Err(CheckpointError::Corrupt(
                "checkpoint rung count differs".into(),
            ));
        }
        Ok(ladder)
    }
}

/// Drives every surviving rung's quench (a plain stage-1 cooling run
/// from its reheated ladder-end temperature, under the rung's own
/// overlap calibration) through the shared round loop, numbering its
/// rounds on from the ladder's. Rungs that end above their pre-quench
/// elite baseline are rolled back to it; the lowest post-quench TEIL
/// wins (ties go to the lowest rung index).
#[allow(clippy::too_many_arguments)]
fn quench_all<'a>(
    ctx: &Stage1Context<'a>,
    place: &PlaceParams,
    schedule: &CoolingSchedule,
    params: &ParallelParams,
    rec: &mut dyn Recorder,
    ctrl: &mut RunCtrl,
    config: &Value,
    mut reps: Vec<Replica<'a>>,
    ladder: LadderOutcome,
    mut failures: Vec<ReplicaFailure>,
) -> Result<Stage1Outcome<'a>, OrchestratorError> {
    let threads = params.effective_threads(params.replicas);
    let scope = |i: usize| RunScope {
        phase: "quench",
        iteration: 0,
        replica: i as i64,
    };
    let state = || ladder.encode();
    let mut cooling = Cooling {
        ctx,
        place,
        schedule,
        phase: "quench",
        scope: &scope,
        state: &state,
    };
    let first = ladder.rounds + multistart::steps_done(&reps);
    if let Some(reason) = multistart::drive(
        &mut reps,
        threads,
        &mut cooling,
        first,
        config,
        &mut failures,
        rec,
        ctrl,
    )? {
        return Ok(multistart::interrupted(reason, reps, PlacementState::teil));
    }

    // A quench that ended above its own starting point is rolled back.
    for (rep, elite) in reps.iter_mut().zip(&ladder.elites) {
        if let Some((snap, teil)) = elite {
            if rep.live() && *teil < rep.state.teil() {
                rep.state.restore(snap);
            }
        }
    }
    // Lowest post-quench TEIL wins.
    let Some(best) = multistart::best_live(&reps, PlacementState::teil) else {
        return Err(OrchestratorError::AllReplicasFailed(failures));
    };
    let rep = reps.swap_remove(best);
    let result = rep.run.into_result(&rep.state, ctx.t_infinity, ctx.s_t);
    let report = ParallelReport {
        strategy: params.strategy,
        replicas: params.replicas,
        threads,
        best_replica: rep.index,
        replica_reports: ladder.reports,
        swaps: ladder.swaps,
        failed: failures,
    };
    Ok(Stage1Outcome::Complete {
        state: rep.state,
        result,
        report,
    })
}
