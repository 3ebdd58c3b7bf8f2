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
//! Rounds are the orchestration quantum: each round every live rung runs
//! one inner loop in parallel, then the orchestrator emits telemetry,
//! runs any swap sweep, cools the ladder, probes the cancellation token,
//! and writes a checkpoint when due — so a round boundary is a
//! consistent cut of the ladder (rung states, per-rung RNG streams, the
//! orchestrator's swap stream, the sweep parity, and the adaptive
//! temperatures/gaps), and interrupt/resume is exact. A rung whose
//! worker panics is retired: it stops stepping, is skipped by swap
//! pairing (no orchestrator RNG draw for a dead pair), and is excluded
//! from winner selection; the survivors complete the run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use twmc_anneal::{
    adapt_gap, cool_ladder, derive_seed, initial_gaps, ladder_landed, swap_probability,
    CoolingSchedule,
};
use twmc_estimator::EstimatorParams;
use twmc_netlist::Netlist;
use twmc_obs::{
    ClassCount, CostBreakdown, Event, PlaceTemp, Recorder, ReplicaFailed, RunScope, Swap,
};
use twmc_place::{
    inner_loop, CoolingRun, MoveSet, MoveStats, PlaceParams, PlacementState, Stage1Context,
};

use crate::multistart::{self, Replica};
use crate::{
    fault, pool, resume, OrchestratorError, PairSwap, ParallelParams, ParallelReport,
    ReplicaFailure, ReplicaReport, RunCtrl, Stage1Outcome, SwapReport,
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
pub(crate) fn ladder_partitions(replicas: usize) -> Vec<std::ops::Range<usize>> {
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

/// One rung's worker during the ladder phase: the configuration
/// currently at this temperature, the rung's RNG stream, its accumulated
/// statistics, and the failure note that retires it. Swaps exchange
/// `state` between rungs; everything else stays with the rung.
struct Rung<'a> {
    index: usize,
    seed: u64,
    state: PlacementState<'a>,
    rng: StdRng,
    stats: MoveStats,
    trajectory: Vec<f64>,
    failed: Option<String>,
}

impl Rung<'_> {
    fn live(&self) -> bool {
        self.failed.is_none()
    }

    fn checkpoint(&self) -> resume::RungCk {
        resume::RungCk {
            seed: self.seed,
            failed: self.failed.clone(),
            rng: self.rng.state(),
            stats: self.stats,
            trajectory: self.trajectory.clone(),
            snap: self.state.snapshot(),
            rebuilds: self.state.index_rebuilds(),
            updates: self.state.index_updates(),
        }
    }

    fn restore(&mut self, ck: &resume::RungCk) {
        self.state.restore(&ck.snap);
        self.state.force_index_counters(ck.rebuilds, ck.updates);
        self.rng = StdRng::from_state(ck.rng);
        self.stats = ck.stats;
        self.trajectory = ck.trajectory.clone();
        self.failed = ck.failed.clone();
    }
}

/// Runs the tempering ladder under the run controller and quenches every
/// surviving rung's configuration through the rest of the schedule,
/// keeping the lowest post-quench TEIL.
///
/// Per round, every live rung performs one inner loop (`A_c · N_c`
/// attempts, eq. 17) at its current ladder temperature — rounds run in
/// parallel, swap sweeps are sequential on the orchestrator's own RNG
/// stream so the outcome is independent of the thread count. Between
/// rounds the whole ladder advances: the anchor takes one Table-1 step
/// and the per-pair gaps adapt toward the target swap-acceptance band.
///
/// Telemetry (deterministic event order for any thread count): one
/// `tempering`-phase [`PlaceTemp`] per live rung per round, one
/// [`Swap`] per exchange attempt, a [`twmc_obs::ReplicaFailed`] when a
/// rung dies, one [`twmc_obs::ReplicaSummary`] per surviving rung at
/// ladder end, then the per-rung quench streams under phase `quench`.
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
    let swap_interval = params.swap_interval;
    debug_assert!(swap_interval >= 1, "validated by parallel_stage1_resilient");
    let stats = nl.stats();
    let config = resume::config_value(
        master_seed,
        params,
        place.attempts_per_cell,
        (stats.cells, stats.nets, stats.pins),
    );
    let ctx = Stage1Context::new(nl, place, est);
    let t_floor = ctx.final_temperature();
    // A fixed round budget truncates the ladder (the quench below then
    // harvests rungs stranded mid-air); the default (0) runs the ladder
    // until every rung has completed its own staggered descent to the
    // floor, so the ensemble ends with `replicas` finished anneals.
    let fixed_rounds = (params.rounds > 0).then_some(params.rounds);
    // The Table-1 trajectory length — the anchor's landing time and the
    // round-numbering base a resumed quench continues from.
    let schedule_len = schedule
        .steps_between(ctx.t_infinity, t_floor, ctx.s_t)
        .max(1);

    // Independent random starting configurations, one RNG stream per
    // rung — identical for fresh and resumed runs (restores below
    // overwrite everything construction consumed).
    let seeds: Vec<u64> = (0..replicas).map(|i| derive_seed(master_seed, i)).collect();
    let init = pool::try_run_indexed(replicas, threads, |i| {
        let mut rng = StdRng::seed_from_u64(seeds[i]);
        let state = ctx.random_state(place, &mut rng);
        (state, rng)
    });
    let mut states: Vec<(PlacementState<'a>, StdRng)> = Vec::with_capacity(replicas);
    for r in init {
        let pair = r.map_err(|e| {
            OrchestratorError::AllReplicasFailed(vec![ReplicaFailure {
                replica: e.index,
                round: 0,
                error: e.message,
            }])
        })?;
        states.push(pair);
    }
    // The `p₂` overlap normalization is calibrated per random start; the
    // exchange rule compares energies across rungs, so every rung of a
    // ladder must price overlap identically — the ladder's first rung
    // calibrates its whole ladder. Each rung's own calibration is kept
    // for the quench, where no exchanges happen and per-replica pricing
    // is legitimate again.
    let parts = ladder_partitions(replicas);
    let own_p2: Vec<f64> = states.iter().map(|(s, _)| s.p2()).collect();
    for part in &parts {
        let p2 = own_p2[part.start];
        for (state, _) in &mut states[part.start + 1..part.end] {
            state.set_p2(p2);
        }
    }
    // A pair is exchangeable only inside one ladder; the pair that
    // straddles two ladders of the pack never swaps.
    let intra: Vec<bool> = (0..replicas.saturating_sub(1))
        .map(|i| parts.iter().any(|p| p.start <= i && i + 1 < p.end))
        .collect();

    // Resuming a quench skips the ladder: rebuild the rungs and drop
    // straight back into the per-rung cooling runs.
    if let Some(payload) = resume_payload {
        if resume::payload_phase(payload)? == "quench" {
            let ck = resume::quench_from(payload)?;
            if ck.rungs.len() != replicas || ck.elites.len() != replicas {
                return Err(OrchestratorError::Checkpoint(
                    twmc_resume::CheckpointError::Corrupt("checkpoint rung count differs".into()),
                ));
            }
            let mut reps: Vec<Replica<'a>> = states
                .into_iter()
                .enumerate()
                .map(|(i, (state, rng))| {
                    Replica::new(i, seeds[i], state, rng, CoolingRun::new(ctx.t_infinity))
                })
                .collect();
            for (rep, rck) in reps.iter_mut().zip(&ck.rungs) {
                rep.restore(rck);
            }
            return quench_all(
                &ctx,
                place,
                schedule,
                params,
                rec,
                ctrl,
                &config,
                reps,
                ck.reports,
                ck.swaps,
                ck.failures,
                ck.elites,
                threads,
                fixed_rounds.unwrap_or(schedule_len),
            );
        }
    }

    let mut rungs: Vec<Rung<'a>> = states
        .into_iter()
        .enumerate()
        .map(|(i, (state, rng))| Rung {
            index: i,
            seed: seeds[i],
            state,
            rng,
            stats: MoveStats::default(),
            trajectory: Vec::new(),
            failed: None,
        })
        .collect();

    // Adaptive ladder state: every rung starts at T∞ (the fan opens from
    // the cold end as the anchor descends) with uniform initial gaps.
    let mut temps: Vec<f64> = vec![ctx.t_infinity; replicas];
    let mut gaps: Vec<f64> = initial_gaps(replicas);
    let mut orch_rng = StdRng::seed_from_u64(derive_seed(master_seed, replicas));
    let mut swaps = SwapReport {
        pairs: vec![PairSwap::default(); replicas - 1],
        ..SwapReport::default()
    };
    let mut sweep = 0usize;
    let mut start_round = 0usize;
    let mut failures: Vec<ReplicaFailure> = Vec::new();

    if let Some(payload) = resume_payload {
        let ck = resume::tempering_from(payload)?;
        if ck.rungs.len() != replicas || ck.temps.len() != replicas || ck.gaps.len() != replicas - 1
        {
            return Err(OrchestratorError::Checkpoint(
                twmc_resume::CheckpointError::Corrupt("checkpoint rung count differs".into()),
            ));
        }
        for (rung, rck) in rungs.iter_mut().zip(&ck.rungs) {
            rung.restore(rck);
        }
        orch_rng = StdRng::from_state(ck.orch_rng);
        temps = ck.temps;
        gaps = ck.gaps;
        swaps = ck.swaps;
        sweep = ck.sweep;
        start_round = ck.round;
        failures = ck.failures;
    }

    let inner = place.attempts_per_cell * nl.cells().len();
    let enabled = rec.enabled();

    // A rung moves only while its temperature is in transit. Waiting at
    // `T∞` it already holds an equilibrium sample (any configuration
    // is), and once landed its floor polish comes from the quench — so
    // skipping both dwells costs nothing in quality while keeping the
    // ensemble's total move budget near `replicas × schedule length`,
    // the same budget a multi-start batch spends.
    let in_transit = |t: f64| t > t_floor && t < ctx.t_infinity;

    // Backstop for pathological schedules that never land; the quench
    // harvests whatever is still mid-air if it ever triggers.
    let round_cap = fixed_rounds.unwrap_or_else(|| schedule_len.saturating_mul(replicas.max(2)));
    let mut round = start_round;
    while round < round_cap {
        // With no fixed budget, the ladder ends once every rung has
        // completed its staggered descent to the floor.
        if fixed_rounds.is_none() && ladder_landed(&temps, t_floor) {
            break;
        }
        // Snapshot per-rung counters so the round's deltas can be
        // reported after the join (workers cannot share `rec`).
        let stats_before: Vec<MoveStats> = if enabled {
            rungs.iter().map(|r| r.stats).collect()
        } else {
            Vec::new()
        };
        let before: usize = rungs.iter().map(|r| r.stats.attempts()).sum();
        let round_hub = rec.hub().cloned();
        let round_tracer = rec.tracer().cloned();
        let outcomes = pool::try_run_mut(&mut rungs, threads, |_, rung| {
            if !rung.live() || !in_transit(temps[rung.index]) {
                return;
            }
            fault::maybe_fail(rung.index, round);
            // Each rung traces onto its own `rung<k>` lane; hub handles
            // are atomic, so concurrent rungs fold in safely.
            let t = temps[rung.index];
            inner_loop(
                &mut rung.state,
                place,
                MoveSet::Full,
                ctx.limiter.window_x(t),
                ctx.limiter.window_y(t),
                t,
                inner,
                &mut rung.rng,
                &mut rung.stats,
                round_hub.as_deref(),
                round_tracer
                    .as_ref()
                    .map(|tr| tr.lane(&format!("rung{}", rung.index))),
            );
            rung.trajectory.push(rung.state.teil());
        });
        for (rung, out) in rungs.iter_mut().zip(&outcomes) {
            if let Err(e) = out {
                if rung.live() {
                    rung.failed = Some(e.message.clone());
                    failures.push(ReplicaFailure {
                        replica: rung.index,
                        round: round as u64,
                        error: e.message.clone(),
                    });
                    if let Some(hub) = rec.hub() {
                        hub.replica_failures_total.inc();
                    }
                    if enabled {
                        rec.record(&Event::ReplicaFailed(ReplicaFailed {
                            phase: "tempering",
                            replica: rung.index,
                            round: round as u64,
                            error: e.message.clone(),
                        }));
                    }
                }
            }
        }
        if enabled {
            for (i, rung) in rungs
                .iter()
                .enumerate()
                .filter(|&(i, r)| r.live() && in_transit(temps[i]))
            {
                let t = temps[i];
                let delta = rung.stats.since(&stats_before[i]);
                rec.record(&Event::PlaceTemp(PlaceTemp {
                    phase: "tempering",
                    iteration: round as u64,
                    replica: i as i64,
                    step: round,
                    temperature: t,
                    s_t: ctx.s_t,
                    window_x: ctx.limiter.window_x(t),
                    window_y: ctx.limiter.window_y(t),
                    inner,
                    attempts: delta.attempts(),
                    accepts: delta.accepts(),
                    cost: CostBreakdown {
                        total: rung.state.cost(),
                        c1: rung.state.c1(),
                        overlap: rung.state.raw_overlap(),
                        overlap_penalty: rung.state.p2() * rung.state.raw_overlap() as f64,
                        c3: rung.state.c3(),
                    },
                    teil: rung.state.teil(),
                    index_rebuilds: rung.state.index_rebuilds(),
                    index_updates: rung.state.index_updates(),
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
        let after: usize = rungs.iter().map(|r| r.stats.attempts()).sum();
        ctrl.cancel.add_moves((after - before) as u64);

        if (round + 1).is_multiple_of(swap_interval) {
            // Alternate even/odd adjacent pairs per sweep, the standard
            // scheme that lets a configuration traverse the ladder.
            let start = sweep % 2;
            sweep += 1;
            for i in (start..replicas.saturating_sub(1)).step_by(2) {
                if !intra[i] || !rungs[i].live() || !rungs[i + 1].live() {
                    continue;
                }
                // Before the fan reaches a pair both rungs sit at the
                // same temperature; exchanging them is a no-op, so skip
                // deterministically (no orchestrator RNG draw, no
                // counters) instead of logging a meaningless free swap.
                if temps[i] <= temps[i + 1] {
                    continue;
                }
                let p = swap_probability(
                    temps[i],
                    temps[i + 1],
                    rungs[i].state.cost(),
                    rungs[i + 1].state.cost(),
                );
                swaps.attempts += 1;
                swaps.pairs[i].attempts += 1;
                let accepted = orch_rng.random::<f64>() < p;
                if accepted {
                    let (a, b) = rungs.split_at_mut(i + 1);
                    std::mem::swap(&mut a[i].state, &mut b[0].state);
                    swaps.accepts += 1;
                    swaps.pairs[i].accepts += 1;
                }
                gaps[i] = adapt_gap(gaps[i], accepted);
                if let Some(hub) = rec.hub() {
                    hub.swap_attempts_total.inc();
                    if accepted {
                        hub.swaps_accepted_total.inc();
                    }
                }
                if enabled {
                    rec.record(&Event::Swap(Swap {
                        round: round as u64,
                        lower: i,
                        upper: i + 1,
                        t_lower: temps[i],
                        t_upper: temps[i + 1],
                        s_t: ctx.s_t,
                        accepted,
                    }));
                }
            }
        }
        // Advance every ladder of the pack one cooling step under the
        // freshly adapted gaps; rungs never re-heat and stay ordered.
        for part in &parts {
            cool_ladder(
                schedule,
                &mut temps[part.clone()],
                &gaps[part.start..part.end - 1],
                ctx.s_t,
                t_floor,
            );
        }

        if rungs.iter().all(|r| !r.live()) {
            return Err(OrchestratorError::AllReplicasFailed(failures));
        }
        let ladder_payload = |rungs: &[Rung<'a>]| {
            resume::phase_payload(
                "tempering",
                config.clone(),
                vec![
                    ("round", Value::UInt(round as u64 + 1)),
                    ("sweep", Value::UInt(sweep as u64)),
                    ("orch_rng", twmc_resume::codec::u64x4(orch_rng.state())),
                    ("temps", resume::ladder_temps_value(&temps)),
                    ("gaps", resume::ladder_temps_value(&gaps)),
                    ("swaps", resume::swaps_value(&swaps)),
                    (
                        "rungs",
                        Value::Array(
                            rungs
                                .iter()
                                .map(|r| resume::rung_value(&r.checkpoint(), nl))
                                .collect(),
                        ),
                    ),
                    ("failed", resume::failures_value(&failures)),
                ],
            )
        };
        if let Some(reason) = ctrl.cancel.check() {
            ctrl.write_checkpoint(&ladder_payload(&rungs), rec)?;
            // Best live configuration by cost (comparable: shared `p₂`).
            let mut best = 0;
            let mut seen = false;
            for (i, rung) in rungs.iter().enumerate() {
                if rung.live() && (!seen || rung.state.cost() < rungs[best].state.cost()) {
                    best = i;
                    seen = true;
                }
            }
            let rung = rungs.swap_remove(best);
            return Ok(Stage1Outcome::Interrupted {
                reason,
                teil: rung.state.teil(),
                cost: rung.state.cost(),
                state: rung.state,
            });
        }
        if ctrl.checkpoint_due(round as u64) {
            ctrl.write_checkpoint(&ladder_payload(&rungs), rec)?;
        }
        round += 1;
    }
    let ladder_rounds = round;

    // Report the ladder phase before the quench mutates the rungs.
    let replica_reports: Vec<ReplicaReport> = rungs
        .iter()
        .filter(|r| r.live())
        .map(|rung| ReplicaReport {
            replica: rung.index,
            seed: rung.seed,
            rung_temperature: Some(temps[rung.index]),
            teil: rung.state.teil(),
            cost: rung.state.cost(),
            attempts: rung.stats.attempts(),
            accepts: rung.stats.accepts(),
            teil_trajectory: rung.trajectory.clone(),
        })
        .collect();
    if replica_reports.is_empty() {
        return Err(OrchestratorError::AllReplicasFailed(failures));
    }
    if enabled {
        for report in &replica_reports {
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
    let reps: Vec<Replica<'a>> = rungs
        .into_iter()
        .map(|r| {
            let mut state = r.state;
            state.set_p2(own_p2[r.index]);
            let run = CoolingRun::new(temps[r.index].max(t_floor * QUENCH_REHEAT));
            Replica {
                failed: r.failed,
                ..Replica::new(r.index, r.seed, state, r.rng, run)
            }
        })
        .collect();
    // Elitist baselines: each live rung's pre-quench configuration and
    // TEIL. They ride in every quench checkpoint so a resumed quench
    // rolls back against the exact baselines of the uninterrupted run.
    let elites: Vec<Option<(twmc_place::PlacementSnapshot, f64)>> = reps
        .iter()
        .map(|r| r.live().then(|| (r.state.snapshot(), r.state.teil())))
        .collect();
    quench_all(
        &ctx,
        place,
        schedule,
        params,
        rec,
        ctrl,
        &config,
        reps,
        replica_reports,
        swaps,
        failures,
        elites,
        threads,
        ladder_rounds,
    )
}

/// Drives every surviving rung's quench (a plain stage-1 cooling run
/// from its reheated ladder-end temperature, under the rung's own
/// overlap calibration) through the multi-start round loop
/// ([`multistart::drive`]), from round `ladder_rounds` on. Rungs that
/// end above their pre-quench `elites` baseline are rolled back to it;
/// the lowest post-quench TEIL wins (ties go to the lowest rung index).
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
    reports: Vec<ReplicaReport>,
    swaps: SwapReport,
    mut failures: Vec<ReplicaFailure>,
    elites: Vec<Option<(twmc_place::PlacementSnapshot, f64)>>,
    threads: usize,
    ladder_rounds: usize,
) -> Result<Stage1Outcome<'a>, OrchestratorError> {
    let build_payload = |reps: &[Replica<'a>], failures: &[ReplicaFailure]| {
        resume::phase_payload(
            "quench",
            config.clone(),
            vec![
                (
                    "rungs",
                    Value::Array(
                        reps.iter()
                            .map(|r| resume::replica_value(&r.checkpoint(), ctx.netlist()))
                            .collect(),
                    ),
                ),
                (
                    "reports",
                    Value::Array(reports.iter().map(resume::report_value).collect()),
                ),
                ("swaps", resume::swaps_value(&swaps)),
                ("failed", resume::failures_value(failures)),
                ("elites", resume::elites_value(&elites, ctx.netlist())),
            ],
        )
    };
    if let Some(reason) = multistart::drive(
        ctx,
        place,
        schedule,
        &mut reps,
        threads,
        "quench",
        ladder_rounds,
        |i| RunScope {
            phase: "quench",
            iteration: 0,
            replica: i as i64,
        },
        &mut failures,
        rec,
        ctrl,
        build_payload,
    )? {
        return Ok(multistart::interrupted(reason, reps));
    }

    // A quench that ended above its own starting point is rolled back.
    for (rep, elite) in reps.iter_mut().zip(&elites) {
        if let Some((snap, teil)) = elite {
            if rep.live() && *teil < rep.state.teil() {
                rep.state.restore(snap);
            }
        }
    }
    // Lowest post-quench TEIL wins.
    let Some(best) = multistart::best_live(&reps) else {
        return Err(OrchestratorError::AllReplicasFailed(failures));
    };
    let rep = reps.swap_remove(best);
    let result = rep.run.into_result(&rep.state, ctx.t_infinity, ctx.s_t);
    let report = ParallelReport {
        strategy: params.strategy,
        replicas: params.replicas,
        threads,
        best_replica: rep.index,
        replica_reports: reports,
        swaps,
        failed: failures,
    };
    Ok(Stage1Outcome::Complete {
        state: rep.state,
        result,
        report,
    })
}
