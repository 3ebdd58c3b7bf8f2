//! Run-health diagnostics: checks a recorded run against the paper's
//! control laws.
//!
//! Each check compares one feedback mechanism of the annealing stack
//! with what §3.3–§4.2 of the paper prescribe: the Table-1 cooling
//! regions, the eq. 12–14 log-T range-limiter decay with ρ = 4, the
//! `S_T`/`T_∞` scaling of eqs. 19–21, cost convergence, the r ≈ 10
//! displacement/interchange move mix (Fig. 3), and the phase-2 route
//! selection's overflow guarantees (eq. 24). The result is a flat list
//! of pass/warn/fail findings plus the headline metrics the diff
//! engine compares across runs.

use serde::Serialize;
use twmc_anneal::{CoolingSchedule, MIN_WINDOW_SPAN, REF_T_INFINITY};

use crate::stream::{RunStream, TempRec};

/// Severity of one finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// The signal matches the paper's law.
    Pass,
    /// Suspicious but not conclusively broken (short streams, missing
    /// sections, soft heuristics).
    Warn,
    /// The recorded run violates a law that holds for a healthy run.
    Fail,
}

/// One diagnostic finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Finding {
    /// Check identifier (`"schedule.table1"`, `"route.overflow"`, …).
    pub check: String,
    /// Outcome.
    pub severity: Severity,
    /// Human-readable evidence.
    pub detail: String,
}

/// Headline metrics of a run — the values the diff engine compares.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Metrics {
    /// Final TEIL.
    pub teil: f64,
    /// Final chip area (width × height).
    pub chip_area: i64,
    /// Final routed length.
    pub routed_length: i64,
    /// Residual routing overflow of the last routing execution.
    pub overflow: i64,
    /// Unrouted nets of the last routing execution.
    pub unrouted: i64,
    /// Run wall-clock in microseconds (informational).
    pub wall_us: u64,
    /// Temperature steps recorded.
    pub temp_steps: u64,
    /// Routing executions recorded.
    pub route_iters: u64,
}

/// The full health report of one recorded run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HealthReport {
    /// Findings in fixed check order.
    pub findings: Vec<Finding>,
    /// Headline metrics.
    pub metrics: Metrics,
}

impl HealthReport {
    /// Whether no finding failed.
    pub fn healthy(&self) -> bool {
        worst(&self.findings) != Severity::Fail
    }
}

/// Relative tolerance for matching recorded cooling ratios against the
/// schedule's α: the recorder prints finite decimals, so allow rounding
/// noise but nothing a wrong α could hide behind (regions differ by ≥3%).
const ALPHA_TOL: f64 = 1e-3;

/// Tolerance on the estimated range-limiter exponent ρ̂ around the
/// paper's 4 (window spans are printed with limited precision).
const RHO_TOL: f64 = 0.25;

pub(crate) fn finding(check: &str, severity: Severity, detail: String) -> Finding {
    Finding {
        check: check.to_owned(),
        severity,
        detail,
    }
}

/// Worst severity across `findings` (`Pass` when there are none): a
/// `Fail` makes every `twmc report` and `twmc diff` judgement exit 2.
pub fn worst(findings: &[Finding]) -> Severity {
    findings
        .iter()
        .map(|f| f.severity)
        .max()
        .unwrap_or(Severity::Pass)
}

/// Renders findings one per line, `PASS`/`WARN`/`FAIL` then the check
/// and its evidence, closed by one `verdict:` line from [`worst`]: the
/// head of every `twmc report` and `twmc diff` table.
pub fn format_findings(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let tag = match f.severity {
            Severity::Pass => "PASS",
            Severity::Warn => "WARN",
            Severity::Fail => "FAIL",
        };
        out.push_str(&format!("{tag}  {:<20} {}\n", f.check, f.detail));
    }
    let verdict = match worst(findings) {
        Severity::Pass => "pass",
        Severity::Warn => "pass with warnings",
        Severity::Fail => "FAIL",
    };
    out.push_str(&format!("verdict: {verdict}\n"));
    out
}

/// Extracts the headline metrics (used standalone by the diff engine).
pub fn metrics(stream: &RunStream) -> Metrics {
    let last_route = stream.routes.last();
    let (teil, chip_area, routed_length, wall_us) = match (&stream.end, &stream.interrupted) {
        (Some(end), _) => (
            end.teil,
            end.chip_width * end.chip_height,
            end.routed_length,
            end.wall_us,
        ),
        // An interrupted run's footer carries the best-so-far numbers.
        (None, Some(cut)) => (
            cut.teil,
            0,
            last_route.map_or(0, |r| r.total_length),
            cut.wall_us,
        ),
        (None, None) => (
            stream.temps.last().map_or(f64::NAN, |t| t.teil),
            0,
            last_route.map_or(0, |r| r.total_length),
            stream.spans.iter().map(|s| s.wall_us).sum(),
        ),
    };
    Metrics {
        teil,
        chip_area,
        routed_length,
        overflow: last_route.map_or(0, |r| r.overflow),
        unrouted: last_route.map_or(0, |r| r.unrouted as i64),
        wall_us,
        temp_steps: stream.temps.len() as u64,
        route_iters: stream.routes.len() as u64,
    }
}

/// Runs every health check on a parsed stream.
pub fn analyze(stream: &RunStream) -> HealthReport {
    let stage1 = stream.stage1_temps();
    let mut findings = vec![check_envelope(stream)];
    findings.extend(check_fault_resume(stream));
    findings.extend(check_resilience(stream));
    findings.push(check_scaling(&stage1));
    findings.push(check_schedule(&stage1));
    findings.push(check_acceptance(&stage1));
    findings.push(check_window(&stage1));
    findings.push(check_cost(&stage1));
    findings.push(check_moves(&stage1));
    findings.extend(check_swaps(stream));
    findings.extend(check_routes(stream));
    HealthReport {
        findings,
        metrics: metrics(stream),
    }
}

/// Kinds a pipeline run records between its `run_start` and `run_end`.
const PIPELINE_KINDS: [&str; 2] = ["place_temp", "stage_span"];

fn check_envelope(stream: &RunStream) -> Finding {
    match (&stream.start, &stream.end, &stream.interrupted) {
        (Some(s), Some(e), _) => {
            let missing: Vec<&str> = PIPELINE_KINDS
                .into_iter()
                .filter(|kind| !stream.stats.kind_counts.contains_key(*kind))
                .collect();
            let (severity, lacks) = match missing.as_slice() {
                [] => (Severity::Pass, String::new()),
                kinds => (
                    Severity::Warn,
                    format!(", but the stream holds no {} event", kinds.join(" or ")),
                ),
            };
            finding(
                "run.envelope",
                severity,
                format!(
                    "seed {} ({} cells, {} nets, {} pins, {} x{}) -> TEIL {:.0} in {:.2}s{lacks}",
                    s.seed,
                    s.cells,
                    s.nets,
                    s.pins,
                    s.strategy,
                    s.replicas,
                    e.teil,
                    e.wall_us as f64 / 1e6
                ),
            )
        }
        // A run_interrupted footer closes the envelope just as well as
        // run_end: the run stopped on purpose, mid-flight, and left a
        // checkpoint — the stream is a clean prefix, not a fragment.
        (Some(s), None, Some(cut)) => finding(
            "run.envelope",
            Severity::Pass,
            format!(
                "seed {} ({} cells, {} nets, {} pins) interrupted ({}) in {} after {:.2}s; \
                 best-so-far TEIL {:.0} (resumable)",
                s.seed,
                s.cells,
                s.nets,
                s.pins,
                cut.reason,
                cut.stage,
                cut.wall_us as f64 / 1e6,
                cut.teil,
            ),
        ),
        _ => finding(
            "run.envelope",
            Severity::Warn,
            "stream fragment without a run_start/run_end envelope".to_owned(),
        ),
    }
}

/// Crash-recovery record of an interrupted-and-resumed stream.
/// `parse_stream` has already rejected a torn continuation (records
/// after a `run_interrupted` with no `run_end` do not read, so they
/// never reach this check); here the stream either closed with `run_end` —
/// the daemon resumed the checkpoint and completed end-to-end — or ends
/// at the interrupt with a checkpoint still pending resume.
fn check_fault_resume(stream: &RunStream) -> Vec<Finding> {
    let Some(cut) = &stream.interrupted else {
        return Vec::new();
    };
    let interrupts = stream
        .stats
        .kind_counts
        .get("run_interrupted")
        .copied()
        .unwrap_or(1);
    match &stream.end {
        Some(end) => vec![finding(
            "fault.resume",
            Severity::Pass,
            format!(
                "resumed to completion across {interrupts} interruption(s) \
                 (last: {} in {}); final TEIL {:.0}",
                cut.reason, cut.stage, end.teil
            ),
        )],
        None => vec![finding(
            "fault.resume",
            Severity::Warn,
            format!(
                "stream ends at a {} interrupt in {} ({interrupts} interruption(s) total); \
                 checkpoint pending resume — re-check once the continuation lands",
                cut.reason, cut.stage
            ),
        )],
    }
}

/// Fault-isolation record: lost replicas degrade the run (fewer
/// independent starts / a thinner tempering ladder) without failing it.
fn check_resilience(stream: &RunStream) -> Vec<Finding> {
    if stream.failures.is_empty() {
        return Vec::new();
    }
    let list = stream
        .failures
        .iter()
        .map(|f| {
            format!(
                "replica {} in {} at round {} ({})",
                f.replica, f.phase, f.round, f.error
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    vec![finding(
        "replicas.degraded",
        Severity::Warn,
        format!(
            "{} replica(s) lost to faults, run completed on the survivors: {list}",
            stream.failures.len()
        ),
    )]
}

/// `S_T` constancy and `T_∞ = S_T · 10^5` (eqs. 20–21).
fn check_scaling(stage1: &[&TempRec]) -> Finding {
    let Some(first) = stage1.first() else {
        return finding(
            "schedule.scaling",
            Severity::Warn,
            "no stage-1 place_temp stream recorded".to_owned(),
        );
    };
    let s_t = first.s_t;
    if let Some(t) = stage1.iter().find(|t| (t.s_t - s_t).abs() > 1e-9 * s_t) {
        return finding(
            "schedule.scaling",
            Severity::Fail,
            format!(
                "S_T drifted within one run: {} at step {} vs {} at step {}",
                t.s_t, t.step, s_t, first.step
            ),
        );
    }
    let t_inf = s_t * REF_T_INFINITY;
    let ratio = first.temperature / t_inf;
    // The first recorded step already cooled once from T_∞, so allow
    // one α of slack below plus headroom above for rounding.
    if !(0.5..=1.5).contains(&ratio) {
        return finding(
            "schedule.scaling",
            Severity::Warn,
            format!(
                "start temperature {:.3e} is {ratio:.2}x S_T*1e5 = {t_inf:.3e} (eq. 21 expects ~1x)",
                first.temperature
            ),
        );
    }
    finding(
        "schedule.scaling",
        Severity::Pass,
        format!(
            "S_T = {s_t:.4} constant over {} steps, T_start = {:.3e} ~= S_T*1e5",
            stage1.len(),
            first.temperature
        ),
    )
}

/// Cooling ratios against the Table-1 schedule, and the α-region
/// sequence 0.85 -> 0.92 -> 0.85 -> 0.80.
fn check_schedule(stage1: &[&TempRec]) -> Finding {
    if stage1.len() < 2 {
        return finding(
            "schedule.table1",
            Severity::Warn,
            format!(
                "only {} stage-1 temperature step(s); cannot check cooling ratios",
                stage1.len()
            ),
        );
    }
    let schedule = CoolingSchedule::stage1();
    let s_t = stage1[0].s_t.max(f64::MIN_POSITIVE);
    let mut regions: Vec<f64> = Vec::new();
    for pair in stage1.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.temperature <= 0.0 {
            continue;
        }
        let observed = b.temperature / a.temperature;
        let expected = schedule.alpha(a.temperature, s_t);
        if (observed - expected).abs() > ALPHA_TOL {
            return finding(
                "schedule.table1",
                Severity::Fail,
                format!(
                    "cooling ratio {observed:.4} at T = {:.3e} (step {}) does not match \
                     Table 1's alpha = {expected} for this region",
                    a.temperature, a.step
                ),
            );
        }
        if regions.last() != Some(&expected) {
            regions.push(expected);
        }
    }
    let region_str = regions
        .iter()
        .map(|a| format!("{a}"))
        .collect::<Vec<_>>()
        .join(" -> ");
    if regions == [0.85, 0.92, 0.85, 0.80] {
        finding(
            "schedule.table1",
            Severity::Pass,
            format!("alpha regions {region_str} (all four Table-1 regions traversed)"),
        )
    } else {
        finding(
            "schedule.table1",
            Severity::Warn,
            format!(
                "alpha regions {region_str}; a full stage-1 run traverses \
                 0.85 -> 0.92 -> 0.85 -> 0.8"
            ),
        )
    }
}

/// Acceptance-rate trajectory: high in the hot region, frozen at the
/// end, broadly decreasing in between.
fn check_acceptance(stage1: &[&TempRec]) -> Finding {
    if stage1.len() < 4 {
        return finding(
            "anneal.acceptance",
            Severity::Warn,
            "stage-1 stream too short for an acceptance trajectory".to_owned(),
        );
    }
    let rates: Vec<f64> = stage1.iter().map(|t| t.acceptance()).collect();
    let quarter = rates.len() / 4;
    let head: f64 = rates[..quarter.max(1)].iter().sum::<f64>() / quarter.max(1) as f64;
    let tail: f64 =
        rates[rates.len() - quarter.max(1)..].iter().sum::<f64>() / quarter.max(1) as f64;
    let detail = format!(
        "acceptance {:.0}% at T_start, {head:.2} mean over the hot quartile, \
         {tail:.2} over the cold quartile, {:.0}% at the end",
        100.0 * rates[0],
        100.0 * rates[rates.len() - 1]
    );
    if tail > head {
        return finding(
            "anneal.acceptance",
            Severity::Fail,
            format!("{detail}; acceptance rose as the run cooled"),
        );
    }
    if rates[0] < 0.5 {
        return finding(
            "anneal.acceptance",
            Severity::Warn,
            format!("{detail}; the hot regime should accept most moves (T_start too low?)"),
        );
    }
    if tail > 0.5 {
        return finding(
            "anneal.acceptance",
            Severity::Warn,
            format!("{detail}; the run never froze (stopped too hot?)"),
        );
    }
    finding("anneal.acceptance", Severity::Pass, detail)
}

/// Range-limiter decay: windows non-increasing, and the implied
/// exponent ρ̂ close to the paper's 4 on the unclamped segment.
fn check_window(stage1: &[&TempRec]) -> Finding {
    if stage1.len() < 2 {
        return finding(
            "window.decay",
            Severity::Warn,
            "stage-1 stream too short to check the range limiter".to_owned(),
        );
    }
    for pair in stage1.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b.window_x > a.window_x + 1e-9 || b.window_y > a.window_y + 1e-9 {
            return finding(
                "window.decay",
                Severity::Fail,
                format!(
                    "window grew while cooling: ({:.1}, {:.1}) -> ({:.1}, {:.1}) at step {}",
                    a.window_x, a.window_y, b.window_x, b.window_y, b.step
                ),
            );
        }
    }
    // Estimate rho from the widest unclamped span: eq. 12 gives
    // W(T2)/W(T1) = rho^(log10 T2 - log10 T1) wherever the minimum-span
    // floor is not active.
    let unclamped: Vec<&&TempRec> = stage1
        .iter()
        .filter(|t| t.window_x > MIN_WINDOW_SPAN * 1.01 && t.temperature > 0.0)
        .collect();
    let (Some(first), Some(last)) = (unclamped.first(), unclamped.last()) else {
        return finding(
            "window.decay",
            Severity::Warn,
            "window at its minimum span throughout; cannot estimate rho".to_owned(),
        );
    };
    let dlog = first.temperature.log10() - last.temperature.log10();
    if dlog < 0.5 {
        return finding(
            "window.decay",
            Severity::Warn,
            "unclamped window segment spans less than half a temperature decade".to_owned(),
        );
    }
    let rho_hat = (first.window_x / last.window_x).powf(1.0 / dlog);
    if (rho_hat - 4.0).abs() > RHO_TOL {
        return finding(
            "window.decay",
            Severity::Fail,
            format!(
                "estimated range-limiter exponent rho = {rho_hat:.2} over {dlog:.1} decades \
                 (paper section 3.2.2 chooses 4)"
            ),
        );
    }
    finding(
        "window.decay",
        Severity::Pass,
        format!("windows non-increasing; rho = {rho_hat:.2} over {dlog:.1} decades (paper: 4)"),
    )
}

/// Cost convergence, stalls, and tail oscillation.
fn check_cost(stage1: &[&TempRec]) -> Finding {
    let (Some(first), Some(last)) = (stage1.first(), stage1.last()) else {
        return finding(
            "cost.convergence",
            Severity::Warn,
            "no stage-1 cost trajectory recorded".to_owned(),
        );
    };
    if !last.cost_total.is_finite() || last.cost_total > first.cost_total {
        return finding(
            "cost.convergence",
            Severity::Fail,
            format!(
                "cost did not converge: {:.0} at T_start -> {:.0} at the end",
                first.cost_total, last.cost_total
            ),
        );
    }
    // Oscillation: in the cold half the cost should mostly move down.
    let half = &stage1[stage1.len() / 2..];
    let rises = half
        .windows(2)
        .filter(|p| p[1].cost_total > p[0].cost_total)
        .count();
    let detail = format!(
        "cost {:.0} -> {:.0} ({} steps); final split C1 {:.0} / p2*C2 {:.0} / C3 {:.0}",
        first.cost_total,
        last.cost_total,
        stage1.len(),
        last.c1,
        last.overlap_penalty,
        last.c3
    );
    if half.len() >= 4 && rises * 2 > half.len() {
        return finding(
            "cost.convergence",
            Severity::Warn,
            format!(
                "{detail}; cost rose on {rises}/{} cold-half steps (oscillating?)",
                half.len() - 1
            ),
        );
    }
    finding("cost.convergence", Severity::Pass, detail)
}

/// Move-class mix: the displacement/interchange attempt ratio r should
/// sit near the paper's 10 (Fig. 3: 7–15 within 1% of best).
fn check_moves(stage1: &[&TempRec]) -> Finding {
    let mut disp = (0u64, 0u64);
    let mut inter = (0u64, 0u64);
    for t in stage1 {
        for c in &t.classes {
            match c.class.as_str() {
                "displacements" | "inverted_displacements" => {
                    disp.0 += c.attempts;
                    disp.1 += c.accepts;
                }
                "interchanges" | "inverted_interchanges" => {
                    inter.0 += c.attempts;
                    inter.1 += c.accepts;
                }
                _ => {}
            }
        }
    }
    if disp.0 == 0 || inter.0 == 0 {
        return finding(
            "moves.ratio",
            Severity::Warn,
            "no per-class move counters recorded (pre-telemetry stream?)".to_owned(),
        );
    }
    let r = disp.0 as f64 / inter.0 as f64;
    let detail = format!(
        "r = {r:.1} ({} displacements at {:.0}% accept, {} interchanges at {:.0}% accept)",
        disp.0,
        100.0 * disp.1 as f64 / disp.0.max(1) as f64,
        inter.0,
        100.0 * inter.1 as f64 / inter.0.max(1) as f64,
    );
    if (5.0..=20.0).contains(&r) {
        finding("moves.ratio", Severity::Pass, detail)
    } else {
        finding(
            "moves.ratio",
            Severity::Warn,
            format!("{detail}; Fig. 3 places the best mix near r = 10"),
        )
    }
}

/// Routing health over the recorded `route_iter` executions.
/// Healthy band for parallel-tempering replica-exchange acceptance.
/// The tempering literature targets roughly 20–40%: below it the
/// temperature rungs barely communicate (the ladder degenerates into
/// independent runs — exactly the "tempering loses to multistart"
/// failure mode), above it adjacent rungs are so close that replicas
/// are redundant.
const SWAP_RATE_LOW: f64 = 0.20;
const SWAP_RATE_HIGH: f64 = 0.40;
/// Exchange attempts below this make the rate statistically mute.
const SWAP_MIN_SAMPLE: u64 = 10;
/// Scaled temperature (`T / S_T`) above which the Metropolis exchange
/// rule accepts nearly everything regardless of rung spacing (the
/// paper's first Table-1 breakpoint, where annealing itself accepts
/// freely). The adaptive controller counts these free accepts — they
/// widen the young ladder toward its cold-regime equilibrium — so the
/// band verdict counts them too; the per-pair hot tally is reported
/// alongside so a rate carried entirely by free exchanges stays
/// visible. Shared with the orchestrator via `twmc_anneal`.
const SWAP_HOT_SCALED_T: f64 = twmc_anneal::SWAP_HOT_SCALED_T;

/// Checks the replica-exchange acceptance rate of a tempering run, one
/// verdict per adjacent rung pair. Judging only the aggregate would
/// false-pass a ladder with one hot pair at ~90% and one frozen pair at
/// ~0% (they average into the band), so every pair is held to the band
/// separately and the verdict names the offending pair. The rate is
/// taken over *all* of a pair's attempts — the same population the
/// adaptive gap controller steers toward [`twmc_anneal::SWAP_TARGET`]
/// — so the check verifies the controller actually converged rather
/// than measuring a quantity nothing controls. Non-tempering runs (no
/// swap events, strategy != tempering) produce no finding at all.
fn check_swaps(stream: &RunStream) -> Vec<Finding> {
    let tempering = stream
        .start
        .as_ref()
        .is_some_and(|s| s.strategy == "tempering");
    if !tempering && stream.swaps.is_empty() {
        return Vec::new();
    }
    if stream.swaps.is_empty() {
        return vec![finding(
            "tempering.swap_rate",
            Severity::Warn,
            "tempering run recorded no replica-exchange attempts (swap_interval longer \
             than the run, or a single rung?)"
                .to_owned(),
        )];
    }
    // Tally per adjacent pair; `hot` counts free-accept-regime attempts
    // (reported as evidence, still judged).
    #[derive(Default)]
    struct Tally {
        attempts: u64,
        accepts: u64,
        hot: u64,
    }
    let mut pairs: std::collections::BTreeMap<(u64, u64), Tally> =
        std::collections::BTreeMap::new();
    for s in &stream.swaps {
        let tally = pairs.entry((s.lower, s.upper)).or_default();
        tally.attempts += 1;
        if s.accepted {
            tally.accepts += 1;
        }
        if s.s_t > 0.0 && s.t_upper / s.s_t >= SWAP_HOT_SCALED_T {
            tally.hot += 1;
        }
    }
    let mut findings = Vec::new();
    for ((lower, upper), tally) in &pairs {
        let hot_note = if tally.hot > 0 {
            format!(
                " ({} in the hot free-accept regime, T/S_T ≥ {SWAP_HOT_SCALED_T:.0})",
                tally.hot
            )
        } else {
            String::new()
        };
        if tally.hot == tally.attempts {
            findings.push(finding(
                "tempering.swap_rate",
                Severity::Warn,
                format!(
                    "pair {lower}-{upper}: all {} exchanges in the hot free-swap regime \
                     (T/S_T ≥ {SWAP_HOT_SCALED_T:.0}) — the pair never reached the \
                     cold regime; rate not meaningful",
                    tally.attempts
                ),
            ));
            continue;
        }
        let rate = tally.accepts as f64 / tally.attempts as f64;
        let evidence = format!(
            "pair {lower}-{upper}: {}/{} exchanges accepted ({:.0}%){hot_note}",
            tally.accepts,
            tally.attempts,
            rate * 100.0
        );
        findings.push(if tally.attempts < SWAP_MIN_SAMPLE {
            finding(
                "tempering.swap_rate",
                Severity::Warn,
                format!("{evidence}; fewer than {SWAP_MIN_SAMPLE} attempts — rate not meaningful"),
            )
        } else if rate < SWAP_RATE_LOW {
            finding(
                "tempering.swap_rate",
                Severity::Warn,
                format!(
                    "{evidence}; below the ~{:.0}-{:.0}% band — rungs too far apart, replicas \
                     barely exchange (the adaptive gap should pull them together; check \
                     swap_interval and round count)",
                    SWAP_RATE_LOW * 100.0,
                    SWAP_RATE_HIGH * 100.0
                ),
            )
        } else if rate > SWAP_RATE_HIGH {
            finding(
                "tempering.swap_rate",
                Severity::Warn,
                format!(
                    "{evidence}; above the ~{:.0}-{:.0}% band — rungs too close together, \
                     replicas are redundant (the adaptive gap should push them apart; check \
                     the gap ceiling)",
                    SWAP_RATE_LOW * 100.0,
                    SWAP_RATE_HIGH * 100.0
                ),
            )
        } else {
            finding(
                "tempering.swap_rate",
                Severity::Pass,
                format!(
                    "{evidence}; inside the healthy ~{:.0}-{:.0}% band",
                    SWAP_RATE_LOW * 100.0,
                    SWAP_RATE_HIGH * 100.0
                ),
            )
        });
    }
    findings
}

fn check_routes(stream: &RunStream) -> Vec<Finding> {
    if stream.routes.is_empty() {
        return vec![finding(
            "route.overflow",
            Severity::Warn,
            "no route_iter events recorded (pre-telemetry stream?)".to_owned(),
        )];
    }
    let mut findings = Vec::new();
    // The phase-2 interchange only ever accepts dX <= 0 moves, so the
    // selected overflow can never exceed the shortest-route overflow.
    match stream.routes.iter().find(|r| r.overflow > r.overflow_start) {
        Some(r) => findings.push(finding(
            "route.overflow",
            Severity::Fail,
            format!(
                "{}[{}]: selected overflow {} exceeds shortest-route overflow {} \
                 (phase-2 accept rule violated)",
                r.phase, r.iteration, r.overflow, r.overflow_start
            ),
        )),
        None => {
            let improved: i64 = stream
                .routes
                .iter()
                .map(|r| r.overflow_start - r.overflow)
                .sum();
            findings.push(finding(
                "route.overflow",
                Severity::Pass,
                format!(
                    "{} routing execution(s); selection never exceeded the shortest-route \
                     overflow (removed {improved} overflow in total)",
                    stream.routes.len()
                ),
            ));
        }
    }
    let last = stream.routes.last().expect("nonempty");
    let overfull = last.util_hist.get(4).copied().unwrap_or(0);
    if last.overflow > 0 || last.unrouted > 0 || overfull > 0 {
        findings.push(finding(
            "route.final",
            Severity::Warn,
            format!(
                "final routing ({}[{}]) leaves overflow {}, {} unrouted net(s), \
                 {overfull} overfull edge(s)",
                last.phase, last.iteration, last.overflow, last.unrouted
            ),
        ));
    } else {
        findings.push(finding(
            "route.final",
            Severity::Pass,
            format!(
                "final routing ({}[{}]): {} nets, length {}, zero overflow, no overfull edges",
                last.phase, last.iteration, last.nets, last.total_length
            ),
        ));
    }
    findings
}

/// Renders a report as the head of `twmc report RUN.jsonl`: the
/// findings and their verdict, then the headline metrics.
pub fn format_report(report: &HealthReport) -> String {
    let mut out = format_findings(&report.findings);
    let m = &report.metrics;
    out.push_str(&format!(
        "metrics: TEIL {:.0}  area {}  routed {}  overflow {}  unrouted {}  \
         ({} temp steps, {} routings, {:.2}s)\n",
        m.teil,
        m.chip_area,
        m.routed_length,
        m.overflow,
        m.unrouted,
        m.temp_steps,
        m.route_iters,
        m.wall_us as f64 / 1e6
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_stream;
    use crate::testgen::{pathological_stream, synth_stream, SynthSpec};

    #[test]
    fn healthy_synthetic_run_passes_all_checks() {
        let jsonl = synth_stream(&SynthSpec::default());
        let stream = parse_stream(&jsonl).unwrap();
        let report = analyze(&stream);
        assert!(report.healthy(), "{}", format_report(&report));
        // The synthetic schedule traverses all four Table-1 regions.
        let sched = report
            .findings
            .iter()
            .find(|f| f.check == "schedule.table1")
            .unwrap();
        assert_eq!(sched.severity, Severity::Pass, "{}", sched.detail);
        assert!(sched.detail.contains("0.85 -> 0.92 -> 0.85 -> 0.8"));
        let text = format_report(&report);
        assert!(text.contains("verdict: pass\nmetrics: TEIL"), "{text}");
    }

    #[test]
    fn pathological_schedule_is_flagged_unhealthy() {
        let jsonl = pathological_stream();
        let stream = parse_stream(&jsonl).unwrap();
        let report = analyze(&stream);
        assert!(!report.healthy(), "{}", format_report(&report));
        let sched = report
            .findings
            .iter()
            .find(|f| f.check == "schedule.table1")
            .unwrap();
        assert_eq!(sched.severity, Severity::Fail, "{}", sched.detail);
        assert!(format_report(&report).contains("verdict: FAIL"));
    }

    /// A minimal tempering stream with the given exchange tallies.
    fn tempering_stream(attempts: u64, accepts: u64) -> RunStream {
        let mut jsonl = String::from(
            "{\"kind\":\"run_start\",\"seed\":7,\"cells\":4,\"nets\":8,\"pins\":20,\
             \"replicas\":3,\"strategy\":\"tempering\"}\n",
        );
        for i in 0..attempts {
            jsonl.push_str(&format!(
                "{{\"kind\":\"swap\",\"round\":{i},\"lower\":0,\"upper\":1,\
                 \"t_lower\":2.0,\"t_upper\":1.0,\"s_t\":1.0,\"accepted\":{}}}\n",
                i < accepts
            ));
        }
        jsonl.push_str(
            "{\"kind\":\"run_end\",\"teil\":430.0,\"chip_width\":60,\"chip_height\":50,\
             \"routed_length\":118,\"wall_us\":12345}\n",
        );
        parse_stream(&jsonl).unwrap()
    }

    fn swap_finding(stream: &RunStream) -> Option<Finding> {
        analyze(stream)
            .findings
            .into_iter()
            .find(|f| f.check == "tempering.swap_rate")
    }

    #[test]
    fn swap_rate_inside_band_passes() {
        let f = swap_finding(&tempering_stream(40, 12)).unwrap(); // 30%
        assert_eq!(f.severity, Severity::Pass, "{}", f.detail);
        assert!(f.detail.contains("12/40"), "{}", f.detail);
    }

    #[test]
    fn swap_rate_outside_band_warns_with_direction() {
        let low = swap_finding(&tempering_stream(40, 2)).unwrap(); // 5%
        assert_eq!(low.severity, Severity::Warn, "{}", low.detail);
        assert!(low.detail.contains("too far apart"), "{}", low.detail);

        let high = swap_finding(&tempering_stream(40, 36)).unwrap(); // 90%
        assert_eq!(high.severity, Severity::Warn, "{}", high.detail);
        assert!(high.detail.contains("too close"), "{}", high.detail);
    }

    /// Builds a tempering stream with one swap line per `(lower, t_upper,
    /// accepted)` tuple (upper = lower + 1, s_t = 1).
    fn tempering_pairs_stream(swaps: &[(u64, f64, bool)]) -> RunStream {
        let mut jsonl = String::from(
            "{\"kind\":\"run_start\",\"seed\":7,\"cells\":4,\"nets\":8,\"pins\":20,\
             \"replicas\":3,\"strategy\":\"tempering\"}\n",
        );
        for (i, (lower, t_upper, accepted)) in swaps.iter().enumerate() {
            jsonl.push_str(&format!(
                "{{\"kind\":\"swap\",\"round\":{i},\"lower\":{lower},\"upper\":{},\
                 \"t_lower\":{},\"t_upper\":{t_upper},\"s_t\":1.0,\"accepted\":{accepted}}}\n",
                lower + 1,
                t_upper * 2.0,
            ));
        }
        jsonl.push_str(
            "{\"kind\":\"run_end\",\"teil\":430.0,\"chip_width\":60,\"chip_height\":50,\
             \"routed_length\":118,\"wall_us\":12345}\n",
        );
        parse_stream(&jsonl).unwrap()
    }

    #[test]
    fn per_pair_rates_catch_a_false_pass_average() {
        // One pair at 90%, one at 0%: the aggregate (45%…) used to be the
        // only verdict, and mixes like 90/0 can average into the band.
        // Per-pair judgment must warn on both and pass neither.
        let mut swaps = Vec::new();
        for i in 0..20 {
            swaps.push((0, 100.0, i < 18)); // pair 0-1: 18/20 = 90%
            swaps.push((1, 10.0, false)); // pair 1-2: 0/20 = 0%
        }
        let fs: Vec<Finding> = analyze(&tempering_pairs_stream(&swaps))
            .findings
            .into_iter()
            .filter(|f| f.check == "tempering.swap_rate")
            .collect();
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.severity == Severity::Warn), "{fs:?}");
        let hot = fs.iter().find(|f| f.detail.contains("pair 0-1")).unwrap();
        assert!(hot.detail.contains("too close"), "{}", hot.detail);
        let frozen = fs.iter().find(|f| f.detail.contains("pair 1-2")).unwrap();
        assert!(frozen.detail.contains("too far apart"), "{}", frozen.detail);
    }

    #[test]
    fn hot_regime_attempts_count_toward_the_band_and_are_annotated() {
        // 6 free accepts while the colder rung is still above T/S_T =
        // 7000 plus 24 cold attempts at 1/8: the adaptive controller
        // steers the rate over ALL attempts, so the verdict judges the
        // same population — 9/30 = 30%, in band — and the evidence
        // names the hot count so a rate carried by free exchanges
        // stays visible.
        let mut swaps = Vec::new();
        for _ in 0..6 {
            swaps.push((0, 50_000.0, true));
        }
        for i in 0..24 {
            swaps.push((0, 10.0, i % 8 == 0));
        }
        let f = swap_finding(&tempering_pairs_stream(&swaps)).unwrap();
        assert_eq!(f.severity, Severity::Pass, "{}", f.detail);
        assert!(f.detail.contains("9/30"), "{}", f.detail);
        assert!(
            f.detail.contains("6 in the hot free-accept regime"),
            "{}",
            f.detail
        );
        // All attempts hot: the pair never saw the cold regime, so the
        // rate says nothing about its final spacing — warn, not pass.
        let all_hot =
            swap_finding(&tempering_pairs_stream(&vec![(0, 50_000.0, true); 15])).unwrap();
        assert_eq!(all_hot.severity, Severity::Warn, "{}", all_hot.detail);
        assert!(
            all_hot.detail.contains("not meaningful"),
            "{}",
            all_hot.detail
        );
    }

    #[test]
    fn swap_rate_small_samples_and_silent_runs() {
        // Tempering with no exchanges at all: warn.
        let none = swap_finding(&tempering_stream(0, 0)).unwrap();
        assert_eq!(none.severity, Severity::Warn, "{}", none.detail);
        assert!(
            none.detail.contains("no replica-exchange"),
            "{}",
            none.detail
        );
        // A handful of attempts: warn, rate not meaningful.
        let few = swap_finding(&tempering_stream(4, 2)).unwrap();
        assert_eq!(few.severity, Severity::Warn, "{}", few.detail);
        assert!(few.detail.contains("not meaningful"), "{}", few.detail);
        // Non-tempering runs produce no finding.
        let jsonl = synth_stream(&SynthSpec::default());
        let stream = parse_stream(&jsonl).unwrap();
        assert!(swap_finding(&stream).is_none());
    }

    #[test]
    fn overflow_violation_fails_route_check() {
        let spec = SynthSpec {
            route_overflow_violation: true,
            ..SynthSpec::default()
        };
        let stream = parse_stream(&synth_stream(&spec)).unwrap();
        let report = analyze(&stream);
        let route = report
            .findings
            .iter()
            .find(|f| f.check == "route.overflow")
            .unwrap();
        assert_eq!(route.severity, Severity::Fail, "{}", route.detail);
    }

    #[test]
    fn interrupted_stream_closes_the_envelope_without_run_end() {
        let jsonl = concat!(
            "{\"kind\":\"run_start\",\"seed\":7,\"cells\":4,\"nets\":8,\"pins\":20,",
            "\"replicas\":1,\"strategy\":\"single\"}\n",
            "{\"kind\":\"run_interrupted\",\"reason\":\"signal\",\"stage\":\"stage1\",",
            "\"teil\":512.0,\"cost\":600.0,\"wall_us\":4200}\n",
        );
        let stream = parse_stream(jsonl).unwrap();
        let report = analyze(&stream);
        let env = report
            .findings
            .iter()
            .find(|f| f.check == "run.envelope")
            .unwrap();
        assert_eq!(env.severity, Severity::Pass, "{}", env.detail);
        assert!(
            env.detail.contains("interrupted (signal) in stage1"),
            "{}",
            env.detail
        );
        assert_eq!(report.metrics.teil, 512.0);
        assert_eq!(report.metrics.wall_us, 4200);
    }

    #[test]
    fn a_closed_stream_must_carry_the_pipeline_kinds() {
        let full = synth_stream(&SynthSpec::default());
        // The envelope finding once the lines of `dropped` kinds are gone.
        let envelope = |dropped: &[&str]| {
            let keep = |l: &&str| !dropped.iter().any(|k| l.contains(k));
            let kept: String = full.split_inclusive('\n').filter(keep).collect();
            let mut findings = analyze(&parse_stream(&kept).unwrap()).findings;
            let env = findings.remove(0);
            assert_eq!(env.check, "run.envelope");
            (env.severity, env.detail)
        };
        assert_eq!(envelope(&[]).0, Severity::Pass);
        let (severity, detail) = envelope(&["stage_span"]);
        assert_eq!(severity, Severity::Warn);
        assert!(
            detail.ends_with(", but the stream holds no stage_span event"),
            "{detail}"
        );
        let (_, detail) = envelope(&["stage_span", "place_temp"]);
        assert!(
            detail.ends_with("holds no place_temp or stage_span event"),
            "{detail}"
        );
    }

    #[test]
    fn resumed_stream_passes_the_fault_resume_check() {
        let jsonl = concat!(
            "{\"kind\":\"run_start\",\"seed\":7,\"cells\":4,\"nets\":8,\"pins\":20,",
            "\"replicas\":1,\"strategy\":\"single\"}\n",
            "{\"kind\":\"run_interrupted\",\"reason\":\"preempted\",\"stage\":\"stage1\",",
            "\"teil\":512.0,\"cost\":600.0,\"wall_us\":4200}\n",
            "{\"kind\":\"run_interrupted\",\"reason\":\"preempted\",\"stage\":\"stage1\",",
            "\"teil\":500.0,\"cost\":590.0,\"wall_us\":5200}\n",
            "{\"kind\":\"run_end\",\"teil\":430.0,\"chip_width\":60,\"chip_height\":50,",
            "\"routed_length\":118,\"wall_us\":12345}\n",
        );
        let stream = parse_stream(jsonl).unwrap();
        assert!(stream.trailing_after_interrupt);
        let report = analyze(&stream);
        let resume = report
            .findings
            .iter()
            .find(|f| f.check == "fault.resume")
            .unwrap();
        assert_eq!(resume.severity, Severity::Pass, "{}", resume.detail);
        assert!(
            resume.detail.contains("2 interruption(s)"),
            "{}",
            resume.detail
        );
    }

    #[test]
    fn pending_resume_warns_on_the_fault_resume_check() {
        let jsonl = concat!(
            "{\"kind\":\"run_start\",\"seed\":7,\"cells\":4,\"nets\":8,\"pins\":20,",
            "\"replicas\":1,\"strategy\":\"single\"}\n",
            "{\"kind\":\"run_interrupted\",\"reason\":\"signal\",\"stage\":\"stage1\",",
            "\"teil\":512.0,\"cost\":600.0,\"wall_us\":4200}\n",
        );
        let stream = parse_stream(jsonl).unwrap();
        assert!(!stream.trailing_after_interrupt);
        let report = analyze(&stream);
        let resume = report
            .findings
            .iter()
            .find(|f| f.check == "fault.resume")
            .unwrap();
        assert_eq!(resume.severity, Severity::Warn, "{}", resume.detail);
        assert!(
            resume.detail.contains("pending resume"),
            "{}",
            resume.detail
        );
        // Pending-resume is informational; the report stays healthy.
        assert!(report.healthy(), "{}", format_report(&report));
        // An uninterrupted run has no fault.resume finding at all.
        let clean = parse_stream(&synth_stream(&SynthSpec::default())).unwrap();
        assert!(!analyze(&clean)
            .findings
            .iter()
            .any(|f| f.check == "fault.resume"));
    }

    #[test]
    fn lost_replicas_warn_without_failing_the_run() {
        let jsonl = concat!(
            "{\"kind\":\"run_start\",\"seed\":7,\"cells\":4,\"nets\":8,\"pins\":20,",
            "\"replicas\":3,\"strategy\":\"multistart\"}\n",
            "{\"kind\":\"replica_failed\",\"phase\":\"multistart\",\"replica\":2,",
            "\"round\":9,\"error\":\"panic: boom\"}\n",
            "{\"kind\":\"run_end\",\"teil\":430.0,\"chip_width\":60,\"chip_height\":50,",
            "\"routed_length\":118,\"wall_us\":12345}\n",
        );
        let stream = parse_stream(jsonl).unwrap();
        let report = analyze(&stream);
        let deg = report
            .findings
            .iter()
            .find(|f| f.check == "replicas.degraded")
            .unwrap();
        assert_eq!(deg.severity, Severity::Warn, "{}", deg.detail);
        assert!(deg.detail.contains("replica 2"), "{}", deg.detail);
        // Degradation is a warning, never an unhealthy verdict by itself.
        assert!(report.healthy(), "{}", format_report(&report));
    }

    #[test]
    fn report_serializes_to_json() {
        let stream = parse_stream(&synth_stream(&SynthSpec::default())).unwrap();
        let report = analyze(&stream);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"findings\""), "{json}");
        assert!(json.contains("\"Pass\""), "{json}");
        // The JSON itself must parse back through the obs parser.
        twmc_obs::validate::parse_json(&json).unwrap();
    }
}
