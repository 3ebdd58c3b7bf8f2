//! The event schema: everything the pipeline can report, as plain
//! structs with a stable JSON shape.
//!
//! Every event serializes to a JSON object whose first key is `"kind"`
//! (the snake_case tag listed in [`EVENT_KINDS`]) followed by the
//! payload fields. The schema is append-only by convention: consumers
//! must tolerate unknown keys, producers must not rename existing ones.

use serde::{Serialize, Value};

/// Identification of which annealing run a [`PlaceTemp`] stream belongs
/// to — stage 1, a stage-2 refinement iteration, a tempering rung, …
///
/// Threaded (by value) through the placement annealing entry points so
/// one shared loop can label its stream correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScope {
    /// Pipeline phase: `"stage1"`, `"stage2"`, `"tempering"`, `"quench"`.
    pub phase: &'static str,
    /// Refinement iteration (stage 2) or round base (tempering); 0 otherwise.
    pub iteration: u64,
    /// Replica or rung index; -1 for single-replica runs.
    pub replica: i64,
}

impl RunScope {
    /// The plain stage-1 scope.
    pub const STAGE1: RunScope = RunScope {
        phase: "stage1",
        iteration: 0,
        replica: -1,
    };

    /// Scope of stage-2 refinement iteration `k`.
    pub fn stage2(k: usize) -> RunScope {
        RunScope {
            phase: "stage2",
            iteration: k as u64,
            replica: -1,
        }
    }

    /// Same scope tagged with a replica index.
    pub fn with_replica(self, replica: usize) -> RunScope {
        RunScope {
            replica: replica as i64,
            ..self
        }
    }
}

impl Default for RunScope {
    fn default() -> Self {
        RunScope::STAGE1
    }
}

/// Start of a pipeline run: the circuit and orchestration shape.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunStart {
    /// Master RNG seed.
    pub seed: u64,
    /// Cell count.
    pub cells: usize,
    /// Net count.
    pub nets: usize,
    /// Pin count.
    pub pins: usize,
    /// Stage-1 replica count (1 = classic single run).
    pub replicas: usize,
    /// Orchestration strategy (`"multistart"`, `"tempering"`, `"single"`).
    pub strategy: &'static str,
}

/// The placement cost decomposition (paper eqs. 6–11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostBreakdown {
    /// Total cost `C = C₁ + p₂·C₂ + C₃`.
    pub total: f64,
    /// `C₁`, the TEIC (eq. 6).
    pub c1: f64,
    /// Raw overlap area (the eq. 7 sum before `p₂`).
    pub overlap: i64,
    /// Weighted overlap penalty `p₂·C₂`.
    pub overlap_penalty: f64,
    /// `C₃`, the pin-site penalty (eq. 11).
    pub c3: f64,
}

/// Attempt/accept counters of one move class over one inner loop.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassCount {
    /// Move class name (`"displacements"`, `"interchanges"`, …).
    pub class: &'static str,
    /// Attempts this step.
    pub attempts: usize,
    /// Acceptances this step.
    pub accepts: usize,
}

/// One temperature step of a placement annealing run: the full
/// controller state the paper's §3.3 feedback mechanisms act on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlaceTemp {
    /// Pipeline phase (see [`RunScope::phase`]).
    pub phase: &'static str,
    /// Refinement iteration / round base from the scope.
    pub iteration: u64,
    /// Replica or rung index; -1 for single-replica runs.
    pub replica: i64,
    /// Temperature step index within this run (0-based).
    pub step: usize,
    /// Temperature of the inner loop.
    pub temperature: f64,
    /// Temperature scale factor `S_T` (eq. 20).
    pub s_t: f64,
    /// Range-limiter window span `W_x(T)` (eq. 12).
    pub window_x: f64,
    /// Range-limiter window span `W_y(T)` (eq. 13).
    pub window_y: f64,
    /// Inner-loop length `A = A_c · N_c` (eq. 17).
    pub inner: usize,
    /// Move attempts this step (cascade retries included).
    pub attempts: usize,
    /// Moves accepted this step.
    pub accepts: usize,
    /// Cost decomposition after the inner loop.
    pub cost: CostBreakdown,
    /// TEIL after the inner loop.
    pub teil: f64,
    /// Cumulative full spatial-index rebuilds on this state.
    pub index_rebuilds: u64,
    /// Cumulative incremental spatial-index updates on this state.
    pub index_updates: u64,
    /// Per-move-class attempt/accept counts for this step.
    pub classes: Vec<ClassCount>,
}

/// Wall-clock span of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageSpan {
    /// Stage name: `"stage1"`, `"channel_definition"`, `"global_routing"`,
    /// `"refine_anneal"`, `"final_routing"`, `"finalize"`.
    pub stage: &'static str,
    /// Refinement iteration the stage belongs to (0 outside stage 2).
    pub iteration: u64,
    /// Wall-clock duration in microseconds.
    pub wall_us: u64,
}

/// Final statistics of one finished replica (multi-start) or rung
/// (tempering).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplicaSummary {
    /// Orchestration phase (`"multistart"` or `"tempering"`).
    pub phase: &'static str,
    /// Replica / rung index.
    pub replica: usize,
    /// Derived RNG seed the replica's stream started from.
    pub seed: u64,
    /// Pinned rung temperature (tempering only).
    pub rung_temperature: Option<f64>,
    /// Final TEIL (before any shared quench).
    pub teil: f64,
    /// Final total cost.
    pub cost: f64,
    /// Move attempts made.
    pub attempts: usize,
    /// Moves accepted.
    pub accepts: usize,
}

/// One replica-exchange attempt between adjacent tempering rungs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Swap {
    /// Round the sweep ran after (0-based).
    pub round: u64,
    /// Hotter rung index.
    pub lower: usize,
    /// Colder rung index (`lower + 1`).
    pub upper: usize,
    /// Temperature of the hotter rung.
    pub t_lower: f64,
    /// Temperature of the colder rung.
    pub t_upper: f64,
    /// Temperature scale factor `S_T`, so analyzers can place the pair
    /// on the paper's scaled-temperature axis (`T / S_T`) and separate
    /// hot-regime free swaps from the controlled middle regime.
    pub s_t: f64,
    /// Whether the Metropolis exchange rule accepted the swap.
    pub accepted: bool,
}

/// One global-routing execution (stage-2 refinement iteration, the
/// closing route of stage 2, or a finalize pass): the phase-2 route
/// selection's health signals (paper §4.2.2).
///
/// `overflow` is the residual capacity overflow `X = Σ max(0, D_j − C_j)`
/// (eq. 24) after the random-interchange selection; `overflow_start` is
/// the same sum with every net on its shortest route, so
/// `overflow ≤ overflow_start` always (the interchange never accepts a
/// `ΔX > 0` move). `util_hist` buckets every channel edge by its
/// utilization `D_j / C_j`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RouteIter {
    /// Routing phase: `"stage2"`, `"final"`, `"finalize"`.
    pub phase: &'static str,
    /// Refinement iteration the route belongs to (0 outside stage 2).
    pub iteration: u64,
    /// Nets presented to the router.
    pub nets: usize,
    /// Nets the router could not route.
    pub unrouted: usize,
    /// Total phase-1 alternatives enumerated (Σ per-net `M`).
    pub alts_total: usize,
    /// Largest per-net alternative count (≤ the configured `M`).
    pub alts_max: usize,
    /// Overflow `X` with every net on its shortest route (interchange
    /// starting point).
    pub overflow_start: i64,
    /// Residual overflow `X` after route selection (eq. 24).
    pub overflow: i64,
    /// Total routed length `L` (eq. 23).
    pub total_length: i64,
    /// Interchange (rip-up) attempts performed by phase 2.
    pub attempts: usize,
    /// Accepted reassignments (nets actually ripped up and re-routed).
    pub reassignments: usize,
    /// Σ of per-edge usages `D_j` — equals the summed edge counts of the
    /// chosen route trees.
    pub usage_total: u64,
    /// Channel-edge utilization histogram: edges with `D_j = 0`,
    /// `0 < D/C ≤ ½`, `½ < D/C ≤ 9/10`, `9/10 < D/C ≤ 1`, `D/C > 1`.
    pub util_hist: [u64; 5],
}

/// A replica whose worker panicked; the orchestrator degraded instead
/// of aborting (the replica is dropped from best-of selection and, in
/// tempering, from swap pairing).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplicaFailed {
    /// Orchestration phase (`"multistart"` or `"tempering"`).
    pub phase: &'static str,
    /// Replica / rung index that failed.
    pub replica: usize,
    /// Temperature round the failure surfaced in.
    pub round: u64,
    /// Panic payload (or a placeholder when it was not a string).
    pub error: String,
}

/// A run cut short by a signal or a budget: best-so-far results at the
/// interruption point. Unlike [`RunEnd`], the stream may legally stop
/// right after this event (the continuation lives in a checkpoint).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunInterrupted {
    /// Why the run stopped: `"signal"`, `"wall_clock"`, `"move_budget"`.
    pub reason: &'static str,
    /// Pipeline stage the interrupt landed in (`"stage1"`, `"stage2"`).
    pub stage: &'static str,
    /// Best-so-far TEIL at the interruption point.
    pub teil: f64,
    /// Best-so-far total cost at the interruption point.
    pub cost: f64,
    /// Wall-clock microseconds spent before stopping.
    pub wall_us: u64,
}

/// End of a pipeline run: the headline results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunEnd {
    /// Final total estimated interconnect length.
    pub teil: f64,
    /// Final chip width.
    pub chip_width: i64,
    /// Final chip height.
    pub chip_height: i64,
    /// Final globally-routed total length.
    pub routed_length: i64,
    /// Wall-clock duration of the whole run in microseconds.
    pub wall_us: u64,
}

/// A telemetry event: the tagged union of everything the pipeline emits.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Run header.
    RunStart(RunStart),
    /// Placement temperature step.
    PlaceTemp(PlaceTemp),
    /// Pipeline stage wall-clock span.
    StageSpan(StageSpan),
    /// Global-routing execution record.
    RouteIter(RouteIter),
    /// Finished replica statistics.
    ReplicaSummary(ReplicaSummary),
    /// Replica-exchange attempt.
    Swap(Swap),
    /// Panicked replica, degraded around.
    ReplicaFailed(ReplicaFailed),
    /// Interrupted-run footer (checkpointed continuation).
    RunInterrupted(RunInterrupted),
    /// Run footer.
    RunEnd(RunEnd),
}

/// Every `kind` tag an event stream may contain, in schema order.
pub const EVENT_KINDS: [&str; 9] = [
    "run_start",
    "place_temp",
    "stage_span",
    "route_iter",
    "replica_summary",
    "swap",
    "replica_failed",
    "run_interrupted",
    "run_end",
];

impl Event {
    /// The event's `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart(_) => "run_start",
            Event::PlaceTemp(_) => "place_temp",
            Event::StageSpan(_) => "stage_span",
            Event::RouteIter(_) => "route_iter",
            Event::ReplicaSummary(_) => "replica_summary",
            Event::Swap(_) => "swap",
            Event::ReplicaFailed(_) => "replica_failed",
            Event::RunInterrupted(_) => "run_interrupted",
            Event::RunEnd(_) => "run_end",
        }
    }
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let payload = match self {
            Event::RunStart(p) => p.to_value(),
            Event::PlaceTemp(p) => p.to_value(),
            Event::StageSpan(p) => p.to_value(),
            Event::RouteIter(p) => p.to_value(),
            Event::ReplicaSummary(p) => p.to_value(),
            Event::Swap(p) => p.to_value(),
            Event::ReplicaFailed(p) => p.to_value(),
            Event::RunInterrupted(p) => p.to_value(),
            Event::RunEnd(p) => p.to_value(),
        };
        match payload {
            Value::Object(mut entries) => {
                entries.insert(0, ("kind".to_owned(), Value::Str(self.kind().to_owned())));
                Value::Object(entries)
            }
            other => Value::Object(vec![
                ("kind".to_owned(), Value::Str(self.kind().to_owned())),
                ("payload".to_owned(), other),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tag_leads_the_object() {
        let ev = Event::StageSpan(StageSpan {
            stage: "stage1",
            iteration: 0,
            wall_us: 10,
        });
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.starts_with("{\"kind\":\"stage_span\""), "{json}");
        assert!(json.contains("\"wall_us\":10"), "{json}");
    }

    #[test]
    fn kinds_cover_every_variant() {
        let events = [
            Event::RunStart(RunStart {
                seed: 1,
                cells: 2,
                nets: 3,
                pins: 4,
                replicas: 1,
                strategy: "single",
            }),
            Event::PlaceTemp(PlaceTemp {
                phase: "stage1",
                iteration: 0,
                replica: -1,
                step: 0,
                temperature: 1.0,
                s_t: 1.0,
                window_x: 1.0,
                window_y: 1.0,
                inner: 10,
                attempts: 10,
                accepts: 5,
                cost: CostBreakdown {
                    total: 3.0,
                    c1: 1.0,
                    overlap: 1,
                    overlap_penalty: 1.0,
                    c3: 1.0,
                },
                teil: 1.0,
                index_rebuilds: 0,
                index_updates: 0,
                classes: vec![],
            }),
            Event::StageSpan(StageSpan {
                stage: "stage1",
                iteration: 0,
                wall_us: 1,
            }),
            Event::RouteIter(RouteIter {
                phase: "stage2",
                iteration: 0,
                nets: 4,
                unrouted: 0,
                alts_total: 16,
                alts_max: 6,
                overflow_start: 2,
                overflow: 0,
                total_length: 100,
                attempts: 5,
                reassignments: 2,
                usage_total: 12,
                util_hist: [3, 2, 1, 0, 0],
            }),
            Event::ReplicaSummary(ReplicaSummary {
                phase: "multistart",
                replica: 0,
                seed: 1,
                rung_temperature: None,
                teil: 1.0,
                cost: 1.0,
                attempts: 1,
                accepts: 1,
            }),
            Event::Swap(Swap {
                round: 0,
                lower: 0,
                upper: 1,
                t_lower: 2.0,
                t_upper: 1.0,
                s_t: 1.0,
                accepted: true,
            }),
            Event::ReplicaFailed(ReplicaFailed {
                phase: "multistart",
                replica: 1,
                round: 3,
                error: "boom".to_owned(),
            }),
            Event::RunInterrupted(RunInterrupted {
                reason: "signal",
                stage: "stage1",
                teil: 1.0,
                cost: 2.0,
                wall_us: 5,
            }),
            Event::RunEnd(RunEnd {
                teil: 1.0,
                chip_width: 1,
                chip_height: 1,
                routed_length: 1,
                wall_us: 1,
            }),
        ];
        let mut seen: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        seen.sort_unstable();
        let mut expect = EVENT_KINDS.to_vec();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn scope_constructors() {
        assert_eq!(RunScope::STAGE1.phase, "stage1");
        assert_eq!(RunScope::STAGE1.replica, -1);
        let s = RunScope::stage2(2).with_replica(3);
        assert_eq!(s.phase, "stage2");
        assert_eq!(s.iteration, 2);
        assert_eq!(s.replica, 3);
    }
}
