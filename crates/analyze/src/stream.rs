//! Typed extraction of a recorded JSONL telemetry stream.
//!
//! The obs crate's events carry `&'static str` tags and are
//! serialize-only, so an offline reader needs its own owned record
//! types. [`parse_stream`] first runs the obs validator (schema, run
//! envelope, per-stream temperature monotonicity — every error names
//! its line), then lifts each line into the records the health checks
//! and diff engine consume. Unknown keys and unknown-but-valid event
//! kinds are tolerated per the append-only schema convention.

use serde::Value;
use twmc_obs::validate::{parse_json, validate_jsonl, StreamStats};

/// `run_start` header fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStartRec {
    /// Master RNG seed.
    pub seed: u64,
    /// Cell count.
    pub cells: u64,
    /// Net count.
    pub nets: u64,
    /// Pin count.
    pub pins: u64,
    /// Replica count.
    pub replicas: u64,
    /// Orchestration strategy.
    pub strategy: String,
}

/// `run_end` footer fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEndRec {
    /// Final TEIL.
    pub teil: f64,
    /// Final chip width.
    pub chip_width: i64,
    /// Final chip height.
    pub chip_height: i64,
    /// Final routed length.
    pub routed_length: i64,
    /// Run wall-clock in microseconds.
    pub wall_us: u64,
}

/// Per-move-class counters from a `place_temp` event.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRec {
    /// Move-class tag (`"displacements"`, `"interchanges"`, …).
    pub class: String,
    /// Attempts this step.
    pub attempts: u64,
    /// Acceptances this step.
    pub accepts: u64,
}

/// One `place_temp` temperature step.
#[derive(Debug, Clone, PartialEq)]
pub struct TempRec {
    /// Annealing phase (`"stage1"`, `"stage2"`, `"tempering"`, …).
    pub phase: String,
    /// Scope iteration.
    pub iteration: i64,
    /// Scope replica (-1 for single-replica runs).
    pub replica: i64,
    /// Step index within the stream.
    pub step: u64,
    /// Temperature of the inner loop.
    pub temperature: f64,
    /// Temperature scale factor `S_T`.
    pub s_t: f64,
    /// Range-limiter window span `W_x(T)`.
    pub window_x: f64,
    /// Range-limiter window span `W_y(T)`.
    pub window_y: f64,
    /// Move attempts this step.
    pub attempts: u64,
    /// Moves accepted this step.
    pub accepts: u64,
    /// Total cost `C` after the inner loop.
    pub cost_total: f64,
    /// `C₁` component.
    pub c1: f64,
    /// `p₂·C₂` component.
    pub overlap_penalty: f64,
    /// `C₃` component.
    pub c3: f64,
    /// TEIL after the inner loop.
    pub teil: f64,
    /// Per-class counters.
    pub classes: Vec<ClassRec>,
}

impl TempRec {
    /// Acceptance rate of this step.
    pub fn acceptance(&self) -> f64 {
        self.accepts as f64 / (self.attempts.max(1)) as f64
    }
}

/// One `route_iter` global-routing execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRec {
    /// Routing phase (`"stage2"`, `"final"`, `"finalize"`).
    pub phase: String,
    /// Iteration within the phase.
    pub iteration: i64,
    /// Nets presented.
    pub nets: u64,
    /// Nets left unrouted.
    pub unrouted: u64,
    /// Total phase-1 alternatives enumerated.
    pub alts_total: u64,
    /// Largest per-net alternative count.
    pub alts_max: u64,
    /// Overflow with every net on its shortest route.
    pub overflow_start: i64,
    /// Residual overflow after selection (eq. 24).
    pub overflow: i64,
    /// Total routed length.
    pub total_length: i64,
    /// Interchange attempts.
    pub attempts: u64,
    /// Accepted reassignments.
    pub reassignments: u64,
    /// Σ of per-edge usages.
    pub usage_total: u64,
    /// Utilization histogram (5 buckets; see the obs schema).
    pub util_hist: Vec<u64>,
}

/// One `stage_span` wall-clock record.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Stage name.
    pub stage: String,
    /// Iteration.
    pub iteration: i64,
    /// Duration in microseconds.
    pub wall_us: u64,
}

/// One `swap` replica-exchange attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapRec {
    /// Round the sweep ran after.
    pub round: u64,
    /// Hotter rung index.
    pub lower: u64,
    /// Colder rung index (`lower + 1`).
    pub upper: u64,
    /// Temperature of the hotter rung.
    pub t_lower: f64,
    /// Temperature of the colder rung.
    pub t_upper: f64,
    /// Temperature scale factor `S_T`.
    pub s_t: f64,
    /// Whether the exchange was accepted.
    pub accepted: bool,
}

/// One `replica_failed` fault-isolation record.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaFailedRec {
    /// Orchestration phase (`"multistart"`, `"tempering"`).
    pub phase: String,
    /// Failed replica index.
    pub replica: u64,
    /// Temperature step / tempering round the fault surfaced at.
    pub round: u64,
    /// Captured panic/error message.
    pub error: String,
}

/// The `run_interrupted` footer of a checkpointed early exit.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInterruptedRec {
    /// Stop reason (`"signal"`, `"wall_clock"`, `"move_budget"`).
    pub reason: String,
    /// Pipeline stage the interrupt landed in.
    pub stage: String,
    /// Best-so-far TEIL at the cut.
    pub teil: f64,
    /// Best-so-far cost at the cut.
    pub cost: f64,
    /// Wall-clock spent before stopping, in microseconds.
    pub wall_us: u64,
}

/// A fully parsed telemetry stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStream {
    /// `run_start` header, if the stream has one.
    pub start: Option<RunStartRec>,
    /// `run_end` footer, if the stream has one.
    pub end: Option<RunEndRec>,
    /// All `place_temp` steps, in stream order.
    pub temps: Vec<TempRec>,
    /// All `route_iter` executions, in stream order.
    pub routes: Vec<RouteRec>,
    /// All `stage_span` records, in stream order.
    pub spans: Vec<SpanRec>,
    /// `swap` events seen / accepted.
    pub swap_attempts: u64,
    /// Accepted swaps.
    pub swap_accepts: u64,
    /// All `swap` exchange attempts, in stream order (per-pair rates
    /// come from these).
    pub swaps: Vec<SwapRec>,
    /// `replica_failed` fault records, in stream order.
    pub failures: Vec<ReplicaFailedRec>,
    /// `run_interrupted` footer, if the run stopped early.
    pub interrupted: Option<RunInterruptedRec>,
    /// Whether any record follows the last `run_interrupted` — true for
    /// a resumed continuation (which either reaches `run_end` or gets
    /// interrupted again, resetting this), and the tell-tale of a torn
    /// stream when no `run_end` ever arrives.
    pub trailing_after_interrupt: bool,
    /// Validator statistics (line and per-kind counts).
    pub stats: StreamStats,
}

impl RunStream {
    /// The stage-1 temperature stream of the lowest-numbered replica
    /// (the classic single run uses replica -1).
    pub fn stage1_temps(&self) -> Vec<&TempRec> {
        let replica = self
            .temps
            .iter()
            .filter(|t| t.phase == "stage1")
            .map(|t| t.replica)
            .min();
        match replica {
            Some(r) => self
                .temps
                .iter()
                .filter(|t| t.phase == "stage1" && t.replica == r)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Whether the run lost at least one replica to a fault and
    /// finished on the survivors.
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty()
    }
}

fn field<'a>(entries: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn num(entries: &[(String, Value)], name: &str) -> f64 {
    match field(entries, name) {
        Some(Value::Int(n)) => *n as f64,
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Float(f)) => *f,
        _ => 0.0,
    }
}

fn int(entries: &[(String, Value)], name: &str) -> i64 {
    num(entries, name) as i64
}

fn uint(entries: &[(String, Value)], name: &str) -> u64 {
    num(entries, name).max(0.0) as u64
}

fn text(entries: &[(String, Value)], name: &str) -> String {
    match field(entries, name) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

/// Parses and validates a JSONL telemetry stream into typed records.
///
/// Validation errors (malformed JSON, schema violations, a broken run
/// envelope, reheating within an anneal stream) are returned verbatim
/// from the obs validator, line numbers included.
pub fn parse_stream(jsonl: &str) -> Result<RunStream, String> {
    let stats = validate_jsonl(jsonl)?;
    let mut out = RunStream {
        stats,
        ..RunStream::default()
    };
    for line in jsonl.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Value::Object(entries) = parse_json(line).expect("validated above") else {
            unreachable!("validated as an object");
        };
        if out.interrupted.is_some() {
            out.trailing_after_interrupt = true;
        }
        match text(&entries, "kind").as_str() {
            "run_start" => {
                out.start = Some(RunStartRec {
                    seed: uint(&entries, "seed"),
                    cells: uint(&entries, "cells"),
                    nets: uint(&entries, "nets"),
                    pins: uint(&entries, "pins"),
                    replicas: uint(&entries, "replicas"),
                    strategy: text(&entries, "strategy"),
                });
            }
            "run_end" => {
                out.end = Some(RunEndRec {
                    teil: num(&entries, "teil"),
                    chip_width: int(&entries, "chip_width"),
                    chip_height: int(&entries, "chip_height"),
                    routed_length: int(&entries, "routed_length"),
                    wall_us: uint(&entries, "wall_us"),
                });
            }
            "place_temp" => {
                let (cost_total, c1, overlap_penalty, c3) = match field(&entries, "cost") {
                    Some(Value::Object(cost)) => (
                        num(cost, "total"),
                        num(cost, "c1"),
                        num(cost, "overlap_penalty"),
                        num(cost, "c3"),
                    ),
                    _ => (0.0, 0.0, 0.0, 0.0),
                };
                let classes = match field(&entries, "classes") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .filter_map(|item| match item {
                            Value::Object(c) => Some(ClassRec {
                                class: text(c, "class"),
                                attempts: uint(c, "attempts"),
                                accepts: uint(c, "accepts"),
                            }),
                            _ => None,
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                out.temps.push(TempRec {
                    phase: text(&entries, "phase"),
                    iteration: int(&entries, "iteration"),
                    replica: int(&entries, "replica"),
                    step: uint(&entries, "step"),
                    temperature: num(&entries, "temperature"),
                    s_t: num(&entries, "s_t"),
                    window_x: num(&entries, "window_x"),
                    window_y: num(&entries, "window_y"),
                    attempts: uint(&entries, "attempts"),
                    accepts: uint(&entries, "accepts"),
                    cost_total,
                    c1,
                    overlap_penalty,
                    c3,
                    teil: num(&entries, "teil"),
                    classes,
                });
            }
            "route_iter" => {
                let util_hist = match field(&entries, "util_hist") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|v| match v {
                            Value::Int(n) => (*n).max(0) as u64,
                            Value::UInt(n) => *n,
                            Value::Float(f) => f.max(0.0) as u64,
                            _ => 0,
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                out.routes.push(RouteRec {
                    phase: text(&entries, "phase"),
                    iteration: int(&entries, "iteration"),
                    nets: uint(&entries, "nets"),
                    unrouted: uint(&entries, "unrouted"),
                    alts_total: uint(&entries, "alts_total"),
                    alts_max: uint(&entries, "alts_max"),
                    overflow_start: int(&entries, "overflow_start"),
                    overflow: int(&entries, "overflow"),
                    total_length: int(&entries, "total_length"),
                    attempts: uint(&entries, "attempts"),
                    reassignments: uint(&entries, "reassignments"),
                    usage_total: uint(&entries, "usage_total"),
                    util_hist,
                });
            }
            "stage_span" => {
                out.spans.push(SpanRec {
                    stage: text(&entries, "stage"),
                    iteration: int(&entries, "iteration"),
                    wall_us: uint(&entries, "wall_us"),
                });
            }
            "swap" => {
                let accepted = matches!(field(&entries, "accepted"), Some(Value::Bool(true)));
                out.swap_attempts += 1;
                if accepted {
                    out.swap_accepts += 1;
                }
                out.swaps.push(SwapRec {
                    round: uint(&entries, "round"),
                    lower: uint(&entries, "lower"),
                    upper: uint(&entries, "upper"),
                    t_lower: num(&entries, "t_lower"),
                    t_upper: num(&entries, "t_upper"),
                    s_t: num(&entries, "s_t"),
                    accepted,
                });
            }
            "replica_failed" => {
                out.failures.push(ReplicaFailedRec {
                    phase: text(&entries, "phase"),
                    replica: uint(&entries, "replica"),
                    round: uint(&entries, "round"),
                    error: text(&entries, "error"),
                });
            }
            "run_interrupted" => {
                // A later interrupt starts a new resumable suffix: the
                // continuation it cuts short was itself clean.
                out.trailing_after_interrupt = false;
                out.interrupted = Some(RunInterruptedRec {
                    reason: text(&entries, "reason"),
                    stage: text(&entries, "stage"),
                    teil: num(&entries, "teil"),
                    cost: num(&entries, "cost"),
                    wall_us: uint(&entries, "wall_us"),
                });
            }
            // replica_summary carries nothing the health checks read;
            // future kinds are tolerated by construction.
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_typed_records() {
        let jsonl = concat!(
            "{\"kind\":\"run_start\",\"seed\":7,\"cells\":4,\"nets\":8,\"pins\":20,",
            "\"replicas\":1,\"strategy\":\"single\"}\n",
            "{\"kind\":\"place_temp\",\"phase\":\"stage1\",\"iteration\":0,\"replica\":-1,",
            "\"step\":0,\"temperature\":100.0,\"s_t\":1.0,\"window_x\":50.0,\"window_y\":40.0,",
            "\"inner\":10,\"attempts\":10,\"accepts\":9,",
            "\"cost\":{\"total\":500.0,\"c1\":450.0,\"overlap\":3,\"overlap_penalty\":40.0,",
            "\"c3\":10.0},\"teil\":450.0,\"index_rebuilds\":0,",
            "\"classes\":[{\"class\":\"displacements\",\"attempts\":9,\"accepts\":8}]}\n",
            "{\"kind\":\"route_iter\",\"phase\":\"stage2\",\"iteration\":0,\"nets\":8,",
            "\"unrouted\":0,\"alts_total\":20,\"alts_max\":4,\"overflow_start\":3,",
            "\"overflow\":0,\"total_length\":120,\"attempts\":16,\"reassignments\":5,",
            "\"usage_total\":30,\"util_hist\":[2,3,1,0,0]}\n",
            "{\"kind\":\"stage_span\",\"stage\":\"stage1\",\"iteration\":0,\"wall_us\":99}\n",
            "{\"kind\":\"swap\",\"round\":0,\"lower\":0,\"upper\":1,\"t_lower\":2.0,",
            "\"t_upper\":1.0,\"s_t\":1.0,\"accepted\":true}\n",
            "{\"kind\":\"run_end\",\"teil\":430.0,\"chip_width\":60,\"chip_height\":50,",
            "\"routed_length\":118,\"wall_us\":12345}\n",
        );
        let s = parse_stream(jsonl).unwrap();
        assert_eq!(s.start.as_ref().unwrap().seed, 7);
        assert_eq!(s.end.as_ref().unwrap().chip_width, 60);
        assert_eq!(s.temps.len(), 1);
        assert_eq!(s.temps[0].classes[0].class, "displacements");
        assert!((s.temps[0].acceptance() - 0.9).abs() < 1e-12);
        assert_eq!(s.routes.len(), 1);
        assert_eq!(s.routes[0].util_hist, vec![2, 3, 1, 0, 0]);
        assert_eq!(s.spans.len(), 1);
        assert_eq!((s.swap_attempts, s.swap_accepts), (1, 1));
        assert_eq!(s.swaps.len(), 1);
        assert_eq!((s.swaps[0].lower, s.swaps[0].upper), (0, 1));
        assert_eq!(s.swaps[0].s_t, 1.0);
        assert!(s.swaps[0].accepted);
        assert_eq!(s.stage1_temps().len(), 1);
    }

    #[test]
    fn propagates_validation_errors_with_lines() {
        let err = parse_stream("{\"kind\":\"bogus\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn extracts_resilience_records() {
        let jsonl = concat!(
            "{\"kind\":\"run_start\",\"seed\":7,\"cells\":4,\"nets\":8,\"pins\":20,",
            "\"replicas\":3,\"strategy\":\"multistart\"}\n",
            "{\"kind\":\"replica_failed\",\"phase\":\"multistart\",\"replica\":1,",
            "\"round\":5,\"error\":\"injected fault: replica 1 at step 5\"}\n",
            "{\"kind\":\"run_interrupted\",\"reason\":\"move_budget\",\"stage\":\"stage1\",",
            "\"teil\":512.0,\"cost\":600.0,\"wall_us\":4200}\n",
        );
        let s = parse_stream(jsonl).unwrap();
        assert!(s.degraded());
        assert_eq!(s.failures.len(), 1);
        assert_eq!(s.failures[0].replica, 1);
        assert_eq!(s.failures[0].round, 5);
        assert!(s.failures[0].error.contains("injected fault"));
        let cut = s.interrupted.as_ref().unwrap();
        assert_eq!(
            (cut.reason.as_str(), cut.stage.as_str()),
            ("move_budget", "stage1")
        );
        assert_eq!(cut.teil, 512.0);
        assert!(s.end.is_none());
    }
}
