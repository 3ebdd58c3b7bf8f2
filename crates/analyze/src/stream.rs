//! The one reader of the JSONL telemetry format.
//!
//! The obs crate's events carry `&'static str` tags and are
//! serialize-only, so the reader has its own owned record types.
//! [`parse_stream`] parses each non-empty line once and checks it while
//! it lifts the line into records: the `kind` must be known, every
//! field a record reads must be present and well-typed, the run
//! envelope must hold, and temperatures must never rise within one
//! anneal scope. Every error names its line. Unknown keys are
//! tolerated per the append-only schema convention.

use std::collections::BTreeMap;

use serde::Value;
use twmc_obs::validate::{as_u64, get, get_bool, get_f64, get_i64, get_str, get_u64, parse_json};

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
    /// Inner-loop length `A = A_c · N_c` (eq. 17).
    pub inner: u64,
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
    /// Cumulative full spatial-index rebuilds.
    pub index_rebuilds: u64,
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

/// One `replica_summary` row: a finished multi-start replica or
/// tempering rung.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSummaryRec {
    /// Orchestration phase (`"multistart"`, `"tempering"`).
    pub phase: String,
    /// Replica / rung index.
    pub replica: u64,
    /// Derived RNG seed the replica started from.
    pub seed: u64,
    /// Final TEIL (before any shared quench).
    pub teil: f64,
    /// Final total cost.
    pub cost: f64,
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

/// Line and per-kind event counts of a stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Non-empty lines read.
    pub lines: usize,
    /// Events per `kind` tag.
    pub kind_counts: BTreeMap<String, usize>,
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
    /// All `swap` exchange attempts, in stream order.
    pub swaps: Vec<SwapRec>,
    /// `replica_summary` rows, in stream order.
    pub replica_summaries: Vec<ReplicaSummaryRec>,
    /// `replica_failed` fault records, in stream order.
    pub failures: Vec<ReplicaFailedRec>,
    /// `run_interrupted` footer, if the run stopped early.
    pub interrupted: Option<RunInterruptedRec>,
    /// Whether any record follows the last `run_interrupted` — true for
    /// a resumed continuation (which either reaches `run_end` or gets
    /// interrupted again, resetting this), and the tell-tale of a torn
    /// stream when no `run_end` ever arrives.
    pub trailing_after_interrupt: bool,
    /// Line and per-kind event counts.
    pub stats: StreamStats,
}

impl RunStream {
    /// The temperature stream the stage-1 laws apply to: the `stage1`
    /// steps of the lowest-numbered replica (a single run is replica
    /// -1). A tempering run has none, so it offers its ladder's anchor,
    /// the coldest rung, which steps every round: the `tempering` rung
    /// with the most steps, ties going to the highest index (hotter
    /// rungs dwell, and a dwell reads as a cooling ratio of 1). A dead
    /// anchor steps less, so a `replica_failed` rung at or above the
    /// chosen index means the anchor was retired, and there is none.
    pub fn stage1_temps(&self) -> Vec<&TempRec> {
        let steps_of = |phase: &str, replica: i64| {
            self.temps
                .iter()
                .filter(|t| t.phase == phase && t.replica == replica)
                .collect()
        };
        let stage1 = self.temps.iter().filter(|t| t.phase == "stage1");
        if let Some(replica) = stage1.map(|t| t.replica).min() {
            return steps_of("stage1", replica);
        }
        let mut rungs: BTreeMap<i64, usize> = BTreeMap::new();
        for t in self.temps.iter().filter(|t| t.phase == "tempering") {
            *rungs.entry(t.replica).or_insert(0) += 1;
        }
        // `max_by_key` keeps the last of equal maxima: the highest index.
        let Some((&anchor, _)) = rungs.iter().max_by_key(|&(_, &n)| n) else {
            return Vec::new();
        };
        let retired = self
            .failures
            .iter()
            .any(|f| f.phase == "tempering" && f.replica as i64 >= anchor);
        if retired {
            return Vec::new();
        }
        steps_of("tempering", anchor)
    }

    /// Whether the run lost at least one replica to a fault and
    /// finished on the survivors.
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Drops the stage-2 and finalize records read so far: a run cut
    /// there resumes from the stage-1-complete checkpoint.
    fn drop_stage2(&mut self) {
        const STAGES: [&str; 5] = [
            "channel_definition",
            "global_routing",
            "refine_anneal",
            "final_routing",
            "finalize",
        ];
        self.temps.retain(|t| t.phase != "stage2");
        self.routes
            .retain(|r| !["stage2", "final", "finalize"].contains(&r.phase.as_str()));
        self.spans.retain(|s| !STAGES.contains(&s.stage.as_str()));
    }
}

/// The fields of one event, or of an object nested in one, read
/// strictly: an absent or mistyped field is an error naming its line,
/// never a default.
#[derive(Clone, Copy)]
struct Fields<'a> {
    line: usize,
    kind: &'a str,
    /// `"event"`, or the name of the nested object.
    part: &'a str,
    v: &'a Value,
}

impl<'a> Fields<'a> {
    fn read<T>(&self, name: &str, read: fn(&'a Value, &str) -> Option<T>) -> Result<T, String> {
        read(self.v, name).ok_or_else(|| {
            let problem = if get(self.v, name).is_some() {
                "mistyped"
            } else {
                "missing"
            };
            format!(
                "line {}: `{}` {} {problem} field `{name}`",
                self.line, self.kind, self.part
            )
        })
    }

    fn f64(&self, name: &str) -> Result<f64, String> {
        self.read(name, get_f64)
    }

    fn u64(&self, name: &str) -> Result<u64, String> {
        self.read(name, get_u64)
    }

    fn i64(&self, name: &str) -> Result<i64, String> {
        self.read(name, get_i64)
    }

    fn text(&self, name: &str) -> Result<String, String> {
        self.read(name, get_str).map(str::to_owned)
    }

    /// The object in field `name`.
    fn object(&self, name: &'a str) -> Result<Fields<'a>, String> {
        let v = self.read(name, get)?;
        Ok(Fields {
            part: name,
            v,
            ..*self
        })
    }

    fn temp(&self) -> Result<TempRec, String> {
        let cost = self.object("cost")?;
        let classes = self.read("classes", |v, name| match get(v, name) {
            Some(Value::Array(items)) => Some(items),
            _ => None,
        })?;
        let classes = classes
            .iter()
            .map(|v| {
                let c = Fields {
                    part: "classes entry",
                    v,
                    ..*self
                };
                Ok(ClassRec {
                    class: c.text("class")?,
                    attempts: c.u64("attempts")?,
                    accepts: c.u64("accepts")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(TempRec {
            phase: self.text("phase")?,
            iteration: self.i64("iteration")?,
            replica: self.i64("replica")?,
            step: self.u64("step")?,
            temperature: self.f64("temperature")?,
            s_t: self.f64("s_t")?,
            window_x: self.f64("window_x")?,
            window_y: self.f64("window_y")?,
            inner: self.u64("inner")?,
            attempts: self.u64("attempts")?,
            accepts: self.u64("accepts")?,
            cost_total: cost.f64("total")?,
            c1: cost.f64("c1")?,
            overlap_penalty: cost.f64("overlap_penalty")?,
            c3: cost.f64("c3")?,
            teil: self.f64("teil")?,
            index_rebuilds: self.u64("index_rebuilds")?,
            classes,
        })
    }
}

/// Parses and checks a JSONL telemetry stream into typed records, one
/// pass and one `parse_json` per non-empty line.
///
/// A stream is rejected, with the line at fault, when a line is not a
/// JSON object of a known `kind`, or lacks (or mistypes) a field its
/// record reads; when the run envelope breaks (a second `run_start` or
/// `run_end`, `run_end` or `run_interrupted` before `run_start`, or a
/// `run_start` whose stream neither reaches `run_end` nor stops right
/// after a `run_interrupted`); or when a temperature rises within one
/// anneal scope (the `place_temp`s sharing phase, iteration and
/// replica; each `run_interrupted` restarts the tracking, since a
/// resumed stage re-runs its cooling).
///
/// A `run_interrupted` in `stage2` or `finalize` drops the stage-2 and
/// finalize records before it, which the resumed run records again.
pub fn parse_stream(jsonl: &str) -> Result<RunStream, String> {
    let mut out = RunStream::default();
    // Lines of the run envelope's events (0 = not seen yet).
    let (mut start_line, mut end_line) = (0usize, 0usize);
    // Last temperature, and its line, per anneal scope.
    let mut last_temp: BTreeMap<(String, i64, i64), (f64, usize)> = BTreeMap::new();
    for (idx, text) in jsonl.lines().enumerate() {
        if text.trim().is_empty() {
            continue;
        }
        let line = idx + 1;
        let v = parse_json(text).map_err(|e| format!("line {line}: {e}"))?;
        if !matches!(v, Value::Object(_)) {
            return Err(format!("line {line}: not a JSON object"));
        }
        let kind =
            get_str(&v, "kind").ok_or_else(|| format!("line {line}: missing string `kind`"))?;
        let f = Fields {
            line,
            kind,
            part: "event",
            v: &v,
        };
        if out.interrupted.is_some() {
            out.trailing_after_interrupt = true;
        }
        match kind {
            "run_start" => {
                let start = RunStartRec {
                    seed: f.u64("seed")?,
                    cells: f.u64("cells")?,
                    nets: f.u64("nets")?,
                    pins: f.u64("pins")?,
                    replicas: f.u64("replicas")?,
                    strategy: f.text("strategy")?,
                };
                if start_line != 0 {
                    return Err(format!(
                        "line {line}: duplicate `run_start` (first at line {start_line})"
                    ));
                }
                start_line = line;
                out.start = Some(start);
            }
            "run_end" => {
                let end = RunEndRec {
                    teil: f.f64("teil")?,
                    chip_width: f.i64("chip_width")?,
                    chip_height: f.i64("chip_height")?,
                    routed_length: f.i64("routed_length")?,
                    wall_us: f.u64("wall_us")?,
                };
                if end_line != 0 {
                    return Err(format!(
                        "line {line}: duplicate `run_end` (first at line {end_line})"
                    ));
                }
                if start_line == 0 {
                    return Err(format!(
                        "line {line}: `run_end` without a preceding `run_start`"
                    ));
                }
                end_line = line;
                out.end = Some(end);
            }
            "place_temp" => {
                let temp = f.temp()?;
                let t = temp.temperature;
                let key = (temp.phase.clone(), temp.iteration, temp.replica);
                if let Some(&(prev, prev_line)) = last_temp.get(&key) {
                    if t > prev {
                        return Err(format!(
                            "line {line}: temperature {t} rose above {prev} (line \
                             {prev_line}) within the {}[{}/{}] anneal stream",
                            key.0, key.1, key.2
                        ));
                    }
                }
                last_temp.insert(key, (t, line));
                out.temps.push(temp);
            }
            "route_iter" => out.routes.push(RouteRec {
                phase: f.text("phase")?,
                iteration: f.i64("iteration")?,
                nets: f.u64("nets")?,
                unrouted: f.u64("unrouted")?,
                alts_total: f.u64("alts_total")?,
                alts_max: f.u64("alts_max")?,
                overflow_start: f.i64("overflow_start")?,
                overflow: f.i64("overflow")?,
                total_length: f.i64("total_length")?,
                attempts: f.u64("attempts")?,
                reassignments: f.u64("reassignments")?,
                usage_total: f.u64("usage_total")?,
                util_hist: f.read("util_hist", |v, name| match get(v, name) {
                    Some(Value::Array(items)) => items.iter().map(as_u64).collect(),
                    _ => None,
                })?,
            }),
            "stage_span" => out.spans.push(SpanRec {
                stage: f.text("stage")?,
                iteration: f.i64("iteration")?,
                wall_us: f.u64("wall_us")?,
            }),
            "replica_summary" => out.replica_summaries.push(ReplicaSummaryRec {
                phase: f.text("phase")?,
                replica: f.u64("replica")?,
                seed: f.u64("seed")?,
                teil: f.f64("teil")?,
                cost: f.f64("cost")?,
            }),
            "swap" => out.swaps.push(SwapRec {
                round: f.u64("round")?,
                lower: f.u64("lower")?,
                upper: f.u64("upper")?,
                t_lower: f.f64("t_lower")?,
                t_upper: f.f64("t_upper")?,
                s_t: f.f64("s_t")?,
                accepted: f.read("accepted", get_bool)?,
            }),
            "replica_failed" => out.failures.push(ReplicaFailedRec {
                phase: f.text("phase")?,
                replica: f.u64("replica")?,
                round: f.u64("round")?,
                error: f.text("error")?,
            }),
            "run_interrupted" => {
                let cut = RunInterruptedRec {
                    reason: f.text("reason")?,
                    stage: f.text("stage")?,
                    teil: f.f64("teil")?,
                    cost: f.f64("cost")?,
                    wall_us: f.u64("wall_us")?,
                };
                if start_line == 0 {
                    return Err(format!(
                        "line {line}: `run_interrupted` without a preceding `run_start`"
                    ));
                }
                // The continuation re-runs the cut stage's cooling from
                // the top, and a later interrupt starts a new resumable
                // suffix: the continuation it cuts short was clean.
                last_temp.clear();
                out.trailing_after_interrupt = false;
                if cut.stage == "stage2" || cut.stage == "finalize" {
                    out.drop_stage2();
                }
                out.interrupted = Some(cut);
            }
            other => return Err(format!("line {line}: unknown kind `{other}`")),
        }
        out.stats.lines += 1;
        *out.stats.kind_counts.entry(kind.to_owned()).or_insert(0) += 1;
    }
    // A run may stop right after `run_interrupted`: its continuation
    // lives in a checkpoint.
    let cut_at_interrupt = out.interrupted.is_some() && !out.trailing_after_interrupt;
    if start_line != 0 && end_line == 0 && !cut_at_interrupt {
        return Err(format!(
            "line {start_line}: `run_start` has no matching `run_end` (truncated stream?)"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_obs::{
        ClassCount, CostBreakdown, Event, PlaceTemp, ReplicaFailed, ReplicaSummary, RouteIter,
        RunEnd, RunInterrupted, RunStart, StageSpan, Swap,
    };

    fn line(ev: Event) -> String {
        serde_json::to_string(&ev).unwrap()
    }

    fn run_start() -> String {
        line(Event::RunStart(RunStart {
            seed: 7,
            cells: 4,
            nets: 8,
            pins: 20,
            replicas: 1,
            strategy: "single",
        }))
    }

    fn run_end() -> String {
        line(Event::RunEnd(RunEnd {
            teil: 430.0,
            chip_width: 60,
            chip_height: 50,
            routed_length: 118,
            wall_us: 12345,
        }))
    }

    fn interrupted(stage: &'static str) -> String {
        line(Event::RunInterrupted(RunInterrupted {
            reason: "move_budget",
            stage,
            teil: 512.0,
            cost: 600.0,
            wall_us: 4200,
        }))
    }

    fn span() -> String {
        line(Event::StageSpan(StageSpan {
            stage: "stage1",
            iteration: 0,
            wall_us: 99,
        }))
    }

    /// A complete `place_temp` of the given scope and temperature.
    fn scoped_temp(phase: &'static str, iteration: u64, replica: i64, t: f64) -> String {
        line(Event::PlaceTemp(PlaceTemp {
            phase,
            iteration,
            replica,
            step: 0,
            temperature: t,
            s_t: 1.0,
            window_x: 50.0,
            window_y: 40.0,
            inner: 10,
            attempts: 10,
            accepts: 9,
            cost: CostBreakdown {
                total: 500.0,
                c1: 450.0,
                overlap: 3,
                overlap_penalty: 40.0,
                c3: 10.0,
            },
            teil: 450.0,
            index_rebuilds: 2,
            index_updates: 30,
            classes: vec![ClassCount {
                class: "displacements",
                attempts: 9,
                accepts: 8,
            }],
        }))
    }

    fn place_temp(t: f64) -> String {
        scoped_temp("stage1", 0, -1, t)
    }

    fn route_iter() -> String {
        line(Event::RouteIter(RouteIter {
            phase: "stage2",
            iteration: 0,
            nets: 8,
            unrouted: 0,
            alts_total: 20,
            alts_max: 4,
            overflow_start: 3,
            overflow: 0,
            total_length: 120,
            attempts: 16,
            reassignments: 5,
            usage_total: 30,
            util_hist: [2, 3, 1, 0, 0],
        }))
    }

    fn swap() -> String {
        line(Event::Swap(Swap {
            round: 0,
            lower: 0,
            upper: 1,
            t_lower: 2.0,
            t_upper: 1.0,
            s_t: 1.0,
            accepted: true,
        }))
    }

    fn summary() -> String {
        line(Event::ReplicaSummary(ReplicaSummary {
            phase: "tempering",
            replica: 1,
            seed: u64::MAX - 1,
            rung_temperature: Some(0.5),
            teil: 420.0,
            cost: 480.0,
            attempts: 100,
            accepts: 60,
        }))
    }

    fn failed(phase: &'static str, replica: usize) -> String {
        line(Event::ReplicaFailed(ReplicaFailed {
            phase,
            replica,
            round: 5,
            error: "injected fault".to_owned(),
        }))
    }

    /// `line` with the field at `path` removed (nested objects and every
    /// entry of an array on the way).
    fn without(line: &str, path: &[&str]) -> String {
        fn strip(v: &mut Value, path: &[&str]) {
            match (v, path) {
                (Value::Array(items), _) => items.iter_mut().for_each(|v| strip(v, path)),
                (Value::Object(entries), [name]) => entries.retain(|(k, _)| k != name),
                (Value::Object(entries), [name, rest @ ..]) => entries
                    .iter_mut()
                    .filter(|(k, _)| k == name)
                    .for_each(|(_, v)| strip(v, rest)),
                _ => {}
            }
        }
        let mut v = parse_json(line).unwrap();
        strip(&mut v, path);
        serde_json::to_string(&v).unwrap()
    }

    #[test]
    fn extracts_typed_records() {
        let jsonl = [
            run_start(),
            place_temp(100.0),
            route_iter(),
            span(),
            swap(),
            summary(),
            run_end(),
        ]
        .join("\n");
        let s = parse_stream(&jsonl).unwrap();
        assert_eq!(s.start.as_ref().unwrap().seed, 7);
        assert_eq!(s.end.as_ref().unwrap().chip_width, 60);
        assert_eq!(s.temps.len(), 1);
        assert_eq!((s.temps[0].inner, s.temps[0].index_rebuilds), (10, 2));
        assert_eq!(s.temps[0].classes[0].class, "displacements");
        assert_eq!((s.temps[0].c1, s.temps[0].c3), (450.0, 10.0));
        assert!((s.temps[0].acceptance() - 0.9).abs() < 1e-12);
        assert_eq!(s.routes.len(), 1);
        assert_eq!((s.routes[0].alts_total, s.routes[0].alts_max), (20, 4));
        assert_eq!(s.routes[0].util_hist, vec![2, 3, 1, 0, 0]);
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.swaps.len(), 1);
        assert_eq!((s.swaps[0].lower, s.swaps[0].upper), (0, 1));
        assert_eq!((s.swaps[0].t_lower, s.swaps[0].t_upper), (2.0, 1.0));
        assert!(s.swaps[0].accepted);
        assert_eq!(
            s.replica_summaries,
            [ReplicaSummaryRec {
                phase: "tempering".to_owned(),
                replica: 1,
                seed: u64::MAX - 1,
                teil: 420.0,
                cost: 480.0,
            }]
        );
        assert_eq!(s.stage1_temps().len(), 1);
        assert_eq!(s.stats.lines, 7);
        assert_eq!(s.stats.kind_counts["place_temp"], 1);
    }

    #[test]
    fn extracts_resilience_records() {
        let jsonl = [run_start(), failed("multistart", 1), interrupted("stage1")].join("\n");
        let s = parse_stream(&jsonl).unwrap();
        assert!(s.degraded());
        assert_eq!(s.failures.len(), 1);
        assert_eq!((s.failures[0].replica, s.failures[0].round), (1, 5));
        assert!(s.failures[0].error.contains("injected fault"));
        let cut = s.interrupted.as_ref().unwrap();
        assert_eq!(
            (cut.reason.as_str(), cut.stage.as_str()),
            ("move_budget", "stage1")
        );
        assert_eq!(cut.teil, 512.0);
        assert!(s.end.is_none());
    }

    #[test]
    fn propagates_validation_errors_with_lines() {
        let err = parse_stream("{\"kind\":\"bogus\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // Blank lines count, and the first offending line is the one named.
        let err = parse_stream(&format!("{}\n\n{{\"kind\":\"bogus\"}}\n{{oops\n", span()));
        assert_eq!(err.unwrap_err(), "line 3: unknown kind `bogus`");
    }

    #[test]
    fn validates_streams() {
        let stats = parse_stream(&format!("{}\n\n", span())).unwrap().stats;
        assert_eq!(stats.lines, 1);
        assert_eq!(stats.kind_counts["stage_span"], 1);

        let first = |text: &str| parse_stream(text).unwrap_err();
        let err = first("{\"kind\":\"bogus\"}");
        assert!(
            err.contains("line 1") && err.contains("unknown kind"),
            "{err}"
        );
        let err = first(&format!("{}\n{{\"kind\":\"stage_span\"}}", span()));
        assert!(
            err.contains("line 2") && err.contains("missing field"),
            "{err}"
        );
        let err = first(&format!("{}\n\n[1]", span()));
        assert!(err.contains("line 3: not a JSON object"), "{err}");
        let err = first("{oops");
        assert!(err.starts_with("line 1: "), "{err}");
        let err = first("{\"kind\":3}");
        assert!(err.contains("line 1: missing string `kind`"), "{err}");
    }

    #[test]
    fn enforces_run_envelope_pairing() {
        // A complete pair reads.
        let good = format!("{}\n{}\n", run_start(), run_end());
        assert_eq!(parse_stream(&good).unwrap().stats.lines, 2);

        // run_end without run_start, duplicate starts/ends, and a
        // truncated stream all fail with the offending line number.
        let err = parse_stream(&format!("{}\n", run_end())).unwrap_err();
        assert!(err.contains("line 1") && err.contains("run_end"), "{err}");

        let dup_start = format!("{}\n{}\n{}\n", run_start(), run_start(), run_end());
        let err = parse_stream(&dup_start).unwrap_err();
        assert!(err.contains("line 2") && err.contains("duplicate"), "{err}");

        let dup_end = format!("{}\n{}\n{}\n", run_start(), run_end(), run_end());
        let err = parse_stream(&dup_end).unwrap_err();
        assert!(err.contains("line 3") && err.contains("duplicate"), "{err}");

        let err = parse_stream(&format!("{}\n", run_start())).unwrap_err();
        assert!(err.contains("no matching `run_end`"), "{err}");
    }

    #[test]
    fn interrupted_streams_may_end_without_run_end() {
        // run_start … run_interrupted as the final event reads.
        let cut = [run_start(), place_temp(10.0), interrupted("stage1")].join("\n");
        assert_eq!(parse_stream(&cut).unwrap().stats.lines, 3);

        // A resumed stream may carry several interrupts and close with
        // run_end; the temperature tracking restarts at each interrupt,
        // so a stage that re-runs its cooling does not trip monotonicity.
        let resumed = [
            run_start(),
            place_temp(8.0),
            interrupted("stage1"),
            place_temp(10.0),
            interrupted("stage1"),
            place_temp(9.0),
            run_end(),
        ]
        .join("\n");
        let s = parse_stream(&resumed).unwrap();
        assert_eq!(s.stats.lines, 7);
        assert!(s.trailing_after_interrupt);

        // An interrupt before any run_start is malformed.
        let err = parse_stream(&interrupted("stage1")).unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("run_interrupted"),
            "{err}"
        );

        // Events after the interrupt re-arm the truncation check.
        let trailing = [run_start(), interrupted("stage1"), place_temp(5.0)].join("\n");
        let err = parse_stream(&trailing).unwrap_err();
        assert!(err.contains("no matching `run_end`"), "{err}");
    }

    #[test]
    fn enforces_monotone_temperatures_per_stream() {
        // Cooling (and plateaus) read; reheating fails with the line.
        let cooling = [place_temp(10.0), place_temp(8.0), place_temp(8.0)].join("\n");
        assert_eq!(parse_stream(&cooling).unwrap().stats.lines, 3);

        let reheat = [place_temp(8.0), place_temp(10.0)].join("\n");
        let err = parse_stream(&reheat).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("rose above"),
            "{err}"
        );

        // Different scopes are independent streams.
        let two_scopes = [place_temp(8.0), scoped_temp("stage1", 0, 1, 10.0)].join("\n");
        assert_eq!(parse_stream(&two_scopes).unwrap().stats.lines, 2);
    }

    /// One complete event of every kind, each led by its `kind`.
    fn every_kind() -> Vec<String> {
        vec![
            run_start(),
            place_temp(1.0),
            span(),
            route_iter(),
            summary(),
            swap(),
            failed("tempering", 0),
            interrupted("stage1"),
            run_end(),
        ]
    }

    #[test]
    fn every_field_the_schema_table_pinned_is_still_required() {
        // The per-kind required fields the obs validator's schema table
        // held before the reader took its checks over.
        const PINNED: [(&str, &[&str]); 9] = [
            (
                "run_start",
                &["seed", "cells", "nets", "pins", "replicas", "strategy"],
            ),
            (
                "place_temp",
                &[
                    "phase",
                    "replica",
                    "step",
                    "temperature",
                    "s_t",
                    "window_x",
                    "window_y",
                    "inner",
                    "attempts",
                    "accepts",
                    "cost",
                    "teil",
                    "index_rebuilds",
                    "classes",
                ],
            ),
            ("stage_span", &["stage", "iteration", "wall_us"]),
            (
                "route_iter",
                &[
                    "phase",
                    "iteration",
                    "nets",
                    "unrouted",
                    "overflow_start",
                    "overflow",
                    "total_length",
                    "attempts",
                    "reassignments",
                    "usage_total",
                    "util_hist",
                ],
            ),
            (
                "replica_summary",
                &["phase", "replica", "seed", "teil", "cost"],
            ),
            ("swap", &["round", "lower", "upper", "s_t", "accepted"]),
            ("replica_failed", &["phase", "replica", "round", "error"]),
            (
                "run_interrupted",
                &["reason", "stage", "teil", "cost", "wall_us"],
            ),
            (
                "run_end",
                &[
                    "teil",
                    "chip_width",
                    "chip_height",
                    "routed_length",
                    "wall_us",
                ],
            ),
        ];
        let events = every_kind();
        for (kind, fields) in PINNED {
            let complete = events
                .iter()
                .find(|e| e.starts_with(&format!("{{\"kind\":\"{kind}\"")))
                .unwrap();
            for field in fields {
                let stream = format!("{}\n\n{}\n", span(), without(complete, &[field]));
                let err = parse_stream(&stream).unwrap_err();
                let want = format!("line 3: `{kind}` event missing field `{field}`");
                assert_eq!(err, want);
            }
        }
    }

    #[test]
    fn fields_outside_the_old_schema_table_are_required_too() {
        let within =
            |event: String| parse_stream(&[run_start(), event, run_end()].join("\n")).unwrap_err();
        assert_eq!(
            within(without(&route_iter(), &["alts_total"])),
            "line 2: `route_iter` event missing field `alts_total`"
        );
        assert_eq!(
            within(without(&place_temp(1.0), &["cost", "c1"])),
            "line 2: `place_temp` cost missing field `c1`"
        );
        assert_eq!(
            within(without(&place_temp(1.0), &["iteration"])),
            "line 2: `place_temp` event missing field `iteration`"
        );
        assert_eq!(
            within(without(&place_temp(1.0), &["classes", "accepts"])),
            "line 2: `place_temp` classes entry missing field `accepts`"
        );
        assert_eq!(
            within(without(&swap(), &["t_upper"])),
            "line 2: `swap` event missing field `t_upper`"
        );
        // A present field of the wrong type is no better than an absent one.
        assert_eq!(
            within(place_temp(1.0).replace("\"teil\":450.0", "\"teil\":\"450\"")),
            "line 2: `place_temp` event mistyped field `teil`"
        );
        assert_eq!(
            within(route_iter().replace("[2,3,1,0,0]", "[2,3,-1,0,0]")),
            "line 2: `route_iter` event mistyped field `util_hist`"
        );
        // Keys the records do not read stay optional.
        let lean = without(&place_temp(1.0), &["index_updates"]);
        parse_stream(&[run_start(), lean, run_end()].join("\n")).unwrap();
    }

    #[test]
    fn tempering_streams_offer_the_ladder_anchor() {
        // Rung 1 (the coldest) steps rounds 1-3; rung 0 waits a round
        // and steps rounds 2-4: equal counts, so the highest index wins.
        let ladder = |extra: &[String]| {
            let mut lines = vec![run_start()];
            for round in 1..=3 {
                lines.push(scoped_temp("tempering", round, 1, 10.0 - round as f64));
                lines.push(scoped_temp("tempering", round + 1, 0, 20.0 - round as f64));
            }
            lines.extend_from_slice(extra);
            lines.push(run_end());
            parse_stream(&lines.join("\n")).unwrap()
        };
        let anchor = |s: &RunStream| {
            let temps = s.stage1_temps();
            let rungs: Vec<i64> = temps.iter().map(|t| t.replica).collect();
            assert!(temps.iter().all(|t| t.phase == "tempering"));
            rungs
        };
        assert_eq!(anchor(&ladder(&[])), [1, 1, 1]);
        // A rung with more steps is the anchor.
        let longer = ladder(&[scoped_temp("tempering", 5, 0, 1.0)]);
        assert_eq!(anchor(&longer), [0, 0, 0, 0]);
        // A retired rung at or above the chosen one leaves no stream.
        assert!(ladder(&[failed("tempering", 1)]).stage1_temps().is_empty());
        assert!(
            ladder(&[scoped_temp("tempering", 5, 0, 1.0), failed("tempering", 1)])
                .stage1_temps()
                .is_empty()
        );
        // A multi-start failure does not retire a rung.
        assert_eq!(anchor(&ladder(&[failed("multistart", 1)])), [1, 1, 1]);
        // A stage-1 stream, when there is one, comes first.
        let stage1 = ladder(&[place_temp(5.0)]);
        assert_eq!(stage1.stage1_temps().len(), 1);
        assert_eq!(stage1.stage1_temps()[0].phase, "stage1");
    }
}
