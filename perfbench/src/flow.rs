//! The in-process operations (full flow, stage 1, tempering), their
//! output checks, and the recorder that splits a traced call into its
//! layers.
//!
//! Every layer time the report attributes to a public call is timed
//! here, around that call. Trace spans are only used to split time
//! within one lane: `route_net` vs `route_select` on the route lane,
//! and the cost-term spans inside stage-1 move blocks.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use twmc_core::{finalize_chip_with, snapshot_placement, PlacedCellRecord, TimberWolfConfig};
use twmc_estimator::{determine_core, EstimatorParams};
use twmc_geom::Rect;
use twmc_netlist::{parse_netlist, Netlist};
use twmc_obs::{Event, NullRecorder, Recorder, TraceSnapshot, Tracer};
use twmc_parallel::{parallel_stage1_with, ParallelParams, Strategy};
use twmc_place::{place_stage1_with, PlacementState, Stage1Result};
use twmc_refine::{refine_placement_with, routing_snapshot};
use twmc_route::global_route_with;
use twmc_serve::placement_text;

use crate::host::Clock;

/// Per-pass sums of layer quantities, keyed by metric name.
pub type Tally = BTreeMap<&'static str, f64>;

pub fn add(t: &mut Tally, key: &'static str, v: f64) {
    *t.entry(key).or_insert(0.0) += v;
}

/// What one op runs.
#[derive(Debug, Clone, Copy)]
pub enum OpKind {
    /// Stage 1, stage 2 and finalization (the `run_timberwolf` flow).
    Flow,
    /// `place_stage1_with` only.
    Stage1,
    /// `parallel_stage1_with`, tempering, on `threads` threads.
    Tempering { replicas: usize, threads: usize },
}

/// One generated input: netlist text plus the run parameters.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub text: String,
    pub seed: u64,
    pub ac: usize,
    pub kind: OpKind,
}

impl Input {
    pub fn config(&self) -> TimberWolfConfig {
        let mut config = TimberWolfConfig::fast(self.seed);
        config.place.attempts_per_cell = self.ac;
        config
    }
}

/// The outcome of one op.
#[derive(Debug, Clone, Default)]
pub struct OpOut {
    pub wall: f64,
    pub cpu: f64,
    pub teil: f64,
    pub chip_area: f64,
    /// Globally routed length; 0 for ops that do not route.
    pub routed_length: f64,
    /// The placement in the daemon's `/placement` text format (empty
    /// for ops that failed before producing one).
    pub placement: String,
    /// Hash of the placement text together with the TEIL and area bits.
    pub fingerprint: u64,
    /// Names of the output checks that ran.
    pub checks: Vec<&'static str>,
    /// Check failures; empty when the output is correct.
    pub failures: Vec<String>,
    pub tally: Tally,
}

impl OpOut {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(name);
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

/// Parses every input and determines its core; returns
/// `(parse seconds, core seconds)`.
pub fn setup_inputs(inputs: &[Input]) -> (f64, f64) {
    let (mut parse_s, mut core_s) = (0.0, 0.0);
    for input in inputs {
        let t = Instant::now();
        let nl = parse_netlist(&input.text).expect("generated netlists parse");
        parse_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(determine_core(&nl, &EstimatorParams::default()));
        core_s += t.elapsed().as_secs_f64();
    }
    (parse_s, core_s)
}

/// Runs one op from netlist text to checked result. A panic inside the
/// program is caught and reported as a failed op.
pub fn run_op(input: &Input, traced: bool) -> OpOut {
    let clock = Clock::start();
    let outcome = std::panic::catch_unwind(|| run_op_inner(input, traced));
    let span = clock.stop();
    let mut out = outcome.unwrap_or_else(|panic| {
        let mut out = OpOut::default();
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        out.check("no_panic", false, || msg);
        out
    });
    out.wall = span.wall;
    out.cpu = span.cpu;
    out
}

fn run_op_inner(input: &Input, traced: bool) -> OpOut {
    let mut out = OpOut::default();
    let t = Instant::now();
    let nl = match parse_netlist(&input.text) {
        Ok(nl) => nl,
        Err(e) => {
            out.check("parse", false, || e.to_string());
            return out;
        }
    };
    add(&mut out.tally, "netlist.parse_s", t.elapsed().as_secs_f64());
    let mut layers = LayerRecorder::new(traced);
    let rec: &mut dyn Recorder = if traced {
        &mut layers
    } else {
        &mut NullRecorder
    };
    let config = input.config();
    match input.kind {
        OpKind::Flow => flow(&nl, &config, rec, &mut out, traced),
        OpKind::Stage1 => {
            let t = Instant::now();
            let (state, s1) = place_stage1_with(
                &nl,
                &config.place,
                &config.estimator,
                &config.schedule,
                config.seed,
                rec,
            );
            add(&mut out.tally, "place.stage1_s", t.elapsed().as_secs_f64());
            tally_stage1(&mut out.tally, &s1);
            check_stage1(&mut out, &state, &s1);
        }
        OpKind::Tempering { replicas, threads } => {
            let params = ParallelParams {
                replicas,
                threads,
                strategy: Strategy::Tempering,
                ..Default::default()
            };
            let t = Instant::now();
            let (state, s1, report) = parallel_stage1_with(
                &nl,
                &config.place,
                &config.estimator,
                &config.schedule,
                &params,
                config.seed,
                rec,
            );
            let dt = t.elapsed().as_secs_f64();
            add(&mut out.tally, "place.stage1_s", dt);
            add(&mut out.tally, "parallel.stage1_s", dt);
            let moves: usize = report.replica_reports.iter().map(|r| r.attempts).sum();
            let accepts: usize = report.replica_reports.iter().map(|r| r.accepts).sum();
            add(&mut out.tally, "place.moves", moves as f64);
            add(&mut out.tally, "place.accepts", accepts as f64);
            add(&mut out.tally, "place.temp_steps", s1.history.len() as f64);
            add(&mut out.tally, "parallel.moves", moves as f64);
            add(
                &mut out.tally,
                "parallel.swaps",
                report.swaps.attempts as f64,
            );
            add(
                &mut out.tally,
                "parallel.swaps_accepted",
                report.swaps.accepts as f64,
            );
            out.check("replicas_survive", !report.degraded(), || {
                format!("{} replicas failed", report.failed.len())
            });
            check_stage1(&mut out, &state, &s1);
        }
    }
    if traced {
        layers.fold_into(&mut out.tally);
    }
    out
}

/// The largest share of used channels that may stay narrower than
/// their routed density after finalization.
const MAX_NARROW_CHANNELS: f64 = 0.4;

/// The full flow, call for call as `run_timberwolf_with` makes it, so the
/// result is bit-identical to `run_timberwolf(nl, config)`.
fn flow(
    nl: &Netlist,
    config: &TimberWolfConfig,
    rec: &mut dyn Recorder,
    out: &mut OpOut,
    traced: bool,
) {
    let t = Instant::now();
    let (mut state, s1) = place_stage1_with(
        nl,
        &config.place,
        &config.estimator,
        &config.schedule,
        config.seed,
        rec,
    );
    add(&mut out.tally, "place.stage1_s", t.elapsed().as_secs_f64());
    tally_stage1(&mut out.tally, &s1);
    let t = Instant::now();
    let s2 = refine_placement_with(
        &mut state,
        nl,
        &config.place,
        &config.refine,
        s1.s_t,
        s1.t_infinity,
        config.seed.wrapping_add(0x5eed),
        rec,
    );
    add(&mut out.tally, "refine.stage2_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let fin = finalize_chip_with(
        nl,
        &mut state,
        &config.refine.router,
        config.seed.wrapping_add(0xf17a1),
        rec,
    );
    add(&mut out.tally, "core.finalize_s", t.elapsed().as_secs_f64());
    add(
        &mut out.tally,
        "route.graph_nodes",
        s2.final_routing.graph.nodes.len() as f64,
    );
    let placement = snapshot_placement(nl, &state);

    out.teil = fin.teil;
    out.chip_area = fin.chip_area() as f64;
    out.routed_length = fin.routed_length as f64;
    out.placement = placement_text(&placement);
    out.fingerprint = fingerprint(&out.placement, fin.teil, fin.chip_area());
    out.check("finite", fin.teil.is_finite() && fin.teil > 0.0, || {
        format!("TEIL {}", fin.teil)
    });
    check_legal(out, &placement, fin.chip);
    let unrouted = fin.unrouted + s2.records.iter().map(|r| r.unrouted).sum::<usize>();
    out.check("unrouted", unrouted == 0, || format!("{unrouted} nets"));
    // The re-route after spreading may move a few nets into channels
    // narrower than their new density (see `finalize_chip`), so a tail
    // of narrow channels is normal. Over 60 sampled 8-12-cell circuits
    // finalization left 7-29% of used channels narrow (median 17%),
    // against 23-58% (median 37%) in the routing it starts from.
    let rate = fin.width_report.violation_rate();
    out.check("width_report", rate < MAX_NARROW_CHANNELS, || {
        format!(
            "{} of {} used channels too narrow",
            fin.width_report.violations.len(),
            fin.width_report.used_channels
        )
    });

    if traced {
        // One more route of the final placement, timed here around the
        // public call, gives the per-call router cost outside the op.
        let (geometry, nets) = routing_snapshot(&state);
        let t = Instant::now();
        let routing = global_route_with(
            &geometry,
            &nets,
            &config.refine.router,
            config.seed,
            &mut NullRecorder,
            "bench",
            0,
        );
        add(
            &mut out.tally,
            "route.global_route_s",
            t.elapsed().as_secs_f64(),
        );
        add(&mut out.tally, "route.direct_calls", 1.0);
        std::hint::black_box(routing.total_length());
    }
}

fn tally_stage1(t: &mut Tally, s1: &Stage1Result) {
    add(t, "place.moves", s1.moves.attempts() as f64);
    let accepts: usize = s1.history.iter().map(|h| h.accepts).sum();
    add(t, "place.accepts", accepts as f64);
    add(t, "place.temp_steps", s1.history.len() as f64);
}

/// Checks a stage-1 result. Stage 1 alone ends unlegalized (the
/// residual overlap is what stage 2 cleans up), so legality is not
/// asked of it; containment and the engine's own bookkeeping are.
fn check_stage1(out: &mut OpOut, state: &PlacementState<'_>, s1: &Stage1Result) {
    out.teil = s1.teil;
    out.chip_area = s1.chip_area() as f64;
    let placement = snapshot_placement(state.netlist(), state);
    out.placement = placement_text(&placement);
    out.fingerprint = fingerprint(&out.placement, s1.teil, s1.chip_area());
    out.check(
        "finite",
        s1.teil.is_finite() && s1.teil > 0.0 && s1.teil == state.teil(),
        || format!("TEIL {} vs state {}", s1.teil, state.teil()),
    );
    let outside = placement
        .iter()
        .filter(|p| !s1.chip.contains_rect(p.bbox))
        .count();
    out.check("inside_chip", outside == 0, || format!("{outside} cells"));
    let steps: usize = s1.history.iter().map(|h| h.attempts).sum();
    out.check("move_accounting", steps <= s1.moves.attempts(), || {
        format!("{steps} step attempts vs {} moves", s1.moves.attempts())
    });
}

/// No two cells overlap and every cell lies inside the chip.
fn check_legal(out: &mut OpOut, placement: &[PlacedCellRecord], chip: Rect) {
    let mut overlaps = 0;
    for (i, a) in placement.iter().enumerate() {
        for b in &placement[i + 1..] {
            if a.bbox.overlap_area(b.bbox) > 0 {
                overlaps += 1;
            }
        }
    }
    out.check("no_overlap", overlaps == 0, || format!("{overlaps} pairs"));
    let outside = placement
        .iter()
        .filter(|p| !chip.contains_rect(p.bbox))
        .count();
    out.check("inside_chip", outside == 0, || format!("{outside} cells"));
}

pub fn fingerprint(placement: &str, teil: f64, area: i64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (placement, teil.to_bits(), area).hash(&mut h);
    h.finish()
}

/// A recorder that keeps the route and stage events of one traced op
/// and carries a fresh tracer for its spans.
struct LayerRecorder {
    tracer: Option<Arc<Tracer>>,
    tally: Tally,
}

impl LayerRecorder {
    fn new(traced: bool) -> LayerRecorder {
        LayerRecorder {
            tracer: traced.then(Tracer::new),
            tally: Tally::new(),
        }
    }

    fn fold_into(self, t: &mut Tally) {
        for (k, v) in self.tally {
            add(t, k, v);
        }
        if let Some(tracer) = self.tracer {
            fold_spans(t, &tracer.collect());
        }
    }
}

impl Recorder for LayerRecorder {
    fn record(&mut self, event: &Event) {
        let t = &mut self.tally;
        match event {
            Event::RouteIter(r) => {
                add(t, "route.calls", 1.0);
                add(t, "route.alternatives", r.alts_total as f64);
                add(t, "route.interchange_attempts", r.attempts as f64);
                add(t, "route.reassignments", r.reassignments as f64);
                add(t, "route.overflow", r.overflow as f64);
                add(t, "route.unrouted", r.unrouted as f64);
            }
            Event::StageSpan(s) => {
                let key = match s.stage {
                    "channel_definition" => "refine.channel_def_s",
                    "refine_anneal" => "refine.anneal_s",
                    _ => return,
                };
                add(t, key, s.wall_us as f64 * 1e-6);
            }
            _ => {}
        }
    }

    fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }
}

/// Splits time within single lanes: router phases on the route lane
/// and the sampled cost terms inside stage-1 move blocks, plus the
/// checkpoint writes on the checkpoint lane.
pub fn fold_spans(t: &mut Tally, snap: &TraceSnapshot) {
    for lane in &snap.lanes {
        for s in &lane.spans {
            let secs = s.dur_ns as f64 * 1e-9;
            let key = match (s.cat.as_str(), s.name.as_str()) {
                ("route", "route_net") => "route.phase1_s",
                ("route", "route_select") => "route.phase2_s",
                ("cost", "net_span") => "place.cost.net_span_s",
                ("cost", "overlap_index") => "place.cost.overlap_index_s",
                ("cost", "penalty") => "place.cost.penalty_s",
                ("ckpt", "checkpoint_write") => {
                    add(t, "resume.checkpoint_writes", 1.0);
                    "resume.checkpoint_s"
                }
                _ => continue,
            };
            add(t, key, secs);
        }
    }
    add(t, "obs.trace_dropped", snap.dropped() as f64);
}
