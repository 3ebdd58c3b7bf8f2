//! End-to-end telemetry: the full pipeline streams a valid JSONL event
//! log covering every stage, recording never changes the result, and a
//! tempering run additionally covers the replica/swap event kinds.

use timberwolfmc::core::{
    run_timberwolf, run_timberwolf_resilient, run_timberwolf_with, ParallelParams, RunCtrl,
    RunOutcome, Strategy, TimberWolfConfig,
};
use timberwolfmc::netlist::{synthesize, Netlist, SynthParams};
use timberwolfmc::obs::{
    Event, Instrumented, JsonlRecorder, MetricsHub, Recorder, SummaryRecorder, Tracer,
};
use timberwolfmc::place::PlaceParams;
use timberwolfmc::resume::CheckpointWriter;
use timberwolfmc::route::RouterParams;

fn circuit() -> Netlist {
    synthesize(&SynthParams {
        cells: 8,
        nets: 20,
        pins: 70,
        custom_fraction: 0.25,
        seed: 5,
        avg_cell_dim: 20,
        ..Default::default()
    })
}

fn quick_config(seed: u64) -> TimberWolfConfig {
    TimberWolfConfig {
        place: PlaceParams {
            attempts_per_cell: 8,
            normalization_samples: 8,
            ..Default::default()
        },
        refine: timberwolfmc::refine::RefineParams {
            router: RouterParams {
                m_alternatives: 6,
                per_level: 3,
                ..Default::default()
            },
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

#[test]
fn pipeline_streams_valid_jsonl_without_changing_the_result() {
    let nl = circuit();
    let config = quick_config(3);

    let plain = run_timberwolf(&nl, &config);
    let mut rec = JsonlRecorder::new(Vec::new());
    let recorded = run_timberwolf_with(&nl, &config, &mut rec);

    // Recording is observation only: same chip, bit for bit.
    assert_eq!(plain.teil, recorded.teil);
    assert_eq!(plain.routed_length, recorded.routed_length);
    assert_eq!(plain.chip, recorded.chip);
    assert_eq!(plain.placement, recorded.placement);

    // The stream reads as valid JSONL and covers the pipeline's event
    // kinds.
    let bytes = rec.finish().expect("memory sink");
    let text = String::from_utf8(bytes).expect("utf-8 stream");
    let stream = timberwolfmc::analyze::parse_stream(&text).expect("stream parses");
    let stats = &stream.stats;
    assert_eq!(stats.kind_counts["run_start"], 1);
    assert_eq!(stats.kind_counts["run_end"], 1);
    // One route_iter per global-routing execution: each stage-2
    // refinement, the closing stage-2 route, and both finalize passes.
    let refinements = config.refine.refinements;
    assert_eq!(stats.kind_counts["route_iter"], refinements + 3);
    // One span per stage-2 iteration for each of the three traced
    // sub-stages, plus stage1 / final_routing / finalize.
    assert!(
        stats.kind_counts["stage_span"] >= 3 * refinements + 3,
        "expected spans for {} refinements, got {}",
        refinements,
        stats.kind_counts["stage_span"]
    );
    // A real cooling run emits many temperature steps.
    assert!(stats.kind_counts["place_temp"] > 20);

    // The analyzer judges the run healthy: the recorded laws (Table-1
    // regions, rho = 4 window decay, the phase-2 overflow rule) all
    // hold for a real pipeline execution.
    let report = timberwolfmc::analyze::analyze(&stream);
    assert!(
        report.healthy(),
        "{}",
        timberwolfmc::analyze::format_report(&report)
    );
    for route in &stream.routes {
        assert!(
            route.overflow <= route.overflow_start,
            "{}[{}]: overflow {} > start {}",
            route.phase,
            route.iteration,
            route.overflow,
            route.overflow_start
        );
        assert_eq!(route.util_hist.len(), 5);
    }
}

#[test]
fn tempering_run_covers_replica_and_swap_kinds() {
    let nl = circuit();
    let mut config = quick_config(9);
    config.parallel = ParallelParams {
        replicas: 2,
        threads: 2,
        strategy: Strategy::Tempering,
        swap_interval: 4,
    };

    let plain = run_timberwolf(&nl, &config);
    let tracer = Tracer::new();
    let mut traced = Instrumented::new(SummaryRecorder::new(), None, Some(tracer.clone()));
    let recorded = run_timberwolf_with(&nl, &config, &mut traced);
    let rec = traced.into_inner();
    assert_eq!(plain.teil, recorded.teil);
    assert_eq!(plain.placement, recorded.placement);

    // Every rung reports a summary, swap sweeps are recorded, and the
    // tempering rounds stream per-rung temperature events.
    assert_eq!(rec.count("run_start"), 1);
    assert_eq!(rec.count("run_end"), 1);
    assert_eq!(rec.count("replica_summary"), 2);
    assert!(rec.count("swap") > 0, "no swap sweeps recorded");
    assert!(!rec.place_temps("tempering").is_empty());
    assert!(!rec.place_temps("quench").is_empty());

    // The trace sees every sweep: on two threads each rung's ladder and
    // quench steps land on its `replica<k>` lane, one `temp_step` span
    // per step.
    let snap = tracer.collect();
    for rung in 0..2 {
        let steps = |phase| {
            rec.place_temps(phase)
                .iter()
                .filter(|p| p.replica == rung)
                .count()
        };
        assert!(steps("quench") > 0, "rung {rung} never quenched");
        let lane = snap
            .lane(&format!("replica{rung}"))
            .unwrap_or_else(|| panic!("no trace lane for rung {rung}"));
        let spans = lane.spans.iter().filter(|s| s.name == "temp_step").count();
        assert_eq!(spans, steps("tempering") + steps("quench"), "rung {rung}");
    }
    assert!(snap.lanes.iter().all(|l| !l.name.starts_with("rung")));
}

/// A tempering run has no `stage1` steps, so the stage-1 laws are
/// checked on its ladder's anchor, the coldest rung: none of the six
/// checks may find the stream missing or too short.
#[test]
fn tempering_run_is_held_to_the_stage1_laws() {
    let nl = circuit();
    let mut config = quick_config(9);
    config.parallel = ParallelParams {
        replicas: 2,
        threads: 1,
        strategy: Strategy::Tempering,
        swap_interval: 1,
    };
    let mut rec = JsonlRecorder::new(Vec::new());
    run_timberwolf_with(&nl, &config, &mut rec);
    let text = String::from_utf8(rec.finish().expect("memory sink")).expect("utf-8 stream");
    let stream = timberwolfmc::analyze::parse_stream(&text).expect("stream parses");
    let anchor = stream.stage1_temps();
    assert!(anchor.len() > 4, "{} anchor steps", anchor.len());
    assert!(anchor
        .iter()
        .all(|t| t.phase == "tempering" && t.replica == 1));

    let report = timberwolfmc::analyze::analyze(&stream);
    for check in [
        "schedule.scaling",
        "schedule.table1",
        "anneal.acceptance",
        "window.decay",
        "cost.convergence",
        "moves.ratio",
    ] {
        let finding = report.findings.iter().find(|f| f.check == check).unwrap();
        for absent in ["no stage-1", "too short", "cannot check", "no per-class"] {
            assert!(
                !finding.detail.contains(absent),
                "{check}: {}",
                finding.detail
            );
        }
    }
}

/// Every interval is timed once: the `stage_span` event, the trace span
/// and the hub histogram of one interval carry one duration.
#[test]
fn each_interval_reads_one_clock() {
    let nl = circuit();
    let config = quick_config(4);
    let ckpt = std::env::temp_dir().join(format!("twmc-one-clock-{}.ckpt", std::process::id()));
    let (hub, tracer) = (MetricsHub::new(), Tracer::new());
    let mut rec = Instrumented::new(
        SummaryRecorder::new(),
        Some(hub.clone()),
        Some(tracer.clone()),
    );
    let opts = RunCtrl {
        writer: Some(CheckpointWriter::new(&ckpt, 2)),
        ..Default::default()
    };
    let outcome = run_timberwolf_resilient(&nl, &config, opts, &mut rec as &mut dyn Recorder);
    assert!(matches!(outcome, Ok(RunOutcome::Complete(_))));
    let _ = std::fs::remove_file(&ckpt);
    let events = rec.into_inner().into_events();
    let snap = tracer.collect();
    assert_eq!(snap.dropped(), 0);
    let main = &snap.lane("main").expect("main lane").spans;

    // Each stage_span is its stage's main-lane span, in order.
    const STAGES: [&str; 6] = [
        "stage1",
        "channel_definition",
        "global_routing",
        "refine_anneal",
        "final_routing",
        "finalize",
    ];
    let from_spans: Vec<(&str, u64)> = main
        .iter()
        .filter(|s| STAGES.contains(&s.name.as_str()))
        .map(|s| (s.name.as_str(), s.dur_ns / 1000))
        .collect();
    let from_events: Vec<(&str, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::StageSpan(s) => Some((s.stage, s.wall_us)),
            _ => None,
        })
        .collect();
    assert_eq!(from_events.len(), 3 * config.refine.refinements + 3);
    assert_eq!(from_spans, from_events);

    // run_end carries the run span's duration.
    let run: Vec<u64> = main
        .iter()
        .filter(|s| s.name == "run")
        .map(|s| s.dur_ns / 1000)
        .collect();
    let Some(Event::RunEnd(end)) = events.last() else {
        panic!("the stream ends with run_end");
    };
    assert_eq!(run, [end.wall_us]);

    // One checkpoint-write span per hub count and sample; likewise for
    // routing executions.
    let count = |lane: &str, name: &str| {
        snap.lane(lane).map_or(0, |l| {
            l.spans.iter().filter(|s| s.name == name).count() as u64
        })
    };
    let writes = count("main", "checkpoint_write");
    assert!(writes >= 2, "stage 1 and the stage-2 mark both write");
    assert_eq!(hub.checkpoint_writes_total.value(), writes);
    assert_eq!(hub.checkpoint_write_ms.count(), writes);
    let routes = count("main", "route_iter");
    assert_eq!(routes as usize, config.refine.refinements + 3);
    assert_eq!(hub.route_iters_total.value(), routes);
    assert_eq!(hub.route_iter_ms.count(), routes);
}

/// One lane per producing thread: a run on one thread records every
/// span on `main`, so the profile nests the checkpoint writes, the
/// router's spans and the replicas' sweeps inside the stages that
/// contain them, and the self times add up to the run span instead of
/// counting that time twice. That holds for a single replica, and for
/// a 3-replica multi-start and a 2-rung tempering run whose pool runs
/// every sweep on the orchestrator thread.
#[test]
fn profile_self_times_sum_to_the_run_span() {
    let nl = circuit();
    let ckpt = std::env::temp_dir().join(format!("twmc-profile-{}.ckpt", std::process::id()));
    let shapes = [
        ("single", 1, Strategy::MultiStart),
        ("multi-start x3", 3, Strategy::MultiStart),
        ("tempering x2", 2, Strategy::Tempering),
    ];
    for (what, replicas, strategy) in shapes {
        let mut config = quick_config(6);
        config.parallel = ParallelParams {
            replicas,
            threads: 1,
            strategy,
            ..Default::default()
        };
        let tracer = Tracer::new();
        let mut rec = Instrumented::new(SummaryRecorder::new(), None, Some(tracer.clone()));
        let opts = RunCtrl {
            writer: Some(CheckpointWriter::new(&ckpt, 2)),
            ..Default::default()
        };
        let outcome = run_timberwolf_resilient(&nl, &config, opts, &mut rec as &mut dyn Recorder);
        assert!(matches!(outcome, Ok(RunOutcome::Complete(_))), "{what}");
        let _ = std::fs::remove_file(&ckpt);
        let snap = tracer.collect();
        let profile = timberwolfmc::trace::profile(&snap);
        for name in ["checkpoint_write", "route_iter", "route_net", "temp_step"] {
            assert!(profile.row(name).is_some(), "{what}: no `{name}` span");
        }
        let run = profile.row("run").expect("run span").incl_ns as f64;
        let self_total: u64 = profile.rows.iter().map(|r| r.excl_ns).sum();
        let ratio = self_total as f64 / run;
        assert!(
            (ratio - 1.0).abs() <= 0.01,
            "{what}: self times sum to {self_total} ns against a {run} ns run ({ratio:.3}x)"
        );
        assert_eq!(snap.lanes.len(), 1, "{what}: one writer, one lane");
    }
}
