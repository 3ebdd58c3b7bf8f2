//! The resilience contract of the orchestrator: a run interrupted at a
//! step/round boundary and resumed from its checkpoint is bit-identical
//! to the uninterrupted run — final placement, stage-1 record, report,
//! and the telemetry stream (interrupted prefix + resumed suffix equals
//! the uninterrupted stream) — at any thread count; and a replica whose
//! worker panics (a `panic=replica:<k>@<round>` clause of the run
//! controller's fault schedule) is retired without taking the run down.

use serde::Value;
use twmc_anneal::CoolingSchedule;
use twmc_estimator::EstimatorParams;
use twmc_fault::FaultSchedule;
use twmc_netlist::{synthesize, Netlist, PinPlacement, SynthParams};
use twmc_obs::{CancelToken, Event, StopReason, SummaryRecorder};
use twmc_parallel::{
    parallel_stage1_resilient, OrchestratorError, ParallelParams, RunCtrl, Stage1Outcome, Strategy,
};
use twmc_place::PlaceParams;
use twmc_resume::{CheckpointError, CheckpointWriter};

fn circuit() -> Netlist {
    synthesize(&SynthParams {
        cells: 8,
        nets: 18,
        pins: 60,
        custom_fraction: 0.25,
        seed: 4,
        avg_cell_dim: 20,
        ..Default::default()
    })
}

fn fast_params() -> PlaceParams {
    PlaceParams {
        attempts_per_cell: 6,
        normalization_samples: 6,
        ..Default::default()
    }
}

fn parallel_params(replicas: usize, threads: usize, strategy: Strategy) -> ParallelParams {
    ParallelParams {
        replicas,
        threads,
        strategy,
        swap_interval: 2,
    }
}

struct Run {
    positions: Vec<(i64, i64)>,
    teil: f64,
    cost: f64,
    report: twmc_parallel::ParallelReport,
    events: Vec<Event>,
    /// Total move attempts, counted by the cancellation token.
    moves: u64,
}

fn complete_run(nl: &Netlist, params: &ParallelParams, mut ctrl: RunCtrl) -> Run {
    let token = ctrl.cancel.clone();
    let mut rec = SummaryRecorder::new();
    let outcome = parallel_stage1_resilient(
        nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        params,
        42,
        &mut rec,
        &mut ctrl,
    )
    .expect("run succeeds");
    match outcome {
        Stage1Outcome::Complete {
            state,
            result,
            report,
        } => Run {
            positions: state.cells().iter().map(|c| (c.pos.x, c.pos.y)).collect(),
            teil: result.teil,
            cost: state.cost(),
            report,
            events: rec.into_events(),
            moves: token.moves(),
        },
        Stage1Outcome::Interrupted { .. } => panic!("unexpected interrupt"),
    }
}

/// Interrupts a run under `base` after `budget` move attempts,
/// checkpointing to `path`; returns the telemetry prefix emitted before
/// the stop.
fn interrupted_run(
    nl: &Netlist,
    params: &ParallelParams,
    path: &std::path::Path,
    budget: u64,
    base: RunCtrl,
) -> Vec<Event> {
    let mut rec = SummaryRecorder::new();
    let mut ctrl = RunCtrl {
        cancel: CancelToken::new().with_max_moves(budget),
        writer: Some(CheckpointWriter::new(path, 3)),
        ..base
    };
    let outcome = parallel_stage1_resilient(
        nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        params,
        42,
        &mut rec,
        &mut ctrl,
    )
    .expect("interrupted run still succeeds");
    match outcome {
        Stage1Outcome::Interrupted { reason, teil, .. } => {
            assert_eq!(reason, StopReason::MoveBudget);
            assert!(teil > 0.0);
        }
        Stage1Outcome::Complete { .. } => panic!("budget {budget} did not interrupt"),
    }
    rec.into_events()
}

fn resumed_run(
    nl: &Netlist,
    params: &ParallelParams,
    path: &std::path::Path,
    base: RunCtrl,
) -> Run {
    let payload = twmc_resume::read_checkpoint(path).expect("checkpoint reads back");
    complete_run(
        nl,
        params,
        RunCtrl {
            resume: Some(payload),
            ..base
        },
    )
}

/// The resumed run ends where the uninterrupted one did, and the
/// interrupted prefix plus the resumed suffix is the uninterrupted
/// stream, event for event.
fn assert_stitched(full: &Run, prefix: &[Event], resumed: &Run, threads: usize) {
    assert_eq!(resumed.positions, full.positions, "threads={threads}");
    assert_eq!(resumed.teil.to_bits(), full.teil.to_bits());
    assert_eq!(resumed.cost.to_bits(), full.cost.to_bits());
    assert_eq!(resumed.report, full.report);
    assert!(
        !prefix.is_empty() && prefix.len() < full.events.len(),
        "prefix {} vs full {}",
        prefix.len(),
        full.events.len()
    );
    assert_eq!(prefix[..], full.events[..prefix.len()], "threads={threads}");
    assert_eq!(
        resumed.events[..],
        full.events[prefix.len()..],
        "threads={threads}"
    );
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("twmc-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.ckpt"))
}

/// The interrupt → resume → compare harness. Runs the uninterrupted
/// reference first to measure its total move count, then cuts at
/// `frac` of it — so the cut point tracks the actual run length
/// instead of guessing step counts — and requires the checkpoint to
/// have been taken in `phase`. Covers two thread counts.
fn assert_resume_bit_identical(
    strategy: Strategy,
    replicas: usize,
    frac: f64,
    phase: &str,
    tag: &str,
) {
    let nl = circuit();
    for threads in [1, 2] {
        let params = parallel_params(replicas, threads, strategy);
        let full = complete_run(&nl, &params, RunCtrl::default());
        let budget = ((full.moves as f64) * frac).max(1.0) as u64;
        assert!(budget < full.moves, "cut fraction leaves nothing to resume");

        let path = temp_path(&format!("{tag}-t{threads}"));
        let prefix = interrupted_run(&nl, &params, &path, budget, RunCtrl::default());
        let payload = twmc_resume::read_checkpoint(&path).expect("checkpoint reads back");
        let cut = twmc_resume::codec::str_field(&payload, "phase").expect("phase tag");
        assert_eq!(cut, phase, "threads={threads}");
        let resumed = resumed_run(&nl, &params, &path, RunCtrl::default());
        assert_stitched(&full, &prefix, &resumed, threads);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn multistart_resumes_bit_identically_from_an_early_cut() {
    assert_resume_bit_identical(Strategy::MultiStart, 3, 0.1, "multistart", "ms-early");
}

#[test]
fn multistart_resumes_bit_identically_from_a_late_cut() {
    assert_resume_bit_identical(Strategy::MultiStart, 2, 0.9, "multistart", "ms-late");
}

#[test]
fn tempering_resumes_bit_identically_from_the_ladder() {
    // A 5% cut lands early in the ladder phase.
    assert_resume_bit_identical(Strategy::Tempering, 3, 0.05, "tempering", "pt-ladder");
}

#[test]
fn tempering_resumes_bit_identically_mid_adaptation() {
    // A mid-run cut lands after several swap sweeps have already moved
    // the adaptive gaps and rung temperatures away from their initial
    // values — the resumed run must reload that ladder state exactly,
    // not re-derive it from the schedule.
    assert_resume_bit_identical(Strategy::Tempering, 4, 0.45, "tempering", "pt-adapt");
}

#[test]
fn tempering_resumes_bit_identically_from_the_quench() {
    // The quench is the tail of the run; a 95% cut lands inside it.
    assert_resume_bit_identical(Strategy::Tempering, 3, 0.95, "quench", "pt-quench");
}

#[test]
fn single_replica_run_resumes_bit_identically() {
    assert_resume_bit_identical(Strategy::MultiStart, 1, 0.4, "multistart", "single");
}

#[test]
fn wall_clock_budget_interrupts_with_a_final_checkpoint() {
    let nl = circuit();
    let params = parallel_params(2, 2, Strategy::MultiStart);
    let path = temp_path("wall");
    let mut ctrl = RunCtrl {
        cancel: CancelToken::new().with_deadline(std::time::Instant::now()),
        writer: Some(CheckpointWriter::new(&path, 1_000_000)),
        ..Default::default()
    };
    let outcome = parallel_stage1_resilient(
        &nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        &params,
        42,
        &mut twmc_obs::NullRecorder,
        &mut ctrl,
    )
    .expect("interrupt is not an error");
    match outcome {
        Stage1Outcome::Interrupted { reason, .. } => {
            assert_eq!(reason, StopReason::WallClock)
        }
        Stage1Outcome::Complete { .. } => panic!("deadline in the past must interrupt"),
    }
    // The final checkpoint was flushed even though the periodic cadence
    // (one per 1M steps) never came due — and it resumes cleanly.
    let resumed = resumed_run(&nl, &params, &path, RunCtrl::default());
    assert!(resumed.teil > 0.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_from_mismatched_config_is_rejected() {
    let nl = circuit();
    let params = parallel_params(2, 1, Strategy::MultiStart);
    let full = complete_run(&nl, &params, RunCtrl::default());
    let path = temp_path("mismatch");
    interrupted_run(&nl, &params, &path, full.moves / 2, RunCtrl::default());
    let payload = twmc_resume::read_checkpoint(&path).expect("checkpoint reads back");
    // Same checkpoint, different replica count: refused.
    let mut ctrl = RunCtrl {
        resume: Some(payload),
        ..Default::default()
    };
    let err = parallel_stage1_resilient(
        &nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        &parallel_params(3, 1, Strategy::MultiStart),
        42,
        &mut twmc_obs::NullRecorder,
        &mut ctrl,
    )
    .err()
    .expect("mismatched config must be rejected");
    assert!(
        err.to_string().contains("does not match"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

// --- checkpoints that do not fit the netlist -----------------------------

fn field_mut<'v>(v: &'v mut Value, name: &str) -> &'v mut Value {
    match v {
        Value::Object(fields) => {
            let (_, value) = fields.iter_mut().find(|(k, _)| k == name).expect("field");
            value
        }
        other => panic!("not an object: {other:?}"),
    }
}

fn items_mut(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Array(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

/// A snapshot whose decisions do not fit the netlist is a typed
/// `Corrupt` error naming the cell or pin, never a panic: each damaged
/// copy of a multi-start checkpoint's first replica snapshot is fed
/// back through the resume path.
#[test]
fn snapshot_that_does_not_fit_the_netlist_is_a_typed_error() {
    let nl = circuit();
    let params = parallel_params(2, 1, Strategy::MultiStart);
    let path = temp_path("misfit");
    interrupted_run(&nl, &params, &path, 300, RunCtrl::default());
    let payload = twmc_resume::read_checkpoint(&path).expect("checkpoint reads back");
    let _ = std::fs::remove_file(&path);

    let custom = nl
        .cells()
        .iter()
        .position(|c| c.is_custom())
        .expect("custom");
    let macro_cell = nl
        .cells()
        .iter()
        .position(|c| !c.is_custom())
        .expect("macro");
    let sited = nl
        .pins()
        .iter()
        .position(|p| nl.cell(p.cell).is_custom() && !matches!(p.placement, PinPlacement::Fixed(_)))
        .expect("sited pin");
    let fixed = nl
        .pins()
        .iter()
        .position(|p| matches!(p.placement, PinPlacement::Fixed(_)))
        .expect("fixed pin");
    let pin_name = |k: usize| {
        let pin = &nl.pins()[k];
        format!("`{}.{}`", nl.cell(pin.cell).name, pin.name)
    };
    let spe = nl.cell(nl.pins()[sited].cell).sites_per_edge;
    let site = |slot: u32| Value::Array(vec![Value::UInt(0), Value::UInt(slot as u64)]);
    let aspect = |x: f64| twmc_resume::codec::f64_bits(x);

    type Damage = Box<dyn Fn(&mut Value)>;
    let cases: Vec<(&str, String, Damage)> = vec![
        (
            "truncated cells",
            "cells, the netlist".into(),
            Box::new(|s| {
                items_mut(field_mut(s, "cells")).pop();
            }),
        ),
        (
            "truncated pin sites",
            "pins, the netlist".into(),
            Box::new(|s| {
                items_mut(field_mut(s, "pin_site")).pop();
            }),
        ),
        (
            "instance out of range",
            format!("`{}` selects instance 7", nl.cells()[macro_cell].name),
            Box::new(move |s| {
                let cell = &mut items_mut(field_mut(s, "cells"))[macro_cell];
                *field_mut(cell, "inst") = Value::UInt(7);
            }),
        ),
        (
            "missing site",
            format!("pin {} has no site", pin_name(sited)),
            Box::new(move |s| items_mut(field_mut(s, "pin_site"))[sited] = Value::Null),
        ),
        (
            "site on a fixed pin",
            format!("pin {} is not sited", pin_name(fixed)),
            Box::new(move |s| items_mut(field_mut(s, "pin_site"))[fixed] = site(0)),
        ),
        (
            "slot out of range",
            format!("pin {} sits on a slot", pin_name(sited)),
            Box::new(move |s| items_mut(field_mut(s, "pin_site"))[sited] = site(spe)),
        ),
        (
            "static-expansion count",
            "static expansions".into(),
            Box::new(|s| {
                let exp = Value::Array(vec![Value::Int(0); 4]);
                *field_mut(s, "static_exp") = Value::Array(vec![exp]);
            }),
        ),
    ];
    let aspects = [f64::NAN, 0.0, -1.0, f64::INFINITY].map(|x| {
        let damage: Damage = Box::new(move |s| {
            let cell = &mut items_mut(field_mut(s, "cells"))[custom];
            *field_mut(cell, "aspect") = aspect(x);
        });
        let expect = format!("`{}` has aspect", nl.cells()[custom].name);
        ("bad aspect", expect, damage)
    });
    for (what, expect, damage) in cases.into_iter().chain(aspects) {
        let mut damaged = payload.clone();
        let replica = &mut items_mut(field_mut(&mut damaged, "replicas"))[0];
        damage(field_mut(replica, "snap"));
        let mut ctrl = RunCtrl {
            resume: Some(damaged),
            ..Default::default()
        };
        let err = parallel_stage1_resilient(
            &nl,
            &fast_params(),
            &EstimatorParams::default(),
            &CoolingSchedule::stage1(),
            &params,
            42,
            &mut twmc_obs::NullRecorder,
            &mut ctrl,
        )
        .err()
        .unwrap_or_else(|| panic!("{what}: the damaged checkpoint resumed"));
        match err {
            OrchestratorError::Checkpoint(CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains(&expect), "{what}: `{msg}` lacks `{expect}`")
            }
            other => panic!("{what}: wrong error {other}"),
        }
    }
}

// --- replica faults ------------------------------------------------------

/// A controller whose fault schedule kills `replica` at `round`.
fn faulted(replica: usize, round: usize) -> RunCtrl {
    RunCtrl {
        faults: FaultSchedule::parse(&format!("panic=replica:{replica}@{round}"))
            .expect("valid clause"),
        ..Default::default()
    }
}

mod faults {
    use super::*;

    /// Runs with a fault scheduled for `replica` at `round`; the run must
    /// complete degraded, with the failure recorded and telemetered.
    fn run_with_fault(
        strategy: Strategy,
        replicas: usize,
        threads: usize,
        replica: usize,
        round: usize,
    ) -> Run {
        let nl = circuit();
        let params = parallel_params(replicas, threads, strategy);
        complete_run(&nl, &params, faulted(replica, round))
    }

    #[test]
    fn multistart_survives_a_replica_panic() {
        for threads in [1, 2] {
            let run = run_with_fault(Strategy::MultiStart, 3, threads, 1, 5);
            assert_eq!(run.report.failed.len(), 1, "threads={threads}");
            assert_eq!(run.report.failed[0].replica, 1);
            assert_eq!(run.report.failed[0].round, 5);
            assert!(run.report.failed[0].error.contains("injected fault"));
            assert!(run.report.degraded());
            // The dead replica is dropped from the reports and cannot win.
            assert_eq!(run.report.replica_reports.len(), 2);
            assert!(run.report.replica_reports.iter().all(|r| r.replica != 1));
            assert_ne!(run.report.best_replica, 1);
            assert!(run.teil > 0.0);
            // The failure is telemetered.
            let failed: Vec<_> = run
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::ReplicaFailed(f) => Some(f),
                    _ => None,
                })
                .collect();
            assert_eq!(failed.len(), 1);
            assert_eq!(failed[0].replica, 1);
            assert_eq!(failed[0].phase, "multistart");
        }
    }

    #[test]
    fn degraded_multistart_matches_the_survivors_of_a_clean_run() {
        // The survivors' trajectories are untouched by replica 1's
        // death: their report rows match the clean run's exactly.
        let nl = circuit();
        let params = parallel_params(3, 2, Strategy::MultiStart);
        let clean = complete_run(&nl, &params, RunCtrl::default());
        let degraded = run_with_fault(Strategy::MultiStart, 3, 2, 1, 5);
        assert_eq!(degraded.report.replica_reports.len(), 2);
        for survivor in &degraded.report.replica_reports {
            let clean_row = clean
                .report
                .replica_reports
                .iter()
                .find(|r| r.replica == survivor.replica)
                .expect("survivor exists in clean run");
            assert_eq!(survivor, clean_row);
        }
    }

    #[test]
    fn tempering_survives_a_rung_panic() {
        for threads in [1, 2] {
            let run = run_with_fault(Strategy::Tempering, 3, threads, 2, 4);
            assert_eq!(run.report.failed.len(), 1, "threads={threads}");
            assert_eq!(run.report.failed[0].replica, 2);
            assert!(run.report.degraded());
            assert_eq!(run.report.replica_reports.len(), 2);
            assert_ne!(run.report.best_replica, 2);
            assert!(run.teil > 0.0);
            // Swap pairing skipped the dead rung but the ladder went on.
            assert!(run
                .events
                .iter()
                .any(|e| matches!(e, Event::ReplicaFailed(f) if f.phase == "tempering")));
        }
    }

    #[test]
    fn losing_every_replica_is_a_typed_error_not_a_panic() {
        let nl = circuit();
        let params = parallel_params(1, 1, Strategy::MultiStart);
        let result = parallel_stage1_resilient(
            &nl,
            &fast_params(),
            &EstimatorParams::default(),
            &CoolingSchedule::stage1(),
            &params,
            42,
            &mut twmc_obs::NullRecorder,
            &mut faulted(0, 2),
        );
        match result {
            Err(twmc_parallel::OrchestratorError::AllReplicasFailed(fs)) => {
                assert_eq!(fs.len(), 1);
                assert_eq!(fs[0].replica, 0);
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("run with its only replica dead cannot succeed"),
        }
    }
}

/// A fault scheduled at a quench round fires on the same round of the
/// same rung whether the run goes through or is cut mid-quench and
/// resumed: the quench numbers its rounds on from the ladder's round
/// count, which its checkpoints carry. The ladder runs until its last
/// rung lands, after the anchor, so that count is not the anchor's
/// trajectory length.
#[test]
fn quench_fault_hits_the_same_round_after_a_resume() {
    let nl = circuit();
    let failed = |events: &[Event]| -> Vec<twmc_obs::ReplicaFailed> {
        let failed = events.iter().filter_map(|e| match e {
            Event::ReplicaFailed(f) => Some(f.clone()),
            _ => None,
        });
        failed.collect()
    };
    for threads in [1, 2] {
        let params = parallel_params(3, threads, Strategy::Tempering);
        let clean = complete_run(&nl, &params, RunCtrl::default());
        let sweeps = |phase: &str| {
            let temps = clean.events.iter().filter_map(move |e| match e {
                Event::PlaceTemp(p) if p.phase == phase => Some(p),
                _ => None,
            });
            temps.collect::<Vec<_>>()
        };
        let (ladder, quench) = (sweeps("tempering"), sweeps("quench"));
        let ladder_rounds = ladder.iter().map(|p| p.step).max().expect("ladder swept") + 1;
        let anchor = ladder.iter().filter(|p| p.replica == 2).map(|p| p.step);
        assert!(
            anchor.max() < Some(ladder_rounds - 1),
            "no rung landed after the anchor"
        );

        // Cut after quench round 2, before the fault at quench round 5.
        let head = ladder.iter().chain(quench.iter().filter(|p| p.step < 2));
        let budget = head.map(|p| p.attempts as u64).sum::<u64>() + 1;
        let round = ladder_rounds + 5;
        let full = complete_run(&nl, &params, faulted(1, round));
        let full_failed = failed(&full.events);
        assert_eq!(full_failed.len(), 1, "threads={threads}");
        let f = &full_failed[0];
        assert_eq!((f.phase, f.replica, f.round), ("quench", 1, round as u64));

        let path = temp_path(&format!("quench-fault-t{threads}"));
        let prefix = interrupted_run(&nl, &params, &path, budget, faulted(1, round));
        assert!(failed(&prefix).is_empty(), "the cut lands before the fault");
        let resumed = resumed_run(&nl, &params, &path, faulted(1, round));
        assert_eq!(failed(&resumed.events), full_failed, "threads={threads}");
        assert_stitched(&full, &prefix, &resumed, threads);
        let _ = std::fs::remove_file(&path);
    }
}
