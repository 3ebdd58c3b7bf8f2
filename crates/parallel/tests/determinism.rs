//! The orchestrator's determinism contract: results depend on the master
//! seed and replica count, never on the thread count; replica 0
//! reproduces the single-replica run bit-for-bit.

use twmc_anneal::{derive_seed, CoolingSchedule};
use twmc_estimator::EstimatorParams;
use twmc_netlist::{synthesize, Netlist, SynthParams};
use twmc_obs::SummaryRecorder;
use twmc_parallel::{parallel_stage1, parallel_stage1_with, ParallelParams, Strategy};
use twmc_place::{place_stage1, place_stage1_with, PlaceParams};

fn circuit() -> Netlist {
    synthesize(&SynthParams {
        cells: 10,
        nets: 24,
        pins: 80,
        custom_fraction: 0.25,
        seed: 3,
        avg_cell_dim: 20,
        ..Default::default()
    })
}

fn fast_params() -> PlaceParams {
    PlaceParams {
        attempts_per_cell: 8,
        normalization_samples: 6,
        ..Default::default()
    }
}

fn run(
    nl: &Netlist,
    replicas: usize,
    threads: usize,
    strategy: Strategy,
) -> (Vec<(i64, i64)>, f64, twmc_parallel::ParallelReport) {
    let params = ParallelParams {
        replicas,
        threads,
        strategy,
        // Dynamic ladder: tempering runs until every rung lands.
        rounds: 0,
        swap_interval: 2,
    };
    let (state, result, report) = parallel_stage1(
        nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        &params,
        42,
    );
    let positions = state.cells().iter().map(|c| (c.pos.x, c.pos.y)).collect();
    (positions, result.teil, report)
}

#[test]
fn thread_count_does_not_change_multistart_results() {
    let nl = circuit();
    let (pos1, teil1, rep1) = run(&nl, 4, 1, Strategy::MultiStart);
    let (pos4, teil4, rep4) = run(&nl, 4, 4, Strategy::MultiStart);
    let (pos3, teil3, rep3) = run(&nl, 4, 3, Strategy::MultiStart);
    assert_eq!(teil1, teil4);
    assert_eq!(teil1, teil3);
    assert_eq!(pos1, pos4);
    assert_eq!(pos1, pos3);
    assert_eq!(rep1.best_replica, rep4.best_replica);
    assert_eq!(rep1.replica_reports, rep4.replica_reports);
    assert_eq!(rep3.replica_reports, rep4.replica_reports);
}

#[test]
fn thread_count_does_not_change_tempering_results() {
    let nl = circuit();
    let (pos1, teil1, rep1) = run(&nl, 3, 1, Strategy::Tempering);
    let (pos4, teil4, rep4) = run(&nl, 3, 4, Strategy::Tempering);
    assert_eq!(teil1, teil4);
    assert_eq!(pos1, pos4);
    // Everything but the recorded worker count must match.
    assert_eq!(rep1.best_replica, rep4.best_replica);
    assert_eq!(rep1.replica_reports, rep4.replica_reports);
    assert_eq!(rep1.swaps, rep4.swaps);
}

#[test]
fn replica_zero_matches_single_run() {
    let nl = circuit();
    let (_, single) = place_stage1(
        &nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        42,
    );
    let (_, _, report) = run(&nl, 4, 2, Strategy::MultiStart);
    // Replica 0 runs the master seed itself…
    assert_eq!(report.replica_reports[0].seed, 42);
    assert_eq!(report.replica_reports[0].teil, single.teil);
    assert_eq!(
        report.replica_reports[0].teil_trajectory,
        single.history.iter().map(|r| r.teil).collect::<Vec<_>>()
    );
    // …so the best of N can never be worse than the single run.
    let best = &report.replica_reports[report.best_replica];
    assert!(best.teil <= single.teil);
}

#[test]
fn distinct_replicas_produce_distinct_trajectories() {
    let nl = circuit();
    let (_, _, report) = run(&nl, 4, 2, Strategy::MultiStart);
    assert_eq!(report.replica_reports.len(), 4);
    for i in 0..report.replica_reports.len() {
        for j in (i + 1)..report.replica_reports.len() {
            assert_ne!(
                report.replica_reports[i].teil_trajectory,
                report.replica_reports[j].teil_trajectory,
                "replicas {i} and {j} followed the same trajectory"
            );
        }
    }
    // Seeds follow the published derivation.
    for (i, r) in report.replica_reports.iter().enumerate() {
        assert_eq!(r.seed, derive_seed(42, i));
    }
}

#[test]
fn tempering_exchanges_and_improves_over_ladder() {
    let nl = circuit();
    let (_, teil, report) = run(&nl, 3, 2, Strategy::Tempering);
    assert!(teil > 0.0);
    assert!(report.swaps.attempts > 0, "no swap sweeps ran");
    assert!(report.swaps.accepts <= report.swaps.attempts);
    // Every rung completes its own staggered descent: all have landed
    // at the stage-1 floor by the time the ladder phase reports.
    let floor = twmc_place::Stage1Context::new(&nl, &fast_params(), &EstimatorParams::default())
        .final_temperature();
    for r in &report.replica_reports {
        let t = r.rung_temperature.expect("tempering sets rung temps");
        assert!(
            t <= floor * (1.0 + 1e-9),
            "rung {} still mid-air at {t} (floor {floor})",
            r.replica
        );
    }
    // Every rung did real work while its temperature was in transit.
    for r in &report.replica_reports {
        assert!(r.attempts > 0);
        assert!(
            !r.teil_trajectory.is_empty(),
            "rung {} never entered transit",
            r.replica
        );
    }
}

#[test]
fn single_replica_passthrough_is_bit_identical() {
    let nl = circuit();
    let (state, single) = place_stage1(
        &nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        7,
    );
    let params = ParallelParams::default();
    let (pstate, presult, report) = parallel_stage1(
        &nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        &params,
        7,
    );
    assert_eq!(single.teil, presult.teil);
    assert_eq!(state.cost(), pstate.cost());
    let pos: Vec<_> = state
        .cells()
        .iter()
        .map(|c| (c.pos, c.orientation))
        .collect();
    let ppos: Vec<_> = pstate
        .cells()
        .iter()
        .map(|c| (c.pos, c.orientation))
        .collect();
    assert_eq!(pos, ppos);
    assert_eq!(report.replicas, 1);
    assert_eq!(report.best_replica, 0);
}

#[test]
fn single_replica_passthrough_records_the_same_events() {
    let nl = circuit();
    let mut plain = SummaryRecorder::new();
    place_stage1_with(
        &nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        7,
        &mut plain,
    );
    let mut orchestrated = SummaryRecorder::new();
    parallel_stage1_with(
        &nl,
        &fast_params(),
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        &ParallelParams::default(),
        7,
        &mut orchestrated,
    );
    assert!(!plain.events().is_empty());
    assert_eq!(plain.events(), orchestrated.events());
}
