//! The preemption round-trip: a long low-priority job is preempted by
//! a high-priority arrival, resumed later, and must finish with a
//! final placement bit-identical to an uninterrupted run of the same
//! spec — the service-level restatement of the interrupt→resume
//! contract.

mod common;

use std::time::Duration;

use common::*;
use twmc_core::{run_timberwolf_resilient, RunCtrl, RunOutcome};
use twmc_obs::NullRecorder;
use twmc_serve::{placement_text, JobState};

/// Runs the spec's pipeline directly, uninterrupted, and renders the
/// placement exactly as the daemon does.
fn uninterrupted_placement(spec: &twmc_serve::JobSpec) -> String {
    let nl = spec.parse_netlist().unwrap();
    let outcome =
        run_timberwolf_resilient(&nl, &spec.config(), RunCtrl::default(), &mut NullRecorder)
            .unwrap();
    match outcome {
        RunOutcome::Complete(result) => placement_text(&result.placement),
        RunOutcome::Interrupted(_) => unreachable!("no stop conditions armed"),
    }
}

#[test]
fn preempted_job_resumes_bit_identical() {
    // One worker: the long job owns it, so the urgent arrival *must*
    // preempt to run.
    let daemon = start_daemon("preempt", 1);

    let long = spec(long_netlist(5), 5, LONG_AC, 0);
    let reference = uninterrupted_placement(&long);

    let long_id = daemon.submit(long).unwrap().id;
    assert!(
        wait_for(Duration::from_secs(30), || {
            daemon.job_state(&long_id) == Some(JobState::Running)
        }),
        "long job never started"
    );

    // A strictly higher-priority submission while the only worker is
    // busy trips the long job's token at the next round boundary.
    let urgent_id = daemon.submit(spec(tiny_netlist(7), 7, 2, 10)).unwrap().id;
    assert!(
        wait_for(Duration::from_secs(30), || {
            daemon.job_state(&urgent_id) == Some(JobState::Done)
        }),
        "urgent job did not finish"
    );

    assert_eq!(
        daemon.wait_terminal(&long_id, Duration::from_secs(120)),
        Some(JobState::Done),
        "preempted job did not finish"
    );

    // The preemption actually happened and was resumed from checkpoint.
    let status = daemon.status(&long_id).unwrap();
    let preemptions = twmc_serve::json::get_u64(&status, "preemptions").unwrap();
    let resumes = twmc_serve::json::get_u64(&status, "resumes").unwrap();
    assert!(preemptions >= 1, "job was never preempted");
    assert!(resumes >= 1, "job was never resumed from its checkpoint");
    let hub = daemon.hub();
    assert!(hub.preemptions_total.value() >= 1 && hub.resumes_total.value() >= 1);

    // Bit-identical: the daemon's placement file equals the
    // uninterrupted run's, byte for byte.
    let placement = daemon.placement(&long_id).expect("placement written");
    assert_eq!(placement, reference, "preempt+resume changed the placement");

    // The stitched telemetry stream (prefix + resumed suffix) is a
    // valid, complete run record.
    let events = daemon.events(&long_id).unwrap();
    let stream = twmc_analyze::parse_stream(&events).expect("events validate");
    assert!(stream.start.is_some() && stream.end.is_some());
    assert!(stream.interrupted.is_some() && !stream.temps.is_empty());

    // The completed job's report is healthy despite the interruption.
    let result = daemon.result(&long_id).expect("result written");
    let report = twmc_obs::validate::parse_json(&result).unwrap();
    assert_eq!(
        twmc_serve::json::get_bool(&report, "healthy"),
        Some(true),
        "{result}"
    );

    daemon.begin_drain();
    assert!(daemon.wait_drained(Duration::from_secs(30)));
    let _ = std::fs::remove_dir_all(daemon.spool().root());
}
