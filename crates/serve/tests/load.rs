//! The load harness: dozens of concurrent jobs through one daemon —
//! every job completes, every telemetry stream validates and passes
//! the health checks, and at least one preemption + checkpoint resume
//! happens along the way with a bit-identical final placement.

mod common;

use std::sync::atomic::Ordering;
use std::time::Duration;

use common::*;
use twmc_analyze::{analyze, parse_stream};
use twmc_core::{run_timberwolf_resilient, RunCtrl, RunOutcome};
use twmc_obs::NullRecorder;
use twmc_serve::client;
use twmc_serve::json::get_str;
use twmc_serve::{placement_text, JobState};

/// Client threads × jobs per thread of the burst.
const CLIENTS: usize = 7;
const JOBS_PER_CLIENT: usize = 7;

#[test]
fn fifty_concurrent_jobs_with_preemption() {
    let daemon = start_daemon("load", 4);
    let (addr, stop, handle) = start_server(daemon.clone());

    // A long low-priority job first; the burst outranks it, so once
    // all four workers are busy it must get preempted.
    let long = spec(long_netlist(21), 21, LONG_AC, 0);
    let reference = {
        let nl = long.parse_netlist().unwrap();
        match run_timberwolf_resilient(&nl, &long.config(), RunCtrl::default(), &mut NullRecorder)
            .unwrap()
        {
            RunOutcome::Complete(result) => placement_text(&result.placement),
            RunOutcome::Interrupted(_) => unreachable!("no stop conditions armed"),
        }
    };
    let long_id = daemon.submit(long).unwrap().id;
    assert!(
        wait_for(Duration::from_secs(30), || {
            daemon.job_state(&long_id) == Some(JobState::Running)
        }),
        "long job never started"
    );

    // 49 concurrent higher-priority submissions from 7 client threads
    // (50 jobs total in flight).
    let submitters: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                for j in 0..JOBS_PER_CLIENT {
                    let seed = (c * JOBS_PER_CLIENT + j + 1) as u64;
                    let netlist = tiny_netlist(seed);
                    let path = format!("/jobs?seed={seed}&ac=2&priority=1&label=burst-{c}-{j}");
                    let resp = client::post_raw(&addr, &path, &netlist).expect("submit");
                    assert_eq!(resp.status, 201, "{}", resp.body);
                    ids.push(
                        get_str(&resp.json().unwrap(), "id")
                            .expect("id in response")
                            .to_owned(),
                    );
                }
                ids
            })
        })
        .collect();
    let mut ids: Vec<String> = submitters
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    ids.push(long_id.clone());
    assert_eq!(ids.len(), CLIENTS * JOBS_PER_CLIENT + 1);

    // Every job reaches `done`.
    for id in &ids {
        assert_eq!(
            daemon.wait_terminal(id, Duration::from_secs(300)),
            Some(JobState::Done),
            "job {id} did not complete: {:?}",
            daemon.status(id)
        );
    }

    // Every stream validates and passes the health checks (the same
    // gate `twmc report` applies).
    for id in &ids {
        let events = daemon.events(id).unwrap();
        let stream = parse_stream(&events).unwrap_or_else(|e| panic!("job {id}: {e}"));
        let report = analyze(&stream);
        assert!(
            report.healthy(),
            "job {id} unhealthy:\n{}",
            twmc_analyze::format_report(&report)
        );
    }

    // The burst preempted the long job at least once, it resumed from
    // its checkpoint, and the result is bit-identical regardless.
    let hub = daemon.hub();
    assert!(
        hub.preemptions_total.value() >= 1,
        "no preemption under load"
    );
    assert!(
        hub.resumes_total.value() >= 1,
        "no checkpoint resume under load"
    );
    assert_eq!(hub.jobs_completed_total.value(), ids.len() as u64);
    assert_eq!(hub.jobs_failed_total.value(), 0);
    let placement = daemon.placement(&long_id).expect("placement written");
    assert_eq!(
        placement, reference,
        "preemption under load changed the placement"
    );

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(daemon.spool().root());
}
