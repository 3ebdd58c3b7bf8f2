//! Graceful drain: SIGTERM (modelled by the server's stop flag) stops
//! intake, checkpoints running jobs at their next round boundary,
//! keeps answering status polls while doing so, and exits cleanly —
//! and a daemon restarted over the same spool resumes the checkpointed
//! jobs to a bit-identical completion.

mod common;

use std::sync::atomic::Ordering;
use std::time::Duration;

use common::*;
use twmc_core::{run_timberwolf_resilient, RunCtrl, RunOutcome};
use twmc_obs::NullRecorder;
use twmc_serve::{placement_text, Daemon, JobState, ServeOptions};

#[test]
fn drain_checkpoints_then_restart_resumes() {
    let spool = temp_spool("drain");
    let daemon = Daemon::start(ServeOptions {
        workers: 1,
        spool: spool.clone(),
        ..Default::default()
    })
    .unwrap();
    let (addr, stop, handle) = start_server(daemon.clone());

    // Reference: the long job run uninterrupted.
    let long = spec(long_netlist(11), 11, LONG_AC, 0);
    let nl = long.parse_netlist().unwrap();
    let reference =
        match run_timberwolf_resilient(&nl, &long.config(), RunCtrl::default(), &mut NullRecorder)
            .unwrap()
        {
            RunOutcome::Complete(result) => placement_text(&result.placement),
            RunOutcome::Interrupted(_) => unreachable!("no stop conditions armed"),
        };

    // One job running, one queued behind it.
    let long_id = daemon.submit(long).unwrap().id;
    let queued_id = daemon.submit(spec(tiny_netlist(12), 12, 2, 0)).unwrap().id;
    assert!(
        wait_for(Duration::from_secs(30), || {
            daemon.job_state(&long_id) == Some(JobState::Running)
        }),
        "long job never started"
    );

    // SIGTERM.
    stop.store(true, Ordering::Relaxed);

    // While the drain is in flight the daemon still answers polls and
    // refuses new work with 503.
    assert!(wait_for(Duration::from_secs(10), || !daemon.accepting()));
    let poll = twmc_serve::client::get(&addr, &format!("/jobs/{long_id}")).unwrap();
    assert_eq!(poll.status, 200, "{}", poll.body);
    let refused =
        twmc_serve::client::post_raw(&addr, "/jobs?ac=2&seed=1", &tiny_netlist(1)).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body);

    // The server returns cleanly once everything is checkpointed.
    handle.join().unwrap().expect("drain exits cleanly");
    assert!(daemon.drained());

    // The running job was persisted as preempted with a checkpoint;
    // the queued job is still queued; nothing was lost.
    assert_eq!(daemon.job_state(&long_id), Some(JobState::Preempted));
    assert_eq!(daemon.job_state(&queued_id), Some(JobState::Queued));
    assert!(
        daemon.spool().checkpoint_path(&long_id).exists(),
        "drain did not leave a checkpoint behind"
    );
    drop(daemon);

    // Restart over the same spool: both jobs run to completion, the
    // drained one from its checkpoint.
    let daemon = Daemon::start(ServeOptions {
        workers: 2,
        spool: spool.clone(),
        ..Default::default()
    })
    .unwrap();
    assert_eq!(
        daemon.wait_terminal(&long_id, Duration::from_secs(120)),
        Some(JobState::Done)
    );
    assert_eq!(
        daemon.wait_terminal(&queued_id, Duration::from_secs(60)),
        Some(JobState::Done)
    );
    assert!(
        daemon.hub().resumes_total.value() >= 1,
        "restart did not resume from checkpoint"
    );

    // Bit-identical across the drain + restart.
    let placement = daemon.placement(&long_id).expect("placement written");
    assert_eq!(placement, reference, "drain+restart changed the placement");

    // The stitched stream still validates end to end.
    let events = daemon.events(&long_id).unwrap();
    twmc_analyze::parse_stream(&events).expect("events validate");

    daemon.begin_drain();
    assert!(daemon.wait_drained(Duration::from_secs(30)));
    let _ = std::fs::remove_dir_all(&spool);
}
