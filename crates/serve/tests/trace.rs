//! Span-trace integration tests: the `GET /jobs/<id>/trace` endpoint,
//! live in-flight snapshots, and the one-timeline-per-job guarantee
//! across preemption and resume.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::*;
use twmc_fault::{FaultSchedule, FaultVfs};
use twmc_obs::validate::parse_json;
use twmc_serve::client;
use twmc_serve::json::get_str;
use twmc_serve::{Daemon, JobState, ServeOptions};

/// Every line of a capture must be standalone JSON, and the first
/// must be the `trace_meta` header.
fn assert_valid_capture(text: &str) {
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let head = lines.next().expect("capture has a header line");
    let head = parse_json(head).expect("header parses");
    assert_eq!(get_str(&head, "kind"), Some("trace_meta"));
    for line in lines {
        let v = parse_json(line).unwrap_or_else(|e| panic!("bad capture line `{line}`: {e}"));
        let kind = get_str(&v, "kind").expect("line has a kind");
        assert!(
            kind == "span" || kind == "trace_drop",
            "unexpected capture kind `{kind}`"
        );
    }
}

#[test]
fn trace_endpoint_serves_live_then_sealed_capture() {
    let daemon = start_daemon("trace-endpoint", 1);
    let (addr, stop, handle) = start_server(daemon.clone());

    let posted = client::post_raw(&addr, "/jobs?ac=10&seed=7", &tiny_netlist(7)).unwrap();
    assert_eq!(posted.status, 201, "{}", posted.body);
    let id = get_str(&posted.json().unwrap(), "id").unwrap().to_owned();

    // A snapshot is available the moment the job exists — queued or
    // mid-run, the capture is always a complete, parseable document.
    let live = client::get(&addr, &format!("/jobs/{id}/trace")).unwrap();
    assert_eq!(live.status, 200);
    assert_valid_capture(&live.body);

    assert_eq!(
        daemon.wait_terminal(&id, Duration::from_secs(60)),
        Some(JobState::Done)
    );

    // Terminal jobs serve the capture sealed into the spool: the full
    // lifecycle (queue wait, the running attempt, the terminal mark)
    // plus the pipeline's own spans recorded through the job recorder.
    let sealed = client::get(&addr, &format!("/jobs/{id}/trace")).unwrap();
    assert_eq!(sealed.status, 200);
    assert_valid_capture(&sealed.body);
    for needle in [
        "\"lane\":\"job\"",
        "\"name\":\"queued\"",
        "\"name\":\"running\"",
        "\"name\":\"done\"",
        "\"lane\":\"main\"",
        "\"name\":\"run\"",
        "\"name\":\"stage1\"",
        "\"name\":\"temp_step\"",
        "\"name\":\"move_block\"",
    ] {
        assert!(sealed.body.contains(needle), "capture lacks {needle}");
    }
    assert!(daemon.spool().trace_path(&id).exists());

    let missing = client::get(&addr, "/jobs/zzz/trace").unwrap();
    assert_eq!(missing.status, 404);

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}

#[test]
fn preempted_job_keeps_one_timeline_across_attempts() {
    let daemon = start_daemon("trace-preempt", 1);

    let low = daemon
        .submit(spec(long_netlist(3), 3, LONG_AC, 0))
        .unwrap()
        .id;
    assert!(wait_for(Duration::from_secs(30), || daemon.job_state(&low)
        == Some(JobState::Running)));

    // A higher-priority arrival preempts the running job; once both
    // finish, the low job's capture shows the whole story in order:
    // queued wait, first attempt, preempted wait, resume, second
    // attempt, done.
    let high = daemon.submit(spec(tiny_netlist(4), 4, 10, 5)).unwrap().id;
    assert_eq!(
        daemon.wait_terminal(&high, Duration::from_secs(60)),
        Some(JobState::Done)
    );
    assert_eq!(
        daemon.wait_terminal(&low, Duration::from_secs(120)),
        Some(JobState::Done)
    );

    let capture = daemon.trace(&low).expect("terminal job has a capture");
    assert_valid_capture(&capture);
    for needle in [
        "\"name\":\"queued\"",
        "\"name\":\"preempted\"",
        "\"name\":\"resumed\"",
        "\"name\":\"done\"",
    ] {
        assert!(capture.contains(needle), "capture lacks {needle}");
    }
    assert_eq!(
        capture.matches("\"name\":\"running\"").count(),
        2,
        "one running span per attempt"
    );
}

/// Runs one tiny job to completion over HTTP, with the spool's writes
/// under the fault schedule `faults` if given, and returns the daemon,
/// the job id and the body `GET /jobs/<id>/trace` serves once it is
/// done.
fn finished_trace(tag: &str, faults: Option<&str>) -> (Arc<Daemon>, String, String) {
    let mut opts = ServeOptions {
        workers: 1,
        spool: temp_spool(tag),
        ..Default::default()
    };
    if let Some(schedule) = faults {
        opts.vfs = Arc::new(FaultVfs::new(FaultSchedule::parse(schedule).unwrap()));
    }
    let daemon = Daemon::start(opts).expect("daemon starts");
    let (addr, stop, handle) = start_server(daemon.clone());
    let posted = client::post_raw(&addr, "/jobs?ac=5&seed=3", &tiny_netlist(3)).unwrap();
    assert_eq!(posted.status, 201, "{}", posted.body);
    let id = get_str(&posted.json().unwrap(), "id").unwrap().to_owned();
    assert_eq!(daemon.trace_is_live(&id), Some(true));
    assert_eq!(
        daemon.wait_terminal(&id, Duration::from_secs(60)),
        Some(JobState::Done)
    );
    let served = client::get(&addr, &format!("/jobs/{id}/trace")).unwrap();
    assert_eq!(served.status, 200);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    (daemon, id, served.body)
}

#[test]
fn finished_job_drops_its_rings_and_serves_the_sealed_capture() {
    let (daemon, id, served) = finished_trace("trace-sealed", None);
    // Byte for byte the spool's capture, with the rings gone.
    let spooled = std::fs::read_to_string(daemon.spool().trace_path(&id)).unwrap();
    assert_eq!(served, spooled);
    assert_eq!(daemon.trace_is_live(&id), Some(false));
    assert_eq!(daemon.trace_is_live("zzz"), None);
    assert_valid_capture(&served);
    assert!(served.contains("\"name\":\"done\""));
}

#[test]
fn failed_trace_write_keeps_the_capture_in_memory() {
    let (daemon, id, served) = finished_trace("trace-eio", Some("eio=write:trace.jsonl@1"));
    assert!(!daemon.spool().trace_path(&id).exists());
    assert_eq!(daemon.trace_is_live(&id), Some(false));
    assert_valid_capture(&served);
    for needle in [
        "\"name\":\"queued\"",
        "\"name\":\"running\"",
        "\"name\":\"done\"",
        "\"name\":\"stage1\"",
    ] {
        assert!(served.contains(needle), "capture lacks {needle}");
    }
}
