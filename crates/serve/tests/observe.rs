//! Observability integration tests: the live `/metrics` exposition,
//! streaming event tails (`?follow=1`), keep-alive connections, and
//! the upgraded `/healthz` — all against the real daemon and server
//! on a loopback port.

mod common;

use std::sync::atomic::Ordering;
use std::time::Duration;

use common::*;
use twmc_analyze::parse_stream;
use twmc_metrics::expo;
use twmc_serve::client::{self, FollowEnd};
use twmc_serve::json::{get_str, get_u64};
use twmc_serve::{server::MAX_REQUESTS_PER_CONN, JobState};

/// A prefix of a live JSONL stream is valid when the stream reader
/// either accepts it outright or complains *only* that the run
/// envelope is still open — the one incompleteness a mid-run prefix is
/// allowed. Any other diagnostic is a real defect.
fn assert_valid_prefix(prefix: &[u8]) {
    let text = std::str::from_utf8(prefix).expect("stream chunks are UTF-8");
    if let Err(e) = parse_stream(text) {
        assert!(
            e.contains("no matching `run_end`"),
            "mid-stream prefix failed validation: {e}"
        );
    }
}

#[test]
fn follow_streams_validator_clean_chunks_to_completion() {
    let daemon = start_daemon("follow", 1);
    let (addr, stop, handle) = start_server(daemon.clone());

    let posted = client::post_raw(
        &addr,
        &format!("/jobs?ac={LONG_AC}&seed=1"),
        &long_netlist(1),
    )
    .unwrap();
    assert_eq!(posted.status, 201, "{}", posted.body);
    let id = get_str(&posted.json().unwrap(), "id").unwrap().to_owned();

    // Follow the tail while the job runs. Every chunk is whole JSONL
    // lines, so every accumulated prefix must pass the reader (up
    // to the still-open run envelope).
    let mut prefix = Vec::new();
    let mut chunks = 0usize;
    let (end, received) = client::follow(&addr, &format!("/jobs/{id}/events?follow=1"), |chunk| {
        chunks += 1;
        assert!(chunk.ends_with(b"\n"), "chunk is not whole JSONL lines");
        prefix.extend_from_slice(chunk);
        assert_valid_prefix(&prefix);
        true
    })
    .unwrap();

    // The terminating chunk only lands once the job is terminal and
    // the file is drained — so the assembled stream is the complete,
    // fully valid telemetry of the run.
    assert_eq!(end, FollowEnd::Complete);
    assert!(chunks > 1, "a multi-second run should stream incrementally");
    assert_eq!(daemon.job_state(&id), Some(JobState::Done));
    let text = String::from_utf8(received).unwrap();
    let stream = parse_stream(&text).expect("assembled stream validates");
    assert!(stream.start.is_some() && stream.end.is_some());
    assert!(!stream.temps.is_empty());

    // The streamed bytes match the spooled event file exactly.
    let spooled = client::get(&addr, &format!("/jobs/{id}/events")).unwrap();
    assert_eq!(spooled.status, 200);
    assert_eq!(text, spooled.body);

    // Following an already-finished job replays the file and ends.
    let (end, replay) =
        client::follow(&addr, &format!("/jobs/{id}/events?follow=1"), |_| true).unwrap();
    assert_eq!(end, FollowEnd::Complete);
    assert_eq!(String::from_utf8(replay).unwrap(), text);

    // An unknown job is a plain 404, not a stream.
    let err = client::follow(&addr, "/jobs/j999/events?follow=1", |_| true).unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}

#[test]
fn client_disconnect_mid_stream_leaves_the_worker_unaffected() {
    let daemon = start_daemon("disconnect", 1);
    let (addr, stop, handle) = start_server(daemon.clone());

    let posted = client::post_raw(
        &addr,
        &format!("/jobs?ac={LONG_AC}&seed=2"),
        &long_netlist(2),
    )
    .unwrap();
    assert_eq!(posted.status, 201, "{}", posted.body);
    let id = get_str(&posted.json().unwrap(), "id").unwrap().to_owned();
    assert!(wait_for(Duration::from_secs(30), || {
        daemon.job_state(&id) == Some(JobState::Running)
    }));

    // Drop the connection after the first delivered chunk — the
    // simulated client vanishing mid-stream.
    let (end, received) =
        client::follow(&addr, &format!("/jobs/{id}/events?follow=1"), |_| false).unwrap();
    assert_eq!(end, FollowEnd::ClientStopped);
    assert!(!received.is_empty());

    // The worker never notices: the job runs to completion and its
    // telemetry is intact.
    assert_eq!(
        daemon.wait_terminal(&id, Duration::from_secs(120)),
        Some(JobState::Done)
    );
    let events = client::get(&addr, &format!("/jobs/{id}/events")).unwrap();
    let stream = parse_stream(&events.body).expect("events validate after disconnect");
    assert!(stream.start.is_some() && stream.end.is_some());
    assert_eq!(daemon.hub().jobs_completed_total.value(), 1);

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}

#[test]
fn metrics_exposition_covers_daemon_and_hot_path_families() {
    let daemon = start_daemon("metrics", 2);
    let (addr, stop, handle) = start_server(daemon.clone());

    let posted = client::post_raw(&addr, "/jobs?ac=2&seed=3", &tiny_netlist(3)).unwrap();
    assert_eq!(posted.status, 201, "{}", posted.body);
    let id = get_str(&posted.json().unwrap(), "id").unwrap().to_owned();
    assert_eq!(
        daemon.wait_terminal(&id, Duration::from_secs(60)),
        Some(JobState::Done)
    );

    let scraped = client::get(&addr, "/metrics").unwrap();
    assert_eq!(scraped.status, 200);
    let snap = expo::parse(&scraped.body).expect("exposition parses");

    // Daemon families: submission counted, job accounted done, the
    // queue drained, and the scrape itself counted as a request.
    assert_eq!(snap.scalar("twmc_jobs_submitted_total"), Some(1.0));
    assert_eq!(snap.scalar("twmc_jobs_completed_total"), Some(1.0));
    assert_eq!(snap.labeled("twmc_jobs", "state=\"done\""), Some(1.0));
    assert_eq!(snap.labeled("twmc_jobs", "state=\"running\""), Some(0.0));
    assert_eq!(snap.scalar("twmc_queue_depth"), Some(0.0));
    assert_eq!(snap.scalar("twmc_workers"), Some(2.0));
    assert_eq!(snap.scalar("twmc_workers_busy"), Some(0.0));
    assert!(snap.scalar("twmc_http_requests_total").unwrap() >= 2.0);
    let wait = snap.histogram("twmc_queue_wait_ms").expect("queue wait");
    assert_eq!(wait.count, 1, "one job crossed the queue");

    // Hot-path families threaded from the annealer: moves attempted
    // and accepted, sampled per-move eval latencies with sane bounds.
    assert!(snap.scalar("twmc_moves_total").unwrap() > 0.0);
    assert!(snap.scalar("twmc_moves_accepted_total").unwrap() > 0.0);
    assert!(snap.scalar("twmc_temp_steps_total").unwrap() > 0.0);
    let evals = snap.histogram("twmc_move_eval_ns").expect("move eval");
    assert!(evals.count > 0, "sampled move timings recorded");
    assert!(evals.sum > 0.0);

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}

#[test]
fn healthz_reports_version_uptime_and_load_gauges() {
    let daemon = start_daemon("healthz", 3);
    let (addr, stop, handle) = start_server(daemon);

    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let v = health.json().unwrap();
    // The test binary shares the workspace version with the daemon.
    assert_eq!(get_str(&v, "version"), Some(env!("CARGO_PKG_VERSION")));
    assert!(get_u64(&v, "uptime_secs").is_some());
    assert_eq!(get_u64(&v, "workers"), Some(3));
    assert_eq!(get_u64(&v, "workers_busy"), Some(0));
    assert_eq!(get_u64(&v, "queue_depth"), Some(0));

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}

#[test]
fn keep_alive_serves_many_requests_then_enforces_the_budget() {
    let daemon = start_daemon("keepalive", 1);
    let (addr, stop, handle) = start_server(daemon.clone());

    // One persistent connection serves the whole request budget...
    let mut conn = client::Conn::connect(&addr).unwrap();
    for i in 1..=MAX_REQUESTS_PER_CONN {
        let resp = conn
            .get("/healthz")
            .unwrap_or_else(|e| panic!("request {i} on a keep-alive connection failed: {e}"));
        assert_eq!(resp.status, 200, "request {i}");
    }
    // ...then the server closes it, and a fresh connection works.
    assert!(conn.get("/healthz").is_err(), "budget exhaustion closes");
    let resp = client::Conn::connect(&addr)
        .unwrap()
        .get("/healthz")
        .unwrap();
    assert_eq!(resp.status, 200);

    // Every request on the shared connection was counted once.
    assert!(
        daemon.hub().http_requests_total.value() > MAX_REQUESTS_PER_CONN as u64,
        "keep-alive requests hit the metrics plane"
    );

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}
