//! End-to-end API tests: the real daemon behind the real HTTP server
//! on a loopback port, driven by the blocking client.

mod common;

use std::sync::atomic::Ordering;
use std::time::Duration;

use common::*;
use twmc_metrics::expo;
use twmc_serve::client;
use twmc_serve::json::{get_bool, get_str};
use twmc_serve::{JobState, ServeOptions};

#[test]
fn submit_poll_events_result_placement() {
    let daemon = start_daemon("api", 2);
    let (addr, stop, handle) = start_server(daemon.clone());

    // Liveness first.
    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(get_bool(&health.json().unwrap(), "ok"), Some(true));

    // Submit one job as JSON and one as a raw netlist + query params.
    let body = format!(
        "{{\"netlist\":{},\"seed\":3,\"ac\":2,\"label\":\"json-form\"}}",
        serde_json::to_string(&serde::Value::Str(tiny_netlist(1))).unwrap()
    );
    let posted = client::post_json(&addr, "/jobs", &body).unwrap();
    assert_eq!(posted.status, 201, "{}", posted.body);
    let id_json = get_str(&posted.json().unwrap(), "id").unwrap().to_owned();

    let posted = client::post_raw(&addr, "/jobs?seed=4&ac=2", &tiny_netlist(2)).unwrap();
    assert_eq!(posted.status, 201, "{}", posted.body);
    let id_raw = get_str(&posted.json().unwrap(), "id").unwrap().to_owned();
    assert_ne!(id_json, id_raw);

    // Poll both to completion over HTTP.
    for id in [&id_json, &id_raw] {
        assert!(
            wait_for(Duration::from_secs(60), || {
                let state = client::get(&addr, &format!("/jobs/{id}")).unwrap();
                get_str(&state.json().unwrap(), "state") == Some("done")
            }),
            "job {id} did not finish"
        );
    }

    // The status payload carries the final TEIL.
    let status = client::get(&addr, &format!("/jobs/{id_json}")).unwrap();
    let v = status.json().unwrap();
    assert_eq!(get_str(&v, "state"), Some("done"));
    assert_eq!(get_str(&v, "label"), Some("json-form"));
    assert!(twmc_serve::json::get_f64(&v, "teil").unwrap() > 0.0);

    // The events stream is valid JSONL with the full run envelope.
    let events = client::get(&addr, &format!("/jobs/{id_json}/events")).unwrap();
    assert_eq!(events.status, 200);
    let stream = twmc_analyze::parse_stream(&events.body).expect("events validate");
    assert!(stream.start.is_some() && stream.end.is_some());
    assert!(!stream.temps.is_empty());

    // Result: healthy report whose findings are the analyzer's verdict
    // on the job's events, as `twmc report --json` serializes them;
    // placement: one line per cell.
    let result = client::get(&addr, &format!("/jobs/{id_json}/result")).unwrap();
    assert_eq!(result.status, 200);
    let report = result.json().unwrap();
    assert_eq!(get_bool(&report, "healthy"), Some(true), "{}", result.body);
    let findings = twmc_serve::json::get(&report, "findings").expect("findings");
    assert_eq!(
        serde_json::to_string(findings).unwrap(),
        serde_json::to_string(&twmc_analyze::analyze(&stream).findings).unwrap()
    );
    let placement = client::get(&addr, &format!("/jobs/{id_json}/placement")).unwrap();
    assert_eq!(placement.status, 200);
    assert_eq!(placement.body.lines().count(), 4);

    // The lifetime counters reflect the work done.
    let metrics = client::get(&addr, "/metrics").unwrap();
    let snap = expo::parse(&metrics.body).expect("exposition parses");
    assert_eq!(snap.scalar("twmc_jobs_submitted_total"), Some(2.0));
    assert_eq!(snap.scalar("twmc_jobs_completed_total"), Some(2.0));

    // Error paths: unknown job, bad route, wrong method, bad body.
    assert_eq!(client::get(&addr, "/jobs/j999").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/stats").unwrap().status, 404);
    assert_eq!(
        client::request(&addr, "PUT", "/jobs", None, b"")
            .unwrap()
            .status,
        405
    );
    for bad in ["not a netlist", "# nothing\n"] {
        assert_eq!(client::post_raw(&addr, "/jobs", bad).unwrap().status, 400);
    }
    assert_eq!(
        client::post_raw(&addr, "/jobs?seed=abc", &tiny_netlist(9))
            .unwrap()
            .status,
        400
    );

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}

#[test]
fn cancel_and_backpressure() {
    // One worker and a queue capacity of one: the running job holds
    // the worker, the first queued job fills the queue, the next gets
    // backpressure.
    let daemon = twmc_serve::Daemon::start(ServeOptions {
        workers: 1,
        queue_cap: 1,
        spool: temp_spool("cancel"),
        ..Default::default()
    })
    .unwrap();
    let (addr, stop, handle) = start_server(daemon.clone());

    let running = client::post_raw(&addr, "/jobs?ac=60&seed=1", &long_netlist(1)).unwrap();
    assert_eq!(running.status, 201, "{}", running.body);
    let id_running = get_str(&running.json().unwrap(), "id").unwrap().to_owned();
    assert!(wait_for(Duration::from_secs(30), || {
        daemon.job_state(&id_running) == Some(JobState::Running)
    }));

    let queued = client::post_raw(&addr, "/jobs?ac=2&seed=2", &tiny_netlist(2)).unwrap();
    assert_eq!(queued.status, 201, "{}", queued.body);
    let id_queued = get_str(&queued.json().unwrap(), "id").unwrap().to_owned();

    let rejected = client::post_raw(&addr, "/jobs?ac=2&seed=3", &tiny_netlist(3)).unwrap();
    assert_eq!(rejected.status, 429, "{}", rejected.body);

    // Cancel the queued job: immediate, terminal, frees queue space.
    let cancelled = client::delete(&addr, &format!("/jobs/{id_queued}")).unwrap();
    assert_eq!(cancelled.status, 200);
    assert_eq!(daemon.job_state(&id_queued), Some(JobState::Cancelled));
    let accepted = client::post_raw(&addr, "/jobs?ac=2&seed=4", &tiny_netlist(4)).unwrap();
    assert_eq!(accepted.status, 201, "{}", accepted.body);

    // Cancel the running job: tripped at the next round boundary.
    let cancelled = client::delete(&addr, &format!("/jobs/{id_running}")).unwrap();
    assert_eq!(cancelled.status, 200);
    assert_eq!(
        daemon.wait_terminal(&id_running, Duration::from_secs(60)),
        Some(JobState::Cancelled)
    );
    let hub = daemon.hub();
    assert_eq!(hub.jobs_cancelled_total.value(), 2);
    assert_eq!(hub.rejected_total.value(), 1);

    // Once every job is terminal, the `/metrics` scrape renders each
    // lifecycle family at the hub's value.
    let id_accepted = get_str(&accepted.json().unwrap(), "id").unwrap().to_owned();
    assert_eq!(
        daemon.wait_terminal(&id_accepted, Duration::from_secs(60)),
        Some(JobState::Done)
    );
    let metrics = client::get(&addr, "/metrics").unwrap();
    let snap = expo::parse(&metrics.body).expect("exposition parses");
    let families = [
        ("twmc_queue_depth", hub.queue_depth.value() as f64),
        ("twmc_workers", hub.workers.value() as f64),
        ("twmc_workers_busy", hub.workers_busy.value() as f64),
        (
            "twmc_jobs_submitted_total",
            hub.jobs_submitted_total.value() as f64,
        ),
        (
            "twmc_jobs_completed_total",
            hub.jobs_completed_total.value() as f64,
        ),
        (
            "twmc_jobs_failed_total",
            hub.jobs_failed_total.value() as f64,
        ),
        (
            "twmc_jobs_cancelled_total",
            hub.jobs_cancelled_total.value() as f64,
        ),
        (
            "twmc_preemptions_total",
            hub.preemptions_total.value() as f64,
        ),
        ("twmc_resumes_total", hub.resumes_total.value() as f64),
        ("twmc_rejected_total", hub.rejected_total.value() as f64),
    ];
    for (family, value) in families {
        assert_eq!(snap.scalar(family), Some(value), "`{family}`");
    }
    let health = client::get(&addr, "/healthz").unwrap().json().unwrap();
    assert_eq!(get_bool(&health, "accepting"), Some(true));

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}
