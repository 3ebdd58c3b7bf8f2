//! Crash-consistency harness: for every crashpoint of the durable
//! write sequences (`state.json`, `job.ckpt`) the daemon must restart
//! into a spool where the interrupted job either resumes bit-identically
//! from its checkpoint or is cleanly re-run from scratch — never
//! half-adopted, never a corrupt telemetry stream — and client retries
//! carrying an `Idempotency-Key` must never create a duplicate job,
//! faults or not.
//!
//! The matrix does not crash a live daemon in-process: zombie worker
//! threads would keep raw file handles open across the "restart" and
//! corrupt the replay. Instead a real daemon run is drained to snapshot
//! a spool holding a preempted job mid-run, and each crash prefix is
//! replayed over a copy of that snapshot through a latched
//! [`FaultVfs`] before booting a fresh daemon on the wreckage.

mod common;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use common::*;
use twmc_core::{run_timberwolf_resilient, RunCtrl, RunOutcome};
use twmc_fault::{atomic_write_durable, tmp_sibling, FaultSchedule, FaultVfs, ATOMIC_STAGES};
use twmc_obs::NullRecorder;
use twmc_serve::{client, placement_text, Daemon, JobState, ServeOptions, QUARANTINE_DIR};

/// Recursively copies a spool snapshot so each matrix case replays its
/// crash over pristine state.
fn copy_tree(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

fn start_over(spool: PathBuf, workers: usize) -> Arc<Daemon> {
    Daemon::start(ServeOptions {
        workers,
        spool,
        ..Default::default()
    })
    .expect("daemon adopts the spool")
}

/// Produces a spool snapshot holding one long job drained mid-run
/// (state `preempted`, `job.ckpt` present, a clean telemetry prefix)
/// plus the placement an uninterrupted run of the same spec yields.
fn drained_snapshot(tag: &str) -> (PathBuf, String, String) {
    let long = spec(long_netlist(23), 23, LONG_AC, 0);
    let nl = long.parse_netlist().unwrap();
    let reference =
        match run_timberwolf_resilient(&nl, &long.config(), RunCtrl::default(), &mut NullRecorder)
            .unwrap()
        {
            RunOutcome::Complete(result) => placement_text(&result.placement),
            RunOutcome::Interrupted(_) => unreachable!("no stop conditions armed"),
        };

    let spool = temp_spool(tag);
    let daemon = start_over(spool.clone(), 1);
    let id = daemon.submit(long).unwrap().id;
    assert!(
        wait_for(Duration::from_secs(30), || {
            daemon.job_state(&id) == Some(JobState::Running)
        }),
        "job never started"
    );
    daemon.begin_drain();
    assert!(daemon.wait_drained(Duration::from_secs(60)), "drain hung");
    assert_eq!(daemon.job_state(&id), Some(JobState::Preempted));
    assert!(
        daemon.spool().checkpoint_path(&id).exists(),
        "drain left no checkpoint"
    );
    drop(daemon);
    (spool, id, reference)
}

/// Asserts a restarted daemon over `spool` finishes job `id` with the
/// reference placement, a validating telemetry stream, and an empty
/// quarantine — the "resumed bit-identically or cleanly re-run, never
/// half-adopted" contract.
fn assert_recovers(spool: PathBuf, id: &str, reference: &str, context: &str) {
    let daemon = start_over(spool.clone(), 1);
    assert_eq!(
        daemon.hub().spool_quarantined.value(),
        0,
        "{context}: recovery must adopt, not quarantine"
    );
    assert_eq!(
        daemon.wait_terminal(id, Duration::from_secs(180)),
        Some(JobState::Done),
        "{context}: job did not finish"
    );
    let placement = daemon.placement(id).expect("placement written");
    assert_eq!(
        placement, reference,
        "{context}: crash recovery changed the placement"
    );
    let events = daemon.events(id).unwrap();
    twmc_analyze::parse_stream(&events)
        .unwrap_or_else(|e| panic!("{context}: events do not validate: {e}"));
    daemon.begin_drain();
    assert!(daemon.wait_drained(Duration::from_secs(30)));
    drop(daemon);
    let _ = fs::remove_dir_all(&spool);
}

/// The crashpoint matrix: freeze the disk at every stage of an atomic
/// rewrite of `state.json` (a lifecycle update racing the crash) and of
/// `job.ckpt` (a checkpoint flush racing it, landing garbage), then
/// restart. Old-or-new is acceptable at every stage; torn never is.
/// Stages before the rename leave the valid old file (the job resumes
/// from its checkpoint); stages at or after the rename publish the new
/// content — for the garbage checkpoint that means the daemon discards
/// it and re-runs the job from scratch, converging on the same
/// placement by determinism.
#[test]
fn crashpoint_matrix_resumes_or_reruns_never_half_adopts() {
    let (snapshot, id, reference) = drained_snapshot("crash-matrix");

    for (file, new_bytes) in [
        (
            "state.json",
            b"{\"state\":\"running\",\"preemptions\":1,\"resumes\":0}".as_slice(),
        ),
        ("job.ckpt", b"garbage left by a crashed writer".as_slice()),
    ] {
        for stage in ATOMIC_STAGES {
            let case = format!("{file}:{stage}");
            let spool = temp_spool(&format!("crash-{file}-{stage}"));
            copy_tree(&snapshot, &spool);
            let target = spool.join(&id).join(file);

            let vfs = FaultVfs::new(FaultSchedule::crash_at(&case));
            let err = atomic_write_durable(&vfs, &target, new_bytes)
                .expect_err("the crashpoint must fire");
            assert!(vfs.crashed(), "{case}: vfs did not latch ({err})");

            // A crash mid-append can also tear the telemetry tail;
            // stack that damage on top of every matrix case.
            let events = spool.join(&id).join("events.jsonl");
            let mut bytes = fs::read(&events).unwrap();
            bytes.extend_from_slice(b"{\"kind\":\"tor");
            fs::write(&events, bytes).unwrap();

            assert_recovers(spool, &id, &reference, &case);
        }
    }
    let _ = fs::remove_dir_all(&snapshot);
}

/// A crash at any prefix of `create_job`'s spec write either leaves a
/// fully adoptable job or a dir the scan ignores as foreign — never a
/// half-adopted one, and never a wedged startup.
#[test]
fn create_job_crash_prefixes_never_half_adopt() {
    for stage in ATOMIC_STAGES {
        let spool = temp_spool(&format!("create-{stage}"));
        let vfs: Arc<FaultVfs> = Arc::new(FaultVfs::new(FaultSchedule::crash_at(&format!(
            "spec.json:{stage}"
        ))));
        {
            let daemon = Daemon::start(ServeOptions {
                workers: 1,
                spool: spool.clone(),
                vfs: Arc::clone(&vfs) as Arc<dyn twmc_fault::Vfs>,
                ..Default::default()
            })
            .unwrap();
            // The submission fails (the crash surfaces as an I/O error)
            // or survives past the durable point; both are legal.
            let _ = daemon.submit(spec(tiny_netlist(5), 5, 2, 0));
            assert!(vfs.crashed(), "stage {stage}: crashpoint never fired");
            daemon.begin_drain();
            assert!(daemon.wait_drained(Duration::from_secs(30)));
        }

        // Restart over the wreckage with a healthy disk.
        let daemon = start_over(spool.clone(), 1);
        assert_eq!(daemon.hub().spool_quarantined.value(), 0, "stage {stage}");
        let adopted = daemon.hub().jobs_submitted_total.value() == 0;
        // Either no job was adopted (crash before the rename published
        // spec.json) or the adopted job runs to completion.
        if let Some(state) = daemon.job_state("j1") {
            assert!(
                !state.terminal() || state == JobState::Done,
                "stage {stage}: adopted job in state {state:?}"
            );
            assert_eq!(
                daemon.wait_terminal("j1", Duration::from_secs(60)),
                Some(JobState::Done),
                "stage {stage}: adopted job did not finish"
            );
        } else {
            assert!(adopted, "stage {stage}: job table and counters disagree");
        }
        daemon.begin_drain();
        assert!(daemon.wait_drained(Duration::from_secs(30)));
        let _ = fs::remove_dir_all(&spool);
    }
}

/// Startup over a spool with torn metadata quarantines the bad dirs,
/// adopts the rest, and publishes the count on the metrics plane.
#[test]
fn startup_quarantines_torn_job_dirs_and_exposes_the_gauge() {
    let spool = temp_spool("quarantine-gauge");
    {
        let daemon = start_over(spool.clone(), 1);
        let id = daemon.submit(spec(tiny_netlist(9), 9, 2, 0)).unwrap().id;
        assert_eq!(
            daemon.wait_terminal(&id, Duration::from_secs(60)),
            Some(JobState::Done)
        );
        daemon.begin_drain();
        assert!(daemon.wait_drained(Duration::from_secs(30)));
    }
    // Tear one job dir's spec and plant a stale tmp in the good one.
    let torn = spool.join("torn");
    fs::create_dir_all(&torn).unwrap();
    fs::write(torn.join("spec.json"), b"{\"id\":\"to").unwrap();
    fs::write(spool.join("j1").join("state.json.tmp"), b"stale").unwrap();

    let daemon = start_over(spool.clone(), 1);
    assert_eq!(daemon.hub().spool_quarantined.value(), 1);
    assert!(spool.join(QUARANTINE_DIR).join("torn").exists());
    assert!(!spool.join("j1").join("state.json.tmp").exists());
    // The good job is still adopted, terminal state intact.
    assert_eq!(daemon.job_state("j1"), Some(JobState::Done));
    // The gauge rides the exposition for `twmc report SNAPSHOT.prom`.
    let scrape = daemon.hub().render();
    assert!(
        scrape.contains("twmc_spool_quarantined 1"),
        "gauge missing from exposition:\n{scrape}"
    );
    let findings = twmc_analyze::check_metrics_snapshot(&scrape).unwrap();
    assert_eq!(
        twmc_analyze::worst(&findings),
        twmc_analyze::Severity::Fail,
        "a quarantined job must breach the report gate"
    );
    daemon.begin_drain();
    assert!(daemon.wait_drained(Duration::from_secs(30)));
    let _ = fs::remove_dir_all(&spool);
}

/// `Idempotency-Key` dedupes over HTTP (201 then 200 with the same id),
/// across a daemon restart, and — the contract under test — across
/// client retries racing injected spool faults: the key never creates
/// two jobs.
#[test]
fn idempotency_key_never_double_submits() {
    let spool = temp_spool("idem");
    // Fault: the first spec write dies with ENOSPC, so the first
    // submission attempt fails after the id was assigned.
    let vfs = Arc::new(FaultVfs::new(
        FaultSchedule::parse("enospc=write:spec.json@1").unwrap(),
    ));
    let daemon = Daemon::start(ServeOptions {
        workers: 1,
        spool: spool.clone(),
        vfs: vfs as Arc<dyn twmc_fault::Vfs>,
        ..Default::default()
    })
    .unwrap();
    let (addr, stop, handle) = start_server(daemon.clone());

    let policy = client::RetryPolicy {
        base: Duration::from_millis(1),
        ..Default::default()
    };
    let post = |key: &str| {
        client::request_with_retry(
            &addr,
            "POST",
            "/jobs?ac=2&seed=3",
            Some("text/plain"),
            &[("Idempotency-Key", key)],
            tiny_netlist(3).as_bytes(),
            &policy,
        )
        .unwrap()
    };

    // The first wire attempt hits the injected ENOSPC and comes back
    // 500; the client's backoff retries it transparently (the key was
    // never recorded by the failed attempt) and the call returns the
    // clean 201 from the second attempt.
    let second = post("job-alpha");
    assert_eq!(second.status, 201, "{}", second.body);
    let created = second.json().unwrap();
    let id = twmc_serve::json::get_str(&created, "id")
        .unwrap()
        .to_owned();

    // Replaying the same key dedupes: 200, same id, deduped flag set.
    let replay = post("job-alpha");
    assert_eq!(replay.status, 200, "{}", replay.body);
    let replayed = replay.json().unwrap();
    assert_eq!(
        twmc_serve::json::get_str(&replayed, "id"),
        Some(id.as_str())
    );
    assert_eq!(
        twmc_serve::json::get_bool(&replayed, "deduped"),
        Some(true),
        "{}",
        replay.body
    );
    assert_eq!(
        daemon.hub().jobs_submitted_total.value(),
        1,
        "key created two jobs"
    );

    // The dedupe survives a restart: the key is persisted in spec.json
    // and rebuilt into the map by the startup scan.
    assert_eq!(
        daemon.wait_terminal(&id, Duration::from_secs(60)),
        Some(JobState::Done)
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    drop(daemon);

    let daemon = start_over(spool.clone(), 1);
    let (addr, stop, handle) = start_server(daemon.clone());
    let replay = client::request_with_retry(
        &addr,
        "POST",
        "/jobs?ac=2&seed=3",
        Some("text/plain"),
        &[("Idempotency-Key", "job-alpha")],
        tiny_netlist(3).as_bytes(),
        &policy,
    )
    .unwrap();
    assert_eq!(replay.status, 200, "{}", replay.body);
    let replayed = replay.json().unwrap();
    assert_eq!(
        twmc_serve::json::get_str(&replayed, "id"),
        Some(id.as_str())
    );
    assert_eq!(
        daemon.hub().jobs_submitted_total.value(),
        0,
        "restart replay created a job"
    );

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    let _ = fs::remove_dir_all(&spool);
}

/// The torn-write fault: a checkpoint flush that "succeeds" but lands a
/// prefix is detected at resume (typed error, never a panic), the
/// checkpoint is discarded, and the job re-runs cleanly.
#[test]
fn torn_checkpoint_is_discarded_and_job_reruns() {
    let (snapshot, id, reference) = drained_snapshot("torn-ckpt");

    let spool = temp_spool("torn-ckpt-replay");
    copy_tree(&snapshot, &spool);
    let ckpt = spool.join(&id).join("job.ckpt");
    // Replay the checkpoint flush through a torn-write VFS: the call
    // reports success, the file holds a seeded prefix.
    let vfs = FaultVfs::new(FaultSchedule::parse("seed=11, torn=write:job.ckpt@1").unwrap());
    let full = fs::read(&ckpt).unwrap();
    atomic_write_durable(&vfs, &ckpt, &full).unwrap();
    assert!(vfs.tore(), "torn clause never fired");
    assert!(
        fs::read(&ckpt).unwrap().len() < full.len(),
        "replay did not tear the checkpoint"
    );
    assert!(!tmp_sibling(&ckpt).exists());

    assert_recovers(spool, &id, &reference, "torn job.ckpt");
    let _ = fs::remove_dir_all(&snapshot);
}
