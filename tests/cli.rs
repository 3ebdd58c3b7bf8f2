//! End-user test of the `twmc` command-line tool: synth → place → svg.

use std::process::Command;

fn twmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_twmc"))
}

#[test]
fn synth_place_compare_roundtrip() {
    let dir = std::env::temp_dir().join(format!("twmc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let netlist = dir.join("tiny.twn");
    let svg = dir.join("tiny.svg");
    let placement = dir.join("tiny.place");

    // Synthesize a small circuit.
    let out = twmc()
        .args([
            "synth", "--cells", "6", "--nets", "12", "--pins", "40", "--seed", "3", "--out",
        ])
        .arg(&netlist)
        .output()
        .expect("run twmc synth");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(netlist.exists());

    // Place it with SVG and placement outputs.
    let out = twmc()
        .arg("place")
        .arg(&netlist)
        .args(["--ac", "8", "--seed", "3", "--svg"])
        .arg(&svg)
        .arg("--placement")
        .arg(&placement)
        .output()
        .expect("run twmc place");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TEIL"), "{stdout}");
    let svg_text = std::fs::read_to_string(&svg).expect("svg written");
    assert!(svg_text.starts_with("<svg"));
    let place_text = std::fs::read_to_string(&placement).expect("placement written");
    assert_eq!(place_text.lines().count(), 6, "{place_text}");

    // Errors are reported cleanly, not as panics.
    let out = twmc()
        .args(["place", "/nonexistent/file.twn"])
        .output()
        .expect("run twmc place");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");

    // No-args prints usage.
    let out = twmc().output().expect("run twmc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_and_diff_judge_recorded_runs() {
    use timberwolfmc::analyze::testgen::{pathological_stream, synth_stream, SynthSpec};

    let dir = std::env::temp_dir().join(format!("twmc-cli-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |file: &str, text: String| {
        let path = dir.join(file).to_str().unwrap().to_owned();
        std::fs::write(&path, text).expect("write stream");
        path
    };
    let healthy = write("healthy.jsonl", synth_stream(&SynthSpec::default()));
    let sick = write("pathological.jsonl", pathological_stream());
    // Same run shape, 10% worse cost trajectory: TEIL regresses past
    // the 2% bound.
    let worse = SynthSpec {
        cost0: 1.1e6,
        ..SynthSpec::default()
    };
    let regressed = write("regressed.jsonl", synth_stream(&worse));
    let empty = write("empty.jsonl", "\n  \n".to_owned());
    // Exit code, stdout and stderr of one `twmc` run.
    let run = |args: &[&str]| {
        let out = twmc().args(args).output().expect("run twmc");
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.code(), text(&out.stdout), text(&out.stderr))
    };

    // A healthy run reports cleanly and exits 0; JSON mode emits
    // machine-readable findings.
    let (code, stdout, stderr) = run(&["report", &healthy]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("verdict: pass\n"), "{stdout}");
    assert!(stdout.contains("schedule.table1"), "{stdout}");
    let (code, stdout, _) = run(&["report", &healthy, "--json"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"findings\""), "{stdout}");

    // A pathological cooling schedule is flagged and fails the command
    // with exit 2, as every judgement with a Fail finding does.
    let (code, stdout, _) = run(&["report", &sick]);
    assert_eq!(code, Some(2));
    assert!(stdout.contains("FAIL  schedule.table1"), "{stdout}");
    assert!(stdout.contains("verdict: FAIL\n"), "{stdout}");

    // Diffing a run against itself is clean (exit 0), while a seeded
    // TEIL regression trips the gate with exit 2.
    let (code, stdout, _) = run(&["diff", &healthy, &healthy]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.ends_with("verdict: pass\n"), "{stdout}");
    let (code, stdout, _) = run(&["diff", &healthy, &regressed]);
    assert_eq!(code, Some(2));
    assert!(stdout.contains("FAIL  diff.teil"), "{stdout}");

    // Unreadable or empty input is an operational error (exit 1) naming
    // the file, not a panic.
    for file in ["/nonexistent/run.jsonl", &empty] {
        let (code, _, stderr) = run(&["report", file]);
        assert_eq!(code, Some(1));
        assert!(stderr.contains(file), "{stderr}");
    }

    // The artefact picks its reader: the old mode flags are unknown.
    let (code, _, stderr) = run(&["report", "--trace", &healthy]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown flag `--trace`"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_prints_run_tables_and_converts_traces() {
    use timberwolfmc::{analyze::parse_capture, trace::chrome_trace_json};

    let dir = std::env::temp_dir().join(format!("twmc-cli-tables-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |file: &str| dir.join(file).to_str().unwrap().to_owned();
    let (netlist, telemetry) = (path("tiny.twn"), path("run.jsonl"));
    let (capture, chrome) = (path("run.trace.jsonl"), path("chrome.json"));
    let run = |args: &[&str]| twmc().args(args).output().expect("run twmc");
    let synth = format!("synth --cells 6 --nets 12 --pins 40 --out {netlist}");
    let place = format!("place {netlist} --ac 8 --telemetry {telemetry} --trace {capture}");
    assert!(run(&synth.split(' ').collect::<Vec<_>>()).status.success());
    let out = run(&place.split(' ').collect::<Vec<_>>());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let hint = format!("convert: twmc report {capture} --out chrome.json");
    assert!(stderr.contains(&hint), "{stderr}");

    // The report on a recorded run prints the run tables after the verdict.
    let out = run(&["report", &telemetry]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let tables = stdout.find("anneal runs:").expect("an anneal table");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout[..tables].contains("verdict: pass\n"), "{stdout}");
    assert!(stdout[tables..].contains("\n  stage1 "), "{stdout}");

    // The capture is told apart by its content: `report CAP --out F`
    // writes its Chrome Trace Event JSON and prints what `report CAP`
    // prints, the findings and their verdict ahead of the self-time table.
    let plain = run(&["report", &capture]);
    let converted = run(&["report", &capture, "--out", &chrome]);
    assert_eq!(converted.status.code(), plain.status.code());
    assert_eq!(converted.stdout, plain.stdout);
    let stdout = String::from_utf8_lossy(&plain.stdout);
    assert!(stdout.starts_with("PASS  trace.spans"), "{stdout}");
    assert!(stdout.contains("verdict: "), "{stdout}");
    let snap = parse_capture(&std::fs::read_to_string(&capture).unwrap()).unwrap();
    assert_eq!(
        std::fs::read_to_string(&chrome).unwrap(),
        chrome_trace_json(&snap)
    );

    // `--out` belongs to a capture: with a run stream it is an error
    // naming the file, and nothing is written.
    let stray = path("stray.json");
    let out = run(&["report", &telemetry, "--out", &stray]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains(&telemetry));
    assert!(!std::path::Path::new(&stray).exists());

    // There is no `trace` subcommand: it prints the usage and exits 1.
    let out = run(&["trace", &capture]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_judges_metrics_scrapes_and_bench_summaries() {
    use timberwolfmc::obs::MetricsHub;

    let dir = std::env::temp_dir().join(format!("twmc-cli-gates-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let judge = |name: &str, text: &str| {
        let file = dir.join(name);
        std::fs::write(&file, text).expect("write artefact");
        let out = twmc().arg("report").arg(&file).output().expect("report");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout)
    };

    // A `/metrics` scrape is held to the fixed operational bounds.
    let hub = MetricsHub::new();
    hub.workers.set(2);
    let (code, stdout) = judge("healthy.prom", &hub.render());
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.ends_with("verdict: pass\n"), "{stdout}");
    hub.jobs_failed_total.inc();
    let (code, stdout) = judge("failed.prom", &hub.render());
    assert_eq!(code, Some(2), "{stdout}");
    assert!(
        stdout.contains("FAIL  metrics.twmc_jobs_failed_total"),
        "{stdout}"
    );

    // A parallel-bench summary: the committed one passes, and a ladder
    // that loses to multistart at 4 replicas fails.
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_parallel.json");
    let out = twmc().args(["report", committed]).output().expect("report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("PASS  bench.equal_wall     x4:"),
        "{stdout}"
    );
    let losing = "{\"equal_wall\":[{\"replicas\":4,\"tempering_wall_seconds\":1.0,\
                  \"tempering_best_teil\":18000,\"multistart_batches\":2,\
                  \"multistart_wall_seconds\":0.9,\"multistart_best_teil\":17000}]}";
    let (code, stdout) = judge("losing.json", losing);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.contains("loses at equal wall clock"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_is_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("twmc-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let netlist = dir.join("tiny.twn");
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/baseline-run.jsonl"
    );
    let synth = ["synth", "--cells", "4", "--nets", "8", "--out"];
    let runs: [&[&str]; 3] = [&["report", fixture], &["report", "--json", fixture], &synth];
    for args in runs {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let mut cmd = twmc();
        cmd.args(args).stdout(writer);
        if args[0] == "synth" {
            cmd.arg(&netlist);
        }
        let out = cmd.output().expect("run twmc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(netlist.exists(), "synth stopped before writing its circuit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_inputs_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("twmc-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |args: &[&str]| twmc().args(args).output().expect("run twmc");

    // A netlist with no cells is refused where it is read, naming it.
    for (name, text) in [("zero.twn", ""), ("comment.twn", "# nothing\n")] {
        let file = dir.join(name);
        std::fs::write(&file, text).expect("write netlist");
        let out = run(&["place", file.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!(
                "{}: line 0: the netlist defines no cells",
                file.display()
            )),
            "{stderr}"
        );
    }

    // `synth` refuses a circuit without cells or nets as a flag error.
    let out_file = dir.join("never.twn");
    for flag in ["--cells", "--nets"] {
        let out = run(&["synth", flag, "0", "--out", out_file.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "{stderr}"
        );
        assert!(!out_file.exists());
    }

    // A net-less circuit places, with a TEIL of 0 (not -0).
    let netless = dir.join("netless.twn");
    let cells = "macro a\n tile 0 0 10 10\nend\nmacro b\n tile 0 0 8 6\nend\n";
    std::fs::write(&netless, cells).expect("write netlist");
    let out = run(&["place", netless.to_str().unwrap(), "--ac", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("TEIL 0  chip"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_files_are_not_overwritten_silently() {
    let dir = std::env::temp_dir().join(format!("twmc-cli-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let netlist = dir.join("tiny.twn");
    let telemetry = dir.join("run.jsonl");

    let out = twmc()
        .args([
            "synth", "--cells", "6", "--nets", "12", "--pins", "40", "--seed", "3", "--out",
        ])
        .arg(&netlist)
        .output()
        .expect("run twmc synth");
    assert!(out.status.success());

    // First recording succeeds and leaves a validating stream behind.
    let out = twmc()
        .arg("place")
        .arg(&netlist)
        .args(["--ac", "8", "--seed", "3", "--telemetry"])
        .arg(&telemetry)
        .output()
        .expect("place --telemetry");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let first = std::fs::read_to_string(&telemetry).expect("telemetry written");
    assert!(!first.is_empty());

    // Recording onto an existing file is refused by name...
    let out = twmc()
        .arg("place")
        .arg(&netlist)
        .args(["--ac", "8", "--seed", "3", "--telemetry"])
        .arg(&telemetry)
        .output()
        .expect("place --telemetry again");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("already exists"), "{stderr}");
    assert!(stderr.contains("--telemetry-overwrite"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&telemetry).expect("file intact"),
        first
    );

    // ...and allowed with the explicit opt-in.
    let out = twmc()
        .arg("place")
        .arg(&netlist)
        .args([
            "--ac",
            "8",
            "--seed",
            "3",
            "--telemetry-overwrite",
            "--telemetry",
        ])
        .arg(&telemetry)
        .output()
        .expect("place --telemetry-overwrite");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_runs_checkpoint_and_resume_bit_identically() {
    let dir = std::env::temp_dir().join(format!("twmc-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let netlist = dir.join("tiny.twn");
    let ckpt = dir.join("run.ckpt");
    let telemetry = dir.join("run.jsonl");
    let ref_place = dir.join("ref.place");
    let cut_place = dir.join("cut.place");
    let res_place = dir.join("resumed.place");

    let out = twmc()
        .args([
            "synth", "--cells", "6", "--nets", "12", "--pins", "40", "--seed", "3", "--out",
        ])
        .arg(&netlist)
        .output()
        .expect("run twmc synth");
    assert!(out.status.success());

    // Reference: the same run, uninterrupted.
    let out = twmc()
        .arg("place")
        .arg(&netlist)
        .args(["--ac", "8", "--seed", "3", "--placement"])
        .arg(&ref_place)
        .output()
        .expect("reference place");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A move budget interrupts with exit 3, flushing a checkpoint, the
    // telemetry prefix, and the best-so-far placement.
    let out = twmc()
        .arg("place")
        .arg(&netlist)
        .args(["--ac", "8", "--seed", "3", "--max-moves", "500"])
        .arg("--checkpoint")
        .arg(&ckpt)
        .args(["--checkpoint-every", "2", "--telemetry"])
        .arg(&telemetry)
        .arg("--placement")
        .arg(&cut_place)
        .output()
        .expect("interrupted place");
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("interrupted (move_budget)"), "{stderr}");
    assert!(stderr.contains("--resume"), "{stderr}");
    assert!(ckpt.exists(), "no checkpoint written");
    assert!(cut_place.exists(), "no best-so-far placement written");

    // Resuming continues to the reference result, appending the
    // telemetry suffix onto the interrupted prefix.
    let out = twmc()
        .arg("place")
        .arg(&netlist)
        .args(["--ac", "8", "--seed", "3", "--resume"])
        .arg(&ckpt)
        .arg("--telemetry")
        .arg(&telemetry)
        .arg("--placement")
        .arg(&res_place)
        .output()
        .expect("resumed place");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = std::fs::read_to_string(&ref_place).expect("reference placement");
    let resumed = std::fs::read_to_string(&res_place).expect("resumed placement");
    assert_eq!(resumed, reference, "resume diverged from the clean run");

    // The stitched telemetry file is one coherent, healthy stream.
    let out = twmc()
        .arg("report")
        .arg(&telemetry)
        .output()
        .expect("report on stitched stream");
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // A checkpoint for a different configuration is rejected cleanly.
    let out = twmc()
        .arg("place")
        .arg(&netlist)
        .args(["--ac", "8", "--seed", "4", "--resume"])
        .arg(&ckpt)
        .output()
        .expect("mismatched resume");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not match"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn sigterm_stops_the_run_with_a_resumable_checkpoint() {
    let dir = std::env::temp_dir().join(format!("twmc-cli-signal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let netlist = dir.join("mid.twn");
    let ckpt = dir.join("sig.ckpt");

    let out = twmc()
        .args([
            "synth", "--cells", "20", "--nets", "60", "--pins", "200", "--seed", "5", "--out",
        ])
        .arg(&netlist)
        .output()
        .expect("run twmc synth");
    assert!(out.status.success());

    let _ = std::fs::remove_file(&ckpt);
    // A run far longer than any build needs to write its first
    // periodic checkpoint: the signal lands once that checkpoint
    // exists, and cuts the run there.
    let mut child = twmc()
        .arg("place")
        .arg(&netlist)
        .args(["--ac", "600", "--seed", "5", "--checkpoint"])
        .arg(&ckpt)
        .args(["--checkpoint-every", "2"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn twmc place");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !ckpt.exists() {
        if let Some(status) = child.try_wait().expect("poll twmc place") {
            panic!("the run ended ({status}) before its first checkpoint");
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no periodic checkpoint within 120 s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success(), "kill failed (run finished early?)");
    let out = child.wait_with_output().expect("wait for twmc");
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("interrupted (signal)"), "{stderr}");
    twmc_resume::read_checkpoint(&ckpt).expect("the flushed checkpoint reads back");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn yal_input_is_accepted() {
    let dir = std::env::temp_dir().join(format!("twmc-cli-yal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let yal = dir.join("toy.yal");
    std::fs::write(
        &yal,
        "MODULE a;\nTYPE GENERAL;\nDIMENSIONS 0 0 0 40 40 40 40 0;\n\
         IOLIST;\np B 0 20 4 m2;\nq B 40 20 4 m2;\nENDIOLIST;\nENDMODULE;\n\
         MODULE top;\nTYPE PARENT;\nNETWORK;\nu1 a n1 n2;\nu2 a n2 n1;\nENDNETWORK;\nENDMODULE;\n",
    )
    .expect("write yal");
    let out = twmc()
        .arg("place")
        .arg(&yal)
        .args(["--ac", "8", "--seed", "1"])
        .output()
        .expect("run twmc place on yal");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_flag_values_are_errors() {
    let dir = std::env::temp_dir().join(format!("twmc-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tiny.twn");
    let netlist = path.to_str().expect("UTF-8 temp path");
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/baseline-run.jsonl"
    );

    // Exit 1 (an operational error, not diff's exit-2 regression),
    // naming the flag and the value it could not parse.
    let rejects = |args: &[&str], named: &str| {
        let out = twmc().args(args).output().expect("run twmc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    };
    let bad = ["synth", "--out", netlist, "--cells", "abc"];
    rejects(&bad, "`abc` for --cells");
    assert!(!path.exists(), "a rejected synth wrote a circuit");
    let synth = ["synth", "--out", netlist, "--cells", "4", "--nets", "8"];
    let out = twmc().args(synth).output();
    assert!(out.expect("run twmc").status.success());
    rejects(&["place", netlist, "--seed", "-1"], "`-1` for --seed");
    rejects(&["report", fixture, "--top", "1,5"], "`1,5` for --top");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_refuses_replica_fault_clauses() {
    // The daemon builds each job's run controller itself, so a `panic=`
    // clause could never reach a run: the flag is refused before the
    // daemon starts, not silently dropped.
    let spool = std::env::temp_dir().join(format!("twmc-cli-spool-{}", std::process::id()));
    let out = twmc()
        .args(["serve", "--listen", "127.0.0.1:0", "--spool"])
        .arg(&spool)
        .args(["--fault-schedule", "eio=write:x@9, panic=replica:0@3"])
        .output()
        .expect("run twmc serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("`panic=`"), "{stderr}");
    assert!(!spool.exists(), "a refused daemon created its spool");
}
