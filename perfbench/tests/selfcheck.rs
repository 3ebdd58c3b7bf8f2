//! Runs the benchmark's tiny-size self-check from the repository root,
//! where it also compares the metric names and units with
//! `BENCHMARK.json`.

#[test]
fn every_workload_emits_every_metric_and_runs_every_check() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--selfcheck")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .status()
        .expect("the benchmark binary starts");
    assert!(status.success(), "perfbench --selfcheck failed");
}
