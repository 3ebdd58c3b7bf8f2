//! Validates a `--telemetry` JSONL stream: it must read through
//! `parse_stream` (every line a known event carrying every field its
//! record reads, an intact run envelope, no temperature rising within
//! one anneal scope), and it must cover the core pipeline kinds. Used
//! by CI as the telemetry smoke check.
//!
//! ```sh
//! cargo run --release --example validate_telemetry run.jsonl
//! ```

use std::process::ExitCode;

use timberwolfmc::analyze::parse_stream;

/// Kinds every pipeline stream carries.
const REQUIRED: [&str; 4] = ["run_start", "place_temp", "stage_span", "run_end"];

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: validate_telemetry FILE.jsonl");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = match parse_stream(&text) {
        Ok(stream) => stream.stats,
        Err(e) => {
            eprintln!("{path}: invalid telemetry stream: {e}");
            return ExitCode::FAILURE;
        }
    };
    let missing: Vec<&str> = REQUIRED
        .into_iter()
        .filter(|kind| !stats.kind_counts.contains_key(*kind))
        .collect();
    if !missing.is_empty() {
        eprintln!("{path}: stream missing event kinds: {missing:?}");
        return ExitCode::FAILURE;
    }
    println!("{path}: {} events valid", stats.lines);
    for (kind, count) in &stats.kind_counts {
        println!("  {kind:<16} {count}");
    }
    ExitCode::SUCCESS
}
