//! `twmc` — command-line front end to the TimberWolfMC reproduction.
//!
//! ```text
//! twmc synth --circuit i3 --seed 42 --out i3.twn     # synthesize a netlist
//! twmc place i3.twn --ac 100 --svg chip.svg          # full place & route flow
//! twmc compare i3.twn --ac 100                       # vs the three baselines
//! ```
//!
//! Exit codes (one map for every subcommand):
//! 0 = success / healthy / no regression; 1 = operational error
//! (bad flags, I/O, unreadable input) or an unhealthy `report`;
//! 2 = `diff` regression; 3 = run interrupted (signal or budget) with
//! a resumable checkpoint and best-so-far placement emitted.

use std::process::ExitCode;

use timberwolfmc::analyze::{
    analyze, diff_runs, format_diff, format_report, metrics, parse_stream, DiffThresholds,
};
use timberwolfmc::core::{
    compare, format_parallel_report, format_table4, format_telemetry_summary, greedy_placement,
    quadratic_placement, render_svg, run_timberwolf, run_timberwolf_resilient, shelf_placement,
    ParallelParams, RunCtrl, RunOutcome, Strategy, TimberWolfConfig,
};
use timberwolfmc::estimator::EstimatorParams;
use timberwolfmc::netlist::{
    paper_circuit, parse_netlist, synthesize, synthesize_profile, write_netlist, Netlist,
    SynthParams,
};
use timberwolfmc::obs::{
    CancelToken, Instrumented, JsonlRecorder, NullRecorder, Recorder, SummaryRecorder, Tee, Tracer,
};
use timberwolfmc::place::PlaceParams;
use timberwolfmc::resume::{read_checkpoint, CheckpointWriter};

/// Exit code of an interrupted-but-checkpointed run.
const EXIT_INTERRUPTED: u8 = 3;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         twmc synth [--circuit NAME | --cells N --nets N --pins N] [--seed N] [--custom F] --out FILE\n  \
         twmc place FILE [--seed N] [--ac N] [--svg FILE] [--placement FILE]\n              \
         [--replicas N] [--threads N] [--strategy multistart|tempering] [--swap-interval N]\n              \
         [--telemetry FILE.jsonl] [--telemetry-overwrite] [--telemetry-summary]\n              \
         [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]\n              \
         [--max-wall-secs F] [--max-moves N] [--trace FILE.jsonl]\n  \
         twmc compare FILE [--seed N] [--ac N] [--replicas N] [--threads N]\n  \
         twmc serve [--listen ADDR] [--workers N] [--queue-cap N] [--spool DIR]\n              \
         [--checkpoint-every N] [--drain-grace-ms N] [--event-fsync-every N]\n              \
         [--fault-schedule SPEC]\n  \
         twmc report RUN.jsonl [--json]\n  \
         twmc report --metrics-snapshot SNAPSHOT.prom [--json] [--max-failed-jobs N]\n              \
         [--max-replica-failures N] [--max-queue-depth N] [--max-route-overflow N]\n              \
         [--max-move-p50-ns F] [--max-quarantined N]\n  \
         twmc report --trace CAPTURE.jsonl [--json] [--top N]\n  \
         twmc trace CAPTURE.jsonl [--out CHROME.json] [--top N]\n  \
         twmc diff BASELINE.jsonl CANDIDATE.jsonl [--json] [--max-teil-pct F]\n              \
         [--max-length-pct F] [--max-area-pct F] [--max-overflow N] [--max-unrouted N]\n  \
         twmc diff --bench-parallel [BASELINE.json] BENCH_parallel.json [--json]\n\n\
         NAME is one of the paper's circuits: i1 p1 x1 i2 i3 l1 d2 d1 d3\n\
         --replicas N runs N annealing replicas (deterministic per seed);\n\
         --threads 0 uses one thread per replica; --strategy tempering needs\n\
         --replicas 2.. and exchanges rungs every --swap-interval N rounds (N >= 1,\n\
         default 1)\n\
         --telemetry FILE streams JSONL events; --telemetry-summary prints a table\n\
         --checkpoint FILE writes an atomic resume checkpoint every N steps (default 10);\n\
         --resume FILE continues a checkpointed run bit-identically; Ctrl-C / SIGTERM,\n\
         --max-wall-secs, and --max-moves stop gracefully (exit 3, checkpoint flushed)\n\
         serve runs the placement daemon: POST /jobs, GET /jobs/ID[/events|/result|\n\
         /placement|/trace], DELETE /jobs/ID, GET /healthz, GET /stats, GET /metrics\n\
         (Prometheus text); GET /jobs/ID/events?follow=1 streams a live chunked\n\
         JSONL tail until the job ends; higher-priority jobs\n\
         preempt running ones at round boundaries (checkpoint + bit-identical resume);\n\
         SIGTERM drains gracefully (default --listen 127.0.0.1:7171, --spool twmc-spool);\n\
         durable writes are fsynced (file + directory) and torn/unreadable job dirs are\n\
         quarantined to SPOOL/quarantine at startup (twmc_spool_quarantined gauge);\n\
         --event-fsync-every N fsyncs a job's event stream every N flushes (0 = off);\n\
         --fault-schedule 'seed=N, eio=write:state.json@2, crash=job.ckpt:after_rename'\n\
         injects deterministic I/O faults for chaos testing (crashpoints abort)\n\
         --trace FILE records a hierarchical span trace (run > stage > temp step >\n\
         move block, cost-term self-time) with no effect on results; convert it with\n\
         `twmc trace` to a Chrome Trace Event JSON for ui.perfetto.dev plus a\n\
         terminal self-time table, and health-check it with `twmc report --trace`\n\
         (exit 2 when the time distribution is pathological, e.g. overlap-index\n\
         maintenance dominating move evaluation)\n\
         report checks a recorded run against the paper's control laws (exit 1 if\n\
         unhealthy); report --metrics-snapshot judges a scraped GET /metrics exposition\n\
         against operational thresholds offline (exit 2 on breach);\n\
         diff compares two runs' headline metrics (exit 2 on regression);\n\
         diff --bench-parallel gates the equal-wall-clock bench summary (exit 2 when\n\
         tempering loses to multistart at >= 4 replicas or regresses vs the baseline)"
    );
    ExitCode::FAILURE
}

/// The flag vocabulary of one subcommand: `(name, takes_value)` pairs.
type FlagSpec = &'static [(&'static str, bool)];

const SYNTH_FLAGS: FlagSpec = &[
    ("circuit", true),
    ("cells", true),
    ("nets", true),
    ("pins", true),
    ("custom", true),
    ("seed", true),
    ("out", true),
];

const PLACE_FLAGS: FlagSpec = &[
    ("seed", true),
    ("ac", true),
    ("svg", true),
    ("placement", true),
    ("replicas", true),
    ("threads", true),
    ("strategy", true),
    ("swap-interval", true),
    ("telemetry", true),
    ("telemetry-overwrite", false),
    ("telemetry-summary", false),
    ("checkpoint", true),
    ("checkpoint-every", true),
    ("resume", true),
    ("max-wall-secs", true),
    ("max-moves", true),
    ("trace", true),
];

const SERVE_FLAGS: FlagSpec = &[
    ("listen", true),
    ("workers", true),
    ("queue-cap", true),
    ("spool", true),
    ("checkpoint-every", true),
    ("drain-grace-ms", true),
    ("event-fsync-every", true),
    ("fault-schedule", true),
];

const REPORT_FLAGS: FlagSpec = &[
    ("json", false),
    ("metrics-snapshot", false),
    ("trace", false),
    ("top", true),
    ("max-failed-jobs", true),
    ("max-replica-failures", true),
    ("max-queue-depth", true),
    ("max-route-overflow", true),
    ("max-move-p50-ns", true),
    ("max-quarantined", true),
];

const DIFF_FLAGS: FlagSpec = &[
    ("json", false),
    ("bench-parallel", false),
    ("max-teil-pct", true),
    ("max-length-pct", true),
    ("max-area-pct", true),
    ("max-overflow", true),
    ("max-unrouted", true),
];

const TRACE_FLAGS: FlagSpec = &[("out", true), ("top", true)];

const COMPARE_FLAGS: FlagSpec = &[
    ("seed", true),
    ("ac", true),
    ("replicas", true),
    ("threads", true),
    ("strategy", true),
    ("swap-interval", true),
];

struct Flags {
    values: std::collections::HashMap<String, String>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses `args` against the subcommand's flag vocabulary.
    ///
    /// Unknown flags are an error (listing the valid set) rather than
    /// silently absorbed, and a value flag always consumes the next
    /// argument — so negative values like `--seed -1` parse as a value,
    /// not as a missing one followed by a stray positional.
    fn parse(args: &[String], known: FlagSpec) -> Result<Flags, String> {
        let mut values = std::collections::HashMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(name) = args[i].strip_prefix("--") {
                let Some(&(_, takes_value)) = known.iter().find(|(k, _)| *k == name) else {
                    let valid: Vec<String> = known.iter().map(|(k, _)| format!("--{k}")).collect();
                    return Err(format!(
                        "unknown flag `--{name}` (valid flags: {}); run `twmc` with no \
                         arguments for usage",
                        valid.join(", ")
                    ));
                };
                if takes_value {
                    let Some(value) = args.get(i + 1) else {
                        return Err(format!("flag `--{name}` needs a value"));
                    };
                    values.insert(name.to_owned(), value.clone());
                    i += 2;
                } else {
                    values.insert(name.to_owned(), "true".to_owned());
                    i += 1;
                }
            } else {
                positional.push(args[i].clone());
                i += 1;
            }
        }
        Ok(Flags { values, positional })
    }

    /// The value of `--name` parsed as `T`, or `default` when the flag
    /// is absent. A value that does not parse is an error naming the
    /// flag and the value, never a silent fall-back to the default.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for --{name}")),
        }
    }

    fn get_str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

/// SIGINT/SIGTERM land in a flag the annealing loops poll at step
/// boundaries — no asynchronous teardown; the run winds down
/// cooperatively, flushes its checkpoint and telemetry, and exits 3.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set from the handler, polled by the run's cancel token.
    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // A plain atomic store is async-signal-safe: no allocation,
        // no locks.
        INTERRUPTED.store(true, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }
}

fn load_netlist(path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.to_ascii_lowercase().ends_with(".yal") {
        timberwolfmc::netlist::parse_yal(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        parse_netlist(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_synth(flags: &Flags) -> Result<(), String> {
    let seed: u64 = flags.get("seed", 42)?;
    let nl = if let Some(name) = flags.get_str("circuit") {
        let profile =
            paper_circuit(name).ok_or_else(|| format!("unknown paper circuit `{name}`"))?;
        synthesize_profile(profile, seed)
    } else {
        synthesize(&SynthParams {
            cells: flags.get("cells", 20)?,
            nets: flags.get("nets", 60)?,
            pins: flags.get("pins", 240)?,
            custom_fraction: flags.get("custom", 0.0)?,
            seed,
            ..Default::default()
        })
    };
    let out = flags
        .get_str("out")
        .ok_or_else(|| "synth needs --out FILE".to_owned())?;
    std::fs::write(out, write_netlist(&nl)).map_err(|e| format!("cannot write {out}: {e}"))?;
    let s = nl.stats();
    println!(
        "wrote {out}: {} cells, {} nets, {} pins",
        s.cells, s.nets, s.pins
    );
    Ok(())
}

fn config_from(flags: &Flags) -> Result<TimberWolfConfig, String> {
    let strategy: Strategy = match flags.get_str("strategy") {
        Some(s) => s.parse()?,
        None => Strategy::default(),
    };
    let config = TimberWolfConfig {
        place: PlaceParams {
            attempts_per_cell: flags.get("ac", 60)?,
            ..Default::default()
        },
        parallel: ParallelParams {
            replicas: flags.get("replicas", 1)?,
            threads: flags.get("threads", 0)?,
            strategy,
            swap_interval: flags.get("swap-interval", 1)?,
        },
        seed: flags.get("seed", 42)?,
        ..Default::default()
    };
    // Degenerate knob combinations (0 replicas, tempering with one
    // replica, swap interval 0) are typed errors naming the valid
    // range, not silent clamps.
    config.parallel.validate()?;
    Ok(config)
}

/// Builds the resilience options (signals, budgets, checkpoint writer,
/// resume payload) from the `place` flags. Returns the options plus
/// whether this run resumes an earlier one.
fn run_options_from(flags: &Flags) -> Result<(RunCtrl, bool), String> {
    #[allow(unused_mut)]
    let mut cancel = CancelToken::new();
    #[cfg(unix)]
    {
        sig::install();
        cancel = cancel.with_signal_flag(&sig::INTERRUPTED);
    }
    if let Some(raw) = flags.get_str("max-wall-secs") {
        let secs: f64 = raw
            .parse()
            .map_err(|_| format!("--max-wall-secs needs a number, got `{raw}`"))?;
        if secs.is_nan() || secs <= 0.0 {
            return Err(format!("--max-wall-secs must be positive, got `{raw}`"));
        }
        cancel = cancel
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs_f64(secs));
    }
    if let Some(raw) = flags.get_str("max-moves") {
        let moves: u64 = raw
            .parse()
            .map_err(|_| format!("--max-moves needs an integer, got `{raw}`"))?;
        cancel = cancel.with_max_moves(moves);
    }
    let resume = match flags.get_str("resume") {
        // The typed CheckpointError messages already name the path
        // (Missing/Unreadable) or describe the defect, so they pass
        // through verbatim onto the exit-1 operational-error path.
        Some(path) => Some(
            read_checkpoint(std::path::Path::new(path)).map_err(|e| match e {
                e @ (timberwolfmc::resume::CheckpointError::Missing(_)
                | timberwolfmc::resume::CheckpointError::Unreadable { .. }) => e.to_string(),
                e => format!("{path}: {e}"),
            })?,
        ),
        None => None,
    };
    let resuming = resume.is_some();
    let checkpoint = match flags.get_str("checkpoint") {
        Some(path) => {
            let every: u64 = flags.get("checkpoint-every", 10)?;
            if every == 0 {
                return Err("--checkpoint-every must be at least 1".to_owned());
            }
            Some(CheckpointWriter::new(path, every))
        }
        None => None,
    };
    Ok((
        RunCtrl {
            cancel,
            writer: checkpoint,
            resume,
            ..RunCtrl::default()
        },
        resuming,
    ))
}

fn write_placement_file(
    path: &str,
    cells: &[timberwolfmc::core::PlacedCellRecord],
) -> Result<(), String> {
    std::fs::write(path, timberwolfmc::serve::placement_text(cells))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_place(flags: &Flags) -> Result<ExitCode, String> {
    let path = flags
        .positional
        .first()
        .ok_or_else(|| "place needs a netlist file".to_owned())?;
    let nl = load_netlist(path)?;
    let config = config_from(flags)?;
    let (opts, resuming) = run_options_from(flags)?;
    if config.parallel.replicas > 1 {
        eprintln!(
            "placing {} ({} cells, {} nets, A_c = {}, {} x{} replicas)...",
            path,
            nl.stats().cells,
            nl.stats().nets,
            config.place.attempts_per_cell,
            config.parallel.strategy,
            config.parallel.replicas,
        );
    } else {
        eprintln!(
            "placing {} ({} cells, {} nets, A_c = {})...",
            path,
            nl.stats().cells,
            nl.stats().nets,
            config.place.attempts_per_cell
        );
    }
    // Telemetry sinks: a JSONL file, an in-memory summary, both, or none.
    let telemetry_path = flags.get_str("telemetry");
    let mut jsonl = match telemetry_path {
        Some(path) => {
            let exists = std::path::Path::new(path).exists();
            let recorder = if exists && resuming {
                // A resumed run's events are the exact suffix of the
                // uninterrupted stream; appending completes the file.
                JsonlRecorder::append(path)
            } else if exists && !flags.has("telemetry-overwrite") {
                return Err(format!(
                    "telemetry file `{path}` already exists; pass --telemetry-overwrite \
                     to replace it (or --resume to append a continuation)"
                ));
            } else {
                JsonlRecorder::create(path)
            };
            Some(recorder.map_err(|e| format!("cannot open {path}: {e}"))?)
        }
        None => None,
    };
    let mut summary = flags.has("telemetry-summary").then(SummaryRecorder::new);
    let mut null = NullRecorder;
    // `--trace FILE` records a hierarchical span trace alongside the
    // run. The tracer rides the recorder via `Recorder::tracer()`, so
    // enabling it never touches the annealing RNG or results.
    let trace_path = flags.get_str("trace");
    let tracer = trace_path.map(|_| Tracer::new());

    let t0 = std::time::Instant::now();
    let outcome = {
        let mut tee;
        let rec: &mut dyn Recorder = match (jsonl.as_mut(), summary.as_mut()) {
            (Some(j), Some(s)) => {
                tee = Tee { a: j, b: s };
                &mut tee
            }
            (Some(j), None) => j,
            (None, Some(s)) => s,
            (None, None) => &mut null,
        };
        let mut traced;
        let rec: &mut dyn Recorder = match &tracer {
            Some(t) => {
                traced = Instrumented::new(rec, None, Some(t.clone()));
                &mut traced
            }
            None => rec,
        };
        run_timberwolf_resilient(&nl, &config, opts, rec).map_err(|e| e.to_string())?
    };
    if let (Some(j), Some(path)) = (jsonl, telemetry_path) {
        let events = j.events();
        j.finish()
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {events} telemetry events to {path}");
    }
    if let Some(s) = &summary {
        print!("{}", format_telemetry_summary(s.events()));
    }
    // The capture is written on the interrupted path too — a span
    // trace of a budget-cut run is exactly what a profiling session
    // wants to look at.
    if let (Some(t), Some(tpath)) = (&tracer, trace_path) {
        let snap = t.collect();
        let spans = snap.total_spans();
        std::fs::write(tpath, timberwolfmc::obs::trace::capture_to_string(&snap))
            .map_err(|e| format!("cannot write {tpath}: {e}"))?;
        eprintln!("wrote {spans} spans to {tpath} (convert: twmc trace {tpath} --out chrome.json)");
    }
    let result = match outcome {
        RunOutcome::Complete(result) => result,
        RunOutcome::Interrupted(cut) => {
            eprintln!(
                "interrupted ({}) during {} after {:.1}s; best-so-far TEIL {:.0} (cost {:.0})",
                cut.reason.as_str(),
                cut.stage,
                t0.elapsed().as_secs_f64(),
                cut.teil,
                cut.cost,
            );
            match flags.get_str("checkpoint") {
                Some(ck) => eprintln!("resume with: twmc place {path} --resume {ck}"),
                None => eprintln!("no --checkpoint file was set; the run cannot be resumed"),
            }
            if let Some(pl_path) = flags.get_str("placement") {
                write_placement_file(pl_path, &cut.placement)?;
            }
            return Ok(ExitCode::from(EXIT_INTERRUPTED));
        }
    };
    if let Some(report) = &result.parallel {
        print!("{}", format_parallel_report(report));
    }
    println!(
        "TEIL {:.0}  chip {} x {} (area {})  routed length {}  [{:.1}s]",
        result.teil,
        result.chip.width(),
        result.chip.height(),
        result.chip_area(),
        result.routed_length,
        t0.elapsed().as_secs_f64()
    );
    println!(
        "stage-2 drift: TEIL {:+.1}%, area {:+.1}% (paper Table 3: small values)",
        100.0 * result.stage2_teil_change(),
        100.0 * result.stage2_area_change()
    );
    if let Some(svg_path) = flags.get_str("svg") {
        let svg = render_svg(
            &result.placement,
            Some(&result.stage2.final_routing),
            result.chip,
        );
        std::fs::write(svg_path, svg).map_err(|e| format!("cannot write {svg_path}: {e}"))?;
        println!("wrote {svg_path}");
    }
    if let Some(pl_path) = flags.get_str("placement") {
        write_placement_file(pl_path, &result.placement)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    let path = flags
        .positional
        .first()
        .ok_or_else(|| "compare needs a netlist file".to_owned())?;
    let nl = load_netlist(path)?;
    let stats = nl.stats();
    let config = config_from(flags)?;
    let est = EstimatorParams::default();
    let seed = config.seed;
    eprintln!("running TimberWolfMC and three baselines...");
    let twmc = run_timberwolf(&nl, &config);
    let rows = vec![
        compare(path, &stats, &twmc, &quadratic_placement(&nl, &est, seed)),
        compare(path, &stats, &twmc, &greedy_placement(&nl, &est, 60, seed)),
        compare(path, &stats, &twmc, &shelf_placement(&nl, &est, seed)),
    ];
    println!("{}", format_table4(&rows));
    Ok(())
}

fn load_stream(path: &str) -> Result<timberwolfmc::analyze::RunStream, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_stream(&text).map_err(|e| format!("{path}: {e}"))
}

/// `twmc serve`: runs the placement daemon until SIGINT/SIGTERM, then
/// drains gracefully — stops accepting jobs, checkpoints running ones
/// at their next round boundary, and exits 0 once everything is
/// persisted. A daemon restarted over the same spool resumes the
/// checkpointed jobs bit-identically.
fn cmd_serve(flags: &Flags) -> Result<ExitCode, String> {
    let listen = flags.get_str("listen").unwrap_or("127.0.0.1:7171");
    // `--fault-schedule` swaps the daemon's durable-write path for a
    // deterministic fault injector (chaos testing only): injected
    // crashpoints abort the process, so a supervisor/test harness can
    // observe a genuine kill-and-restart cycle.
    let vfs: std::sync::Arc<dyn timberwolfmc::fault::Vfs> = match flags.get_str("fault-schedule") {
        Some(spec) => {
            let sched = timberwolfmc::fault::FaultSchedule::parse(spec)
                .map_err(|e| format!("--fault-schedule: {e}"))?;
            // Replica faults live on a run's controller, which the
            // daemon builds per job; refuse them rather than drop them.
            if sched.has_replica_panics() {
                return Err(format!(
                    "--fault-schedule: `panic=` clauses inject replica faults into a \
                     single run and are not supported by `twmc serve` (got `{spec}`)"
                ));
            }
            std::sync::Arc::new(timberwolfmc::fault::FaultVfs::new(sched).with_abort())
        }
        None => std::sync::Arc::new(timberwolfmc::fault::RealVfs),
    };
    let opts = timberwolfmc::serve::ServeOptions {
        workers: flags.get("workers", 2usize)?.max(1),
        queue_cap: flags.get("queue-cap", 256usize)?.max(1),
        checkpoint_every: flags.get("checkpoint-every", 10u64)?.max(1),
        spool: std::path::PathBuf::from(flags.get_str("spool").unwrap_or("twmc-spool")),
        drain_grace: std::time::Duration::from_millis(flags.get("drain-grace-ms", 250u64)?),
        event_fsync_every: flags.get("event-fsync-every", 0u64)?,
        vfs,
    };
    let workers = opts.workers;
    let spool_display = opts.spool.display().to_string();
    let daemon = timberwolfmc::serve::Daemon::start(opts)
        .map_err(|e| format!("cannot start daemon: {e}"))?;
    let server = timberwolfmc::serve::Server::bind(listen, daemon)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    #[cfg(unix)]
    sig::install();
    #[cfg(unix)]
    let stop = &sig::INTERRUPTED;
    #[cfg(not(unix))]
    let stop = {
        static NEVER: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        &NEVER
    };
    eprintln!(
        "twmc serve: listening on {} ({workers} workers, spool {spool_display})",
        server.local_addr()
    );
    server
        .run(stop)
        .map_err(|e| format!("server failed: {e}"))?;
    eprintln!("twmc serve: drained cleanly");
    Ok(ExitCode::SUCCESS)
}

fn load_capture(path: &str) -> Result<timberwolfmc::obs::TraceSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    timberwolfmc::analyze::parse_capture(&text).map_err(|e| format!("{path}: {e}"))
}

/// `twmc trace CAPTURE.jsonl [--out CHROME.json] [--top N]`: converts
/// a span-trace capture (from `twmc place --trace` or a daemon's
/// `GET /jobs/<id>/trace`) into a Chrome Trace Event JSON that loads
/// in ui.perfetto.dev / chrome://tracing, and prints the self-time
/// attribution table to stdout.
fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let path = flags
        .positional
        .first()
        .ok_or_else(|| "trace needs a span-trace capture file".to_owned())?;
    let snap = load_capture(path)?;
    if let Some(out) = flags.get_str("out") {
        let json = timberwolfmc::obs::trace::chrome_trace_json(&snap);
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out} (load in ui.perfetto.dev or chrome://tracing)");
    }
    let prof = timberwolfmc::obs::trace::profile(&snap);
    print!("{}", prof.format_table(flags.get("top", 20usize)?));
    Ok(())
}

/// `twmc report RUN.jsonl`: health-checks a recorded run against the
/// paper's control laws. Exits non-zero when any check fails.
fn cmd_report(flags: &Flags) -> Result<ExitCode, String> {
    if flags.has("metrics-snapshot") {
        return cmd_report_snapshot(flags);
    }
    if flags.has("trace") {
        return cmd_report_trace(flags);
    }
    let path = flags
        .positional
        .first()
        .ok_or_else(|| "report needs a telemetry JSONL file".to_owned())?;
    let report = analyze(&load_stream(path)?);
    if flags.has("json") {
        println!(
            "{}",
            serde_json::to_string(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", format_report(&report));
    }
    Ok(if report.healthy() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `twmc report --metrics-snapshot SNAPSHOT.prom`: judges a scraped
/// `/metrics` exposition against operational thresholds offline.
/// Exits 2 on a breach (the `twmc diff` regression convention) and 1
/// when the file is unreadable or not a twmc scrape.
fn cmd_report_snapshot(flags: &Flags) -> Result<ExitCode, String> {
    let path = flags
        .positional
        .first()
        .ok_or_else(|| "report --metrics-snapshot needs a scraped /metrics file".to_owned())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let defaults = timberwolfmc::analyze::SnapshotThresholds::default();
    let thresholds = timberwolfmc::analyze::SnapshotThresholds {
        max_failed_jobs: flags.get("max-failed-jobs", defaults.max_failed_jobs)?,
        max_replica_failures: flags.get("max-replica-failures", defaults.max_replica_failures)?,
        max_queue_depth: flags.get("max-queue-depth", defaults.max_queue_depth)?,
        max_route_overflow: flags.get("max-route-overflow", defaults.max_route_overflow)?,
        max_move_eval_p50_ns: flags.get("max-move-p50-ns", defaults.max_move_eval_p50_ns)?,
        max_quarantined: flags.get("max-quarantined", defaults.max_quarantined)?,
    };
    let report = timberwolfmc::analyze::check_metrics_snapshot(&text, &thresholds)
        .map_err(|e| format!("{path}: {e}"))?;
    if flags.has("json") {
        println!(
            "{}",
            serde_json::to_string(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", timberwolfmc::analyze::format_snapshot_report(&report));
    }
    Ok(if report.regressed() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

/// `twmc report --trace CAPTURE.jsonl`: health-checks the wall-time
/// distribution of a span-trace capture — flags pathological splits
/// like overlap-index maintenance dominating move evaluation, or
/// checkpoint writes eating a material slice of the run. Exits 2 on a
/// breach (the `twmc diff` regression convention).
fn cmd_report_trace(flags: &Flags) -> Result<ExitCode, String> {
    let path = flags
        .positional
        .first()
        .ok_or_else(|| "report --trace needs a span-trace capture file".to_owned())?;
    let snap = load_capture(path)?;
    let report = timberwolfmc::analyze::check_trace(&snap);
    if flags.has("json") {
        println!(
            "{}",
            serde_json::to_string(&report.findings).map_err(|e| e.to_string())?
        );
    } else {
        print!(
            "{}",
            timberwolfmc::analyze::format_trace_report(&report, flags.get("top", 20usize)?)
        );
    }
    Ok(if report.healthy() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// `twmc diff BASELINE.jsonl CANDIDATE.jsonl`: compares headline
/// metrics under configurable thresholds. Exits 2 on regression so CI
/// can distinguish a quality regression from an operational error.
fn cmd_diff(flags: &Flags) -> Result<ExitCode, String> {
    if flags.has("bench-parallel") {
        return cmd_diff_bench(flags);
    }
    let [base_path, cand_path] = flags.positional.as_slice() else {
        return Err("diff needs two telemetry JSONL files (baseline, candidate)".to_owned());
    };
    let defaults = DiffThresholds::default();
    let thresholds = DiffThresholds {
        teil_pct: flags.get("max-teil-pct", defaults.teil_pct)?,
        length_pct: flags.get("max-length-pct", defaults.length_pct)?,
        area_pct: flags.get("max-area-pct", defaults.area_pct)?,
        overflow_abs: flags.get("max-overflow", defaults.overflow_abs)?,
        unrouted_abs: flags.get("max-unrouted", defaults.unrouted_abs)?,
    };
    let baseline = metrics(&load_stream(base_path)?);
    let candidate = metrics(&load_stream(cand_path)?);
    let report = diff_runs(&baseline, &candidate, &thresholds);
    if flags.has("json") {
        println!(
            "{}",
            serde_json::to_string(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", format_diff(&report));
    }
    Ok(if report.regressed() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

/// `twmc diff --bench-parallel BENCH.json [BASELINE.json]`: gates the
/// equal-wall-clock bench summary — tempering must beat best-of-N
/// multistart on the same CPU budget at ≥ 4 replicas, and (with a
/// baseline) must not regress its best TEIL. Exits 2 on failure.
fn cmd_diff_bench(flags: &Flags) -> Result<ExitCode, String> {
    let (cand_path, base_path) = match flags.positional.as_slice() {
        [cand] => (cand, None),
        [base, cand] => (cand, Some(base)),
        _ => {
            return Err(
                "diff --bench-parallel needs a BENCH_parallel.json (optionally preceded \
                 by a baseline summary)"
                    .to_owned(),
            )
        }
    };
    let read = |path: &String| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let candidate = read(cand_path)?;
    let baseline = base_path.map(read).transpose()?;
    let report = timberwolfmc::analyze::check_bench_parallel(&candidate, baseline.as_deref())
        .map_err(|e| format!("{cand_path}: {e}"))?;
    if flags.has("json") {
        println!(
            "{}",
            serde_json::to_string(&report.findings).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", timberwolfmc::analyze::format_bench_gate(&report));
    }
    Ok(if report.regressed() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let known = match cmd.as_str() {
        "synth" => SYNTH_FLAGS,
        "place" => PLACE_FLAGS,
        "compare" => COMPARE_FLAGS,
        "serve" => SERVE_FLAGS,
        "report" => REPORT_FLAGS,
        "trace" => TRACE_FLAGS,
        "diff" => DIFF_FLAGS,
        _ => return usage(),
    };
    let flags = match Flags::parse(&args[1..], known) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "synth" => cmd_synth(&flags).map(|()| ExitCode::SUCCESS),
        "place" => cmd_place(&flags),
        "compare" => cmd_compare(&flags).map(|()| ExitCode::SUCCESS),
        "serve" => cmd_serve(&flags),
        "report" => cmd_report(&flags),
        "trace" => cmd_trace(&flags).map(|()| ExitCode::SUCCESS),
        "diff" => cmd_diff(&flags),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
