//! `twmc` — command-line front end to the TimberWolfMC reproduction.
//!
//! ```text
//! twmc synth --circuit i3 --seed 42 --out i3.twn     # synthesize a netlist
//! twmc place i3.twn --ac 100 --svg chip.svg          # full place & route flow
//! twmc compare i3.twn --ac 100                       # vs the three baselines
//! ```
//!
//! Exit codes (one map for every subcommand):
//! 0 = success, or every finding of a `report`/`diff` judgement passed
//! (warnings allowed); 1 = operational error (bad flags, I/O, an empty
//! or unreadable input); 2 = a `report`/`diff` judgement with a FAIL
//! finding; 3 = run interrupted (signal or budget) with a resumable
//! checkpoint and best-so-far placement emitted.

use std::process::ExitCode;

use timberwolfmc::analyze::{
    analyze, check_bench_parallel, check_metrics_snapshot, check_trace, diff_runs, format_findings,
    format_report, format_runs, format_trace_report, metrics, parse_capture, parse_stream, worst,
    Finding, Severity,
};
use timberwolfmc::core::{
    compare, format_parallel_report, format_table4, greedy_placement, quadratic_placement,
    render_svg, run_timberwolf, run_timberwolf_resilient, shelf_placement, ParallelParams, RunCtrl,
    RunOutcome, Strategy, TimberWolfConfig,
};
use timberwolfmc::estimator::EstimatorParams;
use timberwolfmc::netlist::{
    paper_circuit, parse_netlist, synthesize, synthesize_profile, write_netlist, Netlist,
    SynthParams,
};
use timberwolfmc::obs::{CancelToken, Instrumented, JsonlRecorder, NullRecorder, Recorder, Tracer};
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
         [--telemetry FILE.jsonl] [--telemetry-overwrite]\n              \
         [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]\n              \
         [--max-wall-secs F] [--max-moves N] [--trace FILE.jsonl]\n  \
         twmc compare FILE [--seed N] [--ac N] [--replicas N] [--threads N]\n  \
         twmc serve [--listen ADDR] [--workers N] [--queue-cap N] [--spool DIR]\n              \
         [--checkpoint-every N] [--drain-grace-ms N] [--event-fsync-every N]\n              \
         [--fault-schedule SPEC]\n  \
         twmc report FILE [--json] [--top N] [--out CHROME.json]\n  \
         twmc diff BASELINE.jsonl CANDIDATE.jsonl [--json]\n\n\
         NAME is one of the paper's circuits: i1 p1 x1 i2 i3 l1 d2 d1 d3\n\
         --replicas N runs N annealing replicas (deterministic per seed);\n\
         --threads 0 uses one thread per replica; --strategy tempering needs\n\
         --replicas 2.. and exchanges rungs every --swap-interval N rounds (N >= 1,\n\
         default 1)\n\
         --telemetry FILE streams JSONL events, which `twmc report` reads\n\
         --checkpoint FILE writes an atomic resume checkpoint every N steps (default 10);\n\
         --resume FILE continues a checkpointed run bit-identically; Ctrl-C / SIGTERM,\n\
         --max-wall-secs, and --max-moves stop gracefully (exit 3, checkpoint flushed)\n\
         serve runs the placement daemon: POST /jobs, GET /jobs/ID[/events|/result|\n\
         /placement|/trace], DELETE /jobs/ID, GET /healthz, GET /metrics\n\
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
         move block, cost-term self-time) with no effect on results\n\
         report judges the artefact FILE holds, told apart by its content:\n\
         a --telemetry stream against the paper's control laws, then its anneal,\n\
         routing, stage wall-clock and swap tables; a --trace capture by its time\n\
         split (e.g. overlap-index maintenance dominating move evaluation fails), then\n\
         its top-N self-time rows (--top, default 20), and --out converts it to a\n\
         Chrome Trace Event JSON for ui.perfetto.dev; a scraped GET /metrics against\n\
         fixed operational bounds; BENCH_parallel.json (tempering must beat\n\
         multistart at equal wall clock from 4 replicas)\n\
         diff holds a run's headline metrics to a baseline's (+2% TEIL, routed length\n\
         and area; no added overflow or unrouted net; wall clock informational)\n\
         exit codes: 0 ok; 1 operational error (flags, I/O, empty or unreadable input);\n\
         2 a report or diff with a FAIL finding; 3 run interrupted, checkpoint flushed"
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

const REPORT_FLAGS: FlagSpec = &[("json", false), ("top", true), ("out", true)];

const DIFF_FLAGS: FlagSpec = &[("json", false)];

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

/// Writes `text` to stdout, the one channel every subcommand's output
/// takes. A reader that hung up (`twmc report RUN.jsonl | head`) ends
/// the output quietly, and the command keeps the exit code its work
/// earned. SIGPIPE stays ignored process-wide: a client hanging up on
/// `twmc serve` must not kill the daemon.
fn emit(text: &str) -> Result<(), String> {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_netlist(path: &str) -> Result<Netlist, String> {
    let text = read(path)?;
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
        let (cells, nets) = (flags.get("cells", 20)?, flags.get("nets", 60)?);
        for (name, n) in [("cells", cells), ("nets", nets)] {
            if n == 0 {
                return Err(format!("--{name} must be at least 1"));
            }
        }
        synthesize(&SynthParams {
            cells,
            nets,
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
    emit(&format!(
        "wrote {out}: {} cells, {} nets, {} pins\n",
        s.cells, s.nets, s.pins
    ))
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
    emit(&format!("wrote {path}\n"))
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
    // The telemetry sink: a JSONL file, or none.
    let telemetry_path = flags.get_str("telemetry");
    let mut jsonl = match telemetry_path {
        Some(path) => {
            let exists = std::path::Path::new(path).exists();
            let recorder = if exists && resuming {
                // A resumed run's events are the exact suffix of the
                // uninterrupted stream; appending completes the file.
                JsonlRecorder::append(path, 0)
            } else if exists && !flags.has("telemetry-overwrite") {
                return Err(format!(
                    "telemetry file `{path}` already exists; pass --telemetry-overwrite \
                     to replace it (or --resume to append a continuation)"
                ));
            } else {
                JsonlRecorder::create(path, 0)
            };
            Some(recorder.map_err(|e| format!("cannot open {path}: {e}"))?)
        }
        None => None,
    };
    let mut null = NullRecorder;
    // `--trace FILE` records a hierarchical span trace alongside the
    // run. The tracer rides the recorder via `Recorder::tracer()`, so
    // enabling it never touches the annealing RNG or results.
    let trace_path = flags.get_str("trace");
    let tracer = trace_path.map(|_| Tracer::new());

    let t0 = std::time::Instant::now();
    let outcome = {
        let rec: &mut dyn Recorder = match jsonl.as_mut() {
            Some(j) => j,
            None => &mut null,
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
    // The capture is written on the interrupted path too — a span
    // trace of a budget-cut run is exactly what a profiling session
    // wants to look at.
    if let (Some(t), Some(tpath)) = (&tracer, trace_path) {
        let snap = t.collect();
        let spans = snap.total_spans();
        std::fs::write(tpath, timberwolfmc::obs::trace::capture_to_string(&snap))
            .map_err(|e| format!("cannot write {tpath}: {e}"))?;
        eprintln!(
            "wrote {spans} spans to {tpath} (convert: twmc report {tpath} --out chrome.json)"
        );
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
        emit(&format_parallel_report(report))?;
    }
    emit(&format!(
        "TEIL {:.0}  chip {} x {} (area {})  routed length {}  [{:.1}s]\n",
        result.teil,
        result.chip.width(),
        result.chip.height(),
        result.chip_area(),
        result.routed_length,
        t0.elapsed().as_secs_f64()
    ))?;
    emit(&format!(
        "stage-2 drift: TEIL {:+.1}%, area {:+.1}% (paper Table 3: small values)\n",
        100.0 * result.stage2_teil_change(),
        100.0 * result.stage2_area_change()
    ))?;
    if let Some(svg_path) = flags.get_str("svg") {
        let svg = render_svg(
            &result.placement,
            Some(&result.stage2.final_routing),
            result.chip,
        );
        std::fs::write(svg_path, svg).map_err(|e| format!("cannot write {svg_path}: {e}"))?;
        emit(&format!("wrote {svg_path}\n"))?;
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
    emit(&format!("{}\n", format_table4(&rows)))
}

fn load_stream(path: &str) -> Result<timberwolfmc::analyze::RunStream, String> {
    parse_stream(&read(path)?).map_err(|e| format!("{path}: {e}"))
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

/// Prints a judgement, as one line of JSON under `--json` or else as
/// its text table, and maps its findings to the exit code: 2 when any
/// finding fails.
fn judged(
    flags: &Flags,
    findings: &[Finding],
    json: impl FnOnce() -> Result<String, serde_json::Error>,
    table: impl FnOnce() -> String,
) -> Result<ExitCode, String> {
    if flags.has("json") {
        emit(&format!("{}\n", json().map_err(|e| e.to_string())?))?;
    } else {
        emit(&table())?;
    }
    let failed = worst(findings) == Severity::Fail;
    Ok(ExitCode::from(if failed { 2 } else { 0 }))
}

/// `twmc report FILE`: judges the artefact FILE holds, told apart by
/// its first non-empty line:
/// - a JSON object with `"kind":"trace_meta"` opens a span-trace
///   capture (`twmc place --trace`, a daemon's `GET /jobs/<id>/trace`):
///   its wall-time split, then its self-time table; `--out` also writes
///   it as a Chrome Trace Event JSON for ui.perfetto.dev /
///   chrome://tracing;
/// - a JSON object with any other string `kind` opens a telemetry
///   stream: the paper's control laws, then the run's tables (anneal
///   scopes, routing executions, stage wall-clock, swaps);
/// - other text starting with `{` is a parallel-bench summary
///   (`BENCH_parallel.json`): the equal-wall-clock gate;
/// - anything else is a scraped `/metrics` exposition: the operational
///   bounds.
fn cmd_report(flags: &Flags) -> Result<ExitCode, String> {
    let path = flags
        .positional
        .first()
        .ok_or_else(|| "report needs a file to judge".to_owned())?;
    let top = flags.get("top", 20usize)?;
    let text = read(path)?;
    let named = |e: String| format!("{path}: {e}");
    let Some(head) = text.lines().map(str::trim).find(|l| !l.is_empty()) else {
        return Err(format!("{path}: the file is empty, nothing to judge"));
    };
    let kind = timberwolfmc::obs::validate::parse_json(head)
        .ok()
        .and_then(|v| timberwolfmc::obs::validate::get_str(&v, "kind").map(str::to_owned));
    if kind.as_deref() == Some("trace_meta") {
        let snap = parse_capture(&text).map_err(named)?;
        if let Some(out) = flags.get_str("out") {
            let json = timberwolfmc::obs::trace::chrome_trace_json(&snap);
            std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("wrote {out} (load in ui.perfetto.dev or chrome://tracing)");
        }
        let report = check_trace(&snap);
        let json = || serde_json::to_string(&report.findings);
        return judged(flags, &report.findings, json, || {
            format_trace_report(&report, top)
        });
    }
    if flags.has("out") || flags.has("top") {
        return Err(format!(
            "{path}: --out and --top apply only to a span-trace capture"
        ));
    }
    if kind.is_some() {
        let stream = parse_stream(&text).map_err(named)?;
        let report = analyze(&stream);
        let table = || {
            let tables = format_runs(&stream);
            let gap = if tables.is_empty() { "" } else { "\n" };
            format!("{}{gap}{tables}", format_report(&report))
        };
        return judged(
            flags,
            &report.findings,
            || serde_json::to_string(&report),
            table,
        );
    }
    let findings = if text.trim_start().starts_with('{') {
        check_bench_parallel(&text)
    } else {
        check_metrics_snapshot(&text)
    }
    .map_err(named)?;
    let json = || serde_json::to_string(&findings);
    judged(flags, &findings, json, || format_findings(&findings))
}

/// `twmc diff BASELINE.jsonl CANDIDATE.jsonl`: holds the candidate's
/// headline metrics to fixed bounds against the baseline's. Exits 2 on
/// a regression, so CI can tell a quality regression apart from an
/// operational error.
fn cmd_diff(flags: &Flags) -> Result<ExitCode, String> {
    let [base_path, cand_path] = flags.positional.as_slice() else {
        return Err("diff needs two telemetry JSONL files (baseline, candidate)".to_owned());
    };
    let baseline = metrics(&load_stream(base_path)?);
    let candidate = metrics(&load_stream(cand_path)?);
    let findings = diff_runs(&baseline, &candidate);
    let json = || serde_json::to_string(&findings);
    judged(flags, &findings, json, || format_findings(&findings))
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
