//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --selfcheck
//! ```
//!
//! One run generates the workload's netlists from the seed, times the
//! set-up (parse + core determination) several times, runs one
//! untimed warm-up, then repeats whole passes over the workload's ops
//! until the time budget is spent, checking every output. It prints a
//! readable report and, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`, which alternates untraced and traced passes so the
//! tracing overhead is measured too). Times are medians over passes;
//! `cpu_s` and `setup_s` are also scaled by the host's momentary speed
//! (see `REFERENCE_S`).
//! See `perfbench/NOTES.md` for the workloads and what they found.

mod flow;
mod host;
mod serve;

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;
use twmc_netlist::{paper_circuit, synthesize, synthesize_profile, write_netlist, SynthParams};
use twmc_serve::json::{self, obj};

use flow::{add, run_op, setup_inputs, Input, OpKind, OpOut, Tally};
use host::{geomean, median, percentile, proc_status_mb, steal_ticks, tail_percentile, Clock};

const WORKLOADS: [&str; 4] = [
    "paper_flow",
    "stage1_ladder",
    "tempering_x2",
    "serve_closed",
];

/// End-to-end metrics, reported on every workload. `wall_s` is printed
/// but not among them: hypervisor steal comes in bursts of 20-40% that
/// last minutes, and moved the median wall time of identical
/// `serve_closed` runs by 35% between two sets; `cpu_s` excludes steal.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("teil", "grid"),
    ("chip_area", "grid2"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, reported on every workload; a
/// count or share is 0 where the workload does not call the layer.
const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("estimator.core_s", "s"),
    ("place.stage1_s", "s"),
    ("place.moves", "count"),
    ("place.temp_steps", "count"),
    ("place.accept_ratio", "ratio"),
    ("place.ns_per_move", "ns"),
    ("place.cost.net_span_share", "ratio"),
    ("place.cost.overlap_index_share", "ratio"),
    ("place.cost.penalty_share", "ratio"),
    ("parallel.moves", "count"),
    ("parallel.swap_accept_ratio", "ratio"),
    ("parallel.speedup", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("route.calls", "count"),
    ("route.alternatives", "count"),
    ("route.interchange_attempts", "count"),
    ("route.reassign_ratio", "ratio"),
    ("route.graph_nodes", "count"),
    ("route.overflow", "count"),
    ("route.unrouted", "count"),
    ("route.share", "ratio"),
    ("route.phase1_share", "ratio"),
    ("refine.share", "ratio"),
    ("refine.anneal_share", "ratio"),
    ("core.finalize_share", "ratio"),
    ("resume.checkpoint_writes", "count"),
    ("serve.queue_wait_share", "ratio"),
    ("serve.run_share", "ratio"),
    ("serve.client_share", "ratio"),
    ("serve.rss_per_job_mb", "MB"),
    ("obs.trace_overhead", "ratio"),
    ("obs.trace_dropped", "count"),
];

/// Rows of the printed per-layer table that are not JSON metrics:
/// absolute times that only some workloads have.
const TABLE_ONLY: &[(&str, &str)] = &[
    ("parallel.stage1_s", "s"),
    ("route.global_route_s", "s"),
    ("route.phase1_s", "s"),
    ("route.phase2_s", "s"),
    ("refine.stage2_s", "s"),
    ("refine.channel_def_s", "s"),
    ("refine.anneal_s", "s"),
    ("core.finalize_s", "s"),
    ("core.legalize_s", "s"),
    ("resume.checkpoint_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.fetch_ms", "ms"),
];

/// The end-to-end metric, and the workloads, a layer metric should move.
fn target(metric: &str) -> &'static str {
    match metric.split('.').next().unwrap_or("") {
        "netlist" | "estimator" => "setup_s; all (largest texts: stage1_ladder)",
        "place" => "wall_s/cpu_s; stage1_ladder ~100%, tempering_x2, paper_flow <=8%",
        "parallel" => "wall_s of 2-thread tempering (traced run only); cpu_s flat",
        "route" => "wall_s/cpu_s paper_flow, latency serve_closed; none elsewhere",
        "refine" | "core" => "wall_s/cpu_s; paper_flow, serve_closed",
        "resume" | "serve" => "latency/peak_rss_mb; serve_closed only",
        _ => "none (end-to-end runs are untraced)",
    }
}

/// The reference kernel's round time (`host::reference_round`) on the
/// 2-vCPU KVM guest this benchmark was calibrated on, in its fast state.
/// Every CPU time is scaled by this over the kernel's round time
/// measured around it, so `cpu_s` and `setup_s` read as seconds on that
/// host whatever its momentary speed: within one set of runs that
/// host's speed moved by half for minutes, which no statistic over one
/// run can remove.
const REFERENCE_S: f64 = 2.3e-3;

/// CPU seconds of reference rounds that make one host-speed sample.
const REFERENCE_SAMPLE_S: f64 = 0.05;

/// Workload sizes. `FULL` is the benchmark; `TINY` is the self-check.
struct Scale {
    paper: &'static [&'static str],
    paper_ac: usize,
    ladder: &'static [usize],
    ladder_ac: usize,
    temper_cells: usize,
    temper_ac: usize,
    serve_jobs: usize,
    serve_cells: (usize, usize),
    serve_ac: usize,
    /// CPU seconds of repeated set-up rounds that make one set-up sample.
    setup_sample_s: f64,
}

const FULL: Scale = Scale {
    paper: &["i3", "p1"],
    paper_ac: 25,
    ladder: &[100, 200, 400],
    ladder_ac: 2,
    temper_cells: 80,
    temper_ac: 5,
    serve_jobs: 10,
    serve_cells: (8, 12),
    serve_ac: 5,
    setup_sample_s: 0.1,
};

const TINY: Scale = Scale {
    paper: &["i3"],
    paper_ac: 2,
    ladder: &[12, 24],
    ladder_ac: 1,
    temper_cells: 8,
    temper_ac: 2,
    serve_jobs: 2,
    serve_cells: (8, 8),
    serve_ac: 2,
    setup_sample_s: 0.002,
};

/// Every workload's circuits are a fixed suite, as the paper's circuits
/// are: they are synthesized from this seed, and the workload seed
/// drives the annealing of every op. Synthetic circuits of one size
/// differ by up to 30% in stage-1 cost per move, so circuits drawn from
/// the workload seed would hide a regression of that size.
const CIRCUIT_SEED: u64 = 1988;

fn mix(seed: u64, k: u64) -> u64 {
    let mut x = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn synthetic(cells: usize, nets: usize, pins: usize, seed: u64) -> String {
    write_netlist(&synthesize(&SynthParams {
        cells,
        nets,
        pins,
        custom_fraction: 0.25,
        seed,
        ..Default::default()
    }))
}

/// The workload's inputs: the fixed circuits and per-op annealing seeds
/// drawn from the workload seed.
fn inputs(workload: &str, scale: &Scale, seed: u64) -> Vec<Input> {
    match workload {
        "paper_flow" => scale
            .paper
            .iter()
            .enumerate()
            .map(|(k, name)| Input {
                name: (*name).to_owned(),
                text: write_netlist(&synthesize_profile(
                    paper_circuit(name).expect("a paper circuit"),
                    CIRCUIT_SEED,
                )),
                seed: mix(seed, k as u64),
                ac: scale.paper_ac,
                kind: OpKind::Flow,
            })
            .collect(),
        "stage1_ladder" => scale
            .ladder
            .iter()
            .map(|&cells| Input {
                name: cells.to_string(),
                text: synthetic(
                    cells,
                    3 * cells,
                    12 * cells,
                    mix(CIRCUIT_SEED, cells as u64),
                ),
                seed: mix(seed, cells as u64 + 1),
                ac: scale.ladder_ac,
                kind: OpKind::Stage1,
            })
            .collect(),
        "tempering_x2" => {
            let cells = scale.temper_cells;
            vec![Input {
                name: cells.to_string(),
                text: synthetic(cells, 3 * cells, 12 * cells, mix(CIRCUIT_SEED, 1)),
                seed: mix(seed, 2),
                ac: scale.temper_ac,
                kind: OpKind::Tempering {
                    replicas: 2,
                    threads: 1,
                },
            }]
        }
        "serve_closed" => (0..scale.serve_jobs)
            .map(|j| {
                let (lo, hi) = scale.serve_cells;
                let cells = lo + j % (hi - lo + 1);
                Input {
                    name: format!("job{j}"),
                    text: synthetic(cells, 2 * cells, 6 * cells, mix(CIRCUIT_SEED, j as u64)),
                    seed: mix(seed, 1000 + j as u64) % 1_000_000,
                    ac: scale.serve_ac,
                    kind: OpKind::Flow,
                }
            })
            .collect(),
        other => unreachable!("unknown workload {other}"),
    }
}

/// One timed pass over every op of the workload.
struct Pass {
    traced: bool,
    /// Per op, `REFERENCE_S` over the mean reference round time of the
    /// host-speed samples just before and after it.
    speeds: Vec<f64>,
    wall: f64,
    cpu: f64,
    ops: Vec<OpOut>,
    tally: Tally,
}

/// Runs every op once, with a host-speed sample after each; `before` is
/// the sample taken just before the pass.
fn local_pass(inputs: &[Input], traced: bool, mut before: f64) -> Pass {
    let (mut ops, mut speeds) = (Vec::new(), Vec::new());
    for input in inputs {
        ops.push(run_op(input, traced));
        let after = host::reference_round(REFERENCE_SAMPLE_S);
        speeds.push(REFERENCE_S * 2.0 / (before + after));
        before = after;
    }
    // A traced full flow also routes its final placement once more, for
    // the per-call router time; that call is not part of the pass.
    let extra: f64 = ops
        .iter()
        .filter_map(|o| o.tally.get("route.global_route_s"))
        .sum();
    Pass {
        traced,
        speeds,
        wall: ops.iter().map(|o| o.wall).sum::<f64>() - extra,
        cpu: ops.iter().map(|o| o.cpu).sum::<f64>() - extra,
        ops,
        tally: Tally::new(),
    }
}

fn serve_pass(jobs: &[Input], refs: &[OpOut], traced: bool) -> Pass {
    let service = serve::Service::start();
    let rss0 = proc_status_mb("VmRSS");
    let clock = Clock::start();
    let ops = serve::closed_loop(&service, jobs, refs, traced);
    let span = clock.stop();
    let mut tally = Tally::new();
    add(
        &mut tally,
        "serve.rss_per_job_mb",
        (proc_status_mb("VmRSS") - rss0) / jobs.len() as f64,
    );
    service.shutdown();
    Pass {
        traced,
        speeds: Vec::new(),
        wall: span.wall,
        cpu: span.cpu,
        ops,
        tally,
    }
}

/// One set-up sample: parses every input and determines its core (on
/// `serve_closed` also starts the daemon and binds its port) round after
/// round until the rounds have taken `min_s` CPU seconds. Returns the
/// CPU seconds of the fastest round, and the mean parse and core
/// seconds of a round. Set-up is timed in CPU seconds, like `cpu_s`, and
/// as the best of many rounds, because one round takes about a
/// millisecond and this host's speed swings within seconds (see
/// `NOTES.md`).
fn setup_sample(inputs: &[Input], is_serve: bool, min_s: f64) -> [f64; 3] {
    let (mut total, mut best, mut parse, mut core, mut rounds) = (0.0, f64::INFINITY, 0.0, 0.0, 0);
    while total < min_s || rounds == 0 {
        let clock = Clock::start();
        let (p, c) = setup_inputs(inputs);
        let service = is_serve.then(serve::Service::start);
        let cpu = clock.stop().cpu;
        if let Some(s) = service {
            s.shutdown();
        }
        total += cpu;
        best = best.min(cpu);
        parse += p;
        core += c;
        rounds += 1;
    }
    [best, parse / rounds as f64, core / rounds as f64]
}

/// Everything one run measured.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
    checks: BTreeMap<&'static str, usize>,
    lines: Vec<String>,
}

fn run(workload: &str, scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Report {
    let start = Instant::now();
    let steal0 = steal_ticks();
    let mut inputs = inputs(workload, scale, seed);
    let is_serve = workload == "serve_closed";

    // Set-up samples are taken before the first pass and after each
    // pass, so they see the same host state as the passes, and each is
    // followed by a sample of the host's speed: pass `k` lies between
    // `refs[k]` and `refs[k + 1]`.
    let mut setups = vec![setup_sample(&inputs, is_serve, scale.setup_sample_s)];
    let mut refs = vec![host::reference_round(REFERENCE_SAMPLE_S)];

    // Warm-up: the first op (the serve workload runs every job's spec
    // in-process, which is also the reference the daemon must match).
    let (warm, redraws) = if is_serve {
        serve::references(&mut inputs)
    } else {
        (vec![run_op(&inputs[0], false)], 0)
    };

    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let traced = passes.len() - untraced;
        let short = if trace {
            untraced < 2 || traced < 2
        } else {
            untraced < 3
        };
        let longest = passes.iter().map(|p| p.wall).fold(0.0, f64::max);
        let between = scale.setup_sample_s + REFERENCE_SAMPLE_S;
        let fits = start.elapsed().as_secs_f64() + longest + between <= seconds;
        if !short && !fits {
            break;
        }
        let traced = trace && passes.len() % 2 == 1;
        passes.push(if is_serve {
            serve_pass(&inputs, &warm, traced)
        } else {
            local_pass(&inputs, traced, refs[refs.len() - 1])
        });
        setups.push(setup_sample(&inputs, is_serve, scale.setup_sample_s));
        refs.push(host::reference_round(REFERENCE_SAMPLE_S));
    }
    // Tempering passes run both replicas on one thread: two busy threads
    // on this 2-vCPU host timed too unsteadily to hold a bound. The
    // traced run also times the same op once on two threads, for the
    // parallel layer's speedup and efficiency.
    let two_threads = match inputs[0].kind {
        OpKind::Tempering { replicas, .. } if trace => Some(run_op(
            &Input {
                kind: OpKind::Tempering {
                    replicas,
                    threads: 2,
                },
                ..inputs[0].clone()
            },
            false,
        )),
        _ => None,
    };
    // A serve pass is scaled as a whole, by the samples around it.
    for (k, pass) in passes.iter_mut().enumerate() {
        if pass.speeds.is_empty() {
            let speed = REFERENCE_S * 2.0 / (refs[k] + refs[k + 1]);
            pass.speeds = vec![speed; pass.ops.len()];
        }
    }

    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        checks: BTreeMap::new(),
        lines: Vec::new(),
    };
    let mut failures: Vec<String> = Vec::new();
    let all_ops = warm.iter().chain(&two_threads);
    for op in all_ops.chain(passes.iter().flat_map(|p| &p.ops)) {
        report.attempted += 1;
        for c in &op.checks {
            *report.checks.entry(c).or_default() += 1;
        }
        if !op.failures.is_empty() {
            report.failed += 1;
            failures.extend(op.failures.iter().cloned());
        }
    }
    // Determinism: every pass, traced or not, repeats the same inputs,
    // so each op must reproduce the first pass bit for bit; the warm-up
    // re-runs the first op before any pass.
    let first: Vec<u64> = passes[0].ops.iter().map(|o| o.fingerprint).collect();
    let mut differ = |what: String| {
        report.failed += 1;
        failures.push(format!("determinism: {what}"));
    };
    for (k, pass) in passes.iter().enumerate() {
        for (i, op) in pass.ops.iter().enumerate() {
            *report.checks.entry("determinism").or_default() += 1;
            if op.fingerprint != first[i] {
                differ(format!(
                    "{} in pass {k} differs from pass 0",
                    inputs[i].name
                ));
            }
        }
    }
    if !is_serve && warm[0].fingerprint != first[0] {
        differ(format!("{} warm-up differs from pass 0", inputs[0].name));
    }
    if let Some(op) = &two_threads {
        *report.checks.entry("threads_agree").or_default() += 1;
        if op.fingerprint != first[0] {
            differ(format!(
                "{} on two threads differs from one",
                inputs[0].name
            ));
        }
    }
    report.correct = failures.is_empty();

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall).collect();
    let cpus: Vec<f64> = untraced.iter().map(|p| p.cpu).collect();
    let wall_s = median(&walls);
    // Each op's median over untraced passes of its speed-scaled CPU time,
    // summed over the ops.
    let cpu_s: f64 = (0..inputs.len())
        .map(|i| {
            median(
                &untraced
                    .iter()
                    .map(|p| p.ops[i].cpu * p.speeds[i])
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    let cpu_raw = median(&cpus);
    let setup_raw = median(&setups.iter().map(|s| s[0]).collect::<Vec<_>>());
    let setup_s = median(
        &setups
            .iter()
            .zip(&refs)
            .map(|(s, r)| s[0] * REFERENCE_S / r)
            .collect::<Vec<_>>(),
    );
    let of = |f: fn(&OpOut) -> f64| geomean(&passes[0].ops.iter().map(f).collect::<Vec<_>>());
    let teil = of(|o| o.teil);
    let chip_area = of(|o| o.chip_area);
    let routed = of(|o| o.routed_length.max(1.0));
    let peak_rss_mb = proc_status_mb("VmHWM");
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.ops.iter().map(|o| o.wall * 1e3))
        .collect();

    let (steal1, total1) = steal_ticks();
    let steal = (steal1 - steal0.0) as f64 / (total1 - steal0.1).max(1) as f64;
    let spread = |v: &[f64]| {
        let m = median(v);
        if m > 0.0 {
            (percentile(v, 0.75) - percentile(v, 0.25)) / m
        } else {
            0.0
        }
    };
    let l = &mut report.lines;
    l.push(format!(
        "perfbench {workload} seed={seed} trace={} nproc={} passes={} (untraced {}, traced {}) \
         ops/pass={} run={:.1}s",
        trace as u8,
        host::nproc(),
        passes.len(),
        untraced.len(),
        traced.len(),
        inputs.len(),
        start.elapsed().as_secs_f64()
    ));
    l.push(format!(
        "host steal over the run: {:.2}% of all CPU ticks (diagnostic, not a metric)",
        steal * 100.0
    ));
    if redraws > 0 {
        l.push(format!(
            "seed redraws: {redraws} (serve jobs whose in-process run failed a check)"
        ));
    }
    l.push(format!(
        "host speed: reference round median {:.3} ms, {:.3} ms on the reference host; \
         setup_s and cpu_s are scaled to that host",
        median(&refs) * 1e3,
        REFERENCE_S * 1e3
    ));
    l.push("end-to-end (medians; IQR as a share of the median):".into());
    l.push(format!(
        "  setup_s        {setup_s:.6} s   over {} set-ups, unscaled {setup_raw:.6} s, IQR {:.1}%",
        setups.len(),
        spread(&setups.iter().map(|s| s[0]).collect::<Vec<_>>()) * 100.0
    ));
    l.push(format!(
        "  wall_s         {wall_s:.4} s   over {} passes, IQR {:.1}%",
        walls.len(),
        spread(&walls) * 100.0
    ));
    l.push(format!(
        "  cpu_s          {cpu_s:.4} s   unscaled {cpu_raw:.4} s, IQR {:.1}%",
        spread(&cpus) * 100.0
    ));
    l.push(format!(
        "  latency_p50_ms {:.2} ms  over {} ops",
        percentile(&latencies, 0.5),
        latencies.len()
    ));
    l.push(match tail_percentile(latencies.len()) {
        Some(p) => format!(
            "  latency_p{:.0}_ms {:.2} ms  (highest percentile with >= 10 ops beyond it)",
            p * 100.0,
            percentile(&latencies, p)
        ),
        None => format!(
            "  latency_p90_ms n/a: {} ops leave no percentile with 10 beyond it",
            latencies.len()
        ),
    });
    l.push(format!(
        "  teil           {teil:.1} grid (geomean over circuits)"
    ));
    l.push(format!("  chip_area      {chip_area:.1} grid2 (geomean)"));
    if matches!(inputs[0].kind, OpKind::Flow) {
        l.push(format!("  routed_length  {routed:.1} grid (geomean)"));
    }
    l.push(format!("  peak_rss_mb    {peak_rss_mb:.1} MB (VmHWM)"));
    l.push(format!(
        "  failed_frac    {:.4} ({} of {} ops failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    l.push(format!(
        "  pass wall_s/cpu_s in run order (t = traced): {}",
        passes
            .iter()
            .map(|p| format!(
                "{:.3}/{:.3}{}",
                p.wall,
                p.cpu,
                if p.traced { "t" } else { "" }
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    l.push("per op (median over untraced passes):".into());
    for (i, input) in inputs.iter().enumerate() {
        let w: Vec<f64> = untraced.iter().map(|p| p.ops[i].wall).collect();
        let c: Vec<f64> = untraced.iter().map(|p| p.ops[i].cpu).collect();
        l.push(format!(
            "  {:<8} wall {:.4} s  cpu {:.4} s  TEIL {:.1}  area {:.0}",
            input.name,
            median(&w),
            median(&c),
            passes[0].ops[i].teil,
            passes[0].ops[i].chip_area
        ));
    }
    l.push(format!(
        "checks: {}",
        report
            .checks
            .iter()
            .map(|(k, n)| format!("{k} x{n}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for f in failures.iter().take(20) {
        l.push(format!("FAILED {f}"));
    }

    if !trace {
        let values = [setup_s, cpu_s, teil, chip_area, peak_rss_mb];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            report.metrics.push(((*name).to_owned(), v, *unit));
        }
        return report;
    }

    let layers = layer_values(&setups, &untraced, &traced, wall_s, two_threads.as_ref());
    let l = &mut report.lines;
    l.push(
        "per-layer (traced run; times from the benchmark's own clocks, splits from spans):".into(),
    );
    l.push(format!(
        "  {:<32} {:>14} {:<6} moves",
        "metric", "value", "unit"
    ));
    for (name, unit) in PER_LAYER.iter().chain(TABLE_ONLY) {
        l.push(format!(
            "  {name:<32} {:>14.6} {unit:<6} {}",
            layers.get(*name).copied().unwrap_or(0.0),
            target(name)
        ));
    }
    for (i, input) in inputs.iter().enumerate() {
        let per_move: Vec<f64> = untraced
            .iter()
            .filter_map(|p| {
                let t = &p.ops[i].tally;
                Some(t.get("place.stage1_s")? * 1e9 / t.get("place.moves")?)
            })
            .collect();
        if !per_move.is_empty() {
            l.push(format!(
                "  place.ns_per_move.{:<14} {:>14.1} ns     {}",
                input.name,
                median(&per_move),
                target("place")
            ));
        }
    }
    for (name, unit) in PER_LAYER {
        let v = layers.get(*name).copied().unwrap_or(0.0);
        report.metrics.push(((*name).to_owned(), v, *unit));
    }
    report
}

/// Per-layer values: medians over passes of per-pass sums, taken from
/// untraced passes where the quantity is timed around a public call and
/// from traced passes where it comes from events or spans.
fn layer_values(
    setups: &[[f64; 3]],
    untraced: &[&Pass],
    traced: &[&Pass],
    wall_s: f64,
    two_threads: Option<&OpOut>,
) -> BTreeMap<&'static str, f64> {
    let medians = |passes: &[&Pass]| {
        let mut keys: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for p in passes {
            let mut sum = p.tally.clone();
            for op in &p.ops {
                for (k, v) in &op.tally {
                    add(&mut sum, k, *v);
                }
            }
            for (k, v) in sum {
                keys.entry(k).or_default().push(v);
            }
        }
        keys.into_iter()
            .map(|(k, v)| (k, median(&v)))
            .collect::<BTreeMap<_, _>>()
    };
    let (u, t) = (medians(untraced), medians(traced));
    let get = |k: &str| u.get(k).or_else(|| t.get(k)).copied().unwrap_or(0.0);
    let tr = |k: &str| t.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let traced_wall = median(&traced.iter().map(|p| p.wall).collect::<Vec<_>>());

    let mut v = BTreeMap::new();
    v.insert(
        "netlist.parse_s",
        median(&setups.iter().map(|s| s[1]).collect::<Vec<_>>()),
    );
    v.insert(
        "estimator.core_s",
        median(&setups.iter().map(|s| s[2]).collect::<Vec<_>>()),
    );
    let moves = get("place.moves");
    v.insert("place.stage1_s", get("place.stage1_s"));
    v.insert("place.moves", moves);
    v.insert("place.temp_steps", get("place.temp_steps"));
    v.insert("place.accept_ratio", ratio(get("place.accepts"), moves));
    v.insert(
        "place.ns_per_move",
        ratio(get("place.stage1_s") * 1e9, moves),
    );
    let cost = ["net_span", "overlap_index", "penalty"].map(|n| tr(&format!("place.cost.{n}_s")));
    let cost_sum: f64 = cost.iter().sum();
    v.insert("place.cost.net_span_share", ratio(cost[0], cost_sum));
    v.insert("place.cost.overlap_index_share", ratio(cost[1], cost_sum));
    v.insert("place.cost.penalty_share", ratio(cost[2], cost_sum));
    // The parallel layer on two threads, against the same op's median
    // on one.
    if let Some(op) = two_threads {
        let wall2 = op.tally.get("parallel.stage1_s").copied().unwrap_or(0.0);
        v.insert("parallel.stage1_s", wall2);
        v.insert("parallel.speedup", ratio(get("parallel.stage1_s"), wall2));
        v.insert("parallel.efficiency", ratio(op.cpu, 2.0 * op.wall));
    }
    v.insert("parallel.moves", get("parallel.moves"));
    v.insert(
        "parallel.swap_accept_ratio",
        ratio(get("parallel.swaps_accepted"), get("parallel.swaps")),
    );
    for k in [
        "route.calls",
        "route.alternatives",
        "route.interchange_attempts",
        "route.overflow",
        "route.unrouted",
        "route.phase1_s",
        "route.phase2_s",
        "refine.channel_def_s",
        "refine.anneal_s",
        "resume.checkpoint_writes",
        "obs.trace_dropped",
    ] {
        v.insert(k, tr(k));
    }
    v.insert(
        "route.reassign_ratio",
        ratio(tr("route.reassignments"), tr("route.interchange_attempts")),
    );
    v.insert("route.graph_nodes", get("route.graph_nodes"));
    let per_call = ratio(tr("route.global_route_s"), tr("route.direct_calls"));
    v.insert("route.global_route_s", per_call);
    let (p1, p2) = (tr("route.phase1_s"), tr("route.phase2_s"));
    v.insert("route.share", ratio(p1 + p2, traced_wall));
    v.insert("route.phase1_share", ratio(p1, p1 + p2));
    let stage2 = get("refine.stage2_s");
    v.insert("refine.stage2_s", stage2);
    v.insert("refine.share", ratio(stage2, wall_s));
    v.insert(
        "refine.anneal_share",
        ratio(tr("refine.anneal_s"), tr("refine.stage2_s")),
    );
    let finalize = get("core.finalize_s");
    v.insert("core.finalize_s", finalize);
    // Finalization routes twice; what is left is legalize + spread.
    let ops_routed = tr("route.direct_calls");
    v.insert(
        "core.legalize_s",
        (finalize - 2.0 * per_call * ops_routed).max(0.0),
    );
    v.insert("core.finalize_share", ratio(finalize, wall_s));
    v.insert(
        "resume.checkpoint_ms",
        ratio(
            tr("resume.checkpoint_s") * 1e3,
            tr("resume.checkpoint_writes"),
        ),
    );
    let jobs = get("serve.jobs");
    let traced_jobs = tr("serve.jobs");
    v.insert("serve.submit_ms", ratio(get("serve.submit_s") * 1e3, jobs));
    v.insert("serve.fetch_ms", ratio(get("serve.fetch_s") * 1e3, jobs));
    v.insert(
        "serve.queue_wait_ms",
        ratio(tr("serve.queue_wait_s") * 1e3, traced_jobs),
    );
    v.insert("serve.run_ms", ratio(tr("serve.run_s") * 1e3, traced_jobs));
    v.insert(
        "serve.queue_wait_share",
        ratio(tr("serve.queue_wait_s"), tr("serve.latency_s")),
    );
    v.insert(
        "serve.run_share",
        ratio(tr("serve.run_s"), tr("serve.latency_s")),
    );
    v.insert(
        "serve.client_share",
        ratio(
            get("serve.submit_s") + get("serve.fetch_s"),
            get("serve.latency_s") + get("serve.fetch_s"),
        ),
    );
    v.insert("serve.rss_per_job_mb", get("serve.rss_per_job_mb"));
    v.insert("obs.trace_overhead", ratio(traced_wall, wall_s) - 1.0);
    v
}

fn json_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = obj(vec![
                ("value", Value::Float(*value)),
                ("unit", Value::Str((*unit).to_owned())),
            ]);
            (name.clone(), entry)
        })
        .collect();
    json::to_text(&obj(vec![
        ("correct", Value::Bool(report.correct)),
        ("attempted", Value::UInt(report.attempted as u64)),
        ("failed", Value::UInt(report.failed as u64)),
        ("metrics", Value::Object(metrics)),
    ]))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse::<u32>().map_err(|_| bad())? as f64,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// Runs every workload at a tiny size, untraced and traced, and checks
/// that each emits every metric with its unit, that its outputs are
/// correct, and that each of its output checks ran.
fn selfcheck() -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json").ok();
    for workload in WORKLOADS {
        let required: &[&str] = match workload {
            "paper_flow" => &[
                "finite",
                "no_overlap",
                "inside_chip",
                "unrouted",
                "width_report",
            ],
            "stage1_ladder" => &["finite", "inside_chip", "move_accounting"],
            "tempering_x2" => &[
                "finite",
                "inside_chip",
                "move_accounting",
                "replicas_survive",
            ],
            _ => &[
                "accepted",
                "state_done",
                "matches_pipeline",
                "unrouted",
                "no_overlap",
                "inside_chip",
                "width_report",
            ],
        };
        for trace in [false, true] {
            let report = run(workload, &TINY, 7, 0.0, trace);
            let what = format!("{workload} trace={}", trace as u8);
            if !report.correct || report.failed > 0 {
                return Err(format!(
                    "{what}: outputs failed:\n{}",
                    report.lines.join("\n")
                ));
            }
            let traced_only: &[&str] = match (workload, trace) {
                ("tempering_x2", true) => &["threads_agree"],
                _ => &[],
            };
            for check in required.iter().chain(&["determinism"]).chain(traced_only) {
                if !report.checks.contains_key(check) {
                    return Err(format!("{what}: check `{check}` never ran"));
                }
            }
            let expected = if trace { PER_LAYER } else { END_TO_END };
            let emitted: Vec<(&str, &str)> = report
                .metrics
                .iter()
                .map(|(n, _, u)| (n.as_str(), *u))
                .collect();
            if emitted != expected {
                return Err(format!(
                    "{what}: emitted {emitted:?}, expected {expected:?}"
                ));
            }
            if let Some((name, v, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
                return Err(format!("{what}: {name} = {v}"));
            }
            if !trace {
                if let Some((name, ..)) = report.metrics.iter().find(|(_, v, _)| *v <= 0.0) {
                    return Err(format!("{what}: end-to-end metric {name} is not positive"));
                }
            }
            if let Some(text) = &declared {
                for (name, unit) in expected {
                    let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                    if !text.contains(&entry) {
                        return Err(format!("BENCHMARK.json does not declare {entry}"));
                    }
                }
            }
            println!("selfcheck {what}: ok ({} ops)", report.attempted);
        }
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--selfcheck") {
        return match selfcheck() {
            Ok(()) => std::process::ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("selfcheck failed: {e}");
                std::process::ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                 perfbench --selfcheck"
            );
            return std::process::ExitCode::from(2);
        }
    };
    let mut report = run(&args.workload, &FULL, args.seed, args.seconds, args.trace);
    // JSON has no NaN: a non-finite metric marks the run incorrect.
    for (name, value, _) in &mut report.metrics {
        if !value.is_finite() {
            report.lines.push(format!("FAILED metric {name} = {value}"));
            report.correct = false;
            *value = 0.0;
        }
    }
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", json_line(&report));
    std::process::ExitCode::SUCCESS
}
