//! Benchmarks of the stage-1 per-move cost kernels: the incremental
//! engine (bin-grid overlap index + cached net spans, `move_cost`)
//! against the from-scratch reference (`move_cost_scan`) at N ∈
//! {25, 100, 400} cells, and whole `generate` calls on an annealing
//! state, which add what a frozen-state evaluation never shows: the
//! mutation, the index upkeep on commit and the rollback.
//!
//! Besides the criterion timings, a measurement run (`cargo bench`)
//! writes a `BENCH_place.json` summary at the workspace root — one row
//! per circuit size with the indexed and scan nanoseconds per evaluation,
//! the resulting speedup (the acceptance bar is ≥5× at 400 cells), and
//! the nanoseconds per `generate` attempt.

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;

use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
use twmc_netlist::{synthesize, NetId, Netlist, SynthParams};
use twmc_place::{generate, MoveSet, MoveStats, PlaceParams, PlacementState, Stage1Context};

fn circuit(cells: usize) -> Netlist {
    synthesize(&SynthParams {
        cells,
        nets: cells * 3,
        pins: cells * 12,
        custom_fraction: 0.2,
        seed: 11,
        avg_cell_dim: 24,
        ..Default::default()
    })
}

fn make_state(nl: &Netlist) -> PlacementState<'_> {
    let det = determine_core(nl, &EstimatorParams::default());
    let density = cell_density_factors(nl, nl.stats().avg_pin_density);
    let mut rng = StdRng::seed_from_u64(1);
    PlacementState::random(nl, det.estimator, density, 5.0, &mut rng)
}

/// Pre-drawn single-cell move sites: the (involved, touched-nets) inputs
/// a `generate` displacement hands to the cost evaluation.
fn draw_moves(st: &PlacementState<'_>, n: usize, count: usize) -> Vec<([usize; 1], Vec<NetId>)> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..count)
        .map(|_| {
            let i = rng.random_range(0..n);
            let involved = [i];
            let nets = st.nets_touching(&involved);
            (involved, nets)
        })
        .collect()
}

#[derive(Serialize)]
struct KernelRow {
    cells: usize,
    indexed_ns_per_eval: f64,
    scan_ns_per_eval: f64,
    speedup: f64,
    generate_ns_per_attempt: f64,
}

/// Nanoseconds per Metropolis attempt over `calls` whole `generate`
/// calls on a calibrated random state at a fixed mid-schedule
/// temperature (`100·S_T`) and its range-limiter window, timed after as
/// many untimed calls have left the random start behind; returned with
/// the acceptance ratio of the timed calls.
fn time_generate(nl: &Netlist, calls: usize) -> (f64, f64) {
    let params = PlaceParams::default();
    let mut rng = StdRng::seed_from_u64(5);
    let ctx = Stage1Context::new(nl, &params, &EstimatorParams::default());
    let mut st = ctx.random_state(&params, &mut rng);
    let t = 100.0 * ctx.s_t;
    let (wx, wy) = (ctx.limiter.window_x(t), ctx.limiter.window_y(t));
    let mut run = |stats: &mut MoveStats| {
        for _ in 0..calls {
            generate(&mut st, &params, MoveSet::Full, wx, wy, t, &mut rng, stats);
        }
    };
    run(&mut MoveStats::default());
    let mut stats = MoveStats::default();
    let t0 = std::time::Instant::now();
    run(&mut stats);
    let ns = t0.elapsed().as_nanos() as f64 / stats.attempts() as f64;
    (ns, stats.accepts() as f64 / stats.attempts() as f64)
}

fn time_evals<F: FnMut() -> f64>(mut f: F, iters: usize) -> f64 {
    let t0 = std::time::Instant::now();
    let mut acc = 0.0;
    for _ in 0..iters {
        acc += f();
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Indexed-vs-scan sweep, dumped as `BENCH_place.json`.
fn kernel_summary(test_mode: bool) {
    let sizes: &[usize] = if test_mode { &[25] } else { &[25, 100, 400] };
    let evals = if test_mode { 8 } else { 4000 };
    let mut rows = Vec::new();
    for &n in sizes {
        let nl = circuit(n);
        let st = make_state(&nl);
        let moves = draw_moves(&st, n, 64);
        let mut ki = 0usize;
        let indexed = time_evals(
            || {
                let (involved, nets) = &moves[ki % moves.len()];
                ki += 1;
                st.move_cost(involved, nets).c1
            },
            evals,
        );
        let mut ks = 0usize;
        let scan = time_evals(
            || {
                let (involved, nets) = &moves[ks % moves.len()];
                ks += 1;
                st.move_cost_scan(involved, nets).c1
            },
            evals,
        );
        let (generate_ns, accept) = time_generate(&nl, if test_mode { 8 } else { 20_000 });
        eprintln!("place/kernels {n} cells: generate acceptance {accept:.2}");
        rows.push(KernelRow {
            cells: n,
            indexed_ns_per_eval: indexed,
            scan_ns_per_eval: scan,
            speedup: scan / indexed,
            generate_ns_per_attempt: generate_ns,
        });
    }
    for r in &rows {
        eprintln!(
            "place/kernels {} cells: indexed {:.0}ns, scan {:.0}ns, {:.1}x, generate {:.0}ns/attempt",
            r.cells,
            r.indexed_ns_per_eval,
            r.scan_ns_per_eval,
            r.speedup,
            r.generate_ns_per_attempt
        );
    }
    if !test_mode {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_place.json");
        let text = serde_json::to_string_pretty(&rows).expect("serializable rows");
        std::fs::write(out, text).expect("writable workspace root");
        eprintln!("wrote {out}");
    }
}

fn bench_move_cost(c: &mut Criterion) {
    for n in [25usize, 100, 400] {
        let nl = circuit(n);
        let st = make_state(&nl);
        let moves = draw_moves(&st, n, 64);
        let mut group = c.benchmark_group(format!("place/move_cost_{n}cells"));
        group.bench_function("indexed", |bench| {
            let mut k = 0usize;
            bench.iter(|| {
                let (involved, nets) = &moves[k % moves.len()];
                k += 1;
                black_box(st.move_cost(involved, nets))
            })
        });
        group.bench_function("scan", |bench| {
            let mut k = 0usize;
            bench.iter(|| {
                let (involved, nets) = &moves[k % moves.len()];
                k += 1;
                black_box(st.move_cost_scan(involved, nets))
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_move_cost);

fn main() {
    kernel_summary(!criterion::bench_mode());
    benches();
}
