//! Criterion benchmarks of the stage-1 placement machinery, anchoring
//! the paper's CPU-time narrative (§3.3: execution time is directly
//! proportional to `A_c`; 15 min – 4 h on a MicroVAX II at 1988 speeds).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use twmc_anneal::CoolingSchedule;
use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
use twmc_netlist::{synthesize, Netlist, SynthParams};
use twmc_place::{
    generate, legalize, place_stage1, MoveSet, MoveStats, PlaceParams, PlacementState,
};

fn circuit25() -> Netlist {
    synthesize(&SynthParams {
        cells: 25,
        nets: 70,
        pins: 280,
        custom_fraction: 0.2,
        ..Default::default()
    })
}

fn make_state(nl: &Netlist) -> PlacementState<'_> {
    let det = determine_core(nl, &EstimatorParams::default());
    let density = cell_density_factors(nl, nl.stats().avg_pin_density);
    let mut rng = StdRng::seed_from_u64(1);
    PlacementState::random(nl, det.estimator, density, &mut rng)
}

fn bench_generate(c: &mut Criterion) {
    let nl = circuit25();
    c.bench_function("place/generate_call_25cells", |bench| {
        let mut state = make_state(&nl);
        let mut rng = StdRng::seed_from_u64(2);
        let params = PlaceParams::default();
        let mut stats = MoveStats::default();
        bench.iter(|| {
            generate(
                &mut state,
                &params,
                MoveSet::Full,
                200.0,
                200.0,
                black_box(1000.0),
                &mut rng,
                &mut stats,
            )
        })
    });
}

fn bench_calibration(c: &mut Criterion) {
    let nl = circuit25();
    c.bench_function("place/p2_calibration_16samples", |bench| {
        bench.iter_batched(
            || (make_state(&nl), StdRng::seed_from_u64(3)),
            |(mut state, mut rng)| {
                state.calibrate_p2(0.5, 16, &mut rng);
                black_box(state.p2())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_legalize(c: &mut Criterion) {
    let nl = circuit25();
    c.bench_function("place/legalize_stacked_25cells", |bench| {
        bench.iter_batched(
            || {
                let mut st = make_state(&nl);
                for i in 0..nl.cells().len() {
                    st.set_cell_center(i, twmc_geom::Point::ORIGIN);
                }
                st
            },
            |mut st| black_box(legalize(&mut st, 2, 500)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_stage1(c: &mut Criterion) {
    let nl = circuit25();
    let mut group = c.benchmark_group("place/stage1");
    group.sample_size(10);
    // The paper's CPU-time claim: run time scales linearly with A_c.
    for ac in [5usize, 10, 20] {
        group.bench_function(format!("ac{ac}_25cells"), |bench| {
            bench.iter(|| {
                let params = PlaceParams {
                    attempts_per_cell: ac,
                    normalization_samples: 4,
                    ..Default::default()
                };
                black_box(place_stage1(
                    &nl,
                    &params,
                    &EstimatorParams::default(),
                    &CoolingSchedule::stage1(),
                    7,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_generate,
    bench_calibration,
    bench_legalize,
    bench_stage1
);
criterion_main!(benches);
