//! A golden digest of stage-1 placement: any change to the move machine,
//! the cost engine or the overlap index that is meant to keep placements
//! identical is held to it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use timberwolfmc::anneal::{CoolingSchedule, RangeLimiter};
use timberwolfmc::estimator::EstimatorParams;
use timberwolfmc::geom::{Orientation, Point, Rect, Side, TileSet};
use timberwolfmc::netlist::{
    synthesize, AspectRange, NetPin, Netlist, NetlistBuilder, SideSet, SynthParams,
};
use timberwolfmc::parallel::{parallel_stage1, ParallelParams, Strategy};
use timberwolfmc::place::{
    place_stage1, run_annealing, MoveSet, MoveStats, PlaceParams, PlacementState, Stage1Context,
    Stage1Result,
};

/// 64-bit FNV-1a over a stream of integers (little-endian bytes), so the
/// digest does not depend on `std`'s unspecified hasher.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn int(&mut self, v: i64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.int(v.to_bits() as i64);
    }

    fn point(&mut self, p: Point) {
        self.int(p.x);
        self.int(p.y);
    }

    /// Every cell's placement, every pin's position and site, the TEIL,
    /// the chip area and the move counters of one finished stage-1 run.
    fn run(&mut self, st: &PlacementState<'_>, result: &Stage1Result) {
        for c in st.cells() {
            self.point(c.pos);
            self.int(
                Orientation::ALL
                    .iter()
                    .position(|&o| o == c.orientation)
                    .unwrap() as i64,
            );
            self.int(c.instance as i64);
            self.float(c.aspect);
        }
        for pin in 0..st.netlist().pins().len() {
            self.point(st.pin_position(pin));
            match st.pin_site(pin) {
                Some(site) => {
                    self.int(Side::ALL.iter().position(|&s| s == site.side).unwrap() as i64);
                    self.int(site.slot as i64);
                }
                None => self.int(-1),
            }
        }
        self.float(result.teil);
        self.int(result.chip_area());
        self.moves(&result.moves);
    }

    fn moves(&mut self, m: &MoveStats) {
        for (_, (attempts, accepts)) in m.classes() {
            self.int(attempts as i64);
            self.int(accepts as i64);
        }
    }
}

/// ~40 cells: custom cells with pin sites and aspect moves, L-shaped
/// macros with more than one tile.
fn synthetic() -> Netlist {
    synthesize(&SynthParams {
        cells: 40,
        nets: 90,
        pins: 320,
        custom_fraction: 0.3,
        rectilinear_fraction: 0.5,
        avg_cell_dim: 30,
        seed: 14,
        ..Default::default()
    })
}

/// A hand-built chip plan with the features the generator never makes:
/// a macro with two instances, a sequenced pin group and an unsequenced
/// one, and an electrically-equivalent pin.
fn chip_plan() -> Netlist {
    let mut b = NetlistBuilder::new();
    let ctl = b.add_macro(
        "ctl",
        TileSet::new(vec![
            Rect::from_wh(0, 0, 40, 16),
            Rect::from_wh(0, 16, 18, 14),
        ])
        .expect("L tiles disjoint"),
    );
    let ctl_pins: Vec<_> = [
        ("clk", Point::new(0, 8)),
        ("d0", Point::new(40, 4)),
        ("d1", Point::new(40, 10)),
        ("a0", Point::new(18, 22)),
        ("a1", Point::new(10, 30)),
        ("en", Point::new(20, 0)),
    ]
    .iter()
    .map(|(n, p)| b.add_fixed_pin(ctl, n, *p).expect("pin on boundary"))
    .collect();

    let dp = b.add_macro("dp", TileSet::rect(50, 20));
    let dp_in = b.add_fixed_pin(dp, "in", Point::new(0, 10)).expect("pin");
    let dp_out = b.add_fixed_pin(dp, "out", Point::new(50, 10)).expect("pin");
    let dp_clk = b.add_fixed_pin(dp, "clk", Point::new(25, 0)).expect("pin");
    b.add_instance(
        dp,
        "tall",
        TileSet::rect(20, 50),
        vec![Point::new(0, 25), Point::new(20, 25), Point::new(10, 0)],
    )
    .expect("instance pins");

    let rf = b.add_custom(
        "rf",
        1200,
        AspectRange::Continuous { min: 0.5, max: 2.0 },
        8,
    );
    let rf_bus: Vec<_> = (0..4)
        .map(|i| {
            b.add_site_pin(rf, &format!("q{i}"), SideSet::ALL)
                .expect("custom pin")
        })
        .collect();
    b.add_group(
        rf,
        "qbus",
        SideSet::of(&[Side::Left, Side::Right]),
        true,
        rf_bus.clone(),
    )
    .expect("group");
    let rf_clk = b
        .add_site_pin(rf, "clk", SideSet::single(Side::Bottom))
        .expect("pin");

    let ram = b.add_custom("ram", 2000, AspectRange::Discrete(vec![0.5, 1.0, 2.0]), 8);
    let ram_d: Vec<_> = (0..4)
        .map(|i| {
            b.add_site_pin(ram, &format!("d{i}"), SideSet::of(&[Side::Left, Side::Top]))
                .expect("custom pin")
        })
        .collect();
    b.add_group(
        ram,
        "dbus",
        SideSet::of(&[Side::Left, Side::Top]),
        false,
        ram_d.clone(),
    )
    .expect("group");
    let ram_en = b.add_site_pin(ram, "en", SideSet::ALL).expect("pin");
    let ram_a = b
        .add_site_pin(ram, "a", SideSet::of(&[Side::Bottom, Side::Right]))
        .expect("pin");

    b.add_simple_net("clk", &[ctl_pins[0], dp_clk, rf_clk])
        .expect("net");
    b.add_net(
        "dbus0",
        vec![
            NetPin {
                primary: ctl_pins[1],
                equivalents: vec![ctl_pins[2]],
            },
            NetPin::simple(dp_in),
            NetPin::simple(ram_d[0]),
        ],
        1.0,
        1.0,
    )
    .expect("net");
    b.add_simple_net("dbus1", &[dp_out, rf_bus[0], ram_d[1]])
        .expect("net");
    b.add_simple_net("dbus2", &[rf_bus[1], ram_d[2]])
        .expect("net");
    b.add_simple_net("dbus3", &[rf_bus[2], ram_d[3]])
        .expect("net");
    b.add_simple_net("abus", &[ctl_pins[3], rf_bus[3]])
        .expect("net");
    b.add_simple_net("en", &[ctl_pins[5], ram_en]).expect("net");
    b.add_simple_net("a1", &[ctl_pins[4], ram_a]).expect("net");
    b.build().expect("valid netlist")
}

#[test]
fn golden_stage1_digest() {
    let params = PlaceParams {
        attempts_per_cell: 2,
        normalization_samples: 8,
        ..Default::default()
    };
    let est = EstimatorParams::default();
    let schedule = CoolingSchedule::stage1();
    let mut h = Fnv1a::new();
    let circuits = [synthetic(), chip_plan()];
    let mut moves = MoveStats::default();
    for nl in &circuits {
        for seed in [3, 29] {
            let (st, result) = place_stage1(nl, &params, &est, &schedule, seed);
            h.run(&st, &result);
            moves = result.moves;
        }
    }
    // Every move class ran on the chip plan, instance selection included.
    assert!(moves
        .classes()
        .iter()
        .all(|&(_, (attempts, _))| attempts > 0));

    // One 2-replica tempering run on a single thread.
    let tempering = ParallelParams {
        replicas: 2,
        threads: 1,
        strategy: Strategy::Tempering,
        swap_interval: 1,
        rounds: 0,
    };
    let quick = PlaceParams {
        attempts_per_cell: 1,
        ..params
    };
    let (st, result, report) =
        parallel_stage1(&circuits[0], &quick, &est, &schedule, &tempering, 5);
    h.run(&st, &result);
    h.int(report.best_replica as i64);
    h.int(report.swaps.attempts as i64);
    h.int(report.swaps.accepts as i64);

    assert_eq!(h.0, 13_373_364_292_557_116_919, "stage-1 placement changed");
}

/// A 3-replica multi-start run: the winner's placement, which replica
/// won, and every replica's final TEIL — the same at any thread count.
#[test]
fn golden_multistart_digest() {
    let params = PlaceParams {
        attempts_per_cell: 1,
        normalization_samples: 8,
        ..Default::default()
    };
    let nl = synthetic();
    for threads in [1, 2] {
        let multistart = ParallelParams {
            replicas: 3,
            threads,
            strategy: Strategy::MultiStart,
            swap_interval: 1,
            rounds: 0,
        };
        let (st, result, report) = parallel_stage1(
            &nl,
            &params,
            &EstimatorParams::default(),
            &CoolingSchedule::stage1(),
            &multistart,
            11,
        );
        let mut h = Fnv1a::new();
        h.run(&st, &result);
        h.int(report.best_replica as i64);
        assert_eq!(report.replica_reports.len(), 3);
        for r in &report.replica_reports {
            h.float(r.teil);
        }
        assert_eq!(
            h.0, 11_967_148_469_994_444_146,
            "multi-start placement changed at {threads} threads"
        );
    }
}

/// The refinement engine as stage 2 drives it: static expansions frozen
/// over a finished stage-1 placement, then the low-temperature anneal
/// with the refinement move set (displacements and pin moves only) from
/// the μ-fraction window, stopping on a stalled cost.
#[test]
fn golden_refinement_digest() {
    let params = PlaceParams {
        attempts_per_cell: 2,
        normalization_samples: 8,
        ..Default::default()
    };
    let est = EstimatorParams::default();
    let mut h = Fnv1a::new();
    for nl in [synthetic(), chip_plan()] {
        for seed in [3, 29] {
            let (mut st, _) = place_stage1(&nl, &params, &est, &CoolingSchedule::stage1(), seed);
            let ctx = Stage1Context::new(&nl, &params, &est);
            // Half the stage-1 allowance on every side, as if the routed
            // channels came out narrower than estimated.
            let expansions = st
                .cells()
                .iter()
                .map(|c| {
                    let (l, r, b, t) = c.expansions;
                    (l / 2, r / 2, b / 2, t / 2)
                })
                .collect();
            st.set_static_expansions(expansions);
            let core = st.estimator().core();
            let limiter = RangeLimiter::new(
                2.0 * core.width() as f64,
                2.0 * core.height() as f64,
                ctx.t_infinity,
                params.rho,
            );
            let result = run_annealing(
                &mut st,
                &params,
                MoveSet::Refinement,
                &CoolingSchedule::stage2(),
                &limiter,
                limiter.temperature_for_fraction(0.03),
                ctx.s_t,
                Some(3),
                &mut StdRng::seed_from_u64(seed ^ 0x5eed),
            );
            assert!(result.moves.pin_moves.0 > 0);
            h.run(&st, &result);
        }
    }
    assert_eq!(h.0, 594_021_179_809_433_069, "refinement placement changed");
}

/// A 5-replica tempering run, which splits into a 3-rung and a 2-rung
/// ladder: the winner's placement, which rung won, every ladder report
/// field (TEIL trajectory and rung temperature bits included) and the
/// per-pair swap counts — the same at any thread count, for both swap
/// cadences.
#[test]
fn golden_tempering_digest() {
    let params = PlaceParams {
        attempts_per_cell: 1,
        normalization_samples: 8,
        ..Default::default()
    };
    let nl = synthesize(&SynthParams {
        cells: 14,
        nets: 30,
        pins: 110,
        custom_fraction: 0.3,
        rectilinear_fraction: 0.3,
        avg_cell_dim: 24,
        seed: 21,
        ..Default::default()
    });
    for (swap_interval, golden) in [
        (1, 2_281_160_520_208_257_586),
        (2, 1_277_423_836_823_658_496),
    ] {
        for threads in [1, 2] {
            let tempering = ParallelParams {
                replicas: 5,
                threads,
                strategy: Strategy::Tempering,
                swap_interval,
                rounds: 0,
            };
            let (st, result, report) = parallel_stage1(
                &nl,
                &params,
                &EstimatorParams::default(),
                &CoolingSchedule::stage1(),
                &tempering,
                17,
            );
            let mut h = Fnv1a::new();
            h.run(&st, &result);
            h.int(report.best_replica as i64);
            assert_eq!(report.replica_reports.len(), 5);
            for r in &report.replica_reports {
                h.int(r.replica as i64);
                h.int(r.seed as i64);
                h.float(r.rung_temperature.expect("every rung has a temperature"));
                h.float(r.teil);
                h.float(r.cost);
                h.int(r.attempts as i64);
                h.int(r.accepts as i64);
                h.int(r.teil_trajectory.len() as i64);
                for &teil in &r.teil_trajectory {
                    h.float(teil);
                }
            }
            h.int(report.swaps.attempts as i64);
            h.int(report.swaps.accepts as i64);
            for pair in &report.swaps.pairs {
                h.int(pair.attempts as i64);
                h.int(pair.accepts as i64);
            }
            // The pair that straddles the two ladders never swaps; the
            // pairs inside them do.
            let attempts: Vec<usize> = report.swaps.pairs.iter().map(|p| p.attempts).collect();
            assert_eq!(attempts.len(), 4);
            assert_eq!(attempts[2], 0, "pairs {attempts:?}");
            assert!(attempts.iter().enumerate().all(|(i, &a)| i == 2 || a > 0));
            assert_eq!(
                h.0, golden,
                "tempering placement changed at {threads} threads, swap interval {swap_interval}"
            );
        }
    }
}
