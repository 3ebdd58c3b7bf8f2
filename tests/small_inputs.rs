//! No small input panics the flow: random netlist texts of 0–4 cells
//! (macros with 1×1, L-shaped or zero-area tiles, custom cells with 1–4
//! sites), nets of 0–3 pins and repeated pin names either fail to
//! parse or run through the whole resilient pipeline to a finite TEIL
//! or a typed error.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use twmc_core::{run_timberwolf_resilient, RunCtrl, RunOutcome, TimberWolfConfig};
use twmc_netlist::parse_netlist;
use twmc_obs::NullRecorder;
use twmc_place::PlaceParams;
use twmc_refine::RefineParams;
use twmc_route::RouterParams;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Unit,
    L,
    ZeroArea,
    Custom { area: i64, sites: u32, fixed: bool },
}

/// A pin as (x, y, `LRBT` side mask, whether it takes the name of the
/// cell's previous pin).
type Pin = (i64, i64, u8, bool);

/// A cell: its shape (custom in three draws of six, so that most
/// netlists parse) and 0–3 pins.
fn arb_cell() -> impl Strategy<Value = (Shape, Vec<Pin>)> {
    let custom = || {
        (1i64..=64, 1u32..=4, 0u8..4).prop_map(|(area, sites, f)| Shape::Custom {
            area,
            sites,
            fixed: f == 0,
        })
    };
    let shape = prop_oneof![
        Just(Shape::Unit),
        Just(Shape::L),
        Just(Shape::ZeroArea),
        custom(),
        custom(),
        custom(),
    ];
    let pin = (0i64..=6, 0i64..=6, 1u8..16, 0u8..8).prop_map(|(x, y, s, r)| (x, y, s, r == 0));
    (shape, prop::collection::vec(pin, 0..=3))
}

/// The netlist text of `cells`, with one net per entry of `nets` taking
/// that many of the declared pins in order (fewer once they run out).
fn render(cells: &[(Shape, Vec<Pin>)], nets: &[usize]) -> String {
    let mut text = String::new();
    let mut declared = Vec::new();
    for (k, (shape, pins)) in cells.iter().enumerate() {
        text += &match *shape {
            Shape::Custom { area, sites, .. } => {
                format!("custom c{k} area {area} aspect 0.5 2 sites {sites}\n")
            }
            Shape::Unit => format!("macro c{k}\n  tile 0 0 1 1\n"),
            Shape::L => format!("macro c{k}\n  tile 0 0 6 2\n  tile 0 2 2 4\n"),
            Shape::ZeroArea => format!("macro c{k}\n  tile 0 0 5 0\n"),
        };
        for (i, &(x, y, sides, _)) in pins.iter().enumerate() {
            let name = format!("p{}", (1..=i).rev().find(|&j| !pins[j].3).unwrap_or(0));
            let letters: String = "LRBT"
                .chars()
                .enumerate()
                .filter_map(|(b, c)| (sides >> b & 1 == 1).then_some(c))
                .collect();
            text += &match *shape {
                Shape::Custom { fixed: false, .. } => format!("  pin {name} sides {letters}\n"),
                Shape::Custom { .. } => format!("  pin {name} fixed {} {}\n", x % 4, y % 4),
                Shape::Unit => format!("  pin {name} {} {}\n", x % 2, y % 2),
                _ => format!("  pin {name} {x} {y}\n"),
            };
            declared.push(format!("c{k}.{name}"));
        }
        text += "end\n";
    }
    declared.dedup();
    let mut declared = declared.into_iter();
    for (k, &size) in nets.iter().enumerate() {
        let pins: Vec<String> = declared.by_ref().take(size).collect();
        text += &format!("net n{k} : {}\n", pins.join(" "));
    }
    text
}

fn config(seed: u64) -> TimberWolfConfig {
    TimberWolfConfig {
        place: PlaceParams {
            attempts_per_cell: 1,
            ..Default::default()
        },
        refine: RefineParams {
            router: RouterParams {
                m_alternatives: 2,
                per_level: 2,
            },
        },
        seed,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn small_netlists_parse_or_place_without_panicking(
        cells in prop::collection::vec(arb_cell(), 0..=4),
        nets in prop::collection::vec(0usize..=3, 0..=3),
        seed in 0u64..1000,
    ) {
        let text = render(&cells, &nets);
        let Ok(nl) = parse_netlist(&text) else {
            return Ok(());
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_timberwolf_resilient(&nl, &config(seed), RunCtrl::default(), &mut NullRecorder)
        }));
        match run {
            Err(_) => panic!("the flow panicked (seed {seed}) on:\n{text}"),
            Ok(Ok(RunOutcome::Complete(r))) => {
                prop_assert!(r.teil.is_finite(), "TEIL {} (seed {seed}) on:\n{text}", r.teil);
            }
            Ok(Ok(RunOutcome::Interrupted(i))) => {
                panic!("an uncancelled run stopped in {} (seed {seed}) on:\n{text}", i.stage)
            }
            Ok(Err(_typed)) => {}
        }
    }
}
