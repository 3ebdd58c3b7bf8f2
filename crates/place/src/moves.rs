//! The `generate` function: TimberWolfMC's new-state move machine
//! (paper §3.2.1).
//!
//! A single `generate` call performs a cascade of individually
//! Metropolis-judged attempts:
//!
//! * with probability `p = r/(r+1)`: a **single-cell displacement** to a
//!   point chosen by `D_s` within the range-limiter window; if rejected,
//!   the same displacement with the cell's **aspect ratio inverted**; if
//!   that is rejected too, a **random orientation change** in place. For
//!   custom cells, follow-up attempts reassign **pin groups/sequences**
//!   to new sites and try an **aspect-ratio change**; macro cells with
//!   alternatives may switch **instance**.
//! * otherwise: a **pairwise interchange** of two cells; if rejected, the
//!   interchange with both aspect ratios inverted.

use rand::rngs::StdRng;
use rand::Rng;

use twmc_geom::{Orientation, Point, Side};
use twmc_netlist::PinId;

use crate::state::{random_side, PinUnit};
use crate::{select_displacement, MoveCost, PlaceParams, PlacementState, SiteRef};

/// Attempt/accept counters per move class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveStats {
    /// Single-cell displacements (first attempt of the cascade).
    pub displacements: (usize, usize),
    /// Aspect-inverted displacement retries.
    pub inverted_displacements: (usize, usize),
    /// In-place orientation changes.
    pub orientations: (usize, usize),
    /// Pairwise interchanges.
    pub interchanges: (usize, usize),
    /// Aspect-inverted interchange retries.
    pub inverted_interchanges: (usize, usize),
    /// Pin/group/sequence reassignments.
    pub pin_moves: (usize, usize),
    /// Custom-cell aspect-ratio changes.
    pub aspect_moves: (usize, usize),
    /// Macro-cell instance selections.
    pub instance_moves: (usize, usize),
}

impl MoveStats {
    /// Total attempts across all classes.
    pub fn attempts(&self) -> usize {
        let MoveStats {
            displacements,
            inverted_displacements,
            orientations,
            interchanges,
            inverted_interchanges,
            pin_moves,
            aspect_moves,
            instance_moves,
        } = self;
        displacements.0
            + inverted_displacements.0
            + orientations.0
            + interchanges.0
            + inverted_interchanges.0
            + pin_moves.0
            + aspect_moves.0
            + instance_moves.0
    }

    /// Total acceptances across all classes.
    pub fn accepts(&self) -> usize {
        let MoveStats {
            displacements,
            inverted_displacements,
            orientations,
            interchanges,
            inverted_interchanges,
            pin_moves,
            aspect_moves,
            instance_moves,
        } = self;
        displacements.1
            + inverted_displacements.1
            + orientations.1
            + interchanges.1
            + inverted_interchanges.1
            + pin_moves.1
            + aspect_moves.1
            + instance_moves.1
    }

    /// Per-class `(name, (attempts, accepts))` pairs, in cascade order.
    /// The names are the telemetry `class` tags (DESIGN.md §8).
    pub fn classes(&self) -> [(&'static str, (usize, usize)); 8] {
        [
            ("displacements", self.displacements),
            ("inverted_displacements", self.inverted_displacements),
            ("orientations", self.orientations),
            ("interchanges", self.interchanges),
            ("inverted_interchanges", self.inverted_interchanges),
            ("pin_moves", self.pin_moves),
            ("aspect_moves", self.aspect_moves),
            ("instance_moves", self.instance_moves),
        ]
    }

    /// Counters accumulated since an earlier snapshot of the same stats
    /// (element-wise difference; `before` must be a prefix of `self`).
    pub fn since(&self, before: &MoveStats) -> MoveStats {
        let d = |a: (usize, usize), b: (usize, usize)| (a.0 - b.0, a.1 - b.1);
        MoveStats {
            displacements: d(self.displacements, before.displacements),
            inverted_displacements: d(self.inverted_displacements, before.inverted_displacements),
            orientations: d(self.orientations, before.orientations),
            interchanges: d(self.interchanges, before.interchanges),
            inverted_interchanges: d(self.inverted_interchanges, before.inverted_interchanges),
            pin_moves: d(self.pin_moves, before.pin_moves),
            aspect_moves: d(self.aspect_moves, before.aspect_moves),
            instance_moves: d(self.instance_moves, before.instance_moves),
        }
    }

    fn add(counter: &mut (usize, usize), accepted: bool) {
        counter.0 += 1;
        if accepted {
            counter.1 += 1;
        }
    }
}

/// The Metropolis acceptance function.
#[inline]
pub fn metropolis(delta: f64, t: f64, rng: &mut StdRng) -> bool {
    delta <= 0.0 || rng.random::<f64>() < (-delta / t).exp()
}

/// What a `generate` call may do — stage 2 restricts the move set
/// (paper §4.3: displacements and pin moves only; orientations and aspect
/// ratios stay fixed so the static edge expansions remain valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveSet {
    /// Full stage-1 move set.
    Full,
    /// Stage-2 refinement: single-cell displacements and pin placement
    /// alterations only.
    Refinement,
}

/// Runs one cell-geometry attempt: save the involved cells, mutate via
/// `apply`, Metropolis-test, and on rejection put the saved record back.
///
/// `resizes` says whether `apply` may change a cell's dims (the aspect
/// change): only then can `C₃` change, so only then is it summed (see
/// [`PlacementState::attempt_cost`]).
///
/// `known` is the cost of the current state over `involved` when the
/// caller has it: a rejected attempt restores exactly the state its
/// `before` was measured on, so a retry over the same cells and with the
/// same `resizes` passes that back instead of re-evaluating it. Returns
/// whether the move was accepted, and the `before` cost.
fn attempt_cells(
    st: &mut PlacementState<'_>,
    involved: &[usize],
    resizes: bool,
    known: Option<MoveCost>,
    t: f64,
    rng: &mut StdRng,
    apply: impl FnOnce(&mut PlacementState<'_>),
) -> (bool, MoveCost) {
    st.save_attempt(involved);
    let cost = |st: &PlacementState<'_>| st.attempt_cost(involved, st.attempt_nets(), resizes);
    let before = known.unwrap_or_else(|| cost(st));
    debug_assert!(known.is_none() || known == Some(cost(st)));
    apply(st);
    let after = cost(st);
    let delta = st.weighted_delta(before, after);
    let accepted = metropolis(delta, t, rng);
    if accepted {
        st.commit_attempt(before, after);
    } else {
        st.rollback_attempt();
    }
    (accepted, before)
}

/// The aspect-inverted displacement: re-orient and move in one refresh.
fn displace_inverted(st: &mut PlacementState<'_>, i: usize, target: Point) {
    let inverted = st.cell(i).orientation.aspect_inverted();
    st.reorient_at(i, inverted, target);
}

/// The pairwise interchange of two cell centers, optionally with both
/// aspect ratios inverted first.
fn interchange(st: &mut PlacementState<'_>, i: usize, j: usize, inverted: bool) {
    let ci = st.cell(i).center();
    let cj = st.cell(j).center();
    if inverted {
        let oi = st.cell(i).orientation.aspect_inverted();
        let oj = st.cell(j).orientation.aspect_inverted();
        st.reorient_at(i, oi, cj);
        st.reorient_at(j, oj, ci);
    } else {
        st.set_cell_center(i, cj);
        st.set_cell_center(j, ci);
    }
}

/// A pin-reassignment attempt: `pins[k]` moves to slot `start + k`
/// (clamped to the edge) of `side`. The geometry is unchanged, so only
/// `C₁` of the moved pins' nets and the cell's `C₃` are at stake.
fn attempt_pins(
    st: &mut PlacementState<'_>,
    cell: usize,
    pins: &[PinId],
    side: Side,
    start: u32,
    t: f64,
    rng: &mut StdRng,
) -> bool {
    let last = st
        .cell(cell)
        .sites
        .as_ref()
        .expect("custom cell")
        .sites_per_edge()
        - 1;
    st.save_pin_attempt(pins);
    let before = st.pin_attempt_cost(cell);
    for (k, pin) in pins.iter().enumerate() {
        let slot = (start + k as u32).min(last);
        st.set_pin_site(pin.index(), SiteRef { side, slot });
    }
    let after = st.pin_attempt_cost(cell);
    let delta = st.weighted_delta(before, after);
    if metropolis(delta, t, rng) {
        st.commit_cost(before, after);
        true
    } else {
        st.rollback_pin_attempt();
        false
    }
}

/// Attempts one pin-unit reassignment on a custom cell.
fn try_pin_move(
    st: &mut PlacementState<'_>,
    cell: usize,
    t: f64,
    rng: &mut StdRng,
) -> Option<bool> {
    let units = st.pin_units(cell);
    if units.is_empty() {
        return None;
    }
    let n_slots = st.cell(cell).sites.as_ref()?.sites_per_edge();
    Some(match units[rng.random_range(0..units.len())] {
        PinUnit::Single(pin, sides) => {
            let side = random_side(sides, rng);
            let slot = rng.random_range(0..n_slots);
            attempt_pins(st, cell, &[pin], side, slot, t, rng)
        }
        // Move the whole sequence to a new side/start, keeping order.
        PinUnit::Group(g) if g.sequenced => {
            let side = random_side(g.sides, rng);
            let start = rng.random_range(0..n_slots);
            attempt_pins(st, cell, &g.pins, side, start, t, rng)
        }
        // Move one member within the group's sides.
        PinUnit::Group(g) => {
            let member = rng.random_range(0..g.pins.len());
            let side = random_side(g.sides, rng);
            let slot = rng.random_range(0..n_slots);
            attempt_pins(st, cell, &g.pins[member..=member], side, slot, t, rng)
        }
    })
}

/// Executes one `generate` call of the paper's §3.2.1 cascade and updates
/// `stats`.
#[allow(clippy::too_many_arguments)]
pub fn generate(
    st: &mut PlacementState<'_>,
    params: &PlaceParams,
    move_set: MoveSet,
    window_x: f64,
    window_y: f64,
    t: f64,
    rng: &mut StdRng,
    stats: &mut MoveStats,
) {
    let n = st.cells().len();
    let single = n < 2 || rng.random::<f64>() < params.displacement_probability();
    if single {
        let i = rng.random_range(0..n);
        // The paper's generate() draws the new location from within the
        // core area (R(c_l, c_r) × R(c_b, c_t)); the range limiter further
        // restricts it to the window. Clamp the selected point to the core.
        let core = st.estimator().core();
        let raw = select_displacement(
            params.selector,
            st.cell(i).center(),
            window_x,
            window_y,
            rng,
        );
        let target = Point::new(
            raw.x.clamp(core.lo().x, core.hi().x),
            raw.y.clamp(core.lo().y, core.hi().y),
        );

        let (mut accepted, before) = attempt_cells(st, &[i], false, None, t, rng, |s| {
            s.set_cell_center(i, target)
        });
        MoveStats::add(&mut stats.displacements, accepted);

        // The retries start from the state the rejected attempt restored.
        if !accepted && move_set == MoveSet::Full {
            // Retry with the aspect ratio inverted (paper Fig. 2).
            (accepted, _) = attempt_cells(st, &[i], false, Some(before), t, rng, |s| {
                displace_inverted(s, i, target)
            });
            MoveStats::add(&mut stats.inverted_displacements, accepted);

            if !accepted {
                // Random orientation change in place.
                let cur = st.cell(i).orientation;
                let mut o = Orientation::ALL[rng.random_range(0..8usize)];
                if o == cur {
                    o = o.aspect_inverted();
                }
                let (acc, _) = attempt_cells(st, &[i], false, Some(before), t, rng, |s| {
                    s.set_cell_orientation(i, o)
                });
                MoveStats::add(&mut stats.orientations, acc);
            }
        }

        let cell = &st.netlist().cells()[i];
        if cell.is_custom() {
            // Pin placement attempts: one per uncommitted unit, capped.
            let units = st.pin_units(i).len().min(params.pin_moves_cap);
            for _ in 0..units {
                if let Some(acc) = try_pin_move(st, i, t, rng) {
                    MoveStats::add(&mut stats.pin_moves, acc);
                }
            }
            if move_set == MoveSet::Full {
                // Aspect-ratio change within the specified bounds.
                if let twmc_netlist::CellGeometry::Flexible { aspect, .. } = &cell.geometry {
                    let ratio = aspect.sample(rng.random::<f64>());
                    let (acc, _) = attempt_cells(st, &[i], true, None, t, rng, |s| {
                        s.set_cell_aspect(i, ratio)
                    });
                    MoveStats::add(&mut stats.aspect_moves, acc);
                }
            }
        } else if move_set == MoveSet::Full && cell.instance_count() > 1 {
            // Instance selection for multi-instance macro cells.
            let k = rng.random_range(0..cell.instance_count());
            if k != st.cell(i).instance {
                let (acc, _) =
                    attempt_cells(st, &[i], false, None, t, rng, |s| s.set_cell_instance(i, k));
                MoveStats::add(&mut stats.instance_moves, acc);
            }
        }
    } else {
        // Pairwise interchange (not range-limited, §3.2.2).
        let i = rng.random_range(0..n);
        let mut j = rng.random_range(0..n);
        if j == i {
            j = (j + 1) % n;
        }
        let (accepted, before) = attempt_cells(st, &[i, j], false, None, t, rng, |s| {
            interchange(s, i, j, false)
        });
        MoveStats::add(&mut stats.interchanges, accepted);

        if !accepted && move_set == MoveSet::Full {
            // Retry with both aspect ratios inverted, from the restored
            // state.
            let (acc, _) = attempt_cells(st, &[i, j], false, Some(before), t, rng, |s| {
                interchange(s, i, j, true)
            });
            MoveStats::add(&mut stats.inverted_interchanges, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
    use twmc_netlist::{synthesize, Netlist, SynthParams};

    fn circuit() -> Netlist {
        synthesize(&SynthParams {
            cells: 8,
            nets: 20,
            pins: 64,
            custom_fraction: 0.25,
            seed: 5,
            ..Default::default()
        })
    }

    fn state(nl: &Netlist) -> PlacementState<'_> {
        let det = determine_core(nl, &EstimatorParams::default());
        let density = cell_density_factors(nl, nl.stats().avg_pin_density);
        let mut rng = StdRng::seed_from_u64(3);
        PlacementState::random(nl, det.estimator, density, 5.0, &mut rng)
    }

    #[test]
    fn bookkeeping_survives_many_generates() {
        let nl = circuit();
        let mut st = state(&nl);
        let mut rng = StdRng::seed_from_u64(77);
        let params = PlaceParams::default();
        let mut stats = MoveStats::default();
        for step in 0..500 {
            let t = 1.0e5 * 0.97f64.powi(step);
            generate(
                &mut st,
                &params,
                MoveSet::Full,
                200.0,
                200.0,
                t,
                &mut rng,
                &mut stats,
            );
        }
        assert!(stats.attempts() >= 500);
        let (c1, ov, c3) = st.recompute_totals();
        assert!(
            (st.c1() - c1).abs() < 1e-6 * c1.max(1.0),
            "c1 cache {} vs scratch {}",
            st.c1(),
            c1
        );
        assert_eq!(st.raw_overlap(), ov, "overlap cache drifted");
        assert!((st.c3() - c3).abs() < 1e-6, "c3 cache drifted");
    }

    #[test]
    fn rejected_moves_leave_state_unchanged() {
        let nl = circuit();
        let mut st = state(&nl);
        // At T ≈ 0 and a huge overlap penalty, stacking moves get
        // rejected and must restore everything.
        st.set_p2(1.0e9);
        let mut rng = StdRng::seed_from_u64(1);
        let before_cost = st.cost();
        let before_pos: Vec<Point> = st.cells().iter().map(|c| c.pos).collect();
        // Force a move onto cell 1's position: guaranteed overlap spike.
        let target = st.cell(1).center();
        let (acc, _) = attempt_cells(&mut st, &[0], false, None, 1.0e-12, &mut rng, |s| {
            s.set_cell_center(0, target)
        });
        assert!(!acc);
        assert_eq!(st.cost(), before_cost);
        let after_pos: Vec<Point> = st.cells().iter().map(|c| c.pos).collect();
        assert_eq!(before_pos, after_pos);
    }

    /// Six cells with every shape a move can produce: an L-shaped
    /// macro, a macro with two instances of different dims, a plain
    /// macro, and custom cells with a continuous and a discrete aspect
    /// range carrying a sequenced and an unsequenced pin group.
    fn every_shape() -> Netlist {
        use twmc_geom::{Rect, TileSet};
        use twmc_netlist::{AspectRange, NetlistBuilder, SideSet};
        let mut b = NetlistBuilder::new();
        let l = b.add_macro(
            "l",
            TileSet::new(vec![
                Rect::from_wh(0, 0, 40, 16),
                Rect::from_wh(0, 16, 18, 14),
            ])
            .expect("disjoint tiles"),
        );
        let l0 = b.add_fixed_pin(l, "a", Point::new(0, 8)).expect("pin");
        let l1 = b.add_fixed_pin(l, "b", Point::new(10, 30)).expect("pin");
        let dp = b.add_macro("dp", TileSet::rect(50, 20));
        let dp0 = b.add_fixed_pin(dp, "in", Point::new(0, 10)).expect("pin");
        let dp1 = b.add_fixed_pin(dp, "out", Point::new(50, 10)).expect("pin");
        b.add_instance(
            dp,
            "tall",
            TileSet::rect(20, 50),
            vec![Point::new(0, 25), Point::new(20, 25)],
        )
        .expect("instance pins");
        let m = b.add_macro("m", TileSet::rect(24, 24));
        let m0 = b.add_fixed_pin(m, "x", Point::new(24, 3)).expect("pin");
        let m1 = b.add_fixed_pin(m, "y", Point::new(3, 24)).expect("pin");
        let rf = b.add_custom(
            "rf",
            1200,
            AspectRange::Continuous { min: 0.5, max: 2.0 },
            6,
        );
        let q: Vec<_> = (0..3)
            .map(|k| {
                b.add_site_pin(rf, &format!("q{k}"), SideSet::ALL)
                    .expect("pin")
            })
            .collect();
        b.add_group(
            rf,
            "q",
            SideSet::of(&[Side::Left, Side::Right]),
            true,
            q.clone(),
        )
        .expect("group");
        let ram = b.add_custom("ram", 2000, AspectRange::Discrete(vec![0.5, 1.0, 2.0]), 6);
        let d: Vec<_> = (0..3)
            .map(|k| {
                b.add_site_pin(ram, &format!("d{k}"), SideSet::ALL)
                    .expect("pin")
            })
            .collect();
        b.add_group(
            ram,
            "d",
            SideSet::of(&[Side::Left, Side::Top]),
            false,
            d.clone(),
        )
        .expect("group");
        let ram_x = b
            .add_site_pin(ram, "x", SideSet::single(Side::Bottom))
            .expect("pin");
        b.add_simple_net("n0", &[l0, dp0, q[0]]).expect("net");
        b.add_simple_net("n1", &[dp1, d[0], m0]).expect("net");
        b.add_simple_net("n2", &[q[1], d[1]]).expect("net");
        b.add_simple_net("n3", &[l1, q[2], ram_x]).expect("net");
        b.add_simple_net("n4", &[d[2], m1]).expect("net");
        b.build().expect("valid netlist")
    }

    /// Everything a rejected attempt must leave as it found it.
    #[derive(Debug, PartialEq)]
    struct Capture {
        cells: Vec<crate::CellPlace>,
        pins: Vec<(Point, Option<SiteRef>)>,
        spans: Vec<Option<(twmc_geom::Span, twmc_geom::Span)>>,
        totals: (u64, i64, u64),
        rects: Vec<twmc_geom::Rect>,
    }

    fn capture(st: &PlacementState<'_>) -> Capture {
        let nl = st.netlist();
        Capture {
            cells: st.cells().to_vec(),
            pins: (0..nl.pins().len())
                .map(|p| (st.pin_position(p), st.pin_site(p)))
                .collect(),
            spans: (0..nl.nets().len()).map(|n| st.net_spans(n)).collect(),
            totals: (st.c1().to_bits(), st.raw_overlap(), st.c3().to_bits()),
            rects: (0..st.cells().len()).map(|i| st.indexed_rect(i)).collect(),
        }
    }

    /// Applies the mutation of move class `class` (0..7, cascade order)
    /// to cell `i`, and to `j` for the two interchanges; the aspect and
    /// instance classes leave a cell they do not apply to alone.
    fn mutate(
        st: &mut PlacementState<'_>,
        class: usize,
        i: usize,
        j: usize,
        target: Point,
        rng: &mut StdRng,
    ) {
        let cell = &st.netlist().cells()[i];
        match class {
            0 => st.set_cell_center(i, target),
            1 => displace_inverted(st, i, target),
            2 => {
                let o = Orientation::ALL[rng.random_range(0..8usize)];
                st.set_cell_orientation(i, o);
            }
            3 if cell.is_custom() => {
                st.set_cell_aspect(i, [0.5, 1.0, 2.0][rng.random_range(0..3usize)])
            }
            4 if cell.instance_count() > 1 => st.set_cell_instance(i, 1 - st.cell(i).instance),
            3 | 4 => {}
            5 => interchange(st, i, j, false),
            _ => interchange(st, i, j, true),
        }
    }

    /// Saving, applying any move class's mutation and rolling back leaves
    /// every cell field, pin, net span, total and index rect as captured
    /// before — checked with `assert!`, so release builds run it too.
    #[test]
    fn rollback_restores_every_move_class() {
        let nl = every_shape();
        let mut st = state(&nl);
        let mut rng = StdRng::seed_from_u64(31);
        let params = PlaceParams::default();
        let mut stats = MoveStats::default();
        let core = st.estimator().core();
        let n = nl.cells().len();
        let mut changed = [0usize; 7];
        for trial in 0..200 {
            // Wander to a new configuration between trials.
            for _ in 0..3 {
                generate(
                    &mut st,
                    &params,
                    MoveSet::Full,
                    core.width() as f64,
                    core.height() as f64,
                    1.0e3,
                    &mut rng,
                    &mut stats,
                );
            }
            let i = rng.random_range(0..n);
            let j = (i + rng.random_range(1..n)) % n;
            let target = Point::new(
                rng.random_range(core.lo().x..=core.hi().x),
                rng.random_range(core.lo().y..=core.hi().y),
            );
            let class = trial % 7;
            let involved: &[usize] = if class >= 5 { &[i, j] } else { &[i] };
            let before = capture(&st);
            st.save_attempt(involved);
            mutate(&mut st, class, i, j, target, &mut rng);
            if capture(&st) != before {
                changed[class] += 1;
            }
            // Mid-attempt, the index still holds the committed footprints
            // of the involved cells; the query must see past them.
            assert_eq!(st.group_overlap(involved), st.group_overlap_scan(involved));
            st.rollback_attempt();
            assert_eq!(capture(&st), before, "class {class} on cells {involved:?}");
            assert_eq!(st.group_overlap(involved), st.group_overlap_scan(involved));
        }
        assert!(
            changed.iter().all(|&c| c > 0),
            "every class must have mutated something: {changed:?}"
        );
        assert!(stats.accepts() > 0);
    }

    /// Committing any move class's mutation re-indexes the involved
    /// cells: afterwards every indexed rect is its cell's live expanded
    /// bbox and the totals equal a from-scratch recompute.
    #[test]
    fn commit_reindexes_every_move_class() {
        let nl = every_shape();
        let mut st = state(&nl);
        let mut rng = StdRng::seed_from_u64(37);
        let core = st.estimator().core();
        let n = nl.cells().len();
        for trial in 0..140 {
            let i = rng.random_range(0..n);
            let j = (i + rng.random_range(1..n)) % n;
            let target = Point::new(
                rng.random_range(core.lo().x..=core.hi().x),
                rng.random_range(core.lo().y..=core.hi().y),
            );
            let class = trial % 7;
            let involved: &[usize] = if class >= 5 { &[i, j] } else { &[i] };
            st.save_attempt(involved);
            let before = st.move_cost(involved, st.attempt_nets());
            mutate(&mut st, class, i, j, target, &mut rng);
            let after = st.move_cost(involved, st.attempt_nets());
            assert_eq!(after.overlap, st.group_overlap_scan(involved));
            st.commit_attempt(before, after);
            for k in 0..n {
                assert_eq!(
                    st.indexed_rect(k),
                    st.expanded_bbox(k),
                    "class {class}, cell {k}"
                );
            }
            let (_, ov, _) = st.recompute_totals();
            assert_eq!(st.raw_overlap(), ov, "class {class} on cells {involved:?}");
        }
    }

    /// Every pin where a recompute from the geometry puts it, and every
    /// cached net span the hull of its primary pins — with `assert!`, so
    /// release builds (without the engine's debug cross-checks) check it.
    fn assert_pins_and_spans_exact(st: &PlacementState<'_>, what: &str) {
        let nl = st.netlist();
        let mut fresh = st.clone();
        for i in 0..nl.cells().len() {
            fresh.refresh_pins(i);
        }
        for p in 0..nl.pins().len() {
            assert!(
                st.pin_position(p) == fresh.pin_position(p),
                "{what}: pin {p} at {} but its geometry puts it at {}",
                st.pin_position(p),
                fresh.pin_position(p)
            );
        }
        for net in nl.nets() {
            let hull = net.primary_pins().map(|p| st.pin_position(p.index())).fold(
                None,
                |acc: Option<(twmc_geom::Span, twmc_geom::Span)>, q| {
                    let (qx, qy) = (
                        twmc_geom::Span::new(q.x, q.x),
                        twmc_geom::Span::new(q.y, q.y),
                    );
                    Some(acc.map_or((qx, qy), |(xs, ys)| (xs.hull(qx), ys.hull(qy))))
                },
            );
            let n = net.id().index();
            assert!(st.net_spans(n) == hull, "{what}: net {n} span drifted");
        }
    }

    /// A 40-cell circuit with custom cells and L-shaped macros.
    fn synthetic_40() -> Netlist {
        synthesize(&SynthParams {
            cells: 40,
            nets: 100,
            pins: 360,
            custom_fraction: 0.3,
            rectilinear_fraction: 0.4,
            seed: 23,
            ..Default::default()
        })
    }

    /// Displacements and interchanges keep every cell's shape, so they
    /// translate its pins instead of re-deriving them; the translated
    /// pins and the spans maintained under the inward-exit rule must
    /// equal a recompute after every move. Wandering `generate` calls in
    /// between vary orientations, instances, aspects and pin sites.
    #[test]
    fn position_only_moves_translate_pins() {
        let synthetic = synthetic_40();
        assert!(synthetic.cells().iter().any(|c| c.is_custom()));
        assert!(synthetic
            .cells()
            .iter()
            .any(|c| c.instances().iter().any(|i| i.tiles.tiles().len() > 1)));
        for nl in [every_shape(), synthetic] {
            let mut st = state(&nl);
            let mut rng = StdRng::seed_from_u64(43);
            let params = PlaceParams::default();
            let mut stats = MoveStats::default();
            let core = st.estimator().core();
            let n = nl.cells().len();
            for trial in 0..300 {
                if trial % 4 == 0 {
                    generate(
                        &mut st,
                        &params,
                        MoveSet::Full,
                        core.width() as f64,
                        core.height() as f64,
                        1.0e3,
                        &mut rng,
                        &mut stats,
                    );
                }
                let i = rng.random_range(0..n);
                let j = (i + rng.random_range(1..n)) % n;
                let target = Point::new(
                    rng.random_range(core.lo().x..=core.hi().x),
                    rng.random_range(core.lo().y..=core.hi().y),
                );
                let class = if trial % 2 == 0 { 0 } else { 5 };
                mutate(&mut st, class, i, j, target, &mut rng);
                assert_pins_and_spans_exact(&st, &format!("trial {trial}, class {class}"));
            }
        }
    }

    /// Only an aspect change can change `C₃`: every other move class
    /// leaves the bits of every cell's site penalty as they were, which
    /// is what lets those attempts skip summing it. Sites are crowded
    /// first so the penalties are not all zero.
    #[test]
    fn cell_moves_leave_site_penalties_unchanged() {
        let nl = every_shape();
        let mut st = state(&nl);
        for cell in 0..nl.cells().len() {
            for u in st.pin_units(cell).to_vec() {
                let pins = match u {
                    PinUnit::Single(pin, _) => vec![pin],
                    PinUnit::Group(g) => g.pins.clone(),
                };
                for pin in pins {
                    let site = SiteRef {
                        side: Side::Left,
                        slot: 0,
                    };
                    st.set_pin_site(pin.index(), site);
                }
            }
        }
        let penalties = |st: &PlacementState<'_>| -> Vec<u64> {
            st.cells()
                .iter()
                .map(|c| c.sites.as_ref().map_or(0, |s| s.penalty().to_bits()))
                .collect()
        };
        assert!(penalties(&st).iter().any(|&p| p != 0));
        let mut rng = StdRng::seed_from_u64(47);
        let core = st.estimator().core();
        let n = nl.cells().len();
        let mut aspect_changed = 0;
        for trial in 0..280 {
            let i = rng.random_range(0..n);
            let j = (i + rng.random_range(1..n)) % n;
            let target = Point::new(
                rng.random_range(core.lo().x..=core.hi().x),
                rng.random_range(core.lo().y..=core.hi().y),
            );
            let class = trial % 7;
            let before = penalties(&st);
            mutate(&mut st, class, i, j, target, &mut rng);
            if class == 3 {
                aspect_changed += usize::from(penalties(&st) != before);
            } else {
                assert!(penalties(&st) == before, "class {class} on cell {i}");
            }
        }
        assert!(aspect_changed > 0, "aspect changes never moved a penalty");
    }

    /// The pin-unit table lists, per cell, the cell's sited pins in
    /// cell-pin order and then its non-empty groups in netlist order —
    /// the order `random_range(0..count)` indexes.
    #[test]
    fn pin_unit_table_follows_netlist_order() {
        let nl = every_shape();
        let st = state(&nl);
        let mut units = 0;
        for cell in nl.cells() {
            let mut expected = Vec::new();
            for &pid in &cell.pins {
                if let twmc_netlist::PinPlacement::Sites(sides) = nl.pin(pid).placement {
                    expected.push((Some((pid, sides)), None));
                }
            }
            for (gi, g) in nl.groups().iter().enumerate() {
                if g.cell == cell.id() && !g.pins.is_empty() {
                    expected.push((None, Some(gi)));
                }
            }
            let table: Vec<_> = st
                .pin_units(cell.id().index())
                .iter()
                .map(|u| match *u {
                    PinUnit::Single(pid, sides) => (Some((pid, sides)), None),
                    PinUnit::Group(g) => {
                        (None, nl.groups().iter().position(|x| std::ptr::eq(x, g)))
                    }
                })
                .collect();
            assert_eq!(table, expected, "cell {}", cell.name);
            units += table.len();
        }
        // every_shape has one lone sited pin (ram's `x`) and two groups.
        assert_eq!(units, 3);
    }

    #[test]
    fn refinement_move_set_preserves_orientations_and_aspects() {
        let nl = circuit();
        let mut st = state(&nl);
        let orients: Vec<Orientation> = st.cells().iter().map(|c| c.orientation).collect();
        let aspects: Vec<f64> = st.cells().iter().map(|c| c.aspect).collect();
        let mut rng = StdRng::seed_from_u64(12);
        let params = PlaceParams::default();
        let mut stats = MoveStats::default();
        for _ in 0..300 {
            generate(
                &mut st,
                &params,
                MoveSet::Refinement,
                50.0,
                50.0,
                100.0,
                &mut rng,
                &mut stats,
            );
        }
        let orients_after: Vec<Orientation> = st.cells().iter().map(|c| c.orientation).collect();
        let aspects_after: Vec<f64> = st.cells().iter().map(|c| c.aspect).collect();
        assert_eq!(orients, orients_after);
        assert_eq!(aspects, aspects_after);
        assert_eq!(stats.orientations.0, 0);
        assert_eq!(stats.aspect_moves.0, 0);
        assert_eq!(stats.inverted_interchanges.0, 0);
    }

    #[test]
    fn pin_moves_touch_only_custom_cells() {
        let nl = circuit();
        let mut st = state(&nl);
        let mut rng = StdRng::seed_from_u64(9);
        // Direct pin move attempts on a macro cell return None.
        let macro_idx = nl
            .cells()
            .iter()
            .position(|c| !c.is_custom())
            .expect("circuit has macros");
        assert!(try_pin_move(&mut st, macro_idx, 100.0, &mut rng).is_none());
        let custom_idx = nl
            .cells()
            .iter()
            .position(|c| c.is_custom())
            .expect("circuit has customs");
        // Custom cells with uncommitted pins yield Some.
        if !st.pin_units(custom_idx).is_empty() {
            assert!(try_pin_move(&mut st, custom_idx, 1.0e9, &mut rng).is_some());
        }
    }

    #[test]
    fn high_temperature_accepts_most() {
        let nl = circuit();
        let mut st = state(&nl);
        let mut rng = StdRng::seed_from_u64(4);
        let params = PlaceParams::default();
        let mut stats = MoveStats::default();
        let core = st.estimator().core();
        for _ in 0..300 {
            generate(
                &mut st,
                &params,
                MoveSet::Full,
                core.width() as f64,
                core.height() as f64,
                1.0e7,
                &mut rng,
                &mut stats,
            );
        }
        let rate = stats.accepts() as f64 / stats.attempts() as f64;
        assert!(rate > 0.9, "acceptance at huge T should be ≈1, got {rate}");
    }

    #[test]
    fn metropolis_properties() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(metropolis(-1.0, 1.0, &mut rng));
        assert!(metropolis(0.0, 1.0, &mut rng));
        // At tiny T, uphill moves are rejected.
        let ups = (0..100)
            .filter(|_| metropolis(10.0, 1e-9, &mut rng))
            .count();
        assert_eq!(ups, 0);
        // At huge T, uphill moves are mostly accepted.
        let ups = (0..1000)
            .filter(|_| metropolis(10.0, 1e9, &mut rng))
            .count();
        assert!(ups > 950);
    }
}
