//! The mutable placement configuration and its cost bookkeeping.
//!
//! Holds, for every cell: position, orientation, selected instance,
//! aspect ratio (custom cells), the cached oriented geometry, and the
//! dynamic per-side interconnect expansions; for every pin: its absolute
//! position and (for uncommitted pins) its site assignment. Maintains the
//! three cost terms incrementally:
//!
//! * `C₁` — the TEIC over net bounding-box spans (eq. 6);
//! * `C₂` — the expanded-tile overlap penalty with the `p₂`
//!   normalization (eqs. 7–9), including the four conceptual dummy cells
//!   beyond the core boundary;
//! * `C₃` — the pin-site over-capacity penalty (eqs. 10–11).

use std::cell::Cell;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use twmc_estimator::{Estimator, PinDensityFactors};
use twmc_geom::{Orientation, Point, Rect, Side, Span, TileSet};
use twmc_netlist::{
    flexible_dims, CellGeometry, NetId, Netlist, PinGroup, PinId, PinPlacement, SideSet,
};

use crate::index::BinGrid;
use crate::{SiteLayout, SiteRef};

/// Placement data of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPlace {
    /// Lower-left corner of the *oriented* bounding box (absolute).
    pub pos: Point,
    /// Current orientation.
    pub orientation: Orientation,
    /// Selected instance (macro cells).
    pub instance: usize,
    /// Current aspect ratio (custom cells; 0 for macros).
    pub aspect: f64,
    /// Unoriented bounding-box dimensions of the current geometry.
    pub dims: (i64, i64),
    /// Cached oriented tile geometry.
    pub shape: TileSet,
    /// Dynamic per-side expansions `(left, right, bottom, top)` of the
    /// oriented shape (paper eq. 2).
    pub expansions: (i64, i64, i64, i64),
    /// Pin-site layout (custom cells only).
    pub sites: Option<SiteLayout>,
}

impl CellPlace {
    /// The placed (oriented) bounding box.
    pub fn placed_bbox(&self) -> Rect {
        self.shape.bbox().translate(self.pos)
    }

    /// The center of the placed bounding box.
    pub fn center(&self) -> Point {
        self.placed_bbox().center()
    }
}

/// Cost pieces touched by a move, for delta evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveCost {
    /// Sum of the affected nets' `C₁` contributions.
    pub c1: f64,
    /// Overlap area attributable to the involved cells (pairwise overlaps
    /// among them counted once) plus their core-boundary overlap.
    pub overlap: i64,
    /// Sum of the involved cells' `C₃` contributions.
    pub c3: f64,
}

/// The geometry of one cell saved before a move attempt.
#[derive(Debug, Clone, Copy)]
struct SavedCell {
    idx: usize,
    pos: Point,
    orientation: Orientation,
    instance: usize,
    aspect: f64,
    dims: (i64, i64),
    expansions: (i64, i64, i64, i64),
}

/// What a rejected move attempt puts back, recorded by
/// [`PlacementState::save_attempt`] (cell moves) or
/// [`PlacementState::save_pin_attempt`] (pin moves) and reused from
/// attempt to attempt.
///
/// Everything else a cell move touches is a function of these: the
/// shape follows from instance/dims and orientation, the site layout
/// from dims, and the expanded bbox from the placed bbox and
/// expansions. The totals and the spatial index are only changed by a
/// commit.
#[derive(Debug, Clone, Default)]
struct AttemptRecord {
    /// Whether a cell-move attempt is open: from `save_attempt` to its
    /// commit or rollback, the spatial index keeps the involved cells'
    /// committed footprints.
    open: bool,
    cells: Vec<SavedCell>,
    /// `(pin, position)` for every pin of the involved cells.
    pins: Vec<(usize, Point)>,
    /// Nets touching the involved cells (or the moved pins), sorted and
    /// deduplicated.
    nets: Vec<NetId>,
    /// Cached span of each of `nets` (cell moves).
    spans: Vec<Option<(Span, Span)>>,
    /// `(pin, site)` for every pin of a pin move.
    sites: Vec<(usize, SiteRef)>,
}

/// One uncommitted pin unit of a cell, the thing a pin move relocates.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PinUnit<'a> {
    /// A lone sited pin and the sides it may occupy.
    Single(PinId, SideSet),
    /// A pin group.
    Group(&'a PinGroup),
}

/// [`PlacementState::pin_net`] of a pin that enters no net's span.
const NO_NET: u32 = u32::MAX;

/// What `generate` decides about one cell (paper §3.2.1). Everything
/// else a [`CellPlace`] holds follows from these and the netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellDecision {
    pub(crate) pos: Point,
    pub(crate) orientation: Orientation,
    pub(crate) instance: usize,
    pub(crate) aspect: f64,
}

/// A detached copy of the decisions of a [`PlacementState`] — each
/// cell's position, orientation, instance and aspect, each pin's site —
/// plus what cannot be recomputed bit for bit: the incrementally summed
/// cost totals, `p₂`, and any static expansions.
///
/// Produced by [`PlacementState::snapshot`], reapplied with
/// [`PlacementState::restore`], which derives the rest.
#[derive(Debug, Clone)]
pub struct PlacementSnapshot {
    pub(crate) cells: Vec<CellDecision>,
    pub(crate) pin_site: Vec<Option<SiteRef>>,
    pub(crate) total_c1: f64,
    pub(crate) total_overlap: i64,
    pub(crate) total_c3: f64,
    pub(crate) p2: f64,
    pub(crate) static_expansions: Option<Vec<(i64, i64, i64, i64)>>,
}

impl PlacementSnapshot {
    /// Total cost `C = C₁ + p₂·C₂ + C₃` at capture time.
    pub fn cost(&self) -> f64 {
        self.total_c1 + self.p2 * self.total_overlap as f64 + self.total_c3
    }
}

/// Wall time spent in the three cost terms of sampled
/// [`PlacementState::move_cost`] calls, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostTimes {
    /// Net bounding-span (`C₁`) evaluation time.
    pub net_ns: u64,
    /// Overlap-index (`C₂`) query time.
    pub overlap_ns: u64,
    /// Pin-site penalty (`C₃`) time.
    pub penalty_ns: u64,
}

/// Interior-mutable stopwatch splitting [`PlacementState::move_cost`]
/// wall time across its three cost terms.
///
/// It times only the terms a move attempt evaluates before and after
/// its mutation: `C₁` read from the cached net spans, the overlap query
/// and the site-penalty sum. Everything else an attempt does — moving
/// pins and maintaining the spans, refreshing expansions, reshaping,
/// saving, committing or rolling back — is outside it. A term's share
/// of the clock is therefore a share of `move_cost` time, not of move
/// evaluation: on the 100–400-cell `stage1_ladder` circuits the overlap
/// query is about three quarters of the clock but under a third of a
/// sampled whole-attempt profile.
///
/// Armed by the tracing layer for sampled move blocks only; while
/// disarmed, `move_cost` pays one predictable branch. Timing reads the
/// clock around computations that are *identical* either way — it never
/// touches the RNG or the arithmetic — so armed and disarmed runs place
/// bit-identically. `Cell` keeps the accounting behind the `&self`
/// cost-evaluation API.
#[derive(Debug, Clone, Default)]
pub struct CostClock {
    armed: Cell<bool>,
    net_ns: Cell<u64>,
    overlap_ns: Cell<u64>,
    penalty_ns: Cell<u64>,
}

impl CostClock {
    /// Arms the clock and zeroes the accumulators.
    pub fn start(&self) {
        self.armed.set(true);
        self.net_ns.set(0);
        self.overlap_ns.set(0);
        self.penalty_ns.set(0);
    }

    /// Disarms the clock and returns what it accumulated.
    pub fn stop(&self) -> CostTimes {
        self.armed.set(false);
        CostTimes {
            net_ns: self.net_ns.get(),
            overlap_ns: self.overlap_ns.get(),
            penalty_ns: self.penalty_ns.get(),
        }
    }

    fn armed(&self) -> bool {
        self.armed.get()
    }

    fn add(&self, cell: &Cell<u64>, from: Instant, to: Instant) {
        cell.set(cell.get() + to.duration_since(from).as_nanos() as u64);
    }
}

/// The full placement state.
#[derive(Debug, Clone)]
pub struct PlacementState<'a> {
    nl: &'a Netlist,
    estimator: Estimator,
    /// Relative pin density factor of each cell per orientation and
    /// placed side: `density[i][o as usize][side as usize]` is
    /// `PinDensityFactors::factor_oriented(o, side)` of cell `i`.
    density: Vec<[[f64; 4]; 8]>,
    cells: Vec<CellPlace>,
    pin_pos: Vec<Point>,
    pin_site: Vec<Option<SiteRef>>,
    /// Fractional position of fixed pins on custom cells (scaled on
    /// aspect change).
    fixed_frac: Vec<Option<(f64, f64)>>,
    nets_of_cell: Vec<Vec<NetId>>,
    /// `(h(n), v(n))` weights of each net (eq. 6).
    net_weight: Vec<(f64, f64)>,
    /// The net whose `C₁` span each pin enters: its own net when the pin
    /// is the primary member of a connection point, [`NO_NET`] otherwise.
    pin_net: Vec<u32>,
    /// Primary pins of net `n`, the `C₁` span's points:
    /// `net_pins[net_pin_start[n]..net_pin_start[n + 1]]`.
    net_pin_start: Vec<u32>,
    net_pins: Vec<u32>,
    /// Pin units of cell `i`, sited pins in cell-pin order and then the
    /// cell's groups in netlist order:
    /// `pin_units[pin_unit_start[i]..pin_unit_start[i + 1]]`.
    pin_unit_start: Vec<u32>,
    pin_units: Vec<PinUnit<'a>>,
    /// Cached per-net bounding spans over primary pins, updated
    /// incrementally as pins move (`None` for degenerate zero-pin nets).
    net_span: Vec<Option<(Span, Span)>>,
    /// Bin-grid spatial index over committed expanded cell bboxes — the
    /// `group_overlap` neighbor query.
    index: BinGrid,
    /// The pending move attempt's undo record (scratch, not part of
    /// [`PlacementSnapshot`]).
    attempt: AttemptRecord,
    total_c1: f64,
    total_overlap: i64,
    total_c3: f64,
    p2: f64,
    /// When set, per-cell expansions are frozen to these values instead
    /// of being dynamically re-estimated — stage 2 derives them from the
    /// routed channel densities (paper §4.3: "the amount of outward
    /// expansion of the cell edges is a static quantity" per refinement).
    static_expansions: Option<Vec<(i64, i64, i64, i64)>>,
    /// Cost-term stopwatch for traced runs (disarmed: one branch per
    /// `move_cost`). Deliberately not part of [`PlacementSnapshot`] —
    /// timing is observation, not configuration.
    cost_clock: CostClock,
}

impl<'a> PlacementState<'a> {
    /// Creates a random initial placement inside the estimator's core.
    ///
    /// The initial configuration has no influence on the final TEIC
    /// (paper §3.2.1), so cells get uniformly random centers; uncommitted
    /// pins get random sites on their allowed sides.
    pub fn random(
        nl: &'a Netlist,
        estimator: Estimator,
        density: Vec<PinDensityFactors>,
        rng: &mut StdRng,
    ) -> Self {
        let n_pins = nl.pins().len();
        let nets_of_cell = nl.cells().iter().map(|c| nl.nets_of_cell(c.id())).collect();
        let mut pin_net = vec![NO_NET; n_pins];
        let mut net_pin_start = vec![0];
        let mut net_pins = Vec::new();
        for net in nl.nets() {
            for pid in net.primary_pins() {
                pin_net[pid.index()] = net.id().index() as u32;
                net_pins.push(pid.index() as u32);
            }
            net_pin_start.push(net_pins.len() as u32);
        }
        let mut groups_of_cell = vec![Vec::new(); nl.cells().len()];
        for g in nl.groups().iter().filter(|g| !g.pins.is_empty()) {
            groups_of_cell[g.cell.index()].push(g);
        }
        let mut pin_unit_start = vec![0];
        let mut pin_units = Vec::new();
        for (cell, groups) in nl.cells().iter().zip(groups_of_cell) {
            for &pid in &cell.pins {
                if let PinPlacement::Sites(sides) = nl.pin(pid).placement {
                    pin_units.push(PinUnit::Single(pid, sides));
                }
            }
            pin_units.extend(groups.into_iter().map(PinUnit::Group));
            pin_unit_start.push(pin_units.len() as u32);
        }

        let mut fixed_frac = vec![None; n_pins];
        let mut cells = Vec::with_capacity(nl.cells().len());
        for cell in nl.cells() {
            let (dims, shape, aspect, sites) = match &cell.geometry {
                CellGeometry::Fixed { instances } => {
                    let t = &instances[0].tiles;
                    ((t.width(), t.height()), t.clone(), 0.0, None)
                }
                CellGeometry::Flexible { area, aspect } => {
                    let r = aspect.default_ratio();
                    let (w, h) = flexible_dims(*area, r);
                    // Record fractional positions of fixed custom pins.
                    for &pid in &cell.pins {
                        if let PinPlacement::Fixed(p) = nl.pin(pid).placement {
                            fixed_frac[pid.index()] =
                                Some((p.x as f64 / w.max(1) as f64, p.y as f64 / h.max(1) as f64));
                        }
                    }
                    let layout = SiteLayout::new(w, h, cell.sites_per_edge);
                    ((w, h), TileSet::rect(w, h), r, Some(layout))
                }
            };
            cells.push(CellPlace {
                pos: Point::ORIGIN,
                orientation: Orientation::R0,
                instance: 0,
                aspect,
                dims,
                shape,
                expansions: (0, 0, 0, 0),
                sites,
            });
        }

        // Bin the core with bins near the mean footprint the index holds:
        // the mean cell dimension plus `C_w`, the mean allowance of two
        // opposite sides (eq. 2 is normalized to `C_w/2` per side). A
        // footprint then typically covers a handful of bins and an
        // overlap query visits only its immediate neighborhood.
        let mean_dim =
            cells.iter().map(|c| c.dims.0.max(c.dims.1)).sum::<i64>() / cells.len().max(1) as i64;
        let target_bin = (mean_dim + estimator.c_w().round() as i64).max(1);
        let rects: Vec<Rect> = cells.iter().map(|c| c.placed_bbox()).collect();
        let index = BinGrid::build(estimator.core(), target_bin, &rects);

        let density = density
            .iter()
            .map(|d| Orientation::ALL.map(|o| Side::ALL.map(|side| d.factor_oriented(o, side))))
            .collect();
        let mut state = PlacementState {
            nl,
            estimator,
            density,
            cells,
            pin_pos: vec![Point::ORIGIN; n_pins],
            pin_site: vec![None; n_pins],
            fixed_frac,
            nets_of_cell,
            net_weight: nl.nets().iter().map(|n| (n.weight_h, n.weight_v)).collect(),
            pin_net,
            net_pin_start,
            net_pins,
            pin_unit_start,
            pin_units,
            net_span: vec![None; nl.nets().len()],
            index,
            attempt: AttemptRecord::default(),
            total_c1: 0.0,
            total_overlap: 0,
            total_c3: 0.0,
            p2: 1.0,
            static_expansions: None,
            cost_clock: CostClock::default(),
        };

        // Random sites for uncommitted pins.
        state.assign_initial_sites(rng);
        // Pins from geometry at the origin; the random positions then
        // move every cell, and its pins with it, by a plain offset.
        for i in 0..state.cells.len() {
            state.refresh_pins(i);
        }
        state.randomize_positions(rng);
        state.rebuild_all();
        state
    }

    /// Assigns every uncommitted pin to a random site on its allowed
    /// sides (sequenced groups get consecutive slots).
    fn assign_initial_sites(&mut self, rng: &mut StdRng) {
        // Single sited pins.
        for pin in self.nl.pins() {
            if let PinPlacement::Sites(sides) = pin.placement {
                let cell = pin.cell.index();
                if let Some(layout) = &self.cells[cell].sites {
                    let side = random_side(sides, rng);
                    let slot = rng.random_range(0..layout.sites_per_edge());
                    self.occupy(pin.id().index(), SiteRef { side, slot });
                }
            }
        }
        // Groups.
        for group in self.nl.groups() {
            let cell = group.cell.index();
            let Some(layout) = self.cells[cell].sites.clone() else {
                continue;
            };
            let n = layout.sites_per_edge();
            if group.sequenced {
                let side = random_side(group.sides, rng);
                let start = rng.random_range(0..n);
                for (k, &pid) in group.pins.iter().enumerate() {
                    let slot = (start + k as u32).min(n - 1);
                    self.occupy(pid.index(), SiteRef { side, slot });
                }
            } else {
                for &pid in &group.pins {
                    let side = random_side(group.sides, rng);
                    let slot = rng.random_range(0..n);
                    self.occupy(pid.index(), SiteRef { side, slot });
                }
            }
        }
    }

    fn occupy(&mut self, pin_idx: usize, site: SiteRef) {
        let cell = self.nl.pins()[pin_idx].cell.index();
        if let Some(old) = self.pin_site[pin_idx] {
            self.cells[cell]
                .sites
                .as_mut()
                .expect("sited pin on custom cell")
                .vacate(old);
        }
        self.cells[cell]
            .sites
            .as_mut()
            .expect("sited pin on custom cell")
            .occupy(site);
        self.pin_site[pin_idx] = Some(site);
    }

    /// Places every cell center uniformly at random inside the core.
    pub fn randomize_positions(&mut self, rng: &mut StdRng) {
        let core = self.estimator.core();
        for i in 0..self.cells.len() {
            let bb = self.cells[i].shape.bbox();
            let cx = rng.random_range(core.lo().x..=core.hi().x);
            let cy = rng.random_range(core.lo().y..=core.hi().y);
            let pos = Point::new(cx - bb.width() / 2, cy - bb.height() / 2);
            self.set_cell_pos(i, pos);
        }
    }

    // --- accessors ------------------------------------------------------

    /// The netlist being placed.
    #[inline]
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// The estimator (core, `C_w`, allowances).
    #[inline]
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// Per-cell placement data.
    #[inline]
    pub fn cells(&self) -> &[CellPlace] {
        &self.cells
    }

    /// One cell's placement data.
    #[inline]
    pub fn cell(&self, i: usize) -> &CellPlace {
        &self.cells[i]
    }

    /// Absolute position of a pin.
    #[inline]
    pub fn pin_position(&self, pin: usize) -> Point {
        self.pin_pos[pin]
    }

    /// Site assignment of a pin, if any.
    #[inline]
    pub fn pin_site(&self, pin: usize) -> Option<SiteRef> {
        self.pin_site[pin]
    }

    /// The overlap normalization factor `p₂`.
    #[inline]
    pub fn p2(&self) -> f64 {
        self.p2
    }

    /// Sets the overlap normalization factor directly.
    pub fn set_p2(&mut self, p2: f64) {
        self.p2 = p2;
    }

    /// Current `C₁` (the TEIC, eq. 6).
    #[inline]
    pub fn c1(&self) -> f64 {
        self.total_c1
    }

    /// Current raw overlap area (the sum in eq. 7, before `p₂`).
    #[inline]
    pub fn raw_overlap(&self) -> i64 {
        self.total_overlap
    }

    /// Current `C₃` (eq. 11).
    #[inline]
    pub fn c3(&self) -> f64 {
        self.total_c3
    }

    /// Total cost `C = C₁ + p₂·C₂ + C₃`.
    pub fn cost(&self) -> f64 {
        self.total_c1 + self.p2 * self.total_overlap as f64 + self.total_c3
    }

    /// Total estimated interconnect *length* (TEIL): the eq. 6 sum with
    /// unit weights, the figure the paper reports.
    pub fn teil(&self) -> f64 {
        self.nl
            .nets()
            .iter()
            .map(|n| {
                self.net_spans(n.id().index())
                    .map_or(0.0, |(xs, ys)| (xs.len() + ys.len()) as f64)
            })
            .sum()
    }

    /// Wholesale spatial-index rebuilds performed on this state
    /// (telemetry counter; rebuilds happen on [`PlacementState::restore`]).
    pub fn index_rebuilds(&self) -> u64 {
        self.index.full_rebuilds()
    }

    /// Incremental spatial-index re-bin operations performed on this
    /// state (telemetry counter).
    pub fn index_updates(&self) -> u64 {
        self.index.updates()
    }

    /// Bounding box of all placed cells (without expansions).
    pub fn placement_bbox(&self) -> Rect {
        let mut it = self.cells.iter().map(|c| c.placed_bbox());
        let first = it.next().expect("netlists have cells");
        it.fold(first, |acc, r| acc.hull(r))
    }

    /// Captures the decisions of the configuration (each cell's
    /// position, orientation, instance and aspect, each pin's site) and
    /// the cost bookkeeping that cannot be recomputed bit for bit (the
    /// incrementally summed totals, `p₂`, static expansions). Shapes,
    /// site layouts, expansions, pin positions and net spans are left
    /// to [`PlacementState::restore`] to derive.
    pub fn snapshot(&self) -> PlacementSnapshot {
        PlacementSnapshot {
            cells: self
                .cells
                .iter()
                .map(|c| CellDecision {
                    pos: c.pos,
                    orientation: c.orientation,
                    instance: c.instance,
                    aspect: c.aspect,
                })
                .collect(),
            pin_site: self.pin_site.clone(),
            total_c1: self.total_c1,
            total_overlap: self.total_overlap,
            total_c3: self.total_c3,
            p2: self.p2,
            static_expansions: self.static_expansions.clone(),
        }
    }

    /// Restores a configuration captured by [`PlacementState::snapshot`]
    /// on a state over the same netlist, built with the same parameters.
    ///
    /// Everything the snapshot leaves out is derived from its decisions
    /// through the primitives the moves use: each cell's dims, site
    /// spacing and shape (`resize`), its site
    /// occupancy recounted from the pin sites, its expansions, every pin
    /// from the geometry and every net span by a rescan. The spatial
    /// index is rebuilt once.
    ///
    /// # Panics
    ///
    /// Panics if the cell or pin count differs from this state's, or if
    /// a decision does not fit the netlist (an instance or site slot out
    /// of range, a site on a pin that has none). A decoded checkpoint
    /// ([`crate::persist::snapshot_from`]) has been checked for all of it.
    pub fn restore(&mut self, snap: &PlacementSnapshot) {
        assert_eq!(
            snap.cells.len(),
            self.cells.len(),
            "snapshot from another circuit"
        );
        assert_eq!(
            snap.pin_site.len(),
            self.pin_site.len(),
            "snapshot from another circuit"
        );
        let nl = self.nl;
        self.static_expansions.clone_from(&snap.static_expansions);
        for (i, d) in snap.cells.iter().enumerate() {
            let c = &mut self.cells[i];
            c.pos = d.pos;
            c.orientation = d.orientation;
            c.instance = d.instance;
            c.aspect = d.aspect;
            if let Some(sites) = &mut c.sites {
                sites.clear_occupancy();
            }
            self.resize(i);
            self.cells[i].expansions = self.expansions(i);
        }
        self.pin_site.clone_from(&snap.pin_site);
        for (pin, site) in snap.pin_site.iter().enumerate() {
            if let Some(site) = *site {
                self.cells[nl.pins()[pin].cell.index()]
                    .sites
                    .as_mut()
                    .expect("sited pin on custom cell")
                    .occupy(site);
            }
        }
        for (i, cell) in nl.cells().iter().enumerate() {
            for (k, pin) in cell.pins.iter().enumerate() {
                self.pin_pos[pin.index()] = self.absolute(i, self.pin_local(i, k, pin.index()));
            }
        }
        for n in 0..self.net_span.len() {
            self.net_span[n] = self.net_spans_scratch(n);
        }
        self.total_c1 = snap.total_c1;
        self.total_overlap = snap.total_overlap;
        self.total_c3 = snap.total_c3;
        self.p2 = snap.p2;
        let rects: Vec<Rect> = (0..self.cells.len())
            .map(|i| self.expanded_bbox(i))
            .collect();
        self.index.rebuild(&rects);
    }

    /// Overwrites the spatial-index telemetry counters.
    ///
    /// Resume-only: reconstructing a state from a checkpoint goes
    /// through [`PlacementState::restore`], whose index rebuild bumps
    /// the counters past what the uninterrupted run would report; the
    /// resume path pins them back to the checkpointed values so the
    /// continued telemetry stream stays bit-identical.
    pub fn force_index_counters(&mut self, full_rebuilds: u64, updates: u64) {
        self.index.force_counters(full_rebuilds, updates);
    }

    /// Bounding box including the interconnect expansions — the effective
    /// chip area estimate.
    pub fn effective_bbox(&self) -> Rect {
        let mut it = self.cells.iter().map(|c| {
            let (l, r, b, t) = c.expansions;
            c.placed_bbox().expand_sides(l, r, b, t)
        });
        let first = it.next().expect("netlists have cells");
        it.fold(first, |acc, r| acc.hull(r))
    }

    // --- geometry mutation primitives ------------------------------------

    /// Moves a cell so its oriented bbox lower-left corner is `pos`,
    /// refreshing expansions. The shape is unchanged, so every pin moves
    /// by the same offset.
    pub fn set_cell_pos(&mut self, i: usize, pos: Point) {
        let offset = pos - self.cells[i].pos;
        self.cells[i].pos = pos;
        self.refresh_expansions(i);
        self.translate_pins(i, offset);
    }

    /// Moves a cell so its center lands (up to rounding) on `center`.
    pub fn set_cell_center(&mut self, i: usize, center: Point) {
        self.set_cell_pos(i, self.pos_for_center(i, center));
    }

    /// The position that puts cell `i`'s center (up to rounding) on
    /// `center` under its current shape.
    fn pos_for_center(&self, i: usize, center: Point) -> Point {
        let bb = self.cells[i].shape.bbox();
        Point::new(center.x - bb.width() / 2, center.y - bb.height() / 2)
    }

    /// Puts a cell whose shape just changed (orientation, instance or
    /// dims) at `center`: the pins are placed from the new geometry, not
    /// translated.
    fn recenter_reshaped(&mut self, i: usize, center: Point) {
        self.cells[i].pos = self.pos_for_center(i, center);
        self.refresh_expansions(i);
        self.refresh_pins(i);
    }

    /// Re-orients a cell in place (center preserved up to rounding).
    pub fn set_cell_orientation(&mut self, i: usize, o: Orientation) {
        let center = self.cells[i].center();
        self.reorient_at(i, o, center);
    }

    /// Re-orients a cell and centers it on `center` in one refresh (the
    /// aspect-inverted retries move the cell while re-orienting it).
    pub(crate) fn reorient_at(&mut self, i: usize, o: Orientation, center: Point) {
        self.cells[i].orientation = o;
        self.reshape(i);
        self.recenter_reshaped(i, center);
    }

    /// Selects another instance of a macro cell (center preserved).
    ///
    /// # Panics
    ///
    /// Panics if the cell is custom or the instance index is out of range.
    pub fn set_cell_instance(&mut self, i: usize, instance: usize) {
        assert!(
            !self.nl.cells()[i].is_custom(),
            "custom cells have no instances"
        );
        let center = self.cells[i].center();
        self.cells[i].instance = instance;
        self.resize(i);
        self.recenter_reshaped(i, center);
    }

    /// Changes a custom cell's aspect ratio (center preserved); pin sites
    /// are re-spaced on the new edges and fixed pins keep their fractional
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if the cell is a macro cell.
    pub fn set_cell_aspect(&mut self, i: usize, ratio: f64) {
        assert!(
            self.nl.cells()[i].is_custom(),
            "macro cells have a fixed aspect"
        );
        let center = self.cells[i].center();
        self.cells[i].aspect = ratio;
        self.resize(i);
        self.recenter_reshaped(i, center);
    }

    /// Reassigns an uncommitted pin to another site.
    pub fn set_pin_site(&mut self, pin: usize, site: SiteRef) {
        self.occupy(pin, site);
        let cell = self.nl.pins()[pin].cell.index();
        let p = self.absolute(cell, self.custom_pin_local(cell, pin));
        self.move_pin(pin, p);
    }

    /// Re-derives cell `i`'s dims from its instance (macro) or aspect
    /// (custom), re-spaces its pin sites on them and rewrites its shape.
    #[inline]
    fn resize(&mut self, i: usize) {
        let nl = self.nl;
        let c = &mut self.cells[i];
        c.dims = match &nl.cells()[i].geometry {
            CellGeometry::Fixed { instances } => {
                let tiles = &instances[c.instance].tiles;
                (tiles.width(), tiles.height())
            }
            CellGeometry::Flexible { area, .. } => flexible_dims(*area, c.aspect),
        };
        if let Some(sites) = &mut c.sites {
            sites.resize(c.dims.0, c.dims.1);
        }
        self.reshape(i);
    }

    /// Rewrites cell `i`'s cached shape, in its own tile buffer, as the
    /// tile geometry of its current instance (macro) or dims (custom)
    /// under its current orientation.
    fn reshape(&mut self, i: usize) {
        let nl = self.nl;
        let c = &mut self.cells[i];
        match &nl.cells()[i].geometry {
            CellGeometry::Fixed { instances } => {
                c.shape
                    .set_oriented(&instances[c.instance].tiles, c.orientation);
            }
            CellGeometry::Flexible { .. } => {
                let (w, h) = c.orientation.apply_dims(c.dims.0, c.dims.1);
                c.shape.set_rect(w, h);
            }
        }
    }

    /// Recomputes a cell's dynamic per-side expansions from its current
    /// position (the estimator update performed every time a cell
    /// participates in a move — paper §2.2). When static expansions are
    /// installed (stage 2), those are used unchanged.
    pub fn refresh_expansions(&mut self, i: usize) {
        self.cells[i].expansions = self.expansions(i);
        // Geometry (position, shape, or expansions) may have changed:
        // keep the spatial index in sync — except inside a move attempt,
        // whose commit re-indexes its cells once and whose rollback
        // restores the footprint the index still holds.
        if !self.attempt.open {
            self.index.update(i, self.expanded_bbox(i));
        }
    }

    /// Cell `i`'s per-side expansions at its current placement: the
    /// installed static ones, or else the dynamic estimate.
    #[inline]
    fn expansions(&self, i: usize) -> (i64, i64, i64, i64) {
        if let Some(fixed) = &self.static_expansions {
            return fixed[i];
        }
        let f = &self.density[i][self.cells[i].orientation as usize];
        self.estimator
            .side_expansions(self.cells[i].placed_bbox(), |side| f[side as usize])
    }

    /// A cell's placed bounding box grown by its per-side expansions —
    /// the footprint the overlap term and the spatial index work on.
    #[inline]
    pub fn expanded_bbox(&self, i: usize) -> Rect {
        let c = &self.cells[i];
        let (l, r, b, t) = c.expansions;
        c.placed_bbox().expand_sides(l, r, b, t)
    }

    /// Freezes per-cell expansions to the given values (stage-2 mode) and
    /// rebuilds the cost totals.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the cell count.
    pub fn set_static_expansions(&mut self, expansions: Vec<(i64, i64, i64, i64)>) {
        assert_eq!(
            expansions.len(),
            self.cells.len(),
            "one expansion tuple per cell"
        );
        self.static_expansions = Some(expansions);
        self.rebuild_all();
    }

    /// Returns to dynamic (stage-1) expansion estimation and rebuilds the
    /// cost totals.
    pub fn clear_static_expansions(&mut self) {
        self.static_expansions = None;
        self.rebuild_all();
    }

    /// The placed geometry in the form the channel definer consumes:
    /// every cell's oriented tiles plus position, and the core.
    pub fn placed_cells(&self) -> Vec<(TileSet, Point)> {
        self.cells
            .iter()
            .map(|c| (c.shape.clone(), c.pos))
            .collect()
    }

    /// Recomputes the absolute positions of all pins of cell `i` from
    /// its geometry.
    pub fn refresh_pins(&mut self, i: usize) {
        for (k, pin) in self.nl.cells()[i].pins.iter().enumerate() {
            let p = self.absolute(i, self.pin_local(i, k, pin.index()));
            self.move_pin(pin.index(), p);
        }
    }

    /// Shifts every pin of cell `i` by `offset` — what
    /// [`PlacementState::refresh_pins`] computes after a move that keeps
    /// the cell's shape, without re-deriving any pin (debug builds check
    /// the two agree).
    fn translate_pins(&mut self, i: usize, offset: Point) {
        for pin in &self.nl.cells()[i].pins {
            let pin = pin.index();
            self.move_pin(pin, self.pin_pos[pin] + offset);
        }
        debug_assert!(
            self.nl.cells()[i].pins.iter().enumerate().all(|(k, pin)| {
                self.pin_pos[pin.index()] == self.absolute(i, self.pin_local(i, k, pin.index()))
            }),
            "translated pins of cell {i} drifted from its geometry"
        );
    }

    /// Cell-local (unoriented) position of `pin`, the `k`-th pin of cell
    /// `i`: macro pins sit at per-instance positions listed by slot.
    #[inline]
    fn pin_local(&self, i: usize, k: usize, pin: usize) -> Point {
        match &self.nl.cells()[i].geometry {
            CellGeometry::Fixed { instances } => instances[self.cells[i].instance].pin_positions[k],
            CellGeometry::Flexible { .. } => self.custom_pin_local(i, pin),
        }
    }

    /// Cell-local position of a pin of custom cell `cell_idx`: a fixed
    /// pin keeps its fractional position on the current dims, a sited
    /// pin sits at its site.
    fn custom_pin_local(&self, cell_idx: usize, pin: usize) -> Point {
        let cell = &self.cells[cell_idx];
        match (self.fixed_frac[pin], self.pin_site[pin]) {
            (Some((fx, fy)), _) => Point::new(
                (fx * cell.dims.0 as f64).round() as i64,
                (fy * cell.dims.1 as f64).round() as i64,
            ),
            (None, Some(site)) => cell
                .sites
                .as_ref()
                .expect("sited pin on custom cell")
                .position(site),
            (None, None) => unreachable!("custom-cell pins are fixed or sited"),
        }
    }

    /// Absolute position of cell-local point `local` of cell `i`'s
    /// unoriented geometry.
    fn absolute(&self, i: usize, local: Point) -> Point {
        let cell = &self.cells[i];
        let (w, h) = cell.dims;
        cell.orientation.apply(local, w, h) + cell.pos
    }

    /// Puts a pin at absolute position `new_pos`, keeping its net's
    /// cached span in step.
    fn move_pin(&mut self, pin: usize, new_pos: Point) {
        let old_pos = self.pin_pos[pin];
        if new_pos == old_pos {
            return;
        }
        self.pin_pos[pin] = new_pos;
        let net = self.pin_net[pin];
        if net != NO_NET {
            self.update_net_span(net as usize, old_pos, new_pos);
        }
    }

    /// Incrementally maintains one net's cached span after a primary pin
    /// moved from `old` to `new` (the pin position is already updated).
    ///
    /// Every other pin lies within the old span. So unless the pin left
    /// an extreme it held *inward* (it sat on `lo` and moved above it, or
    /// on `hi` and moved below it), each extreme is still realized — by
    /// another pin, or by the new point at or beyond it — and the new
    /// hull is exactly `hull(old span, new point)`. Only an inward exit
    /// can shrink the span, and then the net is rescanned.
    fn update_net_span(&mut self, net: usize, old: Point, new: Point) {
        let Some((xs, ys)) = self.net_span[net] else {
            // `None` means either a degenerate zero-pin net (no pins can
            // move) or a not-yet-built cache during initialization; the
            // closing `rebuild_all` computes it from scratch.
            return;
        };
        if exits_inward(xs, old.x, new.x) || exits_inward(ys, old.y, new.y) {
            self.net_span[net] = self.net_spans_scratch(net);
        } else {
            self.net_span[net] = Some((
                xs.hull(Span::new(new.x, new.x)),
                ys.hull(Span::new(new.y, new.y)),
            ));
        }
    }

    // --- cost machinery ---------------------------------------------------

    /// The cached spans of a net over its primary pins, or `None` for a
    /// degenerate net with no primary pins (such nets contribute zero to
    /// `C₁` and are importable from the text netlist format).
    #[inline]
    pub fn net_spans(&self, net: usize) -> Option<(Span, Span)> {
        debug_assert_eq!(
            self.net_span[net],
            self.net_spans_scratch(net),
            "net span cache drifted from pin positions (net {net})"
        );
        self.net_span[net]
    }

    /// From-scratch spans of a net — the ground truth the cache must
    /// match; used for hull-shrink recomputation and drift checks.
    fn net_spans_scratch(&self, net: usize) -> Option<(Span, Span)> {
        let pins =
            &self.net_pins[self.net_pin_start[net] as usize..self.net_pin_start[net + 1] as usize];
        let mut spans: Option<(Span, Span)> = None;
        for &pin in pins {
            let p = self.pin_pos[pin as usize];
            let (px, py) = (Span::new(p.x, p.x), Span::new(p.y, p.y));
            spans = Some(match spans {
                Some((xs, ys)) => (xs.hull(px), ys.hull(py)),
                None => (px, py),
            });
        }
        spans
    }

    /// One net's `C₁` contribution: `x(n)·h(n) + y(n)·v(n)` (zero for
    /// degenerate pin-less nets).
    pub fn net_cost_live(&self, net: usize) -> f64 {
        net_cost(self.net_weight[net], self.net_spans(net))
    }

    /// Expanded overlap between two cells (the `O(i,j)` of eq. 8 on
    /// estimator-expanded tiles).
    pub fn pair_overlap(&self, i: usize, j: usize) -> i64 {
        let a = &self.cells[i];
        let b = &self.cells[j];
        a.shape
            .expanded_overlap_area_at(a.pos, a.expansions, &b.shape, b.pos, b.expansions)
    }

    /// Overlap of a cell's expanded tiles with the area beyond the core
    /// boundary — the four conceptual dummy cells of the paper (ref. 16).
    ///
    /// Every expanded tile lies within the expanded bbox, so a cell whose
    /// expanded bbox lies inside the core has none: the tiles are only
    /// visited for a cell that reaches past the core.
    pub fn boundary_overlap(&self, i: usize) -> i64 {
        let core = self.estimator.core();
        if core.contains_rect(self.expanded_bbox(i)) {
            return 0;
        }
        let c = &self.cells[i];
        let (l, r, b, t) = c.expansions;
        c.shape
            .tiles()
            .iter()
            .map(|tile| {
                let e = tile.translate(c.pos).expand_sides(l, r, b, t);
                e.area() - e.intersect(core).map_or(0, |x| x.area())
            })
            .sum()
    }

    /// Overlap area attributable to a set of cells: each involved cell
    /// against every outside cell, plus pairwise overlaps among the
    /// involved counted once, plus boundary overlaps.
    ///
    /// Queries the bin-grid spatial index with each involved cell's live
    /// expanded bbox, so only outside cells whose expanded bboxes overlap
    /// it are examined — the others contribute zero, and skipping them
    /// leaves the `i64` sum identical to
    /// [`PlacementState::group_overlap_scan`]. The involved cells' own
    /// index entries are skipped (inside a move attempt they still hold
    /// the committed footprints); their pairs are taken directly.
    pub fn group_overlap(&self, involved: &[usize]) -> i64 {
        debug_assert!(
            !self.attempt.open
                || self
                    .attempt
                    .cells
                    .iter()
                    .map(|s| s.idx)
                    .eq(involved.iter().copied()),
            "an open move attempt is asked about cells other than its own"
        );
        let mut total = 0;
        for (k, &i) in involved.iter().enumerate() {
            self.index.query(self.expanded_bbox(i), |j| {
                if !involved.contains(&j) {
                    total += self.pair_overlap(i, j);
                }
            });
            for &j in &involved[k + 1..] {
                total += self.pair_overlap(i, j);
            }
            total += self.boundary_overlap(i);
        }
        debug_assert_eq!(
            total,
            self.group_overlap_scan(involved),
            "spatial index missed an overlapping pair"
        );
        total
    }

    /// Reference implementation of [`PlacementState::group_overlap`]
    /// scanning every cell — the ground truth for drift checks and the
    /// before/after yardstick of the kernel benchmarks.
    pub fn group_overlap_scan(&self, involved: &[usize]) -> i64 {
        let mut total = 0;
        for (k, &i) in involved.iter().enumerate() {
            for j in 0..self.cells.len() {
                if j == i {
                    continue;
                }
                if let Some(kj) = involved.iter().position(|&x| x == j) {
                    if kj < k {
                        continue;
                    }
                }
                total += self.pair_overlap(i, j);
            }
            total += self.boundary_overlap(i);
        }
        total
    }

    /// Nets touching any of the given cells (deduplicated).
    pub fn nets_touching(&self, involved: &[usize]) -> Vec<NetId> {
        let mut out: Vec<NetId> = involved
            .iter()
            .flat_map(|&i| self.nets_of_cell[i].iter().copied())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// `C₃` contribution of the given cells.
    pub fn cells_c3(&self, involved: &[usize]) -> f64 {
        involved
            .iter()
            .filter_map(|&i| self.cells[i].sites.as_ref())
            .map(|s| s.penalty())
            .sum()
    }

    /// Evaluates the cost pieces a move over `involved` cells would
    /// touch, using the *live* geometry (call before and after mutating).
    pub fn move_cost(&self, involved: &[usize], nets: &[NetId]) -> MoveCost {
        self.attempt_cost(involved, nets, true)
    }

    /// [`PlacementState::move_cost`] with `C₃` summed only when `sites`
    /// is set (`c3` is 0 otherwise). A move that keeps every cell's dims
    /// changes no site's occupancy, nor any capacity (capacities follow
    /// the unoriented dims), so its `C₃` delta is exactly 0 either way:
    /// only aspect changes need the sum.
    pub(crate) fn attempt_cost(&self, involved: &[usize], nets: &[NetId], sites: bool) -> MoveCost {
        if self.cost_clock.armed() {
            return self.move_cost_timed(involved, nets, sites);
        }
        MoveCost {
            c1: nets.iter().map(|n| self.net_cost_live(n.index())).sum(),
            overlap: self.group_overlap(involved),
            c3: if sites { self.cells_c3(involved) } else { 0.0 },
        }
    }

    /// The cost-term stopwatch (armed by the tracing layer for sampled
    /// move blocks).
    pub fn cost_clock(&self) -> &CostClock {
        &self.cost_clock
    }

    /// [`PlacementState::attempt_cost`] with the stopwatch running: the
    /// same computations in the same order — the clock reads around them
    /// cannot change a bit of the result. Without `sites` no penalty time
    /// is recorded, as none is spent.
    fn move_cost_timed(&self, involved: &[usize], nets: &[NetId], sites: bool) -> MoveCost {
        let t0 = Instant::now();
        let c1 = nets.iter().map(|n| self.net_cost_live(n.index())).sum();
        let t1 = Instant::now();
        let overlap = self.group_overlap(involved);
        let t2 = Instant::now();
        self.cost_clock.add(&self.cost_clock.net_ns, t0, t1);
        self.cost_clock.add(&self.cost_clock.overlap_ns, t1, t2);
        let c3 = if sites {
            let c3 = self.cells_c3(involved);
            self.cost_clock
                .add(&self.cost_clock.penalty_ns, t2, Instant::now());
            c3
        } else {
            0.0
        };
        MoveCost { c1, overlap, c3 }
    }

    /// Reference implementation of [`PlacementState::move_cost`] without
    /// the spatial index or the span cache — every touched net is
    /// rescanned pin by pin and every cell examined for overlap. Kept as
    /// the before/after yardstick of the kernel benchmarks.
    pub fn move_cost_scan(&self, involved: &[usize], nets: &[NetId]) -> MoveCost {
        MoveCost {
            c1: nets
                .iter()
                .map(|n| {
                    net_cost(
                        self.net_weight[n.index()],
                        self.net_spans_scratch(n.index()),
                    )
                })
                .sum(),
            overlap: self.group_overlap_scan(involved),
            c3: self.cells_c3(involved),
        }
    }

    /// The weighted cost delta between two [`MoveCost`] evaluations.
    pub fn weighted_delta(&self, before: MoveCost, after: MoveCost) -> f64 {
        (after.c1 - before.c1)
            + self.p2 * (after.overlap - before.overlap) as f64
            + (after.c3 - before.c3)
    }

    /// Commits a move's cost delta to the running totals.
    pub fn commit_cost(&mut self, before: MoveCost, after: MoveCost) {
        self.total_c1 += after.c1 - before.c1;
        self.total_overlap += after.overlap - before.overlap;
        self.total_c3 += after.c3 - before.c3;
    }

    // --- move attempts -----------------------------------------------------

    /// Opens a move attempt over `involved`: records what it may change,
    /// for [`PlacementState::rollback_attempt`], and collects the nets it
    /// touches ([`PlacementState::attempt_nets`]). Until the attempt is
    /// committed or rolled back, the spatial index keeps the involved
    /// cells' committed footprints.
    pub(crate) fn save_attempt(&mut self, involved: &[usize]) {
        let rec = &mut self.attempt;
        rec.open = true;
        rec.cells.clear();
        rec.pins.clear();
        rec.nets.clear();
        rec.spans.clear();
        for &i in involved {
            let c = &self.cells[i];
            rec.cells.push(SavedCell {
                idx: i,
                pos: c.pos,
                orientation: c.orientation,
                instance: c.instance,
                aspect: c.aspect,
                dims: c.dims,
                expansions: c.expansions,
            });
            for pin in &self.nl.cells()[i].pins {
                rec.pins.push((pin.index(), self.pin_pos[pin.index()]));
            }
            rec.nets.extend_from_slice(&self.nets_of_cell[i]);
        }
        // One cell's list is already sorted and deduplicated.
        if involved.len() > 1 {
            rec.nets.sort_unstable();
            rec.nets.dedup();
        }
        rec.spans
            .extend(rec.nets.iter().map(|n| self.net_span[n.index()]));
    }

    /// The nets touching the cells of the saved attempt, in ascending
    /// order (the same list [`PlacementState::nets_touching`] returns).
    pub(crate) fn attempt_nets(&self) -> &[NetId] {
        &self.attempt.nets
    }

    /// Closes the saved attempt by keeping it: commits its cost delta
    /// and re-indexes each involved cell once, under its new footprint.
    pub(crate) fn commit_attempt(&mut self, before: MoveCost, after: MoveCost) {
        self.commit_cost(before, after);
        self.attempt.open = false;
        for k in 0..self.attempt.cells.len() {
            let i = self.attempt.cells[k].idx;
            self.index.update(i, self.expanded_bbox(i));
        }
    }

    /// Closes the saved attempt by putting back everything it recorded.
    /// The shape is rebuilt only when orientation, instance or dims
    /// changed, the site layout only when dims changed. No bin is
    /// touched: the index still holds the restored footprints.
    pub(crate) fn rollback_attempt(&mut self) {
        self.attempt.open = false;
        for k in 0..self.attempt.cells.len() {
            let s = self.attempt.cells[k];
            let c = &mut self.cells[s.idx];
            let reshape =
                c.orientation != s.orientation || c.instance != s.instance || c.dims != s.dims;
            if c.dims != s.dims {
                if let Some(sites) = &mut c.sites {
                    sites.resize(s.dims.0, s.dims.1);
                }
            }
            c.pos = s.pos;
            c.orientation = s.orientation;
            c.instance = s.instance;
            c.aspect = s.aspect;
            c.dims = s.dims;
            c.expansions = s.expansions;
            if reshape {
                self.reshape(s.idx);
            }
            debug_assert_eq!(self.index.rect(s.idx), self.expanded_bbox(s.idx));
        }
        for &(pin, p) in &self.attempt.pins {
            self.pin_pos[pin] = p;
        }
        for (n, &span) in self.attempt.nets.iter().zip(&self.attempt.spans) {
            self.net_span[n.index()] = span;
        }
    }

    /// The pin units of cell `i` a pin move chooses from, in table order.
    pub(crate) fn pin_units(&self, i: usize) -> &[PinUnit<'a>] {
        &self.pin_units[self.pin_unit_start[i] as usize..self.pin_unit_start[i + 1] as usize]
    }

    /// Opens a pin-move attempt over `pins`: records each one's site for
    /// [`PlacementState::rollback_pin_attempt`] and collects their nets
    /// ([`PlacementState::pin_attempt_cost`]).
    pub(crate) fn save_pin_attempt(&mut self, pins: &[PinId]) {
        let rec = &mut self.attempt;
        rec.sites.clear();
        rec.nets.clear();
        for pin in pins {
            let site = self.pin_site[pin.index()].expect("moving a sited pin");
            rec.sites.push((pin.index(), site));
            rec.nets.extend(self.nl.pin(*pin).net);
        }
        rec.nets.sort_unstable();
        rec.nets.dedup();
    }

    /// The cost pieces a pin move on `cell` puts at stake: `C₁` of the
    /// moved pins' nets and the cell's `C₃` (the geometry is unchanged).
    pub(crate) fn pin_attempt_cost(&self, cell: usize) -> MoveCost {
        MoveCost {
            c1: self
                .attempt
                .nets
                .iter()
                .map(|n| self.net_cost_live(n.index()))
                .sum(),
            overlap: 0,
            c3: self.cells_c3(&[cell]),
        }
    }

    /// Puts every pin of the pin-move attempt back on its recorded site.
    pub(crate) fn rollback_pin_attempt(&mut self) {
        for k in (0..self.attempt.sites.len()).rev() {
            let (pin, site) = self.attempt.sites[k];
            self.set_pin_site(pin, site);
        }
    }

    /// The rect the spatial index holds for a cell: its expanded bbox as
    /// of the cell's last refresh outside a move attempt, or as of the
    /// attempt's commit. Between attempts it equals
    /// [`PlacementState::expanded_bbox`] — the oracle tests check that.
    pub fn indexed_rect(&self, i: usize) -> Rect {
        self.index.rect(i)
    }

    /// Recomputes every cached quantity from scratch (initialization and
    /// verification). The overlap total comes through the spatial index.
    pub fn rebuild_all(&mut self) {
        for i in 0..self.cells.len() {
            self.refresh_expansions(i);
            self.refresh_pins(i);
        }
        for n in 0..self.net_span.len() {
            self.net_span[n] = self.net_spans_scratch(n);
        }
        let (c1, ov, c3) = self.indexed_totals();
        self.total_c1 = c1;
        self.total_overlap = ov;
        self.total_c3 = c3;
    }

    /// From-scratch totals `(C₁, raw overlap, C₃)` — the ground truth the
    /// incremental bookkeeping must match. The overlap scans every pair.
    pub fn recompute_totals(&self) -> (f64, i64, f64) {
        let mut ov = 0;
        for i in 0..self.cells.len() {
            for j in (i + 1)..self.cells.len() {
                ov += self.pair_overlap(i, j);
            }
            ov += self.boundary_overlap(i);
        }
        self.totals_with_overlap(ov)
    }

    /// [`PlacementState::recompute_totals`] with the overlap summed over
    /// the pairs the spatial index reports instead of over all pairs —
    /// the same `i64` terms, so the same total.
    fn indexed_totals(&self) -> (f64, i64, f64) {
        debug_assert!(!self.attempt.open, "totals asked for inside a move attempt");
        let mut ov = 0;
        for i in 0..self.cells.len() {
            self.index.query(self.expanded_bbox(i), |j| {
                if j > i {
                    ov += self.pair_overlap(i, j);
                }
            });
            ov += self.boundary_overlap(i);
        }
        debug_assert_eq!(ov, self.recompute_totals().1, "spatial index missed a pair");
        self.totals_with_overlap(ov)
    }

    /// `(C₁, ov, C₃)` with `C₁` and `C₃` summed from the live state in net
    /// and cell order.
    fn totals_with_overlap(&self, ov: i64) -> (f64, i64, f64) {
        let c1 = (0..self.nl.nets().len())
            .map(|n| self.net_cost_live(n))
            .sum();
        let c3 = (0..self.cells.len())
            .filter_map(|i| self.cells[i].sites.as_ref())
            .map(|s| s.penalty())
            .sum();
        (c1, ov, c3)
    }

    /// Calibrates `p₂` so that `p₂ · C₂ = η · C₁` on average over random
    /// configurations — the `T = T_∞` normalization of eq. 9. Leaves the
    /// state at the last sampled random placement.
    pub fn calibrate_p2(&mut self, eta: f64, samples: usize, rng: &mut StdRng) {
        let mut sum_c1 = 0.0;
        let mut sum_ov = 0.0;
        for _ in 0..samples.max(1) {
            self.randomize_positions(rng);
            let (c1, ov, _) = self.indexed_totals();
            sum_c1 += c1;
            sum_ov += ov as f64;
        }
        self.p2 = if sum_ov > 0.0 {
            eta * sum_c1 / sum_ov
        } else {
            1.0
        };
        self.rebuild_all();
    }
}

/// A net's `C₁` contribution over its spans under its `(h(n), v(n))`
/// weights: `x(n)·h(n) + y(n)·v(n)` (zero for a degenerate pin-less net).
fn net_cost((h, v): (f64, f64), spans: Option<(Span, Span)>) -> f64 {
    spans.map_or(0.0, |(xs, ys)| xs.len() as f64 * h + ys.len() as f64 * v)
}

/// Whether a coordinate moving `from → to` leaves an extreme of span `s`
/// it held inward — the one move along an axis that can shrink the span.
fn exits_inward(s: Span, from: i64, to: i64) -> bool {
    (from == s.lo() && to > s.lo()) || (from == s.hi() && to < s.hi())
}

/// A uniformly drawn side of `sides`, or of all four when it is empty.
pub(crate) fn random_side(sides: SideSet, rng: &mut StdRng) -> Side {
    let sides = if sides.is_empty() {
        SideSet::ALL
    } else {
        sides
    };
    let k = rng.random_range(0..sides.count() as usize);
    sides.iter().nth(k).expect("k < count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use twmc_estimator::{cell_density_factors, determine_core, EstimatorParams};
    use twmc_netlist::{synthesize, SynthParams};

    fn make_state(nl: &Netlist, seed: u64) -> PlacementState<'_> {
        let det = determine_core(nl, &EstimatorParams::default());
        let density = cell_density_factors(nl, nl.stats().avg_pin_density);
        let mut rng = StdRng::seed_from_u64(seed);
        PlacementState::random(nl, det.estimator, density, &mut rng)
    }

    fn circuit() -> Netlist {
        synthesize(&SynthParams {
            cells: 10,
            nets: 25,
            pins: 80,
            custom_fraction: 0.3,
            seed: 11,
            ..Default::default()
        })
    }

    #[test]
    fn initial_state_is_consistent() {
        let nl = circuit();
        let st = make_state(&nl, 1);
        let (c1, ov, c3) = st.recompute_totals();
        assert!((st.c1() - c1).abs() < 1e-6);
        assert_eq!(st.raw_overlap(), ov);
        assert!((st.c3() - c3).abs() < 1e-6);
        assert!(st.cost() > 0.0);
    }

    #[test]
    fn incremental_matches_scratch_after_moves() {
        let nl = circuit();
        let mut st = make_state(&nl, 2);
        let mut rng = StdRng::seed_from_u64(9);
        for step in 0..200 {
            let i = rng.random_range(0..nl.cells().len());
            let involved = [i];
            let nets = st.nets_touching(&involved);
            let before = st.move_cost(&involved, &nets);
            // Random mutation mix.
            match step % 4 {
                0 => {
                    let p = Point::new(rng.random_range(-200..200), rng.random_range(-200..200));
                    st.set_cell_center(i, p);
                }
                1 => {
                    let o = Orientation::ALL[rng.random_range(0..8usize)];
                    st.set_cell_orientation(i, o);
                }
                2 if nl.cells()[i].is_custom() => {
                    st.set_cell_aspect(i, if step % 8 < 4 { 0.5 } else { 2.0 });
                }
                _ => {
                    let p = Point::new(rng.random_range(-100..100), rng.random_range(-100..100));
                    st.set_cell_center(i, p);
                }
            }
            let after = st.move_cost(&involved, &nets);
            st.commit_cost(before, after);
        }
        let (c1, ov, c3) = st.recompute_totals();
        assert!(
            (st.c1() - c1).abs() < 1e-6 * c1.max(1.0),
            "{} vs {c1}",
            st.c1()
        );
        assert_eq!(st.raw_overlap(), ov);
        assert!((st.c3() - c3).abs() < 1e-6);
    }

    #[test]
    fn orientation_preserves_center_and_cost_symmetry() {
        let nl = circuit();
        let mut st = make_state(&nl, 3);
        let c_before = st.cell(0).center();
        st.set_cell_orientation(0, Orientation::R180);
        let c_after = st.cell(0).center();
        assert!((c_before.x - c_after.x).abs() <= 1);
        assert!((c_before.y - c_after.y).abs() <= 1);
    }

    #[test]
    fn overlap_responds_to_stacking() {
        let nl = circuit();
        let mut st = make_state(&nl, 4);
        // Stack everything at the origin: overlap should be large.
        for i in 0..nl.cells().len() {
            let involved = [i];
            let nets = st.nets_touching(&involved);
            let before = st.move_cost(&involved, &nets);
            st.set_cell_center(i, Point::ORIGIN);
            let after = st.move_cost(&involved, &nets);
            st.commit_cost(before, after);
        }
        assert!(st.raw_overlap() > 0);
        // Spread far apart outside each other: pairwise overlap falls to
        // boundary-only.
        for i in 0..nl.cells().len() {
            let involved = [i];
            let nets = st.nets_touching(&involved);
            let before = st.move_cost(&involved, &nets);
            st.set_cell_center(i, Point::new((i as i64) * 500 - 2000, 0));
            let after = st.move_cost(&involved, &nets);
            st.commit_cost(before, after);
        }
        let pairwise: i64 = (0..nl.cells().len())
            .flat_map(|i| ((i + 1)..nl.cells().len()).map(move |j| (i, j)))
            .map(|(i, j)| st.pair_overlap(i, j))
            .sum();
        assert_eq!(pairwise, 0);
    }

    #[test]
    fn boundary_overlap_detects_escapes() {
        let nl = circuit();
        let mut st = make_state(&nl, 5);
        let core = st.estimator().core();
        st.set_cell_center(0, Point::new(core.hi().x + 1000, 0));
        assert!(st.boundary_overlap(0) > 0);
        st.set_cell_center(0, Point::ORIGIN);
        // Fully interior (center of a reasonably sized core): only the
        // expansions could poke out, and at the center they cannot.
        assert_eq!(st.boundary_overlap(0), 0);
    }

    /// The inside-the-core shortcut of `boundary_overlap` equals the
    /// tile-by-tile sum of what each expanded tile leaves outside the
    /// core, for cells placed across and around the core boundary.
    #[test]
    fn boundary_overlap_matches_the_tile_sum() {
        let nl = circuit();
        let mut st = make_state(&nl, 13);
        let core = st.estimator().core();
        let mut rng = StdRng::seed_from_u64(17);
        let (mut inside, mut outside) = (0, 0);
        for _ in 0..400 {
            let i = rng.random_range(0..nl.cells().len());
            let margin = core.width() / 4;
            let center = Point::new(
                rng.random_range(core.lo().x - margin..=core.hi().x + margin),
                rng.random_range(core.lo().y - margin..=core.hi().y + margin),
            );
            st.set_cell_center(i, center);
            let c = st.cell(i);
            let (l, r, b, t) = c.expansions;
            let want: i64 = c
                .shape
                .tiles()
                .iter()
                .map(|tile| {
                    let e = tile.translate(c.pos).expand_sides(l, r, b, t);
                    e.area() - e.intersect(core).map_or(0, |x| x.area())
                })
                .sum();
            assert_eq!(st.boundary_overlap(i), want, "cell {i} at {center}");
            if want == 0 {
                inside += 1;
            } else {
                outside += 1;
            }
        }
        assert!(
            inside > 0 && outside > 0,
            "{inside} inside, {outside} outside"
        );
    }

    #[test]
    fn pin_positions_follow_cell() {
        let nl = circuit();
        let mut st = make_state(&nl, 6);
        let cell0_pins: Vec<usize> = nl.cells()[0].pins.iter().map(|p| p.index()).collect();
        let before: Vec<Point> = cell0_pins.iter().map(|&p| st.pin_position(p)).collect();
        st.set_cell_pos(0, st.cell(0).pos + Point::new(17, -5));
        for (k, &p) in cell0_pins.iter().enumerate() {
            assert_eq!(st.pin_position(p), before[k] + Point::new(17, -5));
        }
    }

    /// The span rule's three cases on one net of three macro pins: a
    /// hull pin moving outward extends the span without a rescan, a hull
    /// pin moving inward shrinks it through a rescan, and a hull pin
    /// moving inward while a second pin shares its extreme rescans and
    /// keeps the extreme.
    #[test]
    fn span_rule_rescans_only_inward_exits() {
        use twmc_netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new();
        let pins: Vec<PinId> = (0..3)
            .map(|k| {
                let c = b.add_macro(&format!("m{k}"), TileSet::rect(4, 4));
                b.add_fixed_pin(c, "p", Point::ORIGIN).expect("pin")
            })
            .collect();
        b.add_simple_net("n", &pins).expect("net");
        let nl = b.build().expect("valid netlist");
        let mut st = make_state(&nl, 12);
        let span = |st: &PlacementState<'_>| {
            let (xs, ys) = st.net_spans(0).expect("net has pins");
            assert_eq!(Some((xs, ys)), st.net_spans_scratch(0), "cache drifted");
            (xs.lo(), xs.hi(), ys.lo(), ys.hi())
        };
        // Each macro's only pin sits on its cell's lower-left corner.
        for (i, (x, y)) in [(0, 0), (50, 10), (100, 20)].into_iter().enumerate() {
            st.set_cell_pos(i, Point::new(x, y));
        }
        assert_eq!(span(&st), (0, 100, 0, 20));

        // Outward from the low x and y extremes: no inward exit.
        let lo = Span::new(0, 100);
        assert!(!exits_inward(lo, 0, -20));
        st.set_cell_pos(0, Point::new(-20, -5));
        assert_eq!(span(&st), (-20, 100, -5, 20));

        // Inward from both low extremes: the span shrinks to the others.
        assert!(exits_inward(Span::new(-20, 100), -20, 70));
        st.set_cell_pos(0, Point::new(70, 15));
        assert_eq!(span(&st), (50, 100, 10, 20));

        // Inward from the low x extreme that cell 1 shares: the rescan
        // finds cell 1 still there.
        st.set_cell_pos(0, Point::new(50, 10));
        assert_eq!(span(&st), (50, 100, 10, 20));
        assert!(exits_inward(Span::new(50, 100), 50, 80));
        st.set_cell_pos(0, Point::new(80, 12));
        assert_eq!(span(&st), (50, 100, 10, 20));

        // Interior moves and moves onto an extreme never exit inward.
        assert!(!exits_inward(Span::new(50, 100), 80, 100));
        assert!(!exits_inward(Span::new(50, 100), 100, 120));
        assert!(!exits_inward(Span::new(5, 5), 5, 5));
        assert!(exits_inward(Span::new(5, 5), 5, 4));
    }

    #[test]
    fn teil_equals_c1_with_unit_weights() {
        // The synthesized circuits use unit weights, so TEIL == C1.
        let nl = circuit();
        let st = make_state(&nl, 7);
        assert!((st.teil() - st.c1()).abs() < 1e-9);
    }

    #[test]
    fn calibration_balances_eta() {
        let nl = circuit();
        let mut st = make_state(&nl, 8);
        let mut rng = StdRng::seed_from_u64(21);
        st.calibrate_p2(0.5, 32, &mut rng);
        // After calibration, on random configurations p2*C2 ≈ 0.5*C1.
        let mut ratio_sum = 0.0;
        let n = 16;
        for _ in 0..n {
            st.randomize_positions(&mut rng);
            let (c1, ov, _) = st.recompute_totals();
            ratio_sum += st.p2() * ov as f64 / c1;
        }
        let avg = ratio_sum / n as f64;
        assert!((avg - 0.5).abs() < 0.2, "avg p2*C2/C1 = {avg}");
    }

    #[test]
    fn custom_pin_sites_respect_allowed_sides() {
        let nl = circuit();
        let st = make_state(&nl, 9);
        for pin in nl.pins() {
            if let PinPlacement::Sites(sides) = pin.placement {
                if let Some(site) = st.pin_site(pin.id().index()) {
                    assert!(
                        sides.is_empty() || sides.contains(site.side),
                        "pin {} on disallowed side",
                        pin.name
                    );
                }
            }
        }
    }
}
