//! Checkpoint codecs for the placement state.
//!
//! Encodes the mutable placement data — [`PlacementSnapshot`],
//! [`CoolingRun`] loop position, [`MoveStats`] counters — into the
//! [`serde::Value`] payload trees `twmc-resume` writes to disk, and
//! decodes them back with typed [`CheckpointError`]s. Floats travel as
//! IEEE-754 bit patterns ([`codec::f64_bits`]) so a decoded state is
//! *bit-identical* to the captured one; that, plus capturing the RNG
//! stream position separately, is what makes `--resume` continue a run
//! exactly as if it had never stopped.

use serde::Value;
use twmc_geom::{Orientation, Point, Rect, Side, Span, TileSet};
use twmc_netlist::Netlist;
use twmc_resume::codec::{
    self, array_field, bool_field, f64_field, i64_field, items, u64_field, usize_field,
};
use twmc_resume::CheckpointError;

use crate::state::{net_cost, CellPlace};
use crate::{
    CoolingRun, MoveStats, PlacementSnapshot, SiteLayout, SiteRef, Stage1Result, TempRecord,
};

fn corrupt(msg: &str) -> CheckpointError {
    CheckpointError::Corrupt(msg.to_owned())
}

// --- geometry primitives -------------------------------------------------

fn point_value(p: Point) -> Value {
    Value::Array(vec![Value::Int(p.x), Value::Int(p.y)])
}

fn point_from(v: &Value) -> Result<Point, CheckpointError> {
    let a = items(v, "point")?;
    match a {
        [x, y] => Ok(Point::new(
            codec::as_i64(x).ok_or_else(|| corrupt("point x is not an integer"))?,
            codec::as_i64(y).ok_or_else(|| corrupt("point y is not an integer"))?,
        )),
        _ => Err(corrupt("point is not a 2-element array")),
    }
}

fn rect_value(r: Rect) -> Value {
    Value::Array(vec![
        Value::Int(r.lo().x),
        Value::Int(r.lo().y),
        Value::Int(r.hi().x),
        Value::Int(r.hi().y),
    ])
}

fn rect_from(v: &Value) -> Result<Rect, CheckpointError> {
    let a = items(v, "rect")?;
    if a.len() != 4 {
        return Err(corrupt("rect is not a 4-element array"));
    }
    let mut c = [0i64; 4];
    for (slot, item) in c.iter_mut().zip(a) {
        *slot = codec::as_i64(item).ok_or_else(|| corrupt("rect coordinate is not an integer"))?;
    }
    Ok(Rect::new(Point::new(c[0], c[1]), Point::new(c[2], c[3])))
}

fn span_pair_value(spans: Option<(Span, Span)>) -> Value {
    match spans {
        None => Value::Null,
        Some((xs, ys)) => Value::Array(vec![
            Value::Int(xs.lo()),
            Value::Int(xs.hi()),
            Value::Int(ys.lo()),
            Value::Int(ys.hi()),
        ]),
    }
}

fn span_pair_from(v: &Value) -> Result<Option<(Span, Span)>, CheckpointError> {
    if matches!(v, Value::Null) {
        return Ok(None);
    }
    let a = items(v, "net_span")?;
    if a.len() != 4 {
        return Err(corrupt("net_span is not a 4-element array"));
    }
    let mut c = [0i64; 4];
    for (slot, item) in c.iter_mut().zip(a) {
        *slot = codec::as_i64(item).ok_or_else(|| corrupt("net_span bound is not an integer"))?;
    }
    Ok(Some((Span::new(c[0], c[1]), Span::new(c[2], c[3]))))
}

fn orientation_value(o: Orientation) -> Value {
    let idx = Orientation::ALL
        .iter()
        .position(|&x| x == o)
        .expect("ALL covers every orientation");
    Value::UInt(idx as u64)
}

fn orientation_from(v: &Value) -> Result<Orientation, CheckpointError> {
    let idx = codec::as_u64(v).ok_or_else(|| corrupt("orientation is not an index"))? as usize;
    Orientation::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| corrupt("orientation index out of range"))
}

fn side_value(s: Side) -> Value {
    let idx = Side::ALL
        .iter()
        .position(|&x| x == s)
        .expect("ALL covers every side");
    Value::UInt(idx as u64)
}

fn side_from(v: &Value) -> Result<Side, CheckpointError> {
    let idx = codec::as_u64(v).ok_or_else(|| corrupt("side is not an index"))? as usize;
    Side::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| corrupt("side index out of range"))
}

fn tileset_value(t: &TileSet) -> Value {
    Value::Array(t.tiles().iter().map(|&r| rect_value(r)).collect())
}

fn tileset_from(v: &Value) -> Result<TileSet, CheckpointError> {
    let rects = items(v, "shape")?
        .iter()
        .map(rect_from)
        .collect::<Result<Vec<_>, _>>()?;
    TileSet::new(rects).map_err(|e| CheckpointError::Corrupt(format!("invalid tile set: {e:?}")))
}

fn expansions_value(e: (i64, i64, i64, i64)) -> Value {
    Value::Array(vec![
        Value::Int(e.0),
        Value::Int(e.1),
        Value::Int(e.2),
        Value::Int(e.3),
    ])
}

fn expansions_from(v: &Value) -> Result<(i64, i64, i64, i64), CheckpointError> {
    let a = items(v, "expansions")?;
    if a.len() != 4 {
        return Err(corrupt("expansions is not a 4-element array"));
    }
    let mut c = [0i64; 4];
    for (slot, item) in c.iter_mut().zip(a) {
        *slot = codec::as_i64(item).ok_or_else(|| corrupt("expansion is not an integer"))?;
    }
    Ok((c[0], c[1], c[2], c[3]))
}

// --- pin sites -----------------------------------------------------------

fn site_ref_value(s: SiteRef) -> Value {
    Value::Array(vec![side_value(s.side), Value::UInt(s.slot as u64)])
}

fn site_ref_from(v: &Value) -> Result<SiteRef, CheckpointError> {
    let a = items(v, "site")?;
    match a {
        [side, slot] => Ok(SiteRef {
            side: side_from(side)?,
            slot: codec::as_u64(slot).ok_or_else(|| corrupt("site slot is not an integer"))? as u32,
        }),
        _ => Err(corrupt("site is not a 2-element array")),
    }
}

fn u32s_value(xs: &[u32]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::UInt(x as u64)).collect())
}

fn u32s_from(v: &Value, what: &str) -> Result<Vec<u32>, CheckpointError> {
    items(v, what)?
        .iter()
        .map(|x| {
            codec::as_u64(x)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| CheckpointError::Corrupt(format!("`{what}` holds a non-u32")))
        })
        .collect()
}

fn site_layout_value(l: &SiteLayout) -> Value {
    codec::object(vec![
        ("spe", Value::UInt(l.sites_per_edge as u64)),
        ("w", Value::Int(l.w)),
        ("h", Value::Int(l.h)),
        ("cap", u32s_value(&l.cap)),
        (
            "occ",
            Value::Array(l.occ.iter().map(|side| u32s_value(side)).collect()),
        ),
        ("kappa", codec::f64_bits(l.kappa)),
    ])
}

fn site_layout_from(v: &Value) -> Result<SiteLayout, CheckpointError> {
    let cap = u32s_from(field(v, "cap")?, "cap")?;
    if cap.len() != 4 {
        return Err(corrupt("site layout `cap` is not 4 sides"));
    }
    let occ_items = array_field(v, "occ")?;
    if occ_items.len() != 4 {
        return Err(corrupt("site layout `occ` is not 4 sides"));
    }
    let mut occ: [Vec<u32>; 4] = Default::default();
    for (slot, item) in occ.iter_mut().zip(occ_items) {
        *slot = u32s_from(item, "occ")?;
    }
    Ok(SiteLayout {
        sites_per_edge: u64_field(v, "spe")? as u32,
        w: i64_field(v, "w")?,
        h: i64_field(v, "h")?,
        cap: [cap[0], cap[1], cap[2], cap[3]],
        occ,
        kappa: f64_field(v, "kappa")?,
    })
}

use twmc_resume::codec::field;

// --- cell placements and snapshots ---------------------------------------

fn cell_place_value(c: &CellPlace) -> Value {
    codec::object(vec![
        ("pos", point_value(c.pos)),
        ("o", orientation_value(c.orientation)),
        ("inst", Value::UInt(c.instance as u64)),
        ("aspect", codec::f64_bits(c.aspect)),
        (
            "dims",
            Value::Array(vec![Value::Int(c.dims.0), Value::Int(c.dims.1)]),
        ),
        ("shape", tileset_value(&c.shape)),
        ("exp", expansions_value(c.expansions)),
        (
            "sites",
            match &c.sites {
                None => Value::Null,
                Some(l) => site_layout_value(l),
            },
        ),
    ])
}

fn cell_place_from(v: &Value) -> Result<CellPlace, CheckpointError> {
    let dims = items(field(v, "dims")?, "dims")?;
    let dims = match dims {
        [w, h] => (
            codec::as_i64(w).ok_or_else(|| corrupt("dims width is not an integer"))?,
            codec::as_i64(h).ok_or_else(|| corrupt("dims height is not an integer"))?,
        ),
        _ => return Err(corrupt("dims is not a 2-element array")),
    };
    Ok(CellPlace {
        pos: point_from(field(v, "pos")?)?,
        orientation: orientation_from(field(v, "o")?)?,
        instance: usize_field(v, "inst")?,
        aspect: f64_field(v, "aspect")?,
        dims,
        shape: tileset_from(field(v, "shape")?)?,
        expansions: expansions_from(field(v, "exp")?)?,
        sites: match field(v, "sites")? {
            Value::Null => None,
            other => Some(site_layout_from(other)?),
        },
    })
}

/// Encodes a [`PlacementSnapshot`] of a state over `nl` as a checkpoint
/// payload fragment.
///
/// The `net_cost` array holds each net's `C₁` contribution, derived from
/// its span. It keeps the format unchanged for older readers; decoding
/// checks its length and drops it.
pub fn snapshot_value(s: &PlacementSnapshot, nl: &Netlist) -> Value {
    codec::object(vec![
        (
            "cells",
            Value::Array(s.cells.iter().map(cell_place_value).collect()),
        ),
        (
            "pin_pos",
            Value::Array(s.pin_pos.iter().map(|&p| point_value(p)).collect()),
        ),
        (
            "pin_site",
            Value::Array(
                s.pin_site
                    .iter()
                    .map(|site| match site {
                        None => Value::Null,
                        Some(r) => site_ref_value(*r),
                    })
                    .collect(),
            ),
        ),
        (
            "net_cost",
            Value::Array(
                nl.nets()
                    .iter()
                    .zip(&s.net_span)
                    .map(|(net, &spans)| {
                        codec::f64_bits(net_cost((net.weight_h, net.weight_v), spans))
                    })
                    .collect(),
            ),
        ),
        (
            "net_span",
            Value::Array(s.net_span.iter().map(|&sp| span_pair_value(sp)).collect()),
        ),
        ("c1", codec::f64_bits(s.total_c1)),
        ("overlap", Value::Int(s.total_overlap)),
        ("c3", codec::f64_bits(s.total_c3)),
        ("p2", codec::f64_bits(s.p2)),
        (
            "static_exp",
            match &s.static_expansions {
                None => Value::Null,
                Some(es) => Value::Array(es.iter().map(|&e| expansions_value(e)).collect()),
            },
        ),
    ])
}

/// Decodes a [`snapshot_value`] payload fragment.
pub fn snapshot_from(v: &Value) -> Result<PlacementSnapshot, CheckpointError> {
    let cells = array_field(v, "cells")?
        .iter()
        .map(cell_place_from)
        .collect::<Result<Vec<_>, _>>()?;
    let pin_pos = array_field(v, "pin_pos")?
        .iter()
        .map(point_from)
        .collect::<Result<Vec<_>, _>>()?;
    let pin_site = array_field(v, "pin_site")?
        .iter()
        .map(|item| match item {
            Value::Null => Ok(None),
            other => site_ref_from(other).map(Some),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let net_span = array_field(v, "net_span")?
        .iter()
        .map(span_pair_from)
        .collect::<Result<Vec<_>, _>>()?;
    let costs = array_field(v, "net_cost")?;
    if costs.len() != net_span.len() {
        return Err(corrupt("net_cost and net_span differ in length"));
    }
    if costs.iter().any(|item| codec::bits_f64(item).is_none()) {
        return Err(corrupt("net_cost holds a non-float"));
    }
    let static_expansions = match field(v, "static_exp")? {
        Value::Null => None,
        other => Some(
            items(other, "static_exp")?
                .iter()
                .map(expansions_from)
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    Ok(PlacementSnapshot {
        cells,
        pin_pos,
        pin_site,
        net_span,
        total_c1: f64_field(v, "c1")?,
        total_overlap: i64_field(v, "overlap")?,
        total_c3: f64_field(v, "c3")?,
        p2: f64_field(v, "p2")?,
        static_expansions,
    })
}

// --- annealing loop position ---------------------------------------------

fn temp_record_value(r: &TempRecord) -> Value {
    codec::object(vec![
        ("t", codec::f64_bits(r.temperature)),
        ("att", Value::UInt(r.attempts as u64)),
        ("acc", Value::UInt(r.accepts as u64)),
        ("cost", codec::f64_bits(r.cost)),
        ("teil", codec::f64_bits(r.teil)),
        ("ov", Value::Int(r.overlap)),
        ("wx", codec::f64_bits(r.window_x)),
    ])
}

fn temp_record_from(v: &Value) -> Result<TempRecord, CheckpointError> {
    Ok(TempRecord {
        temperature: f64_field(v, "t")?,
        attempts: usize_field(v, "att")?,
        accepts: usize_field(v, "acc")?,
        cost: f64_field(v, "cost")?,
        teil: f64_field(v, "teil")?,
        overlap: i64_field(v, "ov")?,
        window_x: f64_field(v, "wx")?,
    })
}

/// Encodes [`MoveStats`] (16 counters, class order fixed).
pub fn move_stats_value(m: &MoveStats) -> Value {
    let MoveStats {
        displacements,
        inverted_displacements,
        orientations,
        interchanges,
        inverted_interchanges,
        pin_moves,
        aspect_moves,
        instance_moves,
    } = m;
    let pairs = [
        displacements,
        inverted_displacements,
        orientations,
        interchanges,
        inverted_interchanges,
        pin_moves,
        aspect_moves,
        instance_moves,
    ];
    Value::Array(
        pairs
            .iter()
            .flat_map(|p| [Value::UInt(p.0 as u64), Value::UInt(p.1 as u64)])
            .collect(),
    )
}

/// Decodes a [`move_stats_value`].
pub fn move_stats_from(v: &Value) -> Result<MoveStats, CheckpointError> {
    let a = items(v, "moves")?;
    if a.len() != 16 {
        return Err(corrupt("move stats is not a 16-element array"));
    }
    let mut c = [0usize; 16];
    for (slot, item) in c.iter_mut().zip(a) {
        *slot = codec::as_u64(item)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| corrupt("move stat is not a counter"))?;
    }
    Ok(MoveStats {
        displacements: (c[0], c[1]),
        inverted_displacements: (c[2], c[3]),
        orientations: (c[4], c[5]),
        interchanges: (c[6], c[7]),
        inverted_interchanges: (c[8], c[9]),
        pin_moves: (c[10], c[11]),
        aspect_moves: (c[12], c[13]),
        instance_moves: (c[14], c[15]),
    })
}

/// Encodes a [`CoolingRun`] loop position.
pub fn cooling_run_value(run: &CoolingRun) -> Value {
    codec::object(vec![
        ("t", codec::f64_bits(run.t)),
        (
            "history",
            Value::Array(run.history.iter().map(temp_record_value).collect()),
        ),
        ("moves", move_stats_value(&run.moves)),
        ("stall", Value::UInt(run.stall as u64)),
        ("last_cost", codec::f64_bits(run.last_cost)),
        ("done", Value::Bool(run.done)),
    ])
}

/// Decodes a [`cooling_run_value`].
pub fn cooling_run_from(v: &Value) -> Result<CoolingRun, CheckpointError> {
    Ok(CoolingRun {
        t: f64_field(v, "t")?,
        history: array_field(v, "history")?
            .iter()
            .map(temp_record_from)
            .collect::<Result<Vec<_>, _>>()?,
        moves: move_stats_from(field(v, "moves")?)?,
        stall: usize_field(v, "stall")?,
        last_cost: f64_field(v, "last_cost")?,
        done: bool_field(v, "done")?,
    })
}

/// Encodes a completed [`Stage1Result`] — the pipeline's stage-2
/// checkpoint stores it next to the winning snapshot so a resumed run
/// can skip stage 1 entirely.
pub fn stage1_result_value(r: &Stage1Result) -> Value {
    codec::object(vec![
        ("teil", codec::f64_bits(r.teil)),
        ("c1", codec::f64_bits(r.c1)),
        ("overlap", Value::Int(r.residual_overlap)),
        ("c3", codec::f64_bits(r.c3)),
        ("chip", rect_value(r.chip)),
        ("t_inf", codec::f64_bits(r.t_infinity)),
        ("s_t", codec::f64_bits(r.s_t)),
        (
            "history",
            Value::Array(r.history.iter().map(temp_record_value).collect()),
        ),
        ("moves", move_stats_value(&r.moves)),
    ])
}

/// Decodes a [`stage1_result_value`].
pub fn stage1_result_from(v: &Value) -> Result<Stage1Result, CheckpointError> {
    Ok(Stage1Result {
        teil: f64_field(v, "teil")?,
        c1: f64_field(v, "c1")?,
        residual_overlap: i64_field(v, "overlap")?,
        c3: f64_field(v, "c3")?,
        chip: rect_from(field(v, "chip")?)?,
        t_infinity: f64_field(v, "t_inf")?,
        s_t: f64_field(v, "s_t")?,
        history: array_field(v, "history")?
            .iter()
            .map(temp_record_from)
            .collect::<Result<Vec<_>, _>>()?,
        moves: move_stats_from(field(v, "moves")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twmc_anneal::CoolingSchedule;
    use twmc_estimator::EstimatorParams;
    use twmc_netlist::{synthesize, SynthParams};
    use twmc_obs::{NullRecorder, RunScope};

    use crate::{MoveSet, PlaceParams, Stage1Context};

    fn circuit() -> twmc_netlist::Netlist {
        synthesize(&SynthParams {
            cells: 8,
            nets: 16,
            pins: 50,
            custom_fraction: 0.5,
            seed: 2,
            avg_cell_dim: 20,
            ..Default::default()
        })
    }

    fn params() -> PlaceParams {
        PlaceParams {
            attempts_per_cell: 6,
            normalization_samples: 6,
            ..Default::default()
        }
    }

    /// Text roundtrip through the full checkpoint envelope — the exact
    /// path a `--resume` takes.
    fn envelope_roundtrip(v: &Value) -> Value {
        twmc_resume::decode(&twmc_resume::encode(v)).unwrap()
    }

    #[test]
    fn snapshot_roundtrips_bit_identically_through_text() {
        let nl = circuit();
        let p = params();
        let ctx = Stage1Context::new(&nl, &p, &EstimatorParams::default());
        let mut rng = StdRng::seed_from_u64(11);
        let mut state = ctx.random_state(&p, &mut rng);
        // Anneal a few steps so expansions/sites/costs are non-trivial.
        let mut run = CoolingRun::new(ctx.t_infinity);
        for _ in 0..3 {
            run.step(
                &mut state,
                &p,
                MoveSet::Full,
                &CoolingSchedule::stage1(),
                &ctx.limiter,
                ctx.s_t,
                None,
                &mut rng,
                &mut NullRecorder,
                RunScope::STAGE1,
                "main",
            );
        }
        let snap = state.snapshot();
        let decoded = snapshot_from(&envelope_roundtrip(&snapshot_value(&snap, &nl))).unwrap();

        // Restoring the decoded snapshot must reproduce the state
        // bit-for-bit: costs, spans, and future evolution.
        let mut restored = ctx.random_state(&p, &mut StdRng::seed_from_u64(0));
        restored.restore(&decoded);
        assert_eq!(restored.cost().to_bits(), state.cost().to_bits());
        assert_eq!(restored.teil().to_bits(), state.teil().to_bits());
        assert_eq!(restored.raw_overlap(), state.raw_overlap());
        assert_eq!(restored.p2().to_bits(), state.p2().to_bits());

        // Continue both from the same RNG: identical trajectories.
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let mut ma = crate::MoveStats::default();
        let mut mb = crate::MoveStats::default();
        for _ in 0..200 {
            crate::generate(
                &mut state,
                &p,
                MoveSet::Full,
                50.0,
                50.0,
                ctx.s_t * 100.0,
                &mut rng_a,
                &mut ma,
            );
            crate::generate(
                &mut restored,
                &p,
                MoveSet::Full,
                50.0,
                50.0,
                ctx.s_t * 100.0,
                &mut rng_b,
                &mut mb,
            );
        }
        assert_eq!(ma, mb);
        assert_eq!(state.cost().to_bits(), restored.cost().to_bits());
    }

    /// The encoded snapshot of a fixed mid-stage-1 state, byte for byte:
    /// checkpoints written before and after a change to the state's
    /// internals must stay interchangeable. The pinned bytes include the
    /// envelope, whose format version is 3.
    #[test]
    fn snapshot_encoding_is_pinned() {
        let nl = circuit();
        let p = params();
        let ctx = Stage1Context::new(&nl, &p, &EstimatorParams::default());
        let mut rng = StdRng::seed_from_u64(23);
        let mut state = ctx.random_state(&p, &mut rng);
        let mut run = CoolingRun::new(ctx.t_infinity);
        for _ in 0..5 {
            run.step(
                &mut state,
                &p,
                MoveSet::Full,
                &CoolingSchedule::stage1(),
                &ctx.limiter,
                ctx.s_t,
                None,
                &mut rng,
                &mut NullRecorder,
                RunScope::STAGE1,
                "main",
            );
        }
        let text = twmc_resume::encode(&snapshot_value(&state.snapshot(), &nl));
        assert_eq!(
            twmc_resume::fnv1a64(text.as_bytes()),
            6_611_810_917_583_366_201
        );
    }

    #[test]
    fn cooling_run_roundtrips() {
        let nl = circuit();
        let p = params();
        let ctx = Stage1Context::new(&nl, &p, &EstimatorParams::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut state = ctx.random_state(&p, &mut rng);
        let mut run = CoolingRun::new(ctx.t_infinity);
        for _ in 0..4 {
            run.step(
                &mut state,
                &p,
                MoveSet::Full,
                &CoolingSchedule::stage1(),
                &ctx.limiter,
                ctx.s_t,
                Some(3),
                &mut rng,
                &mut NullRecorder,
                RunScope::STAGE1,
                "main",
            );
        }
        let decoded = cooling_run_from(&envelope_roundtrip(&cooling_run_value(&run))).unwrap();
        assert_eq!(decoded, run);
        // NaN last_cost (fresh run) survives the trip too.
        let fresh = CoolingRun::new(1.0);
        let back = cooling_run_from(&envelope_roundtrip(&cooling_run_value(&fresh))).unwrap();
        assert!(back.last_cost.is_nan());
        assert_eq!(back.t.to_bits(), fresh.t.to_bits());
    }

    #[test]
    fn decoders_reject_malformed_fragments() {
        assert!(snapshot_from(&Value::Null).is_err());
        assert!(move_stats_from(&Value::Array(vec![Value::UInt(1)])).is_err());
        assert!(cooling_run_from(&codec::object(vec![("t", Value::UInt(0))])).is_err());
        let bad_orient = codec::object(vec![("o", Value::UInt(99))]);
        assert!(cell_place_from(&bad_orient).is_err());
    }
}
