//! Checkpoint codecs for the placement state.
//!
//! Implements [`Codec`] for the mutable placement data — the per-cell
//! decisions, the [`CoolingRun`] loop position with its [`TempRecord`]
//! history and [`MoveStats`] counters, a completed [`Stage1Result`] —
//! and encodes a [`PlacementSnapshot`] into the [`serde::Value`]
//! payload trees `twmc-resume` writes to disk. Floats travel as
//! IEEE-754 bit patterns so a decoded state is *bit-identical* to the
//! captured one; that, plus capturing the RNG stream position
//! separately, is what makes `--resume` continue a run exactly as if
//! it had never stopped.
//!
//! A snapshot has no `Codec` impl: its one decoder, [`snapshot_from`],
//! checks every decision against the netlist, so no caller can restore
//! a snapshot that was not checked.

use serde::Value;
use twmc_netlist::{CellGeometry, Netlist, PinPlacement};
use twmc_resume::codec::{self, corrupt, field, Codec};
use twmc_resume::{codec_struct, CheckpointError};

use crate::state::CellDecision;
use crate::{CoolingRun, MoveStats, PlacementSnapshot, SiteRef, Stage1Result, TempRecord};

/// `[side, slot]`.
impl Codec for SiteRef {
    fn encode(&self) -> Value {
        (self.side, self.slot).encode()
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        let (side, slot) = Codec::decode(v)?;
        Ok(SiteRef { side, slot })
    }
}

codec_struct!(CellDecision {
    pos: "pos",
    orientation: "o",
    instance: "inst",
    aspect: "aspect",
});

/// Encodes a [`PlacementSnapshot`] as a checkpoint payload fragment.
pub fn snapshot_value(s: &PlacementSnapshot) -> Value {
    codec::object(vec![
        ("cells", s.cells.encode()),
        ("pin_site", s.pin_site.encode()),
        ("c1", s.total_c1.encode()),
        ("overlap", s.total_overlap.encode()),
        ("c3", s.total_c3.encode()),
        ("p2", s.p2.encode()),
        ("static_exp", s.static_expansions.encode()),
    ])
}

/// Decodes a [`snapshot_value`] payload fragment of a state over `nl`.
///
/// Checks every decision [`crate::PlacementState::restore`] derives
/// from against the netlist — the cell and pin counts, each macro's
/// instance, each custom cell's aspect, that exactly the sited pins
/// carry a site and each slot exists, the static-expansion count — so
/// a checkpoint that does not fit is a typed error naming the cell or
/// pin, not a panic.
pub fn snapshot_from(v: &Value, nl: &Netlist) -> Result<PlacementSnapshot, CheckpointError> {
    let cells: Vec<CellDecision> = field(v, "cells")?;
    if cells.len() != nl.cells().len() {
        return Err(corrupt(format!(
            "snapshot holds {} cells, the netlist {}",
            cells.len(),
            nl.cells().len()
        )));
    }
    for (cell, d) in nl.cells().iter().zip(&cells) {
        match &cell.geometry {
            CellGeometry::Fixed { instances } if d.instance >= instances.len() => {
                return Err(corrupt(format!(
                    "cell `{}` selects instance {} of {}",
                    cell.name,
                    d.instance,
                    instances.len()
                )));
            }
            CellGeometry::Flexible { .. } if !(d.aspect.is_finite() && d.aspect > 0.0) => {
                return Err(corrupt(format!(
                    "custom cell `{}` has aspect {}",
                    cell.name, d.aspect
                )));
            }
            _ => {}
        }
    }
    let pin_site: Vec<Option<SiteRef>> = field(v, "pin_site")?;
    if pin_site.len() != nl.pins().len() {
        return Err(corrupt(format!(
            "snapshot holds {} pins, the netlist {}",
            pin_site.len(),
            nl.pins().len()
        )));
    }
    for (pin, site) in nl.pins().iter().zip(&pin_site) {
        let cell = &nl.cells()[pin.cell.index()];
        let sited = cell.is_custom() && !matches!(pin.placement, PinPlacement::Fixed(_));
        let defect = match site {
            None if sited => "has no site",
            Some(_) if !sited => "is not sited but carries a site",
            Some(s) if s.slot >= cell.sites_per_edge => "sits on a slot its cell lacks",
            _ => continue,
        };
        return Err(corrupt(format!(
            "pin `{}.{}` {defect}",
            cell.name, pin.name
        )));
    }
    let static_expansions: Option<Vec<(i64, i64, i64, i64)>> = field(v, "static_exp")?;
    if let Some(es) = &static_expansions {
        if es.len() != cells.len() {
            return Err(corrupt(format!(
                "snapshot holds {} static expansions for {} cells",
                es.len(),
                cells.len()
            )));
        }
    }
    Ok(PlacementSnapshot {
        cells,
        pin_site,
        total_c1: field(v, "c1")?,
        total_overlap: field(v, "overlap")?,
        total_c3: field(v, "c3")?,
        p2: field(v, "p2")?,
        static_expansions,
    })
}

codec_struct!(TempRecord {
    temperature: "t",
    attempts: "att",
    accepts: "acc",
    cost: "cost",
    teil: "teil",
    overlap: "ov",
    window_x: "wx",
});

/// One flat array of the 16 counters, in [`MoveStats::classes`] order.
impl Codec for MoveStats {
    fn encode(&self) -> Value {
        let counts = self.classes().map(|(_, (att, acc))| [att, acc]);
        counts.as_flattened().to_vec().encode()
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        let c = <[usize; 16]>::decode(v)?;
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
}

codec_struct!(CoolingRun {
    t: "t",
    history: "history",
    moves: "moves",
    stall: "stall",
    last_cost: "last_cost",
    done: "done",
});

// A completed stage 1: the pipeline's stage-2 checkpoint stores it next
// to the winning snapshot so a resumed run can skip stage 1 entirely.
codec_struct!(Stage1Result {
    teil: "teil",
    c1: "c1",
    residual_overlap: "overlap",
    c3: "c3",
    chip: "chip",
    t_infinity: "t_inf",
    s_t: "s_t",
    history: "history",
    moves: "moves",
});

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twmc_anneal::CoolingSchedule;
    use twmc_estimator::EstimatorParams;
    use twmc_netlist::{synthesize, SynthParams};
    use twmc_obs::{NullRecorder, RunScope};

    use twmc_geom::{Orientation, Side};

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
        let decoded = snapshot_from(&envelope_roundtrip(&snapshot_value(&snap)), &nl).unwrap();

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

    /// FNV-1a of a snapshot's decisions and accumulated totals: per cell
    /// its position, orientation index, instance and aspect bits, per
    /// pin its site, then the bits of `C₁`, the overlap, `C₃` and `p₂`.
    fn decision_digest(s: &PlacementSnapshot) -> u64 {
        let mut text = String::new();
        for c in &s.cells {
            let o = Orientation::ALL.iter().position(|&x| x == c.orientation);
            let (x, y, inst, aspect) = (c.pos.x, c.pos.y, c.instance, c.aspect.to_bits());
            text += &format!("{x} {y} {} {inst} {aspect};", o.unwrap());
        }
        text += "|";
        for site in &s.pin_site {
            match site {
                None => text += "-,",
                Some(r) => {
                    let side = Side::ALL.iter().position(|&x| x == r.side).unwrap();
                    text += &format!("{side}:{},", r.slot);
                }
            }
        }
        text += &format!(
            "|{} {} {} {}",
            s.total_c1.to_bits(),
            s.total_overlap,
            s.total_c3.to_bits(),
            s.p2.to_bits()
        );
        twmc_resume::fnv1a64(text.as_bytes())
    }

    /// The encoded snapshot of a fixed mid-stage-1 state, byte for byte,
    /// and what it decodes to. The pinned bytes include the envelope,
    /// whose format version is 4; the decisions and totals decoded from
    /// them hash to the digest the same state's decisions had before
    /// format 4 dropped the derived data.
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
        let text = twmc_resume::encode(&snapshot_value(&state.snapshot()));
        assert_eq!(
            twmc_resume::fnv1a64(text.as_bytes()),
            4_942_141_058_259_192_427
        );
        let decoded = snapshot_from(&twmc_resume::decode(&text).unwrap(), &nl).unwrap();
        assert_eq!(decision_digest(&decoded), 7_919_933_625_265_209_193);
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
        let decoded = CoolingRun::decode(&envelope_roundtrip(&run.encode())).unwrap();
        assert_eq!(decoded, run);
        // NaN last_cost (fresh run) survives the trip too.
        let fresh = CoolingRun::new(1.0);
        let back = CoolingRun::decode(&envelope_roundtrip(&fresh.encode())).unwrap();
        assert!(back.last_cost.is_nan());
        assert_eq!(back.t.to_bits(), fresh.t.to_bits());
    }

    #[test]
    fn decoders_reject_malformed_fragments() {
        assert!(snapshot_from(&Value::Null, &circuit()).is_err());
        assert!(MoveStats::decode(&Value::Array(vec![Value::UInt(1)])).is_err());
        assert!(CoolingRun::decode(&codec::object(vec![("t", Value::UInt(0))])).is_err());
        let bad_orient = codec::object(vec![("o", Value::UInt(99))]);
        assert!(CellDecision::decode(&bad_orient).is_err());
    }
}
