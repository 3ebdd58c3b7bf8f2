//! Checkpoint payload codecs for the orchestrator.
//!
//! A stage-1 checkpoint captures everything the resumed process cannot
//! rederive: each replica's placement snapshot (the annealer's
//! decisions and accumulated cost totals), RNG stream position,
//! cooling-loop position, and accumulated counters, plus the
//! orchestrator's own swap stream and a config digest. The digest guards
//! against resuming under a different configuration — everything in it
//! changes the trajectory, so a mismatch is a hard
//! [`CheckpointError::ConfigMismatch`]. Worker-thread count is
//! deliberately *not* in the digest: results are thread-count
//! independent, so resuming on different hardware is legal.

use rand::rngs::StdRng;
use serde::Value;
use twmc_netlist::Netlist;
use twmc_place::persist;
use twmc_place::{PlaceParams, PlacementSnapshot};
use twmc_resume::codec::{
    self, array_field, f64_field, field, str_field, u64_field, u64x4, u64x4_field, usize_field,
};
use twmc_resume::CheckpointError;

use crate::multistart::Replica;
use crate::{PairSwap, ParallelParams, ReplicaFailure, ReplicaReport, SwapReport};

fn corrupt(msg: &str) -> CheckpointError {
    CheckpointError::Corrupt(msg.to_owned())
}

/// Optional failure note: `Null` while healthy.
fn failed_value(failed: &Option<String>) -> Value {
    match failed {
        None => Value::Null,
        Some(e) => Value::Str(e.clone()),
    }
}

fn failed_from(v: &Value) -> Result<Option<String>, CheckpointError> {
    match v {
        Value::Null => Ok(None),
        Value::Str(s) => Ok(Some(s.clone())),
        _ => Err(corrupt("`failed` is neither null nor a string")),
    }
}

fn f64s_value(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| codec::f64_bits(x)).collect())
}

pub(crate) fn f64s_from(v: &Value, what: &str) -> Result<Vec<f64>, CheckpointError> {
    codec::items(v, what)?
        .iter()
        .map(|x| {
            codec::bits_f64(x)
                .ok_or_else(|| CheckpointError::Corrupt(format!("`{what}` holds a non-float")))
        })
        .collect()
}

// --- config digest -------------------------------------------------------

/// Builds the config digest stored alongside every phase payload —
/// master seed, orchestration shape, move budget, and circuit size.
/// Worker-thread count is deliberately excluded (results are
/// thread-count independent, so resuming on different hardware is
/// legal). The pipeline reuses this digest for its own stage-2 phase.
pub fn config_value(
    master_seed: u64,
    params: &ParallelParams,
    attempts_per_cell: usize,
    circuit: (usize, usize, usize),
) -> Value {
    codec::object(vec![
        ("master_seed", Value::UInt(master_seed)),
        ("replicas", Value::UInt(params.replicas as u64)),
        ("strategy", Value::Str(params.strategy.to_string())),
        ("swap_interval", Value::UInt(params.swap_interval as u64)),
        ("attempts_per_cell", Value::UInt(attempts_per_cell as u64)),
        ("cells", Value::UInt(circuit.0 as u64)),
        ("nets", Value::UInt(circuit.1 as u64)),
        ("pins", Value::UInt(circuit.2 as u64)),
    ])
}

/// [`config_value`] of a run of `place` on `nl`.
pub(crate) fn run_config(
    master_seed: u64,
    params: &ParallelParams,
    place: &PlaceParams,
    nl: &Netlist,
) -> Value {
    let stats = nl.stats();
    config_value(
        master_seed,
        params,
        place.attempts_per_cell,
        (stats.cells, stats.nets, stats.pins),
    )
}

/// Verifies a checkpoint's config digest against the resuming run's —
/// any difference is a hard [`CheckpointError::ConfigMismatch`] naming
/// the offending key.
pub fn check_config(
    payload: &Value,
    master_seed: u64,
    params: &ParallelParams,
    attempts_per_cell: usize,
    circuit: (usize, usize, usize),
) -> Result<(), CheckpointError> {
    let saved = field(payload, "config")?;
    let want = config_value(master_seed, params, attempts_per_cell, circuit);
    for (key, expect) in codec::entries(&want, "config")? {
        let got = field(saved, key)?;
        // Parsed payloads carry non-negative integers as `Int`, freshly
        // built digests as `UInt` — compare the numeric value, not the
        // variant.
        let same = match (codec::as_u64(got), codec::as_u64(expect)) {
            (Some(a), Some(b)) => a == b,
            _ => got == expect,
        };
        if !same {
            return Err(CheckpointError::ConfigMismatch(format!(
                "checkpoint `{key}` does not match this run's configuration"
            )));
        }
    }
    Ok(())
}

// --- per-replica state ---------------------------------------------------

/// One replica's (or tempering rung's) full state: its RNG stream,
/// cooling run, configuration and index counters.
pub(crate) fn replica_value(r: &Replica<'_>) -> Value {
    codec::object(vec![
        ("failed", failed_value(&r.failed)),
        ("rng", u64x4(r.rng.state())),
        ("run", persist::cooling_run_value(&r.run)),
        ("snap", persist::snapshot_value(&r.state.snapshot())),
        ("rebuilds", Value::UInt(r.state.index_rebuilds())),
        ("updates", Value::UInt(r.state.index_updates())),
    ])
}

/// Restores a freshly built replica from its [`replica_value`].
pub(crate) fn restore_replica(r: &mut Replica<'_>, v: &Value) -> Result<(), CheckpointError> {
    let snap = persist::snapshot_from(field(v, "snap")?, r.state.netlist())?;
    r.state.restore(&snap);
    r.state
        .force_index_counters(u64_field(v, "rebuilds")?, u64_field(v, "updates")?);
    r.rng = StdRng::from_state(u64x4_field(v, "rng")?);
    r.run = persist::cooling_run_from(field(v, "run")?)?;
    r.failed = failed_from(field(v, "failed")?)?;
    Ok(())
}

/// Pre-quench elite configurations: each live rung's ladder-end
/// snapshot and TEIL (`Null` for rungs already dead at quench start).
/// They travel in the quench payload so the elitist rollback after a
/// resumed quench compares against the same baselines the
/// uninterrupted run would have used.
pub(crate) fn elites_value(elites: &[Option<(PlacementSnapshot, f64)>]) -> Value {
    Value::Array(
        elites
            .iter()
            .map(|e| match e {
                None => Value::Null,
                Some((snap, teil)) => codec::object(vec![
                    ("snap", persist::snapshot_value(snap)),
                    ("teil", codec::f64_bits(*teil)),
                ]),
            })
            .collect(),
    )
}

pub(crate) fn elites_from(
    v: &Value,
    nl: &Netlist,
) -> Result<Vec<Option<(PlacementSnapshot, f64)>>, CheckpointError> {
    codec::items(v, "elites")?
        .iter()
        .map(|e| match e {
            Value::Null => Ok(None),
            other => Ok(Some((
                persist::snapshot_from(field(other, "snap")?, nl)?,
                f64_field(other, "teil")?,
            ))),
        })
        .collect()
}

// --- reports and failures ------------------------------------------------

pub(crate) fn report_value(r: &ReplicaReport) -> Value {
    codec::object(vec![
        ("replica", Value::UInt(r.replica as u64)),
        ("seed", Value::UInt(r.seed)),
        (
            "rung_t",
            match r.rung_temperature {
                None => Value::Null,
                Some(t) => codec::f64_bits(t),
            },
        ),
        ("teil", codec::f64_bits(r.teil)),
        ("cost", codec::f64_bits(r.cost)),
        ("attempts", Value::UInt(r.attempts as u64)),
        ("accepts", Value::UInt(r.accepts as u64)),
        ("traj", f64s_value(&r.teil_trajectory)),
    ])
}

pub(crate) fn report_from(v: &Value) -> Result<ReplicaReport, CheckpointError> {
    Ok(ReplicaReport {
        replica: usize_field(v, "replica")?,
        seed: u64_field(v, "seed")?,
        rung_temperature: match field(v, "rung_t")? {
            Value::Null => None,
            other => {
                Some(codec::bits_f64(other).ok_or_else(|| corrupt("`rung_t` is not a float"))?)
            }
        },
        teil: f64_field(v, "teil")?,
        cost: f64_field(v, "cost")?,
        attempts: usize_field(v, "attempts")?,
        accepts: usize_field(v, "accepts")?,
        teil_trajectory: f64s_from(field(v, "traj")?, "traj")?,
    })
}

pub(crate) fn failures_value(fs: &[ReplicaFailure]) -> Value {
    Value::Array(
        fs.iter()
            .map(|f| {
                codec::object(vec![
                    ("replica", Value::UInt(f.replica as u64)),
                    ("round", Value::UInt(f.round)),
                    ("error", Value::Str(f.error.clone())),
                ])
            })
            .collect(),
    )
}

pub(crate) fn failures_from(v: &Value) -> Result<Vec<ReplicaFailure>, CheckpointError> {
    codec::items(v, "failed")?
        .iter()
        .map(|f| {
            Ok(ReplicaFailure {
                replica: usize_field(f, "replica")?,
                round: u64_field(f, "round")?,
                error: str_field(f, "error")?.to_owned(),
            })
        })
        .collect()
}

pub(crate) fn swaps_value(s: &SwapReport) -> Value {
    codec::object(vec![
        ("attempts", Value::UInt(s.attempts as u64)),
        ("accepts", Value::UInt(s.accepts as u64)),
        (
            "pairs",
            Value::Array(
                s.pairs
                    .iter()
                    .map(|p| {
                        codec::object(vec![
                            ("attempts", Value::UInt(p.attempts as u64)),
                            ("accepts", Value::UInt(p.accepts as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn swaps_from(v: &Value) -> Result<SwapReport, CheckpointError> {
    Ok(SwapReport {
        attempts: usize_field(v, "attempts")?,
        accepts: usize_field(v, "accepts")?,
        pairs: codec::items(field(v, "pairs")?, "pairs")?
            .iter()
            .map(|p| {
                Ok(PairSwap {
                    attempts: usize_field(p, "attempts")?,
                    accepts: usize_field(p, "accepts")?,
                })
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?,
    })
}

/// Serializes a full [`ParallelReport`](crate::ParallelReport) — the
/// pipeline's stage-2 checkpoint carries it so a resumed run that skips
/// stage 1 still reports the original orchestration.
pub fn parallel_report_value(r: &crate::ParallelReport) -> Value {
    codec::object(vec![
        ("strategy", Value::Str(r.strategy.to_string())),
        ("replicas", Value::UInt(r.replicas as u64)),
        ("threads", Value::UInt(r.threads as u64)),
        ("best", Value::UInt(r.best_replica as u64)),
        (
            "reports",
            Value::Array(r.replica_reports.iter().map(report_value).collect()),
        ),
        ("swaps", swaps_value(&r.swaps)),
        ("failed", failures_value(&r.failed)),
    ])
}

/// Decodes a [`parallel_report_value`].
pub fn parallel_report_from(v: &Value) -> Result<crate::ParallelReport, CheckpointError> {
    let strategy = match str_field(v, "strategy")? {
        "multistart" => crate::Strategy::MultiStart,
        "tempering" => crate::Strategy::Tempering,
        other => {
            return Err(CheckpointError::Corrupt(format!(
                "unknown strategy `{other}`"
            )))
        }
    };
    Ok(crate::ParallelReport {
        strategy,
        replicas: usize_field(v, "replicas")?,
        threads: usize_field(v, "threads")?,
        best_replica: usize_field(v, "best")?,
        replica_reports: array_field(v, "reports")?
            .iter()
            .map(report_from)
            .collect::<Result<Vec<_>, _>>()?,
        swaps: swaps_from(field(v, "swaps")?)?,
        failed: failures_from(field(v, "failed")?)?,
    })
}

// --- phase envelopes -----------------------------------------------------

/// Wraps a phase body with the phase tag and config digest.
pub(crate) fn phase_payload(phase: &str, config: Value, mut body: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![("phase", Value::Str(phase.to_owned())), ("config", config)];
    fields.append(&mut body);
    codec::object(fields)
}

/// The phase tag of a decoded payload.
pub(crate) fn payload_phase(payload: &Value) -> Result<String, CheckpointError> {
    Ok(str_field(payload, "phase")?.to_owned())
}

/// The ladder-temperature (and gap-ratio) vector codec: values
/// roundtrip through f64-as-bits exactly.
pub fn ladder_temps_value(temps: &[f64]) -> Value {
    f64s_value(temps)
}

/// Decodes [`ladder_temps_value`].
pub fn ladder_temps_from(v: &Value) -> Result<Vec<f64>, CheckpointError> {
    f64s_from(v, "temps")
}
