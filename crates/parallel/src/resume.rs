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
use twmc_resume::codec::{self, corrupt, field, get, Codec};
use twmc_resume::{codec_struct, CheckpointError};

use crate::multistart::Replica;
use crate::{
    PairSwap, ParallelParams, ParallelReport, ReplicaFailure, ReplicaReport, Strategy, SwapReport,
};

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
        ("master_seed", master_seed.encode()),
        ("replicas", params.replicas.encode()),
        ("strategy", params.strategy.encode()),
        ("swap_interval", params.swap_interval.encode()),
        ("attempts_per_cell", attempts_per_cell.encode()),
        ("cells", circuit.0.encode()),
        ("nets", circuit.1.encode()),
        ("pins", circuit.2.encode()),
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
    let saved = get(payload, "config")?;
    let Value::Object(want) = config_value(master_seed, params, attempts_per_cell, circuit) else {
        unreachable!("the digest is an object");
    };
    for (key, expect) in &want {
        let got = get(saved, key)?;
        // Parsed payloads carry non-negative integers as `Int`, freshly
        // built digests as `UInt` — compare the numeric value, not the
        // variant.
        let same = match (u64::decode(got), u64::decode(expect)) {
            (Ok(a), Ok(b)) => a == b,
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
        ("failed", r.failed.encode()),
        ("rng", r.rng.state().encode()),
        ("run", r.run.encode()),
        ("snap", persist::snapshot_value(&r.state.snapshot())),
        ("rebuilds", r.state.index_rebuilds().encode()),
        ("updates", r.state.index_updates().encode()),
    ])
}

/// Restores a freshly built replica from its [`replica_value`].
pub(crate) fn restore_replica(r: &mut Replica<'_>, v: &Value) -> Result<(), CheckpointError> {
    let snap = persist::snapshot_from(get(v, "snap")?, r.state.netlist())?;
    r.state.restore(&snap);
    r.state
        .force_index_counters(field(v, "rebuilds")?, field(v, "updates")?);
    r.rng = StdRng::from_state(field(v, "rng")?);
    r.run = field(v, "run")?;
    r.failed = field(v, "failed")?;
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
                    ("teil", teil.encode()),
                ]),
            })
            .collect(),
    )
}

pub(crate) fn elites_from(
    v: &Value,
    nl: &Netlist,
) -> Result<Vec<Option<(PlacementSnapshot, f64)>>, CheckpointError> {
    let Value::Array(items) = v else {
        return Err(corrupt("`elites` is not an array"));
    };
    items
        .iter()
        .map(|e| match e {
            Value::Null => Ok(None),
            other => Ok(Some((
                persist::snapshot_from(get(other, "snap")?, nl)?,
                field(other, "teil")?,
            ))),
        })
        .collect()
}

// --- reports and failures ------------------------------------------------

codec_struct!(ReplicaReport {
    replica: "replica",
    seed: "seed",
    rung_temperature: "rung_t",
    teil: "teil",
    cost: "cost",
    attempts: "attempts",
    accepts: "accepts",
    teil_trajectory: "traj",
});

codec_struct!(ReplicaFailure {
    replica: "replica",
    round: "round",
    error: "error",
});

codec_struct!(PairSwap {
    attempts: "attempts",
    accepts: "accepts",
});

codec_struct!(SwapReport {
    attempts: "attempts",
    accepts: "accepts",
    pairs: "pairs",
});

/// Its name, as `Display` writes it.
impl Codec for Strategy {
    fn encode(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn decode(v: &Value) -> Result<Self, CheckpointError> {
        match String::decode(v)?.as_str() {
            "multistart" => Ok(Strategy::MultiStart),
            "tempering" => Ok(Strategy::Tempering),
            other => Err(corrupt(format!("unknown strategy `{other}`"))),
        }
    }
}

// The pipeline's stage-2 checkpoint carries the report, so a resumed
// run that skips stage 1 still reports the original orchestration.
codec_struct!(ParallelReport {
    strategy: "strategy",
    replicas: "replicas",
    threads: "threads",
    best_replica: "best",
    replica_reports: "reports",
    swaps: "swaps",
    failed: "failed",
});
