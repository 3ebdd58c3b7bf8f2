//! Deterministic synthetic telemetry streams for tests and fixtures.
//!
//! [`synth_stream`] writes a JSONL stream that follows the paper's
//! control laws exactly — Table-1 cooling from `T_∞ = S_T·10^5`, the
//! eq. 12 window decay, a decaying acceptance rate, a shrinking cost,
//! an r = 10 move mix, and clean `route_iter` executions — so the
//! health checks pass on it by construction. [`SynthSpec`] knobs bend
//! individual laws to fabricate unhealthy runs (a non-Table-1 cooling
//! constant, an overflow-rule violation) without invalidating the
//! stream itself: everything still reads through `parse_stream`.
//!
//! Everything here is pure arithmetic on the spec — no RNG, no clock —
//! so a given spec always produces byte-identical output.

use std::fmt::Write as _;

use twmc_anneal::{CoolingSchedule, MIN_WINDOW_SPAN, REF_T_INFINITY};

/// Parameters of a synthetic run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Temperature scale factor `S_T`.
    pub s_t: f64,
    /// Full window span `W^∞` at `T_∞`.
    pub w_inf: f64,
    /// Range-limiter exponent ρ.
    pub rho: f64,
    /// Move attempts per temperature step.
    pub attempts: u64,
    /// Starting cost (the trajectory shrinks from here).
    pub cost0: f64,
    /// Replace the Table-1 schedule with a constant cooling ratio —
    /// still a valid (monotone) stream, but not the paper's schedule.
    pub constant_alpha: Option<f64>,
    /// Emit one `route_iter` whose selected overflow exceeds its
    /// shortest-route overflow (impossible for the real phase-2 rule).
    pub route_overflow_violation: bool,
    /// Leave residual overflow and unrouted nets in the final routing.
    pub dirty_final_route: bool,
}

impl Default for SynthSpec {
    fn default() -> Self {
        SynthSpec {
            s_t: 1.0,
            w_inf: 2000.0,
            rho: 4.0,
            attempts: 1100,
            cost0: 1.0e6,
            constant_alpha: None,
            route_overflow_violation: false,
            dirty_final_route: false,
        }
    }
}

/// A healthy-by-construction spec bent into a pathological cooling
/// schedule: the stream validates, but `twmc report` must flag it.
pub fn pathological_stream() -> String {
    synth_stream(&SynthSpec {
        constant_alpha: Some(0.95),
        ..SynthSpec::default()
    })
}

/// Generates the JSONL text of one synthetic run.
pub fn synth_stream(spec: &SynthSpec) -> String {
    let mut out = String::new();
    let t_inf = spec.s_t * REF_T_INFINITY;
    let schedule = CoolingSchedule::stage1();
    let lambda = spec.rho.powf(t_inf.log10());

    out.push_str(
        "{\"kind\":\"run_start\",\"seed\":42,\"cells\":20,\"nets\":60,\"pins\":240,\
         \"replicas\":1,\"strategy\":\"single\"}\n",
    );

    let mut t = t_inf;
    let mut step = 0u64;
    let mut final_teil = 0.0;
    while t > spec.s_t && step < 500 {
        // Acceptance decays with T; cost tracks it downward (both are
        // smooth stand-ins for the real feedback loops).
        let rate = (t / t_inf).powf(0.15).clamp(0.02, 1.0);
        let accepts = (rate * spec.attempts as f64) as u64;
        let cost = spec.cost0 * (0.2 + 0.8 * rate);
        let window = (spec.w_inf * spec.rho.powf(t.log10()) / lambda).max(MIN_WINDOW_SPAN);
        let (c1, p2c2, c3) = (0.80 * cost, 0.15 * cost, 0.05 * cost);
        final_teil = c1;
        // The r = 10 displacement/interchange mix of Fig. 3.
        let disp = spec.attempts * 10 / 11;
        let inter = spec.attempts - disp;
        let _ = writeln!(
            out,
            "{{\"kind\":\"place_temp\",\"phase\":\"stage1\",\"iteration\":0,\"replica\":-1,\
             \"step\":{step},\"temperature\":{t},\"s_t\":{},\"window_x\":{window},\
             \"window_y\":{window},\"inner\":{att},\"attempts\":{att},\"accepts\":{accepts},\
             \"cost\":{{\"total\":{cost},\"c1\":{c1},\"overlap\":0,\"overlap_penalty\":{p2c2},\
             \"c3\":{c3}}},\"teil\":{c1},\"index_rebuilds\":0,\"index_updates\":{accepts},\
             \"classes\":[{{\"class\":\"displacements\",\"attempts\":{disp},\
             \"accepts\":{da}}},{{\"class\":\"interchanges\",\"attempts\":{inter},\
             \"accepts\":{ia}}}]}}",
            spec.s_t,
            att = spec.attempts,
            da = (rate * disp as f64) as u64,
            ia = (rate * inter as f64 * 0.5) as u64,
        );
        t = match spec.constant_alpha {
            Some(alpha) => t * alpha,
            None => schedule.next(t, spec.s_t),
        };
        step += 1;
    }

    // Stage-2 routing executions followed by the closing route.
    for k in 0..3i64 {
        let start = 6 - 2 * k;
        let (ovf_start, ovf) = if spec.route_overflow_violation && k == 1 {
            (0, 3)
        } else {
            (start, 0)
        };
        let _ = writeln!(
            out,
            "{{\"kind\":\"route_iter\",\"phase\":\"stage2\",\"iteration\":{k},\"nets\":60,\
             \"unrouted\":0,\"alts_total\":300,\"alts_max\":8,\"overflow_start\":{ovf_start},\
             \"overflow\":{ovf},\"total_length\":{len},\"attempts\":120,\"reassignments\":{re},\
             \"usage_total\":240,\"util_hist\":[10,30,12,8,0]}}",
            len = 5000 - 200 * k,
            re = 30 - 5 * k,
        );
    }
    let (f_ovf, f_unrouted, f_overfull) = if spec.dirty_final_route {
        (4, 2, 3)
    } else {
        (0, 0, 0)
    };
    let _ = writeln!(
        out,
        "{{\"kind\":\"route_iter\",\"phase\":\"final\",\"iteration\":3,\"nets\":60,\
         \"unrouted\":{f_unrouted},\"alts_total\":300,\"alts_max\":8,\"overflow_start\":2,\
         \"overflow\":{f_ovf},\"total_length\":4400,\"attempts\":120,\"reassignments\":12,\
         \"usage_total\":236,\"util_hist\":[12,32,10,6,{f_overfull}]}}",
    );
    let _ = writeln!(
        out,
        "{{\"kind\":\"stage_span\",\"stage\":\"stage1\",\"iteration\":0,\"wall_us\":1500000}}"
    );
    let _ = writeln!(
        out,
        "{{\"kind\":\"run_end\",\"teil\":{final_teil},\"chip_width\":240,\"chip_height\":220,\
         \"routed_length\":4400,\"wall_us\":2500000}}",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_stream;

    #[test]
    fn synthetic_streams_validate() {
        for spec in [
            SynthSpec::default(),
            SynthSpec {
                s_t: 3.5,
                ..SynthSpec::default()
            },
            SynthSpec {
                route_overflow_violation: true,
                dirty_final_route: true,
                ..SynthSpec::default()
            },
        ] {
            let stats = parse_stream(&synth_stream(&spec)).unwrap().stats;
            assert!(stats.kind_counts["place_temp"] > 10);
            assert_eq!(stats.kind_counts["route_iter"], 4);
        }
        parse_stream(&pathological_stream()).unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = SynthSpec::default();
        assert_eq!(synth_stream(&spec), synth_stream(&spec));
    }
}
