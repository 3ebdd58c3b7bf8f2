//! Equal-wall-clock bench gate over `BENCH_parallel.json` (the engine
//! behind `twmc report BENCH_parallel.json`).
//!
//! The bench harness times a tempering run at each replica count, then
//! runs as many same-size multistart batches (distinct master seeds) as
//! fit in that wall clock, and records both best TEILs as an
//! `equal_wall` row. This module judges those rows: at ≥ 4 replicas a
//! tempering ladder that cannot beat best-of-N multistart on the same
//! CPU budget is a losing configuration and gates CI (`Fail`, exit 2).

use serde::Value;
use twmc_obs::validate::{get, get_f64, parse_json};

use crate::health::{finding, Finding, Severity};

/// Replica count from which an equal-wall loss is a failure rather
/// than a warning: below this the ladder is too short for exchange to
/// pay for its swap overhead.
const GATED_REPLICAS: u64 = 4;

/// Gates a `BENCH_parallel.json`: one `bench.equal_wall` finding per
/// `equal_wall` row. A tempering ladder that loses to multistart at
/// equal wall clock fails from `GATED_REPLICAS` replicas up and warns
/// below. The pre-gate array format and summaries without the section
/// are errors naming the regeneration command.
pub fn check_bench_parallel(text: &str) -> Result<Vec<Finding>, String> {
    const REGEN: &str = "regenerate with `cargo bench -p twmc-bench --bench parallel`";
    let v = parse_json(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if !matches!(v, Value::Object(_)) {
        return Err(format!(
            "not a bench summary object (pre-equal-wall format?); {REGEN}"
        ));
    }
    let Some(Value::Array(rows)) = get(&v, "equal_wall") else {
        return Err(format!("summary has no `equal_wall` section; {REGEN}"));
    };
    if rows.is_empty() {
        return Err(format!("`equal_wall` section is empty; {REGEN}"));
    }
    rows.iter().map(equal_wall).collect()
}

/// Judges one `equal_wall` row: the tempering run's best TEIL against
/// the best of the multistart batches (distinct master seeds, at least
/// one) that fit in its wall clock.
fn equal_wall(row: &Value) -> Result<Finding, String> {
    let num = |name: &str| {
        get_f64(row, name).ok_or_else(|| format!("equal_wall row lacks a numeric `{name}` field"))
    };
    let replicas = num("replicas")? as u64;
    let (t_wall, t_teil) = (num("tempering_wall_seconds")?, num("tempering_best_teil")?);
    let batches = num("multistart_batches")? as u64;
    let (m_wall, m_teil) = (
        num("multistart_wall_seconds")?,
        num("multistart_best_teil")?,
    );
    let detail = format!(
        "x{replicas}: tempering best TEIL {t_teil:.0} ({t_wall:.2}s) vs multistart {m_teil:.0} \
         ({batches} batch{} in {m_wall:.2}s), margin {:+.0}",
        if batches == 1 { "" } else { "es" },
        m_teil - t_teil,
    );
    Ok(if t_teil <= m_teil {
        finding("bench.equal_wall", Severity::Pass, detail)
    } else {
        finding(
            "bench.equal_wall",
            if replicas >= GATED_REPLICAS {
                Severity::Fail
            } else {
                Severity::Warn
            },
            format!("{detail} — tempering loses at equal wall clock"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(rows: &[(u64, f64, f64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(n, t, m)| {
                format!(
                    "{{\"replicas\":{n},\"tempering_wall_seconds\":1.0,\
                     \"tempering_best_teil\":{t},\"multistart_batches\":1,\
                     \"multistart_wall_seconds\":0.9,\"multistart_best_teil\":{m}}}"
                )
            })
            .collect();
        format!("{{\"equal_wall\":[{}]}}", body.join(","))
    }

    #[test]
    fn a_win_at_gated_replica_counts_passes() {
        let findings =
            check_bench_parallel(&summary(&[(4, 16000.0, 16996.0), (8, 16100.0, 16536.0)]))
                .unwrap();
        assert!(
            findings.iter().all(|f| f.severity == Severity::Pass),
            "{findings:?}"
        );
    }

    #[test]
    fn a_loss_at_four_replicas_fails_but_two_only_warns() {
        let findings =
            check_bench_parallel(&summary(&[(2, 18000.0, 17000.0), (4, 18000.0, 16996.0)]))
                .unwrap();
        let by_replicas: Vec<Severity> = findings.iter().map(|f| f.severity).collect();
        assert_eq!(by_replicas, vec![Severity::Warn, Severity::Fail]);
        assert!(findings[1].detail.contains("loses at equal wall clock"));
    }

    #[test]
    fn old_format_summaries_are_explained() {
        for old in ["[{\"replicas\":1}]", "{\"rows\":[]}", "{\"equal_wall\":[]}"] {
            let err = check_bench_parallel(old).unwrap_err();
            assert!(err.contains("cargo bench"), "{err}");
        }
    }

    #[test]
    fn format_names_the_verdict() {
        let findings = check_bench_parallel(&summary(&[(4, 1.0, 2.0)])).unwrap();
        let text = crate::health::format_findings(&findings);
        assert!(text.starts_with("PASS  bench.equal_wall     x4: tempering best TEIL 1"));
        assert!(text.ends_with("verdict: pass\n"), "{text}");
    }
}
