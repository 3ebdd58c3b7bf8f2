//! Equal-wall-clock bench gate over `BENCH_parallel.json` (the engine
//! behind `twmc diff --bench-parallel`).
//!
//! The bench harness times a tempering run at each replica count, then
//! runs as many same-size multistart batches (distinct master seeds) as
//! fit in that wall clock, and records both best TEILs as an
//! `equal_wall` row. This module judges those rows: at ≥ 4 replicas a
//! tempering ladder that cannot beat best-of-N multistart on the same
//! CPU budget is a losing configuration and gates CI (`Fail`, exit 2).
//! Given a baseline summary, a tempering best-TEIL regression at any
//! matching replica count also gates.

use serde::Value;
use twmc_obs::validate::{get, get_f64, parse_json};

use crate::health::{finding, format_findings, Finding, Severity};

/// Replica count from which an equal-wall loss is a failure rather
/// than a warning: below this the ladder is too short for exchange to
/// pay for its swap overhead.
const GATED_REPLICAS: u64 = 4;

/// One `equal_wall` row of `BENCH_parallel.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct EqualWallRec {
    /// Replica count (ladder rungs / multistart batch width).
    pub replicas: u64,
    /// Tempering wall clock in seconds.
    pub tempering_wall_seconds: f64,
    /// Tempering best stage-1 TEIL.
    pub tempering_best_teil: f64,
    /// Multistart batches that fit in the tempering wall (min 1).
    pub multistart_batches: u64,
    /// Wall clock of those batches in seconds.
    pub multistart_wall_seconds: f64,
    /// Best stage-1 TEIL across all batches.
    pub multistart_best_teil: f64,
}

/// Verdict of the bench gate: findings plus the rows they judge.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchGateReport {
    /// One finding per gated condition, `Fail` entries gate CI.
    pub findings: Vec<Finding>,
    /// The candidate's `equal_wall` rows.
    pub rows: Vec<EqualWallRec>,
}

impl BenchGateReport {
    /// Whether any finding fails (maps to `twmc diff` exit 2).
    pub fn regressed(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Fail)
    }
}

fn num(row: &Value, name: &str) -> Result<f64, String> {
    get_f64(row, name).ok_or_else(|| format!("equal_wall row lacks a numeric `{name}` field"))
}

/// Parses a bench summary's `equal_wall` rows. The pre-gate array
/// format (no top-level object) and summaries without the section are
/// reported as errors naming the regeneration command.
pub fn parse_equal_wall(text: &str) -> Result<Vec<EqualWallRec>, String> {
    const REGEN: &str = "regenerate with `cargo bench -p twmc-bench --bench parallel`";
    let v = parse_json(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if !matches!(v, Value::Object(_)) {
        return Err(format!(
            "not a bench summary object (pre-equal-wall format?); {REGEN}"
        ));
    }
    let Some(Value::Array(items)) = get(&v, "equal_wall") else {
        return Err(format!("summary has no `equal_wall` section; {REGEN}"));
    };
    let mut rows = Vec::new();
    for item in items {
        rows.push(EqualWallRec {
            replicas: num(item, "replicas")? as u64,
            tempering_wall_seconds: num(item, "tempering_wall_seconds")?,
            tempering_best_teil: num(item, "tempering_best_teil")?,
            multistart_batches: num(item, "multistart_batches")? as u64,
            multistart_wall_seconds: num(item, "multistart_wall_seconds")?,
            multistart_best_teil: num(item, "multistart_best_teil")?,
        });
    }
    if rows.is_empty() {
        return Err(format!("`equal_wall` section is empty; {REGEN}"));
    }
    Ok(rows)
}

/// Gates a candidate `BENCH_parallel.json` (optionally against a
/// baseline summary): equal-wall losses to multistart at
/// ≥ `GATED_REPLICAS` replicas fail, smaller ladders only warn, and
/// with a baseline any tempering best-TEIL regression at a matching
/// replica count fails. A baseline predating the `equal_wall` section
/// downgrades the regression check to a warning instead of blocking.
pub fn check_bench_parallel(
    candidate: &str,
    baseline: Option<&str>,
) -> Result<BenchGateReport, String> {
    let rows = parse_equal_wall(candidate).map_err(|e| format!("candidate: {e}"))?;
    let mut findings = Vec::new();
    for r in &rows {
        let margin = r.multistart_best_teil - r.tempering_best_teil;
        let gated = r.replicas >= GATED_REPLICAS;
        let wins = r.tempering_best_teil <= r.multistart_best_teil;
        let detail = format!(
            "x{}: tempering best TEIL {:.0} ({:.2}s) vs multistart {:.0} \
             ({} batch{} in {:.2}s), margin {:+.0}",
            r.replicas,
            r.tempering_best_teil,
            r.tempering_wall_seconds,
            r.multistart_best_teil,
            r.multistart_batches,
            if r.multistart_batches == 1 { "" } else { "es" },
            r.multistart_wall_seconds,
            margin,
        );
        findings.push(finding(
            "bench.equal_wall",
            match (wins, gated) {
                (true, _) => Severity::Pass,
                (false, true) => Severity::Fail,
                (false, false) => Severity::Warn,
            },
            if wins {
                detail
            } else {
                format!("{detail} — tempering loses at equal wall clock")
            },
        ));
    }
    match baseline.map(parse_equal_wall) {
        None => {}
        Some(Err(e)) => findings.push(finding(
            "bench.regression",
            Severity::Warn,
            format!("baseline: {e}; regression check skipped"),
        )),
        Some(Ok(base)) => {
            for r in &rows {
                let Some(b) = base.iter().find(|b| b.replicas == r.replicas) else {
                    continue;
                };
                let regressed = r.tempering_best_teil > b.tempering_best_teil;
                findings.push(finding(
                    "bench.regression",
                    if regressed {
                        Severity::Fail
                    } else {
                        Severity::Pass
                    },
                    format!(
                        "x{}: tempering best TEIL {:.0} vs baseline {:.0}{}",
                        r.replicas,
                        r.tempering_best_teil,
                        b.tempering_best_teil,
                        if regressed { " — regression" } else { "" },
                    ),
                ));
            }
        }
    }
    Ok(BenchGateReport { findings, rows })
}

/// Renders the gate verdict as the terminal table behind
/// `twmc diff --bench-parallel`.
pub fn format_bench_gate(report: &BenchGateReport) -> String {
    let mut out = format_findings(&report.findings);
    out.push_str(&format!(
        "bench gate: {}\n",
        if report.regressed() {
            "REGRESSED"
        } else {
            "ok"
        }
    ));
    out
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
        let report = check_bench_parallel(
            &summary(&[(4, 16000.0, 16996.0), (8, 16100.0, 16536.0)]),
            None,
        )
        .unwrap();
        assert!(!report.regressed(), "{:?}", report.findings);
        assert!(report.findings.iter().all(|f| f.severity == Severity::Pass));
    }

    #[test]
    fn a_loss_at_four_replicas_fails_but_two_only_warns() {
        let report = check_bench_parallel(
            &summary(&[(2, 18000.0, 17000.0), (4, 18000.0, 16996.0)]),
            None,
        )
        .unwrap();
        assert!(report.regressed());
        let by_replicas: Vec<Severity> = report.findings.iter().map(|f| f.severity).collect();
        assert_eq!(by_replicas, vec![Severity::Warn, Severity::Fail]);
        assert!(report.findings[1]
            .detail
            .contains("loses at equal wall clock"));
    }

    #[test]
    fn a_teil_regression_against_the_baseline_fails() {
        let base = summary(&[(4, 16000.0, 16996.0)]);
        let cand = summary(&[(4, 16500.0, 16996.0)]);
        let report = check_bench_parallel(&cand, Some(&base)).unwrap();
        assert!(report.regressed());
        assert!(report.findings.iter().any(|f| f.check == "bench.regression"
            && f.severity == Severity::Fail
            && f.detail.contains("16500")));
        // Equal or better never gates.
        let same = check_bench_parallel(&base, Some(&base)).unwrap();
        assert!(!same.regressed());
    }

    #[test]
    fn old_format_candidates_and_baselines_are_explained() {
        let old = "[{\"replicas\":1}]";
        let err = check_bench_parallel(old, None).unwrap_err();
        assert!(err.contains("cargo bench"), "{err}");
        let report = check_bench_parallel(&summary(&[(4, 1.0, 2.0)]), Some(old)).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == "bench.regression" && f.severity == Severity::Warn));
        assert!(!report.regressed());
    }

    #[test]
    fn format_names_the_verdict() {
        let report = check_bench_parallel(&summary(&[(4, 1.0, 2.0)]), None).unwrap();
        let text = format_bench_gate(&report);
        assert!(text.contains("PASS") && text.contains("bench gate: ok"));
    }
}
