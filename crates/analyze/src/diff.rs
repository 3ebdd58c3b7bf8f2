//! Cross-run regression diffs over the headline metrics.
//!
//! Compares a candidate run's [`Metrics`] against a baseline's under
//! fixed bounds, one [`Finding`] per metric. A quality metric (TEIL,
//! routed length, chip area, overflow, unrouted nets) fails when the
//! candidate is *worse* by more than its bound — improvements never
//! fail. Wall-clock always passes and is labelled informational:
//! machine noise must not gate CI.

use crate::health::{finding, Finding, Metrics, Severity};

/// Allowed increase of TEIL, routed length and chip area, in percent.
const MAX_PCT: f64 = 2.0;

/// Allowed increase of residual overflow and of unrouted nets.
const MAX_ABS: i64 = 0;

fn pct_change(baseline: f64, candidate: f64) -> f64 {
    if baseline == 0.0 && candidate == 0.0 {
        0.0
    } else if baseline == 0.0 {
        f64::INFINITY.copysign(candidate)
    } else {
        100.0 * (candidate - baseline) / baseline.abs()
    }
}

/// `"b -> c (+x.xx%)"`, with `new` for a change from zero.
fn change(b: f64, c: f64) -> String {
    let pct = pct_change(b, c);
    let pct = if pct.is_finite() {
        format!("{pct:+.2}%")
    } else {
        "new".to_owned()
    };
    format!("{b:.0} -> {c:.0} ({pct})")
}

fn fails_if(worse: bool) -> Severity {
    if worse {
        Severity::Fail
    } else {
        Severity::Pass
    }
}

/// Diffs a candidate against a baseline: `diff.teil`,
/// `diff.routed_length` and `diff.chip_area` fail beyond +2%,
/// `diff.overflow` and `diff.unrouted` on any increase, and
/// `diff.wall_us` always passes.
pub fn diff_runs(baseline: &Metrics, candidate: &Metrics) -> Vec<Finding> {
    let pct = |check: &str, b: f64, c: f64| {
        finding(
            check,
            fails_if(pct_change(b, c) > MAX_PCT),
            format!("{}, bound +{MAX_PCT}%", change(b, c)),
        )
    };
    let abs = |check: &str, b: i64, c: i64| {
        finding(
            check,
            fails_if(c - b > MAX_ABS),
            format!("{b} -> {c} ({:+}), bound +{MAX_ABS}", c - b),
        )
    };
    let (b, c) = (baseline, candidate);
    vec![
        pct("diff.teil", b.teil, c.teil),
        pct(
            "diff.routed_length",
            b.routed_length as f64,
            c.routed_length as f64,
        ),
        pct("diff.chip_area", b.chip_area as f64, c.chip_area as f64),
        abs("diff.overflow", b.overflow, c.overflow),
        abs("diff.unrouted", b.unrouted, c.unrouted),
        finding(
            "diff.wall_us",
            Severity::Pass,
            format!(
                "{}, informational",
                change(b.wall_us as f64, c.wall_us as f64)
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{format_findings, worst};

    fn base() -> Metrics {
        Metrics {
            teil: 1000.0,
            chip_area: 40_000,
            routed_length: 5000,
            overflow: 0,
            unrouted: 0,
            wall_us: 1_000_000,
            temp_steps: 100,
            route_iters: 4,
        }
    }

    fn severity(findings: &[Finding], check: &str) -> Severity {
        findings.iter().find(|f| f.check == check).unwrap().severity
    }

    #[test]
    fn identical_runs_do_not_regress() {
        let d = diff_runs(&base(), &base());
        assert_eq!(worst(&d), Severity::Pass, "{}", format_findings(&d));
        let checks: Vec<&str> = d.iter().map(|f| f.check.as_str()).collect();
        assert_eq!(
            checks,
            [
                "diff.teil",
                "diff.routed_length",
                "diff.chip_area",
                "diff.overflow",
                "diff.unrouted",
                "diff.wall_us"
            ]
        );
        assert!(format_findings(&d).ends_with("verdict: pass\n"));
    }

    #[test]
    fn teil_regression_is_flagged_beyond_threshold() {
        let mut cand = base();
        cand.teil = 1030.0; // +3% > 2%
        let d = diff_runs(&base(), &cand);
        assert_eq!(severity(&d, "diff.teil"), Severity::Fail);
        let text = format_findings(&d);
        assert!(
            text.contains("FAIL  diff.teil            1000 -> 1030 (+3.00%), bound +2%"),
            "{text}"
        );
        assert!(text.ends_with("verdict: FAIL\n"), "{text}");

        // The bound itself still passes.
        cand.teil = 1020.0;
        assert_eq!(worst(&diff_runs(&base(), &cand)), Severity::Pass);
    }

    #[test]
    fn improvements_never_regress() {
        let mut cand = base();
        cand.teil = 500.0;
        cand.routed_length = 2000;
        cand.chip_area = 10_000;
        let d = diff_runs(&base(), &cand);
        assert_eq!(worst(&d), Severity::Pass, "{}", format_findings(&d));
    }

    #[test]
    fn overflow_and_unrouted_gate_absolutely() {
        let mut cand = base();
        cand.overflow = 1;
        assert_eq!(
            severity(&diff_runs(&base(), &cand), "diff.overflow"),
            Severity::Fail
        );
        cand.overflow = 0;
        cand.unrouted = 2;
        let d = diff_runs(&base(), &cand);
        assert_eq!(severity(&d, "diff.unrouted"), Severity::Fail);
        assert!(format_findings(&d).contains("0 -> 2 (+2), bound +0"));
    }

    #[test]
    fn wall_clock_is_informational() {
        let mut cand = base();
        cand.wall_us = 10_000_000; // 10x slower
        let d = diff_runs(&base(), &cand);
        assert_eq!(worst(&d), Severity::Pass);
        assert!(format_findings(&d).contains("(+900.00%), informational"));
    }

    #[test]
    fn diff_serializes_to_json() {
        let json = serde_json::to_string(&diff_runs(&base(), &base())).unwrap();
        assert!(
            json.starts_with("[{\"check\":\"diff.teil\",\"severity\":\"Pass\""),
            "{json}"
        );
        twmc_obs::validate::parse_json(&json).unwrap();
    }
}
