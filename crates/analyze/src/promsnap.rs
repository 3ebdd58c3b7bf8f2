//! Offline health judgment of a scraped `/metrics` exposition.
//!
//! `twmc report SNAPSHOT.prom` feeds a file captured with `curl
//! /metrics` through the [`twmc_metrics::expo`] parser and holds the
//! live-plane families to fixed operational bounds, one
//! `metrics.<family>` [`Finding`] each. A breach fails (exit 2), so CI
//! can tell "the daemon is unhealthy" apart from "the snapshot is
//! unreadable" (exit 1). Every finding names the value it saw and the
//! bound it applied; a family the daemon always pre-registers being
//! *absent* is an operational error (wrong file), not a breach.

use twmc_metrics::expo::{self, Snapshot};

use crate::health::{finding, Finding, Severity};

/// Each gated family with the largest value it may hold: no failed
/// jobs, no replica failures absorbed, at most 64 jobs waiting for a
/// worker, no overflow on the latest route iteration, and no job
/// directory quarantined by the startup scan (torn or unreadable
/// durable state: look at `spool/quarantine/` before trusting it).
const BOUNDS: [(&str, f64); 5] = [
    ("twmc_jobs_failed_total", 0.0),
    ("twmc_replica_failures_total", 0.0),
    ("twmc_queue_depth", 64.0),
    ("twmc_route_overflow", 0.0),
    ("twmc_spool_quarantined", 0.0),
];

/// Reads a required scalar family, erroring when it is absent — the
/// daemon pre-registers every family, so absence means the file is not
/// a twmc `/metrics` scrape.
fn required(snap: &Snapshot, name: &str) -> Result<f64, String> {
    snap.scalar(name)
        .ok_or_else(|| format!("snapshot lacks required family `{name}`"))
}

fn at_most(family: &str, value: f64, bound: f64) -> Finding {
    finding(
        &format!("metrics.{family}"),
        if value > bound {
            Severity::Fail
        } else {
            Severity::Pass
        },
        format!("{value:.0}, bound <= {bound:.0}"),
    )
}

/// Parses and judges a scraped exposition: one finding per bounded
/// family, then `metrics.twmc_workers_busy`, which may never exceed
/// the pool size (beyond it the gauges are corrupt).
pub fn check_metrics_snapshot(text: &str) -> Result<Vec<Finding>, String> {
    let snap = expo::parse(text)?;
    let mut findings = Vec::new();
    for (family, bound) in BOUNDS {
        findings.push(at_most(family, required(&snap, family)?, bound));
    }
    let workers = required(&snap, "twmc_workers")?;
    let busy = required(&snap, "twmc_workers_busy")?;
    findings.push(at_most("twmc_workers_busy", busy, workers));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{format_findings, worst};
    use twmc_metrics::MetricsHub;

    fn healthy_scrape() -> String {
        let hub = MetricsHub::new();
        hub.workers.set(2);
        hub.jobs_submitted_total.inc();
        hub.jobs_completed_total.inc();
        hub.render()
    }

    fn failed(findings: &[Finding]) -> Vec<&str> {
        findings
            .iter()
            .filter(|f| f.severity == Severity::Fail)
            .map(|f| f.check.as_str())
            .collect()
    }

    #[test]
    fn a_fresh_daemon_scrape_is_healthy() {
        let findings = check_metrics_snapshot(&healthy_scrape()).unwrap();
        assert_eq!(worst(&findings), Severity::Pass);
        assert_eq!(findings.len(), 6);
        let text = format_findings(&findings);
        assert!(text.contains("PASS  metrics.twmc_queue_depth 0, bound <= 64\n"));
        assert!(text.ends_with("verdict: pass\n"), "{text}");
    }

    #[test]
    fn failed_jobs_breach_the_default_bound() {
        let hub = MetricsHub::new();
        hub.jobs_failed_total.inc();
        let findings = check_metrics_snapshot(&hub.render()).unwrap();
        assert_eq!(failed(&findings), ["metrics.twmc_jobs_failed_total"]);
        assert!(format_findings(&findings).contains("FAIL  metrics.twmc_jobs_failed_total 1, "));
    }

    #[test]
    fn quarantined_jobs_breach_by_default() {
        let hub = MetricsHub::new();
        hub.spool_quarantined.set(1);
        let findings = check_metrics_snapshot(&hub.render()).unwrap();
        assert_eq!(failed(&findings), ["metrics.twmc_spool_quarantined"]);
    }

    #[test]
    fn busy_beyond_pool_size_always_breaches() {
        let hub = MetricsHub::new();
        hub.workers.set(2);
        hub.workers_busy.set(3);
        let findings = check_metrics_snapshot(&hub.render()).unwrap();
        assert_eq!(failed(&findings), ["metrics.twmc_workers_busy"]);
    }

    #[test]
    fn a_foreign_file_is_an_operational_error() {
        let err = check_metrics_snapshot("up 1\n").unwrap_err();
        assert!(err.contains("twmc_jobs_failed_total"), "{err}");
        assert!(check_metrics_snapshot("garbage without value-lines that parse? no:").is_err());
    }

    #[test]
    fn report_serializes_to_json() {
        let findings = check_metrics_snapshot(&healthy_scrape()).unwrap();
        let json = serde_json::to_string(&findings).unwrap();
        assert!(
            json.starts_with("[{\"check\":\"metrics.twmc_jobs_failed_total\""),
            "{json}"
        );
        twmc_obs::validate::parse_json(&json).unwrap();
    }
}
