//! Trace-capture analysis: parses the JSONL capture format written by
//! `twmc --trace` / the daemon spool back into a
//! [`TraceSnapshot`], and judges the resulting wall-time profile for
//! pathological distributions (the engine behind `twmc report
//! CAPTURE.jsonl`).
//!
//! The checks are operational, not algorithmic: they ask where the
//! run's wall-clock went, not whether the annealer obeyed the paper.
//! A healthy run keeps the overlap query below the share an index
//! rebuilt on every move would take, and pays only incidental time for
//! checkpoints.

use serde::Value;
use twmc_obs::validate::{get_str, get_u64, parse_json};
use twmc_trace::{profile, Profile, SpanRecord, TraceSnapshot};

use crate::health::{finding, format_findings, worst, Finding, Severity};

/// Fail when the overlap query exceeds this share of the attributed
/// cost-term time. The query is the largest term of an ordinary run:
/// 0.63–0.82 of attributed move-eval time from 100 to 10k cells (0.68
/// on the CI smoke circuit, 0.69 at 400 ladder cells). An index rebuilt
/// on every move instead of maintained reaches 0.97–0.995, so the bound
/// sits between the two.
pub const INDEX_SHARE_FAIL: f64 = 0.90;

/// Warn when checkpoint writes exceed this share of total run time.
pub const CHECKPOINT_SHARE_WARN: f64 = 0.10;

/// Warn when the move loop (`move_block`) covers less than this share
/// of its enclosing temperature steps — the remainder is per-step
/// overhead (index rebuilds, bookkeeping) outside the hot path.
pub const MOVE_SHARE_WARN: f64 = 0.50;

/// The result of [`check_trace`]: findings plus the self-time profile
/// they were judged from.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Pass/warn/fail findings in fixed check order.
    pub findings: Vec<Finding>,
    /// The folded self-time profile of the capture.
    pub profile: Profile,
}

impl TraceReport {
    /// Whether no finding failed.
    pub fn healthy(&self) -> bool {
        worst(&self.findings) != Severity::Fail
    }
}

/// Parses a JSONL trace capture (the `twmc --trace` / spool format)
/// back into a [`TraceSnapshot`]. Every error names its line.
pub fn parse_capture(text: &str) -> Result<TraceSnapshot, String> {
    let mut snap = TraceSnapshot::default();
    let mut saw_meta = false;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let v = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if !matches!(v, Value::Object(_)) {
            return Err(format!("line {lineno}: not a JSON object"));
        }
        let kind = get_str(&v, "kind").ok_or_else(|| format!("line {lineno}: missing `kind`"))?;
        match kind {
            "trace_meta" => {
                if saw_meta {
                    return Err(format!("line {lineno}: duplicate `trace_meta`"));
                }
                saw_meta = true;
                snap.base_unix_ns = get_u64(&v, "base_unix_ns")
                    .ok_or_else(|| format!("line {lineno}: trace_meta lacks `base_unix_ns`"))?;
            }
            "span" => {
                if !saw_meta {
                    return Err(format!("line {lineno}: span before `trace_meta`"));
                }
                let lane = get_str(&v, "lane")
                    .ok_or_else(|| format!("line {lineno}: span lacks `lane`"))?;
                let span = SpanRecord {
                    name: get_str(&v, "name")
                        .ok_or_else(|| format!("line {lineno}: span lacks `name`"))?
                        .to_owned(),
                    cat: get_str(&v, "cat").unwrap_or_default().to_owned(),
                    ts_ns: get_u64(&v, "ts_ns")
                        .ok_or_else(|| format!("line {lineno}: span lacks `ts_ns`"))?,
                    dur_ns: get_u64(&v, "dur_ns")
                        .ok_or_else(|| format!("line {lineno}: span lacks `dur_ns`"))?,
                };
                lane_mut(&mut snap, lane).spans.push(span);
            }
            "trace_drop" => {
                let lane = get_str(&v, "lane")
                    .ok_or_else(|| format!("line {lineno}: trace_drop lacks `lane`"))?;
                let dropped = get_u64(&v, "dropped")
                    .ok_or_else(|| format!("line {lineno}: trace_drop lacks `dropped`"))?;
                lane_mut(&mut snap, lane).dropped = dropped;
            }
            other => return Err(format!("line {lineno}: unknown kind `{other}`")),
        }
    }
    if !saw_meta {
        return Err("capture has no `trace_meta` header".to_owned());
    }
    Ok(snap)
}

fn lane_mut<'s>(snap: &'s mut TraceSnapshot, name: &str) -> &'s mut twmc_trace::LaneSnapshot {
    if let Some(i) = snap.lanes.iter().position(|l| l.name == name) {
        return &mut snap.lanes[i];
    }
    snap.lanes.push(twmc_trace::LaneSnapshot {
        name: name.to_owned(),
        spans: Vec::new(),
        dropped: 0,
    });
    snap.lanes.last_mut().expect("just pushed")
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Runs the trace health checks over a capture.
pub fn check_trace(snap: &TraceSnapshot) -> TraceReport {
    let prof = profile(snap);
    let mut findings = Vec::new();

    // trace.spans — an empty capture means tracing never engaged.
    if prof.spans == 0 {
        findings.push(finding(
            "trace.spans",
            Severity::Fail,
            "capture holds no spans — was the run traced?".to_owned(),
        ));
        return TraceReport {
            findings,
            profile: prof,
        };
    }
    findings.push(finding(
        "trace.spans",
        Severity::Pass,
        format!("{} spans across {} lanes", prof.spans, snap.lanes.len()),
    ));

    // trace.dropped — eviction is safe but lossy; surface it.
    findings.push(if prof.dropped > 0 {
        finding(
            "trace.dropped",
            Severity::Warn,
            format!(
                "{} spans evicted by ring wraparound — oldest history is missing",
                prof.dropped
            ),
        )
    } else {
        finding(
            "trace.dropped",
            Severity::Pass,
            "no spans evicted".to_owned(),
        )
    });

    // trace.cost_split — where move-evaluation time actually goes.
    let net = prof.row("net_span").map_or(0, |r| r.excl_ns);
    let index = prof.row("overlap_index").map_or(0, |r| r.excl_ns);
    let penalty = prof.row("penalty").map_or(0, |r| r.excl_ns);
    let cost_total = net + index + penalty;
    findings.push(if cost_total == 0 {
        finding(
            "trace.cost_split",
            Severity::Warn,
            "no cost-term attribution spans (run shorter than one sampled block?)".to_owned(),
        )
    } else {
        let index_share = index as f64 / cost_total as f64;
        let detail = format!(
            "attributed move-eval time: net_span {:.1}%, overlap_index {:.1}%, penalty {:.1}%",
            pct(net, cost_total),
            pct(index, cost_total),
            pct(penalty, cost_total),
        );
        if index_share > INDEX_SHARE_FAIL {
            finding(
                "trace.cost_split",
                Severity::Fail,
                format!(
                    "{detail} — overlap-index maintenance above {:.0}% is pathological",
                    100.0 * INDEX_SHARE_FAIL
                ),
            )
        } else {
            finding("trace.cost_split", Severity::Pass, detail)
        }
    });

    // trace.checkpoint — persistence should be incidental.
    let ckpt = prof.row("checkpoint_write").map_or(0, |r| r.incl_ns);
    let wall = prof.row("run").map_or(prof.wall_ns, |r| r.incl_ns);
    if ckpt > 0 {
        let share = ckpt as f64 / wall.max(1) as f64;
        findings.push(if share > CHECKPOINT_SHARE_WARN {
            finding(
                "trace.checkpoint",
                Severity::Warn,
                format!(
                    "checkpoint writes are {:.1}% of run time (> {:.0}%) — lower the cadence",
                    100.0 * share,
                    100.0 * CHECKPOINT_SHARE_WARN
                ),
            )
        } else {
            finding(
                "trace.checkpoint",
                Severity::Pass,
                format!("checkpoint writes are {:.1}% of run time", 100.0 * share),
            )
        });
    }

    // trace.move_share — the move loop should dominate its steps.
    let steps = prof.row("temp_step").map_or(0, |r| r.incl_ns);
    let blocks = prof.row("move_block").map_or(0, |r| r.incl_ns);
    if steps > 0 {
        let share = blocks as f64 / steps as f64;
        findings.push(if share < MOVE_SHARE_WARN {
            finding(
                "trace.move_share",
                Severity::Warn,
                format!(
                    "move blocks cover only {:.1}% of temperature-step time — \
                     per-step overhead dominates the hot path",
                    100.0 * share
                ),
            )
        } else {
            finding(
                "trace.move_share",
                Severity::Pass,
                format!(
                    "move blocks cover {:.1}% of temperature-step time",
                    100.0 * share
                ),
            )
        });
    }

    TraceReport {
        findings,
        profile: prof,
    }
}

/// Renders a [`TraceReport`] for the terminal: findings and their
/// verdict first, then the top-`top` self-time rows.
pub fn format_trace_report(report: &TraceReport, top: usize) -> String {
    let mut out = format_findings(&report.findings);
    out.push('\n');
    out.push_str(&report.profile.format_table(top));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_trace::{capture_to_string, chrome_trace_json, Tracer};

    /// Builds a capture with a known shape: one run span containing a
    /// temp_step, move blocks, and cost-term children.
    fn synth_capture(index_heavy: bool) -> String {
        let tracer = Tracer::new();
        let mut lane = tracer.lane("main");
        // run: 0..1_000_000; temp_step: 0..900_000; two move blocks.
        lane.span_rel("run", "run", 0, 1_000_000);
        lane.span_rel("temp_step", "place", 0, 900_000);
        for b in 0..2u64 {
            let t0 = b * 400_000;
            lane.span_rel("move_block", "place", t0, 400_000);
            let (net, idx) = if index_heavy {
                (10_000, 340_000)
            } else {
                (300_000, 50_000)
            };
            lane.span_rel("net_span", "cost", t0, net);
            lane.span_rel("overlap_index", "cost", t0 + net, idx);
            lane.span_rel("penalty", "cost", t0 + net + idx, 10_000);
        }
        drop(lane);
        tracer
            .lane("ckpt")
            .span_rel("checkpoint_write", "ckpt", 10_000, 5_000);
        capture_to_string(&tracer.collect())
    }

    #[test]
    fn capture_roundtrips_through_parser() {
        let text = synth_capture(false);
        let snap = parse_capture(&text).expect("capture parses");
        assert_eq!(snap.lanes.len(), 2);
        assert_eq!(snap.total_spans(), 11);
        // Re-capturing the parsed snapshot is byte-identical: parse is
        // a true inverse of capture.
        assert_eq!(capture_to_string(&snap), text);
    }

    #[test]
    fn parser_names_bad_lines() {
        assert!(parse_capture("").unwrap_err().contains("trace_meta"));
        let e = parse_capture("{\"kind\":\"span\"}\n").unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        let meta = "{\"kind\":\"trace_meta\",\"base_unix_ns\":1,\"lanes\":0}\n";
        let e = parse_capture(&format!("{meta}{{\"kind\":\"bogus\"}}\n")).unwrap_err();
        assert!(e.contains("line 2") && e.contains("bogus"), "{e}");
        let e = parse_capture(&format!("{meta}not json\n")).unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn healthy_capture_passes_all_checks() {
        let snap = parse_capture(&synth_capture(false)).unwrap();
        let report = check_trace(&snap);
        assert!(report.healthy(), "{:#?}", report.findings);
        let split = report
            .findings
            .iter()
            .find(|f| f.check == "trace.cost_split")
            .unwrap();
        assert_eq!(split.severity, Severity::Pass);
        // The profile split matches the synthetic layout: 300k net vs
        // 50k index per block.
        assert_eq!(report.profile.row("net_span").unwrap().excl_ns, 600_000);
        assert_eq!(
            report.profile.row("overlap_index").unwrap().excl_ns,
            100_000
        );
        let text = format_trace_report(&report, 10);
        assert!(text.contains("PASS") && text.contains("move_block"));
    }

    #[test]
    fn index_heavy_capture_fails_cost_split() {
        let snap = parse_capture(&synth_capture(true)).unwrap();
        let report = check_trace(&snap);
        assert!(!report.healthy());
        let split = report
            .findings
            .iter()
            .find(|f| f.check == "trace.cost_split")
            .unwrap();
        assert_eq!(split.severity, Severity::Fail);
        assert!(split.detail.contains("pathological"), "{}", split.detail);
    }

    #[test]
    fn empty_capture_fails() {
        let snap =
            parse_capture("{\"kind\":\"trace_meta\",\"base_unix_ns\":7,\"lanes\":0}\n").unwrap();
        let report = check_trace(&snap);
        assert!(!report.healthy());
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn chrome_export_of_parsed_capture_is_valid_json() {
        let snap = parse_capture(&synth_capture(false)).unwrap();
        let chrome = chrome_trace_json(&snap);
        let v = parse_json(&chrome).expect("chrome trace is valid JSON");
        let Some(Value::Array(events)) = twmc_obs::validate::get(&v, "traceEvents") else {
            panic!("no traceEvents array")
        };
        // Metadata (process + 2 lanes) plus the 11 spans.
        assert_eq!(events.len(), 3 + 11);
        for ev in events {
            let ph = get_str(ev, "ph").expect("event has ph");
            assert!(ph == "X" || ph == "M" || ph == "I", "bad ph `{ph}`");
        }
    }
}
