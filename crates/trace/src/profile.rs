//! Self-time attribution: folds a collected trace into per-span-name
//! inclusive/exclusive wall-time totals.
//!
//! Nesting is re-derived from time containment per lane: spans are
//! swept in start order with a stack of open ancestors, and each
//! span's duration is subtracted from the *exclusive* time of its
//! nearest enclosing span. Complete events make this robust to lane
//! eviction — a lost parent simply promotes its surviving children to
//! the next enclosing span (or to the lane root), never to a wrong
//! parent.

use std::collections::BTreeMap;

use crate::TraceSnapshot;

/// Aggregated wall time of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Span name.
    pub name: String,
    /// Span category.
    pub cat: String,
    /// Occurrences across all lanes.
    pub count: u64,
    /// Total inclusive time (children counted), nanoseconds.
    pub incl_ns: u64,
    /// Total exclusive time (children subtracted), nanoseconds.
    pub excl_ns: u64,
}

/// A folded trace: rows sorted by exclusive time, descending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Aggregated rows, hottest self-time first.
    pub rows: Vec<ProfileRow>,
    /// Wall clock covered: latest span end minus earliest span start,
    /// nanoseconds, across all lanes.
    pub wall_ns: u64,
    /// Total surviving spans folded.
    pub spans: u64,
    /// Total spans evicted before collection.
    pub dropped: u64,
}

impl Profile {
    /// The row for `name`, if present.
    pub fn row(&self, name: &str) -> Option<&ProfileRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Renders the attribution table (top `top` rows by exclusive
    /// time, plus a per-category footer).
    pub fn format_table(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:<6} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "cat", "count", "incl", "excl", "excl%"
        ));
        let total_excl: u64 = self.rows.iter().map(|r| r.excl_ns).sum();
        for row in self.rows.iter().take(top) {
            let pct = if total_excl > 0 {
                row.excl_ns as f64 / total_excl as f64 * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<20} {:<6} {:>9} {:>12} {:>12} {:>6.1}%\n",
                row.name,
                row.cat,
                row.count,
                fmt_ns(row.incl_ns),
                fmt_ns(row.excl_ns),
                pct
            ));
        }
        let mut cats: BTreeMap<&str, u64> = BTreeMap::new();
        for row in &self.rows {
            *cats.entry(row.cat.as_str()).or_default() += row.excl_ns;
        }
        out.push('\n');
        for (cat, ns) in cats {
            let pct = if total_excl > 0 {
                ns as f64 / total_excl as f64 * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<27} {:>12} {:>6.1}%\n",
                format!("cat:{cat}"),
                fmt_ns(ns),
                pct
            ));
        }
        out.push_str(&format!(
            "\nwall {}   spans {}   dropped {}\n",
            fmt_ns(self.wall_ns),
            self.spans,
            self.dropped
        ));
        out
    }
}

/// Humanizes nanoseconds (`532 ns`, `1.24 ms`, `3.50 s`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns_f / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns_f / 1e6)
    } else {
        format!("{:.2} s", ns_f / 1e9)
    }
}

/// Folds `snap` into per-name inclusive/exclusive totals.
pub fn profile(snap: &TraceSnapshot) -> Profile {
    // Aggregate rows keyed by (name, cat).
    let mut index: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut rows: Vec<ProfileRow> = Vec::new();
    let mut excl: Vec<i128> = Vec::new();
    let mut min_ts = u64::MAX;
    let mut max_end = 0u64;
    let mut spans = 0u64;

    for lane in &snap.lanes {
        // Start order; longer span first on ties so a parent sharing
        // its child's start time opens before the child.
        let mut order: Vec<&crate::SpanRecord> = lane.spans.iter().collect();
        order.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(b.dur_ns.cmp(&a.dur_ns)));

        // Stack of open ancestors: (end_ns, row index).
        let mut stack: Vec<(u64, usize)> = Vec::new();
        for span in order {
            spans += 1;
            min_ts = min_ts.min(span.ts_ns);
            max_end = max_end.max(span.end_ns());
            while let Some(&(end, _)) = stack.last() {
                if end <= span.ts_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            let key = (span.name.clone(), span.cat.clone());
            let row = *index.entry(key).or_insert_with(|| {
                rows.push(ProfileRow {
                    name: span.name.clone(),
                    cat: span.cat.clone(),
                    count: 0,
                    incl_ns: 0,
                    excl_ns: 0,
                });
                excl.push(0);
                rows.len() - 1
            });
            rows[row].count += 1;
            rows[row].incl_ns += span.dur_ns;
            excl[row] += i128::from(span.dur_ns);
            if let Some(&(parent_end, parent)) = stack.last() {
                if span.end_ns() <= parent_end {
                    // Contained: self time moves from parent to child.
                    excl[parent] -= i128::from(span.dur_ns);
                } else {
                    // Partial overlap (clock skew at a boundary):
                    // treat as a sibling rather than misattribute.
                    stack.pop();
                }
            }
            stack.push((span.end_ns(), row));
        }
    }

    for (row, e) in rows.iter_mut().zip(excl) {
        row.excl_ns = u64::try_from(e.max(0)).unwrap_or(0);
    }
    rows.sort_by(|a, b| b.excl_ns.cmp(&a.excl_ns).then(a.name.cmp(&b.name)));
    Profile {
        rows,
        wall_ns: max_end.saturating_sub(if min_ts == u64::MAX { 0 } else { min_ts }),
        spans,
        dropped: snap.dropped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaneSnapshot, SpanRecord, TraceSnapshot};

    fn span(name: &str, cat: &str, ts: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: cat.into(),
            ts_ns: ts,
            dur_ns: dur,
        }
    }

    fn snap(spans: Vec<SpanRecord>) -> TraceSnapshot {
        TraceSnapshot {
            base_unix_ns: 0,
            lanes: vec![LaneSnapshot {
                name: "main".into(),
                spans,
                dropped: 0,
            }],
        }
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let p = profile(&snap(vec![
            span("temp_step", "place", 0, 1_000),
            span("move_block", "place", 100, 300),
            span("move_block", "place", 500, 300),
        ]));
        let step = p.row("temp_step").unwrap();
        assert_eq!(step.incl_ns, 1_000);
        assert_eq!(step.excl_ns, 400);
        let blocks = p.row("move_block").unwrap();
        assert_eq!(blocks.count, 2);
        assert_eq!(blocks.incl_ns, 600);
        assert_eq!(blocks.excl_ns, 600);
        assert_eq!(p.wall_ns, 1_000);
        // Hottest self time sorts first.
        assert_eq!(p.rows[0].name, "move_block");
    }

    #[test]
    fn grandchildren_subtract_from_their_own_parent() {
        let p = profile(&snap(vec![
            span("run", "run", 0, 10_000),
            span("temp_step", "place", 1_000, 4_000),
            span("move_block", "place", 1_500, 2_000),
        ]));
        assert_eq!(p.row("run").unwrap().excl_ns, 6_000);
        assert_eq!(p.row("temp_step").unwrap().excl_ns, 2_000);
        assert_eq!(p.row("move_block").unwrap().excl_ns, 2_000);
    }

    #[test]
    fn shared_start_times_nest_longer_span_outside() {
        let p = profile(&snap(vec![
            span("outer", "place", 0, 100),
            span("inner", "place", 0, 40),
        ]));
        assert_eq!(p.row("outer").unwrap().excl_ns, 60);
        assert_eq!(p.row("inner").unwrap().excl_ns, 40);
    }

    #[test]
    fn partial_overlap_counts_as_sibling() {
        let p = profile(&snap(vec![
            span("a", "place", 0, 100),
            span("b", "place", 50, 100),
        ]));
        // Not contained, so no subtraction happens.
        assert_eq!(p.row("a").unwrap().excl_ns, 100);
        assert_eq!(p.row("b").unwrap().excl_ns, 100);
        assert_eq!(p.wall_ns, 150);
    }

    #[test]
    fn lanes_fold_independently() {
        let mut s = snap(vec![span("x", "place", 0, 100)]);
        s.lanes.push(LaneSnapshot {
            name: "replica1".into(),
            spans: vec![span("x", "place", 10, 100)],
            dropped: 3,
        });
        let p = profile(&s);
        let x = p.row("x").unwrap();
        assert_eq!(x.count, 2);
        assert_eq!(x.incl_ns, 200);
        assert_eq!(x.excl_ns, 200);
        assert_eq!(p.dropped, 3);
    }

    #[test]
    fn table_renders_rows_and_categories() {
        let p = profile(&snap(vec![
            span("temp_step", "place", 0, 1_000),
            span("net_span", "cost", 100, 200),
        ]));
        let table = p.format_table(10);
        assert!(table.contains("temp_step"));
        assert!(table.contains("cat:cost"));
        assert!(table.contains("dropped 0"));
    }
}
