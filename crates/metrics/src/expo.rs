//! Reader for the Prometheus text exposition format this crate writes.
//!
//! `twmc report SNAPSHOT.prom` judges a scraped `/metrics` file
//! offline, and the tests round-trip [`crate::Registry::render`]
//! through this parser. The dialect accepted is the one the registry
//! emits — `# HELP` / `# TYPE` comments, bare and single-label sample
//! lines, histogram `_bucket`/`_sum`/`_count` triples — which is also
//! the well-formed core of exposition 0.0.4, so snapshots scraped from
//! a real daemon parse unmodified.

use std::collections::BTreeMap;

use crate::registry::{escape_label_value, HistogramSnapshot};

/// One parsed sample family.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// A counter or gauge value (Prometheus does not distinguish them
    /// at the sample level); labeled variants keyed by the rendered
    /// label set (`state="queued"`), the bare variant by `""`.
    Scalar(BTreeMap<String, f64>),
    /// A histogram assembled from its `_bucket`/`_sum`/`_count` series.
    Histogram(HistogramSnapshot),
}

/// A parsed exposition snapshot: family name → type + samples.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Families in the snapshot.
    pub families: BTreeMap<String, Sample>,
}

impl Snapshot {
    /// The bare scalar value of `name`, if present.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        match self.families.get(name)? {
            Sample::Scalar(values) => values.get("").copied(),
            Sample::Histogram(_) => None,
        }
    }

    /// The labeled scalar value of `name{label}` (pass the rendered
    /// label set, e.g. `state="failed"`).
    pub fn labeled(&self, name: &str, labels: &str) -> Option<f64> {
        match self.families.get(name)? {
            Sample::Scalar(values) => values.get(labels).copied(),
            Sample::Histogram(_) => None,
        }
    }

    /// The histogram snapshot of `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.families.get(name)? {
            Sample::Histogram(h) => Some(h),
            Sample::Scalar(_) => None,
        }
    }
}

/// Parses a rendered label set (`k="v",k2="v2"`) into pairs,
/// escape-aware: `\\`, `\"`, and `\n` inside a quoted value decode to
/// the characters they stand for. A bare (unquoted) value, an unknown
/// escape, or an unterminated quote is an error — those are the
/// corruptions a truncated scrape produces.
fn parse_label_set(labels: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut chars = labels.chars().peekable();
    while chars.peek().is_some() {
        let mut name = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            name.push(c);
        }
        let name = name.trim().to_owned();
        if name.is_empty() {
            return Err("empty label name".to_owned());
        }
        if chars.next() != Some('"') {
            return Err(format!("label `{name}` value is not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    Some(c) => return Err(format!("bad escape `\\{c}` in label `{name}`")),
                    None => return Err(format!("unterminated value for label `{name}`")),
                },
                Some(c) => value.push(c),
                None => return Err(format!("unterminated value for label `{name}`")),
            }
        }
        pairs.push((name, value));
        match chars.next() {
            None | Some(',') => {} // trailing comma is tolerated
            Some(c) => return Err(format!("unexpected `{c}` after a label value")),
        }
    }
    Ok(pairs)
}

/// Re-renders parsed label pairs in the canonical form this crate's
/// renderer emits, so [`Snapshot::labeled`] lookups written against
/// rendered text keep matching even when a value needed escaping.
fn canonical_label_set(labels: &str) -> Result<String, String> {
    let pairs = parse_label_set(labels)?;
    Ok(pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect::<Vec<_>>()
        .join(","))
}

/// Intermediate histogram accumulation.
#[derive(Default)]
struct HistAcc {
    /// (bound, cumulative count) pairs in input order.
    buckets: Vec<(f64, u64)>,
    inf: Option<u64>,
    sum: Option<f64>,
    count: Option<u64>,
}

/// Parses exposition text. Unknown comment lines are skipped; a
/// malformed sample line is an error naming its line number.
pub fn parse(text: &str) -> Result<Snapshot, String> {
    let mut snapshot = Snapshot::default();
    let mut hists: BTreeMap<String, HistAcc> = BTreeMap::new();
    let mut hist_names: Vec<String> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without a name"))?;
            if parts.next() == Some("histogram") {
                hist_names.push(name.to_owned());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }

        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample lacks a value"))?;
        let value: f64 = value
            .parse()
            .or(match value {
                "+Inf" => Ok(f64::INFINITY),
                "-Inf" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                _ => Err(()),
            })
            .map_err(|()| format!("line {lineno}: bad sample value `{value}`"))?;
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                (n, labels)
            }
            None => (series, ""),
        };
        if name.is_empty() {
            return Err(format!("line {lineno}: sample lacks a name"));
        }

        // Histogram series fold into their family's accumulator.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix).map(|b| (b, *suffix)));
        if let Some((base, suffix)) = base {
            if hist_names.iter().any(|h| h == base) {
                let acc = hists.entry(base.to_owned()).or_default();
                match suffix {
                    "_bucket" => {
                        let pairs =
                            parse_label_set(labels).map_err(|e| format!("line {lineno}: {e}"))?;
                        let le = pairs
                            .iter()
                            .find(|(k, _)| k == "le")
                            .map(|(_, v)| v.as_str())
                            .ok_or_else(|| format!("line {lineno}: bucket lacks an le label"))?;
                        if le == "+Inf" {
                            acc.inf = Some(value as u64);
                        } else {
                            let bound: f64 = le
                                .parse()
                                .map_err(|_| format!("line {lineno}: bad le `{le}`"))?;
                            acc.buckets.push((bound, value as u64));
                        }
                    }
                    "_sum" => acc.sum = Some(value),
                    _ => acc.count = Some(value as u64),
                }
                continue;
            }
        }

        let labels = if labels.is_empty() {
            String::new()
        } else {
            canonical_label_set(labels).map_err(|e| format!("line {lineno}: {e}"))?
        };
        let entry = snapshot
            .families
            .entry(name.to_owned())
            .or_insert_with(|| Sample::Scalar(BTreeMap::new()));
        match entry {
            Sample::Scalar(values) => {
                values.insert(labels, value);
            }
            Sample::Histogram(_) => {
                return Err(format!(
                    "line {lineno}: scalar sample for histogram family `{name}`"
                ))
            }
        }
    }

    for (name, acc) in hists {
        // De-cumulate the bucket counts back into per-bucket form.
        let mut bounds = Vec::with_capacity(acc.buckets.len());
        let mut buckets = Vec::with_capacity(acc.buckets.len() + 1);
        let mut prev = 0u64;
        for (bound, cum) in &acc.buckets {
            if *cum < prev {
                return Err(format!(
                    "histogram `{name}`: bucket counts are not cumulative"
                ));
            }
            bounds.push(*bound);
            buckets.push(cum - prev);
            prev = *cum;
        }
        let count = acc.count.or(acc.inf).unwrap_or(prev);
        let inf = acc.inf.unwrap_or(count);
        if inf < prev {
            return Err(format!(
                "histogram `{name}`: +Inf bucket below the last finite bucket"
            ));
        }
        buckets.push(inf - prev);
        snapshot.families.insert(
            name,
            Sample::Histogram(HistogramSnapshot {
                bounds,
                buckets,
                count,
                sum: acc.sum.unwrap_or(0.0),
            }),
        );
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn roundtrips_registry_render() {
        let registry = Registry::new();
        registry.counter("a_total", "A").add(7);
        registry.gauge("depth", "D").set(-3);
        let gv = registry.gauge_vec("jobs", "J", "state", &["queued", "done"]);
        gv.with("queued").set(4);
        let h = registry.histogram("lat_ms", "L", &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0] {
            h.observe(v);
        }

        let snap = parse(&registry.render()).expect("rendered text parses");
        assert_eq!(snap.scalar("a_total"), Some(7.0));
        assert_eq!(snap.scalar("depth"), Some(-3.0));
        assert_eq!(snap.labeled("jobs", "state=\"queued\""), Some(4.0));
        assert_eq!(snap.labeled("jobs", "state=\"done\""), Some(0.0));
        let hist = snap.histogram("lat_ms").expect("histogram family");
        assert_eq!(hist.bounds, vec![1.0, 10.0, 100.0]);
        assert_eq!(hist.buckets, vec![1, 1, 1, 1]);
        assert_eq!(hist.count, 4);
        assert!((hist.sum - 555.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("no_value_here").is_err());
        assert!(parse("name{unterminated 3").is_err());
        assert!(parse("x nope").is_err());
        assert!(parse(" 3").is_err());
        assert!(
            parse("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_count 5")
                .is_err(),
            "non-cumulative buckets rejected"
        );
    }

    #[test]
    fn tolerates_foreign_comments_and_inf() {
        let snap = parse("# a random comment\nup 1\nx +Inf\n").unwrap();
        assert_eq!(snap.scalar("up"), Some(1.0));
        assert_eq!(snap.scalar("x"), Some(f64::INFINITY));
    }

    #[test]
    fn roundtrips_hostile_label_values() {
        let registry = Registry::new();
        let gv = registry.gauge_vec(
            "weird",
            "W",
            "v",
            &["back\\slash", "quo\"te", "new\nline", "sp ace,brace={}"],
        );
        gv.with("back\\slash").set(1);
        gv.with("quo\"te").set(2);
        gv.with("new\nline").set(3);
        gv.with("sp ace,brace={}").set(4);
        let text = registry.render();
        // Line-per-sample survives: the newline inside a label value
        // is escaped, not emitted raw.
        assert_eq!(text.lines().count(), 2 + 4, "{text}");
        assert!(text.contains("weird{v=\"back\\\\slash\"} 1"));
        assert!(text.contains("weird{v=\"quo\\\"te\"} 2"));
        assert!(text.contains("weird{v=\"new\\nline\"} 3"));
        let snap = parse(&text).expect("escaped exposition parses");
        assert_eq!(snap.labeled("weird", "v=\"back\\\\slash\""), Some(1.0));
        assert_eq!(snap.labeled("weird", "v=\"quo\\\"te\""), Some(2.0));
        assert_eq!(snap.labeled("weird", "v=\"new\\nline\""), Some(3.0));
        assert_eq!(snap.labeled("weird", "v=\"sp ace,brace={}\""), Some(4.0));
    }

    #[test]
    fn help_text_is_escaped() {
        let registry = Registry::new();
        registry.counter("c_total", "line one\nline \\two").inc();
        let text = registry.render();
        assert!(
            text.contains("# HELP c_total line one\\nline \\\\two"),
            "{text}"
        );
        let snap = parse(&text).unwrap();
        assert_eq!(snap.scalar("c_total"), Some(1.0));
    }

    #[test]
    fn rejects_corrupt_label_sets() {
        assert!(parse("x{v=unquoted} 1").is_err());
        assert!(parse("x{v=\"open} 1").is_err(), "unterminated quote");
        assert!(parse("x{v=\"bad\\qesc\"} 1").is_err(), "unknown escape");
        assert!(parse("x{=\"y\"} 1").is_err(), "empty label name");
        assert!(parse("x{v=\"a\"extra} 1").is_err(), "junk after value");
    }

    #[test]
    fn negative_gauge_and_all_inf_histogram_roundtrip() {
        let registry = Registry::new();
        registry.gauge("delta", "D").set(-42);
        let h = registry.histogram("all_inf", "H", &[1.0]);
        h.observe(5.0);
        h.observe(7.0);
        let text = registry.render();
        assert!(text.contains("all_inf_bucket{le=\"+Inf\"} 2"));
        let snap = parse(&text).unwrap();
        assert_eq!(snap.scalar("delta"), Some(-42.0));
        let hist = snap.histogram("all_inf").unwrap();
        assert_eq!(hist.buckets, vec![0, 2]);
        assert_eq!(hist.count, 2);
    }

    #[test]
    fn nan_scalar_parses() {
        let snap = parse("x NaN\n").unwrap();
        assert!(snap.scalar("x").unwrap().is_nan());
    }

    #[test]
    fn histogram_without_count_uses_inf_bucket() {
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\n";
        let snap = parse(text).unwrap();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets, vec![2, 3]);
    }
}
