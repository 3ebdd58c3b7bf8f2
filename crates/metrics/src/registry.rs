//! The metric primitives and the registry that renders them.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed-point scale of histogram sums: values are accumulated as
/// `value * 1000` rounded, so fractional milliseconds survive without a
/// compare-and-swap loop over f64 bits.
const SUM_SCALE: f64 = 1000.0;

/// A monotonically increasing counter.
///
/// Handles are cheap `Arc` clones; increments are one relaxed
/// `fetch_add`.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depth, busy workers).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            cell: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.cell.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One gauge per label value — e.g. `twmc_jobs{state="queued"}`.
#[derive(Clone)]
pub struct GaugeVec {
    label: &'static str,
    values: Arc<Vec<(&'static str, Gauge)>>,
}

impl GaugeVec {
    /// The gauge for `value`; panics on a label value that was not
    /// declared at registration (a programming error, not runtime data).
    pub fn with(&self, value: &str) -> &Gauge {
        self.values
            .iter()
            .find(|(v, _)| *v == value)
            .map(|(_, g)| g)
            .unwrap_or_else(|| panic!("gauge label value `{value}` was not registered"))
    }
}

/// A fixed-bucket histogram. Bucket upper bounds are set at
/// registration; observations are non-negative and clamp into the
/// implicit `+Inf` bucket.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramCore>,
}

struct HistogramCore {
    bounds: Vec<f64>,
    /// One cell per finite bound plus the +Inf bucket (non-cumulative;
    /// cumulated at render time).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Fixed-point sum (`value * SUM_SCALE`, rounded).
    sum: AtomicU64,
}

/// A point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (non-cumulative; last entry is the +Inf bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        let core = &*self.inner;
        // Linear scan: bucket counts are small (≤ 16) and the bounds
        // are in cache; a branchy binary search buys nothing here.
        let mut idx = core.bounds.len();
        for (i, &b) in core.bounds.iter().enumerate() {
            if value <= b {
                idx = i;
                break;
            }
        }
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let fixed = (value.max(0.0) * SUM_SCALE).round() as u64;
        core.sum.fetch_add(fixed, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (relaxed loads; exact
    /// once producers quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.inner;
        HistogramSnapshot {
            bounds: core.bounds.clone(),
            buckets: core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: core.count.load(Ordering::Relaxed),
            sum: core.sum.load(Ordering::Relaxed) as f64 / SUM_SCALE,
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    GaugeVec(GaugeVec),
    Histogram(Histogram),
}

struct Family {
    name: &'static str,
    help: &'static str,
    metric: Metric,
}

/// The metric registry: get-or-register families by name, render them
/// all as Prometheus text exposition. Registration takes a mutex;
/// recording through the returned handles is lock-free.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &'static str,
        pick: impl Fn(&Metric) -> Option<T>,
        make: impl FnOnce() -> (Metric, T),
        help: &'static str,
    ) -> T {
        let mut families = self.families.lock().unwrap();
        if let Some(f) = families.iter().find(|f| f.name == name) {
            return pick(&f.metric)
                .unwrap_or_else(|| panic!("metric `{name}` already registered with another type"));
        }
        let (metric, handle) = make();
        families.push(Family { name, help, metric });
        handle
    }

    /// Gets or registers a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (Metric::Counter(c.clone()), c)
            },
            help,
        )
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (Metric::Gauge(g.clone()), g)
            },
            help,
        )
    }

    /// Gets or registers a labeled gauge family with a fixed value set.
    pub fn gauge_vec(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        values: &[&'static str],
    ) -> GaugeVec {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::GaugeVec(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = GaugeVec {
                    label,
                    values: Arc::new(values.iter().map(|&v| (v, Gauge::new())).collect()),
                };
                (Metric::GaugeVec(g.clone()), g)
            },
            help,
        )
    }

    /// Gets or registers a histogram with the given finite bucket
    /// bounds (strictly increasing; `+Inf` is implicit).
    pub fn histogram(&self, name: &'static str, help: &'static str, bounds: &[f64]) -> Histogram {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::new(bounds);
                (Metric::Histogram(h.clone()), h)
            },
            help,
        )
    }

    /// Renders every family as Prometheus text exposition 0.0.4, in
    /// registration order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().unwrap();
        for f in families.iter() {
            let kind = match f.metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) | Metric::GaugeVec(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, kind);
            match &f.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{} {}", f.name, c.value());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", f.name, g.value());
                }
                Metric::GaugeVec(g) => {
                    for (value, gauge) in g.values.iter() {
                        let _ = writeln!(
                            out,
                            "{}{{{}=\"{}\"}} {}",
                            f.name,
                            g.label,
                            escape_label_value(value),
                            gauge.value()
                        );
                    }
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, n) in snap.buckets.iter().enumerate() {
                        cum += n;
                        let le = match snap.bounds.get(i) {
                            Some(b) => format_bound(*b),
                            None => "+Inf".to_owned(),
                        };
                        let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cum}", f.name);
                    }
                    let _ = writeln!(out, "{}_sum {}", f.name, format_bound(snap.sum));
                    let _ = writeln!(out, "{}_count {}", f.name, snap.count);
                }
            }
        }
        out
    }

    /// Snapshot of one histogram family (`None` if not registered as
    /// a histogram).
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        let families = self.families.lock().unwrap();
        families.iter().find(|f| f.name == name).and_then(|f| {
            if let Metric::Histogram(h) = &f.metric {
                Some(h.snapshot())
            } else {
                None
            }
        })
    }
}

/// Escapes `# HELP` text per exposition 0.0.4, which defines exactly
/// two escapes there: backslash (`\\`) and line feed (`\n`). Without
/// this, a help string containing a newline splits the comment into a
/// second, malformed line.
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes a label value per exposition 0.0.4: backslash (`\\`),
/// double quote (`\"`), and line feed (`\n`).
pub fn escape_label_value(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats a bound/sum compactly: integral values without a trailing
/// `.0` (so `le="1000"` not `le="1000.0"`), fractional ones with
/// their natural decimal form.
fn format_bound(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let registry = Registry::new();
        let c = registry.counter("t_total", "test");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        c.add(5);
        assert_eq!(c.value(), 4005);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let registry = Registry::new();
        let g = registry.gauge("depth", "test");
        g.set(7);
        g.add(-3);
        assert_eq!(g.value(), 4);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let registry = Registry::new();
        let h = registry.histogram("lat", "test", &[10.0, 100.0, 1000.0]);
        for v in [5.0, 50.0, 500.0, 5000.0, 0.5] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![2, 1, 1, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 5555.5).abs() < 1e-6, "{}", snap.sum);
    }

    #[test]
    fn get_or_register_returns_same_handle() {
        let registry = Registry::new();
        let a = registry.counter("same", "test");
        let b = registry.counter("same", "test");
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("clash", "test");
        registry.gauge("clash", "test");
    }

    #[test]
    fn render_is_valid_exposition() {
        let registry = Registry::new();
        registry.counter("jobs_total", "Jobs").add(3);
        registry.gauge("queue_depth", "Depth").set(2);
        let gv = registry.gauge_vec("jobs", "By state", "state", &["queued", "done"]);
        gv.with("done").set(1);
        let h = registry.histogram("wait_ms", "Wait", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(30.0);
        let text = registry.render();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 3"));
        assert!(text.contains("queue_depth 2"));
        assert!(text.contains("jobs{state=\"queued\"} 0"));
        assert!(text.contains("jobs{state=\"done\"} 1"));
        assert!(text.contains("wait_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("wait_ms_bucket{le=\"10\"} 1"));
        assert!(text.contains("wait_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("wait_ms_sum 30.5"));
        assert!(text.contains("wait_ms_count 2"));
    }
}
