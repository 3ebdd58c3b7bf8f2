//! Span tracing for the TimberWolfMC reproduction.
//!
//! The metrics plane (`twmc-metrics`) answers "how much, how often";
//! this crate answers "*where did the wall clock go*": hierarchical
//! spans — run → stage1 → temp_step → move-block, cost terms inside
//! move evaluation, route iterations, checkpoint writes, daemon job
//! lifecycles — recorded into per-thread lock-free ring buffers and
//! exported as Chrome Trace Event JSON (Perfetto / `chrome://tracing`)
//! or folded into a self-time attribution table.
//!
//! Design rules, in priority order:
//!
//! 1. **Zero cost when off.** Instrumented code asks its recorder for
//!    a tracer once per scope (`Recorder::tracer()`, mirroring
//!    `hub()`); with no tracer attached not a single atomic is touched.
//! 2. **Bit-identical results when on.** Recording reads clocks and
//!    writes ring slots — it never touches an RNG stream or a cost
//!    value, so a traced run places identically to an untraced one.
//! 3. **Bounded memory, never blocking.** Each lane is a fixed-size
//!    power-of-two ring written by exactly one thread. When a lane
//!    wraps, the oldest spans are evicted and counted as dropped;
//!    recording never allocates after lane checkout, never locks, and
//!    never waits for a reader.
//! 4. **Eviction cannot corrupt structure.** Spans are *complete*
//!    events (start + duration); parent/child nesting is re-derived
//!    from time containment at read time, so losing an old span can
//!    never orphan or misparent a surviving one.
//!
//! The hot-path protocol matches the benched `MOVE_EVAL_SAMPLE` trick
//! from the metrics plane: one span per 32-move block (two `Instant`
//! reads that are shared with the block-latency histogram), keeping
//! the traced path under the same <2% per-move overhead gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
mod chrome;
mod profile;
mod ring;

pub use capture::capture_to_string;
pub use chrome::chrome_trace_json;
pub use profile::{profile, Profile, ProfileRow};
pub use ring::{Lane, LaneShared};

use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default per-lane span capacity (slots). Power of two; at one span
/// per 32-move block this holds the last ~2M move evaluations per
/// thread, plus every coarse span of any realistic run.
pub const DEFAULT_LANE_CAPACITY: usize = 65_536;

/// Span names are interned to `u32` ids so a ring slot is four words.
/// The table is append-only under a mutex; writers hit it only on a
/// lane-local cache miss (a handful of times per lane, ever).
#[derive(Default)]
struct Interner {
    names: Mutex<Vec<&'static str>>,
}

impl Interner {
    fn intern(&self, name: &'static str) -> u32 {
        let mut names = self.names.lock().unwrap();
        if let Some(id) = names.iter().position(|n| *n == name) {
            return id as u32;
        }
        names.push(name);
        (names.len() - 1) as u32
    }

    fn resolve(&self) -> Vec<String> {
        self.names
            .lock()
            .unwrap()
            .iter()
            .map(|n| (*n).to_owned())
            .collect()
    }
}

/// One recorded span, resolved into owned form by [`Tracer::collect`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`move_block`, `temp_step`, `route_net`, ...).
    pub name: String,
    /// Category (`place`, `route`, `cost`, `ckpt`, `serve`, `run`).
    pub cat: String,
    /// Start time in nanoseconds since the Unix epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 = instant marker).
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End time in nanoseconds since the Unix epoch.
    pub fn end_ns(&self) -> u64 {
        self.ts_ns + self.dur_ns
    }
}

/// One lane of a collected trace: the surviving spans of one writer
/// thread, in recording (completion) order.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// Lane name (`main`, `replica3`, `rung2`, `route`, `job`, ...).
    pub name: String,
    /// Surviving spans.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted by ring wraparound before this collection.
    pub dropped: u64,
}

/// A collected trace: every lane's surviving spans plus drop counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Nanoseconds since the Unix epoch at tracer creation; span
    /// timestamps are absolute, so snapshots from separate processes
    /// share one timeline.
    pub base_unix_ns: u64,
    /// Per-writer lanes.
    pub lanes: Vec<LaneSnapshot>,
}

impl TraceSnapshot {
    /// Total surviving spans across all lanes.
    pub fn total_spans(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// Total dropped (evicted) spans across all lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// The lane named `name`, if present.
    pub fn lane(&self, name: &str) -> Option<&LaneSnapshot> {
        self.lanes.iter().find(|l| l.name == name)
    }
}

/// The tracing hub: owns the lane pool and the name table. Cloned by
/// `Arc` into every instrumented scope (recorders hand out
/// `Option<&Arc<Tracer>>`, exactly like the metrics hub).
pub struct Tracer {
    epoch: Instant,
    base_unix_ns: u64,
    capacity: usize,
    interner: Arc<Interner>,
    lanes: Mutex<Vec<Arc<LaneShared>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .field("lanes", &self.lanes.lock().unwrap().len())
            .finish()
    }
}

impl Tracer {
    /// A tracer with the default per-lane capacity.
    pub fn new() -> Arc<Tracer> {
        Tracer::with_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A tracer whose lanes hold `capacity` spans each (rounded up to
    /// a power of two, minimum 8) before evicting the oldest.
    pub fn with_capacity(capacity: usize) -> Arc<Tracer> {
        let capacity = capacity.max(8).next_power_of_two();
        let base_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Arc::new(Tracer {
            epoch: Instant::now(),
            base_unix_ns,
            capacity,
            interner: Arc::new(Interner::default()),
            lanes: Mutex::new(Vec::new()),
        })
    }

    /// Checks out the writer handle for the lane named `name`,
    /// creating it on first use. A lane has exactly one writer at a
    /// time: re-checking-out a name still held elsewhere yields a
    /// fresh ring under the same name (collected as a separate lane),
    /// so two threads can never race one ring. Dropping the [`Lane`]
    /// checks it back in. This is the only lock on the recording path,
    /// paid once per scope (per temp step, per route call, per job) —
    /// never per span.
    pub fn lane(self: &Arc<Self>, name: &str) -> Lane {
        let mut lanes = self.lanes.lock().unwrap();
        let shared = match lanes.iter().find(|l| l.name() == name && l.checkout()) {
            Some(found) => Arc::clone(found),
            None => {
                let fresh = Arc::new(LaneShared::new(name.to_owned(), self.capacity));
                assert!(fresh.checkout(), "fresh lane is checked in");
                lanes.push(Arc::clone(&fresh));
                fresh
            }
        };
        Lane::new(shared, Arc::clone(&self.interner), self.epoch)
    }

    /// Collects every lane's surviving spans into an owned snapshot.
    /// Safe to call while writers are live (a span being written at
    /// this instant is skipped, not torn); lanes appear in creation
    /// order and spans within a lane in recording order.
    pub fn collect(&self) -> TraceSnapshot {
        let names = self.interner.resolve();
        let lanes = self.lanes.lock().unwrap();
        let mut out = Vec::with_capacity(lanes.len());
        for lane in lanes.iter() {
            let (mut spans, dropped) = lane.read(&names, self.base_unix_ns);
            spans.sort_by_key(|s| s.ts_ns);
            out.push(LaneSnapshot {
                name: lane.name().to_owned(),
                spans,
                dropped,
            });
        }
        TraceSnapshot {
            base_unix_ns: self.base_unix_ns,
            lanes: out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rel(lane: &mut Lane, name: &'static str, cat: &'static str, ts: u64, dur: u64) {
        lane.span_rel(name, cat, ts, dur);
    }

    #[test]
    fn records_and_collects_spans() {
        let tracer = Tracer::with_capacity(64);
        let mut lane = tracer.lane("main");
        rel(&mut lane, "inner", "place", 100, 50);
        rel(&mut lane, "outer", "place", 0, 1000);
        drop(lane);
        let snap = tracer.collect();
        assert_eq!(snap.lanes.len(), 1);
        let lane = &snap.lanes[0];
        assert_eq!(lane.name, "main");
        assert_eq!(lane.dropped, 0);
        // Sorted by start time at collection.
        assert_eq!(lane.spans[0].name, "outer");
        assert_eq!(lane.spans[1].name, "inner");
        assert_eq!(lane.spans[1].ts_ns, snap.base_unix_ns + 100);
        assert_eq!(lane.spans[1].dur_ns, 50);
    }

    #[test]
    fn instant_based_spans_use_the_epoch() {
        let tracer = Tracer::new();
        let mut lane = tracer.lane("main");
        let t0 = Instant::now();
        lane.span("work", "place", t0, Duration::from_micros(5));
        drop(lane);
        let snap = tracer.collect();
        let span = &snap.lanes[0].spans[0];
        assert_eq!(span.dur_ns, 5_000);
        assert!(span.ts_ns >= snap.base_unix_ns);
    }

    #[test]
    fn wraparound_evicts_oldest_and_counts_drops() {
        let tracer = Tracer::with_capacity(8);
        let mut lane = tracer.lane("main");
        for i in 0..100u64 {
            rel(&mut lane, "s", "place", i * 10, 5);
        }
        drop(lane);
        let snap = tracer.collect();
        let lane = &snap.lanes[0];
        assert_eq!(lane.spans.len(), 8);
        assert_eq!(lane.dropped, 92);
        // The survivors are exactly the newest 8, still in order.
        let ts: Vec<u64> = lane
            .spans
            .iter()
            .map(|s| s.ts_ns - snap.base_unix_ns)
            .collect();
        assert_eq!(ts, (92..100).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn wraparound_preserves_containment_nesting() {
        // Parents recorded after their children (completion order, as
        // the real instrumentation does). After heavy eviction the
        // survivors must still profile without panicking and with
        // exclusive time <= inclusive time everywhere.
        let tracer = Tracer::with_capacity(16);
        let mut lane = tracer.lane("main");
        for step in 0..50u64 {
            let base = step * 1_000;
            for blk in 0..4u64 {
                rel(&mut lane, "move_block", "place", base + blk * 200, 180);
            }
            rel(&mut lane, "temp_step", "place", base, 900);
        }
        drop(lane);
        let snap = tracer.collect();
        assert_eq!(snap.lanes[0].spans.len(), 16);
        assert!(snap.dropped() > 0);
        let prof = profile(&snap);
        for row in &prof.rows {
            assert!(row.excl_ns <= row.incl_ns, "{row:?}");
        }
    }

    #[test]
    fn lane_checkout_is_exclusive_and_reusable() {
        let tracer = Tracer::with_capacity(16);
        let mut a = tracer.lane("main");
        rel(&mut a, "x", "place", 0, 1);
        // Same name while held: a distinct ring, not a shared writer.
        let mut b = tracer.lane("main");
        rel(&mut b, "y", "place", 5, 1);
        drop(a);
        drop(b);
        // After check-in the original ring is reused.
        let mut c = tracer.lane("main");
        rel(&mut c, "z", "place", 9, 1);
        drop(c);
        let snap = tracer.collect();
        assert_eq!(snap.lanes.len(), 2);
        let names: Vec<&str> = snap.lanes[0]
            .spans
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, ["x", "z"]);
        assert_eq!(snap.lanes[1].spans[0].name, "y");
    }

    #[test]
    fn concurrent_collect_never_tears_or_panics() {
        let tracer = Tracer::with_capacity(32);
        let writer = {
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                let mut lane = tracer.lane("w");
                for i in 0..20_000u64 {
                    // dur encodes ts so a torn read would be visible.
                    lane.span_rel("s", "place", i, i + 1);
                }
            })
        };
        let mut seen = 0usize;
        while !writer.is_finished() {
            let snap = tracer.collect();
            for lane in &snap.lanes {
                for s in &lane.spans {
                    let i = s.ts_ns - snap.base_unix_ns;
                    assert_eq!(s.dur_ns, i + 1, "torn slot read");
                    seen += 1;
                }
            }
        }
        writer.join().unwrap();
        let snap = tracer.collect();
        assert_eq!(
            snap.lanes[0].spans.len() as u64 + snap.lanes[0].dropped,
            20_000
        );
        let _ = seen;
    }
}
