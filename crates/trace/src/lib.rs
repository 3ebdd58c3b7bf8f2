//! Span tracing for the TimberWolfMC reproduction.
//!
//! The metrics plane (`twmc-metrics`) answers "how much, how often";
//! this crate answers "*where did the wall clock go*": hierarchical
//! spans — run → stage1 → temp_step → move-block, cost terms inside
//! move evaluation, route iterations, checkpoint writes, daemon job
//! lifecycles — recorded into per-thread span buffers and exported as
//! Chrome Trace Event JSON (Perfetto / `chrome://tracing`) or folded
//! into a self-time attribution table.
//!
//! Design rules, in priority order:
//!
//! 1. **Zero cost when off.** Instrumented code asks its recorder for
//!    a tracer once per scope (`Recorder::tracer()`, mirroring
//!    `hub()`); with no tracer attached not a single atomic is touched.
//! 2. **Bit-identical results when on.** Recording reads clocks and
//!    appends to a span buffer — it never touches an RNG stream or a
//!    cost value, so a traced run places identically to an untraced one.
//! 3. **Bounded memory that grows with use.** Each lane is a span
//!    buffer behind a mutex, written by one thread, holding only the
//!    spans recorded so far, up to the lane capacity; past that, the
//!    oldest are evicted and counted as dropped. A span costs one
//!    uncontended lock; a collector locks a lane only to copy it.
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
mod lane;
mod profile;

pub use capture::capture_to_string;
pub use chrome::chrome_trace_json;
pub use lane::Lane;
pub use profile::{profile, Profile, ProfileRow};

use lane::LaneShared;
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default per-lane span capacity. At one span per 32-move block this
/// holds the last ~2M move evaluations per thread, plus every coarse
/// span of any realistic run.
pub const DEFAULT_LANE_CAPACITY: usize = 65_536;

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
/// thread, by start time.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// Lane name (`main`, `replica3`, `job`, ...).
    pub name: String,
    /// Surviving spans.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted before this collection to stay within capacity.
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

/// The tracing hub: owns the lane pool. Cloned by `Arc` into every
/// instrumented scope (recorders hand out `Option<&Arc<Tracer>>`,
/// exactly like the metrics hub).
pub struct Tracer {
    epoch: Instant,
    base_unix_ns: u64,
    capacity: usize,
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

    /// A tracer whose lanes hold up to `capacity` spans each (at least
    /// one) before evicting the oldest.
    pub fn with_capacity(capacity: usize) -> Arc<Tracer> {
        let base_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        Arc::new(Tracer {
            epoch: Instant::now(),
            base_unix_ns,
            capacity: capacity.max(1),
            lanes: Mutex::new(Vec::new()),
        })
    }

    /// Checks out the writer handle for the lane named `name`,
    /// creating it on first use. A lane has exactly one writer at a
    /// time: re-checking-out a name still held elsewhere yields a
    /// fresh lane under the same name (collected as a separate lane),
    /// so two threads never write one lane. Dropping the [`Lane`]
    /// checks it back in.
    pub fn lane(self: &Arc<Self>, name: &str) -> Lane {
        let mut lanes = self.lanes.lock().unwrap();
        let shared = match lanes.iter().find(|l| l.checkout(name)) {
            Some(found) => Arc::clone(found),
            None => {
                let fresh = Arc::new(LaneShared::checked_out(name, self.capacity));
                lanes.push(Arc::clone(&fresh));
                fresh
            }
        };
        Lane {
            shared,
            epoch: self.epoch,
        }
    }

    /// Collects every lane's surviving spans into an owned snapshot.
    /// Safe to call while writers are live: each lane is copied under
    /// its lock, so the snapshot holds every span recorded before the
    /// copy. Lanes appear in creation order and spans within a lane by
    /// start time.
    pub fn collect(&self) -> TraceSnapshot {
        let lanes = self.lanes.lock().unwrap();
        TraceSnapshot {
            base_unix_ns: self.base_unix_ns,
            lanes: lanes
                .iter()
                .map(|lane| lane.snapshot(self.base_unix_ns))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_and_collects_spans() {
        let tracer = Tracer::with_capacity(64);
        let mut lane = tracer.lane("main");
        lane.span_rel("inner", "place", 100, 50);
        lane.span_rel("outer", "place", 0, 1000);
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
            lane.span_rel("s", "place", i * 10, 5);
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
                lane.span_rel("move_block", "place", base + blk * 200, 180);
            }
            lane.span_rel("temp_step", "place", base, 900);
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
        a.span_rel("x", "place", 0, 1);
        // Same name while held: a distinct lane, not a shared writer.
        let mut b = tracer.lane("main");
        b.span_rel("y", "place", 5, 1);
        drop(a);
        drop(b);
        // After check-in the original lane is reused.
        let mut c = tracer.lane("main");
        c.span_rel("z", "place", 9, 1);
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
        let mut written = 0u64;
        loop {
            let finished = writer.is_finished();
            let snap = tracer.collect();
            for lane in &snap.lanes {
                // Span i starts at i, so the survivors of a live snapshot
                // are the newest spans written, with no gap: exactly
                // dropped..dropped + len, none torn.
                let total = lane.dropped + lane.spans.len() as u64;
                for (s, i) in lane.spans.iter().zip(lane.dropped..total) {
                    assert_eq!((s.ts_ns - snap.base_unix_ns, s.dur_ns), (i, i + 1));
                }
                assert!(total >= written, "{total} spans after {written}");
                written = total;
            }
            if finished {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(written, 20_000);
    }

    /// FNV-1a over `bytes`: the golden capture below pins every byte
    /// the capture writer emits.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn golden_capture_is_pinned() {
        // A fixed recording into 16-span lanes: `main` wraps several
        // times with each parent recorded after its children (so spans
        // arrive out of start order), `main` is checked out a second
        // time while held, and instants before the tracer's epoch clamp
        // to 0. Rebased to base 0, the capture must hash to the same
        // constant whatever the lanes store spans in.
        let before = Instant::now();
        let tracer = Tracer::with_capacity(16);
        let mut main = tracer.lane("main");
        let mut job = tracer.lane("job");
        job.mark("queued", "serve", before);
        for step in 0..9u64 {
            let base = 10_000 * step;
            for blk in 0..5u64 {
                let start = base + 100 + blk * 1_500;
                main.span_rel("move_block", "place", start, 1_400 - step);
            }
            main.span_rel("temp_step", "place", base, 9_000 + step);
            if step == 4 {
                let mut held = tracer.lane("main");
                held.span_rel("route_iter", "route", base + 50, 30);
                let dur = Duration::from_nanos(123);
                held.span("checkpoint_write", "ckpt", before, dur);
                job.span_rel("running", "serve", 7, base);
            }
        }
        main.span_rel("stage1", "run", 0, 90_000);
        job.span_rel("q\"uote", "serve", 3, 4);
        drop(main);
        drop(job);
        let mut again = tracer.lane("main");
        again.span_rel("run", "run", 0, 95_000);
        drop(again);

        let mut snap = tracer.collect();
        let base = snap.base_unix_ns;
        snap.base_unix_ns = 0;
        for lane in &mut snap.lanes {
            for span in &mut lane.spans {
                span.ts_ns -= base;
            }
        }
        let text = capture_to_string(&snap);
        let digest = fnv1a64(text.as_bytes());
        assert_eq!(digest, 16_425_552_851_278_780_806, "{text}");
    }
}
