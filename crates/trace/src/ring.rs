//! The per-lane lock-free span ring.
//!
//! Each lane is a fixed power-of-two ring of slots written by exactly
//! one thread (enforced by the checkout protocol in
//! [`crate::Tracer::lane`]) and read by any number of collectors. A
//! slot is published with a per-slot sequence stamp — odd while a
//! write is in flight, bumped to the next even value when it lands —
//! so a collector that catches a slot mid-overwrite skips it instead
//! of reporting torn data. When the ring wraps, the oldest span is
//! evicted; eviction is just the head index outrunning the capacity,
//! so the dropped count is exact and recording is wait-free.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{Interner, SpanRecord};

/// One ring slot: four atomics so readers never see a partial word.
struct Slot {
    /// Seqlock stamp: odd = write in flight, even = generation stable.
    seq: AtomicU64,
    /// `name_id << 32 | cat_id`.
    meta: AtomicU64,
    /// Start, nanoseconds since the tracer epoch.
    ts_ns: AtomicU64,
    /// Duration, nanoseconds.
    dur_ns: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            ts_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

/// The shared state of one lane: the ring plus its checkout flag.
pub struct LaneShared {
    name: String,
    mask: u64,
    slots: Vec<Slot>,
    /// Total spans ever written; `head - capacity` of them (when
    /// positive) have been evicted.
    head: AtomicU64,
    busy: AtomicBool,
}

impl LaneShared {
    pub(crate) fn new(name: String, capacity: usize) -> LaneShared {
        debug_assert!(capacity.is_power_of_two());
        LaneShared {
            name,
            mask: capacity as u64 - 1,
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            busy: AtomicBool::new(false),
        }
    }

    /// Lane name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attempts to claim exclusive write access; true on success.
    pub(crate) fn checkout(&self) -> bool {
        !self.busy.swap(true, Ordering::AcqRel)
    }

    fn checkin(&self) {
        self.busy.store(false, Ordering::Release);
    }

    /// Spans evicted by wraparound so far.
    pub fn dropped(&self) -> u64 {
        self.head
            .load(Ordering::Acquire)
            .saturating_sub(self.slots.len() as u64)
    }

    /// Writer-side push. Only the checkout holder may call this.
    fn push(&self, name_id: u32, cat_id: u32, ts_ns: u64, dur_ns: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head & self.mask) as usize];
        let open = slot.seq.load(Ordering::Relaxed) | 1;
        slot.seq.store(open, Ordering::Release);
        slot.meta.store(
            (u64::from(name_id) << 32) | u64::from(cat_id),
            Ordering::Release,
        );
        slot.ts_ns.store(ts_ns, Ordering::Release);
        slot.dur_ns.store(dur_ns, Ordering::Release);
        slot.seq.store(open.wrapping_add(1), Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Reader-side collection: the surviving spans (oldest first) and
    /// the dropped count. Slots caught mid-overwrite are skipped.
    pub(crate) fn read(&self, names: &[String], base_unix_ns: u64) -> (Vec<SpanRecord>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut spans = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i & self.mask) as usize];
            let before = slot.seq.load(Ordering::Acquire);
            if before & 1 == 1 {
                continue; // write in flight right now
            }
            let meta = slot.meta.load(Ordering::Acquire);
            let ts_ns = slot.ts_ns.load(Ordering::Acquire);
            let dur_ns = slot.dur_ns.load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // overwritten while we read it
            }
            let name_id = (meta >> 32) as usize;
            let cat_id = (meta & 0xffff_ffff) as usize;
            let unknown = "?".to_owned();
            spans.push(SpanRecord {
                name: names.get(name_id).unwrap_or(&unknown).clone(),
                cat: names.get(cat_id).unwrap_or(&unknown).clone(),
                ts_ns: base_unix_ns + ts_ns,
                dur_ns,
            });
        }
        (spans, self.dropped())
    }
}

/// The exclusive writer handle for one lane. Checked out from
/// [`crate::Tracer::lane`]; dropping it checks the lane back in.
/// Recording through a `Lane` is lock-free and allocation-free — the
/// only non-ring state is a tiny pointer-equality cache over the
/// `&'static str` span names this writer has used.
pub struct Lane {
    shared: Arc<LaneShared>,
    interner: Arc<Interner>,
    epoch: Instant,
    cache: Vec<(&'static str, u32)>,
}

impl Lane {
    pub(crate) fn new(shared: Arc<LaneShared>, interner: Arc<Interner>, epoch: Instant) -> Lane {
        Lane {
            shared,
            interner,
            epoch,
            cache: Vec::with_capacity(16),
        }
    }

    fn id(&mut self, name: &'static str) -> u32 {
        // Pointer equality first: static span names are unique per
        // call site, so this is a hit for every span after the first.
        if let Some((_, id)) = self
            .cache
            .iter()
            .find(|(cached, _)| std::ptr::eq(cached.as_ptr(), name.as_ptr()))
        {
            return *id;
        }
        let id = self.interner.intern(name);
        self.cache.push((name, id));
        id
    }

    fn rel_ns(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    }

    /// Records a completed span that started at `start` and ran `dur`.
    pub fn span(&mut self, name: &'static str, cat: &'static str, start: Instant, dur: Duration) {
        let ts = self.rel_ns(start);
        self.span_rel(name, cat, ts, dur.as_nanos() as u64);
    }

    /// Records a completed span by epoch-relative nanoseconds. Used by
    /// the synthetic cost-term children (laid out inside a measured
    /// block) and by tests.
    pub fn span_rel(&mut self, name: &'static str, cat: &'static str, ts_ns: u64, dur_ns: u64) {
        let name_id = self.id(name);
        let cat_id = self.id(cat);
        self.shared.push(name_id, cat_id, ts_ns, dur_ns);
    }

    /// Records an instant marker (zero-duration span) at `at`.
    pub fn mark(&mut self, name: &'static str, cat: &'static str, at: Instant) {
        let ts = self.rel_ns(at);
        self.span_rel(name, cat, ts, 0);
    }

    /// Epoch-relative nanoseconds of `t` on this lane's clock.
    pub fn rel_of(&self, t: Instant) -> u64 {
        self.rel_ns(t)
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.shared.checkin();
    }
}
