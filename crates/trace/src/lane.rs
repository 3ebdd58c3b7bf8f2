//! The per-lane span buffer: spans behind a mutex, written by exactly
//! one thread (the checkout protocol in [`crate::Tracer::lane`]) and
//! copied out, under the lock, by collectors. It grows as spans
//! arrive, up to the tracer's per-lane capacity; past that, each new
//! span evicts the oldest and counts it as dropped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::{LaneSnapshot, SpanRecord};

/// One recorded span: 48 bytes, its name and category borrowed from
/// the instrumented call site.
#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    cat: &'static str,
    /// Start, nanoseconds since the tracer epoch.
    ts_ns: u64,
    dur_ns: u64,
}

/// The shared state of one lane: its buffer plus its checkout flag.
pub(crate) struct LaneShared {
    name: String,
    capacity: usize,
    /// The surviving spans, oldest first, and how many were evicted
    /// before them. Every update leaves both valid, so a poisoned lock
    /// is taken over rather than passed on as a panic.
    buffer: Mutex<(VecDeque<Span>, u64)>,
    busy: AtomicBool,
}

impl LaneShared {
    /// A lane named `name`, already checked out to its first writer.
    /// Its buffer allocates with the first span, not here.
    pub(crate) fn checked_out(name: &str, capacity: usize) -> LaneShared {
        LaneShared {
            name: name.to_owned(),
            capacity,
            buffer: Mutex::default(),
            busy: AtomicBool::new(true),
        }
    }

    /// Claims exclusive write access to this lane if it is named
    /// `name` and checked in; true on success.
    pub(crate) fn checkout(&self, name: &str) -> bool {
        self.name == name && !self.busy.swap(true, Ordering::AcqRel)
    }

    /// Writer-side push. Only the checkout holder may call this.
    fn push(&self, span: Span) {
        let (spans, dropped) = &mut *self.buffer.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() == self.capacity {
            spans.pop_front();
            *dropped += 1;
        }
        spans.push_back(span);
    }

    /// Reader-side collection: the surviving spans sorted by start
    /// time (recording order among equal starts) and the dropped
    /// count. The lock is held only to copy the buffer.
    pub(crate) fn snapshot(&self, base_unix_ns: u64) -> LaneSnapshot {
        let (copied, dropped): (Vec<Span>, u64) = {
            let (spans, dropped) = &*self.buffer.lock().unwrap_or_else(PoisonError::into_inner);
            (spans.iter().copied().collect(), *dropped)
        };
        let mut spans: Vec<SpanRecord> = copied
            .into_iter()
            .map(|s| SpanRecord {
                name: s.name.to_owned(),
                cat: s.cat.to_owned(),
                ts_ns: base_unix_ns + s.ts_ns,
                dur_ns: s.dur_ns,
            })
            .collect();
        spans.sort_by_key(|s| s.ts_ns);
        LaneSnapshot {
            name: self.name.clone(),
            spans,
            dropped,
        }
    }
}

/// The exclusive writer handle for one lane. Checked out from
/// [`crate::Tracer::lane`]; dropping it checks the lane back in.
/// Recording a span takes the lane's lock once, uncontended unless a
/// collector is copying the lane at that moment.
pub struct Lane {
    pub(crate) shared: Arc<LaneShared>,
    pub(crate) epoch: Instant,
}

impl Lane {
    /// Records a completed span that started at `start` and ran `dur`.
    pub fn span(&mut self, name: &'static str, cat: &'static str, start: Instant, dur: Duration) {
        self.span_rel(name, cat, self.rel_of(start), dur.as_nanos() as u64);
    }

    /// Records a completed span by epoch-relative nanoseconds. Used by
    /// the synthetic cost-term children (laid out inside a measured
    /// block) and by tests.
    pub fn span_rel(&mut self, name: &'static str, cat: &'static str, ts_ns: u64, dur_ns: u64) {
        self.shared.push(Span {
            name,
            cat,
            ts_ns,
            dur_ns,
        });
    }

    /// Records an instant marker (zero-duration span) at `at`.
    pub fn mark(&mut self, name: &'static str, cat: &'static str, at: Instant) {
        self.span_rel(name, cat, self.rel_of(at), 0);
    }

    /// Epoch-relative nanoseconds of `t` on this lane's clock (0 for an
    /// instant before the epoch).
    pub fn rel_of(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64)
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.shared.busy.store(false, Ordering::Release);
    }
}
