//! Event sinks: the [`Recorder`] trait and its implementations.

use std::io::{self, BufWriter, Write};
use std::sync::Arc;

use twmc_metrics::MetricsHub;
use twmc_trace::Tracer;

use crate::Event;

/// A telemetry sink.
///
/// Producers in the hot layers hold a `&mut dyn Recorder` and guard all
/// event-construction work behind [`Recorder::enabled`]:
///
/// ```ignore
/// if rec.enabled() {
///     rec.record(&Event::PlaceTemp(expensive_to_build()));
/// }
/// ```
///
/// With the [`NullRecorder`] the guard is a single always-false branch
/// per temperature step — the inner per-move loop is never instrumented,
/// which is what bounds the disabled-path overhead (DESIGN.md §8).
/// Recording must never influence results: implementations do not touch
/// any RNG and producers call them outside the Metropolis loop.
pub trait Recorder {
    /// Whether events will be kept. Producers skip event construction
    /// when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}

    /// The live metrics hub riding this recorder, if any.
    ///
    /// Metrics are orthogonal to events: producers update hub counters
    /// and histograms whenever a hub is present, even when `enabled()`
    /// is `false` (a [`NullRecorder`] wrapped in [`Instrumented`]
    /// yields metrics without any event stream). Like event recording,
    /// metric updates must never touch an RNG.
    fn hub(&self) -> Option<&Arc<MetricsHub>> {
        None
    }

    /// The span tracer riding this recorder, if any.
    ///
    /// Mirrors [`Recorder::hub`]: tracing is orthogonal to events, and
    /// instrumented layers check out a [`twmc_trace::Lane`] per scope
    /// whenever a tracer is present, even with `enabled()` false. Like
    /// events and metrics, span recording must never touch an RNG —
    /// the traced path stays bit-identical to the untraced one.
    fn tracer(&self) -> Option<&Arc<Tracer>> {
        None
    }
}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, event: &Event) {
        (**self).record(event)
    }

    fn flush(&mut self) {
        (**self).flush()
    }

    fn hub(&self) -> Option<&Arc<MetricsHub>> {
        (**self).hub()
    }

    fn tracer(&self) -> Option<&Arc<Tracer>> {
        (**self).tracer()
    }
}

/// The disabled sink: `enabled()` is `false`, `record` is a no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &Event) {}
}

/// A buffered JSON-lines sink: one compact JSON object per event per
/// line, written through a [`BufWriter`].
///
/// I/O errors are latched rather than panicking mid-anneal: the first
/// error stops further writes and surfaces from [`JsonlRecorder::finish`].
#[derive(Debug)]
pub struct JsonlRecorder<W: Write> {
    out: BufWriter<W>,
    events: usize,
    error: Option<io::Error>,
    autoflush: bool,
}

/// A file sink with an fsync cadence: every `every`-th flush also
/// pushes the data to stable storage with `sync_data`, bounding how
/// many telemetry events power loss can cost a long daemon job.
/// `every = 0` disables the fsyncs (plain buffered file).
#[derive(Debug)]
pub struct DurableFile {
    file: std::fs::File,
    every: u64,
    flushes: u64,
}

impl Write for DurableFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()?;
        if self.every > 0 {
            self.flushes += 1;
            if self.flushes.is_multiple_of(self.every) {
                self.file.sync_data()?;
            }
        }
        Ok(())
    }
}

impl JsonlRecorder<DurableFile> {
    /// Creates (truncates) `path` and records events into it, with an
    /// fsync every `every` flushes (0 = never fsync).
    pub fn create(path: &str, every: u64) -> io::Result<Self> {
        Ok(JsonlRecorder::new(DurableFile {
            file: std::fs::File::create(path)?,
            every,
            flushes: 0,
        }))
    }

    /// Opens `path` for appending (creating it if absent), with an
    /// fsync every `every` flushes (0 = never fsync) — the resume path,
    /// where the suffix of an interrupted stream continues the prefix
    /// already on disk.
    pub fn append(path: &str, every: u64) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlRecorder::new(DurableFile {
            file,
            every,
            flushes: 0,
        }))
    }
}

impl<W: Write> JsonlRecorder<W> {
    /// Wraps any writer.
    pub fn new(writer: W) -> Self {
        JsonlRecorder {
            out: BufWriter::new(writer),
            events: 0,
            error: None,
            autoflush: false,
        }
    }

    /// Flush after every event so tailing readers see each line as soon
    /// as it is recorded. Required for live streaming (`GET
    /// /jobs/<id>/events?follow=1`), where a buffered suffix would be
    /// invisible to followers until the run ended.
    pub fn with_autoflush(mut self) -> Self {
        self.autoflush = true;
        self
    }

    /// Events recorded so far (counted even if a later write failed).
    pub fn events(&self) -> usize {
        self.events
    }

    /// Flushes and returns the inner writer, surfacing any latched or
    /// final I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.into_inner().map_err(|e| e.into_error())
    }
}

impl<W: Write> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        if self.error.is_some() {
            return;
        }
        let line = serde_json::to_string(event).expect("events always serialize");
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .and_then(|()| {
                if self.autoflush {
                    self.out.flush()
                } else {
                    Ok(())
                }
            })
        {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// An in-memory sink keeping every event — the test fixture, and the
/// buffer each replica of a multi-replica run records into, replayed
/// in replica order.
#[derive(Debug, Clone, Default)]
pub struct SummaryRecorder {
    events: Vec<Event>,
}

impl SummaryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SummaryRecorder::default()
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the recorder, returning the events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Number of events with the given `kind` tag.
    pub fn count(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// The recorded [`crate::PlaceTemp`] steps of one phase, in order.
    pub fn place_temps(&self, phase: &str) -> Vec<&crate::PlaceTemp> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::PlaceTemp(p) if p.phase == phase => Some(p),
                _ => None,
            })
            .collect()
    }
}

impl Recorder for SummaryRecorder {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Pairs any event sink with a [`MetricsHub`] and/or a span
/// [`Tracer`] so instrumentation-producing layers see them through
/// [`Recorder::hub`] / [`Recorder::tracer`] without new plumbing.
///
/// The inner recorder keeps full control of the event stream —
/// `Instrumented<NullRecorder>` yields live metrics (or a trace) with
/// zero events.
pub struct Instrumented<R: Recorder> {
    inner: R,
    hub: Option<Arc<MetricsHub>>,
    tracer: Option<Arc<Tracer>>,
}

impl<R: Recorder> Instrumented<R> {
    /// Attaches an optional hub and an optional tracer to `inner`.
    pub fn new(inner: R, hub: Option<Arc<MetricsHub>>, tracer: Option<Arc<Tracer>>) -> Self {
        Instrumented { inner, hub, tracer }
    }

    /// Unwraps back into the inner sink.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Recorder> Recorder for Instrumented<R> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: &Event) {
        self.inner.record(event);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn hub(&self) -> Option<&Arc<MetricsHub>> {
        self.hub.as_ref().or_else(|| self.inner.hub())
    }

    fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref().or_else(|| self.inner.tracer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageSpan;

    fn span(us: u64) -> Event {
        Event::StageSpan(StageSpan {
            stage: "stage1",
            iteration: 0,
            wall_us: us,
        })
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(&span(1)); // no-op, no panic
        r.flush();
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut r = JsonlRecorder::new(Vec::new());
        assert!(r.enabled());
        r.record(&span(1));
        r.record(&span(2));
        assert_eq!(r.events(), 2);
        let bytes = r.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn jsonl_latches_io_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Capacity 0 forces the BufWriter to hit the sink immediately.
        let mut r = JsonlRecorder {
            out: BufWriter::with_capacity(0, Failing),
            events: 0,
            error: None,
            autoflush: false,
        };
        r.record(&span(1));
        r.record(&span(2)); // must not panic after the first failure
        assert_eq!(r.events(), 2);
        assert!(r.finish().is_err());
    }

    #[test]
    fn summary_counts_kinds() {
        let mut r = SummaryRecorder::new();
        r.record(&span(1));
        r.record(&span(2));
        assert_eq!(r.count("stage_span"), 2);
        assert_eq!(r.count("run_start"), 0);
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.into_events().len(), 2);
    }
}
