//! Timed intervals: the one place that decides what a closed interval
//! feeds.
//!
//! The pipeline and the daemon time their stages, phases, checkpoint
//! writes, routing executions and job waits through [`Interval`]. An
//! interval reads the clock when it opens and once more when it closes,
//! and hands that one [`Duration`] to every sink it feeds: the trace
//! span, the `stage_span` event of the six paper stages, and the hub
//! histogram of checkpoint writes, routing executions and queue waits.

use std::time::{Duration, Instant};

use crate::{Event, Recorder, StageSpan};

/// An interval the pipeline or the daemon times. The variant fixes the
/// trace span's lane, name and category, and which other sinks the
/// closed interval feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interval {
    /// A whole pipeline run; its duration is the `wall_us` of
    /// `run_end` or `run_interrupted`.
    Run,
    /// Stage 1, the placement anneal.
    Stage1,
    /// Stage 2: the refinement iterations and the final route.
    Stage2,
    /// The closing width-enforcement pass.
    Finalize,
    /// Channel definition of stage-2 iteration `k`.
    ChannelDefinition(u64),
    /// Global routing of stage-2 iteration `k`.
    GlobalRouting(u64),
    /// The low-temperature refinement anneal of stage-2 iteration `k`.
    RefineAnneal(u64),
    /// The route of the refined placement; `k` is the refinement count.
    FinalRouting(u64),
    /// One checkpoint write.
    CheckpointWrite,
    /// One global-routing execution.
    RouteIter,
    /// A daemon job's wait for its first worker.
    Queued,
    /// A daemon job's wait for a worker after a preemption.
    Preempted,
    /// One attempt of a daemon job on a worker.
    Running,
}

impl Interval {
    /// Starts timing the interval.
    pub fn open(self) -> OpenInterval {
        OpenInterval {
            interval: self,
            t0: Instant::now(),
        }
    }

    /// The trace span: `(lane, name, category)`.
    fn span(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Interval::Run => ("main", "run", "run"),
            Interval::Stage1 => ("main", "stage1", "run"),
            Interval::Stage2 => ("main", "stage2", "run"),
            Interval::Finalize => ("main", "finalize", "run"),
            Interval::ChannelDefinition(_) => ("main", "channel_definition", "route"),
            Interval::GlobalRouting(_) => ("main", "global_routing", "route"),
            Interval::RefineAnneal(_) => ("main", "refine_anneal", "place"),
            Interval::FinalRouting(_) => ("main", "final_routing", "route"),
            Interval::CheckpointWrite => ("main", "checkpoint_write", "ckpt"),
            Interval::RouteIter => ("main", "route_iter", "route"),
            Interval::Queued => ("job", "queued", "serve"),
            Interval::Preempted => ("job", "preempted", "serve"),
            Interval::Running => ("job", "running", "serve"),
        }
    }

    /// The iteration of the `stage_span` event the interval emits, for
    /// the six stages that emit one.
    fn stage_iteration(self) -> Option<u64> {
        match self {
            Interval::Stage1 | Interval::Finalize => Some(0),
            Interval::ChannelDefinition(k)
            | Interval::GlobalRouting(k)
            | Interval::RefineAnneal(k)
            | Interval::FinalRouting(k) => Some(k),
            _ => None,
        }
    }
}

/// A running [`Interval`]; [`OpenInterval::close`] ends it. Dropping
/// it unclosed (an interrupted stage) feeds nothing.
#[derive(Debug)]
#[must_use = "an interval feeds its sinks only when closed"]
pub struct OpenInterval {
    interval: Interval,
    t0: Instant,
}

impl OpenInterval {
    /// Ends the interval with one clock read and gives the duration to
    /// every sink the interval feeds that `rec` carries: the
    /// `stage_span` event (when `rec` is enabled), the hub counter and
    /// histogram, and the trace span on the interval's lane. Returns
    /// the duration.
    pub fn close(self, rec: &mut dyn Recorder) -> Duration {
        let dur = self.t0.elapsed();
        let (lane, name, cat) = self.interval.span();
        if let Some(iteration) = self.interval.stage_iteration() {
            if rec.enabled() {
                rec.record(&Event::StageSpan(StageSpan {
                    stage: name,
                    iteration,
                    wall_us: dur.as_micros() as u64,
                }));
            }
        }
        if let Some(hub) = rec.hub() {
            let ms = dur.as_secs_f64() * 1e3;
            match self.interval {
                Interval::CheckpointWrite => {
                    hub.checkpoint_writes_total.inc();
                    hub.checkpoint_write_ms.observe(ms);
                }
                Interval::RouteIter => {
                    hub.route_iters_total.inc();
                    hub.route_iter_ms.observe(ms);
                }
                Interval::Queued | Interval::Preempted => hub.queue_wait_ms.observe(ms),
                _ => {}
            }
        }
        // The lane is checked out only now, so the span lands on the lane
        // the interval's own code recorded into and nests around it.
        if let Some(tracer) = rec.tracer() {
            tracer.lane(lane).span(name, cat, self.t0, dur);
        }
        dur
    }
}
