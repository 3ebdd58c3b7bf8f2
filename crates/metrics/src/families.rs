//! The curated metric-family inventory of the TimberWolfMC workspace.
//!
//! Producers don't invent metric names ad hoc: every family the
//! pipeline or the daemon records lives here, pre-registered into one
//! [`Registry`] so hot paths hold resolved handles and `GET /metrics`
//! renders a complete inventory (zero-valued families included) from
//! the first scrape.

use std::sync::Arc;
use std::time::Instant;

use crate::registry::{Counter, Gauge, GaugeVec, Histogram, Registry};

/// Sampling block of the per-move latency histogram: the stage-1
/// Metropolis loop times `MOVE_EVAL_SAMPLE`-move blocks and records
/// the per-move average of each block. Two `Instant::now()` calls
/// (~40–60 ns) amortized over the block keep the hot-path overhead
/// well under the 2% budget — and the block body stays branch-free,
/// identical to the metrics-off loop — while still filling the
/// histogram with thousands of samples per run.
pub const MOVE_EVAL_SAMPLE: usize = 32;

/// The job lifecycle states the daemon gauges by.
pub const JOB_STATES: &[&str] = &[
    "queued",
    "running",
    "preempted",
    "done",
    "failed",
    "cancelled",
];

/// Every metric family in the workspace, pre-registered and resolved.
///
/// Shared as an `Arc` between the producers (annealing loops, router,
/// checkpoint writer, daemon) and the consumers (the daemon's
/// `GET /metrics` and `GET /healthz`). Construction is the single place the
/// inventory is defined — DESIGN.md §12 documents it.
pub struct MetricsHub {
    registry: Registry,
    /// When the hub was created (process/daemon start).
    pub start: Instant,

    // --- hot path (stage-1 / stage-2 annealing) ------------------------
    /// Sampled per-move evaluation latency, nanoseconds (averaged over
    /// [`MOVE_EVAL_SAMPLE`]-move blocks). The live source of truth for
    /// the ROADMAP sub-microsecond per-move gate.
    pub move_eval_ns: Histogram,
    /// Move attempts (all classes, cascade retries included).
    pub moves_total: Counter,
    /// Accepted moves.
    pub moves_accepted_total: Counter,
    /// Temperature steps completed.
    pub temp_steps_total: Counter,

    // --- parallel orchestration ----------------------------------------
    /// Tempering replica-exchange attempts.
    pub swap_attempts_total: Counter,
    /// Accepted replica exchanges.
    pub swaps_accepted_total: Counter,
    /// Replica worker panics absorbed by the fault-isolation boundary.
    pub replica_failures_total: Counter,

    // --- checkpoints ----------------------------------------------------
    /// Checkpoints written.
    pub checkpoint_writes_total: Counter,
    /// Checkpoint write latency, milliseconds.
    pub checkpoint_write_ms: Histogram,

    // --- routing --------------------------------------------------------
    /// Global-routing executions.
    pub route_iters_total: Counter,
    /// Wall time of one global-routing execution, milliseconds.
    pub route_iter_ms: Histogram,
    /// Channel overflow after the most recent routing execution.
    pub route_overflow: Gauge,

    // --- daemon (twmc serve) --------------------------------------------
    /// Jobs by lifecycle state (labeled gauge).
    pub jobs: GaugeVec,
    /// Jobs waiting to run (queued + preempted).
    pub queue_depth: Gauge,
    /// Configured worker threads.
    pub workers: Gauge,
    /// Workers currently running a job.
    pub workers_busy: Gauge,
    /// Time a job waited between enqueue and claim, milliseconds.
    pub queue_wait_ms: Histogram,
    /// Jobs accepted.
    pub jobs_submitted_total: Counter,
    /// Jobs finished successfully.
    pub jobs_completed_total: Counter,
    /// Jobs that errored or panicked.
    pub jobs_failed_total: Counter,
    /// Jobs cancelled by clients.
    pub jobs_cancelled_total: Counter,
    /// Preemption events.
    pub preemptions_total: Counter,
    /// Checkpoint resumes (after preemption or restart).
    pub resumes_total: Counter,
    /// Submissions rejected by backpressure.
    pub rejected_total: Counter,
    /// Job directories the startup scan moved into `spool/quarantine/`
    /// because their metadata was unreadable or torn.
    pub spool_quarantined: Gauge,
    /// HTTP requests served, by route class.
    pub http_requests_total: Counter,
    /// Daemon uptime in seconds (refreshed at scrape time).
    pub uptime_seconds: Gauge,
}

impl MetricsHub {
    /// Builds the full inventory over a fresh registry.
    pub fn new() -> Arc<MetricsHub> {
        let r = Registry::new();
        let hub = MetricsHub {
            start: Instant::now(),
            move_eval_ns: r.histogram(
                "twmc_move_eval_ns",
                "Per-move evaluation latency in nanoseconds, sampled as 32-move block averages",
                &[
                    100.0,
                    250.0,
                    500.0,
                    1_000.0,
                    2_500.0,
                    5_000.0,
                    10_000.0,
                    25_000.0,
                    50_000.0,
                    100_000.0,
                    1_000_000.0,
                ],
            ),
            moves_total: r.counter("twmc_moves_total", "Move attempts in the annealing loops"),
            moves_accepted_total: r.counter("twmc_moves_accepted_total", "Accepted moves"),
            temp_steps_total: r.counter(
                "twmc_temp_steps_total",
                "Temperature steps completed across all annealing runs",
            ),
            swap_attempts_total: r.counter(
                "twmc_swap_attempts_total",
                "Tempering replica-exchange attempts",
            ),
            swaps_accepted_total: r.counter(
                "twmc_swaps_accepted_total",
                "Accepted tempering replica exchanges",
            ),
            replica_failures_total: r.counter(
                "twmc_replica_failures_total",
                "Replica worker panics absorbed by fault isolation",
            ),
            checkpoint_writes_total: r
                .counter("twmc_checkpoint_writes_total", "Resume checkpoints written"),
            checkpoint_write_ms: r.histogram(
                "twmc_checkpoint_write_ms",
                "Checkpoint write latency in milliseconds",
                &[0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1_000.0],
            ),
            route_iters_total: r.counter(
                "twmc_route_iters_total",
                "Global-routing executions (stage-2 iterations and finalize)",
            ),
            route_iter_ms: r.histogram(
                "twmc_route_iter_ms",
                "Wall time of one global-routing execution in milliseconds",
                &[
                    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 5_000.0,
                ],
            ),
            route_overflow: r.gauge(
                "twmc_route_overflow",
                "Channel overflow after the most recent routing execution",
            ),
            jobs: r.gauge_vec(
                "twmc_jobs",
                "Daemon jobs by lifecycle state",
                "state",
                JOB_STATES,
            ),
            queue_depth: r.gauge(
                "twmc_queue_depth",
                "Jobs waiting to run (queued + preempted)",
            ),
            workers: r.gauge("twmc_workers", "Configured worker threads"),
            workers_busy: r.gauge("twmc_workers_busy", "Workers currently running a job"),
            queue_wait_ms: r.histogram(
                "twmc_queue_wait_ms",
                "Job wait between enqueue and worker claim in milliseconds",
                &[
                    1.0, 10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 30_000.0, 300_000.0,
                ],
            ),
            jobs_submitted_total: r.counter("twmc_jobs_submitted_total", "Jobs accepted"),
            jobs_completed_total: r
                .counter("twmc_jobs_completed_total", "Jobs finished successfully"),
            jobs_failed_total: r.counter("twmc_jobs_failed_total", "Jobs that errored or panicked"),
            jobs_cancelled_total: r
                .counter("twmc_jobs_cancelled_total", "Jobs cancelled by clients"),
            preemptions_total: r.counter("twmc_preemptions_total", "Preemption events"),
            resumes_total: r.counter(
                "twmc_resumes_total",
                "Checkpoint resumes after preemption or restart",
            ),
            rejected_total: r.counter(
                "twmc_rejected_total",
                "Submissions rejected by queue backpressure",
            ),
            spool_quarantined: r.gauge(
                "twmc_spool_quarantined",
                "Job directories quarantined by the spool startup scan",
            ),
            http_requests_total: r.counter("twmc_http_requests_total", "HTTP requests served"),
            uptime_seconds: r.gauge(
                "twmc_uptime_seconds",
                "Seconds since the process started (refreshed at scrape)",
            ),
            registry: r,
        };
        Arc::new(hub)
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Seconds since the hub was created.
    pub fn uptime_secs(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Refreshes scrape-time gauges and renders the full exposition.
    pub fn render(&self) -> String {
        self.uptime_seconds.set(self.uptime_secs() as i64);
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_renders_every_family_at_zero() {
        let hub = MetricsHub::new();
        let text = hub.render();
        for family in [
            "twmc_move_eval_ns",
            "twmc_moves_total",
            "twmc_moves_accepted_total",
            "twmc_temp_steps_total",
            "twmc_swap_attempts_total",
            "twmc_swaps_accepted_total",
            "twmc_replica_failures_total",
            "twmc_checkpoint_writes_total",
            "twmc_checkpoint_write_ms",
            "twmc_route_iters_total",
            "twmc_route_iter_ms",
            "twmc_route_overflow",
            "twmc_jobs",
            "twmc_queue_depth",
            "twmc_workers",
            "twmc_workers_busy",
            "twmc_queue_wait_ms",
            "twmc_jobs_submitted_total",
            "twmc_jobs_completed_total",
            "twmc_jobs_failed_total",
            "twmc_jobs_cancelled_total",
            "twmc_preemptions_total",
            "twmc_resumes_total",
            "twmc_rejected_total",
            "twmc_spool_quarantined",
            "twmc_http_requests_total",
            "twmc_uptime_seconds",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "family {family} missing from exposition"
            );
        }
        for state in JOB_STATES {
            assert!(text.contains(&format!("twmc_jobs{{state=\"{state}\"}} 0")));
        }
    }

    #[test]
    fn hub_handles_record() {
        let hub = MetricsHub::new();
        hub.moves_total.add(10);
        hub.move_eval_ns.observe(420.0);
        hub.jobs.with("queued").set(2);
        let text = hub.render();
        assert!(text.contains("twmc_moves_total 10"));
        assert!(text.contains("twmc_jobs{state=\"queued\"} 2"));
        assert!(text.contains("twmc_move_eval_ns_count 1"));
    }
}
