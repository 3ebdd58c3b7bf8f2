//! The daemon core: a priority job queue drained by a worker pool,
//! with checkpoint-based preemption and a graceful drain protocol.
//!
//! Scheduling: highest priority first, FIFO within a priority class
//! (by submission sequence). When every worker is busy and a strictly
//! higher-priority job arrives, the lowest-priority running job is
//! *preempted*: its [`CancelToken`] is tripped, the orchestrator stops
//! at the next round boundary and flushes a checkpoint, and the job
//! goes back into the queue in `preempted` state. When a worker picks
//! it up again it resumes from that checkpoint — the interrupt→resume
//! contract guarantees the final placement is bit-identical to an
//! uninterrupted run, so preemption trades only latency, never quality.
//!
//! Drain (SIGTERM): stop accepting submissions, trip every running
//! job's token with a `drain` disposition (checkpoint + persist as
//! `preempted`, but do *not* re-enqueue), keep answering status polls
//! until the workers exit, then return. A daemon restarted over the
//! same spool re-enqueues the preempted jobs and finishes them.

use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Serialize, Value};
use twmc_analyze::{analyze, parse_stream};
use twmc_core::{run_timberwolf_resilient, RunCtrl, RunOutcome, TimberWolfResult};
use twmc_fault::{RealVfs, Vfs};
use twmc_obs::{
    CancelToken, Instrumented, Interval, JsonlRecorder, MetricsHub, NullRecorder, OpenInterval,
    Recorder, Tracer,
};
use twmc_resume::{read_checkpoint, CheckpointWriter};
use twmc_trace::capture_to_string;

use crate::job::{placement_text, JobSpec, JobState};
use crate::json::obj;
use crate::spool::{JobStatus, Spool};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Maximum jobs waiting or preempted before submissions get 429.
    pub queue_cap: usize,
    /// Checkpoint cadence (temperature steps) for running jobs.
    pub checkpoint_every: u64,
    /// Spool directory (created if absent).
    pub spool: PathBuf,
    /// After the workers drain, how long the server keeps answering
    /// status polls before closing the listener.
    pub drain_grace: Duration,
    /// The [`Vfs`] every durable write (spool metadata, checkpoints)
    /// goes through. [`RealVfs`] in production; the fault-injection
    /// tests and `--fault-schedule` substitute a
    /// [`twmc_fault::FaultVfs`].
    pub vfs: Arc<dyn Vfs>,
    /// Fsync the per-job telemetry stream every N events (0 = never;
    /// the stream is repaired at resume either way, this only bounds
    /// how many events power loss can cost).
    pub event_fsync_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_cap: 256,
            checkpoint_every: 10,
            spool: PathBuf::from("twmc-spool"),
            drain_grace: Duration::from_millis(250),
            vfs: Arc::new(RealVfs),
            event_fsync_every: 0,
        }
    }
}

/// A successful submission: the job's id and whether it was a new job
/// or an idempotent replay of one already accepted.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// The job id (assigned now, or recalled from the idempotency map).
    pub id: String,
    /// True when an `Idempotency-Key` matched a previous submission and
    /// no new job was created.
    pub deduped: bool,
}

/// Why a submission was turned away.
#[derive(Debug)]
pub enum SubmitError {
    /// The daemon is draining and accepts no new work (503).
    Draining,
    /// The bounded queue is full — backpressure (429).
    QueueFull,
    /// The spool could not persist the job (500).
    Spool(io::Error),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "daemon is draining; not accepting jobs"),
            SubmitError::QueueFull => write!(f, "job queue is full; retry later"),
            SubmitError::Spool(e) => write!(f, "cannot persist job: {e}"),
        }
    }
}

/// What the daemon should do with a running job once it stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopCause {
    /// Nothing pending — the job runs to completion.
    None,
    /// A higher-priority arrival: checkpoint, re-enqueue.
    Preempt,
    /// `DELETE /jobs/<id>`: terminal `cancelled`.
    Cancel,
    /// SIGTERM drain: checkpoint, persist `preempted`, don't re-enqueue.
    Drain,
}

/// Heap entry; `BinaryHeap` pops the max, so the derived order (higher
/// priority, then *lower* sequence via `Reverse`) runs the oldest job
/// of the highest class first.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct QueueEntry {
    priority: i64,
    order: std::cmp::Reverse<u64>,
    id: String,
}

#[derive(Debug)]
struct RunningJob {
    cancel: CancelToken,
    priority: i64,
    seq: u64,
    cause: StopCause,
}

#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    /// The wait the job is in (opened on submit and on every
    /// re-enqueue), closed when a worker claims the job.
    waiting: Option<OpenInterval>,
    /// The job's span trace.
    trace: JobTrace,
}

/// Where a job's span trace lives.
#[derive(Debug)]
enum JobTrace {
    /// Recording: one timeline across every attempt, so queued →
    /// running → preempted → resumed → done reads as one trace.
    Live(Arc<Tracer>),
    /// Sealed into the spool; the span buffers are dropped.
    Sealed,
    /// Sealed, but the spool write failed: the capture itself.
    Unspooled(String),
}

#[derive(Debug)]
struct Inner {
    queue: BinaryHeap<QueueEntry>,
    jobs: HashMap<String, JobRecord>,
    running: HashMap<String, RunningJob>,
    accepting: bool,
    shutdown: bool,
    next_id: u64,
    next_seq: u64,
    live_workers: usize,
    /// `Idempotency-Key` → job id, rebuilt from the spool at startup,
    /// so client retries across a daemon restart still dedupe.
    idem: HashMap<String, String>,
}

impl Inner {
    /// Jobs waiting to run (queued + preempted).
    fn backlog(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| matches!(j.status.state, JobState::Queued | JobState::Preempted))
            .count()
    }
}

/// The placement daemon. Create with [`Daemon::start`]; share via
/// `Arc` between the HTTP server and the worker pool it spawns.
pub struct Daemon {
    state: Mutex<Inner>,
    /// Wakes workers when the queue gains a runnable job or drain starts.
    work: Condvar,
    /// Wakes status waiters when a job reaches a new state or a worker
    /// exits.
    change: Condvar,
    spool: Spool,
    opts: ServeOptions,
    /// Live metrics plane, shared with running jobs (hot-path families)
    /// and `GET /metrics`.
    hub: Arc<MetricsHub>,
}

impl Daemon {
    /// Opens the spool, recovers persisted jobs, and spawns the worker
    /// pool.
    pub fn start(opts: ServeOptions) -> io::Result<Arc<Daemon>> {
        let spool = Spool::open_with(&opts.spool, Arc::clone(&opts.vfs))?;
        let mut inner = Inner {
            queue: BinaryHeap::new(),
            jobs: HashMap::new(),
            running: HashMap::new(),
            accepting: true,
            shutdown: false,
            next_id: 1,
            next_seq: 1,
            live_workers: opts.workers.max(1),
            idem: HashMap::new(),
        };
        let scan = spool.scan()?;
        let quarantined = scan.quarantined.len();
        for recovered in scan.jobs {
            let mut status = recovered.status;
            // A `running` record means the previous daemon died
            // mid-run; demote to the resumable/queued state.
            if status.state == JobState::Running {
                status.state = if recovered.has_checkpoint {
                    JobState::Preempted
                } else {
                    JobState::Queued
                };
                let _ = spool.write_status(&recovered.spec.id, &status);
            }
            if let Some(n) = recovered
                .spec
                .id
                .strip_prefix('j')
                .and_then(|n| n.parse::<u64>().ok())
            {
                inner.next_id = inner.next_id.max(n + 1);
            }
            inner.next_seq = inner.next_seq.max(recovered.spec.seq + 1);
            if !recovered.spec.idempotency_key.is_empty() {
                inner.idem.insert(
                    recovered.spec.idempotency_key.clone(),
                    recovered.spec.id.clone(),
                );
            }
            if !status.state.terminal() {
                inner.queue.push(QueueEntry {
                    priority: recovered.spec.priority,
                    order: std::cmp::Reverse(recovered.spec.seq),
                    id: recovered.spec.id.clone(),
                });
            }
            let waiting = match status.state {
                JobState::Preempted => Some(Interval::Preempted.open()),
                state if state.terminal() => None,
                _ => Some(Interval::Queued.open()),
            };
            inner.jobs.insert(
                recovered.spec.id.clone(),
                JobRecord {
                    spec: recovered.spec,
                    status,
                    waiting,
                    trace: JobTrace::Live(Tracer::new()),
                },
            );
        }
        let workers = inner.live_workers;
        let hub = MetricsHub::new();
        hub.workers.set(workers as i64);
        hub.spool_quarantined.set(quarantined as i64);
        let daemon = Arc::new(Daemon {
            state: Mutex::new(inner),
            work: Condvar::new(),
            change: Condvar::new(),
            spool,
            opts,
            hub,
        });
        daemon.sync_gauges(&daemon.state.lock().unwrap());
        for _ in 0..workers {
            let d = Arc::clone(&daemon);
            std::thread::spawn(move || d.worker_loop());
        }
        Ok(daemon)
    }

    /// The daemon's live metrics plane.
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }

    /// Recomputes the state-shaped gauges from the job table. Called
    /// with the state lock held, after every lifecycle transition —
    /// gauges always reflect the table, counters tick at the
    /// transitions themselves.
    fn sync_gauges(&self, inner: &Inner) {
        let mut by_state = [0i64; 6];
        for job in inner.jobs.values() {
            let slot = match job.status.state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Preempted => 2,
                JobState::Done => 3,
                JobState::Failed => 4,
                JobState::Cancelled => 5,
            };
            by_state[slot] += 1;
        }
        for (state, count) in twmc_metrics::JOB_STATES.iter().zip(by_state) {
            self.hub.jobs.with(state).set(count);
        }
        self.hub.queue_depth.set(by_state[0] + by_state[2]);
        self.hub.workers_busy.set(inner.running.len() as i64);
    }

    /// The daemon's options.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// The daemon's spool.
    pub fn spool(&self) -> &Spool {
        &self.spool
    }

    /// Accepts a job: assigns an id, persists it, enqueues it, and —
    /// when all workers are busy with lower-priority work — preempts
    /// the lowest-priority running job to make room.
    ///
    /// A non-empty `idempotency_key` that matches a previous submission
    /// (including one recovered from the spool after a restart) returns
    /// that job's id with `deduped = true` instead of creating a
    /// duplicate — the contract that makes client retries safe. The
    /// check and the map insert happen under the same state lock, so
    /// two racing retries of the same submission can never both create
    /// a job.
    pub fn submit(&self, mut spec: JobSpec) -> Result<Submitted, SubmitError> {
        let mut inner = self.state.lock().unwrap();
        if !spec.idempotency_key.is_empty() {
            if let Some(id) = inner.idem.get(&spec.idempotency_key) {
                return Ok(Submitted {
                    id: id.clone(),
                    deduped: true,
                });
            }
        }
        if !inner.accepting {
            return Err(SubmitError::Draining);
        }
        if inner.backlog() >= self.opts.queue_cap {
            self.hub.rejected_total.inc();
            return Err(SubmitError::QueueFull);
        }
        spec.id = format!("j{}", inner.next_id);
        spec.seq = inner.next_seq;
        inner.next_id += 1;
        inner.next_seq += 1;
        self.spool.create_job(&spec).map_err(SubmitError::Spool)?;
        self.hub.jobs_submitted_total.inc();
        inner.queue.push(QueueEntry {
            priority: spec.priority,
            order: std::cmp::Reverse(spec.seq),
            id: spec.id.clone(),
        });
        let id = spec.id.clone();
        let priority = spec.priority;
        if !spec.idempotency_key.is_empty() {
            inner.idem.insert(spec.idempotency_key.clone(), id.clone());
        }
        inner.jobs.insert(
            spec.id.clone(),
            JobRecord {
                spec,
                status: JobStatus::default(),
                waiting: Some(Interval::Queued.open()),
                trace: JobTrace::Live(Tracer::new()),
            },
        );
        self.maybe_preempt(&mut inner, priority);
        self.sync_gauges(&inner);
        drop(inner);
        self.work.notify_all();
        Ok(Submitted { id, deduped: false })
    }

    /// Trips the lowest-priority running job's token when `arriving`
    /// outranks it and no worker is idle.
    fn maybe_preempt(&self, inner: &mut Inner, arriving: i64) {
        if inner.running.len() < inner.live_workers {
            return; // an idle worker will pick the job up directly
        }
        let victim = inner
            .running
            .iter()
            .filter(|(_, r)| r.cause == StopCause::None)
            // Preempt the lowest priority; among equals the youngest
            // (largest seq), which has lost the least work.
            .min_by_key(|(_, r)| (r.priority, std::cmp::Reverse(r.seq)))
            .map(|(id, r)| (id.clone(), r.priority));
        if let Some((id, priority)) = victim {
            if arriving > priority {
                let running = inner.running.get_mut(&id).expect("victim is running");
                running.cause = StopCause::Preempt;
                running.cancel.cancel();
                self.hub.preemptions_total.inc();
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.status.preemptions += 1;
                }
            }
        }
    }

    /// Cancels a job. Queued/preempted jobs become `cancelled` at
    /// once; running jobs are tripped and become `cancelled` at the
    /// next round boundary. Returns the state the job is now headed
    /// for, or `None` for unknown ids.
    pub fn cancel(&self, id: &str) -> Option<JobState> {
        let mut inner = self.state.lock().unwrap();
        let state = inner.jobs.get(id)?.status.state;
        match state {
            JobState::Queued | JobState::Preempted => {
                let job = inner.jobs.get_mut(id).expect("checked above");
                job.status.state = JobState::Cancelled;
                let status = job.status.clone();
                self.hub.jobs_cancelled_total.inc();
                let _ = self.spool.write_status(id, &status);
                self.sync_gauges(&inner);
                drop(inner);
                self.change.notify_all();
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                let running = inner.running.get_mut(id).expect("running set");
                running.cause = StopCause::Cancel;
                running.cancel.cancel();
                Some(JobState::Running)
            }
            terminal => Some(terminal),
        }
    }

    /// The status payload of one job (`GET /jobs/<id>`).
    pub fn status(&self, id: &str) -> Option<Value> {
        let inner = self.state.lock().unwrap();
        let job = inner.jobs.get(id)?;
        let mut fields = vec![
            ("id", Value::Str(job.spec.id.clone())),
            ("state", Value::Str(job.status.state.as_str().to_owned())),
            ("priority", Value::Int(job.spec.priority)),
            ("preemptions", Value::UInt(job.status.preemptions)),
            ("resumes", Value::UInt(job.status.resumes)),
        ];
        if !job.spec.label.is_empty() {
            fields.push(("label", Value::Str(job.spec.label.clone())));
        }
        if !job.status.error.is_empty() {
            fields.push(("error", Value::Str(job.status.error.clone())));
        }
        if job.status.teil.is_finite() {
            fields.push(("teil", Value::Float(job.status.teil)));
        }
        Some(obj(fields))
    }

    /// The job's current lifecycle state.
    pub fn job_state(&self, id: &str) -> Option<JobState> {
        let inner = self.state.lock().unwrap();
        Some(inner.jobs.get(id)?.status.state)
    }

    /// The job's telemetry stream (`GET /jobs/<id>/events`).
    pub fn events(&self, id: &str) -> Option<String> {
        {
            let inner = self.state.lock().unwrap();
            inner.jobs.get(id)?;
        }
        Some(self.spool.read_events(id).unwrap_or_default())
    }

    /// The final report of a done job (`GET /jobs/<id>/result`).
    pub fn result(&self, id: &str) -> Option<String> {
        self.spool.read_result(id)
    }

    /// The final placement of a done job (`GET /jobs/<id>/placement`).
    pub fn placement(&self, id: &str) -> Option<String> {
        self.spool.read_placement(id)
    }

    /// The job's span trace as a JSONL capture (`GET /jobs/<id>/trace`).
    /// Live jobs snapshot the tracer in flight (safe against the
    /// worker's concurrent writes); terminal jobs read the capture
    /// sealed into the spool at disposal, or kept in memory when that
    /// write failed.
    pub fn trace(&self, id: &str) -> Option<String> {
        let inner = self.state.lock().unwrap();
        let job = inner.jobs.get(id)?;
        match &job.trace {
            JobTrace::Live(tracer) => {
                // A job adopted in a terminal state was sealed by an
                // earlier daemon.
                if job.status.state.terminal() {
                    if let Some(text) = self.spool.read_trace(id) {
                        return Some(text);
                    }
                }
                Some(capture_to_string(&tracer.collect()))
            }
            JobTrace::Sealed => self.spool.read_trace(id),
            JobTrace::Unspooled(text) => Some(text.clone()),
        }
    }

    /// Whether the job still holds its span buffers in memory (it is
    /// recording), or `None` for an unknown id.
    pub fn trace_is_live(&self, id: &str) -> Option<bool> {
        let inner = self.state.lock().unwrap();
        let job = inner.jobs.get(id)?;
        Some(matches!(job.trace, JobTrace::Live(_)))
    }

    /// Whether submissions are currently accepted.
    pub fn accepting(&self) -> bool {
        self.state.lock().unwrap().accepting
    }

    /// Starts the drain: refuse new jobs, trip running jobs with the
    /// `drain` disposition, and let the workers exit. Status endpoints
    /// stay live; call [`Daemon::wait_drained`] to block until the
    /// workers have checkpointed everything.
    pub fn begin_drain(&self) {
        let mut inner = self.state.lock().unwrap();
        inner.accepting = false;
        inner.shutdown = true;
        for running in inner.running.values_mut() {
            // A client cancel in flight keeps its disposition.
            if running.cause == StopCause::None || running.cause == StopCause::Preempt {
                running.cause = StopCause::Drain;
            }
            running.cancel.cancel();
        }
        drop(inner);
        self.work.notify_all();
        self.change.notify_all();
    }

    /// Whether the drain has finished (all workers exited).
    pub fn drained(&self) -> bool {
        let inner = self.state.lock().unwrap();
        inner.shutdown && inner.live_workers == 0
    }

    /// Blocks until the drain completes or `timeout` passes; returns
    /// whether it completed.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.state.lock().unwrap();
        while !(inner.shutdown && inner.live_workers == 0) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self.change.wait_timeout(inner, left).unwrap();
            inner = guard;
        }
        true
    }

    /// Blocks until `id` reaches a terminal state or `timeout` passes.
    pub fn wait_terminal(&self, id: &str, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.state.lock().unwrap();
        loop {
            let state = inner.jobs.get(id)?.status.state;
            if state.terminal() {
                return Some(state);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) = self.change.wait_timeout(inner, left).unwrap();
            inner = guard;
        }
    }

    // ---- worker side ----------------------------------------------------

    fn worker_loop(self: Arc<Daemon>) {
        loop {
            let claimed = {
                let mut inner = self.state.lock().unwrap();
                loop {
                    if inner.shutdown {
                        inner.live_workers -= 1;
                        drop(inner);
                        self.change.notify_all();
                        return;
                    }
                    if let Some(claim) = self.claim_next(&mut inner) {
                        break claim;
                    }
                    inner = self.work.wait(inner).unwrap();
                }
            };
            self.run_job(claimed);
        }
    }

    /// Pops heap entries until one refers to a job still waiting to
    /// run, and transitions it to `running`. Stale entries (cancelled
    /// jobs, duplicates) are discarded.
    fn claim_next(&self, inner: &mut Inner) -> Option<(JobSpec, CancelToken, Arc<Tracer>)> {
        while let Some(entry) = inner.queue.pop() {
            let Some(job) = inner.jobs.get_mut(&entry.id) else {
                continue;
            };
            if !matches!(job.status.state, JobState::Queued | JobState::Preempted) {
                continue;
            }
            job.status.state = JobState::Running;
            let JobTrace::Live(tracer) = &job.trace else {
                unreachable!("traces are sealed only at a terminal state or a drain")
            };
            let tracer = Arc::clone(tracer);
            if let Some(wait) = job.waiting.take() {
                wait.close(&mut self.job_sinks(&tracer));
            }
            let spec = job.spec.clone();
            let status = job.status.clone();
            let cancel = CancelToken::new();
            inner.running.insert(
                entry.id.clone(),
                RunningJob {
                    cancel: cancel.clone(),
                    priority: spec.priority,
                    seq: spec.seq,
                    cause: StopCause::None,
                },
            );
            let _ = self.spool.write_status(&entry.id, &status);
            self.sync_gauges(inner);
            return Some((spec, cancel, tracer));
        }
        None
    }

    /// Runs one claimed job to its next boundary (completion or
    /// interrupt) and disposes of the outcome.
    fn run_job(&self, (spec, cancel, tracer): (JobSpec, CancelToken, Arc<Tracer>)) {
        let id = spec.id.clone();
        let ckpt_path = self.spool.checkpoint_path(&id);
        let events_path = self.spool.events_path(&id);

        // Resume from the preemption checkpoint when one exists. A
        // checkpoint that fails to decode is discarded — the job
        // restarts from scratch rather than failing outright.
        let resume = if ckpt_path.exists() {
            match read_checkpoint(&ckpt_path) {
                Ok(payload) => Some(payload),
                Err(e) => {
                    // Every decode failure is a typed CheckpointError;
                    // the job is re-adopted as re-runnable, never
                    // half-adopted or failed outright.
                    eprintln!("twmc serve: {id}: discarding bad checkpoint: {e}");
                    self.spool.remove_checkpoint(&id);
                    None
                }
            }
        } else {
            None
        };
        let resuming = resume.is_some();
        if resuming {
            let mut inner = self.state.lock().unwrap();
            self.hub.resumes_total.inc();
            if let Some(job) = inner.jobs.get_mut(&id) {
                job.status.resumes += 1;
            }
            tracer.lane("job").mark("resumed", "serve", Instant::now());
        }

        // The telemetry stream: a resumed run appends its exact suffix
        // to the interrupted prefix; a fresh run starts a new file. A
        // crash mid-append can leave a torn final line, so the prefix
        // is truncated to its last newline before re-opening — without
        // this the first resumed record would glue onto the fragment
        // and corrupt the whole stitched stream.
        let events_str = events_path.to_string_lossy().into_owned();
        let recorder = if resuming && events_path.exists() {
            self.spool
                .truncate_events_to_last_newline(&id)
                .and_then(|()| JsonlRecorder::append(&events_str, self.opts.event_fsync_every))
        } else {
            JsonlRecorder::create(&events_str, self.opts.event_fsync_every)
        };
        // Autoflush so `GET /jobs/<id>/events?follow=1` tails see each
        // event the moment it is recorded; the hub rides along so the
        // pipeline's hot-path families fill while the job runs.
        let recorder = match recorder {
            Ok(r) => r.with_autoflush(),
            Err(e) => {
                self.dispose_failed(&id, format!("cannot open telemetry stream: {e}"));
                return;
            }
        };
        let mut recorder = Instrumented::new(
            recorder,
            Some(Arc::clone(&self.hub)),
            Some(Arc::clone(&tracer)),
        );

        let nl = match spec.parse_netlist() {
            Ok(nl) => nl,
            Err(e) => {
                self.dispose_failed(&id, e);
                return;
            }
        };
        let config = spec.config();
        let run_opts = RunCtrl {
            cancel: cancel.clone(),
            writer: Some(
                CheckpointWriter::new(ckpt_path.clone(), self.opts.checkpoint_every.max(1))
                    .with_vfs(Arc::clone(&self.opts.vfs)),
            ),
            resume,
            ..RunCtrl::default()
        };

        // Fault isolation: a panic anywhere in the pipeline fails this
        // job, not the daemon.
        let attempt = Interval::Running.open();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_timberwolf_resilient(&nl, &config, run_opts, &mut recorder as &mut dyn Recorder)
        }));
        let _ = recorder.into_inner().finish();
        attempt.close(&mut self.job_sinks(&tracer));

        match outcome {
            Err(panic) => self.dispose_failed(&id, panic_text(panic)),
            Ok(Err(e)) => self.dispose_failed(&id, e.to_string()),
            Ok(Ok(RunOutcome::Complete(result))) => self.dispose_complete(&id, &result),
            Ok(Ok(RunOutcome::Interrupted(_))) => self.dispose_interrupted(&id),
        }
    }

    /// What a job's waits and attempts feed when they close: the hub
    /// and the job's tracer, with no event stream.
    fn job_sinks(&self, tracer: &Arc<Tracer>) -> Instrumented<NullRecorder> {
        Instrumented::new(
            NullRecorder,
            Some(Arc::clone(&self.hub)),
            Some(Arc::clone(tracer)),
        )
    }

    /// Stamps a terminal lifecycle mark on the job's trace, seals the
    /// capture into the spool and drops the span buffers (keeping the
    /// capture itself when the write fails). Called with the state lock
    /// held.
    fn seal_trace(&self, inner: &mut Inner, id: &str, terminal: &'static str) {
        let Some(job) = inner.jobs.get_mut(id) else {
            return;
        };
        let JobTrace::Live(tracer) = &job.trace else {
            return;
        };
        tracer.lane("job").mark(terminal, "serve", Instant::now());
        let capture = capture_to_string(&tracer.collect());
        job.trace = match self.spool.write_trace(id, &capture) {
            Ok(()) => JobTrace::Sealed,
            Err(_) => JobTrace::Unspooled(capture),
        };
    }

    fn dispose_failed(&self, id: &str, error: String) {
        let mut inner = self.state.lock().unwrap();
        inner.running.remove(id);
        self.hub.jobs_failed_total.inc();
        if let Some(job) = inner.jobs.get_mut(id) {
            job.status.state = JobState::Failed;
            job.status.error = error;
            let status = job.status.clone();
            let _ = self.spool.write_status(id, &status);
        }
        self.seal_trace(&mut inner, id, "failed");
        self.sync_gauges(&inner);
        drop(inner);
        self.change.notify_all();
    }

    fn dispose_complete(&self, id: &str, result: &TimberWolfResult) {
        // Build the report (placement + health) before taking the lock.
        let placement = placement_text(&result.placement);
        let report = self.report_value(id, result);
        let _ = self.spool.write_placement(id, &placement);
        let _ = self.spool.write_result(id, &report);
        self.spool.remove_checkpoint(id);

        let mut inner = self.state.lock().unwrap();
        inner.running.remove(id);
        self.hub.jobs_completed_total.inc();
        if let Some(job) = inner.jobs.get_mut(id) {
            job.status.state = JobState::Done;
            job.status.teil = result.teil;
            let status = job.status.clone();
            let _ = self.spool.write_status(id, &status);
        }
        self.seal_trace(&mut inner, id, "done");
        self.sync_gauges(&inner);
        drop(inner);
        self.change.notify_all();
    }

    fn dispose_interrupted(&self, id: &str) {
        let mut inner = self.state.lock().unwrap();
        let cause = inner
            .running
            .remove(id)
            .map(|r| r.cause)
            .unwrap_or(StopCause::None);
        match cause {
            StopCause::Cancel => {
                self.hub.jobs_cancelled_total.inc();
                if let Some(job) = inner.jobs.get_mut(id) {
                    job.status.state = JobState::Cancelled;
                    let status = job.status.clone();
                    let _ = self.spool.write_status(id, &status);
                }
                self.seal_trace(&mut inner, id, "cancelled");
                self.spool.remove_checkpoint(id);
            }
            StopCause::Drain => {
                // Persist as preempted; the next daemon over this
                // spool re-enqueues and resumes it. The trace capture
                // is sealed too — the restarted daemon starts a fresh
                // timeline, so this attempt's spans would otherwise
                // be lost with the process.
                if let Some(job) = inner.jobs.get_mut(id) {
                    job.status.state = JobState::Preempted;
                    let status = job.status.clone();
                    let _ = self.spool.write_status(id, &status);
                }
                self.seal_trace(&mut inner, id, "drained");
            }
            StopCause::Preempt | StopCause::None => {
                let requeue = inner.jobs.get_mut(id).map(|job| {
                    job.status.state = JobState::Preempted;
                    job.waiting = Some(Interval::Preempted.open());
                    let _ = self.spool.write_status(id, &job.status);
                    (job.spec.priority, job.spec.seq)
                });
                if let Some((priority, seq)) = requeue {
                    inner.queue.push(QueueEntry {
                        priority,
                        order: std::cmp::Reverse(seq),
                        id: id.to_owned(),
                    });
                }
            }
        }
        self.sync_gauges(&inner);
        drop(inner);
        self.work.notify_all();
        self.change.notify_all();
    }

    /// The `result.json` payload: headline numbers plus the analyzer's
    /// health verdict over the job's own telemetry stream.
    fn report_value(&self, id: &str, result: &TimberWolfResult) -> Value {
        let mut fields = vec![
            ("id", Value::Str(id.to_owned())),
            ("teil", Value::Float(result.teil)),
            ("chip_area", Value::Int(result.chip_area())),
            ("routed_length", Value::Int(result.routed_length)),
            (
                "stage2_teil_change",
                Value::Float(result.stage2_teil_change()),
            ),
        ];
        if let Ok(events) = self.spool.read_events(id) {
            if let Ok(stream) = parse_stream(&events) {
                let health = analyze(&stream);
                fields.push(("healthy", Value::Bool(health.healthy())));
                fields.push(("findings", health.findings.to_value()));
            }
        }
        obj(fields)
    }
}

/// Renders a panic payload into the job's error text.
fn panic_text(panic: Box<dyn std::any::Any + Send>) -> String {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned());
    format!("pipeline panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let mut heap = BinaryHeap::new();
        for (priority, seq, id) in [(0, 1, "a"), (5, 3, "c"), (0, 2, "b"), (5, 4, "d")] {
            heap.push(QueueEntry {
                priority,
                order: Reverse(seq),
                id: id.into(),
            });
        }
        let order: Vec<String> = std::iter::from_fn(|| heap.pop().map(|e| e.id)).collect();
        assert_eq!(order, ["c", "d", "a", "b"]);
    }

    #[test]
    fn panic_text_handles_both_payload_kinds() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("str panic");
        assert_eq!(panic_text(boxed), "pipeline panicked: str panic");
        let boxed: Box<dyn std::any::Any + Send> = Box::new("string panic".to_owned());
        assert_eq!(panic_text(boxed), "pipeline panicked: string panic");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_text(boxed), "pipeline panicked: opaque panic payload");
    }

    #[test]
    fn submit_error_messages() {
        assert!(SubmitError::Draining.to_string().contains("draining"));
        assert!(SubmitError::QueueFull.to_string().contains("full"));
    }
}
