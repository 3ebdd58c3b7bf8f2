//! `twmc-serve`: the multi-tenant placement daemon.
//!
//! `twmc serve --listen <addr>` turns the TimberWolfMC pipeline into a
//! long-running service: clients POST placement jobs (netlist + run
//! knobs) over a small HTTP/1.1 JSON API, a priority queue feeds a
//! worker pool, and each job streams its own JSONL telemetry. Because
//! every job runs under the resilient orchestrator with a per-job
//! [`twmc_obs::CancelToken`] and checkpoint, the daemon can *preempt* a
//! long low-priority job at a round boundary when urgent work arrives,
//! persist it, and resume it later with a bit-identical final placement
//! — and a SIGTERM drains the whole service the same way.
//!
//! The stack is plain `std`: the vendored async runtimes are offline
//! stand-ins, so the HTTP layer is a hand-rolled subset over
//! `std::net::TcpListener` (persistent keep-alive connections with a
//! bounded request budget), mirroring how the obs crate hand-rolled
//! its JSON parser. The live metrics plane ([`twmc_metrics`]) is
//! exposed as a Prometheus text exposition at `GET /metrics`, and
//! `GET /jobs/<id>/events?follow=1` streams a job's telemetry as
//! chunked JSONL that flushes event-by-event while the job runs.
//!
//! Module map:
//!
//! - [`http`] — wire protocol (request reader, response writer)
//! - [`json`] — `Value`-tree helpers for the API payloads
//! - [`job`] — job spec, lifecycle state machine, placement rendering
//! - [`spool`] — per-job persistence (specs, states, events, checkpoints)
//! - [`daemon`] — queue, worker pool, preemption, drain
//! - [`server`] — accept loop and request routing
//! - [`client`] — a tiny blocking client for tests and harnesses

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod daemon;
pub mod http;
pub mod job;
pub mod json;
pub mod server;
pub mod spool;

pub use daemon::{Daemon, ServeOptions, SubmitError, Submitted};
pub use job::{placement_text, JobSpec, JobState};
pub use server::{handle_request, Server};
pub use spool::{JobStatus, ScanOutcome, Spool, QUARANTINE_DIR};
