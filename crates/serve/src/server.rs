//! The HTTP front end: a `std::net` accept loop that routes requests
//! onto the [`Daemon`].
//!
//! | Route                      | Meaning                                  |
//! |----------------------------|------------------------------------------|
//! | `POST /jobs`               | submit a job (201 + id; an
//!   `Idempotency-Key` header replaying an earlier submission returns
//!   the existing job with 200 instead of creating a duplicate)        |
//! | `GET /jobs/<id>`           | job status (state machine)               |
//! | `GET /jobs/<id>/events`    | the job's JSONL telemetry stream         |
//! | `GET /jobs/<id>/result`    | final report (done jobs)                 |
//! | `GET /jobs/<id>/placement` | final placement text (done jobs)         |
//! | `GET /jobs/<id>/trace`     | span-trace capture (live or sealed)      |
//! | `DELETE /jobs/<id>`        | cancel                                   |
//! | `GET /healthz`             | liveness, version, uptime, load gauges   |
//! | `GET /metrics`             | Prometheus text exposition               |
//!
//! Connections are persistent (HTTP/1.1 keep-alive, bounded at
//! [`MAX_REQUESTS_PER_CONN`] requests each) and each is served on its
//! own thread, so a slow client never blocks the accept loop or the
//! drain. `GET /jobs/<id>/events?follow=1` switches the connection to
//! a chunked streaming tail: complete JSONL lines flush as chunks the
//! moment the running job records them, and the stream terminates when
//! the job reaches a terminal state (or the client goes away — the
//! worker is unaffected either way). The listener itself is
//! non-blocking; the loop polls a stop flag (the SIGTERM bridge)
//! between accepts and runs the drain protocol when it flips.

use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;

use crate::daemon::{Daemon, SubmitError};
use crate::http::{
    read_request_buffered, write_chunk, write_last_chunk, write_response_conn, write_stream_head,
    HttpError, Request, Response,
};
use crate::job::JobSpec;
use crate::json::{self, obj};

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_IDLE: Duration = Duration::from_millis(2);

/// Requests served per connection before the server closes it — a
/// bound so one chatty client cannot pin a thread forever.
pub const MAX_REQUESTS_PER_CONN: usize = 64;

/// Poll cadence of a streaming tail waiting for new events.
const FOLLOW_POLL: Duration = Duration::from_millis(20);

/// Per-write deadline on every connection. A follow-tail client that
/// stops reading fills its socket buffer; without a deadline the next
/// `write_chunk` blocks forever and pins this connection's thread
/// through the drain. With it the stalled write errors out and the
/// thread exits — the worker running the job is unaffected. Note the
/// kernel often grants a blocked write a little buffer space per
/// window (a timed-out `send` reports partial progress rather than an
/// error), so a stalled tail is disconnected after a few windows, not
/// exactly one.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// The daemon's HTTP listener.
pub struct Server {
    daemon: Arc<Daemon>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7171`; port 0 picks a free port).
    pub fn bind(addr: &str, daemon: Arc<Daemon>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            daemon,
            listener,
            addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until `stop` flips, then runs the graceful drain: refuse
    /// new jobs, checkpoint running ones, keep answering polls until
    /// the workers exit plus a grace window, and return.
    pub fn run(&self, stop: &AtomicBool) -> io::Result<()> {
        let mut draining = false;
        let mut grace_until: Option<Instant> = None;
        loop {
            if !draining && stop.load(Ordering::Relaxed) {
                draining = true;
                self.daemon.begin_drain();
            }
            if draining && grace_until.is_none() && self.daemon.drained() {
                grace_until = Some(Instant::now() + self.daemon.options().drain_grace);
            }
            if let Some(t) = grace_until {
                if Instant::now() >= t {
                    return Ok(());
                }
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let daemon = Arc::clone(&self.daemon);
                    std::thread::spawn(move || serve_connection(&daemon, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_IDLE);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Serves requests off one connection until the client closes it, asks
/// for `Connection: close`, errors, or exhausts the per-connection
/// request budget. A `?follow=1` event tail takes over the connection
/// and streams until the job ends.
fn serve_connection(daemon: &Daemon, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    for served in 1..=MAX_REQUESTS_PER_CONN {
        let req = match read_request_buffered(&mut reader) {
            Ok(req) => req,
            Err(HttpError::Io(_)) => return, // client went away; nothing to say
            Err(e @ HttpError::Malformed(_)) | Err(e @ HttpError::TooLarge(_)) => {
                let _ = write_response_conn(&stream, &error_response(400, &e.to_string()), false);
                return;
            }
        };
        daemon.hub().http_requests_total.inc();
        if let Some(id) = follow_target(&req) {
            // The tail owns the connection from here; its terminating
            // chunk is the close signal.
            stream_events(daemon, &stream, &id);
            return;
        }
        let response = handle_request(daemon, &req);
        let keep_alive = req.keep_alive && served < MAX_REQUESTS_PER_CONN;
        if write_response_conn(&stream, &response, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// The job id when the request is a `GET /jobs/<id>/events?follow=1`.
fn follow_target(req: &Request) -> Option<String> {
    if req.method != "GET" || req.query_param("follow") != Some("1") {
        return None;
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["jobs", id, "events"] => Some((*id).to_owned()),
        _ => None,
    }
}

/// Streams a job's JSONL event file as live chunks: everything already
/// on disk first, then each newly flushed suffix, whole lines only, so
/// every chunk boundary is also a valid JSONL boundary. Ends with the
/// chunked terminator once the job is terminal and the file is
/// drained; a client disconnect surfaces as a write error and simply
/// ends this thread — the worker running the job is untouched.
fn stream_events(daemon: &Daemon, stream: &TcpStream, id: &str) {
    if daemon.job_state(id).is_none() {
        let _ = write_response_conn(
            stream,
            &error_response(404, &format!("no job `{id}`")),
            false,
        );
        return;
    }
    if write_stream_head(stream, 200, "application/x-ndjson").is_err() {
        return;
    }
    let path = daemon.spool().events_path(id);
    let mut offset = 0u64;
    loop {
        // Order matters: sample the state *before* reading the file.
        // The recorder finishes before the job turns terminal, so a
        // terminal state plus an empty read proves the file is drained.
        let state = daemon.job_state(id);
        let chunk = read_new_lines(&path, &mut offset);
        if write_chunk(stream, &chunk).is_err() {
            return; // client disconnected mid-stream
        }
        match state {
            Some(s) if !s.terminal() => std::thread::sleep(FOLLOW_POLL),
            _ if !chunk.is_empty() => {} // drain the tail before closing
            _ => {
                let _ = write_last_chunk(stream);
                return;
            }
        }
    }
}

/// Reads the complete lines appended to `path` since `offset`,
/// advancing `offset` past what was returned. A trailing partial line
/// (an event mid-flush) stays on disk for the next poll.
fn read_new_lines(path: &Path, offset: &mut u64) -> Vec<u8> {
    let Ok(mut file) = std::fs::File::open(path) else {
        return Vec::new();
    };
    if file.seek(SeekFrom::Start(*offset)).is_err() {
        return Vec::new();
    }
    let mut buf = Vec::new();
    if file.read_to_end(&mut buf).is_err() {
        return Vec::new();
    }
    match buf.iter().rposition(|&b| b == b'\n') {
        Some(last) => {
            buf.truncate(last + 1);
            *offset += buf.len() as u64;
            buf
        }
        None => Vec::new(),
    }
}

/// A JSON error body (`{"error": "..."}`).
fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        json::to_text(&obj(vec![("error", Value::Str(message.to_owned()))])),
    )
}

/// Pure request router — all state lives in the daemon, which makes
/// this directly testable without sockets.
pub fn handle_request(daemon: &Daemon, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let hub = daemon.hub();
            Response::json(
                200,
                json::to_text(&obj(vec![
                    ("ok", Value::Bool(true)),
                    ("accepting", Value::Bool(daemon.accepting())),
                    ("version", Value::Str(env!("CARGO_PKG_VERSION").to_owned())),
                    ("uptime_secs", Value::UInt(hub.uptime_secs())),
                    ("workers", Value::Int(hub.workers.value())),
                    ("workers_busy", Value::Int(hub.workers_busy.value())),
                    ("queue_depth", Value::Int(hub.queue_depth.value())),
                ])),
            )
        }
        ("GET", ["metrics"]) => Response::text(daemon.hub().render()),
        ("POST", ["jobs"]) => match JobSpec::from_request(req) {
            Ok(spec) => match daemon.submit(spec) {
                // 201 for a new job; 200 when an Idempotency-Key
                // matched an earlier submission (a retry replay — the
                // job already exists, nothing was created).
                Ok(sub) => Response::json(
                    if sub.deduped { 200 } else { 201 },
                    json::to_text(&obj(vec![
                        ("id", Value::Str(sub.id.clone())),
                        (
                            "state",
                            Value::Str(if sub.deduped {
                                daemon
                                    .job_state(&sub.id)
                                    .map(|s| s.as_str().to_owned())
                                    .unwrap_or_else(|| "queued".to_owned())
                            } else {
                                "queued".to_owned()
                            }),
                        ),
                        ("deduped", Value::Bool(sub.deduped)),
                    ])),
                ),
                Err(e @ SubmitError::QueueFull) => error_response(429, &e.to_string()),
                Err(e @ SubmitError::Draining) => error_response(503, &e.to_string()),
                Err(e @ SubmitError::Spool(_)) => error_response(500, &e.to_string()),
            },
            Err(e) => error_response(400, &e),
        },
        ("GET", ["jobs", id]) => match daemon.status(id) {
            Some(status) => Response::json(200, json::to_text(&status)),
            None => error_response(404, &format!("no job `{id}`")),
        },
        ("GET", ["jobs", id, "events"]) => match daemon.events(id) {
            Some(events) => Response::ndjson(events.into_bytes()),
            None => error_response(404, &format!("no job `{id}`")),
        },
        ("GET", ["jobs", id, "result"]) => match daemon.result(id) {
            Some(report) => Response::json(200, report),
            None => error_response(404, &format!("no result for job `{id}` (not done?)")),
        },
        ("GET", ["jobs", id, "trace"]) => match daemon.trace(id) {
            Some(capture) => Response::ndjson(capture.into_bytes()),
            None => error_response(404, &format!("no job `{id}`")),
        },
        ("GET", ["jobs", id, "placement"]) => match daemon.placement(id) {
            Some(text) => Response {
                status: 200,
                content_type: "text/plain",
                body: text.into_bytes(),
            },
            None => error_response(404, &format!("no placement for job `{id}` (not done?)")),
        },
        ("DELETE", ["jobs", id]) => match daemon.cancel(id) {
            Some(state) => Response::json(
                200,
                json::to_text(&obj(vec![
                    ("id", Value::Str((*id).to_owned())),
                    ("state", Value::Str(state.as_str().to_owned())),
                ])),
            ),
            None => error_response(404, &format!("no job `{id}`")),
        },
        (_, ["jobs", ..]) | (_, ["healthz"]) | (_, ["metrics"]) => {
            error_response(405, &format!("{} not allowed here", req.method))
        }
        _ => error_response(404, &format!("no route for `{}`", req.path)),
    }
}
