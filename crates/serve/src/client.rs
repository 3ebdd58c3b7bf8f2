//! A minimal blocking HTTP client for the daemon's API — used by the
//! integration tests, the load harness, and the benchmark so none of
//! them needs an external HTTP tool. [`Conn`] reuses one keep-alive
//! connection across requests; [`follow`] consumes a chunked
//! streaming event tail, surfacing each chunk as it lands.
//!
//! Retries: [`request_with_retry`] wraps any request in bounded
//! exponential backoff with deterministic jitter, retrying connect
//! failures, socket timeouts, and 5xx responses. Paired with an
//! `Idempotency-Key` header a retried `POST /jobs` can never
//! double-submit: the daemon replays the first accepted submission
//! instead of creating a second job.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::http::read_chunk_frame;

/// One response from the daemon.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
}

impl ClientResponse {
    /// Parses the body as JSON (the API's usual payload).
    pub fn json(&self) -> Result<serde::Value, String> {
        twmc_obs::validate::parse_json(&self.body)
    }
}

/// Issues one request against `addr` (e.g. `"127.0.0.1:7171"`).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> io::Result<ClientResponse> {
    request_with(addr, method, path, content_type, &[], body)
}

/// [`request`] with extra headers (`[("Idempotency-Key", "…")]`).
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some(ct) = content_type {
        head.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    ));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Bounded exponential backoff with deterministic jitter.
///
/// Sleep before attempt `n` (1-based, no sleep before the first) is
/// `min(base · 2^(n-1), cap)` scaled by a jitter factor in `[0.5, 1.0)`
/// derived from `(seed, n)` via splitmix64 — deterministic for a given
/// policy, so tests and replayed incidents back off identically.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// Backoff base delay.
    pub base: Duration,
    /// Upper bound any single delay is clamped to.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay to sleep before attempt `attempt` (1-based; attempt 1
    /// never sleeps).
    pub fn delay(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let exp = (attempt - 2).min(30);
        let raw = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.cap)
            .as_nanos() as u64;
        // Jitter factor in [0.5, 1.0): desynchronizes retry herds while
        // staying deterministic for (seed, attempt).
        let r = splitmix64(self.seed ^ (u64::from(attempt) << 32));
        let factor_millionths = 500_000 + (r % 500_000);
        Duration::from_nanos(raw / 1_000_000 * factor_millionths)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Whether a response status is worth retrying (server-side trouble;
/// 4xx client errors are not — resending the same bad request cannot
/// succeed).
fn retryable_status(status: u16) -> bool {
    status >= 500
}

/// Issues a request under `policy`: connect errors, socket timeouts,
/// and 5xx responses are retried with backoff; any other response (or
/// exhaustion) is returned as-is. Safe for non-idempotent requests
/// only when they carry an `Idempotency-Key` — a timed-out `POST` may
/// have been accepted before the connection died, and only the key
/// keeps the retry from double-submitting.
pub fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    headers: &[(&str, &str)],
    body: &[u8],
    policy: &RetryPolicy,
) -> io::Result<ClientResponse> {
    let attempts = policy.attempts.max(1);
    let mut last_err: Option<io::Error> = None;
    for attempt in 1..=attempts {
        std::thread::sleep(policy.delay(attempt));
        match request_with(addr, method, path, content_type, headers, body) {
            Ok(resp) if retryable_status(resp.status) && attempt < attempts => {
                last_err = Some(io::Error::other(format!(
                    "server returned {} for {method} {path}",
                    resp.status
                )));
            }
            Ok(resp) => return Ok(resp),
            Err(e) if attempt < attempts => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("retry budget exhausted")))
}

/// `GET path`.
pub fn get(addr: &str, path: &str) -> io::Result<ClientResponse> {
    request(addr, "GET", path, None, b"")
}

/// `POST path` with a JSON body.
pub fn post_json(addr: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
    request(
        addr,
        "POST",
        path,
        Some("application/json"),
        body.as_bytes(),
    )
}

/// `POST path` with a raw (netlist) body.
pub fn post_raw(addr: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
    request(addr, "POST", path, Some("text/plain"), body.as_bytes())
}

/// `DELETE path`.
pub fn delete(addr: &str, path: &str) -> io::Result<ClientResponse> {
    request(addr, "DELETE", path, None, b"")
}

/// How a [`follow`] stream ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FollowEnd {
    /// The server wrote the terminating chunk — the job is terminal
    /// and every event was delivered.
    Complete,
    /// The chunk callback asked to stop; the connection was dropped
    /// mid-stream (the simulated client disconnect).
    ClientStopped,
}

/// Follows `path` (e.g. `/jobs/j1/events?follow=1`) as a chunked
/// stream. `on_chunk` sees each data chunk as it arrives and returns
/// whether to keep following; returning `false` severs the connection
/// immediately, exactly like a client vanishing mid-stream. Returns
/// how the stream ended plus everything received.
pub fn follow(
    addr: &str,
    path: &str,
    mut on_chunk: impl FnMut(&[u8]) -> bool,
) -> io::Result<(FollowEnd, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let head = read_response_head(&mut reader)?;
    if head.status != 200 {
        return Err(io::Error::other(format!(
            "follow got status {}",
            head.status
        )));
    }
    if !head.chunked {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "follow response is not chunked",
        ));
    }
    let mut received = Vec::new();
    while let Some(chunk) = read_chunk_frame(&mut reader)? {
        received.extend_from_slice(&chunk);
        if !on_chunk(&chunk) {
            return Ok((FollowEnd::ClientStopped, received));
        }
    }
    Ok((FollowEnd::Complete, received))
}

/// A persistent keep-alive connection issuing sequential requests.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Issues `GET path` over the persistent connection. Errors with
    /// `UnexpectedEof` once the server has closed it (request-budget
    /// exhaustion or an earlier `Connection: close`).
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        let head = format!("GET {path} HTTP/1.1\r\nHost: conn\r\nConnection: keep-alive\r\n\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.flush()?;
        let head = read_response_head(&mut self.reader)?;
        let mut body = vec![0u8; head.content_length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse {
            status: head.status,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// Parsed response head fields the client cares about.
struct ResponseHead {
    status: u16,
    content_length: usize,
    chunked: bool,
}

/// Reads a status line plus headers off a buffered response stream.
fn read_response_head<R: BufRead>(reader: &mut R) -> io::Result<ResponseHead> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response arrived",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response lacks a status"))?;
    let mut head = ResponseHead {
        status,
        content_length: 0,
        chunked: false,
    };
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            return Ok(head);
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => head.content_length = value.parse().unwrap_or(0),
            "transfer-encoding" => head.chunked = value.eq_ignore_ascii_case("chunked"),
            _ => {}
        }
    }
}

/// Splits a raw HTTP/1.1 response into status + body.
fn parse_response(raw: &[u8]) -> io::Result<ClientResponse> {
    let text = String::from_utf8_lossy(raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "response lacks a header/body separator",
        ));
    };
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response lacks a status"))?;
    Ok(ClientResponse {
        status,
        body: body.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\n\
                    Content-Length: 11\r\n\r\n{\"id\":\"j1\"}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.body, "{\"id\":\"j1\"}");
        let v = resp.json().unwrap();
        assert_eq!(crate::json::get_str(&v, "id"), Some("j1"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(400),
            seed: 7,
        };
        assert_eq!(policy.delay(1), Duration::ZERO);
        for attempt in 2..=6 {
            let d = policy.delay(attempt);
            let ceiling = Duration::from_millis(100)
                .saturating_mul(1 << (attempt - 2))
                .min(Duration::from_millis(400));
            assert!(d >= ceiling / 2, "attempt {attempt}: {d:?} under half");
            assert!(d < ceiling, "attempt {attempt}: {d:?} over ceiling");
            // Deterministic: the same (seed, attempt) always sleeps the
            // same amount.
            assert_eq!(d, policy.delay(attempt));
        }
        // A different seed jitters differently somewhere in the ladder.
        let other = RetryPolicy { seed: 8, ..policy };
        assert!((2..=6).any(|a| other.delay(a) != policy.delay(a)));
    }

    /// Reads one whole request off `s` with the daemon's own parser and
    /// returns it with its raw bytes. Answering before the body is read
    /// would close the socket with bytes unread, and Linux then resets
    /// the connection, so the client's read of the answer could fail.
    fn drain_request(s: &TcpStream) -> (crate::http::Request, String) {
        struct Recording<'a> {
            inner: &'a TcpStream,
            seen: Vec<u8>,
        }
        impl Read for Recording<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.inner.read(buf)?;
                self.seen.extend_from_slice(&buf[..n]);
                Ok(n)
            }
        }
        let mut rec = Recording {
            inner: s,
            seen: Vec::new(),
        };
        let req = crate::http::read_request(&mut rec).expect("a well-formed request");
        (req, String::from_utf8_lossy(&rec.seen).into_owned())
    }

    /// A single-thread fake server answering each connection with the
    /// next canned status (closing immediately for status 0 = connect
    /// troubles are exercised separately via an unbound port).
    fn fake_server(statuses: Vec<u16>) -> (String, std::thread::JoinHandle<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            for status in statuses {
                let (mut s, _) = listener.accept().unwrap();
                drain_request(&s);
                let body = format!("{{\"status\":{status}}}");
                let resp = format!(
                    "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = s.write_all(resp.as_bytes());
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn retry_recovers_from_5xx() {
        let (addr, handle) = fake_server(vec![500, 503, 201]);
        let policy = RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            seed: 1,
        };
        let resp = request_with_retry(&addr, "POST", "/jobs", None, &[], b"x", &policy).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn retry_does_not_touch_4xx_and_exhausts_on_persistent_5xx() {
        let (addr, handle) = fake_server(vec![400]);
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 2,
        };
        let resp = request_with_retry(&addr, "POST", "/jobs", None, &[], b"x", &policy).unwrap();
        assert_eq!(resp.status, 400, "client errors must not be retried");
        assert_eq!(handle.join().unwrap(), 1);

        let (addr, handle) = fake_server(vec![500, 500, 500]);
        let resp = request_with_retry(&addr, "GET", "/x", None, &[], b"", &policy).unwrap();
        assert_eq!(resp.status, 500, "exhaustion returns the last response");
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn retry_surfaces_connect_failure_after_exhaustion() {
        // Bind-then-drop guarantees a port nothing is listening on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let policy = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 3,
        };
        assert!(request_with_retry(&addr, "GET", "/healthz", None, &[], b"", &policy).is_err());
    }

    #[test]
    fn request_with_sends_extra_headers() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (req, head) = drain_request(&s);
            assert_eq!(req.body, b"{}");
            let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
            head
        });
        let resp = request_with(
            &addr,
            "POST",
            "/jobs",
            Some("application/json"),
            &[("Idempotency-Key", "abc-1")],
            b"{}",
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        let head = handle.join().unwrap();
        assert!(head.contains("Idempotency-Key: abc-1\r\n"), "{head}");
    }
}
