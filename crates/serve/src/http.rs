//! A hand-rolled HTTP/1.1 subset over `std::net` — just enough wire
//! protocol for the placement daemon's JSON API.
//!
//! The vendored dependencies are offline stand-ins, so there is no
//! tokio/hyper to lean on; like the obs crate hand-rolled its JSON
//! parser, this module hand-rolls a small, strict request reader and
//! response writer. Connections are persistent by HTTP/1.1 default
//! (`Connection: close` or the server's per-connection request bound
//! ends them), header and body sizes are bounded, and typed parse
//! errors map to `400`. Streaming responses (`?follow=1` event tails)
//! use `Transfer-Encoding: chunked` via the codec at the bottom.

use std::io::{self, BufRead, BufReader, Read, Write};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body (netlists are text; 16 MiB is ample).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb (`GET`, `POST`, `DELETE`, …), uppercased.
    pub method: String,
    /// Decoded path without the query string (`/jobs/j1/events`).
    pub path: String,
    /// Raw query string without the `?` (may be empty).
    pub query: String,
    /// `Content-Type` header value, lowercased (may be empty).
    pub content_type: String,
    /// `Idempotency-Key` header value, verbatim (empty when absent).
    /// Carried so `POST /jobs` retries can dedupe instead of
    /// double-submitting.
    pub idempotency_key: String,
    /// Request body bytes (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// Whether the client allows the connection to be reused after
    /// this exchange: the HTTP/1.1 default unless `Connection: close`,
    /// opt-in via `Connection: keep-alive` for HTTP/1.0.
    pub keep_alive: bool,
}

impl Request {
    /// Looks up a query parameter (`?seed=7&yal=1`), percent-decoding
    /// not included — the API uses plain tokens only.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed or closed mid-request.
    Io(io::Error),
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY`].
    TooLarge(usize),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(n) => {
                write!(
                    f,
                    "request body of {n} bytes exceeds the {MAX_BODY}-byte limit"
                )
            }
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one request from `stream` (convenience for single-shot use;
/// keep-alive loops hold their own [`BufReader`] and call
/// [`read_request_buffered`] so pipelined bytes are not dropped).
pub fn read_request<R: Read>(stream: R) -> Result<Request, HttpError> {
    read_request_buffered(&mut BufReader::new(stream))
}

/// Reads one request from an existing buffered reader.
pub fn read_request_buffered<R: Read>(reader: &mut BufReader<R>) -> Result<Request, HttpError> {
    let mut line = String::new();
    read_line(reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line lacks a target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut content_length = 0usize;
    let mut content_type = String::new();
    let mut idempotency_key = String::new();
    // HTTP/1.1 connections persist unless told otherwise; HTTP/1.0
    // needs the explicit keep-alive opt-in.
    let mut keep_alive = version == "HTTP/1.1";
    let mut head_bytes = line.len();
    loop {
        line.clear();
        read_line(reader, &mut line)?;
        head_bytes += line.len() + 2;
        if head_bytes > MAX_HEAD {
            return Err(HttpError::Malformed("request head too large".into()));
        }
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line `{line}`")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad Content-Length `{value}`")))?;
            }
            "content-type" => content_type = value.to_ascii_lowercase(),
            "idempotency-key" => idempotency_key = value.to_owned(),
            "connection" => match value.to_ascii_lowercase().as_str() {
                "close" => keep_alive = false,
                "keep-alive" => keep_alive = true,
                _ => {}
            },
            _ => {}
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        content_type,
        idempotency_key,
        body,
        keep_alive,
    })
}

/// Reads one CRLF-terminated line, stripping the terminator.
fn read_line<R: BufRead>(reader: &mut R, line: &mut String) -> Result<(), HttpError> {
    line.clear();
    let n = reader.read_line(line)?;
    if n == 0 {
        return Err(HttpError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a full request arrived",
        )));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(())
}

/// One response to send back.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A newline-delimited-JSON (telemetry stream) response.
    pub fn ndjson(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            content_type: "application/x-ndjson",
            body,
        }
    }

    /// A plain-text response (the Prometheus exposition).
    pub fn text(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
        }
    }
}

/// The reason phrase of the status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes `response`, advertising whether the server will keep the
/// connection open for another request.
pub fn write_response_conn<W: Write>(
    mut stream: W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

// ---- chunked transfer encoding (streaming event tails) ----------------

/// Writes the head of a chunked streaming response. The body follows
/// as [`write_chunk`] calls, ended by [`write_last_chunk`]. Streaming
/// responses always close the connection — their length is unknowable
/// up front and the terminator doubles as the end-of-stream signal.
pub fn write_stream_head<W: Write>(
    mut stream: W,
    status: u16,
    content_type: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one non-empty chunk (`<hex-size>\r\n<data>\r\n`) and flushes
/// so followers see it immediately. Empty data is skipped — a
/// zero-length chunk is the terminator, written by
/// [`write_last_chunk`] only.
pub fn write_chunk<W: Write>(mut stream: W, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Writes the zero-length terminating chunk.
pub fn write_last_chunk<W: Write>(mut stream: W) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Decodes a complete chunked body from `reader` (positioned just
/// after the response head). Used by the blocking test client; the
/// reader may deliver bytes in arbitrary splits — chunk headers and
/// payloads spanning reads reassemble correctly because every piece is
/// pulled through the buffered reader.
pub fn read_chunked<R: BufRead>(reader: &mut R) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    while let Some(chunk) = read_chunk_frame(reader)? {
        body.extend_from_slice(&chunk);
    }
    Ok(body)
}

/// Reads one chunk frame: `Some(data)` for a data chunk, `None` once
/// the zero-length terminator arrives. Followers call this in a loop
/// to see each flushed chunk as it lands.
pub fn read_chunk_frame<R: BufRead>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut size_line = String::new();
    if reader.read_line(&mut size_line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended before the terminating chunk",
        ));
    }
    let size_str = size_line.trim_end();
    // Chunk extensions (`;name=value`) are legal; ignore them.
    let size_str = size_str.split(';').next().unwrap_or(size_str);
    let size = usize::from_str_radix(size_str, 16).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad chunk size line `{size_str}`"),
        )
    })?;
    if size == 0 {
        // Consume the trailing CRLF after the last chunk (no trailers
        // in this dialect).
        let mut crlf = String::new();
        let _ = reader.read_line(&mut crlf)?;
        return Ok(None);
    }
    let mut data = vec![0u8; size];
    reader.read_exact(&mut data)?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "chunk data not followed by CRLF",
        ));
    }
    Ok(Some(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(raw.as_bytes())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /jobs?seed=7 HTTP/1.1\r\nHost: x\r\nContent-Type: Application/JSON\r\n\
             Content-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query, "seed=7");
        assert_eq!(req.query_param("seed"), Some("7"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.content_type, "application/json");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn parses_idempotency_key_case_insensitively() {
        let req = parse("POST /jobs HTTP/1.1\r\nIDEMPOTENCY-KEY: retry-abc-123\r\n\r\n").unwrap();
        assert_eq!(req.idempotency_key, "retry-abc-123");
        let bare = parse("POST /jobs HTTP/1.1\r\n\r\n").unwrap();
        assert!(bare.idempotency_key.is_empty());
    }

    #[test]
    fn parses_a_bare_get() {
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty() && req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(parse("\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET / SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&huge), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(parse(raw), Err(HttpError::Io(_))));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response_conn(
            &mut out,
            &Response::json(201, "{\"id\":\"j1\"}".into()),
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"id\":\"j1\"}"), "{text}");
    }

    #[test]
    fn connection_header_sets_keep_alive() {
        // HTTP/1.1 default: persistent.
        assert!(parse("GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        // Explicit close wins.
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        // HTTP/1.0 closes unless it opts in.
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(
            parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn keep_alive_response_advertises_it() {
        let mut out = Vec::new();
        write_response_conn(&mut out, &Response::json(200, "{}".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn buffered_reader_serves_pipelined_requests() {
        let wire = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(wire.as_bytes());
        let first = read_request_buffered(&mut reader).unwrap();
        let second = read_request_buffered(&mut reader).unwrap();
        assert_eq!(first.path, "/a");
        assert!(first.keep_alive);
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive);
    }

    #[test]
    fn chunked_roundtrip() {
        let mut wire = Vec::new();
        write_chunk(&mut wire, b"{\"a\":1}\n").unwrap();
        write_chunk(&mut wire, b"").unwrap(); // skipped, not a terminator
        write_chunk(&mut wire, b"{\"b\":2}\n").unwrap();
        write_last_chunk(&mut wire).unwrap();
        let body = read_chunked(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(body, b"{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn chunked_decoder_handles_split_headers() {
        // A one-byte buffer forces every chunk-size line, payload, and
        // CRLF to arrive fragmented across reads.
        let wire = b"10\r\nsixteen byte str\r\n3;ext=1\r\nabc\r\n0\r\n\r\n";
        let mut reader = BufReader::with_capacity(1, wire.as_slice());
        let body = read_chunked(&mut reader).unwrap();
        assert_eq!(body, b"sixteen byte strabc");
    }

    #[test]
    fn chunked_decoder_rejects_garbage() {
        let mut reader = BufReader::new(b"zz\r\n\r\n".as_slice());
        assert!(read_chunked(&mut reader).is_err());
        // Truncation before the zero chunk is an error, not EOF-success.
        let mut reader = BufReader::new(b"3\r\nabc\r\n".as_slice());
        assert!(read_chunked(&mut reader).is_err());
    }

    #[test]
    fn stream_head_is_chunked_and_closing() {
        let mut out = Vec::new();
        write_stream_head(&mut out, 200, "application/x-ndjson").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n"), "{text}");
    }
}
