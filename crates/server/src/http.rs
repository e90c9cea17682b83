//! Minimal HTTP/1.1 wire handling: an incremental request parser and a
//! response writer.
//!
//! The build is offline, so instead of hyper this module hand-rolls the
//! small, strict subset the service needs: request line + headers +
//! `Content-Length` bodies, keep-alive by default (HTTP/1.1 semantics),
//! explicit size limits, and pipelining-safe buffering (bytes after a
//! complete request stay in the connection buffer for the next parse).

use std::fmt;
use std::io::{Read, Write};

/// Request methods the service understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `PUT`
    Put,
    /// `DELETE`
    Delete,
}

impl Method {
    fn parse(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        })
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The path component of the target (before any `?`).
    pub path: String,
    /// The raw query string (after `?`, may be empty).
    pub query: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the request was HTTP/1.0, where connections close by
    /// default instead of staying alive.
    pub http10: bool,
}

impl Request {
    /// The first header with this (lower-case) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should drop after this request: an
    /// explicit `Connection: close`, or HTTP/1.0 without an explicit
    /// `Connection: keep-alive` (1.0 closes by default).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.http10,
        }
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BadRequest`] on invalid UTF-8.
    pub fn body_text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::BadRequest("request body is not valid UTF-8".into()))
    }
}

/// Parse-level failures, each mapping to a response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or body (400).
    BadRequest(String),
    /// Method token is valid HTTP but not supported here (501).
    UnsupportedMethod(String),
    /// Request line + headers exceed the head limit (431).
    HeadTooLarge,
    /// Declared `Content-Length` exceeds the body limit (413).
    BodyTooLarge,
}

impl HttpError {
    /// The HTTP status this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::UnsupportedMethod(_) => 501,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(reason) => write!(f, "bad request: {reason}"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method {m}"),
            HttpError::HeadTooLarge => f.write_str("request head too large"),
            HttpError::BodyTooLarge => f.write_str("request body too large"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Size limits applied while parsing.
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body.
    pub max_body_bytes: usize,
}

/// Incremental request parser over a growing connection buffer.
///
/// Feed it the buffer after every socket read: it answers `None` while
/// the request is still incomplete, and `Some((request, consumed))`
/// once a full request is buffered — `consumed` bytes belong to this
/// request and must be drained; anything beyond them is the start of
/// the next (pipelined) request.
///
/// # Errors
///
/// Returns [`HttpError`] for malformed or over-limit requests.
pub fn try_parse(buf: &[u8], limits: &ParseLimits) -> Result<Option<(Request, usize)>, HttpError> {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_len > limits.max_head_bytes {
        return Err(HttpError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| HttpError::BadRequest("head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty head".into()))?;

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        other => {
            return Err(HttpError::BadRequest(format!(
                "unsupported version {other:?}"
            )))
        }
    };
    let method =
        Method::parse(method).ok_or_else(|| HttpError::UnsupportedMethod(method.into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "transfer-encoding is not supported; send Content-Length".into(),
        ));
    }

    let content_length = match headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .count()
    {
        0 => 0usize,
        1 => {
            let raw = headers
                .iter()
                .find(|(n, _)| n == "content-length")
                .map(|(_, v)| v.as_str())
                .expect("counted above");
            raw.parse()
                .map_err(|_| HttpError::BadRequest(format!("invalid Content-Length {raw:?}")))?
        }
        _ => {
            return Err(HttpError::BadRequest(
                "multiple Content-Length headers".into(),
            ))
        }
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }

    let total = head_len + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let request = Request {
        method,
        path,
        query,
        headers,
        body: buf[head_len..total].to_vec(),
        http10,
    };
    Ok(Some((request, total)))
}

/// Index just past the `\r\n\r\n` head terminator, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Reads one request from a stream, buffering into `buf`.
///
/// Returns `Ok(None)` on a clean EOF between requests (the client hung
/// up). Leftover bytes beyond the parsed request stay in `buf`.
///
/// `budget` bounds the **whole** request read, counted from its first
/// byte: a client trickling one byte per socket-timeout interval cannot
/// pin a worker past the budget (slow-loris defence) — the per-read
/// socket timeout alone resets on every byte and would never fire.
///
/// # Errors
///
/// `Err(Ok(http_error))` for protocol violations (caller should answer
/// with `http_error.status()` and close), `Err(Err(io_error))` for
/// socket failures, per-read timeouts, and an exhausted budget.
#[allow(clippy::result_large_err)] // the nested Result *is* the protocol/io split
pub fn read_request(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    limits: &ParseLimits,
    budget: std::time::Duration,
) -> Result<Option<Request>, Result<HttpError, std::io::Error>> {
    let mut chunk = [0u8; 8 * 1024];
    // The budget clock starts at the request's first byte; leftover
    // pipelined bytes count as that first byte.
    let mut deadline: Option<std::time::Instant> =
        (!buf.is_empty()).then(|| std::time::Instant::now() + budget);
    loop {
        if let Some((request, consumed)) = try_parse(buf, limits).map_err(Ok)? {
            buf.drain(..consumed);
            return Ok(Some(request));
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            return Err(Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request read budget exhausted",
            )));
        }
        let n = stream.read(&mut chunk).map_err(Err)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(Ok(HttpError::BadRequest(
                "connection closed mid-request".into(),
            )));
        }
        if deadline.is_none() {
            deadline = Some(std::time::Instant::now() + budget);
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One HTTP response, ready to serialise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response from already-serialised text.
    #[must_use]
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// The unified JSON error envelope:
    /// `{"error": {"code": "...", "message": "...", "retryable": bool}}`.
    ///
    /// Every error this service emits — router misses, parse failures,
    /// handler errors, overload shedding — uses this shape, so clients
    /// branch on the stable `code` instead of scraping messages.
    #[must_use]
    pub fn error_coded(status: u16, code: &str, message: &str, retryable: bool) -> Response {
        let detail = serde::Value::Map(vec![
            ("code".into(), serde::Value::Str(code.into())),
            ("message".into(), serde::Value::Str(message.into())),
            ("retryable".into(), serde::Value::Bool(retryable)),
        ]);
        let body = serde_json::to_string(&serde::Value::Map(vec![("error".into(), detail)]))
            .expect("error envelope serialises");
        Response::json(status, body)
    }

    /// An error envelope with the default code for `status` (see
    /// [`default_code`]).
    #[must_use]
    pub fn error(status: u16, message: &str) -> Response {
        Response::error_coded(status, default_code(status), message, status == 503)
    }

    /// Serialises the status line, headers and body.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_to(&self, out: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        out.write_all(head.as_bytes())?;
        out.write_all(&self.body)?;
        out.flush()
    }
}

/// The stable machine-readable error code implied by a bare status.
#[must_use]
pub fn default_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        409 => "conflict",
        413 => "payload_too_large",
        422 => "unprocessable",
        431 => "headers_too_large",
        501 => "not_implemented",
        503 => "overloaded",
        _ => "internal",
    }
}

/// The canonical reason phrase for the statuses this service emits.
#[must_use]
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: ParseLimits = ParseLimits {
        max_head_bytes: 1024,
        max_body_bytes: 4096,
    };

    fn parse_ok(raw: &str) -> (Request, usize) {
        try_parse(raw.as_bytes(), &LIMITS)
            .expect("parses")
            .expect("complete")
    }

    #[test]
    fn parses_get_without_body() {
        let (req, used) = parse_ok("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.query, "");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert_eq!(used, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".len());
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let raw = "POST /search?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdEXTRA";
        let (req, used) = try_parse(raw.as_bytes(), &LIMITS).unwrap().unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/search");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body, b"abcd");
        assert_eq!(&raw.as_bytes()[used..], b"EXTRA", "pipelined tail survives");
    }

    #[test]
    fn incremental_parsing_waits_for_completion() {
        let full = "POST /images HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
        for cut in [3, 20, full.len() - 1] {
            assert_eq!(try_parse(&full.as_bytes()[..cut], &LIMITS).unwrap(), None);
        }
        assert!(try_parse(full.as_bytes(), &LIMITS).unwrap().is_some());
    }

    #[test]
    fn rejects_malformed_heads() {
        for raw in [
            "NOPE\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET  HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
            "GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(try_parse(raw.as_bytes(), &LIMITS).is_err(), "{raw:?}");
        }
        let patch = try_parse(b"PATCH /x HTTP/1.1\r\n\r\n", &LIMITS);
        assert_eq!(patch.unwrap_err().status(), 501);
    }

    #[test]
    fn enforces_limits() {
        let huge_head = format!("GET /x HTTP/1.1\r\nh: {}\r\n\r\n", "a".repeat(2000));
        assert_eq!(
            try_parse(huge_head.as_bytes(), &LIMITS).unwrap_err(),
            HttpError::HeadTooLarge
        );
        // an unterminated head growing past the limit is shed early
        let creeping = format!("GET /x HTTP/1.1\r\nh: {}", "a".repeat(2000));
        assert_eq!(
            try_parse(creeping.as_bytes(), &LIMITS).unwrap_err(),
            HttpError::HeadTooLarge
        );
        let big_body = "POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
        assert_eq!(
            try_parse(big_body.as_bytes(), &LIMITS).unwrap_err(),
            HttpError::BodyTooLarge
        );
    }

    #[test]
    fn connection_close_detection() {
        let (req, _) = parse_ok("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(req.wants_close());
        let (req, _) = parse_ok("GET /x HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
        assert!(!req.wants_close());
        let (req, _) = parse_ok("GET /x HTTP/1.1\r\n\r\n");
        assert!(!req.wants_close(), "1.1 keeps alive by default");

        // HTTP/1.0 closes by default, keeps alive only when asked
        let (req, _) = parse_ok("GET /x HTTP/1.0\r\n\r\n");
        assert!(req.http10);
        assert!(req.wants_close());
        let (req, _) = parse_ok("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!req.wants_close());
    }

    #[test]
    fn read_request_over_fragmented_stream() {
        // A reader that yields one byte at a time exercises the
        // incremental path hard.
        struct Trickle(Vec<u8>, usize);
        impl Read for Trickle {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let raw = b"POST /search HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}".to_vec();
        let budget = std::time::Duration::from_secs(5);
        let mut stream = Trickle(raw, 0);
        let mut buf = Vec::new();
        let req = read_request(&mut stream, &mut buf, &LIMITS, budget)
            .expect("reads")
            .expect("one request");
        assert_eq!(req.body, b"{}");
        assert!(buf.is_empty());
        // next read: clean EOF
        assert!(read_request(&mut stream, &mut buf, &LIMITS, budget)
            .expect("clean EOF")
            .is_none());
    }

    #[test]
    fn slow_loris_is_cut_by_the_request_budget() {
        // Each read yields one byte after a small delay; the per-read
        // socket timeout would never fire, but the budget must.
        struct Drip(Vec<u8>, usize);
        impl Read for Drip {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(std::time::Duration::from_millis(5));
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let raw = b"POST /search HTTP/1.1\r\ncontent-length: 400\r\n\r\n".to_vec();
        let mut stream = Drip(raw, 0);
        let mut buf = Vec::new();
        let budget = std::time::Duration::from_millis(30);
        let err = read_request(&mut stream, &mut buf, &LIMITS, budget)
            .expect_err("budget must cut the drip")
            .expect_err("io-level timeout, not a protocol error");
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }

    #[test]
    fn response_writing() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        Response::error(503, "server overloaded")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with(
            "{\"error\":{\"code\":\"overloaded\",\"message\":\"server overloaded\",\"retryable\":true}}"
        ));
    }

    #[test]
    fn error_envelope_is_coded() {
        let resp = Response::error_coded(404, "unknown_record", "no record 7", false);
        let text = String::from_utf8(resp.body).unwrap();
        assert_eq!(
            text,
            "{\"error\":{\"code\":\"unknown_record\",\"message\":\"no record 7\",\"retryable\":false}}"
        );
        assert_eq!(default_code(405), "method_not_allowed");
        assert_eq!(default_code(418), "internal");
    }
}
