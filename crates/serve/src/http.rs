//! A hand-rolled HTTP/1.1 server-side codec.
//!
//! The daemon speaks plain HTTP over [`std::net::TcpStream`] with no
//! external dependencies, so the wire protocol lives here: a strict
//! request parser with hard limits (header block size, body size,
//! nesting comes from [`crate::json`]) that turns every malformed input
//! into a clean 4xx instead of a panic, and a small response writer.
//!
//! Supported surface: methods as tokens, origin-form targets with query
//! strings, `Content-Length` bodies, keep-alive (HTTP/1.1 default) and
//! `Connection: close`. `Transfer-Encoding` is rejected with 501 —
//! clients of this daemon never need chunked uploads.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

/// Hard limit on the request line + headers block, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default hard limit on a request body, in bytes.
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// Hard limits governing one request read.
///
/// The head deadline is the slow-loris defense: it starts at the first
/// byte of a request (the wait for that byte is the connection loop's
/// idle wait, so patient-but-silent clients are fine while no other
/// connection is queued) and bounds how long a client may dribble out
/// the head block.
#[derive(Clone, Copy, Debug)]
pub struct RequestLimits {
    /// Hard limit on the request line + headers block, in bytes.
    pub max_head_bytes: usize,
    /// Hard limit on the declared request body, in bytes.
    pub max_body_bytes: usize,
    /// Budget for the head block, measured from its first byte.
    /// `None` disables the deadline.
    pub header_timeout: Option<Duration>,
}

impl Default for RequestLimits {
    fn default() -> RequestLimits {
        RequestLimits {
            max_head_bytes: MAX_HEAD_BYTES,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            header_timeout: None,
        }
    }
}

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, upper-case token (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component, without the query string.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed, mapped to an HTTP status.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line, header, or encoding.
    Bad(&'static str),
    /// The head block exceeded the configured byte limit.
    HeadTooLarge,
    /// The head block arrived too slowly (slow-loris): its first byte
    /// was read, but the blank line did not follow within the
    /// configured [`RequestLimits::header_timeout`].
    HeadTimeout,
    /// The declared body exceeded the configured limit.
    BodyTooLarge {
        /// The limit in force.
        limit: usize,
    },
    /// `Transfer-Encoding` requests an unimplemented framing.
    UnsupportedTransferEncoding,
    /// The HTTP version is not 1.x.
    UnsupportedVersion,
    /// The socket timed out mid-request.
    Timeout,
    /// The connection dropped mid-request or another I/O failure.
    Io(io::Error),
    /// Clean end of stream before any request byte (keep-alive close).
    ConnectionClosed,
}

impl ParseError {
    /// The HTTP status code and reason this error should produce.
    /// [`ParseError::ConnectionClosed`] never produces a response.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            ParseError::Bad(_) => (400, "Bad Request"),
            ParseError::HeadTooLarge => (431, "Request Header Fields Too Large"),
            ParseError::BodyTooLarge { .. } => (413, "Payload Too Large"),
            ParseError::UnsupportedTransferEncoding => (501, "Not Implemented"),
            ParseError::UnsupportedVersion => (505, "HTTP Version Not Supported"),
            ParseError::HeadTimeout => (408, "Request Timeout"),
            ParseError::Timeout => (408, "Request Timeout"),
            ParseError::Io(_) | ParseError::ConnectionClosed => (400, "Bad Request"),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Bad(what) => write!(f, "malformed request: {what}"),
            ParseError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            ParseError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds {limit} bytes")
            }
            ParseError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding is not supported; use content-length")
            }
            ParseError::UnsupportedVersion => write!(f, "only HTTP/1.x is supported"),
            ParseError::HeadTimeout => {
                write!(f, "request head arrived too slowly; closing")
            }
            ParseError::Timeout => write!(f, "timed out reading request"),
            ParseError::Io(e) => write!(f, "i/o error reading request: {e}"),
            ParseError::ConnectionClosed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ParseError::Timeout,
            io::ErrorKind::UnexpectedEof => {
                ParseError::Bad("connection closed mid-request")
            }
            _ => ParseError::Io(e),
        }
    }
}

/// Reads one request from `reader`.
///
/// Returns [`ParseError::ConnectionClosed`] when the stream ends cleanly
/// before the first byte — the normal end of a keep-alive connection.
///
/// # Errors
///
/// Any malformed, oversized, or timed-out input yields a [`ParseError`]
/// that maps to a 4xx/5xx via [`ParseError::status`].
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_body_bytes: usize,
) -> Result<Request, ParseError> {
    read_request_limited(
        reader,
        &RequestLimits { max_body_bytes, ..RequestLimits::default() },
    )
}

/// [`read_request`] with the full set of [`RequestLimits`], including
/// the head deadline.
///
/// # Errors
///
/// As [`read_request`], plus [`ParseError::HeadTimeout`] when the head
/// block dribbles past its deadline.
pub fn read_request_limited<R: BufRead>(
    reader: &mut R,
    limits: &RequestLimits,
) -> Result<Request, ParseError> {
    let head = read_head(reader, limits)?;
    let max_body_bytes = limits.max_body_bytes;
    let mut lines =
        head.split(|&b| b == b'\n').map(|l| l.strip_suffix(b"\r").unwrap_or(l));

    let request_line = lines.next().ok_or(ParseError::Bad("empty request"))?;
    let request_line = std::str::from_utf8(request_line)
        .map_err(|_| ParseError::Bad("request line is not UTF-8"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().ok_or(ParseError::Bad("missing request target"))?;
    let version = parts.next().ok_or(ParseError::Bad("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(ParseError::Bad("request line has too many fields"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase() || b == b'-') {
        return Err(ParseError::Bad("invalid method token"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::UnsupportedVersion);
    }
    if !target.starts_with('/') {
        return Err(ParseError::Bad("request target must be origin-form"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| ParseError::Bad("header is not UTF-8"))?;
        let (name, value) =
            line.split_once(':').ok_or(ParseError::Bad("header missing `:`"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Bad("invalid header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(ParseError::UnsupportedTransferEncoding);
    }
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => {
            v.parse::<usize>().map_err(|_| ParseError::Bad("invalid content-length"))?
        }
    };
    if content_length > max_body_bytes {
        return Err(ParseError::BodyTooLarge { limit: max_body_bytes });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path).ok_or(ParseError::Bad("invalid path escape"))?;
    let query = match raw_query {
        None => Vec::new(),
        Some(q) => parse_query(q).ok_or(ParseError::Bad("invalid query escape"))?,
    };

    Ok(Request { method: method.to_string(), path, query, headers, body })
}

/// Reads up to and including the blank line ending the head block. The
/// head deadline clock starts once the first head byte has been read —
/// the wait *for* that byte is the idle wait, which the connection loop
/// bounds.
fn read_head<R: BufRead>(
    reader: &mut R,
    limits: &RequestLimits,
) -> Result<Vec<u8>, ParseError> {
    let mut head = Vec::new();
    let mut started_at: Option<Instant> = None;
    loop {
        let expired = |started_at: Option<Instant>| {
            limits.header_timeout.is_some_and(|budget| {
                started_at.is_some_and(|start| start.elapsed() >= budget)
            })
        };
        if expired(started_at) {
            return Err(ParseError::HeadTimeout);
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            // A socket timeout while mid-head and past the deadline is
            // the slow-loris cut-off, not an idle keep-alive timeout.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) && expired(started_at) =>
            {
                return Err(ParseError::HeadTimeout);
            }
            Err(e) => return Err(e.into()),
        };
        if buf.is_empty() {
            return if head.is_empty() {
                Err(ParseError::ConnectionClosed)
            } else {
                Err(ParseError::Bad("connection closed mid-head"))
            };
        }
        if started_at.is_none() && limits.header_timeout.is_some() {
            started_at = Some(Instant::now());
        }
        // Scan the new bytes for the head terminator, tracking overlap
        // with bytes already consumed.
        let mut consumed = 0;
        let mut done = false;
        for &b in buf {
            consumed += 1;
            head.push(b);
            if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                done = true;
                break;
            }
            if head.len() > limits.max_head_bytes {
                reader.consume(consumed);
                return Err(ParseError::HeadTooLarge);
            }
        }
        reader.consume(consumed);
        if done {
            return Ok(head);
        }
    }
}

fn parse_query(raw: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    for pair in raw.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Some(out)
}

/// Decodes `%XX` escapes and `+` (as space). Returns `None` on invalid
/// escapes or non-UTF-8 results.
fn percent_decode(raw: &str) -> Option<String> {
    if !raw.contains('%') && !raw.contains('+') {
        return Some(raw.to_string());
    }
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hex = std::str::from_utf8(hex).ok()?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// An HTTP response ready to be written.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether to close the connection after this response.
    pub close: bool,
    /// Additional response headers beyond `content-type` and
    /// `content-length` (e.g. `X-Car-Epoch`), written verbatim in order.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: &crate::json::Json) -> Response {
        Response {
            status,
            reason: reason_for(status),
            content_type: "application/json",
            body: body.render().into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A JSON response from pre-rendered body bytes — the cached-view
    /// path, where the body was rendered once and is served repeatedly.
    pub fn json_bytes(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            reason: reason_for(status),
            content_type: "application/json",
            body,
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            reason: reason_for(status),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A JSON error envelope `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            &crate::json::object([("error", crate::json::Json::from(message))]),
        )
    }

    /// Marks the connection for closing after this response.
    pub fn with_close(mut self) -> Response {
        self.close = true;
        self
    }

    /// Adds a custom response header. The name must not collide with the
    /// headers the writer emits itself (`content-type`, `content-length`,
    /// `connection`); values must be header-safe (no CR/LF).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// Writes the response (status line, headers, body) to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra_headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        if self.close {
            write!(w, "connection: close\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Standard reason phrase for the status codes the daemon emits.
pub fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut Cursor::new(raw.to_vec()), DEFAULT_MAX_BODY_BYTES)
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(
            b"GET /v1/rules?length=7&min_confidence=0.8&flag HTTP/1.1\r\n\
              host: localhost\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/rules");
        assert_eq!(req.query_param("length"), Some("7"));
        assert_eq!(req.query_param("min_confidence"), Some("0.8"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse(b"POST /v1/units HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"a\": [1]}");
        // content-length 9 < actual 10: body is truncated to declaration.
        let req = req.unwrap();
        assert_eq!(req.body, b"{\"a\": [1]".to_vec());
    }

    #[test]
    fn percent_and_plus_decoding() {
        let req = parse(b"GET /v1/rules?name=a%20b+c&x=%2F HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("name"), Some("a b c"));
        assert_eq!(req.query_param("x"), Some("/"));
    }

    #[test]
    fn bad_method_is_400() {
        for raw in [
            b"get /v1/health HTTP/1.1\r\n\r\n".as_slice(),
            b"G=T /v1/health HTTP/1.1\r\n\r\n",
            b" /v1/health HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status().0, 400, "{err}");
        }
    }

    #[test]
    fn truncated_head_is_400_not_panic() {
        for raw in [
            b"GET /v1/health HTTP/1.1\r\nhost: loc".as_slice(),
            b"GET /v1/health".as_slice(),
            b"GET\r\n\r\n".as_slice(),
            b"\r\n\r\n".as_slice(),
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status().0, 400, "{err}");
        }
    }

    #[test]
    fn clean_eof_is_connection_closed() {
        assert!(matches!(parse(b"").unwrap_err(), ParseError::ConnectionClosed));
    }

    #[test]
    fn oversized_body_is_413_without_reading_it() {
        let raw = b"POST /v1/units HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n";
        let err = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap_err();
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn truncated_body_is_400() {
        let raw = b"POST /v1/units HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.status().0, 400);
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat(b'a').take(MAX_HEAD_BYTES + 10));
        let err = parse(&raw).unwrap_err();
        assert_eq!(err.status().0, 431);
    }

    #[test]
    fn transfer_encoding_is_501() {
        let raw = b"POST /v1/units HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.status().0, 501);
    }

    #[test]
    fn bad_version_is_505() {
        let err = parse(b"GET / HTTP/2\r\n\r\n").unwrap_err();
        assert_eq!(err.status().0, 505);
    }

    #[test]
    fn bad_content_length_is_400() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n";
        assert_eq!(parse(raw).unwrap_err().status().0, 400);
    }

    #[test]
    fn header_without_colon_is_400() {
        let raw = b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n";
        assert_eq!(parse(raw).unwrap_err().status().0, 400);
    }

    #[test]
    fn keep_alive_and_close_detection() {
        let req = parse(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(req.wants_close());
        let req = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(!req.wants_close());
    }

    #[test]
    fn two_requests_on_one_connection() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut cur = Cursor::new(raw.to_vec());
        let a = read_request(&mut cur, 1024).unwrap();
        let b = read_request(&mut cur, 1024).unwrap();
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert!(matches!(
            read_request(&mut cur, 1024).unwrap_err(),
            ParseError::ConnectionClosed
        ));
    }

    #[test]
    fn lf_only_head_is_accepted() {
        let req = parse(b"GET /x HTTP/1.1\nhost: h\n\n").unwrap();
        assert_eq!(req.path, "/x");
        assert_eq!(req.header("host"), Some("h"));
    }

    /// A reader that hands out one byte per `fill_buf` — the shape of a
    /// slow-loris client as seen through `BufRead`.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
    }

    impl io::Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let chunk = self.fill_buf()?;
            let n = chunk.len().min(buf.len());
            if let (Some(dst), Some(src)) = (buf.get_mut(..n), chunk.get(..n)) {
                dst.copy_from_slice(src);
            }
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Dribble {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            let end = (self.pos + 1).min(self.data.len());
            Ok(self.data.get(self.pos..end).unwrap_or(&[]))
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn dribbled_head_times_out_as_408() {
        let raw = b"GET /v1/health HTTP/1.1\r\n\r\n";
        let limits = RequestLimits {
            header_timeout: Some(Duration::ZERO),
            ..RequestLimits::default()
        };
        let mut slow = Dribble { data: raw.to_vec(), pos: 0 };
        let err = read_request_limited(&mut slow, &limits).unwrap_err();
        assert!(matches!(err, ParseError::HeadTimeout), "{err}");
        assert_eq!(err.status().0, 408);
    }

    #[test]
    fn dribbled_head_parses_without_a_deadline() {
        let raw = b"GET /v1/health HTTP/1.1\r\nhost: h\r\n\r\n";
        let mut slow = Dribble { data: raw.to_vec(), pos: 0 };
        let req = read_request_limited(&mut slow, &RequestLimits::default()).unwrap();
        assert_eq!(req.path, "/v1/health");
        assert_eq!(req.header("host"), Some("h"));
    }

    #[test]
    fn generous_head_deadline_does_not_fire() {
        let raw = b"GET /v1/health HTTP/1.1\r\n\r\n";
        let limits = RequestLimits {
            header_timeout: Some(Duration::from_secs(30)),
            ..RequestLimits::default()
        };
        let mut slow = Dribble { data: raw.to_vec(), pos: 0 };
        let req = read_request_limited(&mut slow, &limits).unwrap();
        assert_eq!(req.path, "/v1/health");
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::text(200, "ok").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\nok"));
        let mut out = Vec::new();
        Response::error(503, "queue full").with_close().write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }
}
