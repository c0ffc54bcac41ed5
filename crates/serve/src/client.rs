//! A minimal blocking HTTP/1.1 client for driving the daemon.
//!
//! Used by the `car-load` load generator, the shard router, and the
//! integration tests; not a general-purpose client. Supports exactly
//! what the daemon's server side emits: status line, headers,
//! `Content-Length` bodies, keep-alive.
//!
//! [`RetryingClient`] layers the retry machinery every driver needs on
//! top of the raw [`Client`]: exponential backoff with jitter on
//! transport errors and `503`s, in-place reconnection when the
//! connection dies, and a per-request timeout. `car-load` and the
//! `car shard` router share this one implementation.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A parsed response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response from `reader`.
///
/// # Errors
///
/// I/O failures and malformed status lines / headers surface as
/// [`io::Error`] with `InvalidData`.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<ClientResponse> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let status =
        status_line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok()).ok_or_else(
            || {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            },
        )?;

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad header {line:?}"))
        })?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse { status, headers, body })
}

/// A keep-alive connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (any `ToSocketAddrs` string form).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Connects to `addr` with `timeout` bounding the connection attempt
    /// and every subsequent read and write, so a stalled daemon (e.g.
    /// mid-recovery) surfaces as a timed-out request instead of a hang.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; `TimedOut` when the deadline
    /// passes, `AddrNotAvailable` when `addr` resolves to nothing.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> io::Result<Client> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                format!("{addr} resolved to no addresses"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Re-arms the socket read/write timeouts (used by deadline-capped
    /// retries on a reused connection).
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_io_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.writer.set_read_timeout(Some(timeout))?;
        self.writer.set_write_timeout(Some(timeout))
    }

    /// Sends a request and reads the response on the same connection.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures in either direction.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        self.try_request(method, target, &[], body).map_err(|e| e.error)
    }

    /// Sends a request with extra headers, tracking whether any request
    /// byte may have reached the wire — the fact the idempotency-aware
    /// retry decision hinges on.
    ///
    /// # Errors
    ///
    /// A [`SendError`] carrying the transport error plus the `written`
    /// flag. `written` is conservative: once the first socket write
    /// returns, the bytes are presumed on the wire.
    pub fn try_request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, String)],
        body: Option<&[u8]>,
    ) -> Result<ClientResponse, SendError> {
        let body = body.unwrap_or(b"");
        let mut head = format!(
            "{method} {target} HTTP/1.1\r\nhost: car-serve\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut request = head.into_bytes();
        request.extend_from_slice(body);

        let mut written = false;
        let mut remaining: &[u8] = &request;
        while !remaining.is_empty() {
            match self.writer.write(remaining) {
                Ok(0) => {
                    return Err(SendError {
                        written,
                        error: io::Error::new(
                            io::ErrorKind::WriteZero,
                            "connection closed mid-request",
                        ),
                    })
                }
                Ok(n) => {
                    written = true;
                    remaining = remaining.get(n..).unwrap_or(&[]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(SendError { written, error: e }),
            }
        }
        if let Err(error) = self.writer.flush() {
            return Err(SendError { written: true, error });
        }
        read_response(&mut self.reader)
            .map_err(|error| SendError { written: true, error })
    }
}

/// A failed request exchange, recording whether any request bytes may
/// have reached the wire. A non-idempotent request that failed with
/// `written == true` must not be blindly retried: the server may
/// already have executed it.
#[derive(Debug)]
pub struct SendError {
    /// `true` once any byte of the request may have been written.
    pub written: bool,
    /// The underlying transport error.
    pub error: io::Error,
}

/// Coarse class of a failed exchange, for load generators and
/// dashboards that bucket failures instead of lumping them into one
/// "error" count. A timed-out connect counts as [`Timeout`], not
/// [`Connect`]: the interesting split is "nothing listening" versus
/// "something too slow".
///
/// [`Timeout`]: FailureClass::Timeout
/// [`Connect`]: FailureClass::Connect
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// A connect, read, or write deadline expired.
    Timeout,
    /// The TCP connection could not be established (refused,
    /// unreachable, no address).
    Connect,
    /// Any other transport failure: reset mid-exchange, EOF before the
    /// status line, malformed response.
    Transport,
}

impl FailureClass {
    /// Classifies an I/O error, given whether it happened while still
    /// establishing the connection.
    fn of(error: &io::Error, connecting: bool) -> FailureClass {
        match error.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => FailureClass::Timeout,
            _ if connecting => FailureClass::Connect,
            _ => FailureClass::Transport,
        }
    }
}

/// Retry configuration for [`RetryingClient`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = try exactly once).
    pub max_retries: u32,
    /// Per-request connect/read/write timeout.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 4, timeout: Duration::from_millis(5_000) }
    }
}

/// Exponential backoff with jitter before retry `attempt` (1-based):
/// 50ms doubling per attempt, capped at 2s, plus up to 50% jitter so
/// concurrent callers don't retry in lockstep against a recovering
/// daemon. `jitter_state` is advanced in place (xorshift64*), keeping
/// the schedule deterministic for a given seed.
pub fn backoff_delay(attempt: u32, jitter_state: &mut u64) -> Duration {
    let base_ms = (50u64 << attempt.saturating_sub(1).min(6)).min(2_000);
    let mut x = (*jitter_state).max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *jitter_state = x;
    let jitter = x % ((base_ms >> 1).max(1));
    Duration::from_millis(base_ms + jitter)
}

/// A keep-alive connection with retry, backoff, and reconnection.
///
/// Retries on transport errors (dropping and re-establishing the
/// connection) and on `503` responses (daemon recovering, shedding
/// load, or restarting). Any other response, including 4xx, is returned
/// as-is: those are answers, not failures. The connection is kept
/// between requests unless an exchange fails or its answer ends it
/// (`connection: close`, or a `408`).
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    jitter_state: u64,
    retries: u64,
    last_failure: Option<FailureClass>,
}

impl RetryingClient {
    /// Creates a client for `addr`; no connection is made until the
    /// first request. The jitter seed is derived from the address so
    /// distinct clients de-synchronize naturally.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RetryingClient {
        let addr = addr.into();
        let seed = addr.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        Self::with_seed(addr, policy, seed)
    }

    /// Creates a client with an explicit jitter seed (deterministic
    /// backoff schedules for tests and load generators).
    pub fn with_seed(
        addr: impl Into<String>,
        policy: RetryPolicy,
        seed: u64,
    ) -> RetryingClient {
        RetryingClient {
            addr: addr.into(),
            policy,
            conn: None,
            jitter_state: seed.max(1),
            retries: 0,
            last_failure: None,
        }
    }

    /// The address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Total retries performed since construction.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The class of the transport failure that ended the most recent
    /// request, when that request returned `None`. `None` after a
    /// request that produced a response (even a 5xx — that is an
    /// answer, not a transport failure).
    pub fn last_failure(&self) -> Option<FailureClass> {
        self.last_failure
    }

    /// Drops the current connection (the next request reconnects).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// Whether a method is safe to retry after its bytes may have
    /// reached the wire.
    fn idempotent(method: &str) -> bool {
        matches!(method, "GET" | "HEAD")
    }

    /// Issues one request, retrying per the policy. Returns the final
    /// response — possibly a `503` that outlasted every retry — or
    /// `None` when every attempt failed at the transport level.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> Option<ClientResponse> {
        self.request_with(method, target, &[], body, None)
    }

    /// Issues one request with extra headers and an optional hard
    /// deadline, retrying per the policy.
    ///
    /// Retries are **idempotency-aware**: GET/HEAD retry on any
    /// transport failure, but a non-idempotent request (e.g. an ingest
    /// POST) is only retried when the failure happened before any
    /// request byte reached the wire — otherwise the server may have
    /// executed it, and a blind retry could apply it twice. Retryable
    /// `503` answers are a server-side promise that nothing was
    /// processed, so they retry for every method.
    ///
    /// A `deadline` caps the whole exchange: each attempt's socket
    /// timeout shrinks to the remaining budget and no attempt (or
    /// backoff sleep) starts past it.
    pub fn request_with(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, String)],
        body: Option<&[u8]>,
        deadline: Option<Instant>,
    ) -> Option<ClientResponse> {
        self.last_failure = None;
        let mut last_response = None;
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                let delay = backoff_delay(attempt, &mut self.jitter_state);
                if deadline.is_some_and(|d| Instant::now() + delay >= d) {
                    break;
                }
                self.retries += 1;
                std::thread::sleep(delay);
            }
            let timeout = match deadline {
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    self.policy.timeout.min(remaining)
                }
                None => self.policy.timeout,
            };
            if self.conn.is_none() {
                match Client::connect_with_timeout(&self.addr, timeout) {
                    Ok(conn) => self.conn = Some(conn),
                    Err(e) => {
                        self.last_failure = Some(FailureClass::of(&e, true));
                    }
                }
            } else if deadline.is_some() {
                // A reused connection still carries the policy timeout;
                // shrink it to the remaining budget.
                if self.conn.as_ref().is_some_and(|c| c.set_io_timeout(timeout).is_err())
                {
                    self.conn = None;
                    continue;
                }
            }
            let Some(result) = self.exchange(method, target, headers, body) else {
                continue;
            };
            match result {
                Ok(resp) if resp.status == 408 => {
                    // A 408 on a reused keep-alive connection is almost
                    // always the server's parting shot after an *idle*
                    // timeout, buffered before it closed — it answers
                    // the wait, not the request just written. Either
                    // way a 408 promises the request was never
                    // executed, so retry on a fresh connection (safe
                    // for any method).
                    last_response = Some(resp);
                }
                Ok(resp) if resp.status == 503 => {
                    // Retryable daemon answer (recovering / backpressure
                    // / shutting down); back off, retry.
                    last_response = Some(resp);
                }
                Ok(resp) => {
                    self.last_failure = None;
                    return Some(resp);
                }
                Err(e) => {
                    // Connection reset (daemon died?): retry with a fresh
                    // connection after backoff — unless the request may
                    // have been executed.
                    self.last_failure = Some(FailureClass::of(&e.error, false));
                    if e.written && !Self::idempotent(method) {
                        return None;
                    }
                }
            }
        }
        if last_response.is_some() {
            // The caller gets an answer (a 503 that outlasted the
            // retries); transport hiccups along the way are history.
            self.last_failure = None;
        }
        last_response
    }

    /// Issues one request without any retry (a single attempt over the
    /// existing or a fresh connection). Used for probes where the caller
    /// owns the retry cadence.
    pub fn request_once(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> Option<ClientResponse> {
        self.request_once_with(method, target, &[], body)
    }

    /// [`request_once`](Self::request_once) with extra headers — the
    /// shard router's health probes use it to stamp trace context on
    /// probe traffic without engaging the retry machinery.
    pub fn request_once_with(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, String)],
        body: Option<&[u8]>,
    ) -> Option<ClientResponse> {
        if self.conn.is_none() {
            self.conn =
                Client::connect_with_timeout(&self.addr, self.policy.timeout).ok();
        }
        self.exchange(method, target, headers, body)?.ok()
    }

    /// One exchange on the open connection, `None` when there is none.
    /// The connection is dropped after a failed exchange and after an
    /// answer that ends it: one saying `connection: close`, or a `408`
    /// (see `request_with`). The server closes such a connection, so the
    /// next request must reconnect: written into the closed socket, it
    /// would fail after its bytes left, and a POST could not be retried.
    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, String)],
        body: Option<&[u8]>,
    ) -> Option<Result<ClientResponse, SendError>> {
        let result = self.conn.as_mut()?.try_request(method, target, headers, body);
        let ends_connection = result.as_ref().map_or(true, |resp| {
            resp.status == 408
                || resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        });
        if ends_connection {
            self.conn = None;
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                    content-length: 2\r\n\r\n{}";
        let resp = read_response(&mut Cursor::new(raw.to_vec())).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.body_text(), "{}");
    }

    #[test]
    fn rejects_garbage_status_line() {
        let raw = b"garbage\r\n\r\n";
        assert!(read_response(&mut Cursor::new(raw.to_vec())).is_err());
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let raw = b"HTTP/1.1 204 No Content\r\n\r\n";
        let resp = read_response(&mut Cursor::new(raw.to_vec())).unwrap();
        assert_eq!(resp.status, 204);
        assert!(resp.body.is_empty());
    }

    /// A server whose idle timeout fired writes a courtesy `408` and
    /// closes; that response sits buffered in the client's pooled
    /// connection and would otherwise be read as the answer to the
    /// *next* request. The retrying client must discard it, reconnect,
    /// and return the real answer.
    #[test]
    fn stale_keep_alive_408_is_retried_on_a_fresh_connection() {
        use std::io::{Read, Write};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Connection 1: the idle-timeout parting shot — answer 408
            // before any request arrives, then close.
            let (mut first, _) = listener.accept().unwrap();
            first
                .write_all(
                    b"HTTP/1.1 408 Request Timeout\r\nconnection: close\r\n\
                      content-length: 0\r\n\r\n",
                )
                .unwrap();
            drop(first);
            // Connection 2: a real exchange.
            let (mut second, _) = listener.accept().unwrap();
            let mut scratch = [0u8; 1024];
            let _ = second.read(&mut scratch).unwrap();
            second.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok").unwrap();
        });

        let policy = RetryPolicy { max_retries: 2, timeout: Duration::from_secs(5) };
        let mut client = RetryingClient::with_seed(&addr, policy, 1);
        let resp = client.request("GET", "/v1/health", None).expect("answered");
        assert_eq!(resp.status, 200, "the stale 408 must not be the answer");
        assert_eq!(resp.body_text(), "ok");
        server.join().unwrap();
    }

    /// A server that answers `connection: close` (on shutdown, on the
    /// admission gate's 503, past a connection's fair share) closes the
    /// socket after that answer. The next request must go out on a fresh
    /// connection: a POST written into the closed one fails after its
    /// bytes left and cannot be retried.
    #[test]
    fn connection_close_answer_sends_the_next_request_on_a_new_connection() {
        use std::io::{Read, Write};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let answers: [&[u8]; 2] = [
                b"HTTP/1.1 202 Accepted\r\nconnection: close\r\ncontent-length: 5\r\n\r\nfirst",
                b"HTTP/1.1 202 Accepted\r\ncontent-length: 6\r\n\r\nsecond",
            ];
            for answer in answers {
                let (mut conn, _) = listener.accept().unwrap();
                let mut scratch = [0u8; 1024];
                let _ = conn.read(&mut scratch).unwrap();
                conn.write_all(answer).unwrap();
            }
        });

        let policy = RetryPolicy { max_retries: 2, timeout: Duration::from_secs(5) };
        let mut client = RetryingClient::with_seed(&addr, policy, 1);
        let first = client.request("POST", "/v1/units", Some(b"{}")).expect("answered");
        assert_eq!(first.body_text(), "first");
        let second = client.request("POST", "/v1/units", Some(b"{}"));
        assert_eq!(
            second.map(|resp| resp.body_text()).as_deref(),
            Some("second"),
            "last failure: {:?}",
            client.last_failure()
        );
        server.join().unwrap();
    }
}
