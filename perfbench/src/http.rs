//! A minimal keep-alive HTTP/1.1 client, independent of the program's
//! own client so that changes to the program do not change how it is
//! measured.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long one request may take before it counts as a timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A response: status and body.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Why an operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    Timeout,
    Connect,
    Transport,
    /// `503 overloaded`: the admission gate shed the connection.
    Shed,
    Http5xx,
    /// Any other non-2xx answer; the benchmark only sends valid requests.
    Http4xx,
}

impl Failure {
    pub fn label(self) -> &'static str {
        match self {
            Failure::Timeout => "timeout",
            Failure::Connect => "connect",
            Failure::Transport => "transport",
            Failure::Shed => "shed",
            Failure::Http5xx => "5xx",
            Failure::Http4xx => "4xx",
        }
    }
}

/// Attempted, answered and failed operations, failures by class.
#[derive(Clone, Debug, Default)]
pub struct OpCount {
    pub attempted: u64,
    pub answered: u64,
    pub failed: BTreeMap<Failure, u64>,
}

impl OpCount {
    pub fn record<T>(&mut self, outcome: &Result<T, Failure>) {
        self.attempted += 1;
        match outcome {
            Ok(_) => self.answered += 1,
            Err(f) => *self.failed.entry(*f).or_default() += 1,
        }
    }

    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    pub fn merge(&mut self, other: &OpCount) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        for (k, v) in &other.failed {
            *self.failed.entry(*k).or_default() += v;
        }
    }
}

/// One persistent connection; reconnects after a transport failure.
pub struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

fn classify(e: &io::Error) -> Failure {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Failure::Timeout,
        _ => Failure::Transport,
    }
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn { addr: addr.to_string(), stream: None }
    }

    fn connect(&mut self) -> Result<&mut BufReader<TcpStream>, Failure> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|_| Failure::Connect)?;
            stream.set_nodelay(true).map_err(|_| Failure::Connect)?;
            stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|_| Failure::Connect)?;
            stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|_| Failure::Connect)?;
            self.stream = Some(BufReader::new(stream));
        }
        self.stream.as_mut().ok_or(Failure::Connect)
    }

    /// Sends one request and reads the whole answer. Non-2xx answers are
    /// failures.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<Response, Failure> {
        let result = self.exchange(method, target, body);
        if matches!(result, Err(Failure::Timeout | Failure::Transport)) {
            self.stream = None;
        }
        let resp = result?;
        match resp.status {
            200..=299 => Ok(resp),
            503 if resp.body.windows(10).any(|w| w == b"overloaded") => {
                Err(Failure::Shed)
            }
            500..=599 => Err(Failure::Http5xx),
            _ => Err(Failure::Http4xx),
        }
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<Response, Failure> {
        let reader = self.connect()?;
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes()).map_err(|e| classify(&e))?;
        stream.write_all(body).map_err(|e| classify(&e))?;
        read_response(reader).map_err(|e| classify(&e))
    }
}

fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<Response> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed"));
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(Response { status, body })
}
