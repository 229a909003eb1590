//! The benchmark's own HTTP/1.1 keep-alive client.
//!
//! It times each request as a client sees it: from the moment the
//! request is handed to the socket, to the first response byte, to the
//! last body byte. It keeps the exact bytes it sent and received so the
//! traced run can replay the server's parser and writer on them.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One answered request.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
    /// The request exactly as sent.
    pub request: Vec<u8>,
    /// When the request was handed to the socket.
    pub sent: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the last body byte arrived.
    pub last_byte: Instant,
}

impl Reply {
    /// Send to last byte, microseconds.
    pub fn latency_us(&self) -> f64 {
        self.last_byte.duration_since(self.sent).as_secs_f64() * 1e6
    }

    /// Send to first byte, microseconds.
    pub fn ttfb_us(&self) -> f64 {
        self.first_byte.duration_since(self.sent).as_secs_f64() * 1e6
    }

    /// First to last byte, microseconds.
    pub fn body_gap_us(&self) -> f64 {
        self.last_byte.duration_since(self.first_byte).as_secs_f64() * 1e6
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Option<serde_json::Value> {
        serde_json::from_str(std::str::from_utf8(&self.body).ok()?).ok()
    }

    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection that reconnects when the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// TCP connects made.
    pub connects: u64,
    /// Requests answered.
    pub requests: u64,
}

const IO_TIMEOUT: Duration = Duration::from_secs(60);

impl Conn {
    /// A connection to `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            connects: 0,
            requests: 0,
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.connects += 1;
            self.stream = Some(s);
        }
        self.stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "not connected"))
    }

    /// Sends one request and reads its response. A kept-alive connection
    /// the server closed before answering is reopened once.
    pub fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<Reply> {
        let body = body.unwrap_or_default();
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n",
            self.addr
        )
        .into_bytes();
        if !body.is_empty() || method == "POST" {
            request.extend_from_slice(
                format!(
                    "Content-Type: application/json\r\nContent-Length: {}\r\n",
                    body.len()
                )
                .as_bytes(),
            );
        }
        request.extend_from_slice(b"\r\n");
        request.extend_from_slice(body);
        let reused = self.stream.is_some();
        match self.exchange(request.clone()) {
            Err(e) if reused && e.kind() == io::ErrorKind::ConnectionAborted => {
                self.stream = None;
                self.exchange(request)
            }
            other => other,
        }
    }

    fn exchange(&mut self, request: Vec<u8>) -> io::Result<Reply> {
        let result = self.exchange_inner(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange_inner(&mut self, request: Vec<u8>) -> io::Result<Reply> {
        let stream = self.stream()?;
        let sent = Instant::now();
        stream.write_all(&request)?;
        let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
        let mut chunk = [0u8; 16 * 1024];
        let mut first_byte = None;
        let mut head_end = None;
        let mut need = usize::MAX;
        while buf.len() < need {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                // Closed before any byte: a stale keep-alive connection.
                let kind = if buf.is_empty() {
                    io::ErrorKind::ConnectionAborted
                } else {
                    io::ErrorKind::UnexpectedEof
                };
                return Err(io::Error::new(kind, "connection closed mid-response"));
            }
            first_byte.get_or_insert_with(Instant::now);
            buf.extend_from_slice(&chunk[..n]);
            if head_end.is_none() {
                if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    head_end = Some(i + 4);
                    need = i + 4 + content_length(&buf[..i])?;
                }
            }
        }
        let last_byte = Instant::now();
        let (Some(head_end), Some(first_byte)) = (head_end, first_byte) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "no response head",
            ));
        };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let reply = Reply {
            status,
            headers,
            body: buf[head_end..need].to_vec(),
            request,
            sent,
            first_byte,
            last_byte,
        };
        self.requests += 1;
        if reply.header("connection") == Some("close") {
            self.stream = None;
        }
        Ok(reply)
    }
}

fn content_length(head: &[u8]) -> io::Result<usize> {
    let head = String::from_utf8_lossy(head);
    for line in head.split("\r\n") {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                return v
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"));
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        "response without content-length",
    ))
}
