//! A plain HTTP/1.1 client for the benchmark's loopback traffic.
//!
//! It never asks for `Connection: close`: a connection is kept for the next
//! request whenever the response permits it (HTTP/1.1 without a
//! `Connection: close` header), so a server that starts keeping connections
//! alive shows up in `http.connects_per_request` and in latency without any
//! change here.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on one exchange; the slowest cold query takes about a second.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Largest response body the client accepts.
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One parsed response.
pub struct Response {
    pub status: u16,
    headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn body_text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// A client bound to one server address, holding at most one connection.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened.
    pub connects: u64,
    /// Requests sent.
    pub requests: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            connects: 0,
            requests: 0,
        }
    }

    pub fn get(&mut self, target: &str) -> std::io::Result<Response> {
        // A kept connection may have been closed by the server while idle;
        // a GET is idempotent, so it is retried once on a fresh connection.
        let reused = self.conn.is_some();
        match self.exchange(target) {
            Err(_) if reused => self.exchange(target),
            other => other,
        }
    }

    fn exchange(&mut self, target: &str) -> std::io::Result<Response> {
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => {
                let s = TcpStream::connect(self.addr)?;
                s.set_read_timeout(Some(IO_TIMEOUT))?;
                s.set_write_timeout(Some(IO_TIMEOUT))?;
                s.set_nodelay(true)?;
                self.connects += 1;
                BufReader::new(s)
            }
        };
        self.requests += 1;
        let request = format!("GET {target} HTTP/1.1\r\nHost: {}\r\n\r\n", self.addr);
        conn.get_mut().write_all(request.as_bytes())?;

        let status_line = read_line(&mut conn)?;
        let mut parts = status_line.split_whitespace();
        let version = parts.next().unwrap_or("").to_string();
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_data(format!("bad status line {status_line:?}")))?;
        let mut headers = Vec::new();
        loop {
            let line = read_line(&mut conn)?;
            if line.is_empty() {
                break;
            }
            let (k, v) = line
                .split_once(':')
                .ok_or_else(|| bad_data(format!("bad header line {line:?}")))?;
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
        let mut resp = Response {
            status,
            headers,
            body: Vec::new(),
        };
        let length: usize = resp
            .header("content-length")
            .ok_or_else(|| bad_data("response without Content-Length".to_string()))?
            .parse()
            .map_err(|_| bad_data("bad Content-Length".to_string()))?;
        if length > MAX_BODY {
            return Err(bad_data(format!("response body of {length} bytes")));
        }
        resp.body = vec![0; length];
        conn.read_exact(&mut resp.body)?;
        let close = resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if version == "HTTP/1.1" && !close {
            self.conn = Some(conn);
        }
        Ok(resp)
    }
}

fn read_line(conn: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}
