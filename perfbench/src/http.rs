//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, bodies framed by `Content-Length`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a response may take before the exchange counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// `POST /reload` on a keep-alive connection.
pub const RELOAD_REQUEST: &[u8] =
    b"POST /reload HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n";

/// `GET /metrics` on a keep-alive connection.
pub const METRICS_REQUEST: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n";

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` the previous response used; dropped on the next
    /// exchange.
    consumed: usize,
}

fn protocol_error(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            consumed: 0,
        })
    }

    /// Sends `request` and reads the whole response; returns the status
    /// and the body.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| protocol_error("response head is not UTF-8".to_string()))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| protocol_error(format!("no status in {head:?}")))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| protocol_error(format!("no content-length in {head:?}")))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        self.consumed = head_end + length;
        Ok((status, &self.buf[head_end..self.consumed]))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}
