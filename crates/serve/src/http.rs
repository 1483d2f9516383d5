//! A deliberately small HTTP/1.1 layer over raw byte streams.
//!
//! The daemon serves a closed set of plain-text endpoints to trusted
//! clients (curl, the load generator, the test suite), so this implements
//! exactly the slice of RFC 9112 those need: request line + headers,
//! `Content-Length` bodies (read and discarded, bounded), keep-alive by
//! default with `Connection: close` honored, percent-decoded query
//! strings. Responses carry no `Date` header — every response byte is a
//! pure function of the request and the snapshot, which is what lets the
//! test suite assert byte-identical bodies across worker counts.
//!
//! Reads go through [`read_request`], which polls in small read-timeout
//! slices so a worker blocked on an idle keep-alive connection still
//! notices shutdown within one slice.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest accepted head (request line + headers), in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Longest accepted request body, in bytes (bodies are read and discarded).
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// Read-timeout slice: the granularity at which blocked reads re-check
/// shutdown and deadlines.
pub const READ_SLICE: Duration = Duration::from_millis(25);

/// One parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`).
    pub method: String,
    /// Decoded path component (`/query`).
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub params: Vec<(String, String)>,
    /// Whether the client asked to close after this response.
    pub close: bool,
    /// The instant the first byte of this request was seen — the start of
    /// the request's deadline budget for keep-alive requests.
    pub arrived: Instant,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// All values of a repeated query parameter, in order.
    pub fn params_all<'r>(&'r self, name: &'r str) -> impl Iterator<Item = &'r str> {
        self.params
            .iter()
            .filter(move |(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`read_request`] returned no request.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A full request head was parsed (body, if any, already discarded).
    Request(Request),
    /// The peer closed the connection before sending a request.
    Eof,
    /// The wait expired. `started` tells whether any request bytes had
    /// arrived: a started request gets a 504, an idle connection a quiet
    /// close.
    TimedOut {
        /// Whether the head had begun arriving.
        started: bool,
    },
    /// The caller's stop condition became true while waiting.
    Stopped,
    /// The bytes on the wire are not an acceptable request.
    Malformed(String),
}

/// Reads one request from the stream, polling in [`READ_SLICE`] chunks.
///
/// `give_up_at` bounds the wait for a request to *arrive and complete*;
/// `stop` is polled between slices so shutdown interrupts idle waits.
pub fn read_request(
    stream: &mut TcpStream,
    give_up_at: Instant,
    stop: &dyn Fn() -> bool,
) -> ReadOutcome {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 2048];
    loop {
        if let Some(end) = head_end(&buf) {
            return finish_request(stream, buf, end, give_up_at, stop);
        }
        if buf.len() > MAX_HEAD_BYTES {
            return ReadOutcome::Malformed("request head too large".into());
        }
        if stop() {
            return ReadOutcome::Stopped;
        }
        if Instant::now() >= give_up_at {
            return ReadOutcome::TimedOut {
                started: !buf.is_empty(),
            };
        }
        let _ = stream.set_read_timeout(Some(READ_SLICE));
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Malformed("connection closed mid-request".into())
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Eof,
        }
    }
}

/// Byte offset just past the `\r\n\r\n` terminating the head, if present.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn finish_request(
    stream: &mut TcpStream,
    buf: Vec<u8>,
    head_end: usize,
    give_up_at: Instant,
    stop: &dyn Fn() -> bool,
) -> ReadOutcome {
    let _span = rememberr_obs::span!("serve.parse");
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(text) => text,
        Err(_) => return ReadOutcome::Malformed("request head is not UTF-8".into()),
    };
    let mut request = match parse_head(head) {
        Ok(r) => r,
        Err(e) => return ReadOutcome::Malformed(e),
    };
    request.arrived = Instant::now();
    // Read and discard any body so the next keep-alive request starts at a
    // message boundary.
    let announced = content_length(head);
    let Some(length) = announced else {
        return ReadOutcome::Malformed("unreadable Content-Length".into());
    };
    if length > MAX_BODY_BYTES {
        return ReadOutcome::Malformed("request body too large".into());
    }
    let mut remaining = length.saturating_sub(buf.len() - head_end);
    let mut chunk = [0u8; 2048];
    while remaining > 0 {
        if stop() || Instant::now() >= give_up_at {
            return ReadOutcome::Malformed("request body incomplete".into());
        }
        let _ = stream.set_read_timeout(Some(READ_SLICE));
        match stream.read(&mut chunk[..remaining.min(2048)]) {
            Ok(0) => return ReadOutcome::Malformed("connection closed mid-body".into()),
            Ok(n) => remaining -= n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Malformed("connection error mid-body".into()),
        }
    }
    ReadOutcome::Request(request)
}

/// `Content-Length` announced by the head; `Some(0)` when absent, `None`
/// when unparseable.
fn content_length(head: &str) -> Option<usize> {
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                return value.trim().parse().ok();
            }
        }
    }
    Some(0)
}

fn parse_head(head: &str) -> Result<Request, String> {
    let mut lines = head.lines();
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().ok_or("request line lacks a target")?;
    let version = parts.next().ok_or("request line lacks a version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(format!("unsupported method {method:?}"));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)?;
    if !path.starts_with('/') {
        return Err(format!("target {target:?} is not an absolute path"));
    }
    let params = match raw_query {
        Some(q) => parse_query_string(q)?,
        None => Vec::new(),
    };

    let mut close = version == "HTTP/1.0";
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }

    Ok(Request {
        method: method.to_string(),
        path,
        params,
        close,
        arrived: Instant::now(),
    })
}

/// Splits `a=1&b=two%20words` into decoded pairs, preserving order and
/// repeats.
pub fn parse_query_string(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut params = Vec::new();
    for piece in raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
        params.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(params)
}

/// Decodes `%XX` escapes and `+`-for-space.
///
/// # Errors
///
/// Rejects truncated or non-hex escapes and non-UTF-8 results.
pub fn percent_decode(text: &str) -> Result<String, String> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated percent escape in {text:?}"))?;
                let (Some(hi), Some(lo)) = (hex_digit(hex[0]), hex_digit(hex[1])) else {
                    return Err(format!("bad percent escape in {text:?}"));
                };
                out.push(hi << 4 | lo);
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
    String::from_utf8(out).map_err(|_| format!("{text:?} does not decode to UTF-8"))
}

/// The value of one ASCII hex digit. Unlike `u8::from_str_radix`, which
/// accepts a leading `+`, this admits nothing but `0-9`, `a-f` and `A-F`.
fn hex_digit(byte: u8) -> Option<u8> {
    char::from(byte).to_digit(16).map(|d| d as u8)
}

/// One response, rendered deterministically (no `Date`, fixed header
/// order) so identical requests produce byte-identical wire output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (plain text or JSON).
    pub body: String,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers, in emission order (e.g. `Retry-After`).
    pub extra_headers: BTreeMap<&'static str, String>,
    /// Whether the server closes the connection after this response.
    pub close: bool,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; charset=utf-8",
            extra_headers: BTreeMap::new(),
            close: false,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            content_type: "application/json",
            ..Response::text(status, body)
        }
    }

    /// The canonical 503 shed response.
    pub fn shed() -> Self {
        let mut r = Response::text(503, "queue full, retry later\n");
        r.extra_headers.insert("Retry-After", "1".to_string());
        r.close = true;
        r
    }

    /// The canonical 504 deadline response.
    pub fn deadline_exceeded() -> Self {
        let mut r = Response::text(504, "request deadline exceeded\n");
        r.close = true;
        r
    }

    /// Marks the connection for closure after this response.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// The full wire form: status line, headers, body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(if self.close {
            "Connection: close\r\n\r\n"
        } else {
            "Connection: keep-alive\r\n\r\n"
        });
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }

    /// Writes the response to the stream.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percent_decoding_handles_escapes_plus_and_errors() {
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert_eq!(percent_decode("a%20b+c").unwrap(), "a b c");
        assert_eq!(percent_decode("%41%6d%44").unwrap(), "AmD");
        assert!(percent_decode("%4").is_err());
        assert!(percent_decode("%zz").is_err());
        assert!(percent_decode("%ff").is_err(), "lone 0xff is not UTF-8");
        assert!(percent_decode("%+A").is_err(), "a sign is not a hex digit");
        assert!(percent_decode("%+5").is_err(), "a sign is not a hex digit");
    }

    #[test]
    fn query_strings_keep_order_and_repeats() {
        let params = parse_query_string("vendor=intel&trigger=a&trigger=b&flag").unwrap();
        assert_eq!(
            params,
            vec![
                ("vendor".into(), "intel".into()),
                ("trigger".into(), "a".into()),
                ("trigger".into(), "b".into()),
                ("flag".into(), String::new()),
            ]
        );
    }

    #[test]
    fn request_heads_parse_method_path_params_and_connection() {
        let req = parse_head(
            "GET /query?vendor=intel&unique=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param("vendor"), Some("intel"));
        assert_eq!(req.param("unique"), Some("1"));
        assert_eq!(req.param("missing"), None);
        assert!(req.close);

        let req = parse_head("POST /reload HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "POST");
        assert!(req.params.is_empty());
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");

        let req = parse_head("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.close, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn malformed_heads_are_rejected() {
        assert!(parse_head("GET\r\n\r\n").is_err());
        assert!(parse_head("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse_head("get /x HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_head("GET relative HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_head("GET /x?a=%zz HTTP/1.1\r\n\r\n").is_err());
    }

    /// Well-formed heads the mutation property starts from.
    const VALID_HEADS: [&str; 4] = [
        "GET /query?vendor=intel&unique=1&trigger=Trg_EXT_rst HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        "POST /reload HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        "GET /count?from=2016-01-01&q=a%20b+c HTTP/1.0\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
    ];

    /// Text that means something somewhere in a request head.
    fn fragment() -> impl Strategy<Value = String> {
        prop_oneof![
            "[%+?&= :/]",
            "%[0-9a-fA-F+]{0,2}",
            Just("\r\n".to_string()),
            Just("é".to_string()),
            ".{0,4}",
        ]
    }

    proptest! {
        #[test]
        fn parse_head_never_panics_on_arbitrary_text(
            ascii in "[\\x00-\\x7f]{0,80}",
            printable in ".{0,80}",
        ) {
            for head in [ascii, printable] {
                if let Ok(req) = parse_head(&head) {
                    prop_assert!(req.path.starts_with('/'), "{:?}", head);
                }
            }
        }

        #[test]
        fn parse_head_never_panics_on_mutated_heads(
            base in 0usize..VALID_HEADS.len(),
            edits in prop::collection::vec((0usize..128, 0u8..3, fragment()), 1..6),
        ) {
            // Each edit inserts, replaces or deletes at a char position.
            let mut head: Vec<char> = VALID_HEADS[base].chars().collect();
            for (at, op, text) in edits {
                let at = at % (head.len() + 1);
                match op {
                    0 => {
                        head.splice(at..at, text.chars());
                    }
                    1 if at < head.len() => {
                        head.splice(at..=at, text.chars());
                    }
                    _ if at < head.len() => {
                        head.remove(at);
                    }
                    _ => {}
                }
            }
            let head: String = head.into_iter().collect();
            if let Ok(req) = parse_head(&head) {
                prop_assert!(req.path.starts_with('/'), "{:?}", head);
            }
        }
    }

    #[test]
    fn responses_render_deterministically() {
        let a = Response::text(200, "4\n").to_bytes();
        let b = Response::text(200, "4\n").to_bytes();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Date:"), "no wall-clock headers: {text}");
        assert!(text.ends_with("\r\n\r\n4\n"));
    }

    #[test]
    fn shed_response_advertises_retry_after_and_closes() {
        let text = String::from_utf8(Response::shed().to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }
}
