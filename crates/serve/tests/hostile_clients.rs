//! Hostile clients over real loopback sockets: request heads at and just
//! past `MAX_HEAD_BYTES`, a client that sends one byte per write, and one
//! that never finishes its head. Each ends in a response or a 4xx/5xx and
//! a closed connection within the request deadline, and the server's only
//! worker is free for the next client afterwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rememberr::Database;
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_serve::http::{MAX_HEAD_BYTES, READ_SLICE};
use rememberr_serve::{ServeConfig, Server};

/// A small snapshot on disk; these tests exercise the HTTP layer only.
fn snapshot_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("rememberr-serve-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("fixture dir");
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.02));
        let db = Database::from_documents(&corpus.structured);
        let mut bytes = Vec::new();
        rememberr::save(&db, &mut bytes).expect("snapshot serializes");
        let path = dir.join("fixture.jsonl");
        std::fs::write(&path, bytes).expect("snapshot writes");
        path
    })
}

/// A one-worker server, so a client that held the worker would block the
/// next one.
fn start(request_timeout: Duration) -> Server {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 4,
        request_timeout,
        ..ServeConfig::default()
    };
    Server::start(config, snapshot_path().clone()).expect("server starts")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Reads until the server closes; returns the status and the body.
fn response_then_close(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("the server answers and closes");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("headerless response {text:?}"));
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, body.to_string())
}

/// The worker is free: a plain request is served.
fn assert_worker_free(addr: SocketAddr) {
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("request writes");
    assert_eq!(response_then_close(&mut stream), (200, "ok\n".to_string()));
}

/// A `/healthz` head of exactly `len` bytes, terminator included.
fn padded_head(len: usize) -> Vec<u8> {
    let prefix = "GET /healthz HTTP/1.1\r\nConnection: close\r\nX-Pad: ";
    let pad = len - prefix.len() - "\r\n\r\n".len();
    format!("{prefix}{}\r\n\r\n", "p".repeat(pad)).into_bytes()
}

#[test]
fn head_ending_exactly_at_the_limit_is_served() {
    let server = start(Duration::from_secs(5));
    let addr = server.local_addr();
    let head = padded_head(MAX_HEAD_BYTES);
    assert_eq!(head.len(), MAX_HEAD_BYTES);
    let mut stream = connect(addr);
    stream.write_all(&head).expect("head writes");
    assert_eq!(response_then_close(&mut stream), (200, "ok\n".to_string()));
    assert_worker_free(addr);
    server.stop_and_wait();
}

#[test]
fn head_one_byte_past_the_limit_gets_400_and_a_close() {
    let server = start(Duration::from_secs(5));
    let addr = server.local_addr();
    let head = padded_head(MAX_HEAD_BYTES + 1);
    let mut stream = connect(addr);
    stream.write_all(&head).expect("head writes");
    assert_eq!(
        response_then_close(&mut stream),
        (400, "request head too large\n".to_string())
    );
    assert_worker_free(addr);
    server.stop_and_wait();
}

#[test]
fn client_sending_one_byte_per_write_is_served() {
    let server = start(Duration::from_secs(5));
    let addr = server.local_addr();
    let mut stream = connect(addr);
    for byte in b"GET /healthz HTTP/1.1\r\nHost: slow\r\nConnection: close\r\n\r\n" {
        stream.write_all(&[*byte]).expect("byte writes");
        // Pacing only: the response must be the same however the server's
        // reads group these bytes.
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(response_then_close(&mut stream), (200, "ok\n".to_string()));
    assert_worker_free(addr);
    server.stop_and_wait();
}

#[test]
fn unfinished_head_gets_504_within_the_deadline_plus_one_read_slice() {
    let timeout = Duration::from_millis(400);
    // Connecting, scheduling and the client's own read are not part of
    // the server's budget; this allowance covers them on a loaded host.
    let slack = Duration::from_millis(400);
    let server = start(timeout);
    let addr = server.local_addr();
    let start = Instant::now();
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Never: ends")
        .expect("partial head writes");
    let (status, _) = response_then_close(&mut stream);
    let elapsed = start.elapsed();
    assert_eq!(status, 504);
    assert!(elapsed >= timeout, "gave up early, after {elapsed:?}");
    assert!(
        elapsed <= timeout + READ_SLICE + slack,
        "held the connection for {elapsed:?}"
    );
    assert_worker_free(addr);
    server.stop_and_wait();
}
