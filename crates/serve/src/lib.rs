//! `rememberr-serve`: a concurrent query-serving daemon over one errata
//! snapshot.
//!
//! The paper frames the errata database as a community artifact to be
//! *queried*, not just analyzed once; this crate is the long-running form
//! of that surface. One process loads a snapshot (JSONL or binary,
//! sniffed), builds the query index once, and serves:
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /query?...` | matching errata, CLI-compatible parameters |
//! | `GET /count?...` | bare match count |
//! | `GET /stats` | snapshot generation/format/sizes (JSON) |
//! | `GET /metrics` | obs counter + histogram snapshot (JSON) |
//! | `GET /healthz` | liveness |
//! | `POST /reload` | re-read the snapshot, hot-swap generations |
//! | `POST /shutdown` | graceful drain and exit |
//!
//! # Architecture
//!
//! ```text
//!             accept()                St try_push                 pop()
//!   clients ──────────► acceptor ───────────────► bounded queue ───────► worker 0..N
//!                          │ full?                 (depth = Q)             │
//!                          └── 503 Retry-After                             │ keep-alive loop:
//!                              (shed, never queued)                        │ read → route → write
//!                                                                         ▼
//!                                                         RwLock<Arc<LoadedSnapshot>>
//!                                                          (reload swaps the Arc)
//! ```
//!
//! Three properties the tests pin down:
//!
//! * **Bounded admission.** The accept queue holds at most `queue_depth`
//!   connections; beyond that the acceptor writes `503 Retry-After: 1`
//!   and closes — memory use is bounded by `workers + queue_depth`
//!   connections no matter the offered load. A per-request deadline
//!   (counted from accept for a connection's first request, so queue wait
//!   is charged) turns stale work into `504` instead of serving it.
//! * **Deterministic bodies.** Responses carry no timestamps and no
//!   worker identity: an identical request against the same snapshot
//!   generation yields a byte-identical body at any worker count, and
//!   `/query` serves the body CLI `query` prints for the same parameters.
//! * **Non-blocking hot swap.** `POST /reload` builds the new generation
//!   off the serving path and publishes it by swapping an `Arc`;
//!   in-flight requests finish on the generation they started with.
//!
//! Observability: spans `serve.parse` / `serve.execute` / `serve.write`,
//! counters `serve.requests` / `serve.shed` / `serve.timeouts` /
//! `serve.reloads`, and the `serve.request` latency histogram, all through
//! `rememberr_obs`. Long-running processes should call
//! `rememberr_obs::retain_spans(false)`: closing spans then feed their
//! duration histograms and build no records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod limits;
pub mod pool;
pub mod router;
pub mod state;

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use http::{ReadOutcome, Response};
use limits::Deadline;
use pool::{BoundedQueue, PushError};
use router::RouteCtx;
use state::ServeState;

/// How the daemon is sized and bounded.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:8377`, port 0 for ephemeral).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before the
    /// acceptor starts shedding with 503.
    pub queue_depth: usize,
    /// Per-request budget; exceeding it yields 504 and closes.
    pub request_timeout: Duration,
    /// How long shutdown waits for queued connections to drain before
    /// discarding them.
    pub drain_timeout: Duration,
    /// Routes the `GET /slow?ms=N` test fixture (off in production).
    pub slow_endpoint: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            request_timeout: Duration::from_millis(2_000),
            drain_timeout: Duration::from_millis(2_000),
            slow_endpoint: false,
        }
    }
}

/// Totals a finished server reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests that reached a handler.
    pub requests: u64,
    /// Connections refused with 503 (queue full or discarded at drain).
    pub shed: u64,
    /// Requests that exceeded their deadline (504).
    pub timeouts: u64,
    /// Successful snapshot reloads.
    pub reloads: u64,
    /// Snapshot generation serving at exit.
    pub generation: u64,
}

struct Shared {
    state: ServeState,
    config: ServeConfig,
    queue: BoundedQueue<(TcpStream, Instant)>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server: acceptor + worker pool over one [`ServeState`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Loads the snapshot at `db_path`, binds `config.addr`, and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Fails on an unloadable snapshot or an unbindable address; nothing
    /// is left running.
    pub fn start(config: ServeConfig, db_path: PathBuf) -> Result<Server, String> {
        let state = ServeState::boot(db_path)?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let local_addr = listener.local_addr().map_err(|e| e.to_string())?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;

        let shared = Arc::new(Shared {
            state,
            queue: BoundedQueue::new(config.queue_depth),
            config,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        });

        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| format!("cannot spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?
        };

        Ok(Server {
            shared,
            local_addr,
            acceptor,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Initiates graceful shutdown (equivalent to `POST /shutdown`).
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the server exits (via [`Server::stop`] or
    /// `POST /shutdown`): the acceptor stops, queued connections drain
    /// within the drain timeout, workers join. Returns the totals.
    pub fn wait(self) -> ServeSummary {
        let _ = self.acceptor.join();
        // The acceptor closed the queue on its way out; give queued
        // connections the drain budget, then discard the rest as shed.
        let drain = Deadline::new(self.shared.config.drain_timeout);
        while !self.shared.queue.is_empty() && !drain.expired() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let discarded = self.shared.queue.discard_queued() as u64;
        if discarded > 0 {
            self.shared.shed.fetch_add(discarded, Ordering::Relaxed);
            rememberr_obs::count("serve.shed", discarded);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        let generation = self.shared.state.snapshot().generation;
        ServeSummary {
            requests: self.shared.requests.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            timeouts: self.shared.timeouts.load(Ordering::Relaxed),
            reloads: generation - 1,
            generation,
        }
    }

    /// Stops and waits in one call.
    pub fn stop_and_wait(self) -> ServeSummary {
        self.stop();
        self.wait()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                match shared.queue.try_push((stream, Instant::now())) {
                    Ok(()) => {}
                    Err(PushError::Full((stream, _)) | PushError::Closed((stream, _))) => {
                        shed(shared, stream);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    shared.queue.close();
}

/// Refuses one connection with the canonical 503 (best-effort write).
fn shed(shared: &Shared, mut stream: TcpStream) {
    shared.shed.fetch_add(1, Ordering::Relaxed);
    rememberr_obs::count("serve.shed", 1);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(&Response::shed().to_bytes());
    close_after_refusal(stream);
}

/// Closes a connection whose request may be partly unread. Closing with
/// unread bytes would RST the connection and can destroy the refusal
/// before the client reads it; signal EOF and drain briefly (at most four
/// read slices) so the refusal arrives intact.
fn close_after_refusal(mut stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut sink = [0u8; 512];
    for _ in 0..4 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((stream, accepted_at)) = shared.queue.pop() {
        serve_connection(shared, stream, accepted_at);
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream, accepted_at: Instant) {
    let timeout = shared.config.request_timeout;
    // The first request's budget starts at accept, so time spent queued
    // counts against it; keep-alive requests restart the clock when their
    // first byte arrives.
    let mut budget_start = accepted_at;
    let mut first = true;
    let stop = || shared.shutting_down();
    loop {
        let outcome = http::read_request(&mut stream, budget_start + timeout, &stop);
        let request = match outcome {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Eof | ReadOutcome::Stopped => return,
            ReadOutcome::TimedOut { started: false } => return,
            ReadOutcome::TimedOut { started: true } => {
                timeout_response(shared, &mut stream);
                return;
            }
            ReadOutcome::Malformed(message) => {
                let _ = Response::text(400, format!("{message}\n"))
                    .closing()
                    .write_to(&mut stream);
                close_after_refusal(stream);
                return;
            }
        };
        // First request: budget from accept, so queue wait is charged.
        // Keep-alive requests: budget from their own first byte.
        let deadline = if first {
            Deadline::starting(accepted_at, timeout)
        } else {
            Deadline::starting(request.arrived, timeout)
        };
        first = false;
        shared.requests.fetch_add(1, Ordering::Relaxed);
        rememberr_obs::count("serve.requests", 1);
        if deadline.expired() {
            timeout_response(shared, &mut stream);
            return;
        }

        let ctx = RouteCtx {
            state: &shared.state,
            slow_endpoint: shared.config.slow_endpoint,
            shutdown: &shared.shutdown,
        };
        let response = {
            let _span = rememberr_obs::span!("serve.execute");
            router::respond(&request, &ctx)
        };
        if deadline.expired() {
            timeout_response(shared, &mut stream);
            return;
        }

        let written = {
            let _span = rememberr_obs::span!("serve.write");
            response.write_to(&mut stream)
        };
        rememberr_obs::record_ns("serve.request", deadline.elapsed_ns());
        if written.is_err() || response.close || request.close || shared.shutting_down() {
            return;
        }
        budget_start = Instant::now();
    }
}

fn timeout_response(shared: &Shared, stream: &mut TcpStream) {
    shared.timeouts.fetch_add(1, Ordering::Relaxed);
    rememberr_obs::count("serve.timeouts", 1);
    let _ = Response::deadline_exceeded().write_to(stream);
}
