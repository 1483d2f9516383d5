//! The `serve_mix` and `serve_reload` workloads: the query battery over
//! loopback HTTP against a `rememberr_serve::Server` booted from the
//! binary snapshot that `ingest_paper`'s path builds.

use std::hint::black_box;
use std::net::SocketAddr;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rememberr::{Database, QueryIndex};
use rememberr_obs::Snapshot;
use rememberr_serve::{ServeConfig, Server};

use crate::battery::Battery;
use crate::http::{Conn, METRICS_REQUEST, RELOAD_REQUEST};
use crate::ingest;
use crate::pace::Pacer;
use crate::stats::{histogram_quantile_ns, median, ms, quantile};
use crate::{Outcome, RunConfig, Tally, Workload};

/// `serve_reload`'s offered load, in queries per second: about a quarter
/// of what `nproc` closed-loop connections complete on a 2-core host, so
/// the open loop runs well below saturation.
pub const RELOAD_RATE: u64 = 15_000;

/// `serve_mix`'s connections. On a 2-core host, `nproc` closed-loop
/// connections plus as many busy workers are more runnable threads than
/// cores, and the scheduler's placement of them flips the median latency
/// between about 19 and 43 µs from one second to the next; one connection
/// keeps one client and one worker busy, and the figures steady.
const MIX_CLIENTS: usize = 1;

/// How often `serve_reload` sends `POST /reload`: often enough that the
/// queries stalled behind reloads are several percent of the load, so
/// `query_p99_us` tracks the reload time instead of sitting on the edge of
/// the stalled share.
const RELOAD_EVERY: Duration = Duration::from_millis(50);

/// `POST /reload`s timed on the idle server after each set-up's boot:
/// `serve_mix`'s `reload_ms`.
const IDLE_RELOADS: usize = 30;

/// Traced runs: in-process battery passes, and in-process repeats of the
/// snapshot load and index build.
const INPROC_PASSES: usize = 500;
const LOAD_REPEATS: usize = 10;

/// Length of one slice of the window. The window is cut into slices with
/// a pace reading before, between and after them; each slice's figures
/// are scaled by the readings around it, and the median slice reported.
const SLICE: Duration = Duration::from_secs(1);

/// What one client connection saw in one slice.
#[derive(Default)]
struct ClientLog {
    /// From the slice's start to the client's last response, in s.
    elapsed_s: f64,
    /// Each completed query's latency, in ns: from when it was sent
    /// (closed loop) or due (open loop).
    latencies_ns: Vec<u32>,
    /// Each reload's latency, in ms.
    reloads_ms: Vec<f64>,
    /// Open loop: how late each request was sent, in ns.
    late_ns: Vec<u32>,
    tally: Tally,
}

impl ClientLog {
    fn merge(&mut self, other: ClientLog) {
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.latencies_ns.extend(other.latencies_ns);
        self.reloads_ms.extend(other.reloads_ms);
        self.late_ns.extend(other.late_ns);
        self.tally.merge(other.tally);
    }
}

/// A scratch directory for the snapshot, inside the working directory;
/// removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Set-up products: the running server and what it serves.
struct Setup {
    server: Server,
    /// The database the server's snapshot holds.
    db: Database,
    snapshot_bytes: usize,
    setup_s: Vec<f64>,
    generate_ms: Vec<f64>,
    ingest_s: Vec<f64>,
    boot_ms: Vec<f64>,
    /// Per set-up: the median idle reload.
    reload_ms: Vec<f64>,
}

/// For each corpus seed: generates the corpus, ingests it to a binary
/// snapshot at `path` and boots a server on it; the last server stays up.
/// Each ingest is checked like `ingest_paper`'s, and each server reloaded
/// `IDLE_RELOADS` times, outside the timings.
fn setup(config: &RunConfig, path: &Path, outcome: &mut Outcome) -> Result<Setup, String> {
    let mut times = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reload_ms = Vec::new();
    let mut last: Option<(Server, Database, usize)> = None;
    // Two stretches per corpus, each scaled by the pace readings around
    // it: generate and ingest; then boot and the idle reloads.
    let mut pacer = Pacer::start();
    for &seed in &config.corpus_seeds {
        if let Some((server, _, _)) = last.take() {
            server.stop_and_wait();
        }
        let start = Instant::now();
        let corpus = ingest::generate(seed);
        let generate = start.elapsed();
        let ingested = ingest::ingest(&corpus)?;
        let ingest = start.elapsed() - generate;
        let ingest_scale = pacer.lap();
        outcome.record(ingest::check(&corpus, &ingested).err());
        let booting = Instant::now();
        std::fs::write(path, &ingested.snapshot)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let server_config = ServeConfig {
            workers: nproc(),
            ..ServeConfig::default()
        };
        let server = Server::start(server_config, path.to_path_buf())?;
        let boot = booting.elapsed();
        let reload = idle_reloads(server.local_addr(), ingested.db.len(), &mut outcome.tally);
        let boot_scale = pacer.lap();
        times.0.push(
            (generate + ingest).as_secs_f64() * ingest_scale + boot.as_secs_f64() * boot_scale,
        );
        times.1.push(ms(generate));
        times.2.push(ingest.as_secs_f64() * ingest_scale);
        times.3.push(ms(boot));
        reload_ms.push(reload * boot_scale);
        last = Some((server, ingested.reloaded, ingested.snapshot.len()));
    }
    let (server, db, snapshot_bytes) = last.expect("at least one set-up");
    Ok(Setup {
        server,
        db,
        snapshot_bytes,
        setup_s: times.0,
        generate_ms: times.1,
        ingest_s: times.2,
        boot_ms: times.3,
        reload_ms,
    })
}

/// A duration in nanoseconds, saturating at `u32::MAX` (4.3 s).
fn nanos_u32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Checks one query response against the in-process rendering.
fn check_body(result: std::io::Result<(u16, &[u8])>, want: &str, url: &str) -> Option<String> {
    match result {
        Ok((200, body)) if body == want.as_bytes() => None,
        Ok((200, _)) => Some(format!("{url}: body differs from the in-process rendering")),
        Ok((status, _)) => Some(format!("{url}: status {status}")),
        Err(e) => Some(format!("{url}: {e}")),
    }
}

/// Checks one `POST /reload` response.
fn check_reload(result: std::io::Result<(u16, &[u8])>, entries: usize) -> Option<String> {
    let tail = format!("({entries} entries)\n");
    match result {
        Ok((200, body)) if body.ends_with(tail.as_bytes()) => None,
        Ok((status, body)) => Some(format!(
            "reload: status {status}, body {:?}",
            String::from_utf8_lossy(body)
        )),
        Err(e) => Some(format!("reload: {e}")),
    }
}

/// The connection in `slot`, connecting first when it is empty; `None`
/// (and one failure) when the server refuses.
fn connected<'a>(
    slot: &'a mut Option<Conn>,
    addr: SocketAddr,
    tally: &mut Tally,
) -> Option<&'a mut Conn> {
    if slot.is_none() {
        match Conn::connect(addr) {
            Ok(conn) => *slot = Some(conn),
            Err(e) => tally.record(Some(format!("connect: {e}"))),
        }
    }
    slot.as_mut()
}

/// One slice of a `serve_mix` client: sends the next battery target, from
/// `*next` on, as soon as the previous response is in, for one `SLICE`
/// from `start`.
fn closed_slice(
    addr: SocketAddr,
    (battery, expected): (&Battery, &[String]),
    slot: &mut Option<Conn>,
    next: &mut usize,
    start: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    while start.elapsed() < SLICE {
        let Some(conn) = connected(slot, addr, &mut log.tally) else {
            continue;
        };
        let k = *next % battery.len();
        let target = &battery.targets[k];
        let sent = Instant::now();
        let problem = check_body(conn.exchange(&target.request), &expected[k], &target.url);
        match problem {
            None => log.latencies_ns.push(nanos_u32(sent.elapsed())),
            // The connection may be mid-response; start a fresh one.
            Some(_) => *slot = None,
        }
        log.tally.record(problem);
        *next += 1;
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// Makes this thread's timed sleeps wake on time. Linux otherwise lets
/// them wake up to 50 µs late (the default timer slack), which the open
/// loop would charge to the server as latency.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    // SAFETY: `PR_SET_TIMERSLACK` reads one `unsigned long` argument, the
    // slack in ns, and changes nothing but the calling thread's slack.
    // Failure leaves the default slack, which `gen.late_p99_us` shows.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// One slice of `serve_reload`'s client `c` of `clients`: sends the
/// battery on a fixed schedule from `start` whatever the responses do, and
/// times each query from when it was due. Client 0 also sends
/// `POST /reload` every `RELOAD_EVERY`.
fn open_slice(
    addr: SocketAddr,
    (battery, expected): (&Battery, &[String]),
    (c, clients): (usize, usize),
    entries: usize,
    slot: &mut Option<Conn>,
    start: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    // Client c sends queries k * clients + c of one schedule per slice.
    let interval_ns = 1e9 / RELOAD_RATE as f64;
    let due_query = |k: u64| {
        start + Duration::from_nanos(((k * clients as u64 + c as u64) as f64 * interval_ns) as u64)
    };
    let end = start + SLICE;
    let mut k = 0u64;
    let mut next_reload = (c == 0).then(|| start + RELOAD_EVERY);
    loop {
        let query_due = due_query(k);
        let reload_due = next_reload.filter(|&r| r <= query_due);
        let due = reload_due.unwrap_or(query_due);
        if due >= end {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let problem = if reload_due.is_some() {
            next_reload = Some(due + RELOAD_EVERY);
            let Some(conn) = connected(slot, addr, &mut log.tally) else {
                continue;
            };
            let problem = check_reload(conn.exchange(RELOAD_REQUEST), entries);
            if problem.is_none() {
                log.reloads_ms.push(ms(sent.elapsed()));
            }
            problem
        } else {
            k += 1;
            let Some(conn) = connected(slot, addr, &mut log.tally) else {
                continue;
            };
            let i = (k as usize + c * 5) % battery.len();
            let target = &battery.targets[i];
            let problem = check_body(conn.exchange(&target.request), &expected[i], &target.url);
            log.late_ns.push(nanos_u32(sent - due));
            if problem.is_none() {
                log.latencies_ns.push(nanos_u32(due.elapsed()));
            }
            problem
        };
        if problem.is_some() {
            *slot = None;
        }
        log.tally.record(problem);
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// One slice: what its clients saw, and the scale of its stretch.
struct Slice {
    /// All clients' logs of the slice.
    log: ClientLog,
    /// Scales a time measured in the slice to nominal pace; 1 when `drive`
    /// does not read the pace.
    scale: f64,
}

/// Runs the workload's clients through `slices` slices of the window.
/// With `paced`, the pace is read before each slice and after the last,
/// while clients and server are idle. Connections stay open across
/// slices.
fn drive(
    workload: Workload,
    addr: SocketAddr,
    battery: (&Battery, &[String]),
    entries: usize,
    (slices, paced): (usize, bool),
) -> Vec<Slice> {
    let clients = match workload {
        Workload::ServeMix => MIX_CLIENTS,
        _ => nproc(),
    };
    let gate = Barrier::new(clients + 1);
    let (logs, scales) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let gate = &gate;
                scope.spawn(move || {
                    if workload == Workload::ServeReload {
                        tighten_timer_slack();
                    }
                    let mut slot = None;
                    // Clients start at different targets so they do not
                    // run in lockstep.
                    let mut next = c * 5;
                    let mut logs = Vec::with_capacity(slices);
                    for _ in 0..slices {
                        gate.wait();
                        let start = Instant::now();
                        logs.push(match workload {
                            Workload::ServeMix => {
                                closed_slice(addr, battery, &mut slot, &mut next, start)
                            }
                            _ => open_slice(addr, battery, (c, clients), entries, &mut slot, start),
                        });
                        gate.wait();
                    }
                    logs
                })
            })
            .collect();
        let mut pacer = paced.then(Pacer::start);
        let scales: Vec<f64> = (0..slices)
            .map(|_| {
                gate.wait();
                gate.wait();
                pacer.as_mut().map_or(1.0, Pacer::lap)
            })
            .collect();
        let logs: Vec<Vec<ClientLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, scales)
    });
    let mut merged: Vec<ClientLog> = (0..slices).map(|_| ClientLog::default()).collect();
    for client in logs {
        for (slice, log) in merged.iter_mut().zip(client) {
            slice.merge(log);
        }
    }
    merged
        .into_iter()
        .zip(scales)
        .map(|(log, scale)| Slice { log, scale })
        .collect()
}

/// `POST /reload` `IDLE_RELOADS` times on an otherwise idle server;
/// returns the median latency in ms.
fn idle_reloads(addr: SocketAddr, entries: usize, tally: &mut Tally) -> f64 {
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            tally.record(Some(format!("connect: {e}")));
            return 0.0;
        }
    };
    let mut times = Vec::with_capacity(IDLE_RELOADS);
    for _ in 0..IDLE_RELOADS {
        let sent = Instant::now();
        let problem = check_reload(conn.exchange(RELOAD_REQUEST), entries);
        if problem.is_none() {
            times.push(ms(sent.elapsed()));
        }
        tally.record(problem);
    }
    median(&times)
}

/// The server's obs snapshot, through `GET /metrics`.
fn fetch_metrics(addr: SocketAddr, tally: &mut Tally) -> Option<Snapshot> {
    let fetched = Conn::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut conn| match conn.exchange(METRICS_REQUEST) {
            Ok((200, body)) => serde_json::from_str::<Snapshot>(&String::from_utf8_lossy(body))
                .map_err(|e| format!("unparsable /metrics: {e}")),
            Ok((status, _)) => Err(format!("status {status}")),
            Err(e) => Err(e.to_string()),
        });
    tally.record(fetched.as_ref().err().map(|e| format!("/metrics: {e}")));
    fetched.ok()
}

fn mean_us(snap: &Snapshot, span: &str) -> f64 {
    snap.durations
        .get(span)
        .map_or(0.0, |h| h.mean_ns() as f64 / 1e3)
}

/// Median wall time of `f` over `LOAD_REPEATS` calls, in ms.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..LOAD_REPEATS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            ms(start.elapsed())
        })
        .collect();
    median(&times)
}

/// The `serve_mix` and `serve_reload` workloads.
pub fn run(workload: Workload, config: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(config);
    let work = WorkDir::create()?;
    let path = work.0.join("snapshot.bin");
    let battery = Battery::new()?;
    let setup = setup(config, &path, &mut outcome)?;
    let addr = setup.server.local_addr();
    let entries = setup.db.len();
    let expected = battery.expected(&setup.db);

    // Obs as `rememberr serve` runs it: counters and histograms on, span
    // records off; set-up's activity is cleared first.
    rememberr_obs::reset();
    rememberr_obs::enable();
    rememberr_obs::retain_spans(false);
    let slices = drive(
        workload,
        addr,
        (&battery, &expected),
        entries,
        (config.seconds as usize, !config.trace),
    );
    let server_snap = if config.trace {
        fetch_metrics(addr, &mut outcome.tally)
    } else {
        None
    };
    setup.server.stop_and_wait();
    rememberr_obs::disable();

    // Per slice, scaled by the slice's scale: latency quantiles, queries
    // completed per second, median reload.
    let mut log = ClientLog::default();
    let (mut p50_us, mut p99_us, mut rps, mut reload_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut scales = Vec::new();
    for slice in slices {
        let scale = slice.scale;
        let mut latencies = slice.log.latencies_ns.clone();
        latencies.sort_unstable();
        if !latencies.is_empty() {
            p50_us.push(quantile(&latencies, 0.50) / 1e3 * scale);
            p99_us.push(quantile(&latencies, 0.99) / 1e3 * scale);
            let rate = latencies.len() as f64 / slice.log.elapsed_s;
            rps.push(match workload {
                Workload::ServeMix => rate / scale,
                // The open loop's rate is the schedule's, not the host's.
                _ => rate,
            });
        }
        if !slice.log.reloads_ms.is_empty() {
            reload_ms.push(median(&slice.log.reloads_ms) * scale);
        }
        scales.push(scale);
        log.merge(slice.log);
    }
    outcome.tally.merge(std::mem::take(&mut log.tally));
    eprintln!(
        "perfbench: {}: set-ups at nominal pace: ingest s {:.3?}, idle reload ms {:.2?}",
        workload.name(),
        setup.ingest_s,
        setup.reload_ms,
    );
    eprintln!(
        "perfbench: {}: {} queries and {} reloads in {} one-second slices; \
         slice scales {:.3?}; slice p50 µs {:.1?}",
        workload.name(),
        log.latencies_ns.len(),
        log.reloads_ms.len(),
        config.seconds,
        scales,
        p50_us,
    );
    let m = &mut outcome.metrics;
    if !config.trace {
        m.set("setup_s", median(&setup.setup_s));
        m.set("ingest_s", median(&setup.ingest_s));
        m.set("snapshot_bytes", setup.snapshot_bytes as f64);
        m.set("query_rps", median(&rps));
        m.set("query_p50_us", median(&p50_us));
        m.set("query_p99_us", median(&p99_us));
        m.set(
            "reload_ms",
            match workload {
                Workload::ServeMix => median(&setup.reload_ms),
                _ => median(&reload_ms),
            },
        );
        outcome.finish();
        return Ok(outcome);
    }

    if let Some(snap) = &server_snap {
        m.set_from_obs(snap);
        if let Some(request) = snap.durations.get("serve.request") {
            let server_p50_us = histogram_quantile_ns(request, 0.50) / 1e3;
            m.set("serve.request_p50_us", server_p50_us);
            m.set(
                "serve.request_p99_us",
                histogram_quantile_ns(request, 0.99) / 1e3,
            );
            m.set("client.wait_us", median(&p50_us) - server_p50_us);
        }
        m.set("serve.parse_us", mean_us(snap, "serve.parse"));
        m.set("serve.execute_us", mean_us(snap, "serve.execute"));
        m.set("serve.write_us", mean_us(snap, "serve.write"));
        m.set("query.execute_us", mean_us(snap, "query.execute"));
    }
    let mut late = log.late_ns;
    late.sort_unstable();
    m.set("gen.late_p99_us", quantile(&late, 0.99) / 1e3);
    m.set("setup.generate_ms", median(&setup.generate_ms));
    m.set("setup.boot_ms", median(&setup.boot_ms));

    // In-process layers, after the server has stopped: the battery with
    // no HTTP, its per-request effort counters, the reload's snapshot
    // load and the index build.
    rememberr_obs::reset();
    rememberr_obs::enable();
    let run = battery.run_inprocess(&setup.db, &expected, INPROC_PASSES, &mut outcome.tally);
    let snap = rememberr_obs::snapshot();
    rememberr_obs::disable();
    let m = &mut outcome.metrics;
    m.set("query.inproc_us", median(&run.medians_ns) / 1e3);
    m.set_per_query(&snap, run.queries);
    let reload = || rememberr_serve::state::load_snapshot(&path, 1);
    outcome.record(reload().err());
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let m = &mut outcome.metrics;
    m.set("reload.load_ms", median_ms(reload));
    m.set(
        "persist.load_ms",
        median_ms(|| rememberr::load(bytes.as_slice())),
    );
    m.set(
        "query.build_index_ms",
        median_ms(|| QueryIndex::build(&setup.db)),
    );
    Ok(outcome)
}
