//! End-to-end tests over real loopback sockets: byte-identity against the
//! router's renderers over a scan oracle kept in this file, worker-count
//! independence, admission control, deadlines, hot reload, and graceful
//! shutdown.
//!
//! Every test serializes on one gate: the obs registry is process-global
//! (the shed test asserts counter deltas) and the box may have one core,
//! so concurrent servers would only add scheduling noise.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use proptest::test_runner::{ProptestConfig, TestRng, TestRunner};
use rememberr::{Database, DbEntry, Query};
use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_model::{Context, Date, Effect, Trigger, Vendor, WorkaroundCategory};
use rememberr_serve::router::{render_count_body, render_query_body, DEFAULT_LIMIT};
use rememberr_serve::{ServeConfig, Server};

static GATE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn annotated_db(scale: f64) -> Database {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(scale));
    let mut db = Database::from_documents(&corpus.structured);
    classify_database(
        &mut db,
        &Rules::standard(),
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
    );
    db
}

/// The scan oracle: every entry (every representative, for a `unique`
/// query) that `Query::matches` accepts, in the order the server must list
/// them.
fn scan<'db>(query: &Query, unique: bool, db: &'db Database) -> Vec<&'db DbEntry> {
    let universe = if unique {
        db.unique_entries()
    } else {
        db.entries().iter().collect()
    };
    universe.into_iter().filter(|e| query.matches(e)).collect()
}

fn write_db(db: &Database, path: &PathBuf) {
    let mut bytes = Vec::new();
    rememberr::save(db, &mut bytes).expect("snapshot serializes");
    std::fs::write(path, bytes).expect("snapshot writes");
}

/// The shared read-only fixture: one annotated snapshot on disk plus the
/// same database in memory (the in-process oracle).
fn fixture() -> &'static (PathBuf, Database) {
    static FIXTURE: OnceLock<(PathBuf, Database)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("rememberr-serve-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("fixture dir");
        let db = annotated_db(0.1);
        let path = dir.join("fixture.jsonl");
        write_db(&db, &path);
        (path, db)
    })
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth: 16,
        request_timeout: Duration::from_millis(5_000),
        drain_timeout: Duration::from_millis(2_000),
        slow_endpoint: false,
    }
}

/// One single-shot HTTP exchange: returns (status, head, body).
fn exchange(addr: SocketAddr, method: &str, target: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_nodelay(true);
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("request writes");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response reads");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("headerless response {text:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let (status, _head, body) = exchange(addr, "GET", target);
    (status, body)
}

/// A fixed battery exercising every endpoint and parameter family.
fn battery() -> Vec<String> {
    let mut targets = vec![
        "/healthz".to_string(),
        "/stats".to_string(),
        "/query".to_string(),
        "/count".to_string(),
        "/query?vendor=intel&unique=1".to_string(),
        "/query?vendor=amd&limit=3".to_string(),
        "/count?workaround=bios".to_string(),
        "/count?after=2016-01-01&before=2019-01-01&unique=1".to_string(),
        "/query?annotated=1&min-triggers=2&limit=5".to_string(),
    ];
    targets.push(format!("/query?trigger={}", Trigger::ALL[0]));
    targets.push(format!("/count?context={}&vendor=intel", Context::ALL[2]));
    targets.push(format!("/query?effect={}&unique=1", Effect::ALL[1]));
    targets
}

#[test]
fn bodies_match_the_in_process_scan_oracle() {
    let _gate = exclusive();
    let (path, db) = fixture();
    let server = Server::start(config(2), path.clone()).expect("server starts");
    let addr = server.local_addr();

    // Health and stats have fixed shapes.
    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(stats.contains("\"generation\":1"), "{stats}");
    assert!(
        stats.contains(&format!("\"entries\":{}", db.len())),
        "{stats}"
    );

    // /query and /count agree byte-for-byte with the same renderers over
    // the scan oracle.
    let cases = [
        (
            "vendor=intel&unique=1",
            Query::new().vendor(Vendor::Intel).unique_only(),
            true,
        ),
        (
            "workaround=bios",
            Query::new().workaround(WorkaroundCategory::Bios),
            false,
        ),
        (
            "after=2016-01-01&unique=1",
            Query::new()
                .disclosed_after(Date::new(2016, 1, 1).unwrap())
                .unique_only(),
            true,
        ),
    ];
    for (params, query, unique) in cases {
        let hits = scan(&query, unique, db);
        let expected_query = render_query_body(&hits, DEFAULT_LIMIT);
        let expected_count = render_count_body(hits.len());
        let (s, served) = get(addr, &format!("/query?{params}"));
        assert_eq!(
            (s, served.as_str()),
            (200, expected_query.as_str()),
            "{params}"
        );
        let (s, counted) = get(addr, &format!("/count?{params}"));
        assert_eq!(
            (s, counted.as_str()),
            (200, expected_count.as_str()),
            "{params}"
        );
    }

    // Errors are explicit, not silent.
    let (status, body) = get(addr, "/query?vendor=via");
    assert_eq!(status, 400);
    assert!(body.contains("intel"), "{body}");
    let (status, _) = get(addr, "/nowhere");
    assert_eq!(status, 404);
    let (status, head, _) = exchange(addr, "POST", "/query");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: GET"), "{head}");
    let (status, _) = get(addr, "/slow?ms=1");
    assert_eq!(status, 404, "slow fixture is off by default");

    server.stop_and_wait();
}

#[test]
fn proptest_query_mix_matches_oracle_over_http() {
    let _gate = exclusive();
    let (path, db) = fixture();
    let server = Server::start(config(2), path.clone()).expect("server starts");
    let addr = server.local_addr();

    let mut runner = TestRunner::new(ProptestConfig::with_cases(32));
    runner.run_cases(|rng| {
        let (params, query, unique) = random_query(rng);
        let endpoint = if rng.below(2) == 0 {
            "/query"
        } else {
            "/count"
        };
        let sep = if params.is_empty() { "" } else { "?" };
        let target = format!("{endpoint}{sep}{params}");
        let hits = scan(&query, unique, db);
        let expected = match endpoint {
            "/query" => render_query_body(&hits, DEFAULT_LIMIT),
            _ => render_count_body(hits.len()),
        };
        let (status, served) = get(addr, &target);
        assert_eq!(
            (status, served.as_str()),
            (200, expected.as_str()),
            "served body diverged from the scan oracle for {target}"
        );
    });

    server.stop_and_wait();
}

/// Draws one random parameter mix, the equivalent in-process query, and
/// whether it is `unique_only`.
fn random_query(rng: &mut TestRng) -> (String, Query, bool) {
    let mut params: Vec<String> = Vec::new();
    let mut query = Query::new();
    if rng.below(2) == 0 {
        let (name, vendor) = if rng.below(2) == 0 {
            ("intel", Vendor::Intel)
        } else {
            ("amd", Vendor::Amd)
        };
        params.push(format!("vendor={name}"));
        query = query.vendor(vendor);
    }
    if rng.below(3) == 0 {
        let t = Trigger::ALL[rng.below(Trigger::ALL.len() as u64) as usize];
        params.push(format!("trigger={t}"));
        query = query.trigger(t);
    }
    if rng.below(3) == 0 {
        let c = Context::ALL[rng.below(Context::ALL.len() as u64) as usize];
        params.push(format!("context={c}"));
        query = query.context(c);
    }
    if rng.below(3) == 0 {
        let e = Effect::ALL[rng.below(Effect::ALL.len() as u64) as usize];
        params.push(format!("effect={e}"));
        query = query.effect(e);
    }
    if rng.below(4) == 0 {
        let w = WorkaroundCategory::ALL[rng.below(WorkaroundCategory::ALL.len() as u64) as usize];
        params.push(format!(
            "workaround={}",
            w.to_string().to_ascii_lowercase().replace(' ', "-")
        ));
        query = query.workaround(w);
    }
    if rng.below(3) == 0 {
        let date = Date::new(2014 + rng.below(5) as i32, 1 + rng.below(12) as u8, 1).unwrap();
        params.push(format!("after={date}"));
        query = query.disclosed_after(date);
    }
    if rng.below(4) == 0 {
        let n = 1 + rng.below(3) as usize;
        params.push(format!("min-triggers={n}"));
        query = query.min_triggers(n);
    }
    let unique = rng.below(2) == 0;
    if unique {
        params.push("unique=1".to_string());
        query = query.unique_only();
    }
    if rng.below(3) == 0 {
        params.push("annotated=true".to_string());
        query = query.annotated_only();
    }
    (params.join("&"), query, unique)
}

#[test]
fn worker_count_does_not_change_a_single_byte() {
    let _gate = exclusive();
    let (path, _) = fixture();
    let mut outputs: Vec<Vec<(u16, String)>> = Vec::new();
    for workers in [1, 4] {
        let server = Server::start(config(workers), path.clone()).expect("server starts");
        let addr = server.local_addr();
        outputs.push(battery().iter().map(|t| get(addr, t)).collect());
        server.stop_and_wait();
    }
    assert_eq!(outputs[0], outputs[1], "bodies depend on worker count");
}

#[test]
fn saturated_queue_sheds_with_503_and_counts_it() {
    let _gate = exclusive();
    let (path, _) = fixture();
    rememberr_obs::reset();
    rememberr_obs::enable();
    rememberr_obs::retain_spans(false);
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        slow_endpoint: true,
        ..config(1)
    };
    let server = Server::start(cfg, path.clone()).expect("server starts");
    let addr = server.local_addr();

    // Occupy the single worker...
    let holder = std::thread::spawn(move || get(addr, "/slow?ms=800"));
    std::thread::sleep(Duration::from_millis(200));
    // ...fill the queue (this one will be served after the holder)...
    let queued = std::thread::spawn(move || get(addr, "/healthz"));
    std::thread::sleep(Duration::from_millis(100));
    // ...and overflow it: these must be shed immediately with 503.
    let mut shed_seen = 0;
    for _ in 0..3 {
        let (status, head, body) = exchange(addr, "GET", "/healthz");
        assert_eq!(status, 503, "{body}");
        assert!(head.contains("Retry-After: 1"), "{head}");
        shed_seen += 1;
    }
    assert_eq!(holder.join().unwrap(), (200, "slept 800 ms\n".to_string()));
    assert_eq!(queued.join().unwrap(), (200, "ok\n".to_string()));

    let summary = server.stop_and_wait();
    assert_eq!(summary.shed, shed_seen, "summary disagrees with clients");
    let counters = rememberr_obs::snapshot().counters;
    assert_eq!(counters.get("serve.shed"), Some(&shed_seen));
    assert_eq!(counters.get("serve.timeouts"), None);
    assert!(counters["serve.requests"] >= 2);
    rememberr_obs::reset();
    rememberr_obs::disable();
}

#[test]
fn deadline_overrun_returns_504_and_counts_a_timeout() {
    let _gate = exclusive();
    let (path, _) = fixture();
    let cfg = ServeConfig {
        slow_endpoint: true,
        request_timeout: Duration::from_millis(150),
        ..config(1)
    };
    let server = Server::start(cfg, path.clone()).expect("server starts");
    let addr = server.local_addr();
    let (status, body) = get(addr, "/slow?ms=400");
    assert_eq!(status, 504, "{body}");
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200, "server keeps serving after a timeout");
    let summary = server.stop_and_wait();
    assert_eq!(summary.timeouts, 1);
    assert_eq!(summary.requests, 2);
}

#[test]
fn reload_hot_swaps_without_dropping_inflight_requests() {
    let _gate = exclusive();
    let dir = std::env::temp_dir().join(format!("rememberr-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("reload dir");
    let path = dir.join("live.jsonl");
    let first = annotated_db(0.05);
    write_db(&first, &path);

    let cfg = ServeConfig {
        workers: 2,
        slow_endpoint: true,
        ..config(2)
    };
    let server = Server::start(cfg, path.clone()).expect("server starts");
    let addr = server.local_addr();
    assert_eq!(
        get(addr, "/count").1,
        render_count_body(first.len()),
        "generation 1 serves the first snapshot"
    );

    // Keep one request in flight across the swap.
    let inflight = std::thread::spawn(move || get(addr, "/slow?ms=600"));
    std::thread::sleep(Duration::from_millis(150));

    let second = annotated_db(0.08);
    assert_ne!(first.len(), second.len(), "fixture sizes must differ");
    write_db(&second, &path);
    let (status, _head, body) = exchange(addr, "POST", "/reload");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("generation 2"), "{body}");
    assert_eq!(get(addr, "/count").1, render_count_body(second.len()));
    let (_, stats) = get(addr, "/stats");
    assert!(stats.contains("\"generation\":2"), "{stats}");

    assert_eq!(
        inflight.join().unwrap(),
        (200, "slept 600 ms\n".to_string()),
        "in-flight request survived the swap"
    );

    let summary = server.stop_and_wait();
    assert_eq!(summary.reloads, 1);
    assert_eq!(summary.generation, 2);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn shutdown_endpoint_drains_and_exits() {
    let _gate = exclusive();
    let (path, _) = fixture();
    let server = Server::start(config(2), path.clone()).expect("server starts");
    let addr = server.local_addr();
    for _ in 0..3 {
        assert_eq!(get(addr, "/healthz").0, 200);
    }
    let (status, _head, body) = exchange(addr, "POST", "/shutdown");
    assert_eq!((status, body.as_str()), (200, "shutting down\n"));
    let summary = server.wait();
    assert_eq!(summary.requests, 4);
    assert_eq!(summary.shed, 0);
    // The listener is gone: new connections are refused or reset.
    std::thread::sleep(Duration::from_millis(50));
    let refused = TcpStream::connect(addr)
        .map(|mut s| {
            let _ = write!(s, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
            let mut buf = Vec::new();
            s.read_to_end(&mut buf)
                .map(|_| buf.is_empty())
                .unwrap_or(true)
        })
        .unwrap_or(true);
    assert!(refused, "server still answered after shutdown");
}
