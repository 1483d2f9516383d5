//! CLI ↔ HTTP parity: `rememberr-cli query` prints exactly the body
//! `GET /query` serves for the same parameters, and both surfaces refuse a
//! malformed parameter with the same words, the CLI spelling the parameter
//! as its `--option`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rememberr::{Database, Query};
use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_model::{Effect, Trigger};
use rememberr_serve::http::parse_query_string;
use rememberr_serve::{ServeConfig, Server};

/// The `/query` targets of `serve_e2e.rs`'s battery, plus an identical
/// repeat of a single-valued parameter, which both surfaces accept.
fn targets() -> Vec<String> {
    vec![
        "/query".to_string(),
        "/query?vendor=intel&unique=1".to_string(),
        "/query?vendor=amd&limit=3".to_string(),
        "/query?annotated=1&min-triggers=2&limit=5".to_string(),
        format!("/query?trigger={}", Trigger::ALL[0]),
        format!("/query?effect={}&unique=1", Effect::ALL[1]),
        "/query?vendor=intel&vendor=intel&limit=3".to_string(),
    ]
}

/// Malformed parameters, one per request, and a single-valued parameter
/// given two different values.
const REFUSED: [&str; 7] = [
    "after=soon",
    "min-triggers=x",
    "vendor=via",
    "trigger=Trg_FAKE_xyz",
    "workaround=magic",
    "fix=maybe",
    "vendor=intel&vendor=amd",
];

fn snapshot(dir: &Path) -> PathBuf {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.1));
    let mut db = Database::from_documents(&corpus.structured);
    classify_database(
        &mut db,
        &Rules::standard(),
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
    );
    std::fs::create_dir_all(dir).expect("fixture dir");
    let path = dir.join("parity.jsonl");
    let mut bytes = Vec::new();
    rememberr::save(&db, &mut bytes).expect("snapshot serializes");
    std::fs::write(&path, bytes).expect("snapshot writes");
    path
}

/// One `GET` over a fresh connection: (status, body).
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: parity\r\nConnection: close\r\n\r\n"
    )
    .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

/// `rememberr-cli query` with the target's parameters as options: a flag
/// parameter set to `1` becomes a bare `--name`.
fn cli_query(db: &Path, raw_params: &str) -> Output {
    let mut args = vec![
        "query".to_string(),
        "--db".to_string(),
        db.display().to_string(),
    ];
    for (name, value) in parse_query_string(raw_params).expect("valid query string") {
        args.push(format!("--{name}"));
        if Query::param_is_flag(&name) != Some(true) {
            args.push(value);
        }
    }
    Command::new(env!("CARGO_BIN_EXE_rememberr-cli"))
        .args(&args)
        .output()
        .expect("binary runs")
}

#[test]
fn cli_query_prints_the_served_body_and_refuses_what_the_server_refuses() {
    let dir = std::env::temp_dir().join(format!("rememberr-parity-{}", std::process::id()));
    let db = snapshot(&dir);
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(config, db.clone()).expect("server starts");
    let addr = server.local_addr();

    for target in targets() {
        let (status, body) = get(addr, &target);
        assert_eq!(status, 200, "{target}: {body}");
        let raw = target.split_once('?').map_or("", |(_, q)| q);
        let out = cli_query(&db, raw);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{target}: {stderr}");
        assert_eq!(
            String::from_utf8(out.stdout).expect("UTF-8 stdout"),
            format!("{body}\n"),
            "{target}"
        );
    }

    for raw in REFUSED {
        let (status, body) = get(addr, &format!("/query?{raw}"));
        assert_eq!(status, 400, "/query?{raw}: {body}");
        assert_eq!(get(addr, &format!("/count?{raw}")), (400, body.clone()));
        let out = cli_query(&db, raw);
        assert!(!out.status.success(), "query {raw} succeeded");
        assert!(out.stdout.is_empty(), "query {raw} printed a body");
        let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
        let message = stderr
            .strip_prefix("error: ")
            .unwrap_or_else(|| panic!("{raw}: {stderr}"));
        let name = raw.split_once('=').map_or(raw, |(name, _)| name);
        assert_eq!(
            message.replace(&format!("--{name}"), name),
            body,
            "{raw}: the CLI and the server word the refusal differently"
        );
    }

    server.stop_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}
