//! End-to-end tests of the installed binary: argument rejection, the
//! generate/extract round trip, and the observability surface
//! (`--metrics-out`, `--trace`, `--trace-out`, `stats`, `profile`).

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rememberr-cli"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rememberr-obs-{}-{name}", std::process::id()))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_flag_prints_usage_and_fails() {
    let out = run(&["query", "--frobnicate", "9"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown option --frobnicate"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn missing_subcommand_prints_usage_and_fails() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn pipeline_roundtrip_with_metrics_and_trace() {
    let dir = tmp("corpus");
    let db = tmp("db.jsonl");
    let db2 = tmp("db2.jsonl");
    let m_extract = tmp("extract-metrics.json");
    let m_extract2 = tmp("extract-metrics-2.json");
    let m_classify = tmp("classify-metrics.json");

    // Generate a small corpus.
    let out = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--scale",
        "0.05",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote 28 documents"));

    // Extract with metrics and trace enabled.
    let out = run(&[
        "extract",
        "--docs",
        dir.to_str().unwrap(),
        "--out",
        db.to_str().unwrap(),
        "--metrics-out",
        m_extract.to_str().unwrap(),
        "--trace",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("unique bugs"));
    // The span tree went to stderr.
    let trace = stderr(&out);
    assert!(trace.contains("cli.run [extract]"), "{trace}");
    assert!(trace.contains("extract.document"), "{trace}");
    assert!(trace.contains("dedup.assign_keys"), "{trace}");

    // The snapshot is valid JSON that serde_json re-parses, with the
    // documented counters present.
    let text = fs::read_to_string(&m_extract).unwrap();
    let snap: rememberr_obs::Snapshot = serde_json::from_str(&text).expect("valid snapshot");
    for counter in [
        "extract.pages_scanned",
        "extract.defect_double_added",
        "extract.defect_unmentioned",
        "extract.defect_name_collisions",
        "extract.defect_missing_fields",
        "extract.defect_duplicate_fields",
        "extract.defect_inconsistent_msrs",
        "extract.defect_intra_doc_duplicates",
        "extract.defect_status_summary_mismatches",
        "dedup.comparisons_made",
        "dedup.entries_keyed",
        "persist.records_written",
        "persist.bytes_written",
    ] {
        assert!(snap.counters.contains_key(counter), "missing {counter}");
    }
    assert!(snap.counters["extract.pages_scanned"] > 0);
    assert!(snap.counters["dedup.entries_keyed"] > 0);

    // A second identically seeded run produces a byte-identical counter
    // section (durations are wall clock and may differ).
    let out = run(&[
        "extract",
        "--docs",
        dir.to_str().unwrap(),
        "--out",
        db.to_str().unwrap(),
        "--metrics-out",
        m_extract2.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text2 = fs::read_to_string(&m_extract2).unwrap();
    let snap2: rememberr_obs::Snapshot = serde_json::from_str(&text2).unwrap();
    assert_eq!(snap.counters_json(), snap2.counters_json());

    // Classify with metrics: the relevance-filter reduction is counted.
    let out = run(&[
        "classify",
        "--db",
        db.to_str().unwrap(),
        "--out",
        db2.to_str().unwrap(),
        "--truth",
        dir.join("truth.json").to_str().unwrap(),
        "--metrics-out",
        m_classify.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let snap: rememberr_obs::Snapshot =
        serde_json::from_str(&fs::read_to_string(&m_classify).unwrap()).unwrap();
    for counter in [
        "classify.raw_decisions",
        "classify.relevance_eliminations",
        "classify.human_decisions",
        "classify.four_eyes_steps",
        "classify.pattern_evals",
        "classify.patterns_pruned",
    ] {
        assert!(snap.counters.contains_key(counter), "missing {counter}");
    }
    let raw = snap.counters["classify.raw_decisions"];
    let auto = snap.counters["classify.relevance_eliminations"];
    let human = snap.counters["classify.human_decisions"];
    assert_eq!(auto + human, raw);
    assert!(auto > human, "filter should eliminate most decisions");
    // The indexed matcher (the default) prunes most of the rule library.
    assert!(
        snap.counters["classify.patterns_pruned"] > snap.counters["classify.pattern_evals"],
        "expected pruning to dominate: {:?}",
        snap.counters
    );

    // `stats` renders a snapshot file as text.
    let out = run(&["stats", "--metrics", m_classify.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("counters (deterministic):"), "{text}");
    assert!(text.contains("classify.relevance_eliminations"), "{text}");
    assert!(text.contains("durations (wall clock):"), "{text}");

    let _ = fs::remove_dir_all(&dir);
    for f in [&db, &db2, &m_extract, &m_extract2, &m_classify] {
        let _ = fs::remove_file(f);
    }
}

#[test]
fn jobs_rejects_zero_and_non_numeric() {
    for bad in ["0", "many", "-2", "1.5"] {
        let out = run(&["extract", "--docs", "x", "--out", "y", "--jobs", bad]);
        assert!(!out.status.success(), "--jobs {bad} was accepted");
        let err = stderr(&out);
        assert!(err.contains("invalid value for --jobs"), "{err}");
    }
}

#[test]
fn unbuildable_corpora_fail_with_one_line_and_no_panic() {
    let dir = tmp("unbuildable-corpus");
    let dir = dir.to_str().unwrap();
    for (args, expect) in [
        (
            vec!["generate", "--out", dir, "--seed", "3"],
            "unique title",
        ),
        (vec!["profile", "--seed", "3"], "unique title"),
        (vec!["generate", "--out", dir, "--scale", "0"], "--scale"),
        (vec!["generate", "--out", dir, "--scale", "-1"], "--scale"),
        (vec!["profile", "--scale", "1.5"], "--scale"),
    ] {
        let out = run(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains(expect),
            "{args:?}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    }
    assert!(!std::path::Path::new(dir).exists(), "nothing was written");
}

#[test]
fn jobs_runs_are_byte_identical() {
    let dir = tmp("jobs-corpus");
    let out = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--scale",
        "0.08",
        "--seed",
        "11",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // The same seeded corpus, extracted at three worker counts with full
    // profiling enabled (`--trace-out` turns the span collector on):
    // database bytes and metric counter sections must be identical
    // (durations, spans, and worker telemetry are wall clock and may
    // differ).
    let mut baseline: Option<(Vec<u8>, String)> = None;
    for jobs in ["1", "2", "8"] {
        let db = tmp(&format!("jobs{jobs}-db.jsonl"));
        let metrics = tmp(&format!("jobs{jobs}-metrics.json"));
        let trace = tmp(&format!("jobs{jobs}-trace.json"));
        let out = run(&[
            "extract",
            "--docs",
            dir.to_str().unwrap(),
            "--out",
            db.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--jobs",
            jobs,
        ]);
        assert!(out.status.success(), "--jobs {jobs}: {}", stderr(&out));
        let db_bytes = fs::read(&db).unwrap();
        let snap: rememberr_obs::Snapshot =
            serde_json::from_str(&fs::read_to_string(&metrics).unwrap()).unwrap();
        let counters = snap.counters_json();
        match &baseline {
            None => baseline = Some((db_bytes, counters)),
            Some((want_db, want_counters)) => {
                assert_eq!(&db_bytes, want_db, "database differs at --jobs {jobs}");
                assert_eq!(&counters, want_counters, "counters differ at --jobs {jobs}");
            }
        }
        assert!(trace.exists(), "--jobs {jobs}: no trace written");
        let _ = fs::remove_file(&db);
        let _ = fs::remove_file(&metrics);
        let _ = fs::remove_file(&trace);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The `ph:"X"` complete events of a parsed Chrome trace, as
/// `(name, tid)` pairs.
fn complete_events(trace: &serde::Value) -> Vec<(String, u64)> {
    trace
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some("X"))
        .map(|e| {
            let name = e.get("name").and_then(serde::Value::as_str).unwrap();
            let tid: u64 = serde::Deserialize::from_value(e.get("tid").unwrap()).unwrap();
            (name.to_string(), tid)
        })
        .collect()
}

#[test]
fn trace_out_writes_a_chrome_trace_with_bounded_worker_lanes() {
    let dir = tmp("trace-corpus");
    let db = tmp("trace-db.jsonl");
    let trace_path = tmp("trace.json");
    let out = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--scale",
        "0.05",
        "--seed",
        "17",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = run(&[
        "extract",
        "--docs",
        dir.to_str().unwrap(),
        "--out",
        db.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--jobs",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // The file is JSON our serde round-trips, in Chrome trace-event shape.
    let text = fs::read_to_string(&trace_path).unwrap();
    let trace: serde::Value = serde_json::from_str(&text).expect("trace parses");
    let events = complete_events(&trace);
    let names: Vec<&str> = events.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"cli.run"), "{names:?}");
    assert!(names.contains(&"extract.document"), "{names:?}");
    assert!(names.contains(&"dedup.assign_keys"), "{names:?}");

    // One lane per worker: the par.worker events occupy at most --jobs
    // distinct tids, none of them the main lane (tid 0).
    let worker_tids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|(n, _)| n == "par.worker")
        .map(|&(_, tid)| tid)
        .collect();
    assert!(!worker_tids.is_empty(), "no worker spans in {names:?}");
    assert!(worker_tids.len() <= 2, "{worker_tids:?}");
    assert!(!worker_tids.contains(&0), "{worker_tids:?}");

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_file(&db);
    let _ = fs::remove_file(&trace_path);
}

#[test]
fn bad_output_paths_fail_before_any_work() {
    // A directory target and a missing parent directory are both rejected
    // up front; nothing else is written (no corpus --out dir appears).
    let dir = tmp("validate-dir");
    fs::create_dir_all(&dir).unwrap();
    let never = tmp("never-created");
    for flag in ["--metrics-out", "--trace-out"] {
        let out = run(&[
            "generate",
            "--out",
            never.to_str().unwrap(),
            "--scale",
            "0.02",
            flag,
            dir.to_str().unwrap(),
        ]);
        assert!(!out.status.success(), "{flag} accepted a directory");
        let err = stderr(&out);
        assert!(err.contains("is a directory"), "{flag}: {err}");

        let orphan = dir.join("no-such-subdir").join("out.json");
        let out = run(&[
            "generate",
            "--out",
            never.to_str().unwrap(),
            "--scale",
            "0.02",
            flag,
            orphan.to_str().unwrap(),
        ]);
        assert!(!out.status.success(), "{flag} accepted a missing parent");
        let err = stderr(&out);
        assert!(err.contains("does not exist"), "{flag}: {err}");
    }
    assert!(!never.exists(), "command ran despite invalid output path");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn profile_prints_stage_table_and_worker_utilization() {
    let trace_path = tmp("profile-trace.json");
    let out = run(&[
        "profile",
        "--scale",
        "0.05",
        "--seed",
        "23",
        "--jobs",
        "2",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // The self/child-time table header and the pipeline stages.
    assert!(text.contains("self ms"), "{text}");
    assert!(text.contains("child ms"), "{text}");
    assert!(text.contains("total ms"), "{text}");
    assert!(text.contains("extract.document"), "{text}");
    assert!(text.contains("dedup.assign_keys"), "{text}");
    assert!(text.contains("classify.database"), "{text}");
    assert!(text.contains("analysis.full_report"), "{text}");
    // The shared-arena counters of the single-pass run.
    assert!(text.contains("corpus analysis (deterministic):"), "{text}");
    assert!(text.contains("corpus.docs_analyzed"), "{text}");
    assert!(text.contains("textkit.tokenize_calls"), "{text}");
    // Worker utilization plus the imbalance ratio.
    assert!(text.contains("workers (wall clock):"), "{text}");
    assert!(text.contains("w00"), "{text}");
    assert!(text.contains("imbalance ratio"), "{text}");
    // The same run also exported its trace, with the stage spans in it.
    let trace: serde::Value =
        serde_json::from_str(&fs::read_to_string(&trace_path).unwrap()).unwrap();
    let events = complete_events(&trace);
    assert!(events.iter().any(|(n, _)| n == "extract.corpus"));
    let _ = fs::remove_file(&trace_path);
}

#[test]
fn classify_jobs_are_byte_identical() {
    let dir = tmp("cm-corpus");
    let db = tmp("cm-db.jsonl");
    let out = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--scale",
        "0.08",
        "--seed",
        "13",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&[
        "extract",
        "--docs",
        dir.to_str().unwrap(),
        "--out",
        db.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Classified database bytes and counter sections must be identical at
    // every worker count.
    let truth = dir.join("truth.json");
    let mut first: Option<(Vec<u8>, String)> = None;
    for jobs in ["1", "8"] {
        let db2 = tmp(&format!("cm-{jobs}-db.jsonl"));
        let metrics = tmp(&format!("cm-{jobs}-metrics.json"));
        let out = run(&[
            "classify",
            "--db",
            db.to_str().unwrap(),
            "--out",
            db2.to_str().unwrap(),
            "--truth",
            truth.to_str().unwrap(),
            "--jobs",
            jobs,
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "--jobs {jobs}: {}", stderr(&out));
        let bytes = fs::read(&db2).unwrap();
        let snap: rememberr_obs::Snapshot =
            serde_json::from_str(&fs::read_to_string(&metrics).unwrap()).unwrap();
        let counters = snap.counters_json();
        match &first {
            None => first = Some((bytes, counters)),
            Some((want_bytes, want_counters)) => {
                assert_eq!(&bytes, want_bytes, "database differs at --jobs {jobs}");
                assert_eq!(&counters, want_counters, "counters differ at --jobs {jobs}");
            }
        }
        let _ = fs::remove_file(&db2);
        let _ = fs::remove_file(&metrics);
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_file(&db);
}

#[test]
fn metrics_disabled_runs_emit_nothing() {
    // Without --trace/--metrics-out the run must not print a trace.
    let out = run(&["help"]);
    assert!(out.status.success());
    assert!(stderr(&out).is_empty());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn snapshot_format_binary_roundtrips_through_the_cli() {
    let dir = tmp("binfmt-corpus");
    let db_jsonl = tmp("binfmt-db.jsonl");
    let db_bin = tmp("binfmt-db.bin");
    let db_bin2 = tmp("binfmt-db2.bin");
    let reexport = tmp("binfmt-reexport.jsonl");

    let out = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--scale",
        "0.05",
        "--seed",
        "11",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Extract the same corpus in both formats; the binary file must carry
    // the magic, be smaller, and yield the same pipeline summary.
    let out_jsonl = run(&[
        "extract",
        "--docs",
        dir.to_str().unwrap(),
        "--out",
        db_jsonl.to_str().unwrap(),
        "--snapshot-format",
        "jsonl",
    ]);
    assert!(out_jsonl.status.success(), "{}", stderr(&out_jsonl));
    let out_bin = run(&[
        "extract",
        "--docs",
        dir.to_str().unwrap(),
        "--out",
        db_bin.to_str().unwrap(),
        "--snapshot-format",
        "binary",
    ]);
    assert!(out_bin.status.success(), "{}", stderr(&out_bin));
    // Same pipeline summary either way (only the saved path differs).
    let summary = |out: &Output| stdout(out).split("; saved").next().unwrap().to_string();
    assert_eq!(summary(&out_jsonl), summary(&out_bin));
    assert!(stdout(&out_jsonl).contains("unique bugs"));

    let jsonl_bytes = fs::read(&db_jsonl).unwrap();
    let bin_bytes = fs::read(&db_bin).unwrap();
    assert!(bin_bytes.starts_with(b"RMBR"), "binary magic missing");
    assert!(bin_bytes.len() < jsonl_bytes.len());

    // `stats --db` sniffs the format from the file, not the flag.
    let out = run(&["stats", "--db", db_bin.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("snapshot: binary format"), "{text}");
    assert!(text.contains("bytes"), "{text}");
    let out = run(&["stats", "--db", db_jsonl.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("snapshot: jsonl format"));

    // Classification reads the binary snapshot transparently, and the
    // JSONL it writes matches a classify run fed from the JSONL twin.
    let out = run(&[
        "classify",
        "--db",
        db_bin.to_str().unwrap(),
        "--out",
        reexport.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let via_binary = fs::read(&reexport).unwrap();
    let out = run(&[
        "classify",
        "--db",
        db_jsonl.to_str().unwrap(),
        "--out",
        reexport.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let via_jsonl = fs::read(&reexport).unwrap();
    assert_eq!(via_binary, via_jsonl);

    // Binary bytes are worker-count invariant through the CLI too.
    let out = run(&[
        "extract",
        "--docs",
        dir.to_str().unwrap(),
        "--out",
        db_bin2.to_str().unwrap(),
        "--snapshot-format",
        "binary",
        "--jobs",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(fs::read(&db_bin2).unwrap(), bin_bytes);

    for path in [&db_jsonl, &db_bin, &db_bin2, &reexport] {
        let _ = fs::remove_file(path);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_format_rejects_unknown_values() {
    let out = run(&[
        "extract",
        "--docs",
        "unused",
        "--out",
        "unused",
        "--snapshot-format",
        "msgpack",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("invalid value for --snapshot-format"), "{err}");
}

#[test]
fn serve_smoke_over_the_binary() {
    use std::io::{BufRead, BufReader, Read, Write};

    // Build a tiny snapshot.
    let dir = tmp("serve-corpus");
    let db = tmp("serve-db.jsonl");
    let out = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--scale",
        "0.05",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&[
        "extract",
        "--docs",
        dir.to_str().unwrap(),
        "--out",
        db.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Start the daemon on an ephemeral port; the startup line names it.
    let mut child = bin()
        .args([
            "serve",
            "--db",
            db.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut child_out = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut startup = String::new();
    child_out.read_line(&mut startup).expect("startup line");
    assert!(
        startup.contains("serving on http://127.0.0.1:"),
        "{startup}"
    );
    assert!(startup.contains("2 workers"), "{startup}");
    let addr = startup
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address in startup line")
        .to_string();

    let request = |method: &str, target: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        write!(
            stream,
            "{method} {target} HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n"
        )
        .expect("request writes");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("response reads");
        String::from_utf8(raw).expect("UTF-8 response")
    };
    assert!(request("GET", "/healthz").ends_with("ok\n"));
    let query = request("GET", "/query?vendor=intel&limit=2");
    assert!(query.contains("200 OK"), "{query}");
    assert!(query.contains("matching errata"), "{query}");
    let shutdown = request("POST", "/shutdown");
    assert!(shutdown.contains("shutting down"), "{shutdown}");

    // The daemon drains, prints its summary, and exits zero.
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "{status:?}");
    let mut rest = String::new();
    child_out.read_to_string(&mut rest).expect("summary reads");
    assert!(rest.contains("served"), "{rest}");
    assert!(rest.contains("generation 1 at exit"), "{rest}");

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_file(&db);
}
