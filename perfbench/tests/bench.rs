//! The benchmark's own tests. Each runs the built `perfbench` binary in a
//! process of its own, so the process-global obs registry and job count
//! of one run cannot leak into another.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde::Value;

/// One run's output.
struct Run {
    correct: bool,
    failed: u64,
    /// Metric name → (value, unit), in print order.
    metrics: Vec<(String, f64, String)>,
    stderr: String,
}

impl Run {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} not printed"))
            .1
    }
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Number(serde::Number::PosInt(n)) => *n as f64,
        Value::Number(serde::Number::NegInt(n)) => *n as f64,
        Value::Number(serde::Number::Float(f)) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

fn perfbench(workload: &str, seed: u64, trace: bool, jobs: Option<usize>) -> Run {
    let mut command = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    command.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(jobs) = jobs {
        command.args(["--jobs", &jobs.to_string()]);
    }
    let output = command.output().expect("perfbench runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 stdout");
    let stderr = String::from_utf8(output.stderr).expect("UTF-8 stderr");
    assert!(output.status.success(), "{workload} failed:\n{stderr}");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the result line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, metric)| {
            let unit = metric.get("unit").and_then(Value::as_str).expect("a unit");
            (
                name.clone(),
                number(metric.get("value").expect("a value")),
                unit.to_string(),
            )
        })
        .collect();
    Run {
        correct: result.get("correct") == Some(&Value::Bool(true)),
        failed: number(result.get("failed").expect("failed")) as u64,
        metrics,
        stderr,
    }
}

/// The deterministic counters of a traced `ingest_paper` run.
fn counters(run: &Run) -> BTreeMap<String, f64> {
    run.metrics
        .iter()
        .filter(|(name, _, unit)| {
            matches!(unit.as_str(), "count" | "bytes" | "count/req")
                || name == "textkit.tokenize_per_entry"
        })
        .map(|(name, value, _)| (name.clone(), *value))
        .collect()
}

#[test]
fn traced_ingest_counters_repeat_across_runs_and_jobs() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first = perfbench("ingest_paper", 7, true, Some(1));
    assert!(first.correct, "{}", first.stderr);
    let reference = counters(&first);
    for name in [
        "textkit.tokenize_calls",
        "classify.pattern_evals",
        "persist.bytes_written",
        "extract.pages_scanned",
    ] {
        assert!(reference[name] > 0.0, "{name} counted nothing");
    }
    for jobs in [1, nproc, nproc] {
        let again = perfbench("ingest_paper", 7, true, Some(jobs));
        assert!(again.correct, "{}", again.stderr);
        assert_eq!(counters(&again), reference, "jobs {jobs}");
    }
}

fn output_digest(run: &Run) -> String {
    run.stderr
        .split("output digest ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("the ingest summary names the output digest")
        .to_string()
}

#[test]
fn a_second_seed_changes_the_corpus_and_still_passes() {
    let a = perfbench("ingest_paper", 11, false, None);
    let b = perfbench("ingest_paper", 12, false, None);
    for run in [&a, &b] {
        assert!(run.correct && run.failed == 0, "{}", run.stderr);
        assert_eq!(run.value("ok_frac"), 1.0);
    }
    assert_ne!(output_digest(&a), output_digest(&b));
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    // Medians over one-second slices need enough slices to be steady.
    assert!(number(benchmark.get("run_seconds").expect("run_seconds")) >= 10.0);
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["ingest_paper", "serve_mix", "serve_reload"]);
    for workload in &workloads {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = perfbench(workload, 3, trace, None);
            assert!(run.correct, "{workload} trace {trace}:\n{}", run.stderr);
            let printed: Vec<(String, String)> = run
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.clone(), unit.clone()))
                .collect();
            assert_eq!(printed, declared(&benchmark, list), "{workload} {list}");
            if !trace {
                for (name, value, _) in &run.metrics {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} reads {value}");
                }
            }
        }
    }
}
