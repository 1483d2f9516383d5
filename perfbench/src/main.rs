//! `perfbench`: one end-to-end benchmark over the whole RemembERR path,
//! rendered errata text → extract → dedup → classify → analyze → binary
//! snapshot save/load → queries served over loopback HTTP.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--jobs N]
//! ```
//!
//! Workloads (see `README.md` for why each exists):
//!
//! * `ingest_paper` — the paper-calibrated corpus, as rendered page
//!   streams, through the full ingest path, repeated for `S` seconds;
//! * `serve_mix` — a closed loop of one keep-alive connection cycling a
//!   fixed query battery against an `nproc`-worker server;
//! * `serve_reload` — the same battery as an open loop at a fixed rate,
//!   with `POST /reload` at a fixed interval on one connection.
//!
//! `--trace 0` prints the end-to-end metrics, measured with obs off (the
//! serve workloads keep obs counters on, as the daemon does) and scaled to
//! a nominal host pace (see `pace`); `--trace 1`
//! prints the per-layer metrics of a traced run. The last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; the
//! line before it is the host fingerprint the numbers belong to.

mod battery;
mod http;
mod ingest;
mod metrics;
mod pace;
mod serve;
mod stats;

use std::num::NonZeroUsize;
use std::process::ExitCode;

use metrics::Metrics;

/// The seed `CorpusSpec::paper()` uses, when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x5EED_2022;

/// The benchmark's workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rendered text through the full ingest path.
    IngestPaper,
    /// Closed-loop query battery against the server.
    ServeMix,
    /// Open-loop query battery beside periodic hot reloads.
    ServeReload,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest_paper" => Some(Workload::IngestPaper),
            "serve_mix" => Some(Workload::ServeMix),
            "serve_reload" => Some(Workload::ServeReload),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestPaper => "ingest_paper",
            Workload::ServeMix => "serve_mix",
            Workload::ServeReload => "serve_reload",
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The benchmark seed; every input derives from it.
    pub seed: u64,
    /// The seeds of the corpora generated from `seed`.
    pub corpus_seeds: Vec<u64>,
    /// Length of the measured window, in seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Operations attempted and failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (ingests, requests, in-process queries).
    pub attempted: u64,
    /// Operations that failed a check: a non-200 response, a body that
    /// differs from the in-process rendering, or an ingest mismatch.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed when `problem` is `Some`.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            // Report the first few failures; the count says the rest.
            if self.failed < 5 {
                eprintln!("perfbench: failed: {problem}");
            }
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a workload run reports: its tally, and the metrics of its mode.
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Metrics,
}

impl Outcome {
    /// An outcome with no operations yet, for the metrics of `config`'s mode.
    pub fn new(config: &RunConfig) -> Outcome {
        Outcome {
            tally: Tally::default(),
            metrics: if config.trace {
                Metrics::per_layer()
            } else {
                Metrics::end_to_end()
            },
        }
    }

    /// Counts one operation, failed when `problem` is `Some`.
    pub fn record(&mut self, problem: Option<String>) {
        self.tally.record(problem);
    }

    /// Sets the metrics every end-to-end run reports last: peak memory
    /// and the share of operations that passed.
    pub fn finish(&mut self) {
        if !self.metrics.has("peak_rss_mb") {
            return;
        }
        let (attempted, failed) = (self.tally.attempted, self.tally.failed);
        self.metrics.set("peak_rss_mb", stats::peak_rss_mb());
        self.metrics
            .set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    }
}

fn usage() -> String {
    "usage: perfbench --workload ingest_paper|serve_mix|serve_reload --seed N \
     --seconds S --trace 0|1 [--jobs N]"
        .to_string()
}

fn parse_args() -> Result<(Workload, RunConfig, Option<NonZeroUsize>), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: DEFAULT_SEED,
        corpus_seeds: Vec::new(),
        seconds: 10,
        trace: false,
    };
    let mut jobs = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("invalid {flag} value {value:?}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| bad())?;
                if config.seconds == 0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--jobs" => jobs = Some(value.parse::<NonZeroUsize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown option {flag:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    config.corpus_seeds = ingest::corpus_seeds(config.seed)?;
    Ok((workload, config, jobs))
}

/// First line of a command's stdout, or `"unknown"` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint: wall-clock figures compare only within one.
fn fingerprint(workload: Workload, config: &RunConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":{},\"seed\":{},\"corpus_seeds\":{:?},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"jobs\":{},\"profile\":\"{profile}\",\"rustc\":{},\"commit\":{},\
         \"serve_reload_rate\":{},\"pace_nominal_ms\":{}}}",
        stats::json_string(workload.name()),
        config.seed,
        config.corpus_seeds,
        config.seconds,
        u8::from(config.trace),
        rememberr_par::jobs(),
        stats::json_string(&command_line("rustc", &["-V"])),
        stats::json_string(&command_line("git", &["rev-parse", "HEAD"])),
        serve::RELOAD_RATE,
        pace::NOMINAL_MS,
    )
}

fn main() -> ExitCode {
    let (workload, config, jobs) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    rememberr_par::set_jobs(jobs);
    let outcome = match workload {
        Workload::IngestPaper => ingest::run(&config),
        Workload::ServeMix | Workload::ServeReload => serve::run(workload, &config),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    println!("host {}", fingerprint(workload, &config));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.tally.failed == 0 && outcome.tally.attempted > 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.metrics.to_json(),
    );
    ExitCode::SUCCESS
}
