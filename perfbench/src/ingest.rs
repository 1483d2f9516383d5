//! The `ingest_paper` workload, and the ingest path the serve workloads
//! build their snapshot with: rendered page streams → `extract_corpus` →
//! `Database::from_documents_analyzed` → `classify_database_analyzed` →
//! `assist_highlights_analyzed` + `FullReport::build` → `save_as(Binary)`
//! → `load`, at the default `--jobs`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rememberr::{load, save, save_as, Database, SnapshotFormat};
use rememberr_analysis::{assist_highlights_analyzed, FullReport};
use rememberr_classify::{classify_database_analyzed, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::extract_corpus;
use rememberr_obs::Snapshot;

use crate::battery::Battery;
use crate::pace::Pacer;
use crate::stats::{fnv1a, median, ms, quantile};
use crate::{Outcome, RunConfig};

/// In-process battery passes after each ingest: the query metrics of
/// `ingest_paper`, and a check that the reloaded snapshot answers like
/// the built database.
const QUERY_PASSES: usize = 500;

/// Reloads of the snapshot (load and index build) after each ingest.
const RELOADS: usize = 10;

/// Times each corpus is generated in set-up.
const GENERATIONS: usize = 4;

/// The paper-calibrated corpus for `seed`.
pub fn generate(seed: u64) -> SyntheticCorpus {
    let mut spec = CorpusSpec::paper();
    spec.seed = seed;
    SyntheticCorpus::generate(&spec)
}

/// Corpora each run generates, and set-ups it times. Spreading a run over
/// several corpora keeps one corpus's quirks from setting its numbers.
pub const CORPORA: usize = 7;

/// The corpus seeds for benchmark seed `seed`: the first `CORPORA` seeds
/// of a sequence derived from it that docgen can build a corpus from (it
/// panics on some). The same `seed` always yields the same corpora.
pub fn corpus_seeds(seed: u64) -> Result<Vec<u64>, String> {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let seeds: Vec<u64> = (0..4 * CORPORA as u64)
        .map(|k| seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .filter(|&candidate| std::panic::catch_unwind(|| generate(candidate)).is_ok())
        .take(CORPORA)
        .collect();
    std::panic::set_hook(quiet);
    if seeds.len() < CORPORA {
        return Err(format!("too few corpora can be generated from seed {seed}"));
    }
    Ok(seeds)
}

/// Wall time of each layer of one ingest, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerMs {
    extract: f64,
    dedup: f64,
    classify: f64,
    analysis: f64,
    save: f64,
    load: f64,
}

/// One ingest's products and timings.
pub struct Ingested {
    /// The database as built.
    pub db: Database,
    /// The database loaded back from `snapshot`.
    pub reloaded: Database,
    /// The binary snapshot.
    pub snapshot: Vec<u8>,
    ms: LayerMs,
    /// Wall time from rendered text to the reloaded snapshot.
    pub seconds: f64,
}

/// Runs the ingest path once over `corpus`.
pub fn ingest(corpus: &SyntheticCorpus) -> Result<Ingested, String> {
    let start = Instant::now();
    let mut lap = start;
    let mut split = || {
        let now = Instant::now();
        let elapsed = ms(now - lap);
        lap = now;
        elapsed
    };
    let (documents, defects) =
        extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
            .map_err(|e| format!("extraction failed: {e}"))?;
    let extract = split();
    let (mut db, arena) =
        Database::from_documents_analyzed(&documents, Default::default(), Default::default());
    let dedup = split();
    let rules = Rules::standard();
    let run = classify_database_analyzed(
        &mut db,
        &rules,
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
        Default::default(),
        &arena,
    );
    let classify = split();
    black_box(assist_highlights_analyzed(&db, &rules, &arena));
    black_box(FullReport::build(
        &db,
        run.four_eyes.as_ref(),
        Some(defects),
    ));
    let analysis = split();
    let mut snapshot = Vec::new();
    save_as(&db, &mut snapshot, SnapshotFormat::Binary)
        .map_err(|e| format!("snapshot save failed: {e}"))?;
    let save = split();
    let reloaded = load(snapshot.as_slice()).map_err(|e| format!("snapshot load failed: {e}"))?;
    let load = split();
    Ok(Ingested {
        db,
        reloaded,
        snapshot,
        ms: LayerMs {
            extract,
            dedup,
            classify,
            analysis,
            save,
            load,
        },
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Digests of what every repeat of an ingest must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// FNV-1a of the database's JSONL export.
    pub jsonl: u64,
    /// FNV-1a of the binary snapshot.
    pub snapshot: u64,
}

/// Checks one ingest against the corpus's own ground truth, and returns
/// the digests its repeats must match.
pub fn check(corpus: &SyntheticCorpus, ingested: &Ingested) -> Result<Digests, String> {
    if ingested.reloaded != ingested.db {
        return Err("reloaded snapshot differs from the built database".to_string());
    }
    if ingested.db.len() != corpus.truth.grand_total() {
        return Err(format!(
            "{} entries, ground truth lists {}",
            ingested.db.len(),
            corpus.truth.grand_total()
        ));
    }
    if ingested.db.unique_count() != corpus.truth.bugs.len() {
        return Err(format!(
            "{} unique errata, ground truth has {}",
            ingested.db.unique_count(),
            corpus.truth.bugs.len()
        ));
    }
    let mut jsonl = Vec::new();
    save(&ingested.reloaded, &mut jsonl).map_err(|e| format!("JSONL export failed: {e}"))?;
    Ok(Digests {
        jsonl: fnv1a(&jsonl),
        snapshot: fnv1a(&ingested.snapshot),
    })
}

/// Compares a repeat's `this` with the first one seen.
pub fn same_as_first<T: PartialEq>(first: &mut Option<T>, this: T, what: &str) -> Option<String> {
    match first {
        None => {
            *first = Some(this);
            None
        }
        Some(first) if *first == this => None,
        Some(_) => Some(format!("{what} changed between ingests of one corpus")),
    }
}

/// Generates each corpus of `seeds` `GENERATIONS` times; returns the
/// corpora and each generation's time in seconds, at nominal pace.
fn setup(seeds: &[u64]) -> (Vec<SyntheticCorpus>, Vec<f64>) {
    let mut times = Vec::new();
    let mut pacer = Pacer::start();
    let corpora = seeds
        .iter()
        .map(|&seed| {
            let mut corpus = None;
            let mut wall = Vec::with_capacity(GENERATIONS);
            for _ in 0..GENERATIONS {
                drop(corpus.take());
                let start = Instant::now();
                corpus = Some(generate(seed));
                wall.push(start.elapsed().as_secs_f64());
            }
            let scale = pacer.lap();
            times.extend(wall.iter().map(|s| s * scale));
            corpus.expect("at least one generation")
        })
        .collect();
    (corpora, times)
}

/// What the rounds of one run measured; the per-round fields hold one
/// value per round. Untraced runs hold times and rates at nominal pace,
/// traced runs as measured.
#[derive(Default)]
struct Rounds {
    traced: Vec<(f64, LayerMs)>,
    untraced_s: Vec<f64>,
    /// Per round: the median reload.
    reload_ms: Vec<f64>,
    build_index_ms: Vec<f64>,
    /// Per round, over the battery's targets, each timed as its median
    /// in-process run: the median and slowest target, and the rate.
    query_p50_us: Vec<f64>,
    query_p99_us: Vec<f64>,
    query_rps: Vec<f64>,
    query_execute_us: Vec<f64>,
    /// Obs snapshots of the first corpus's first traced ingest and of the
    /// battery passes after it.
    ingest_snap: Option<Snapshot>,
    query_snap: Option<(Snapshot, usize)>,
    entries: usize,
    snapshot_bytes: usize,
}

/// Reloads `ingested`'s snapshot `RELOADS` times, as the daemon's reload
/// does: decode, then build the query index. Returns the median reload,
/// in ms.
fn reloads(ingested: &Ingested, rounds: &mut Rounds, outcome: &mut Outcome) -> f64 {
    let mut times = Vec::with_capacity(RELOADS);
    for _ in 0..RELOADS {
        let start = Instant::now();
        let loaded = load(ingested.snapshot.as_slice());
        let decoded = start.elapsed();
        let problem = match loaded {
            Ok(db) => {
                black_box(db.query_index());
                let total = start.elapsed();
                rounds.build_index_ms.push(ms(total - decoded));
                times.push(ms(total));
                (db != ingested.db).then(|| "reload differs from the built database".to_string())
            }
            Err(e) => Some(format!("reload failed: {e}")),
        };
        outcome.record(problem);
    }
    median(&times)
}

/// The `ingest_paper` workload: round `r` ingests corpus `r % CORPORA`.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(config);
    let (corpora, setup_s) = setup(&config.corpus_seeds);
    let battery = Battery::new()?;
    rememberr_obs::reset();

    let window = Duration::from_secs(config.seconds);
    // A traced run alternates traced and untraced ingests: the untraced
    // ones are the base of `obs.overhead_frac`.
    let min_rounds = if config.trace { 2 } else { 1 };
    let mut first_digests = vec![None; corpora.len()];
    let mut first_counters = vec![None; corpora.len()];
    let mut rounds = Rounds::default();
    // Untraced runs scale each stretch by the pace readings around it:
    // one ingest, then its reloads and battery. Traced runs report times
    // as measured.
    let mut pacer = (!config.trace).then(Pacer::start);
    let mut lap = || pacer.as_mut().map_or(1.0, Pacer::lap);
    let mut measured_s = Vec::new();
    let start = Instant::now();
    for round in 0.. {
        if round >= min_rounds && start.elapsed() >= window {
            break;
        }
        let c = round % corpora.len();
        let corpus = &corpora[c];
        let traced = config.trace && round % 2 == 0;
        if traced {
            rememberr_obs::reset();
            rememberr_obs::enable();
        }
        let result = ingest(corpus);
        let ingest_snap = traced.then(rememberr_obs::snapshot);
        rememberr_obs::disable();
        let ingest_scale = lap();
        let ingested = match result {
            Ok(ingested) => ingested,
            Err(problem) => {
                outcome.record(Some(problem));
                continue;
            }
        };
        let mut problem = match check(corpus, &ingested) {
            Ok(digests) => same_as_first(&mut first_digests[c], digests, "output"),
            Err(problem) => Some(problem),
        };
        if let Some(snap) = &ingest_snap {
            let counters = snap.counters.clone();
            problem = problem.or(same_as_first(
                &mut first_counters[c],
                counters,
                "obs counters",
            ));
        }
        outcome.record(problem);
        if traced {
            rounds.traced.push((ingested.seconds, ingested.ms));
        } else {
            measured_s.push(ingested.seconds);
            rounds.untraced_s.push(ingested.seconds * ingest_scale);
        }
        let reload_ms = reloads(&ingested, &mut rounds, &mut outcome);

        let expected = battery.expected(&ingested.db);
        if traced {
            rememberr_obs::reset();
            rememberr_obs::enable();
        }
        let run = battery.run_inprocess(
            &ingested.reloaded,
            &expected,
            QUERY_PASSES,
            &mut outcome.tally,
        );
        let scale = lap();
        rounds.reload_ms.push(reload_ms * scale);
        rounds
            .query_p50_us
            .push(median(&run.medians_ns) / 1e3 * scale);
        rounds
            .query_p99_us
            .push(quantile(&run.medians_ns, 0.99) / 1e3 * scale);
        rounds.query_rps.push(run.rps / scale);
        if traced {
            let snap = rememberr_obs::snapshot();
            rememberr_obs::disable();
            if let Some(h) = snap.durations.get("query.execute") {
                rounds.query_execute_us.push(h.mean_ns() as f64 / 1e3);
            }
            // Effort counters come from the first corpus, so they are the
            // same on every run of one seed, however many rounds fit.
            if round == 0 {
                rounds.ingest_snap = ingest_snap;
                rounds.query_snap = Some((snap, run.queries));
                rounds.entries = ingested.db.len();
            }
        }
        if round == 0 {
            rounds.snapshot_bytes = ingested.snapshot.len();
        }
    }
    eprintln!(
        "perfbench: ingest_paper: {} ingests ({} traced) over {} corpora, {} in-process \
         queries each; output digest {:016x}",
        rounds.traced.len() + rounds.untraced_s.len(),
        rounds.traced.len(),
        corpora.len(),
        QUERY_PASSES * battery.len(),
        first_digests[0].map_or(0, |d| d.jsonl),
    );
    eprintln!(
        "perfbench: ingest seconds as measured, untraced {:.3?}, traced {:.3?}",
        measured_s,
        rounds.traced.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
    );
    if let Some(pacer) = &pacer {
        eprintln!("perfbench: pace readings, ms {:.1?}", pacer.readings);
    }
    let m = &mut outcome.metrics;
    if !config.trace {
        m.set("setup_s", median(&setup_s));
        m.set("ingest_s", median(&rounds.untraced_s));
        m.set("snapshot_bytes", rounds.snapshot_bytes as f64);
        m.set("query_rps", median(&rounds.query_rps));
        m.set("query_p50_us", median(&rounds.query_p50_us));
        m.set("query_p99_us", median(&rounds.query_p99_us));
        m.set("reload_ms", median(&rounds.reload_ms));
    } else {
        let layer = |f: fn(&LayerMs) -> f64| {
            median(&rounds.traced.iter().map(|(_, l)| f(l)).collect::<Vec<_>>())
        };
        m.set("extract.ms", layer(|l| l.extract));
        m.set("dedup.ms", layer(|l| l.dedup));
        m.set("classify.ms", layer(|l| l.classify));
        m.set("analysis.ms", layer(|l| l.analysis));
        m.set("persist.save_ms", layer(|l| l.save));
        m.set("persist.load_ms", layer(|l| l.load));
        m.set("query.build_index_ms", median(&rounds.build_index_ms));
        if let Some(snap) = &rounds.ingest_snap {
            m.set_from_obs(snap);
            let calls = snap.counters.get("textkit.tokenize_calls").copied();
            m.set(
                "textkit.tokenize_per_entry",
                calls.unwrap_or(0) as f64 / rounds.entries as f64,
            );
        }
        if let Some((snap, queries)) = &rounds.query_snap {
            m.set_per_query(snap, *queries);
        }
        m.set("query.execute_us", median(&rounds.query_execute_us));
        m.set("query.inproc_us", median(&rounds.query_p50_us));
        m.set(
            "setup.generate_ms",
            median(&setup_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        );
        let traced_s: Vec<f64> = rounds.traced.iter().map(|(s, _)| *s).collect();
        m.set(
            "obs.overhead_frac",
            median(&traced_s) / median(&rounds.untraced_s) - 1.0,
        );
    }
    outcome.finish();
    Ok(outcome)
}
