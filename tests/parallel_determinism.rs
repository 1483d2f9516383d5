//! Worker-count invariance: the full pipeline (generate → extract → dedup →
//! classify → persist) produces byte-identical database JSON, identical
//! `DedupStats`, and byte-identical observability counter sections at
//! `jobs ∈ {1, 2, 8}` on an identically seeded corpus — with full span
//! profiling enabled, whose own output (span trees with every worker span
//! under its fan-out, Chrome trace) must stay well-formed without
//! perturbing the deterministic sections.
//!
//! This is the headline guarantee of the parallel execution layer: worker
//! count is a pure throughput knob, never a semantics knob.

use std::num::NonZeroUsize;

use rememberr::{save, Database, DedupStats};
use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::extract_corpus;

/// One full seeded pipeline run at the current worker count, returning
/// everything that must be jobs-invariant. Span profiling is on for the
/// whole run; before returning, the span tree is checked for
/// well-formedness (no orphan worker roots, a parseable Chrome trace).
fn seeded_pipeline_run() -> (Vec<u8>, DedupStats, String) {
    rememberr_obs::reset();
    rememberr_obs::enable();

    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.1));
    let (documents, _defects) =
        extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
            .expect("seeded corpus extracts");
    let mut db = Database::from_documents(&documents);
    classify_database(
        &mut db,
        &Rules::standard(),
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
    );
    let mut bytes = Vec::new();
    save(&db, &mut bytes).expect("database serializes");
    let stats = db.dedup_stats();
    let counters = rememberr_obs::snapshot().counters_json();
    assert_spans_form_one_tree();

    rememberr_obs::disable();
    rememberr_obs::reset();
    (bytes, stats, counters)
}

/// No `par.worker` span is a root (every worker span was handed back to
/// its spawning stage), and the Chrome trace of the run is JSON that
/// round-trips through our serde.
fn assert_spans_form_one_tree() {
    let spans = rememberr_obs::take_spans();
    assert!(!spans.is_empty(), "profiled run recorded no spans");
    for root in &spans {
        assert_ne!(
            root.name, "par.worker",
            "worker span orphaned at the root: {root:?}"
        );
    }
    let trace = rememberr_obs::chrome_trace(&spans);
    let parsed: serde::Value = serde_json::from_str(&trace).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
}

#[test]
fn pipeline_output_is_identical_across_worker_counts() {
    let mut baseline: Option<(Vec<u8>, DedupStats, String)> = None;
    for jobs in [1usize, 2, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        let (bytes, stats, counters) = seeded_pipeline_run();
        match &baseline {
            None => baseline = Some((bytes, stats, counters)),
            Some((want_bytes, want_stats, want_counters)) => {
                assert_eq!(
                    &bytes, want_bytes,
                    "database JSON differs between jobs=1 and jobs={jobs}"
                );
                assert_eq!(
                    &stats, want_stats,
                    "DedupStats differ between jobs=1 and jobs={jobs}"
                );
                assert_eq!(
                    &counters, want_counters,
                    "obs counter section differs between jobs=1 and jobs={jobs}"
                );
            }
        }
    }
    rememberr_par::set_jobs(None);

    // Sanity: the run produced real data, not three empty matches.
    let (bytes, stats, counters) = baseline.expect("at least one run");
    assert!(!bytes.is_empty());
    assert!(stats.entries > 100, "{stats:?}");
    assert!(stats.clusters > 0, "{stats:?}");
    assert!(counters.contains("dedup.comparisons_made"), "{counters}");
    assert!(counters.contains("classify.raw_decisions"), "{counters}");
}
