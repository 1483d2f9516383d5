//! Cascade decision equivalence: the bounded (default) and exhaustive pair
//! decisions produce byte-identical database JSON and identical
//! `cascade_merges` on the full 28-document paper corpus, at every worker
//! count — while the bounded decision pays for at least 5× fewer full
//! edit-distance evaluations.
//!
//! This is the correctness contract of the cascade's threshold check: the
//! distance bounds are a throughput knob, never a semantics knob.

use std::num::NonZeroUsize;

use rememberr::{save, CandidateGen, Database, DedupStats, DedupStrategy};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::extract_corpus;
use rememberr_model::ErrataDocument;

fn paper_documents() -> Vec<ErrataDocument> {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::paper());
    let (documents, _defects) =
        extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
            .expect("seeded corpus extracts");
    documents
}

fn run(documents: &[ErrataDocument], gen: CandidateGen, jobs: usize) -> (Vec<u8>, DedupStats) {
    rememberr_par::set_jobs(NonZeroUsize::new(jobs));
    let db = Database::from_documents_opts(documents, DedupStrategy::default(), gen);
    rememberr_par::set_jobs(None);
    let mut bytes = Vec::new();
    save(&db, &mut bytes).expect("database serializes");
    (bytes, db.dedup_stats())
}

#[test]
fn bounded_matches_exhaustive_bytewise_at_every_worker_count() {
    let documents = paper_documents();
    let (oracle_bytes, oracle_stats) = run(&documents, CandidateGen::Exhaustive, 1);
    assert!(oracle_stats.cascade_merges > 0, "{oracle_stats:?}");

    let mut bounded_comparisons = None;
    for jobs in [1usize, 8] {
        for gen in [CandidateGen::Bounded, CandidateGen::Exhaustive] {
            let (bytes, stats) = run(&documents, gen, jobs);
            assert_eq!(
                bytes, oracle_bytes,
                "database JSON differs for {gen:?} at jobs={jobs}"
            );
            assert_eq!(
                stats.cascade_merges, oracle_stats.cascade_merges,
                "cascade_merges differ for {gen:?} at jobs={jobs}"
            );
            assert_eq!(stats, oracle_stats, "{gen:?} at jobs={jobs}");
            if gen == CandidateGen::Bounded {
                // The effort diagnostic is itself jobs-invariant.
                let first = *bounded_comparisons.get_or_insert(stats.comparisons_made);
                assert_eq!(stats.comparisons_made, first, "jobs={jobs}");
            }
        }
    }

    // The acceptance bar: the bounded decision does >= 5x less
    // edit-distance work than the full-scoring oracle on the default corpus.
    let bounded = bounded_comparisons.expect("bounded decision ran");
    assert!(
        oracle_stats.comparisons_made >= 5 * bounded,
        "expected >= 5x reduction: exhaustive {} vs bounded {bounded}",
        oracle_stats.comparisons_made,
    );
}

#[test]
fn obs_counters_report_dedup_effort() {
    let documents = paper_documents();
    rememberr_obs::reset();
    rememberr_obs::enable();
    let _ =
        Database::from_documents_opts(&documents, DedupStrategy::default(), CandidateGen::Bounded);
    let counters = rememberr_obs::snapshot().counters_json();
    rememberr_obs::disable();
    rememberr_obs::reset();
    assert!(counters.contains("dedup.comparisons_made"), "{counters}");
    assert!(counters.contains("dedup.cascade_merges"), "{counters}");
}
