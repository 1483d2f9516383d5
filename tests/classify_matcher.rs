//! Rule-matcher equivalence: the indexed (default) and exhaustive rule
//! matchers produce byte-identical classified database JSON and identical
//! `DecisionStats` on the full 28-document paper corpus, at every worker
//! count — while the indexed path pays for at least 10× fewer positional
//! pattern evaluations, on the corpus and on a single erratum.
//!
//! This is the correctness contract of the indexed multi-pattern matcher:
//! anchor-token pruning and single-pass snippet extraction are throughput
//! knobs, never semantics knobs.
//!
//! Every test reads the process-global obs counters (and some set the
//! global worker count), so all of them serialize on one gate; otherwise
//! counters from one test leak into another's snapshot.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};

use rememberr::{save, Database, DedupStrategy};
use rememberr_classify::{
    classify_database_analyzed, classify_erratum_with, DecisionStats, FourEyesConfig, HumanOracle,
    MatcherKind, Rules,
};
use rememberr_docgen::{CorpusSpec, GroundTruth, SyntheticCorpus};
use rememberr_extract::extract_corpus;
use rememberr_model::{Design, ErrataDocument, Erratum, ErratumId};

static GATE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn paper_corpus() -> (Vec<ErrataDocument>, GroundTruth) {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::paper());
    let (documents, _defects) =
        extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
            .expect("seeded corpus extracts");
    (documents, corpus.truth)
}

fn run(
    documents: &[ErrataDocument],
    truth: &GroundTruth,
    rules: &Rules,
    matcher: MatcherKind,
    jobs: usize,
) -> (Vec<u8>, DecisionStats, String) {
    rememberr_par::set_jobs(NonZeroUsize::new(jobs));
    rememberr_obs::reset();
    rememberr_obs::enable();
    let mut db = Database::from_documents(documents);
    let arena = db.analyze_representatives();
    let stats = classify_database_analyzed(
        &mut db,
        rules,
        HumanOracle::Simulated(truth),
        &FourEyesConfig::default(),
        matcher,
        &arena,
    )
    .stats;
    let counters = rememberr_obs::snapshot().counters_json();
    rememberr_obs::disable();
    rememberr_obs::reset();
    rememberr_par::set_jobs(None);
    let mut bytes = Vec::new();
    save(&db, &mut bytes).expect("database serializes");
    (bytes, stats, counters)
}

#[test]
fn indexed_matches_exhaustive_bytewise_at_every_worker_count() {
    let _gate = exclusive();
    let (documents, truth) = paper_corpus();
    let rules = Rules::standard();
    let (oracle_bytes, oracle_stats, _) =
        run(&documents, &truth, &rules, MatcherKind::Exhaustive, 1);
    assert!(oracle_stats.auto_decided > 0, "{oracle_stats:?}");

    let mut per_matcher_counters: Vec<Option<String>> = vec![None, None];
    for jobs in [1usize, 8] {
        for (slot, matcher) in [MatcherKind::Indexed, MatcherKind::Exhaustive]
            .into_iter()
            .enumerate()
        {
            let (bytes, stats, counters) = run(&documents, &truth, &rules, matcher, jobs);
            assert_eq!(
                bytes, oracle_bytes,
                "database JSON differs for {matcher:?} at jobs={jobs}"
            );
            assert_eq!(stats, oracle_stats, "{matcher:?} at jobs={jobs}");
            // The whole counter section — including the new pattern_evals /
            // patterns_pruned effort counters — is jobs-invariant.
            match &per_matcher_counters[slot] {
                None => per_matcher_counters[slot] = Some(counters),
                Some(first) => assert_eq!(
                    &counters, first,
                    "counters differ for {matcher:?} at jobs={jobs}"
                ),
            }
        }
    }
}

#[test]
fn indexed_matcher_does_ten_times_less_pattern_work() {
    let _gate = exclusive();
    let (documents, truth) = paper_corpus();
    let rules = Rules::standard();

    let mut evals = [0u64, 0];
    for (slot, matcher) in [MatcherKind::Indexed, MatcherKind::Exhaustive]
        .into_iter()
        .enumerate()
    {
        rememberr_obs::reset();
        rememberr_obs::enable();
        let mut db =
            Database::from_documents_opts(&documents, DedupStrategy::default(), Default::default());
        let arena = db.analyze_representatives();
        rememberr_obs::reset(); // drop dedup and arena counters; measure classify only
        let _ = classify_database_analyzed(
            &mut db,
            &rules,
            HumanOracle::Simulated(&truth),
            &FourEyesConfig::default(),
            matcher,
            &arena,
        );
        let snap = rememberr_obs::snapshot();
        rememberr_obs::disable();
        rememberr_obs::reset();
        evals[slot] = snap.counters["classify.pattern_evals"];
        if matcher == MatcherKind::Indexed {
            // Every library pattern is either evaluated or pruned.
            let pruned = snap.counters["classify.patterns_pruned"];
            let library = rules.matcher().len() as u64;
            let unique =
                snap.counters["classify.raw_decisions"] / rememberr_model::Category::COUNT as u64;
            assert_eq!(evals[slot] + pruned, library * unique);
        } else {
            assert!(!snap.counters.contains_key("classify.patterns_pruned"));
        }
    }

    // The acceptance bar: the indexed matcher positionally evaluates at
    // least 10x fewer patterns than the per-pattern oracle on the full
    // paper corpus.
    assert!(
        evals[1] >= 10 * evals[0],
        "expected >= 10x reduction: exhaustive {} vs indexed {}",
        evals[1],
        evals[0]
    );
}

#[test]
fn obs_counters_report_classify_effort() {
    let _gate = exclusive();
    let (documents, truth) = paper_corpus();
    rememberr_obs::reset();
    rememberr_obs::enable();
    let mut db = Database::from_documents(&documents);
    let arena = db.analyze_representatives();
    let _ = classify_database_analyzed(
        &mut db,
        &Rules::standard(),
        HumanOracle::Simulated(&truth),
        &FourEyesConfig::default(),
        MatcherKind::Indexed,
        &arena,
    );
    let counters = rememberr_obs::snapshot().counters_json();
    rememberr_obs::disable();
    rememberr_obs::reset();
    assert!(counters.contains("classify.pattern_evals"), "{counters}");
    assert!(counters.contains("classify.patterns_pruned"), "{counters}");
}

#[test]
fn indexed_matcher_prunes_most_of_the_library() {
    let _gate = exclusive();
    let e = Erratum {
        id: ErratumId::new(Design::Intel6, 1),
        title: "T".to_string(),
        description: "After a warm reset is applied the processor may hang.".to_string(),
        implications: String::new(),
        workaround: "None identified.".to_string(),
        status: "No fix planned.".to_string(),
    };
    let rules = Rules::standard();
    rememberr_obs::reset();
    rememberr_obs::enable();
    let _ = classify_erratum_with(&rules, &e, MatcherKind::Indexed);
    let indexed = rememberr_obs::snapshot();
    rememberr_obs::reset();
    let _ = classify_erratum_with(&rules, &e, MatcherKind::Exhaustive);
    let exhaustive = rememberr_obs::snapshot();
    rememberr_obs::disable();
    rememberr_obs::reset();

    let indexed_evals = indexed.counters["classify.pattern_evals"];
    let exhaustive_evals = exhaustive.counters["classify.pattern_evals"];
    let pruned = indexed.counters["classify.patterns_pruned"];
    let library = rules.matcher().len() as u64;
    assert_eq!(indexed_evals + pruned, library);
    assert!(
        indexed_evals * 10 <= exhaustive_evals,
        "indexed {indexed_evals} vs exhaustive {exhaustive_evals} evals"
    );
    assert!(!exhaustive.counters.contains_key("classify.patterns_pruned"));
}
