//! One-pass pipeline equivalence: the shared corpus-analysis arena
//! (`Database::from_documents_analyzed` → `classify_database_analyzed` →
//! `assist_highlights_analyzed`) must be indistinguishable from the
//! per-stage pipeline that re-derives lexical features in every stage —
//! byte-identical database JSON, identical `DedupStats` (including the
//! `comparisons_made` diagnostic), `DecisionStats` and assist summaries, at
//! single- and multi-worker counts — while tokenizing each database entry
//! exactly once (the `textkit.tokenize_calls` audit counter). Ingesting
//! rendered text adds exactly one title key per extracted erratum.

use std::num::NonZeroUsize;
use std::sync::Mutex;

use rememberr::{save, CandidateGen, Database, DedupStats, DedupStrategy};
use rememberr_analysis::{assist_highlights, assist_highlights_analyzed, AssistSummary};
use rememberr_classify::{
    classify_database_analyzed, classify_database_with, DecisionStats, FourEyesConfig, HumanOracle,
    MatcherKind, Rules,
};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::extract_corpus;

/// Both tests mutate process-global state (worker count, obs counters), so
/// they serialize on this lock.
static GLOBAL: Mutex<()> = Mutex::new(());

struct RunOutput {
    db_bytes: Vec<u8>,
    dedup_stats: DedupStats,
    decision_stats: DecisionStats,
    assist: AssistSummary,
}

/// One full pipeline run (dedup → classify → assist) in either mode over
/// pre-built documents.
fn run_pipeline(corpus: &SyntheticCorpus, rules: &Rules, one_pass: bool) -> RunOutput {
    let (db, run, assist) = if one_pass {
        let (mut db, arena) = Database::from_documents_analyzed(
            &corpus.structured,
            DedupStrategy::default(),
            CandidateGen::default(),
        );
        let run = classify_database_analyzed(
            &mut db,
            rules,
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
            MatcherKind::default(),
            &arena,
        );
        let assist = assist_highlights_analyzed(&db, rules, &arena);
        (db, run, assist)
    } else {
        let mut db = Database::from_documents_opts(
            &corpus.structured,
            DedupStrategy::default(),
            CandidateGen::default(),
        );
        let run = classify_database_with(
            &mut db,
            rules,
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
            MatcherKind::default(),
        );
        let assist = assist_highlights(&db, rules);
        (db, run, assist)
    };
    let mut db_bytes = Vec::new();
    save(&db, &mut db_bytes).expect("database serializes");
    RunOutput {
        db_bytes,
        dedup_stats: db.dedup_stats(),
        decision_stats: run.stats,
        assist,
    }
}

#[test]
fn one_pass_pipeline_matches_per_stage_at_every_worker_count() {
    let _guard = GLOBAL.lock().unwrap();
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    let rules = Rules::standard();

    let mut baseline: Option<RunOutput> = None;
    for jobs in [1usize, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        for one_pass in [false, true] {
            let mode = if one_pass { "one-pass" } else { "per-stage" };
            let out = run_pipeline(&corpus, &rules, one_pass);
            match &baseline {
                None => baseline = Some(out),
                Some(want) => {
                    assert_eq!(
                        out.db_bytes, want.db_bytes,
                        "database JSON diverged ({mode}, jobs={jobs})"
                    );
                    assert_eq!(
                        out.dedup_stats, want.dedup_stats,
                        "DedupStats diverged ({mode}, jobs={jobs})"
                    );
                    assert_eq!(
                        out.dedup_stats.comparisons_made, want.dedup_stats.comparisons_made,
                        "dedup effort diverged ({mode}, jobs={jobs})"
                    );
                    assert_eq!(
                        out.decision_stats, want.decision_stats,
                        "DecisionStats diverged ({mode}, jobs={jobs})"
                    );
                    assert_eq!(
                        out.assist, want.assist,
                        "assist summary diverged ({mode}, jobs={jobs})"
                    );
                }
            }
        }
    }
    rememberr_par::set_jobs(None);

    let base = baseline.expect("at least one run");
    assert!(base.dedup_stats.entries > 100, "{:?}", base.dedup_stats);
    assert!(base.assist.total_highlights > 0, "{:?}", base.assist);
}

#[test]
fn one_pass_pipeline_tokenizes_each_entry_exactly_once() {
    let _guard = GLOBAL.lock().unwrap();
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    let rules = Rules::standard();

    // The ingest path from rendered text: extraction builds one title key
    // per erratum, then the arena tokenizes each database entry once.
    for jobs in [1usize, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        rememberr_obs::reset();
        rememberr_obs::enable();
        let (documents, _) =
            extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
                .expect("the rendered corpus extracts");
        let after_extract = tokenize_calls();
        let (mut db, arena) = Database::from_documents_analyzed(
            &documents,
            DedupStrategy::default(),
            CandidateGen::default(),
        );
        classify_database_analyzed(
            &mut db,
            &rules,
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
            MatcherKind::default(),
            &arena,
        );
        assist_highlights_analyzed(&db, &rules, &arena);
        let total = tokenize_calls();
        rememberr_obs::disable();
        rememberr_obs::reset();

        let extracted: u64 = documents.iter().map(|d| d.errata.len() as u64).sum();
        assert_eq!(
            after_extract, extracted,
            "extraction must key each erratum title exactly once (jobs={jobs})"
        );
        assert_eq!(
            total,
            extracted + db.len() as u64,
            "the one-pass pipeline must tokenize each erratum exactly once (jobs={jobs})"
        );
    }
    rememberr_par::set_jobs(None);
}

fn tokenize_calls() -> u64 {
    rememberr_obs::snapshot()
        .counters
        .get("textkit.tokenize_calls")
        .copied()
        .unwrap_or(0)
}
