//! One ingest path. The two public ways to run it — `Database::from_documents`
//! then `classify_database`, or `Database::from_documents_analyzed` →
//! `classify_database_analyzed` → `assist_highlights_analyzed` sharing one
//! arena — must produce byte-identical database JSON and identical
//! `DedupStats` (including the `comparisons_made` diagnostic),
//! `DecisionStats` and assist summaries at single- and multi-worker counts.
//!
//! The arena is built after dedup, over the representatives only: a run
//! from rendered text tokenizes each extracted title once in extraction,
//! each Intel title once in dedup and each representative's full text
//! once (the `textkit.tokenize_calls` audit counter), and matches each
//! representative against the rule library once (the
//! `textkit.match_doc_calls` counter). Representative `k` reads arena
//! document `k`, so every representative is classified and highlighted
//! from its own text, even when extraction gives two of them one
//! identifier.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};

use rememberr::{save, CandidateGen, Database, DedupStats, DedupStrategy};
use rememberr_analysis::{assist_highlights_analyzed, AssistSummary};
use rememberr_classify::{
    classify_database, classify_database_analyzed, classify_erratum, DecisionStats, FourEyesConfig,
    HumanOracle, MatcherKind, Rules,
};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::extract_corpus;
use rememberr_model::{ErrataDocument, ErratumId, Vendor};
use rememberr_textkit::{highlights, highlights_matched};

/// Every test mutates process-global state (worker count, obs counters),
/// so they serialize on this lock. A failed test poisons it; the others
/// still run and report their own result.
static GLOBAL: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    GLOBAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The documents extracted from a corpus's rendered text: the input in
/// which extraction can give two errata one identifier.
fn extracted(corpus: &SyntheticCorpus) -> Vec<ErrataDocument> {
    let (documents, _) =
        extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
            .expect("the rendered corpus extracts");
    documents
}

struct RunOutput {
    db_bytes: Vec<u8>,
    dedup_stats: DedupStats,
    decision_stats: DecisionStats,
    assist: AssistSummary,
}

/// One full pipeline run (dedup → classify → assist) through either pair
/// of entry points.
fn run_pipeline(
    documents: &[ErrataDocument],
    corpus: &SyntheticCorpus,
    rules: &Rules,
    shared_arena: bool,
) -> RunOutput {
    let oracle = HumanOracle::Simulated(&corpus.truth);
    let (db, run, assist) = if shared_arena {
        let (mut db, arena) = Database::from_documents_analyzed(
            documents,
            DedupStrategy::default(),
            CandidateGen::default(),
        );
        let run = classify_database_analyzed(
            &mut db,
            rules,
            oracle,
            &FourEyesConfig::default(),
            MatcherKind::default(),
            &arena,
        );
        let assist = assist_highlights_analyzed(&db, rules, &arena);
        (db, run, assist)
    } else {
        let mut db = Database::from_documents(documents);
        let run = classify_database(&mut db, rules, oracle, &FourEyesConfig::default());
        // A fresh arena: the assist runs its own match passes.
        let assist = assist_highlights_analyzed(&db, rules, &db.analyze_representatives());
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
    let _guard = exclusive();
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    let documents = extracted(&corpus);
    let rules = Rules::standard();

    let mut baseline: Option<RunOutput> = None;
    for jobs in [1usize, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        for shared_arena in [false, true] {
            let mode = if shared_arena {
                "from_documents_analyzed + classify_database_analyzed"
            } else {
                "from_documents + classify_database"
            };
            let out = run_pipeline(&documents, &corpus, &rules, shared_arena);
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

/// What one traced run of the ingest path from rendered text counted.
struct Ingest {
    db: Database,
    /// Errata extracted from the rendered documents.
    extracted: u64,
    /// `textkit.tokenize_calls` right after extraction.
    tokenized_by_extraction: u64,
    /// Every counter at the end of the run.
    counters: BTreeMap<String, u64>,
}

/// Runs the ingest path from rendered text (extract → dedup → classify →
/// assist) over the 0.25 corpus at `jobs` workers, with obs on.
fn traced_ingest(corpus: &SyntheticCorpus, rules: &Rules, jobs: usize) -> Ingest {
    rememberr_par::set_jobs(NonZeroUsize::new(jobs));
    rememberr_obs::reset();
    rememberr_obs::enable();
    let documents = extracted(corpus);
    let tokenized_by_extraction = counter(&rememberr_obs::snapshot().counters, TOKENIZE);
    let (mut db, arena) = Database::from_documents_analyzed(
        &documents,
        DedupStrategy::default(),
        CandidateGen::default(),
    );
    classify_database_analyzed(
        &mut db,
        rules,
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
        MatcherKind::default(),
        &arena,
    );
    assist_highlights_analyzed(&db, rules, &arena);
    let counters = rememberr_obs::snapshot().counters;
    rememberr_obs::disable();
    rememberr_obs::reset();
    rememberr_par::set_jobs(None);
    Ingest {
        db,
        extracted: documents.iter().map(|d| d.errata.len() as u64).sum(),
        tokenized_by_extraction,
        counters,
    }
}

const TOKENIZE: &str = "textkit.tokenize_calls";
const MATCH_PASSES: &str = "textkit.match_doc_calls";
const DOCS_ANALYZED: &str = "corpus.docs_analyzed";
const PATTERN_EVALS: &str = "classify.pattern_evals";

fn counter(counters: &BTreeMap<String, u64>, name: &str) -> u64 {
    counters.get(name).copied().unwrap_or(0)
}

#[test]
fn one_pass_pipeline_tokenizes_each_representative_exactly_once() {
    let _guard = exclusive();
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    let rules = Rules::standard();

    // Extraction keys each erratum title once, dedup keys each Intel title
    // once, and the arena tokenizes each representative's full text once.
    for jobs in [1usize, 8] {
        let run = traced_ingest(&corpus, &rules, jobs);
        let unique = run.db.unique_count() as u64;
        let intel = run.db.total_count_for(Vendor::Intel) as u64;
        assert_eq!(
            run.tokenized_by_extraction, run.extracted,
            "extraction must key each erratum title exactly once (jobs={jobs})"
        );
        assert_eq!(
            counter(&run.counters, DOCS_ANALYZED),
            unique,
            "the arena holds the representatives only (jobs={jobs})"
        );
        assert_eq!(
            counter(&run.counters, TOKENIZE),
            run.extracted + intel + unique,
            "extraction, dedup and the arena each tokenize once (jobs={jobs})"
        );
    }
}

/// `classify.pattern_evals` of the 0.25 corpus's ingest: one match pass
/// per representative, each over its own text (including `320836-037US`
/// erratum AAJ008, which shares its identifier with another
/// representative).
const PATTERN_EVALS_AT_QUARTER_SCALE: u64 = 4_406;

#[test]
fn one_pass_pipeline_matches_each_representative_exactly_once() {
    let _guard = exclusive();
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    let rules = Rules::standard();

    // Classification and the highlighting assist both read every
    // representative's rule matches; the arena hands both the same pass.
    for jobs in [1usize, 8] {
        let run = traced_ingest(&corpus, &rules, jobs);
        let unique = run.db.unique_count() as u64;
        assert_eq!(
            counter(&run.counters, MATCH_PASSES),
            unique,
            "one match pass per representative (jobs={jobs})"
        );
        assert_eq!(
            counter(&run.counters, PATTERN_EVALS),
            PATTERN_EVALS_AT_QUARTER_SCALE,
            "pattern evaluations are pinned (jobs={jobs})"
        );
    }
}

/// Asserts that the corpus gives two representatives one identifier, so
/// the checks below cover that case.
fn assert_has_shared_identifier(db: &Database, what: &str) {
    let mut seen = HashSet::new();
    let shared: Vec<ErratumId> = db
        .unique_entries()
        .iter()
        .map(|e| e.id())
        .filter(|&id| !seen.insert(id))
        .collect();
    assert!(
        !shared.is_empty(),
        "{what}: no two representatives share an identifier"
    );
}

#[test]
fn each_representative_is_classified_from_its_own_text() {
    let _guard = exclusive();
    let rules = Rules::standard();
    for (what, spec) in [
        ("0.25 scale", CorpusSpec::scaled(0.25)),
        ("paper scale", CorpusSpec::paper()),
    ] {
        let corpus = SyntheticCorpus::generate(&spec);
        let mut db = Database::from_documents(&extracted(&corpus));
        assert_has_shared_identifier(&db, what);
        classify_database(
            &mut db,
            &rules,
            HumanOracle::None,
            &FourEyesConfig::default(),
        );
        for rep in db.unique_entries() {
            assert_eq!(
                rep.annotation.as_ref(),
                Some(&classify_erratum(&rules, &rep.erratum).annotation),
                "{what}: {} in cluster {:?}",
                rep.id(),
                rep.key
            );
        }
    }
}

#[test]
fn assist_highlights_equal_the_unfiltered_scan() {
    let _guard = exclusive();
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    let documents = extracted(&corpus);
    let rules = Rules::standard();
    let patterns = rules.highlight_set();

    for jobs in [1usize, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        let (mut db, arena) = Database::from_documents_analyzed(
            &documents,
            DedupStrategy::default(),
            CandidateGen::default(),
        );
        assert_has_shared_identifier(&db, "0.25 scale");
        classify_database_analyzed(
            &mut db,
            &rules,
            HumanOracle::None,
            &FourEyesConfig::default(),
            MatcherKind::default(),
            &arena,
        );

        // Oracle: every strong rule scanned over the representative's own
        // text, tallied the way the assist tallies its summary.
        let mut want = AssistSummary {
            unique_errata: 0,
            highlighted_errata: 0,
            total_highlights: 0,
            label_hits: BTreeMap::new(),
        };
        for (k, rep) in db.unique_entries().into_iter().enumerate() {
            let oracle = highlights(&patterns, &rep.erratum.full_text());
            let matched = highlights_matched(&patterns, &arena.match_set(k, rules.matcher()));
            assert_eq!(matched, oracle, "{} at jobs={jobs}", rep.id());

            want.unique_errata += 1;
            want.total_highlights += oracle.len();
            want.highlighted_errata += usize::from(!oracle.is_empty());
            let labels: BTreeSet<&String> = oracle.iter().flat_map(|h| &h.labels).collect();
            for label in labels {
                *want.label_hits.entry(label.clone()).or_insert(0) += 1;
            }
        }
        assert_eq!(
            assist_highlights_analyzed(&db, &rules, &arena),
            want,
            "jobs={jobs}"
        );
    }
    rememberr_par::set_jobs(None);
}
