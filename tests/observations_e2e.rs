//! The headline result: all thirteen observations hold on the paper-scale
//! corpus after the complete pipeline — extraction from rendered text,
//! deduplication, and classification.

use rememberr::Database;
use rememberr_analysis::{render_observations, FullReport};
use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::SyntheticCorpus;
use rememberr_extract::extract_corpus;

#[test]
fn all_observations_hold_after_the_full_pipeline() {
    let corpus = SyntheticCorpus::paper();
    let (documents, _) =
        extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
            .expect("extraction succeeds");

    let mut db = Database::from_documents(&documents);
    assert_eq!(db.len(), 2_563);
    assert_eq!(db.unique_count(), 1_128);

    classify_database(
        &mut db,
        &Rules::standard(),
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
    );

    let obs = FullReport::build(&db, None, None).observations;
    let failing: Vec<String> = obs
        .iter()
        .filter(|o| !o.holds)
        .map(|o| format!("O{}: {} ({})", o.id, o.statement, o.evidence))
        .collect();
    assert!(
        failing.is_empty(),
        "observations failing after full pipeline:\n{}\n\nfull table:\n{}",
        failing.join("\n"),
        render_observations(&obs)
    );
}
