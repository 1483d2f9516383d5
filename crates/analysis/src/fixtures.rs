//! Shared unit-test corpora: each scale is generated, keyed and classified
//! (rules plus the simulated four-eyes pass) once per test binary, however
//! many tests read it.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use rememberr::Database;
use rememberr_classify::{
    classify_database, ClassificationRun, FourEyesConfig, HumanOracle, Rules,
};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

/// A generated corpus, its annotated database and the classification run
/// that annotated it.
pub(crate) struct Fixture {
    pub corpus: SyntheticCorpus,
    pub db: Database,
    pub run: ClassificationRun,
}

/// The fixture for `CorpusSpec::scaled(scale)` at the default seed; scale
/// 1.0 is the paper corpus.
pub(crate) fn fixture(scale: f64) -> &'static Fixture {
    static CELLS: Mutex<BTreeMap<u64, &'static OnceLock<Fixture>>> = Mutex::new(BTreeMap::new());
    // Hold the map lock only to find the scale's cell, so different scales
    // build concurrently and one scale is built once.
    let cell = *CELLS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .entry(scale.to_bits())
        .or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(scale));
        let mut db = Database::from_documents(&corpus.structured);
        let run = classify_database(
            &mut db,
            &Rules::standard(),
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
        );
        Fixture { corpus, db, run }
    })
}
