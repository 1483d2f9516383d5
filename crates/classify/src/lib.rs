//! Classification of errata into the RemembERR taxonomy.
//!
//! Reproduces the study's software-assisted classification (Section V-A1):
//!
//! * [`Rules`] — the pattern library (strong rules classify automatically,
//!   weak cues defer to humans), also powering the syntax-highlighting
//!   assist;
//! * [`classify_erratum`] — the relevance filter that cut 67,680 decisions
//!   per human down to 2,064: a strong rule decides a category relevant,
//!   no match decides it irrelevant, and a weak cue alone leaves it to a
//!   human ([`AutoClassification::needs_human`]);
//! * [`run_four_eyes`] — the two-annotators-plus-discussion simulation
//!   whose step reports regenerate Figures 8 and 9;
//! * [`classify_database`] — the end-to-end pipeline attaching annotations
//!   to every cluster;
//! * [`percent_agreement`] / [`cohens_kappa`] — agreement statistics.
//!
//! # Examples
//!
//! ```
//! use rememberr::Database;
//! use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
//! use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
//!
//! let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.03));
//! let mut db = Database::from_documents(&corpus.structured);
//! let run = classify_database(
//!     &mut db,
//!     &Rules::standard(),
//!     HumanOracle::Simulated(&corpus.truth),
//!     &FourEyesConfig::default(),
//! );
//! assert!(run.stats.reduction() > 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod agreement;
mod auto;
mod foureyes;
mod pipeline;
mod rules;

pub use agreement::{cohens_kappa, percent_agreement};
pub use auto::{
    classify_erratum, classify_erratum_with, classify_prepared_with, AutoClassification,
    MatcherKind,
};
pub use foureyes::{
    run_four_eyes, run_four_eyes_over, FourEyesConfig, FourEyesOutcome, HumanItem, Resolution,
    StepReport,
};
pub use pipeline::{
    classify_database, classify_database_analyzed, ClassificationRun, DecisionStats, HumanOracle,
};
pub use rules::Rules;
