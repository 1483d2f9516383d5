//! The RemembERR database: annotated microprocessor errata.
//!
//! This crate is the Rust counterpart of the paper's primary artifact: a
//! database of errata entries with
//!
//! * **duplicate keying** ([`assign_keys`], [`DedupStrategy`]): AMD errata
//!   cluster by their vendor-global numbers; Intel errata cluster by exact
//!   normalized titles plus a similarity cascade standing in for the
//!   study's manual near-duplicate matching (Section IV-A);
//! * **provenance** (approximate disclosure dates from revision
//!   histories, Section IV-B1);
//! * **annotations** (triggers/contexts/effects, attached per cluster);
//! * **queries** ([`Query`]) over entries or unique bugs, built with
//!   methods or parsed from the CLI's and the server's one parameter
//!   vocabulary ([`Query::from_params`]), and answered by word-wise AND/OR
//!   over per-facet bitmaps ([`QueryIndex`]);
//! * **persistence** ([`save`]/[`save_as`]/[`load`]): JSON Lines, the
//!   interchange format, and the `rememberr-bin` binary snapshot, the
//!   fast-load format;
//! * **evaluation** against the synthetic corpus's ground truth
//!   ([`evaluate_dedup`], [`evaluate_classification`]) — something the
//!   original study could not do.
//!
//! # Examples
//!
//! ```
//! use rememberr::{Database, Query};
//! use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
//! use rememberr_model::Vendor;
//!
//! let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
//! let db = Database::from_documents(&corpus.structured);
//!
//! let intel_unique = Query::new().vendor(Vendor::Intel).unique_only().run(&db);
//! assert_eq!(intel_unique.len(), db.unique_count_for(Vendor::Intel));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod db;
mod dedup;
mod entry;
mod evaluate;
mod index;
mod persist;
mod persist_bin;
mod query;

pub use db::Database;
pub use dedup::{
    assign_keys, assign_keys_with, CandidateGen, DedupStats, DedupStrategy, SIMILARITY_THRESHOLD,
};
pub use entry::DbEntry;
pub use evaluate::{
    evaluate_classification, evaluate_dedup, ClassificationEvaluation, DedupEvaluation, Prf,
};
pub use index::QueryIndex;
pub use persist::{load, save, save_as, PersistError, SnapshotFormat, FORMAT, VERSION};
pub use persist_bin::{BIN_FORMAT, BIN_VERSION};
pub use query::Query;
