//! Extraction of structured errata from rendered page streams.
//!
//! This crate replaces the original study's `pdftotext` + `camelot` +
//! ad-hoc-Python layer: it depaginates the text stream, reassembles wrapped
//! and hyphenated lines, parses the revision-history table and every
//! erratum block, and cross-checks the result against itself to surface the
//! "errata in errata" defect classes the paper catalogues (double-added
//! revision claims, errata missing from revision summaries, reused names,
//! missing/duplicated fields, erroneous MSR numbers, intra-document
//! duplicates).
//!
//! # Examples
//!
//! ```
//! use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
//! use rememberr_extract::extract_document;
//!
//! # fn main() -> Result<(), rememberr_extract::ExtractError> {
//! let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.02));
//! let first = &corpus.rendered[0];
//! let extracted = extract_document(first.design, &first.text)?;
//! assert_eq!(extracted.document.design, first.design);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod errata_parse;
mod error;
mod msrscan;
mod pipeline;
mod report;
mod revtable;
mod scanner;
mod summary;

pub use errata_parse::{parse_errata, ParsedErratum};
pub use error::{DocumentError, ExtractError};
pub use msrscan::{inconsistent_refs, scan_msr_refs};
pub use pipeline::{
    extract_corpus, extract_document, ExtractedDocument, ERRATA_HEADING, REVISION_HEADING,
    SUMMARY_HEADING,
};
pub use report::{detect_defects, ExtractionReport, INTRA_DOC_SIMILARITY};
pub use revtable::{parse_added_numbers, parse_revision_table};
pub use scanner::{depaginate, section_after, section_between};
pub use summary::parse_fix_summary;
