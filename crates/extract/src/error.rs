//! Error types for the extraction pipeline.

use std::fmt;

use rememberr_model::Design;

/// Errors produced while extracting a document from its page stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExtractError {
    /// A required section heading was not found.
    MissingSection {
        /// The heading that was expected.
        heading: &'static str,
    },
    /// A revision-table row could not be parsed.
    BadRevisionRow {
        /// The offending line.
        line: String,
    },
    /// A revision-table row carries an unparsable date (distinguished from
    /// [`ExtractError::BadRevisionRow`] so date-format drift in source
    /// documents is diagnosable separately from structural damage).
    BadDate {
        /// The offending line.
        line: String,
    },
    /// An erratum header line could not be parsed.
    BadErratumHeader {
        /// The offending line.
        line: String,
    },
    /// The page stream is structurally malformed (e.g. a page too short to
    /// carry a header and footer).
    MalformedPage {
        /// Zero-based page index.
        page: usize,
    },
    /// The document contains no errata at all.
    EmptyDocument,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::MissingSection { heading } => {
                write!(f, "missing section heading {heading:?}")
            }
            ExtractError::BadRevisionRow { line } => {
                write!(f, "cannot parse revision row {line:?}")
            }
            ExtractError::BadDate { line } => {
                write!(f, "cannot parse revision date in {line:?}")
            }
            ExtractError::BadErratumHeader { line } => {
                write!(f, "cannot parse erratum header {line:?}")
            }
            ExtractError::MalformedPage { page } => write!(f, "malformed page {page}"),
            ExtractError::EmptyDocument => write!(f, "document lists no errata"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// The error of one document in a corpus: which document failed, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentError {
    /// The design whose document failed; its
    /// [`reference`](Design::reference) names the document.
    pub design: Design,
    /// Why extraction failed.
    pub error: ExtractError,
}

impl fmt::Display for DocumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "document {}: {}", self.design.reference(), self.error)
    }
}

impl std::error::Error for DocumentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let errors = [
            ExtractError::MissingSection { heading: "X" },
            ExtractError::BadRevisionRow { line: "??".into() },
            ExtractError::BadDate { line: "??".into() },
            ExtractError::BadErratumHeader { line: "??".into() },
            ExtractError::MalformedPage { page: 3 },
            ExtractError::EmptyDocument,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn is_error_send_sync() {
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<ExtractError>();
        check::<DocumentError>();
    }
}
