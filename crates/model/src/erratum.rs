//! Errata and their provenance.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::date::Date;
use crate::decimal::write_zero_padded;
use crate::design::{Design, Vendor};
use crate::error::ModelError;

/// Identifier of an erratum within one errata document.
///
/// Intel numbers errata per document with an alphabetic prefix (`SKL095`);
/// AMD uses plain numbers that are *stable across documents* (`1361`), which
/// is why AMD duplicates can be detected by number alone (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ErratumId {
    /// The design (document) the erratum appears in.
    pub design: Design,
    /// The numeric part of the identifier.
    pub number: u32,
}

impl ErratumId {
    /// Creates an identifier.
    pub fn new(design: Design, number: u32) -> Self {
        Self { design, number }
    }

    /// The identifier as printed in the document, e.g. `SKL095` or `1361`.
    pub fn document_form(&self) -> String {
        let mut form = String::new();
        self.write_document_form(&mut form)
            .expect("writing to a String cannot fail");
        form
    }

    /// Writes the identifier's `Display` form, the design's document
    /// reference, `/` and the [`document_form`](Self::document_form), e.g.
    /// `682436-004US/ADL001`.
    ///
    /// # Errors
    ///
    /// Returns the error `out` returns; writing to a `String` never fails.
    pub fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str(self.design.reference())?;
        out.write_char('/')?;
        self.write_document_form(out)
    }

    /// Intel numbers follow the document's prefix, zero-padded to three
    /// digits; AMD numbers stand alone, unpadded.
    fn write_document_form<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let width = match self.design.vendor() {
            Vendor::Intel => {
                out.write_str(self.design.erratum_prefix())?;
                3
            }
            Vendor::Amd => 0,
        };
        write_zero_padded(out, u64::from(self.number), width)
    }

    /// Parses a document-form identifier appearing in the given design's
    /// document.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidField`] if the prefix does not match the
    /// design or the numeric part is missing.
    pub fn parse_document_form(design: Design, s: &str) -> Result<Self, ModelError> {
        let prefix = design.erratum_prefix();
        let rest = s.strip_prefix(prefix).ok_or(ModelError::InvalidField {
            field: "erratum id",
            reason: format!("{s:?} does not start with prefix {prefix:?}"),
        })?;
        let number: u32 = rest.parse().map_err(|_| ModelError::InvalidField {
            field: "erratum id",
            reason: format!("{rest:?} is not a number"),
        })?;
        Ok(Self { design, number })
    }
}

impl fmt::Display for ErratumId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// One erratum as it appears in a vendor document: the five textual fields.
///
/// This is the *raw* representation produced by the extraction pipeline;
/// typed classification results (annotations, workaround category, fix
/// status) are attached at the database layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Erratum {
    /// Identifier within the document.
    pub id: ErratumId,
    /// The erratum's title.
    pub title: String,
    /// Conditions under which the bug occurs.
    pub description: String,
    /// Brief discussion of the bug's implications once triggered.
    pub implications: String,
    /// Proposed workaround guidance (may be "None identified.").
    pub workaround: String,
    /// Status field text (fix availability).
    pub status: String,
}

impl Erratum {
    /// Validates structural invariants: non-empty title and description.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidField`] naming the first empty mandatory
    /// field. (Missing *optional* fields — implications, workaround, status —
    /// are one of the documented "errata in errata" defects and are allowed.)
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.title.trim().is_empty() {
            return Err(ModelError::InvalidField {
                field: "title",
                reason: "empty".to_string(),
            });
        }
        if self.description.trim().is_empty() {
            return Err(ModelError::InvalidField {
                field: "description",
                reason: "empty".to_string(),
            });
        }
        Ok(())
    }

    /// Concatenation of all prose fields, used by classification rules.
    pub fn full_text(&self) -> String {
        let mut text = String::with_capacity(
            self.title.len()
                + self.description.len()
                + self.implications.len()
                + self.workaround.len()
                + 4,
        );
        text.push_str(&self.title);
        text.push('\n');
        text.push_str(&self.description);
        text.push('\n');
        text.push_str(&self.implications);
        text.push('\n');
        text.push_str(&self.workaround);
        text
    }
}

/// How the disclosure date of an erratum was established (Section IV-B1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum DateSource {
    /// The revision summary names the revision that added the erratum.
    #[default]
    RevisionLog,
    /// The revision summary is silent; the date was approximated from the
    /// sequentially-numbered neighbor erratum.
    NeighborInterpolation,
    /// Two revisions both claim to have added the erratum; the earlier
    /// revision's date was taken.
    EarlierOfContradicting,
}

/// Where and when an erratum surfaced: the document, the revision that first
/// listed it, and the approximated disclosure date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// Revision number that first contains the erratum.
    pub first_revision: u32,
    /// Release/update date of that revision — the disclosure-date proxy.
    pub disclosure_date: Date,
    /// How the date was established.
    pub date_source: DateSource,
}

impl Provenance {
    /// Provenance recorded directly from a revision log entry.
    pub fn from_revision_log(first_revision: u32, disclosure_date: Date) -> Self {
        Self {
            first_revision,
            disclosure_date,
            date_source: DateSource::RevisionLog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Erratum {
        Erratum {
            id: ErratumId::new(Design::Intel12, 1),
            title: "X87 FDP Value May be Saved Incorrectly".to_string(),
            description: "Execution of the FSAVE instruction in real-address mode may save an \
                          incorrect value for the x87 FDP."
                .to_string(),
            implications: "Software that depends on the FDP value may not operate properly."
                .to_string(),
            workaround: "None identified.".to_string(),
            status: "For the steppings affected, refer to the Summary Table of Changes."
                .to_string(),
        }
    }

    #[test]
    fn intel_document_form_has_prefix() {
        let id = ErratumId::new(Design::Intel12, 1);
        assert_eq!(id.document_form(), "ADL001");
        let id = ErratumId::new(Design::Intel6, 95);
        assert_eq!(id.document_form(), "SKL095");
    }

    #[test]
    fn amd_document_form_is_plain_number() {
        let id = ErratumId::new(Design::Amd19h, 1361);
        assert_eq!(id.document_form(), "1361");
    }

    #[test]
    fn parse_document_form_roundtrip() {
        for design in [Design::Intel6, Design::Amd19h, Design::Intel1D] {
            let id = ErratumId::new(design, 42);
            let parsed = ErratumId::parse_document_form(design, &id.document_form()).unwrap();
            assert_eq!(parsed, id);
        }
    }

    #[test]
    fn parse_rejects_wrong_prefix() {
        assert!(ErratumId::parse_document_form(Design::Intel6, "ADL001").is_err());
        assert!(ErratumId::parse_document_form(Design::Intel6, "SKLxyz").is_err());
    }

    #[test]
    fn validate_requires_title_and_description() {
        let mut e = sample();
        assert!(e.validate().is_ok());
        e.title.clear();
        assert!(e.validate().is_err());
        let mut e = sample();
        e.description = "   ".to_string();
        assert!(e.validate().is_err());
        // Missing optional fields are tolerated (documented defect class).
        let mut e = sample();
        e.implications.clear();
        e.workaround.clear();
        e.status.clear();
        assert!(e.validate().is_ok());
    }

    #[test]
    fn full_text_contains_all_prose_fields() {
        let e = sample();
        let text = e.full_text();
        assert!(text.contains(&e.title));
        assert!(text.contains(&e.description));
        assert!(text.contains(&e.implications));
        assert!(text.contains(&e.workaround));
        assert!(!text.contains(&e.status));
    }

    #[test]
    fn display_combines_reference_and_form() {
        let id = ErratumId::new(Design::Intel12, 1);
        assert_eq!(id.to_string(), "682436-004US/ADL001");
        // Both forms spell the number as `format!` does: `{:03}` after an
        // Intel prefix, bare for AMD, for every design and any `u32` a
        // snapshot can carry.
        for design in Design::ALL {
            for number in [0, 7, 95, 999, 1000, 1361, u32::MAX] {
                let id = ErratumId::new(design, number);
                let form = match design.vendor() {
                    Vendor::Intel => format!("{}{number:03}", design.erratum_prefix()),
                    Vendor::Amd => format!("{number}"),
                };
                assert_eq!(id.document_form(), form);
                assert_eq!(id.to_string(), format!("{}/{form}", design.reference()));
            }
        }
    }
}
