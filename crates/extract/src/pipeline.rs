//! End-to-end document extraction.

use rememberr_model::{Design, ErrataDocument};

use crate::errata_parse::parse_errata;
use crate::error::{DocumentError, ExtractError};
use crate::report::{detect_defects, ExtractionReport};
use crate::revtable::parse_revision_table;
use crate::scanner::{depaginate, section_after, section_between};
use crate::summary::parse_fix_summary;

/// Heading opening the revision-history table (matches the renderer).
pub const REVISION_HEADING: &str = "REVISION HISTORY";

/// Heading opening the errata listing (matches the renderer).
pub const ERRATA_HEADING: &str = "ERRATA DETAILS";

/// Heading opening the summary table of changes (matches the renderer).
pub const SUMMARY_HEADING: &str = "SUMMARY TABLE OF CHANGES";

/// The result of extracting one document.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedDocument {
    /// The reconstructed structured document.
    pub document: ErrataDocument,
    /// Defects detected during extraction.
    pub report: ExtractionReport,
}

/// Extracts a structured document from a page stream.
///
/// # Errors
///
/// Returns an [`ExtractError`] if the stream is structurally unparsable;
/// *content* defects (missing fields, wrong MSR numbers, contradictory
/// revision logs) never fail extraction — they are repaired where possible
/// and reported in [`ExtractedDocument::report`].
pub fn extract_document(design: Design, text: &str) -> Result<ExtractedDocument, ExtractError> {
    let _span = rememberr_obs::span!("extract.document", "{design}");
    let lines = {
        let _span = rememberr_obs::span!("extract.depaginate");
        depaginate(text)?
    };
    // The summary table is optional in older streams: fall back to parsing
    // the revision table up to the errata heading.
    let has_summary = lines.iter().any(|l| l.trim() == SUMMARY_HEADING);
    let rev_end = if has_summary {
        SUMMARY_HEADING
    } else {
        ERRATA_HEADING
    };
    let revisions = {
        let _span = rememberr_obs::span!("extract.revtable");
        let rev_lines = section_between(&lines, REVISION_HEADING, rev_end)?;
        parse_revision_table(design, rev_lines)?
    };
    let fix_summary = if has_summary {
        let _span = rememberr_obs::span!("extract.summary");
        let summary_lines = section_between(&lines, SUMMARY_HEADING, ERRATA_HEADING)?;
        parse_fix_summary(design, summary_lines)
    } else {
        Vec::new()
    };
    let parsed = {
        let _span = rememberr_obs::span!("extract.errata_parse");
        let errata_lines = section_after(&lines, ERRATA_HEADING)?;
        parse_errata(design, errata_lines)?
    };

    let document = ErrataDocument {
        design,
        revisions,
        errata: parsed.iter().map(|p| p.erratum.clone()).collect(),
        fix_summary,
    };
    let report = {
        let _span = rememberr_obs::span!("extract.detect_defects");
        detect_defects(&document, &parsed)
    };
    report.count_metrics();
    Ok(ExtractedDocument { document, report })
}

/// Extracts a whole corpus of rendered documents.
///
/// Documents are independent, so extraction fans out across workers;
/// results come back in input order and the defect reports merge in that
/// same order, so the output is identical at every worker count.
///
/// Returns the structured documents (in input order) and the merged defect
/// report.
///
/// # Errors
///
/// Fails with the first (in input order) structurally unparsable document
/// and its error. Later documents may already have been parsed when that
/// error is reported.
pub fn extract_corpus<'a, I>(
    rendered: I,
) -> Result<(Vec<ErrataDocument>, ExtractionReport), DocumentError>
where
    I: IntoIterator<Item = (Design, &'a str)>,
{
    let _span = rememberr_obs::span!("extract.corpus");
    let inputs: Vec<(Design, &str)> = rendered.into_iter().collect();
    let results = rememberr_par::par_map(&inputs, |&(design, text)| {
        extract_document(design, text).map_err(|error| DocumentError { design, error })
    });
    let mut documents = Vec::with_capacity(inputs.len());
    let mut report = ExtractionReport::default();
    for result in results {
        let extracted = result?;
        documents.push(extracted.document);
        report.merge(extracted.report);
    }
    Ok((documents, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_docgen::{render_document, CorpusSpec, SyntheticCorpus};

    #[test]
    fn roundtrip_small_corpus_structure() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        for (rendered, structured) in corpus.rendered.iter().zip(&corpus.structured) {
            let extracted = extract_document(rendered.design, &rendered.text).unwrap();
            assert_eq!(extracted.document.design, structured.design);
            assert_eq!(
                extracted.document.errata.len(),
                structured.errata.len(),
                "{}",
                rendered.design
            );
            assert_eq!(
                extracted.document.revisions.len(),
                structured.revisions.len()
            );
        }
    }

    #[test]
    fn roundtrip_recovers_titles_and_fields() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let mut checked = 0usize;
        for (rendered, structured) in corpus.rendered.iter().zip(&corpus.structured) {
            let extracted = extract_document(rendered.design, &rendered.text).unwrap();
            for (got, want) in extracted.document.errata.iter().zip(&structured.errata) {
                assert_eq!(got.id, want.id);
                assert_eq!(got.title, want.title, "{}", want.id);
                assert_eq!(got.description, want.description, "{}", want.id);
                assert_eq!(got.workaround, want.workaround, "{}", want.id);
                assert_eq!(got.status, want.status, "{}", want.id);
                checked += 1;
            }
        }
        assert!(checked > 50, "only {checked} errata checked");
    }

    #[test]
    fn roundtrip_recovers_revision_added_lists() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        for (rendered, structured) in corpus.rendered.iter().zip(&corpus.structured) {
            let extracted = extract_document(rendered.design, &rendered.text).unwrap();
            for (got, want) in extracted
                .document
                .revisions
                .iter()
                .zip(&structured.revisions)
            {
                assert_eq!(got.number, want.number);
                assert_eq!(
                    got.added, want.added,
                    "{} rev {}",
                    rendered.design, want.number
                );
                // Dates survive at month resolution.
                assert_eq!(got.date.year(), want.date.year());
                assert_eq!(got.date.month(), want.date.month());
            }
        }
    }

    #[test]
    fn defect_detection_matches_injected_counts_on_paper_corpus() {
        let spec = CorpusSpec::paper();
        let corpus = SyntheticCorpus::generate(&spec);
        let (_, report) =
            extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str()))).unwrap();

        let injected = &corpus.truth.defects;
        // Every injected double-add is detected.
        for id in &injected.double_added {
            assert!(report.double_added.contains(id), "{id} missed");
        }
        // Every injected unmentioned erratum is detected.
        for id in &injected.unmentioned {
            assert!(report.unmentioned.contains(id), "{id} missed");
        }
        // The AAJ143-style collision is found.
        for c in &injected.name_collisions {
            assert!(report.name_collisions.contains(c), "{c:?} missed");
        }
        // Wrong MSR numbers are flagged.
        for id in &injected.wrong_msr {
            assert!(
                report.inconsistent_msrs.iter().any(|(e, _)| e == id),
                "{id} missed"
            );
        }
        // Missing/duplicate fields.
        let missing_injected = injected
            .field_defects
            .iter()
            .filter(|(_, k)| !matches!(k, rememberr_docgen::FieldDefect::DuplicateWorkaround))
            .count();
        assert!(report.missing_fields.len() >= missing_injected);
        let dup_injected = injected
            .field_defects
            .iter()
            .filter(|(_, k)| matches!(k, rememberr_docgen::FieldDefect::DuplicateWorkaround))
            .count();
        assert_eq!(report.duplicate_fields.len(), dup_injected);
        // Intra-document duplicates: all injected pairs recovered.
        for pair in &injected.intra_doc_pairs {
            assert!(
                report.intra_doc_duplicates.contains(pair),
                "{pair:?} missed"
            );
        }
    }

    #[test]
    fn garbage_input_fails_cleanly() {
        assert!(extract_document(Design::Intel6, "").is_err());
        assert!(extract_document(
            Design::Intel6,
            "just\nsome\nrandom\ntext\nwithout\nstructure\n"
        )
        .is_err());
    }

    #[test]
    fn rendered_document_roundtrip_on_paper_scale_sample() {
        // Spot-check a full-scale document (the largest Intel one).
        let corpus = SyntheticCorpus::paper();
        let doc = &corpus.structured[0];
        let rendered = render_document(doc, &corpus.truth.defects);
        let extracted = extract_document(doc.design, &rendered.text).unwrap();
        assert_eq!(extracted.document.errata.len(), doc.errata.len());
    }
}
