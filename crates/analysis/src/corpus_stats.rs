//! Corpus-level statistics: Table III and the Section IV-A numbers.

use rememberr::Database;
use rememberr_extract::ExtractionReport;
use rememberr_model::{Design, Vendor};
use serde::{Deserialize, Serialize};

/// The Section IV-A headline numbers plus the per-document inventory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Total entries per vendor (paper: Intel 2,057, AMD 506).
    pub totals: Vec<(Vendor, usize)>,
    /// Unique bugs per vendor (paper: Intel 743, AMD 385).
    pub uniques: Vec<(Vendor, usize)>,
    /// Entries per document, in Table III order.
    pub per_document: Vec<(String, usize)>,
    /// Cascade merges (the counterpart of the 29 manual Intel pairs).
    pub cascade_merges: usize,
}

/// Computes corpus statistics from a keyed database.
pub fn corpus_stats(db: &Database) -> CorpusStats {
    CorpusStats {
        totals: Vendor::ALL
            .iter()
            .map(|&v| (v, db.total_count_for(v)))
            .collect(),
        uniques: Vendor::ALL
            .iter()
            .map(|&v| (v, db.unique_count_for(v)))
            .collect(),
        per_document: Design::ALL
            .iter()
            .map(|&d| (d.label().to_string(), db.entries_for(d).count()))
            .collect(),
        cascade_merges: db.dedup_stats().cascade_merges,
    }
}

impl CorpusStats {
    /// Renders the stats as text (the Table III-style inventory).
    pub fn render_text(&self) -> String {
        let mut out = String::from("== Corpus statistics (Table III / Section IV-A) ==\n");
        for ((vendor, total), (_, unique)) in self.totals.iter().zip(&self.uniques) {
            out.push_str(&format!(
                "{vendor}: {total} errata collected, {unique} unique\n"
            ));
        }
        out.push_str(&format!(
            "similarity-cascade merges (manual pairs in the study): {}\n",
            self.cascade_merges
        ));
        out.push_str("per document:\n");
        for (label, count) in &self.per_document {
            out.push_str(&format!("  {label:<16} {count:>5}\n"));
        }
        out
    }
}

/// Renders the "errata in errata" defect report (Section IV-A).
pub fn render_defect_report(report: &ExtractionReport) -> String {
    let docs = |ids: &[rememberr_model::ErratumId]| {
        let mut designs: Vec<Design> = ids.iter().map(|id| id.design).collect();
        designs.sort_by_key(|d| d.index());
        designs.dedup();
        designs.len()
    };
    let mut out = String::from("== Errata in errata (Section IV-A) ==\n");
    out.push_str(&format!(
        "double-added revision claims : {:>3} errata across {} documents\n",
        report.double_added.len(),
        docs(&report.double_added)
    ));
    out.push_str(&format!(
        "missing from revision notes  : {:>3} errata across {} documents\n",
        report.unmentioned.len(),
        docs(&report.unmentioned)
    ));
    out.push_str(&format!(
        "reused erratum names         : {:>3}\n",
        report.name_collisions.len()
    ));
    out.push_str(&format!(
        "missing/duplicated fields    : {:>3} defects\n",
        report.missing_fields.len() + report.duplicate_fields.len()
    ));
    out.push_str(&format!(
        "erroneous MSR numbers        : {:>3} errata\n",
        report.inconsistent_msrs.len()
    ));
    out.push_str(&format!(
        "intra-document duplicates    : {:>3} candidate pairs\n",
        report.intra_doc_duplicates.len()
    ));
    out.push_str(&format!(
        "status vs summary-table      : {:>3} mismatches\n",
        report.status_summary_mismatches.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;
    use rememberr_extract::extract_corpus;

    #[test]
    fn paper_corpus_headline_numbers() {
        let stats = corpus_stats(&fixture(1.0).db);
        assert_eq!(
            stats.totals,
            vec![(Vendor::Intel, 2_057), (Vendor::Amd, 506)]
        );
        assert_eq!(
            stats.uniques,
            vec![(Vendor::Intel, 743), (Vendor::Amd, 385)]
        );
        assert_eq!(stats.per_document.len(), 28);
        let text = stats.render_text();
        assert!(text.contains("Intel: 2057 errata collected, 743 unique"));
    }

    #[test]
    fn defect_report_renders_counts() {
        let corpus = &fixture(1.0).corpus;
        let (_, report) =
            extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str()))).unwrap();
        let text = render_defect_report(&report);
        assert!(text.contains("double-added revision claims :   8 errata across 3 documents"));
        assert!(text.contains("missing from revision notes  :  12 errata across 2 documents"));
        assert!(text.contains("reused erratum names         :   1"));
        assert!(text.contains("erroneous MSR numbers        :   3"));
        // 11 injected intra-document pairs plus the AMD near-miss pair.
        assert_eq!(report.intra_doc_duplicates.len(), 12);
    }
}
