//! The syntax-highlighting assist over a classified database.
//!
//! The study's annotation UI highlighted rule matches inside each erratum
//! so reviewers could see *why* a category was suggested (Section V-A1).
//! This module recomputes those highlights for every unique erratum and
//! summarizes them — how many errata light up, how often each category
//! label fires — so reports can quantify how much reading the assist
//! saves.
//!
//! [`assist_highlights_analyzed`] reads each representative's rule-match
//! pass that classification memoized in the shared arena
//! ([`Database::analyze_representatives`]), whose match set holds every
//! span, so it neither tokenizes nor scans again.

use std::collections::BTreeMap;

use rememberr::Database;
use rememberr_classify::Rules;
use rememberr_textkit::{highlights_matched, AnalyzedCorpus};

/// Summary of the highlighting assist over a database's unique errata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssistSummary {
    /// Unique errata the assist ran over.
    pub unique_errata: usize,
    /// Unique errata with at least one highlighted region.
    pub highlighted_errata: usize,
    /// Total merged highlight regions across all unique errata.
    pub total_highlights: usize,
    /// How many errata each category label appears in, by label.
    pub label_hits: BTreeMap<String, usize>,
}

impl AssistSummary {
    /// Fraction of unique errata with at least one highlight.
    pub fn coverage(&self) -> f64 {
        if self.unique_errata == 0 {
            return 0.0;
        }
        self.highlighted_errata as f64 / self.unique_errata as f64
    }
}

/// Computes the highlighting assist over every representative.
///
/// `corpus` must be [`Database::analyze_representatives`] of `db`: document
/// `k` is the `k`-th representative's text.
pub fn assist_highlights_analyzed(
    db: &Database,
    rules: &Rules,
    corpus: &AnalyzedCorpus,
) -> AssistSummary {
    let _span = rememberr_obs::span!("analysis.assist");
    assert_eq!(
        corpus.len(),
        db.unique_entries().len(),
        "analyzed corpus must hold one document per representative"
    );
    let patterns = rules.highlight_set();
    let docs: Vec<usize> = (0..corpus.len()).collect();

    // Highlighting is pure per representative, so it fans out across
    // workers; the label tally folds the input-ordered results
    // sequentially, keeping the summary identical at every worker count.
    let per_rep: Vec<(usize, Vec<String>)> = rememberr_par::par_map(&docs, |&k| {
        // The highlight set is the strong rule library in library order
        // (see `Rules::highlight_set`), which is also how the shared
        // matcher numbers its first pattern ids — so the representative's
        // match set, memoized in the corpus when classification matched
        // it, already holds every span of every highlight pattern, and
        // nothing is scanned. The output equals the exhaustive scan
        // `rememberr_textkit::highlights` performs.
        let highlights = highlights_matched(&patterns, &corpus.match_set(k, rules.matcher()));
        let mut labels: Vec<String> = highlights
            .iter()
            .flat_map(|h| h.labels.iter().cloned())
            .collect();
        labels.sort();
        labels.dedup();
        (highlights.len(), labels)
    });

    let mut summary = AssistSummary {
        unique_errata: corpus.len(),
        highlighted_errata: 0,
        total_highlights: 0,
        label_hits: BTreeMap::new(),
    };
    for (total, labels) in per_rep {
        summary.total_highlights += total;
        if total > 0 {
            summary.highlighted_errata += 1;
        }
        for label in labels {
            *summary.label_hits.entry(label).or_insert(0) += 1;
        }
    }
    rememberr_obs::count("analysis.assist_docs", summary.unique_errata as u64);
    rememberr_obs::count(
        "analysis.assist_highlights",
        summary.total_highlights as u64,
    );
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_classify::{
        classify_database_analyzed, FourEyesConfig, HumanOracle, MatcherKind,
    };

    use crate::fixtures::fixture;

    #[test]
    fn assist_finds_highlights_and_agrees_with_analyzed_path() {
        let mut db = Database::from_documents(&fixture(0.05).corpus.structured);
        let rules = Rules::standard();

        // A fresh arena: the assist runs its own match passes.
        let fresh = assist_highlights_analyzed(&db, &rules, &db.analyze_representatives());
        assert!(fresh.unique_errata > 0);
        assert!(fresh.total_highlights > 0, "{fresh:?}");
        assert!(fresh.coverage() > 0.5, "{fresh:?}");

        // The analyzed path: the assist reads the match sets that
        // classification memoized in the shared arena.
        let arena = db.analyze_representatives();
        classify_database_analyzed(
            &mut db,
            &rules,
            HumanOracle::None,
            &FourEyesConfig::default(),
            MatcherKind::default(),
            &arena,
        );
        assert_eq!(assist_highlights_analyzed(&db, &rules, &arena), fresh);
    }

    #[test]
    fn empty_database_yields_empty_summary() {
        let db = Database::from_documents(&[]);
        let summary =
            assist_highlights_analyzed(&db, &Rules::standard(), &db.analyze_representatives());
        assert_eq!(summary.unique_errata, 0);
        assert_eq!(summary.coverage(), 0.0);
        assert!(summary.label_hits.is_empty());
    }
}
