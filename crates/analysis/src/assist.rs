//! The syntax-highlighting assist over a classified database.
//!
//! The study's annotation UI highlighted rule matches inside each erratum
//! so reviewers could see *why* a category was suggested (Section V-A1).
//! This module recomputes those highlights for every unique erratum and
//! summarizes them — how many errata light up, how often each category
//! label fires — so reports can quantify how much reading the assist
//! saves.
//!
//! Two entry points share one implementation: [`assist_highlights`]
//! re-tokenizes each representative's text, while
//! [`assist_highlights_analyzed`] borrows the already-prepared text and the
//! rule-match pass that classification memoized from an [`AnalyzedCorpus`]
//! (the single-pass pipeline's shared arena), skipping both the
//! tokenization and a second match pass.

use std::collections::{BTreeMap, HashMap};

use rememberr::Database;
use rememberr_classify::Rules;
use rememberr_model::ErratumId;
use rememberr_textkit::{
    highlights_prepared, highlights_prepared_filtered, AnalyzedCorpus, PreparedText,
};

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

/// Computes the highlighting assist, re-tokenizing each representative.
pub fn assist_highlights(db: &Database, rules: &Rules) -> AssistSummary {
    assist_impl(db, rules, None)
}

/// [`assist_highlights`] over a database whose entries were already
/// tokenized into an [`AnalyzedCorpus`] (index `i` of the corpus must hold
/// the preparation of entry `i`'s full text).
pub fn assist_highlights_analyzed(
    db: &Database,
    rules: &Rules,
    corpus: &AnalyzedCorpus,
) -> AssistSummary {
    assert_eq!(
        corpus.len(),
        db.entries().len(),
        "analyzed corpus must align with the database entries"
    );
    assist_impl(db, rules, Some(corpus))
}

fn assist_impl(db: &Database, rules: &Rules, corpus: Option<&AnalyzedCorpus>) -> AssistSummary {
    let _span = rememberr_obs::span!("analysis.assist");
    let patterns = rules.highlight_set();

    // Identifiers can collide across vendors; resolve each representative
    // to its first occurrence, matching `Database::entry` and the analyzed
    // corpus's positional alignment with the entry slice.
    let mut index_of: HashMap<ErratumId, usize> = HashMap::new();
    for (i, entry) in db.entries().iter().enumerate() {
        index_of.entry(entry.id()).or_insert(i);
    }
    let rep_entries: Vec<usize> = db
        .unique_entries()
        .iter()
        .map(|e| index_of[&e.id()])
        .collect();

    // Highlighting is pure per representative, so it fans out across
    // workers; the label tally folds the input-ordered results
    // sequentially, keeping the summary identical at every worker count.
    let per_rep: Vec<(usize, Vec<String>)> = rememberr_par::par_map(&rep_entries, |&i| {
        let entry = &db.entries()[i];
        let highlights = match corpus {
            // The highlight set is the strong rule library in library
            // order (see `Rules::highlight_set`), which is also how the
            // shared matcher numbers its first pattern ids — so the
            // representative's match set, memoized in the corpus when
            // classification matched it, prunes the set to the rules that
            // match this text, and only those are scanned for their full
            // span lists. Pruning is lossless: the output is identical to
            // the exhaustive scan the per-stage arm performs.
            Some(corpus) => {
                let matches = corpus.match_set(i, rules.matcher());
                highlights_prepared_filtered(&patterns, corpus.text(i), |id| matches.is_match(id))
            }
            None => highlights_prepared(
                &patterns,
                &PreparedText::from_string(entry.erratum.full_text()),
            ),
        };
        let mut labels: Vec<String> = highlights
            .iter()
            .flat_map(|h| h.labels.iter().cloned())
            .collect();
        labels.sort();
        labels.dedup();
        (highlights.len(), labels)
    });

    let mut summary = AssistSummary {
        unique_errata: rep_entries.len(),
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
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
    use rememberr_model::Vendor;
    use rememberr_textkit::DocText;

    #[test]
    fn assist_finds_highlights_and_agrees_with_analyzed_path() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let db = Database::from_documents(&corpus.structured);
        let rules = Rules::standard();

        let per_stage = assist_highlights(&db, &rules);
        assert!(per_stage.unique_errata > 0);
        assert!(per_stage.total_highlights > 0, "{per_stage:?}");
        assert!(per_stage.coverage() > 0.5, "{per_stage:?}");

        let arena = AnalyzedCorpus::analyze(db.entries(), |e| DocText {
            text: e.erratum.full_text(),
            title_len: e.erratum.title.len(),
            analyze_title: e.vendor() == Vendor::Intel,
        });
        let analyzed = assist_highlights_analyzed(&db, &rules, &arena);
        assert_eq!(per_stage, analyzed);
    }

    #[test]
    fn empty_database_yields_empty_summary() {
        let db = Database::from_documents(&[]);
        let summary = assist_highlights(&db, &Rules::standard());
        assert_eq!(summary.unique_errata, 0);
        assert_eq!(summary.coverage(), 0.0);
        assert!(summary.label_hits.is_empty());
    }
}
