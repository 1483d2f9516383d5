//! Ground-truth evaluation of the pipeline.
//!
//! The original study could not measure its own extraction or dedup
//! accuracy — there was nothing to compare against. The synthetic corpus
//! ships ground truth, so this module scores:
//!
//! * **deduplication** — pairwise precision/recall of "same bug" decisions
//!   and exact cluster-count agreement;
//! * **classification** — per-category precision/recall/F1 of annotations
//!   against the true labels.

use std::collections::HashMap;

use rememberr_docgen::GroundTruth;
use rememberr_model::{Category, ErratumId, UniqueKey};
use serde::{Deserialize, Serialize};

use crate::db::Database;

/// Precision/recall/F1 triple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Prf {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Prf {
    /// Precision: `tp / (tp + fp)`; 1 if there are no positives.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall: `tp / (tp + fn)`; 1 if there is nothing to find.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accumulates another count triple.
    pub fn add(&mut self, other: Prf) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

/// Result of evaluating duplicate keying against ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DedupEvaluation {
    /// Pairwise same-bug decision quality.
    pub pairs: Prf,
    /// Clusters the database produced.
    pub predicted_clusters: usize,
    /// True unique bugs.
    pub true_clusters: usize,
}

/// Maps each database entry to its true bug key.
///
/// Name-collision identifiers are ambiguous (two bugs share one id); those
/// entries are skipped, exactly as a human analyst would set them aside.
fn truth_keys(db: &Database, truth: &GroundTruth) -> Vec<(usize, UniqueKey)> {
    let mut out = Vec::with_capacity(db.len());
    // Count listings per id so collisions can be skipped.
    let mut id_claims: HashMap<ErratumId, Vec<UniqueKey>> = HashMap::new();
    for bug in &truth.bugs {
        for occ in &bug.occurrences {
            id_claims.entry(occ.id()).or_default().push(bug.key);
        }
    }
    for (i, entry) in db.entries().iter().enumerate() {
        // Unknown ids and collisions are skipped.
        if let Some([key]) = id_claims.get(&entry.id()).map(Vec::as_slice) {
            out.push((i, *key));
        }
    }
    out
}

/// Scores duplicate keying against ground truth.
///
/// Pairwise scoring considers every pair of (unambiguous) entries: a true
/// positive is a pair the database keys together that the truth also keys
/// together.
pub fn evaluate_dedup(db: &Database, truth: &GroundTruth) -> DedupEvaluation {
    let mapped = truth_keys(db, truth);
    let mut pairs = Prf::default();
    for (a_idx, (ia, ka)) in mapped.iter().enumerate() {
        let ea = &db.entries()[*ia];
        for (ib, kb) in mapped.iter().skip(a_idx + 1) {
            let eb = &db.entries()[*ib];
            let predicted_same = ea.key.is_some() && ea.key == eb.key;
            let truly_same = ka == kb;
            match (predicted_same, truly_same) {
                (true, true) => pairs.tp += 1,
                (true, false) => pairs.fp += 1,
                (false, true) => pairs.fn_ += 1,
                (false, false) => {}
            }
        }
    }
    DedupEvaluation {
        pairs,
        predicted_clusters: db.unique_count(),
        true_clusters: truth.bugs.len(),
    }
}

/// Result of evaluating annotations against ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ClassificationEvaluation {
    /// Per-category counts, indexed by [`Category::dense_index`].
    pub per_category: Vec<Prf>,
    /// Aggregate over all categories (micro-average).
    pub overall: Prf,
    /// Entries that were compared (annotated and unambiguous).
    pub compared_entries: usize,
}

impl ClassificationEvaluation {
    /// The counts for one category.
    pub fn category(&self, category: Category) -> Prf {
        self.per_category[category.dense_index()]
    }
}

/// Scores entry annotations against the true labels.
///
/// Entries without an annotation or with ambiguous (collided) identifiers
/// are skipped.
pub fn evaluate_classification(db: &Database, truth: &GroundTruth) -> ClassificationEvaluation {
    let mut per_category = vec![Prf::default(); Category::COUNT];
    let mut compared = 0usize;

    let mut by_key: HashMap<UniqueKey, usize> = HashMap::new();
    for (i, bug) in truth.bugs.iter().enumerate() {
        by_key.insert(bug.key, i);
    }
    let mapped = truth_keys(db, truth);
    for (idx, true_key) in mapped {
        let entry = &db.entries()[idx];
        let Some(ann) = entry.annotation.as_ref() else {
            continue;
        };
        let bug = &truth.bugs[by_key[&true_key]];
        let want = &bug.profile.annotation;
        compared += 1;
        for category in Category::all() {
            let (predicted, actual) = match category {
                Category::Trigger(t) => (ann.triggers.contains(t), want.triggers.contains(t)),
                Category::Context(c) => (ann.contexts.contains(c), want.contexts.contains(c)),
                Category::Effect(e) => (ann.effects.contains(e), want.effects.contains(e)),
            };
            let slot = &mut per_category[category.dense_index()];
            match (predicted, actual) {
                (true, true) => slot.tp += 1,
                (true, false) => slot.fp += 1,
                (false, true) => slot.fn_ += 1,
                (false, false) => {}
            }
        }
    }

    let mut overall = Prf::default();
    for prf in &per_category {
        overall.add(*prf);
    }
    ClassificationEvaluation {
        per_category,
        overall,
        compared_entries: compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::annotate_from_truth;
    use crate::dedup::DedupStrategy;
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

    #[test]
    fn prf_math() {
        let prf = Prf {
            tp: 8,
            fp: 2,
            fn_: 4,
        };
        assert!((prf.precision() - 0.8).abs() < 1e-12);
        assert!((prf.recall() - 8.0 / 12.0).abs() < 1e-12);
        assert!(prf.f1() > 0.7 && prf.f1() < 0.8);
        let empty = Prf::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.f1(), 1.0);
    }

    #[test]
    fn default_dedup_is_perfect_on_synthetic_corpus() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.08));
        let db = Database::from_documents(&corpus.structured);
        let eval = evaluate_dedup(&db, &corpus.truth);
        assert_eq!(eval.predicted_clusters, eval.true_clusters);
        assert_eq!(eval.pairs.fp, 0, "false merges");
        assert_eq!(eval.pairs.fn_, 0, "missed duplicates");
    }

    #[test]
    fn exact_title_only_misses_near_duplicates() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.3));
        let db = Database::from_documents_with(&corpus.structured, DedupStrategy::ExactTitleOnly);
        let eval = evaluate_dedup(&db, &corpus.truth);
        // The ablation baseline over-splits: near-duplicate listings stay
        // apart, giving missed pairs and extra clusters.
        assert!(eval.pairs.fn_ > 0);
        assert!(eval.predicted_clusters > eval.true_clusters);
        assert_eq!(eval.pairs.fp, 0);
    }

    #[test]
    fn perfect_annotations_score_one() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let mut db = Database::from_documents(&corpus.structured);
        annotate_from_truth(&mut db, &corpus.truth);
        let eval = evaluate_classification(&db, &corpus.truth);
        assert!(eval.compared_entries > 0);
        assert_eq!(eval.overall.fp, 0);
        assert_eq!(eval.overall.fn_, 0);
        assert_eq!(eval.overall.f1(), 1.0);
    }

    #[test]
    fn wrong_annotations_are_penalized() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let mut db = Database::from_documents(&corpus.structured);
        // Annotate everything with an empty annotation: all true categories
        // become false negatives.
        let empty: HashMap<UniqueKey, _> = db
            .unique_entries()
            .iter()
            .map(|rep| (rep.key.unwrap(), Default::default()))
            .collect();
        db.annotate_keys(&empty);
        let eval = evaluate_classification(&db, &corpus.truth);
        assert_eq!(eval.overall.fp, 0);
        assert!(eval.overall.fn_ > 0);
        assert!(eval.overall.recall() < 0.1);
    }

    #[test]
    fn unannotated_entries_are_skipped() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let db = Database::from_documents(&corpus.structured);
        let eval = evaluate_classification(&db, &corpus.truth);
        assert_eq!(eval.compared_entries, 0);
        assert_eq!(eval.overall.f1(), 1.0); // vacuous truth
    }
}
