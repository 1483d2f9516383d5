//! End-to-end classification of a database.
//!
//! Mirrors the study's workflow (Section V-A1):
//!
//! 1. merge identical unique errata (annotation happens once per cluster);
//! 2. auto-decide erratum-category pairs with the rule library;
//! 3. route the remaining pairs through the four-eyes process;
//! 4. attach the final annotations to every cluster member.

use std::collections::HashMap;

use rememberr::Database;
use rememberr_docgen::GroundTruth;
use rememberr_model::{Annotation, Category, ErratumId, UniqueKey};
use rememberr_textkit::AnalyzedCorpus;
use serde::{Deserialize, Serialize};

/// Concrete-snippet placeholder for categories added by human reviewers,
/// who assign an abstract category without quoting erratum text.
const HUMAN_SNIPPET: &str = "[four-eyes]";

use crate::auto::{classify_matched, classify_prepared_with, MatcherKind};
use crate::foureyes::{run_four_eyes_over, FourEyesConfig, FourEyesOutcome, HumanItem};
use crate::rules::Rules;

/// Who answers the pairs the relevance filter could not decide.
#[derive(Debug, Clone, Copy)]
pub enum HumanOracle<'a> {
    /// Nobody: undecided pairs default to "not relevant" (pure-auto mode).
    None,
    /// Simulated annotators reading ground truth through a noise model.
    Simulated(&'a GroundTruth),
}

/// Workload statistics of a classification run (the Section V-A1 numbers:
/// `1128 x 60 = 67,680` raw decisions, reduced to 2,064 per human).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionStats {
    /// Unique errata classified.
    pub unique_errata: usize,
    /// Raw decisions per human before filtering (`unique x 60`).
    pub raw_decisions: usize,
    /// Decisions resolved automatically by the relevance filter.
    pub auto_decided: usize,
    /// Decisions left for each human.
    pub human_decisions: usize,
}

impl DecisionStats {
    /// Fraction of raw decisions eliminated by the filter.
    pub fn reduction(&self) -> f64 {
        if self.raw_decisions == 0 {
            return 0.0;
        }
        1.0 - self.human_decisions as f64 / self.raw_decisions as f64
    }
}

/// Result of classifying a database.
#[derive(Debug, Clone)]
pub struct ClassificationRun {
    /// Workload statistics.
    pub stats: DecisionStats,
    /// The four-eyes simulation output (when an oracle was available).
    pub four_eyes: Option<FourEyesOutcome>,
}

/// Classifies every cluster of the database in place with the default
/// (indexed) rule matcher.
///
/// Returns workload statistics and, when `oracle` is
/// [`HumanOracle::Simulated`], the four-eyes step reports that regenerate
/// Figures 8 and 9. Tokenizes each representative once
/// ([`Database::analyze_representatives`]); see
/// [`classify_database_analyzed`] to share that arena with later stages.
pub fn classify_database(
    db: &mut Database,
    rules: &Rules,
    oracle: HumanOracle<'_>,
    config: &FourEyesConfig,
) -> ClassificationRun {
    let corpus = db.analyze_representatives();
    classify_database_analyzed(db, rules, oracle, config, MatcherKind::default(), &corpus)
}

/// [`classify_database`] over a given arena and rule matcher.
///
/// `corpus` must be [`Database::analyze_representatives`] of `db`: document
/// `k` is the `k`-th representative's text. The indexed matcher reads the
/// representative's memoized match set ([`AnalyzedCorpus::match_set`]),
/// which the highlighting assist reuses. The `matcher` choice
/// ([`MatcherKind`]) never changes the database or the statistics.
pub fn classify_database_analyzed(
    db: &mut Database,
    rules: &Rules,
    oracle: HumanOracle<'_>,
    config: &FourEyesConfig,
    matcher: MatcherKind,
    corpus: &AnalyzedCorpus,
) -> ClassificationRun {
    let _span = rememberr_obs::span!("classify.database");
    // One representative per cluster ("we merge identical unique errata").
    let unique = db.unique_entries();
    assert_eq!(
        corpus.len(),
        unique.len(),
        "analyzed corpus must hold one document per representative"
    );
    let representatives: Vec<(ErratumId, UniqueKey)> = unique
        .iter()
        .map(|e| (e.id(), e.key.expect("deduplicated database")))
        .collect();

    let mut annotations: HashMap<UniqueKey, Annotation> = HashMap::new();
    let mut human_items: Vec<HumanItem> = Vec::new();
    let mut auto_decided = 0usize;

    // Ground-truth lookup for the simulated annotators.
    let truth_by_id: HashMap<ErratumId, &rememberr_docgen::TrueBug> = match oracle {
        HumanOracle::Simulated(truth) => {
            let mut map = HashMap::new();
            for bug in &truth.bugs {
                for occ in &bug.occurrences {
                    map.insert(occ.id(), bug);
                }
            }
            map
        }
        HumanOracle::None => HashMap::new(),
    };

    // Rule classification is pure per representative, so it fans out across
    // workers; everything order-sensitive below (annotation bookkeeping,
    // human-item collection, the seeded four-eyes simulation) consumes the
    // results sequentially in representative order, keeping the run
    // identical at every worker count.
    let autos = {
        let _span = rememberr_obs::span!("classify.rules");
        rememberr_par::par_map_indexed(&unique, |k, entry| match matcher {
            MatcherKind::Indexed => classify_matched(
                rules,
                &entry.erratum,
                corpus.text(k),
                &corpus.match_set(k, rules.matcher()),
            ),
            MatcherKind::Exhaustive => {
                classify_prepared_with(rules, &entry.erratum, corpus.text(k), matcher)
            }
        })
    };

    for ((id, key), auto) in representatives.iter().zip(autos) {
        auto_decided += auto.auto_decided;
        annotations.insert(*key, auto.annotation);

        if let HumanOracle::Simulated(_) = oracle {
            if let Some(bug) = truth_by_id.get(id) {
                let want = &bug.profile.annotation;
                for category in auto.needs_human {
                    let truth = match category {
                        Category::Trigger(t) => want.triggers.contains(t),
                        Category::Context(c) => want.contexts.contains(c),
                        Category::Effect(e) => want.effects.contains(e),
                    };
                    human_items.push(HumanItem {
                        id: *id,
                        category,
                        truth,
                    });
                }
            }
        }
    }

    // Four-eyes resolution of the undecided pairs.
    let four_eyes = match oracle {
        HumanOracle::Simulated(_) => {
            // Batch over the full unique-errata population: Figure 8 counts
            // every classified erratum, not only those needing human items.
            let population: Vec<ErratumId> = representatives.iter().map(|(id, _)| *id).collect();
            let outcome = {
                let _span = rememberr_obs::span!("classify.four_eyes");
                run_four_eyes_over(config, &population, &human_items)
            };
            let key_of: HashMap<ErratumId, UniqueKey> = representatives.iter().copied().collect();
            for resolution in &outcome.resolutions {
                if !resolution.relevant {
                    continue;
                }
                let key = key_of[&resolution.id];
                let ann = annotations.get_mut(&key).expect("annotated representative");
                // Human-added categories carry no text snippet; a visible
                // placeholder keeps the concrete lists parallel AND survives
                // the Table VII render/parse round-trip (an empty string
                // would vanish on re-parse).
                match resolution.category {
                    Category::Trigger(t) => {
                        if ann.triggers.insert(t) {
                            ann.concrete_triggers.push(HUMAN_SNIPPET.to_string());
                        }
                    }
                    Category::Context(c) => {
                        if ann.contexts.insert(c) {
                            ann.concrete_contexts.push(HUMAN_SNIPPET.to_string());
                        }
                    }
                    Category::Effect(e) => {
                        if ann.effects.insert(e) {
                            ann.concrete_effects.push(HUMAN_SNIPPET.to_string());
                        }
                    }
                }
            }
            Some(outcome)
        }
        HumanOracle::None => None,
    };

    // Attach to every cluster member (by key: identifiers can collide).
    db.annotate_keys(&annotations);

    let unique_errata = representatives.len();
    let stats = DecisionStats {
        unique_errata,
        raw_decisions: unique_errata * Category::COUNT,
        auto_decided,
        human_decisions: human_items.len(),
    };
    // The paper's 67,680 -> 2,064 workload reduction, as live counters.
    rememberr_obs::count("classify.raw_decisions", stats.raw_decisions as u64);
    rememberr_obs::count("classify.relevance_eliminations", stats.auto_decided as u64);
    rememberr_obs::count("classify.human_decisions", stats.human_decisions as u64);
    if let Some(outcome) = &four_eyes {
        rememberr_obs::count("classify.four_eyes_steps", outcome.steps.len() as u64);
        rememberr_obs::count(
            "classify.four_eyes_resolutions",
            outcome.resolutions.len() as u64,
        );
    }
    ClassificationRun { stats, four_eyes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr::evaluate_classification;
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

    fn classified(scale: f64) -> (SyntheticCorpus, Database, ClassificationRun) {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(scale));
        let mut db = Database::from_documents(&corpus.structured);
        let rules = Rules::standard();
        let run = classify_database(
            &mut db,
            &rules,
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
        );
        (corpus, db, run)
    }

    #[test]
    fn every_entry_gets_annotated() {
        let (_, db, _) = classified(0.05);
        assert!(db.entries().iter().all(|e| e.annotation.is_some()));
    }

    #[test]
    fn decision_stats_add_up() {
        let (_, _, run) = classified(0.05);
        assert_eq!(
            run.stats.auto_decided + run.stats.human_decisions,
            run.stats.raw_decisions
        );
        assert!(run.stats.reduction() > 0.9, "{:?}", run.stats);
    }

    #[test]
    fn classification_quality_is_high() {
        let (corpus, db, _) = classified(0.1);
        let eval = evaluate_classification(&db, &corpus.truth);
        assert!(eval.compared_entries > 0);
        let f1 = eval.overall.f1();
        assert!(f1 > 0.75, "overall F1 {f1}");
    }

    #[test]
    fn pure_auto_mode_still_annotates() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let mut db = Database::from_documents(&corpus.structured);
        let rules = Rules::standard();
        let run = classify_database(
            &mut db,
            &rules,
            HumanOracle::None,
            &FourEyesConfig::default(),
        );
        assert!(run.four_eyes.is_none());
        assert_eq!(run.stats.human_decisions, 0);
        assert!(db.entries().iter().all(|e| e.annotation.is_some()));
    }

    #[test]
    fn four_eyes_reports_cover_all_unique_errata_with_human_items() {
        let (_, _, run) = classified(0.1);
        let outcome = run.four_eyes.expect("simulated oracle");
        assert_eq!(outcome.steps.len(), 7);
        assert_eq!(outcome.resolutions.len(), run.stats.human_decisions,);
    }

    #[test]
    fn matchers_produce_identical_databases() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let rules = Rules::standard();
        let mut runs = Vec::new();
        for matcher in [MatcherKind::Indexed, MatcherKind::Exhaustive] {
            let mut db = Database::from_documents(&corpus.structured);
            let arena = db.analyze_representatives();
            let run = classify_database_analyzed(
                &mut db,
                &rules,
                HumanOracle::Simulated(&corpus.truth),
                &FourEyesConfig::default(),
                matcher,
                &arena,
            );
            runs.push((db, run.stats));
        }
        let (db_a, stats_a) = &runs[0];
        let (db_b, stats_b) = &runs[1];
        assert_eq!(stats_a, stats_b);
        assert_eq!(db_a.entries(), db_b.entries());
    }

    #[test]
    fn two_rule_libraries_over_one_arena_each_get_their_own_matches() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let db = Database::from_documents(&corpus.structured);
        let arena = db.analyze_representatives();
        // A small library whose pattern ids mean something else than the
        // standard library's; it runs first, so the arena memoizes its
        // match sets.
        let small = Rules::compile(
            &[("Trg_EXT_rst", "reset"), ("Eff_HNG_hng", "hang|hangs")],
            &[("Trg_POW_pwc", "power")],
            &["complex set of conditions"],
        )
        .unwrap();
        for rules in [&small, &Rules::standard()] {
            let mut own_arena = db.clone();
            let own_run = classify_database(
                &mut own_arena,
                rules,
                HumanOracle::None,
                &FourEyesConfig::default(),
            );
            let mut shared_arena = db.clone();
            let shared_run = classify_database_analyzed(
                &mut shared_arena,
                rules,
                HumanOracle::None,
                &FourEyesConfig::default(),
                MatcherKind::default(),
                &arena,
            );
            assert_eq!(own_run.stats, shared_run.stats);
            assert_eq!(own_arena.entries(), shared_arena.entries());
        }
    }

    #[test]
    fn cluster_members_share_annotations() {
        let (_, db, _) = classified(0.08);
        for rep in db.unique_entries() {
            let key = rep.key.unwrap();
            let ann = rep.annotation.as_ref().unwrap();
            for member in db.cluster(key) {
                assert_eq!(member.annotation.as_ref(), Some(ann));
            }
        }
    }
}
