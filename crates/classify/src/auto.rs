//! Automatic classification of errata.

use rememberr_extract::scan_msr_refs;
use rememberr_model::{Annotation, Category, Erratum};
use rememberr_textkit::PreparedText;

use crate::rules::Rules;

/// The outcome of the relevance filter for one erratum-category pair.
///
/// The paper reduces `1128 x 60 = 67,680` per-human decisions to 2,064 by
/// filtering pairs that are "clearly relevant" or "clearly irrelevant" with
/// conservative regular expressions; only the rest needs human judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// A strong rule matched: the category applies.
    AutoRelevant,
    /// No rule matched at all: the category does not apply.
    AutoIrrelevant,
    /// Only a weak cue matched: a human must decide.
    NeedsHuman,
}

/// How the rule library is matched against an erratum.
///
/// Both matchers produce byte-identical classifications (annotations,
/// snippets, decision statistics); they differ only in how much positional
/// pattern-evaluation work they pay for. Mirrors the dedup pipeline's
/// `CandidateGen` oracle split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MatcherKind {
    /// One indexed pass over the whole library via the shared
    /// [`rememberr_textkit::RuleMatcher`]: only patterns whose anchor token
    /// is present in the erratum are positionally evaluated, and each
    /// evaluation yields decision and snippet span together.
    #[default]
    Indexed,
    /// The original pattern-by-pattern positional scan, kept as the
    /// correctness oracle the equivalence suites compare against.
    Exhaustive,
}

/// Counter name for a strong-rule hit, split by category kind so the
/// metrics snapshot shows where the rule library fires.
fn rule_fired_counter(category: Category) -> &'static str {
    match category {
        Category::Trigger(_) => "classify.trigger_rules_fired",
        Category::Context(_) => "classify.context_rules_fired",
        Category::Effect(_) => "classify.effect_rules_fired",
    }
}

/// Classifies one erratum-category pair.
pub fn decide(rules: &Rules, text: &PreparedText, category: Category) -> Decision {
    if rules.strong_for(category).any(|p| p.is_match(text)) {
        Decision::AutoRelevant
    } else if rules.weak_for(category).any(|p| p.is_match(text)) {
        Decision::NeedsHuman
    } else {
        Decision::AutoIrrelevant
    }
}

/// Prepares the classification text of an erratum (all prose fields).
///
/// The prepared text takes ownership of the joined prose, so snippet
/// extraction slices the same allocation instead of rebuilding it.
pub fn prepare(erratum: &Erratum) -> PreparedText {
    PreparedText::from_string(erratum.full_text())
}

/// The automatic classification of one erratum: resolved categories plus
/// the pairs needing human judgement.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoClassification {
    /// Annotation from auto-relevant categories only.
    pub annotation: Annotation,
    /// Categories whose decision is [`Decision::NeedsHuman`].
    pub needs_human: Vec<Category>,
    /// Total number of pairs auto-decided (relevant + irrelevant).
    pub auto_decided: usize,
}

/// One category's resolution: the relevance decision plus, when a strong
/// rule fired, the concrete snippet it matched.
enum Resolved {
    Relevant(String),
    Irrelevant,
    Human,
}

/// Runs the rule library over one erratum with the default (indexed)
/// matcher. See [`classify_erratum_with`].
pub fn classify_erratum(rules: &Rules, erratum: &Erratum) -> AutoClassification {
    classify_erratum_with(rules, erratum, MatcherKind::default())
}

/// Runs the rule library over one erratum.
///
/// Concrete-level snippets are filled with the text regions the strong
/// rules matched; MSR references found in the description are attached; the
/// "complex set of conditions" flag is set when a marker matches.
///
/// Both [`MatcherKind`]s produce identical output; they record their
/// positional-evaluation effort in the `classify.pattern_evals` /
/// `classify.patterns_pruned` counters.
pub fn classify_erratum_with(
    rules: &Rules,
    erratum: &Erratum,
    matcher: MatcherKind,
) -> AutoClassification {
    classify_prepared_with(rules, erratum, &prepare(erratum), matcher)
}

/// [`classify_erratum_with`] over text that is already tokenized, so
/// callers holding the erratum's [`PreparedText`] — the single-pass
/// pipeline borrows it from an [`rememberr_textkit::AnalyzedCorpus`] — skip
/// the re-tokenization. `text` must be the preparation of
/// `erratum.full_text()`; snippets are sliced out of it.
pub fn classify_prepared_with(
    rules: &Rules,
    erratum: &Erratum,
    text: &PreparedText,
    matcher: MatcherKind,
) -> AutoClassification {
    let mut annotation = Annotation::new();
    let mut needs_human = Vec::new();
    let mut auto_decided = 0usize;

    let complex = match matcher {
        MatcherKind::Indexed => {
            let matches = rules.matcher().match_doc(text);
            rememberr_obs::count("classify.pattern_evals", matches.evaluated);
            rememberr_obs::count("classify.patterns_pruned", matches.pruned);
            for category in Category::all() {
                let resolved = if let Some(span) = rules
                    .strong_ids_for(category)
                    .iter()
                    .find_map(|&id| matches.first_span(id))
                {
                    // Decision and snippet come from the same pass: the
                    // match set already holds the first span of the first
                    // matching strong rule.
                    Resolved::Relevant(text.snippet(span).to_string())
                } else if rules.weak_ids_for(category).any(|id| matches.is_match(id)) {
                    Resolved::Human
                } else {
                    Resolved::Irrelevant
                };
                apply(
                    resolved,
                    category,
                    &mut annotation,
                    &mut needs_human,
                    &mut auto_decided,
                );
            }
            rules.complex_ids().any(|id| matches.is_match(id))
        }
        MatcherKind::Exhaustive => {
            // The original shape: every category filters the library and
            // scans pattern-by-pattern, then re-scans to cut the snippet.
            let mut evals = 0u64;
            for category in Category::all() {
                let mut matched = false;
                for p in rules.strong_for(category) {
                    evals += 1;
                    if p.is_match(text) {
                        matched = true;
                        break;
                    }
                }
                let resolved = if matched {
                    let mut snippet = None;
                    for p in rules.strong_for(category) {
                        evals += 1;
                        if let Some(span) = p.find_in(text).first() {
                            snippet = Some(text.snippet(*span).to_string());
                            break;
                        }
                    }
                    Resolved::Relevant(snippet.unwrap_or_default())
                } else {
                    let mut human = false;
                    for p in rules.weak_for(category) {
                        evals += 1;
                        if p.is_match(text) {
                            human = true;
                            break;
                        }
                    }
                    if human {
                        Resolved::Human
                    } else {
                        Resolved::Irrelevant
                    }
                };
                apply(
                    resolved,
                    category,
                    &mut annotation,
                    &mut needs_human,
                    &mut auto_decided,
                );
            }
            let mut complex = false;
            for p in rules.complex() {
                evals += 1;
                if p.is_match(text) {
                    complex = true;
                    break;
                }
            }
            rememberr_obs::count("classify.pattern_evals", evals);
            complex
        }
    };

    annotation.msrs = scan_msr_refs(&erratum.description);
    annotation.complex_conditions = complex;

    AutoClassification {
        annotation,
        needs_human,
        auto_decided,
    }
}

/// Folds one category's resolution into the classification under way.
fn apply(
    resolved: Resolved,
    category: Category,
    annotation: &mut Annotation,
    needs_human: &mut Vec<Category>,
    auto_decided: &mut usize,
) {
    match resolved {
        Resolved::Relevant(snippet) => {
            *auto_decided += 1;
            rememberr_obs::count(rule_fired_counter(category), 1);
            match category {
                Category::Trigger(t) => {
                    annotation.triggers.insert(t);
                    annotation.concrete_triggers.push(snippet);
                }
                Category::Context(c) => {
                    annotation.contexts.insert(c);
                    annotation.concrete_contexts.push(snippet);
                }
                Category::Effect(e) => {
                    annotation.effects.insert(e);
                    annotation.concrete_effects.push(snippet);
                }
            }
        }
        Resolved::Irrelevant => *auto_decided += 1,
        Resolved::Human => needs_human.push(category),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_model::{Context, Design, Effect, ErratumId, MsrName, Trigger};

    fn erratum(description: &str, title: &str) -> Erratum {
        Erratum {
            id: ErratumId::new(Design::Intel6, 1),
            title: title.to_string(),
            description: description.to_string(),
            implications: String::new(),
            workaround: "None identified.".to_string(),
            status: "No fix planned.".to_string(),
        }
    }

    #[test]
    fn matcher_kind_defaults_to_indexed() {
        // Every production caller takes the default; only tests and the
        // Criterion group select the exhaustive oracle.
        assert_eq!(MatcherKind::default(), MatcherKind::Indexed);
    }

    #[test]
    fn classifies_the_fdp_erratum() {
        // The paper's Table I / Table VII example.
        let e = erratum(
            "Execution of the FSAVE, FNSAVE, FSTENV, or FNSTENV instructions in \
             real-address mode or virtual-8086 mode may save an incorrect value for the \
             x87 FDP. The value may be saved incorrectly.",
            "X87 FDP Value May be Saved Incorrectly",
        );
        let rules = Rules::standard();
        let out = classify_erratum(&rules, &e);
        assert!(out.annotation.triggers.contains(Trigger::FloatingPoint));
        assert!(out.annotation.contexts.contains(Context::RealMode));
        assert!(out.annotation.effects.contains(Effect::MsrValue));
    }

    #[test]
    fn both_matchers_agree_erratum_by_erratum() {
        let rules = Rules::standard();
        let cases = [
            erratum(
                "Execution of the FSAVE, FNSAVE, FSTENV, or FNSTENV instructions in \
                 real-address mode or virtual-8086 mode may save an incorrect value for \
                 the x87 FDP. The value may be saved incorrectly.",
                "X87 FDP Value May be Saved Incorrectly",
            ),
            erratum("After a warm reset is applied the processor may hang.", "T"),
            erratum("A machine check occurred somewhere.", "T"),
            erratum(
                "Under a highly specific and detailed set of internal timing conditions, \
                 the processor may hang.",
                "T",
            ),
            erratum("Nothing of note happens here.", "T"),
        ];
        for e in &cases {
            let indexed = classify_erratum_with(&rules, e, MatcherKind::Indexed);
            let exhaustive = classify_erratum_with(&rules, e, MatcherKind::Exhaustive);
            assert_eq!(indexed, exhaustive, "divergence on {:?}", e.description);
        }
    }

    #[test]
    fn snippets_are_taken_from_the_text() {
        let e = erratum("After a warm reset is applied the processor may hang.", "T");
        let out = classify_erratum(&Rules::standard(), &e);
        assert!(out.annotation.triggers.contains(Trigger::Reset));
        assert!(out
            .annotation
            .concrete_triggers
            .iter()
            .any(|s| s.contains("warm reset")));
    }

    #[test]
    fn msr_refs_are_attached() {
        let e = erratum(
            "The MCx_STATUS register (MSR 0x401) may contain an incorrect value.",
            "T",
        );
        let out = classify_erratum(&Rules::standard(), &e);
        assert_eq!(out.annotation.msrs.len(), 1);
        assert_eq!(out.annotation.msrs[0].name, MsrName::McStatus);
    }

    #[test]
    fn complex_conditions_flag() {
        let e = erratum(
            "Under a highly specific and detailed set of internal timing conditions, \
             the processor may hang.",
            "T",
        );
        let out = classify_erratum(&Rules::standard(), &e);
        assert!(out.annotation.complex_conditions);
    }

    #[test]
    fn weak_cues_defer_to_humans() {
        // "machine check" alone is ambiguous between trigger and effect.
        let e = erratum("A machine check occurred somewhere.", "T");
        let rules = Rules::standard();
        let out = classify_erratum(&rules, &e);
        assert!(out
            .needs_human
            .contains(&Category::Trigger(Trigger::MachineCheck)));
        assert!(out
            .needs_human
            .contains(&Category::Effect(Effect::MachineCheck)));
    }

    #[test]
    fn decisions_partition_all_sixty_categories() {
        let e = erratum("Nothing of note happens here.", "T");
        let out = classify_erratum(&Rules::standard(), &e);
        assert_eq!(out.auto_decided + out.needs_human.len(), Category::COUNT);
    }

    #[test]
    fn strong_match_wins_over_weak() {
        let e = erratum("A warm reset is applied.", "T");
        let rules = Rules::standard();
        let text = prepare(&e);
        assert_eq!(
            decide(&rules, &text, Category::Trigger(Trigger::Reset)),
            Decision::AutoRelevant
        );
    }

    #[test]
    fn indexed_matcher_prunes_most_of_the_library() {
        let e = erratum("After a warm reset is applied the processor may hang.", "T");
        let rules = Rules::standard();
        rememberr_obs::reset();
        rememberr_obs::enable();
        let _ = classify_erratum_with(&rules, &e, MatcherKind::Indexed);
        let indexed = rememberr_obs::snapshot();
        rememberr_obs::reset();
        let _ = classify_erratum_with(&rules, &e, MatcherKind::Exhaustive);
        let exhaustive = rememberr_obs::snapshot();
        rememberr_obs::disable();
        rememberr_obs::reset();

        let indexed_evals = indexed.counters["classify.pattern_evals"];
        let exhaustive_evals = exhaustive.counters["classify.pattern_evals"];
        let pruned = indexed.counters["classify.patterns_pruned"];
        let library = rules.matcher().len() as u64;
        assert_eq!(indexed_evals + pruned, library);
        assert!(
            indexed_evals * 10 <= exhaustive_evals,
            "indexed {indexed_evals} vs exhaustive {exhaustive_evals} evals"
        );
        assert!(!exhaustive.counters.contains_key("classify.patterns_pruned"));
    }
}
