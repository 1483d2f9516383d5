//! Equivalence of the indexed multi-pattern matcher and the per-pattern
//! positional scan: for random DSL pattern libraries and random texts, the
//! two must agree on `is_match`, the first match span, and the full span
//! list of every pattern (`MatchSet::spans` against `Pattern::find_in`, so
//! the anchor windows miss no match) — and pruned patterns must genuinely
//! never match (losslessness of anchor-based candidate generation).

use proptest::prelude::*;
use rememberr_textkit::{Pattern, PreparedText, RuleMatcher};

/// A random DSL element: literals, prefixes, alternations, gaps, numbers
/// and wildcards, over a small vocabulary so collisions actually happen.
fn elem_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-e]{1,4}",
        "[a-e]{1,4}",
        "[a-e]{1,4}",
        "[a-e]{1,3}\\*",
        "[a-e]{1,3}\\|[a-e]{1,3}",
        Just("#".to_string()),
        Just("?".to_string()),
        (0usize..3).prop_map(|n| format!("<{n}>")),
    ]
}

fn pattern_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(elem_strategy(), 1..4).prop_map(|elems| elems.join(" "))
}

/// Haystacks over the same vocabulary plus numbers and out-of-vocabulary
/// words, so texts hit some anchors and miss others.
fn haystack_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            "[a-e]{1,4}",
            "[a-e]{1,4}",
            "[a-e]{1,4}",
            "[0-9]{1,3}",
            "[v-z]{1,4}",
        ],
        0..30,
    )
    .prop_map(|words| words.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn indexed_and_exhaustive_agree_on_everything(
        sources in prop::collection::vec(pattern_strategy(), 0..12),
        haystack in haystack_strategy(),
    ) {
        let patterns: Vec<Pattern> = sources
            .iter()
            .filter_map(|s| Pattern::parse(s).ok())
            .collect();
        let count = patterns.len();
        let matcher = RuleMatcher::compile(patterns.clone());
        let text = PreparedText::new(&haystack);

        let matches = matcher.match_doc(&text);
        prop_assert_eq!(matches.evaluated + matches.pruned, count as u64);

        for (id, pattern) in patterns.iter().enumerate() {
            // Oracle: the original per-pattern positional scan.
            let oracle_spans = pattern.find_in(&text);
            let oracle_first = oracle_spans.first().copied();
            prop_assert_eq!(
                matches.is_match(id),
                pattern.is_match(&text),
                "is_match diverges for {}", pattern.source()
            );
            prop_assert_eq!(
                matches.first_span(id),
                oracle_first,
                "first span diverges for {}", pattern.source()
            );
            prop_assert_eq!(
                matches.spans(id),
                oracle_spans.as_slice(),
                "span list diverges for {}", pattern.source()
            );
        }
    }

    #[test]
    fn pruned_patterns_never_match(
        sources in prop::collection::vec(pattern_strategy(), 1..12),
        haystack in haystack_strategy(),
    ) {
        let patterns: Vec<Pattern> = sources
            .iter()
            .filter_map(|s| Pattern::parse(s).ok())
            .collect();
        let matcher = RuleMatcher::compile(patterns.clone());
        let text = PreparedText::new(&haystack);
        let matches = matcher.match_doc(&text);
        // Losslessness: every matching pattern must have been a candidate,
        // i.e. prune count can never exceed the non-matching population.
        let matching = patterns.iter().filter(|p| p.is_match(&text)).count() as u64;
        prop_assert!(matches.evaluated >= matching);
        for (id, pattern) in patterns.iter().enumerate() {
            if pattern.is_match(&text) {
                prop_assert!(
                    matches.is_match(id),
                    "pattern {} matches but was pruned", pattern.source()
                );
            }
        }
    }

    #[test]
    fn snippets_come_from_the_owned_source(
        sources in prop::collection::vec(pattern_strategy(), 1..8),
        haystack in haystack_strategy(),
    ) {
        let patterns: Vec<Pattern> = sources
            .iter()
            .filter_map(|s| Pattern::parse(s).ok())
            .collect();
        let matcher = RuleMatcher::compile(patterns);
        let text = PreparedText::from_string(haystack.clone());
        let matches = matcher.match_doc(&text);
        for id in 0..matcher.len() {
            if let Some(span) = matches.first_span(id) {
                prop_assert_eq!(text.snippet(span), &haystack[span.start..span.end]);
            }
        }
    }
}
