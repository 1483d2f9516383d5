//! Span-based syntax highlighting of erratum text.
//!
//! The paper's annotators were guided by "a syntax highlighting engine with
//! regular expressions to emphasize parts of the errata descriptions
//! relevant to a given category". This module reproduces that tool: given a
//! [`PatternSet`] keyed by category labels, it produces merged, labelled
//! highlight spans and can render them as plain-text markup.

use std::collections::BTreeMap;

use crate::matcher::MatchSet;
use crate::pattern::{PatternSet, PreparedText, Span};

/// A highlighted region: the byte span and the labels that apply to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Highlight {
    /// Byte span in the source text.
    pub span: Span,
    /// Sorted, deduplicated labels whose patterns matched this region.
    pub labels: Vec<String>,
}

/// Computes merged highlights for `text` under `patterns`.
///
/// Overlapping or adjacent spans with any shared coverage are merged; the
/// merged region carries the union of labels. Results are sorted by start
/// offset.
pub fn highlights(patterns: &PatternSet, text: &str) -> Vec<Highlight> {
    highlights_prepared(patterns, &PreparedText::new(text))
}

/// [`highlights`] over text that is already tokenized, so callers holding a
/// [`PreparedText`] skip the re-tokenization. Spans index into
/// `prepared.source()`.
pub fn highlights_prepared(patterns: &PatternSet, prepared: &PreparedText) -> Vec<Highlight> {
    merge(
        patterns
            .find_spans(prepared)
            .into_iter()
            .map(|(label, span)| (span, label))
            .collect(),
    )
}

/// [`highlights_prepared`] read from a [`MatchSet`] that already holds the
/// spans, so nothing is scanned.
///
/// Pattern `i` of `patterns` must be pattern `i` of the
/// [`crate::RuleMatcher`] that computed `matches` over the text (the
/// matcher may hold more patterns after them). A match set holds exactly
/// the spans [`crate::Pattern::find_in`] finds, so the result equals
/// [`highlights_prepared`] over the same text.
pub fn highlights_matched(patterns: &PatternSet, matches: &MatchSet) -> Vec<Highlight> {
    merge(
        (0..patterns.len())
            .flat_map(|i| {
                matches
                    .spans(i)
                    .iter()
                    .map(move |&span| (span, patterns.label(i)))
            })
            .collect(),
    )
}

/// Merges labelled spans into sorted highlights: overlapping or adjacent
/// spans with any shared coverage merge, carrying the union of labels.
fn merge(mut raw: Vec<(Span, &str)>) -> Vec<Highlight> {
    raw.sort_by_key(|(span, _)| (span.start, span.end));

    let mut merged: Vec<(Span, BTreeMap<String, ()>)> = Vec::new();
    for (span, label) in raw {
        match merged.last_mut() {
            Some((last, labels)) if span.start <= last.end => {
                last.end = last.end.max(span.end);
                labels.insert(label.to_string(), ());
            }
            _ => {
                let mut labels = BTreeMap::new();
                labels.insert(label.to_string(), ());
                merged.push((span, labels));
            }
        }
    }

    merged
        .into_iter()
        .map(|(span, labels)| Highlight {
            span,
            labels: labels.into_keys().collect(),
        })
        .collect()
}

/// Renders highlights as inline markup: `[label1,label2|matched text]`.
///
/// This is the reviewable form used in reports and tests.
pub fn render_markup(text: &str, highlights: &[Highlight]) -> String {
    let mut out = String::with_capacity(text.len() + highlights.len() * 16);
    let mut pos = 0;
    for h in highlights {
        out.push_str(&text[pos..h.span.start]);
        out.push('[');
        out.push_str(&h.labels.join(","));
        out.push('|');
        out.push_str(&text[h.span.start..h.span.end]);
        out.push(']');
        pos = h.span.end;
    }
    out.push_str(&text[pos..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_patterns() -> PatternSet {
        let mut set = PatternSet::new();
        set.add_source("Trg_POW_pwc", "power <2> state|states")
            .unwrap();
        set.add_source("Trg_EXT_rst", "warm|cold reset").unwrap();
        set.add_source("Eff_HNG_hng", "hang|hangs").unwrap();
        set
    }

    #[test]
    fn non_overlapping_highlights() {
        let text = "After a warm reset the processor may hang.";
        let hs = highlights(&demo_patterns(), text);
        assert_eq!(hs.len(), 2);
        assert_eq!(&text[hs[0].span.start..hs[0].span.end], "warm reset");
        assert_eq!(hs[0].labels, vec!["Trg_EXT_rst"]);
        assert_eq!(&text[hs[1].span.start..hs[1].span.end], "hang");
    }

    #[test]
    fn overlapping_spans_merge_with_label_union() {
        let mut set = PatternSet::new();
        set.add_source("a", "power state").unwrap();
        set.add_source("b", "state transition").unwrap();
        let text = "during a power state transition";
        let hs = highlights(&set, text);
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].labels, vec!["a", "b"]);
        assert_eq!(
            &text[hs[0].span.start..hs[0].span.end],
            "power state transition"
        );
    }

    #[test]
    fn markup_rendering() {
        let text = "the processor may hang now";
        let hs = highlights(&demo_patterns(), text);
        let rendered = render_markup(text, &hs);
        assert_eq!(rendered, "the processor may [Eff_HNG_hng|hang] now");
    }

    #[test]
    fn no_matches_returns_text_verbatim() {
        let text = "nothing interesting here";
        let hs = highlights(&demo_patterns(), text);
        assert!(hs.is_empty());
        assert_eq!(render_markup(text, &hs), text);
    }

    #[test]
    fn matched_highlights_equal_the_scan() {
        let patterns = demo_patterns();
        let mut sources = vec!["power <2> state|states", "warm|cold reset", "hang|hangs"];
        // The matcher may hold more patterns after the set's.
        sources.push("processor");
        let matcher =
            crate::RuleMatcher::compile(sources.iter().map(|s| crate::Pattern::parse(s).unwrap()));
        let text = PreparedText::new(
            "hang after a power state change, then a warm reset: the processor hangs",
        );
        let matched = highlights_matched(&patterns, &matcher.match_doc(&text));
        assert_eq!(matched, highlights_prepared(&patterns, &text));
        assert_eq!(matched.len(), 4);
    }

    #[test]
    fn highlights_are_sorted_and_disjoint() {
        let text = "hang after power state change then warm reset then hang";
        let hs = highlights(&demo_patterns(), text);
        for pair in hs.windows(2) {
            assert!(pair[0].span.end <= pair[1].span.start);
        }
    }
}
