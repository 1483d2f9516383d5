//! Corpus analysis: a shared tokenization arena.
//!
//! Classification tokenizes each representative's full text into a
//! [`PreparedText`] and matches it against the rule library; the
//! highlighting assist needs the same tokens and the same matches.
//! [`AnalyzedCorpus`] tokenizes each document exactly once, in one parallel
//! pass ([`rememberr_par::par_map`], input-ordered), and memoizes one
//! rule-match pass per document ([`AnalyzedCorpus::match_set`]) that both
//! stages share.
//!
//! The pipeline builds the arena after dedup, over the cluster
//! representatives only: dedup reads titles, not full texts, so the other
//! cluster members' full texts are never tokenized. The
//! `textkit.tokenize_calls` and `textkit.match_doc_calls` obs counters
//! audit the contract.

use std::borrow::Cow;
use std::sync::OnceLock;

use crate::matcher::{MatchSet, RuleMatcher};
use crate::pattern::PreparedText;

/// One document's analysis, stored contiguously by the corpus.
#[derive(Debug, Clone)]
struct ArenaDoc {
    text: PreparedText,
    /// The first requested rule-match pass over `text`, with the id of the
    /// matcher that computed it (see [`AnalyzedCorpus::match_set`]).
    matches: OnceLock<(u64, MatchSet)>,
}

/// A corpus tokenized once: the prepared full text of every document.
///
/// Each document is tokenized independently, so the result depends only on
/// the input, never on worker scheduling. Index `i` always refers to the
/// `i`-th input document.
#[derive(Debug, Clone)]
pub struct AnalyzedCorpus {
    docs: Vec<ArenaDoc>,
}

impl AnalyzedCorpus {
    /// Tokenizes the text of every item of `items` once, in parallel.
    ///
    /// `text` builds the raw text of one item; it runs inside worker
    /// threads, so building the string happens in parallel too.
    pub fn analyze<T, F>(items: &[T], text: F) -> Self
    where
        T: Sync,
        F: Fn(&T) -> String + Sync,
    {
        let _span = rememberr_obs::span!("corpus.analyze");
        // Output order equals input order at any job count.
        let docs: Vec<ArenaDoc> = rememberr_par::par_map(items, |item| ArenaDoc {
            text: PreparedText::from_string(text(item)),
            matches: OnceLock::new(),
        });
        rememberr_obs::count("corpus.docs_analyzed", docs.len() as u64);
        Self { docs }
    }

    /// Number of analyzed documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True if the corpus holds no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The tokenized full text of document `i`.
    #[must_use]
    pub fn text(&self, i: usize) -> &PreparedText {
        &self.docs[i].text
    }

    /// The match set of `matcher` over document `i`'s text.
    ///
    /// The first matcher to ask about document `i` runs the one
    /// [`RuleMatcher::match_doc`] pass and its set is memoized, so the
    /// stages that match the same representative with the same library —
    /// classification, then the highlighting assist — share that pass. The
    /// memo is keyed to the matcher that computed it: any other matcher
    /// gets a fresh pass of its own, never the memoized set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn match_set(&self, i: usize, matcher: &RuleMatcher) -> Cow<'_, MatchSet> {
        let doc = &self.docs[i];
        let (owner, matches) = doc
            .matches
            .get_or_init(|| (matcher.id(), matcher.match_doc(&doc.text)));
        if *owner == matcher.id() {
            Cow::Borrowed(matches)
        } else {
            Cow::Owned(matcher.match_doc(&doc.text))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(texts: &[&str]) -> AnalyzedCorpus {
        AnalyzedCorpus::analyze(texts, |t| t.to_string())
    }

    #[test]
    fn full_text_matches_fresh_preparation() {
        let text = "Warm Reset Hang\nThe processor may hang after a warm reset at 0x1F.";
        let corpus = analyze(&[text]);
        assert_eq!(corpus.len(), 1);
        let fresh = PreparedText::new(text);
        assert!(corpus.text(0).words().eq(fresh.words()));
        assert_eq!(corpus.text(0).source(), fresh.source());
    }

    #[test]
    fn match_sets_are_memoized_per_matcher() {
        use crate::pattern::Pattern;

        let lib = |sources: &[&str]| {
            RuleMatcher::compile(sources.iter().map(|s| Pattern::parse(s).unwrap()))
        };
        let resets = lib(&["warm|cold reset", "hang"]);
        let caches = lib(&["cache line boundary", "reset"]);
        let corpus =
            analyze(&["Warm Reset Hang\nA warm reset across a cache line boundary may hang."]);
        let fresh = |m: &RuleMatcher| m.match_doc(corpus.text(0));

        // The first matcher's set is memoized and served borrowed.
        let first = corpus.match_set(0, &resets);
        assert!(matches!(first, Cow::Borrowed(_)));
        assert_eq!(*first, fresh(&resets));
        assert!(matches!(corpus.match_set(0, &resets), Cow::Borrowed(_)));
        // A clone is the same library, so it shares the memo.
        assert!(matches!(
            corpus.match_set(0, &resets.clone()),
            Cow::Borrowed(_)
        ));

        // A different library gets its own pass, never the memo.
        let other = corpus.match_set(0, &caches);
        assert!(matches!(other, Cow::Owned(_)));
        assert_eq!(*other, fresh(&caches));
        assert_ne!(*other, *first);
    }
}
