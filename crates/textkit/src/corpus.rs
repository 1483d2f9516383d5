//! Single-pass corpus analysis: a shared tokenization arena.
//!
//! Every pipeline stage needs lexical features of the same errata — dedup
//! normalizes titles into [`TitleKey`]s, classification tokenizes the full
//! text into a [`PreparedText`], and the highlighting assist tokenizes it
//! yet again. [`AnalyzedCorpus`] performs that work exactly once per
//! document, in one parallel pass ([`rememberr_par::par_map`],
//! input-ordered): the full text is tokenized, and the normalized title is
//! derived from the already-tokenized prefix (no second tokenizer pass).
//!
//! Consumers receive borrowed views ([`AnalyzedDoc`]) and never re-derive:
//! the dedup cascade reads [`AnalyzedCorpus::title_key`], classification
//! and highlighting read [`AnalyzedCorpus::text`] and share one rule-match
//! pass per document through [`AnalyzedCorpus::match_set`]. The
//! `textkit.tokenize_calls` and `textkit.match_doc_calls` obs counters
//! audit the contract — a one-pass pipeline run tokenizes each document
//! exactly once and runs one rule-match pass per document it matches.

use std::borrow::Cow;
use std::sync::OnceLock;

use crate::matcher::{MatchSet, RuleMatcher};
use crate::normalize::{is_stopword, stem_owned};
use crate::pattern::PreparedText;
use crate::similarity::TitleKey;

/// The raw text of one document handed to [`AnalyzedCorpus::analyze`]: the
/// concatenated full text plus the byte length of the leading title.
///
/// The title must be the prefix of `text` and be followed by a
/// non-word-token byte (the pipeline joins title and body with `'\n'`), so
/// tokenizing the concatenation and splitting at `title_len` yields the
/// same tokens as tokenizing the title alone.
#[derive(Debug, Clone)]
pub struct DocText {
    /// The document's full concatenated text.
    pub text: String,
    /// Byte length of the title prefix of `text`.
    pub title_len: usize,
    /// Whether to derive the title-similarity key ([`TitleKey`]) for this
    /// document. Dedup only compares titles within one vendor's corpus
    /// (Intel), so other documents skip the work.
    pub analyze_title: bool,
}

/// One document's analysis, stored contiguously by the corpus.
#[derive(Debug, Clone)]
struct AnalyzedDocData {
    text: PreparedText,
    title_key: Option<TitleKey>,
    /// The first requested rule-match pass over `text`, with the id of the
    /// matcher that computed it (see [`AnalyzedCorpus::match_set`]).
    matches: OnceLock<(u64, MatchSet)>,
}

/// A corpus analyzed once: the tokenized full text and the normalized title
/// key of every document.
///
/// Each document is analyzed independently, so the result depends only on
/// the input, never on worker scheduling. Index `i` always refers to the
/// `i`-th input document.
#[derive(Debug, Clone)]
pub struct AnalyzedCorpus {
    docs: Vec<AnalyzedDocData>,
}

impl AnalyzedCorpus {
    /// Analyzes every item of `items` once, in parallel.
    ///
    /// `source` extracts the raw text of one item; it runs inside worker
    /// threads, so building the concatenated string happens in parallel
    /// too. Tokenization, stopword filtering and stemming all happen here;
    /// consumers only read.
    pub fn analyze<T, F>(items: &[T], source: F) -> Self
    where
        T: Sync,
        F: Fn(&T) -> DocText + Sync,
    {
        let _span = rememberr_obs::span!("corpus.analyze");
        // Output order equals input order at any job count.
        let docs: Vec<AnalyzedDocData> = rememberr_par::par_map(items, |item| {
            let doc = source(item);
            let title_len = doc.title_len.min(doc.text.len());
            let text = PreparedText::from_string(doc.text);
            let title_key = doc
                .analyze_title
                .then(|| TitleKey::from_normalized(normalized_title_prefix(&text, title_len)));
            AnalyzedDocData {
                text,
                title_key,
                matches: OnceLock::new(),
            }
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

    /// The normalized title key of document `i`, if it was title-analyzed.
    #[must_use]
    pub fn title_key(&self, i: usize) -> Option<&TitleKey> {
        self.docs[i].title_key.as_ref()
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

    /// A borrowed view of document `i`.
    #[must_use]
    pub fn doc(&self, i: usize) -> AnalyzedDoc<'_> {
        AnalyzedDoc { corpus: self, i }
    }

    /// Releases the token buffers of every document *not* in `keep`,
    /// swapping in [`PreparedText::empty`]. Title keys are untouched — only
    /// the full-text tokenization goes.
    ///
    /// Once deduplication has picked its representatives, they are the
    /// only documents the downstream match-heavy stages (classification,
    /// highlight assist) ever read from the arena; dropping the rest —
    /// typically the majority of a heavily-duplicated corpus — shrinks the
    /// resident arena before those stages run.
    ///
    /// # Panics
    ///
    /// Panics if an index in `keep` is out of bounds.
    pub fn release_texts_except(&mut self, keep: impl IntoIterator<Item = usize>) {
        let mut keep_mask = vec![false; self.docs.len()];
        for i in keep {
            keep_mask[i] = true;
        }
        for (doc, keep) in self.docs.iter_mut().zip(keep_mask) {
            if !keep {
                doc.text = PreparedText::empty();
            }
        }
    }
}

/// A cheap borrowed view of one analyzed document.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzedDoc<'a> {
    corpus: &'a AnalyzedCorpus,
    i: usize,
}

impl<'a> AnalyzedDoc<'a> {
    /// The tokenized full text (word tokens and spans for snippet
    /// extraction).
    #[must_use]
    pub fn text(&self) -> &'a PreparedText {
        self.corpus.text(self.i)
    }

    /// The normalized title key, if the document was title-analyzed.
    #[must_use]
    pub fn title_key(&self) -> Option<&'a TitleKey> {
        self.corpus.title_key(self.i)
    }
}

/// Derives the normalized title tokens from an already-tokenized document:
/// the tokens whose spans end inside the `title_len`-byte prefix are
/// exactly the title's own word tokens (tokenization is byte-local and the
/// pipeline separates title and body with `'\n'`, which no token crosses),
/// so filtering stopwords and stemming them reproduces
/// [`crate::normalize`] of the title without a second tokenizer pass.
fn normalized_title_prefix(text: &PreparedText, title_len: usize) -> Vec<String> {
    let count = text
        .token_spans()
        .partition_point(|span| span.end <= title_len);
    text.words()
        .take(count)
        .filter(|w| !is_stopword(w))
        .map(|w| stem_owned(w.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;

    struct Doc {
        title: &'static str,
        body: &'static str,
        analyze_title: bool,
    }

    fn analyze(docs: &[Doc]) -> AnalyzedCorpus {
        AnalyzedCorpus::analyze(docs, |d| DocText {
            text: format!("{}\n{}", d.title, d.body),
            title_len: d.title.len(),
            analyze_title: d.analyze_title,
        })
    }

    #[test]
    fn title_features_match_per_stage_derivations() {
        let docs = [
            Doc {
                title: "X87 FDP Value May be Saved Incorrectly",
                body: "The FDP register is saved with a stale value.",
                analyze_title: true,
            },
            Doc {
                title: "Processor May Hang During Warm Reset",
                body: "A warm reset while caches flush may hang.",
                analyze_title: true,
            },
        ];
        let corpus = analyze(&docs);
        assert_eq!(corpus.len(), 2);
        for (i, d) in docs.iter().enumerate() {
            let expect = TitleKey::new(d.title);
            assert_eq!(corpus.title_key(i), Some(&expect));
            assert_eq!(corpus.doc(i).title_key(), Some(&expect));
        }
    }

    #[test]
    fn full_text_matches_fresh_preparation() {
        let docs = [Doc {
            title: "Warm Reset Hang",
            body: "The processor may hang after a warm reset at 0x1F.",
            analyze_title: true,
        }];
        let corpus = analyze(&docs);
        let fresh = PreparedText::new(
            "Warm Reset Hang\nThe processor may hang after a warm reset at 0x1F.",
        );
        assert!(corpus.text(0).words().eq(fresh.words()));
        assert_eq!(corpus.text(0).source(), fresh.source());
    }

    #[test]
    fn skipped_titles_have_no_similarity_features() {
        let docs = [
            Doc {
                title: "AMD-style entry",
                body: "No title analysis requested.",
                analyze_title: false,
            },
            Doc {
                title: "Intel-style entry",
                body: "Title analysis requested.",
                analyze_title: true,
            },
        ];
        let corpus = analyze(&docs);
        assert!(corpus.title_key(0).is_none());
        assert!(corpus.doc(0).title_key().is_none());
        assert_eq!(
            corpus.title_key(1),
            Some(&TitleKey::new("Intel-style entry"))
        );
    }

    #[test]
    fn match_sets_are_memoized_per_matcher() {
        use crate::pattern::Pattern;

        let lib = |sources: &[&str]| {
            RuleMatcher::compile(sources.iter().map(|s| Pattern::parse(s).unwrap()))
        };
        let resets = lib(&["warm|cold reset", "hang"]);
        let caches = lib(&["cache line boundary", "reset"]);
        let docs = [Doc {
            title: "Warm Reset Hang",
            body: "A warm reset across a cache line boundary may hang.",
            analyze_title: false,
        }];
        let corpus = analyze(&docs);
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

    #[test]
    fn prefix_normalization_handles_edge_titles() {
        for title in ["", "the of and", "hyphen-ending-", "0x1F #2 errata"] {
            let text = format!("{title}\nsome body text");
            let prepared = PreparedText::from_string(text);
            assert_eq!(
                normalized_title_prefix(&prepared, title.len()),
                normalize(title),
                "title {title:?}"
            );
        }
    }
}
