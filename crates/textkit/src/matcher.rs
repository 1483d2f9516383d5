//! Indexed multi-pattern matching: the whole rule library in one pass.
//!
//! Classification runs a library of hundreds of phrase [`Pattern`]s over
//! every erratum. Scanning each pattern positionally is all-pairs work:
//! `patterns × errata` full scans, almost all of which fail on their first
//! element. [`RuleMatcher`] removes that work with an inverted index over
//! interned token ids:
//!
//! * At compile time every pattern nominates an **anchor**: one of its
//!   `Word` elements, chosen by a rarity heuristic (prefer pure-literal
//!   elements over prefix wildcards, non-stopwords over stopwords, fewer
//!   alternatives, longer words). A pattern can only match a text that
//!   contains a token matched by *every* one of its word elements, so any
//!   single element is a sound pre-filter.
//! * Each literal alternative of the anchor posts
//!   `token id → pattern id` into an inverted index ([`Interner`] assigns
//!   the dense ids); each prefix alternative (`speculat*`) goes to a small
//!   prefix bucket tested against every word token.
//! * Patterns with no `Word` element at all (pure gap/number/wildcard
//!   shapes like `# <2> #`) fall into an **always-check bucket**: they are
//!   scanned positionally for every text, exactly as before.
//!
//! Matching a [`PreparedText`] walks its word tokens once, unioning the
//! posting lists of the tokens present and the prefix-bucket hits, and
//! positionally evaluates only the resulting candidates — returning each
//! matching pattern's first match span so callers never re-scan to extract
//! a snippet. The candidate set is *lossless*: a pattern that matches
//! always anchors on some present token, so skipping non-candidates can
//! never change a decision (the equivalence proptests in
//! `tests/matcher_equiv.rs` assert exactly this).
//!
//! Every [`RuleMatcher::match_doc`] call ticks the `textkit.match_doc_calls`
//! obs counter; a pipeline that matches each unique erratum once makes
//! exactly one call per representative (an [`crate::AnalyzedCorpus`]
//! memoizes the [`MatchSet`] for the stages that share it).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::intern::Interner;
use crate::normalize::is_stopword;
use crate::pattern::{Elem, Pattern, PreparedText, Span, WordAlt};

/// A compiled pattern library that matches every pattern against a text in
/// one indexed pass.
///
/// Pattern ids are dense indices in insertion order (`0..len`), so callers
/// can keep parallel side tables (category groupings, labels) keyed by id.
///
/// # Examples
///
/// ```
/// use rememberr_textkit::{Pattern, PreparedText, RuleMatcher};
///
/// # fn main() -> Result<(), rememberr_textkit::PatternError> {
/// let matcher = RuleMatcher::compile(vec![
///     Pattern::parse("warm|cold reset")?,
///     Pattern::parse("machine check")?,
/// ]);
/// let text = PreparedText::new("after a warm reset the core hangs");
/// let matches = matcher.match_doc(&text);
/// assert!(matches.is_match(0));
/// assert_eq!(text.snippet(matches.first_span(0).unwrap()), "warm reset");
/// assert!(!matches.is_match(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RuleMatcher {
    /// Identity of this compiled library, distinct for every
    /// [`RuleMatcher::compile`] call in the process and shared by clones.
    /// An [`crate::AnalyzedCorpus`] keys its memoized match sets by it.
    id: u64,
    /// The compiled library; the pattern id is the index.
    patterns: Vec<Pattern>,
    /// Anchor-literal vocabulary: token string → dense token id.
    interner: Interner,
    /// Inverted index: token id → sorted pattern ids anchored on it.
    postings: Vec<Vec<u32>>,
    /// Prefix anchors: `(prefix, pattern id)`, tested against every word.
    prefix_anchors: Vec<(String, u32)>,
    /// Patterns with no word element: positionally scanned on every text.
    always_check: Vec<u32>,
}

/// Source of [`RuleMatcher`] identities. The ids publish no other data,
/// so `Relaxed` suffices: `fetch_add` alone makes each one unique.
static NEXT_MATCHER_ID: AtomicU64 = AtomicU64::new(0);

/// The result of matching a whole library against one text: the first
/// match span of every matching pattern plus pruning effort counters.
///
/// Only the hits are stored — typically a handful of a library's patterns
/// — so a corpus can keep one set per document cheaply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSet {
    /// `(pattern id, first match span)` for every matching pattern, in id
    /// order. Patterns that do not match (or were pruned — pruning is
    /// lossless, so the two are indistinguishable by construction) are
    /// absent.
    hits: Vec<(u32, Span)>,
    /// Patterns positionally evaluated (candidates).
    pub evaluated: u64,
    /// Patterns skipped without a positional scan.
    pub pruned: u64,
}

impl MatchSet {
    /// The first (leftmost, shortest-gap) match span of a pattern, if it
    /// matches. Ids outside the library never match.
    pub fn first_span(&self, id: usize) -> Option<Span> {
        let id = u32::try_from(id).ok()?;
        self.hits
            .binary_search_by_key(&id, |&(hit, _)| hit)
            .ok()
            .map(|at| self.hits[at].1)
    }

    /// True if the pattern matches anywhere in the text.
    pub fn is_match(&self, id: usize) -> bool {
        self.first_span(id).is_some()
    }
}

/// Anchor-elem desirability: smaller sorts first. Prefer elements whose
/// alternatives are all literals (postable by exact token id), then
/// elements free of stopword literals (rare anchors prune more), then
/// fewer alternatives, then longer shortest-alternative.
fn anchor_score(alts: &[WordAlt]) -> (bool, bool, usize, usize) {
    let mut has_prefix = false;
    let mut has_stopword = false;
    let mut min_len = usize::MAX;
    for alt in alts {
        match alt {
            WordAlt::Literal(lit) => {
                has_stopword |= is_stopword(lit);
                min_len = min_len.min(lit.len());
            }
            WordAlt::Prefix(prefix) => {
                has_prefix = true;
                min_len = min_len.min(prefix.len());
            }
        }
    }
    (has_prefix, has_stopword, alts.len(), usize::MAX - min_len)
}

/// Picks the anchor element of a pattern: the best-scoring `Word` element,
/// or `None` when the pattern has no word element (always-check bucket).
fn select_anchor(pattern: &Pattern) -> Option<&[WordAlt]> {
    pattern
        .elems()
        .iter()
        .filter_map(|elem| match elem {
            Elem::Word(alts) => Some(alts.as_slice()),
            _ => None,
        })
        .min_by_key(|alts| anchor_score(alts))
}

impl RuleMatcher {
    /// Compiles a pattern library into an indexed matcher.
    ///
    /// Pattern ids are assigned in iteration order, starting at 0.
    pub fn compile<I>(patterns: I) -> Self
    where
        I: IntoIterator<Item = Pattern>,
    {
        let patterns: Vec<Pattern> = patterns.into_iter().collect();
        let mut interner = Interner::new();
        let mut postings: Vec<Vec<u32>> = Vec::new();
        let mut prefix_anchors: Vec<(String, u32)> = Vec::new();
        let mut always_check: Vec<u32> = Vec::new();
        for (id, pattern) in patterns.iter().enumerate() {
            let id = u32::try_from(id).expect("pattern library fits in u32 ids");
            match select_anchor(pattern) {
                None => always_check.push(id),
                Some(alts) => {
                    for alt in alts {
                        match alt {
                            WordAlt::Literal(lit) => {
                                let tid = interner.intern(lit) as usize;
                                if postings.len() <= tid {
                                    postings.resize_with(tid + 1, Vec::new);
                                }
                                // Ids arrive in order; a duplicate literal
                                // within one element posts once.
                                if postings[tid].last() != Some(&id) {
                                    postings[tid].push(id);
                                }
                            }
                            WordAlt::Prefix(prefix) => {
                                prefix_anchors.push((prefix.clone(), id));
                            }
                        }
                    }
                }
            }
        }
        Self {
            id: NEXT_MATCHER_ID.fetch_add(1, Ordering::Relaxed),
            patterns,
            interner,
            postings,
            prefix_anchors,
            always_check,
        }
    }

    /// The compiled patterns, indexable by pattern id.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Number of patterns in the library.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if the library is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Number of patterns in the always-check bucket (no word element).
    pub fn always_checked(&self) -> usize {
        self.always_check.len()
    }

    /// This compiled library's identity (see the field docs).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Computes the candidate flags for a text in one walk over its word
    /// tokens: the union of posting lists for tokens present, prefix-bucket
    /// hits, and the always-check bucket.
    fn candidates(&self, text: &PreparedText) -> Vec<bool> {
        let mut candidate = vec![false; self.patterns.len()];
        for &id in &self.always_check {
            candidate[id as usize] = true;
        }
        for word in text.words() {
            if let Some(tid) = self.interner.get(word) {
                if let Some(list) = self.postings.get(tid as usize) {
                    for &id in list {
                        candidate[id as usize] = true;
                    }
                }
            }
            for (prefix, id) in &self.prefix_anchors {
                if word.starts_with(prefix.as_str()) {
                    candidate[*id as usize] = true;
                }
            }
        }
        candidate
    }

    /// Matches the whole library against a prepared text in one pass.
    ///
    /// Only candidate patterns (anchor token present) are positionally
    /// evaluated; each evaluation records the first match span, so callers
    /// get decision *and* snippet from the same scan. `evaluated + pruned`
    /// always equals [`RuleMatcher::len`].
    pub fn match_doc(&self, text: &PreparedText) -> MatchSet {
        rememberr_obs::count("textkit.match_doc_calls", 1);
        let candidate = self.candidates(text);
        let mut hits = Vec::new();
        let mut evaluated = 0u64;
        for (id, &is_candidate) in candidate.iter().enumerate() {
            if is_candidate {
                evaluated += 1;
                if let Some(span) = self.patterns[id].first_match_in(text) {
                    hits.push((id as u32, span));
                }
            }
        }
        MatchSet {
            hits,
            evaluated,
            pruned: self.patterns.len() as u64 - evaluated,
        }
    }

    /// All matches of every pattern: `find_in` run over candidates only,
    /// with pruned patterns yielding empty span lists. Indexed counterpart
    /// of calling [`Pattern::find_in`] per pattern.
    pub fn find_all(&self, text: &PreparedText) -> Vec<Vec<Span>> {
        let candidate = self.candidates(text);
        self.patterns
            .iter()
            .zip(&candidate)
            .map(|(pattern, &is_candidate)| {
                if is_candidate {
                    pattern.find_in(text)
                } else {
                    Vec::new()
                }
            })
            .collect()
    }

    /// Groups pattern ids by an arbitrary key, preserving id order within
    /// each group — the compile-time side table classification keys by
    /// category.
    pub fn group_ids_by<K, F>(&self, mut key_of: F) -> HashMap<K, Vec<usize>>
    where
        K: std::hash::Hash + Eq,
        F: FnMut(usize, &Pattern) -> K,
    {
        let mut groups: HashMap<K, Vec<usize>> = HashMap::new();
        for (id, pattern) in self.patterns.iter().enumerate() {
            groups.entry(key_of(id, pattern)).or_default().push(id);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(sources: &[&str]) -> RuleMatcher {
        RuleMatcher::compile(
            sources
                .iter()
                .map(|s| Pattern::parse(s).expect("test pattern parses")),
        )
    }

    #[test]
    fn indexed_matches_agree_with_per_pattern_scans() {
        let sources = [
            "machine check",
            "warm|cold reset",
            "power <2> state|states",
            "speculat*",
            "# kb",
            "cache line boundary",
        ];
        let matcher = lib(&sources);
        let text = PreparedText::new(
            "A warm reset during a power management state transition exceeding 32 KB \
             may cause speculative fills past the cache line boundary.",
        );
        let matches = matcher.match_doc(&text);
        for (id, source) in sources.iter().enumerate() {
            let pattern = Pattern::parse(source).unwrap();
            assert_eq!(
                matches.first_span(id),
                pattern.find_in(&text).first().copied(),
                "pattern {source:?}"
            );
        }
        assert_eq!(matches.evaluated + matches.pruned, sources.len() as u64);
    }

    #[test]
    fn absent_anchors_are_pruned_without_evaluation() {
        let matcher = lib(&["usb controller", "pcie link", "iommu"]);
        let text = PreparedText::new("the processor may hang after a warm reset");
        let matches = matcher.match_doc(&text);
        assert_eq!(matches.evaluated, 0);
        assert_eq!(matches.pruned, 3);
        assert!((0..3).all(|id| !matches.is_match(id)));
    }

    #[test]
    fn anchorless_patterns_are_always_checked() {
        let matcher = lib(&["#", "? #", "usb"]);
        assert_eq!(matcher.always_checked(), 2);
        let text = PreparedText::new("error code 17");
        let matches = matcher.match_doc(&text);
        assert!(matches.is_match(0));
        assert!(matches.is_match(1));
        assert!(!matches.is_match(2));
        // The two anchorless patterns are evaluated even though no anchor
        // token is present.
        assert_eq!(matches.evaluated, 2);
    }

    #[test]
    fn prefix_anchors_hit_via_word_tokens() {
        let matcher = lib(&["speculat*", "throttl* event"]);
        let hit = PreparedText::new("a speculative load occurs");
        let matches = matcher.match_doc(&hit);
        assert!(matches.is_match(0));
        assert!(!matches.is_match(1));
        assert_eq!(matches.evaluated, 1, "only the speculat* candidate runs");

        let miss = PreparedText::new("spec compliance throttling event");
        let matches = matcher.match_doc(&miss);
        assert!(!matches.is_match(0));
        assert!(matches.is_match(1));
    }

    #[test]
    fn anchor_prefers_rare_literals_over_stopwords_and_prefixes() {
        // "may" is a stopword and "saved" is shorter than "incorrectly";
        // the anchor should be the rarest pure-literal element.
        let p = Pattern::parse("may be saved incorrectly").unwrap();
        let anchor = select_anchor(&p).expect("word elems exist");
        assert_eq!(anchor, &[WordAlt::Literal("incorrectly".to_string())]);

        // A pure-literal element beats a prefix element even when shorter.
        let p = Pattern::parse("speculat* fill").unwrap();
        let anchor = select_anchor(&p).unwrap();
        assert_eq!(anchor, &[WordAlt::Literal("fill".to_string())]);
    }

    #[test]
    fn find_all_matches_per_pattern_find_in() {
        let sources = ["reset", "warm reset", "#"];
        let matcher = lib(&sources);
        let text = PreparedText::new("reset, then another warm reset at 0x40");
        let all = matcher.find_all(&text);
        for (id, source) in sources.iter().enumerate() {
            let pattern = Pattern::parse(source).unwrap();
            assert_eq!(all[id], pattern.find_in(&text), "pattern {source:?}");
        }
    }

    #[test]
    fn group_ids_by_keeps_insertion_order() {
        let matcher = lib(&["a b", "c", "d e"]);
        let by_len = matcher.group_ids_by(|_, p| p.source().split(' ').count());
        assert_eq!(by_len[&2], vec![0, 2]);
        assert_eq!(by_len[&1], vec![1]);
    }

    #[test]
    fn empty_library_matches_nothing() {
        let matcher = RuleMatcher::compile(Vec::<Pattern>::new());
        assert!(matcher.is_empty());
        let matches = matcher.match_doc(&PreparedText::new("anything"));
        assert_eq!(matches.evaluated, 0);
        assert_eq!(matches.pruned, 0);
    }
}
