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
//! * The anchor also fixes a **window**: the elements before it consume a
//!   known number of words, up to the bounds of the gaps among them, so a
//!   match that starts at word `s` puts its anchor on a word in
//!   `[s + min, s + max]`.
//! * Patterns with no `Word` element at all (pure gap/number/wildcard
//!   shapes like `# <2> #`) fall into an **always-check bucket**: their
//!   window is the whole text, so they are scanned from every position.
//!
//! Matching a [`PreparedText`] walks its word tokens once and records
//! `(pattern id, word position)` for every posting and prefix-anchor hit.
//! A pattern with a hit is a candidate, and it is tried only at the starts
//! `[p − max, p − min]` of its recorded positions `p` — every match puts
//! its anchor on a recorded word inside that window, so no match is
//! missed. The result holds every matching pattern's non-overlapping
//! spans, exactly the spans [`Pattern::find_in`] returns (the equivalence
//! proptests in `tests/matcher_equiv.rs` assert this).
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
    /// Per pattern id, the anchor window: `(min, max)` words between a
    /// match's first word and its anchor word. Always-check patterns have
    /// `(0, usize::MAX)`.
    windows: Vec<(usize, usize)>,
    /// Anchor-literal vocabulary: token string → dense token id.
    interner: Interner,
    /// Inverted index: token id → sorted pattern ids anchored on it.
    postings: Vec<Vec<u32>>,
    /// Prefix anchors: `(prefix, pattern id)`, tested against every word.
    prefix_anchors: Vec<(String, u32)>,
    /// Patterns with no word element: scanned from every position.
    always_check: Vec<u32>,
}

/// Source of [`RuleMatcher`] identities. The ids publish no other data,
/// so `Relaxed` suffices: `fetch_add` alone makes each one unique.
static NEXT_MATCHER_ID: AtomicU64 = AtomicU64::new(0);

/// The result of matching a whole library against one text: every
/// non-overlapping match span of every matching pattern, plus pruning
/// effort counters.
///
/// Only the hits are stored — typically a handful of a library's patterns
/// — so a corpus can keep one set per document cheaply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSet {
    /// `(pattern id, index of its first span in spans)` for every matching
    /// pattern, in id order. Patterns that do not match (or were pruned —
    /// pruning is lossless, so the two are indistinguishable by
    /// construction) are absent.
    hits: Vec<(u32, usize)>,
    /// The spans of the hits, pattern after pattern, each pattern's in
    /// text order.
    spans: Vec<Span>,
    /// Patterns positionally evaluated (candidates).
    pub evaluated: u64,
    /// Patterns skipped without a positional scan.
    pub pruned: u64,
}

impl MatchSet {
    /// Every non-overlapping match span of a pattern, leftmost and
    /// shortest-gap first — the spans [`Pattern::find_in`] returns. Empty
    /// if the pattern does not match; ids outside the library never match.
    pub fn spans(&self, id: usize) -> &[Span] {
        let Some(at) = u32::try_from(id)
            .ok()
            .and_then(|id| self.hits.binary_search_by_key(&id, |&(hit, _)| hit).ok())
        else {
            return &[];
        };
        let end = self
            .hits
            .get(at + 1)
            .map_or(self.spans.len(), |&(_, start)| start);
        &self.spans[self.hits[at].1..end]
    }

    /// The first (leftmost, shortest-gap) match span of a pattern, if it
    /// matches. Ids outside the library never match.
    pub fn first_span(&self, id: usize) -> Option<Span> {
        self.spans(id).first().copied()
    }

    /// True if the pattern matches anywhere in the text.
    pub fn is_match(&self, id: usize) -> bool {
        !self.spans(id).is_empty()
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

/// Picks the anchor element of a pattern: the index of the first
/// best-scoring `Word` element, or `None` when the pattern has no word
/// element (always-check bucket).
fn select_anchor(pattern: &Pattern) -> Option<usize> {
    pattern
        .elems()
        .iter()
        .enumerate()
        .filter_map(|(at, elem)| match elem {
            Elem::Word(alts) => Some((at, anchor_score(alts))),
            _ => None,
        })
        .min_by_key(|&(_, score)| score)
        .map(|(at, _)| at)
}

/// The anchor window of the element at `anchor`: the fewest and the most
/// words the elements before it consume. Each non-gap element consumes
/// exactly one word and a gap up to its bound.
fn anchor_window(elems: &[Elem], anchor: usize) -> (usize, usize) {
    elems[..anchor]
        .iter()
        .fold((0, 0), |(min, max), elem| match elem {
            Elem::Gap { max: bound } => (min, max.saturating_add(*bound)),
            _ => (min + 1, max.saturating_add(1)),
        })
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
        let mut windows = Vec::with_capacity(patterns.len());
        let mut interner = Interner::new();
        let mut postings: Vec<Vec<u32>> = Vec::new();
        let mut prefix_anchors: Vec<(String, u32)> = Vec::new();
        let mut always_check: Vec<u32> = Vec::new();
        for (id, pattern) in patterns.iter().enumerate() {
            let id = u32::try_from(id).expect("pattern library fits in u32 ids");
            let Some(anchor) = select_anchor(pattern) else {
                always_check.push(id);
                windows.push((0, usize::MAX));
                continue;
            };
            windows.push(anchor_window(pattern.elems(), anchor));
            let Elem::Word(alts) = &pattern.elems()[anchor] else {
                unreachable!("anchors are word elements")
            };
            for alt in alts {
                match alt {
                    WordAlt::Literal(lit) => {
                        let tid = interner.intern(lit) as usize;
                        if postings.len() <= tid {
                            postings.resize_with(tid + 1, Vec::new);
                        }
                        // Ids arrive in order; a duplicate literal within
                        // one element posts once.
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
        Self {
            id: NEXT_MATCHER_ID.fetch_add(1, Ordering::Relaxed),
            patterns,
            windows,
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

    /// Matches the whole library against a prepared text in one pass.
    ///
    /// One walk over the word tokens records every anchor hit; only
    /// candidate patterns (anchor token present, or always-check) are
    /// positionally evaluated, each only at the starts its hits allow.
    /// The set holds every match span, so callers get decision, snippet
    /// and highlights from the same scan. `evaluated + pruned` always
    /// equals [`RuleMatcher::len`].
    pub fn match_doc(&self, text: &PreparedText) -> MatchSet {
        rememberr_obs::count("textkit.match_doc_calls", 1);
        // `(pattern id, word position)` of every anchor hit. An
        // always-check pattern gets one hit at the last word: its window
        // then covers every start.
        let last = text.len().saturating_sub(1);
        let mut anchor_hits: Vec<(u32, usize)> =
            self.always_check.iter().map(|&id| (id, last)).collect();
        for (pos, word) in text.words().enumerate() {
            if let Some(list) = self
                .interner
                .get(word)
                .and_then(|tid| self.postings.get(tid as usize))
            {
                anchor_hits.extend(list.iter().map(|&id| (id, pos)));
            }
            for (prefix, id) in &self.prefix_anchors {
                if word.starts_with(prefix.as_str()) {
                    anchor_hits.push((*id, pos));
                }
            }
        }
        anchor_hits.sort_unstable();

        let mut set = MatchSet {
            hits: Vec::new(),
            spans: Vec::new(),
            evaluated: 0,
            pruned: 0,
        };
        for hits in anchor_hits.chunk_by(|a, b| a.0 == b.0) {
            let id = hits[0].0;
            set.evaluated += 1;
            let first = set.spans.len();
            self.find_anchored(id as usize, text, hits, &mut set.spans);
            if set.spans.len() > first {
                set.hits.push((id, first));
            }
        }
        set.pruned = self.patterns.len() as u64 - set.evaluated;
        set
    }

    /// Appends to `out` every non-overlapping match of pattern `id`, as
    /// [`Pattern::find_in`] finds them, trying only the starts inside the
    /// windows of its anchor hits (in position order).
    ///
    /// Windows of increasing positions have increasing bounds, so the
    /// starts are tried in increasing order, each at most once; after a
    /// match the scan resumes at the match's end, as `find_in` does. A
    /// start outside every window cannot match, because its anchor word
    /// would be a hit inside the window.
    fn find_anchored(
        &self,
        id: usize,
        text: &PreparedText,
        anchor_hits: &[(u32, usize)],
        out: &mut Vec<Span>,
    ) {
        let pattern = &self.patterns[id];
        let (min, max) = self.windows[id];
        // The first start not yet tried.
        let mut next = 0;
        for &(_, pos) in anchor_hits {
            let Some(hi) = pos.checked_sub(min) else {
                continue;
            };
            let mut start = next.max(pos.saturating_sub(max));
            // `start < len` only binds for an always-check pattern's hit on
            // an empty text.
            while start <= hi && start < text.len() {
                match pattern.match_span_at(text, start) {
                    Some((span, end)) => {
                        out.push(span);
                        start = end;
                    }
                    None => start += 1,
                }
            }
            next = start;
        }
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
        assert_eq!(select_anchor(&p), Some(3));

        // A pure-literal element beats a prefix element even when shorter.
        let p = Pattern::parse("speculat* fill").unwrap();
        assert_eq!(select_anchor(&p), Some(1));
    }

    #[test]
    fn anchor_windows_count_words_and_gap_bounds_before_the_anchor() {
        let window = |source: &str| {
            let p = Pattern::parse(source).unwrap();
            anchor_window(p.elems(), select_anchor(&p).unwrap())
        };
        assert_eq!(window("incorrectly"), (0, 0));
        assert_eq!(window("may be saved incorrectly"), (3, 3));
        assert_eq!(window("power <2> state|states <1> transition"), (2, 5));
        assert_eq!(window("# <3> ? occurrences"), (2, 5));
    }

    #[test]
    fn spans_match_per_pattern_find_in() {
        let sources = ["reset", "warm reset", "#", "<2> reset"];
        let matcher = lib(&sources);
        let text = PreparedText::new("reset, then another warm reset at 0x40");
        let matches = matcher.match_doc(&text);
        for (id, source) in sources.iter().enumerate() {
            let pattern = Pattern::parse(source).unwrap();
            assert_eq!(
                matches.spans(id),
                pattern.find_in(&text),
                "pattern {source:?}"
            );
        }
        assert!(matches.spans(sources.len()).is_empty());
    }

    #[test]
    fn anchor_after_a_gap_matches_at_a_later_occurrence() {
        // The anchor "state" sits after a gap. Its first occurrence is too
        // far from "power"; the second is inside the window.
        let matcher = lib(&["power <1> state"]);
        let source = "state then power saving state";
        let text = PreparedText::new(source);
        let matches = matcher.match_doc(&text);
        let spans = matches.spans(0);
        assert_eq!(spans.len(), 1);
        assert_eq!(&source[spans[0].start..spans[0].end], "power saving state");
        assert_eq!(
            spans,
            Pattern::parse("power <1> state").unwrap().find_in(&text)
        );
    }

    #[test]
    fn anchor_occurrence_inside_an_earlier_match_is_skipped() {
        // The anchor "reset" occurs three times. The second occurrence
        // lies inside the first match, so the scan resumes after that
        // match, as `find_in` does, and finds the third.
        let source = "warm reset reset hang and warm reset hang";
        let pattern = Pattern::parse("warm reset <1> hang").unwrap();
        let matcher = lib(&["warm reset <1> hang"]);
        assert_eq!(select_anchor(&pattern), Some(1), "anchor is \"reset\"");
        let text = PreparedText::new(source);
        let matches = matcher.match_doc(&text);
        let snippets: Vec<&str> = matches.spans(0).iter().map(|&s| text.snippet(s)).collect();
        assert_eq!(snippets, ["warm reset reset hang", "warm reset hang"]);
        assert_eq!(matches.spans(0), pattern.find_in(&text));

        // The same with the anchor repeated inside the match.
        let pattern = Pattern::parse("reset <2> reset").unwrap();
        let matcher = lib(&["reset <2> reset"]);
        let text = PreparedText::new("reset reset reset reset x reset");
        let matches = matcher.match_doc(&text);
        assert_eq!(matches.spans(0), pattern.find_in(&text));
        assert_eq!(matches.spans(0).len(), 2);
    }

    #[test]
    fn prefix_anchor_windows_find_every_match() {
        let source = "speculative fills and a later speculation bypass";
        let pattern = Pattern::parse("? speculat*").unwrap();
        let matcher = lib(&["? speculat*"]);
        let text = PreparedText::new(source);
        let matches = matcher.match_doc(&text);
        let snippets: Vec<&str> = matches.spans(0).iter().map(|&s| text.snippet(s)).collect();
        assert_eq!(snippets, ["later speculation"]);
        assert_eq!(matches.spans(0), pattern.find_in(&text));
        assert_eq!(matches.evaluated, 1);
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
