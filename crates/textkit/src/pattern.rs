//! A phrase-pattern engine for classification rules.
//!
//! The paper's software-assisted classification uses regular expressions to
//! pre-filter category decisions and to highlight relevant text. Erratum
//! prose is word-oriented, so instead of a byte-level regex engine we match
//! *token phrases*: a pattern is a sequence of token matchers with bounded
//! gaps, compiled from a compact DSL.
//!
//! # Pattern DSL
//!
//! Elements are separated by spaces:
//!
//! | element | matches |
//! |---|---|
//! | `cache` | the word `cache` (case-insensitive) |
//! | `speculat*` | any word starting with `speculat` |
//! | `pci\|pcie` | any of the alternatives (each may end in `*`) |
//! | `<3>` | a gap of 0 to 3 word tokens |
//! | `#` | a decimal or hexadecimal number token |
//! | `?` | any single word token |
//!
//! # Examples
//!
//! ```
//! use rememberr_textkit::Pattern;
//!
//! # fn main() -> Result<(), rememberr_textkit::PatternError> {
//! let p = Pattern::parse("power <2> state|states")?;
//! assert!(p.matches("a transition between core power management states"));
//! assert!(!p.matches("the power supply is stable"));
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::tokenize::{tokenize, Token, TokenKind};

/// Error produced when a pattern string cannot be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    source: String,
    reason: String,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pattern {:?}: {}", self.source, self.reason)
    }
}

impl std::error::Error for PatternError {}

/// A single-word alternative: literal or prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WordAlt {
    Literal(String),
    Prefix(String),
}

impl WordAlt {
    fn matches(&self, word: &str) -> bool {
        match self {
            WordAlt::Literal(lit) => lit == word,
            WordAlt::Prefix(prefix) => word.starts_with(prefix.as_str()),
        }
    }
}

/// One compiled pattern element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Elem {
    Word(Vec<WordAlt>),
    Gap { max: usize },
    Number,
    AnyWord,
}

/// A compiled phrase pattern. See the crate docs for the DSL summary:
/// literals, `prefix*`, `a|b` alternation, `<N>` bounded gaps, `#` numbers
/// and `?` single-token wildcards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    elems: Vec<Elem>,
    source: String,
}

/// A byte range of matched source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Byte offset of the first matched byte.
    pub start: usize,
    /// Byte offset one past the last matched byte.
    pub end: usize,
}

impl Span {
    /// True if this span overlaps another.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Tokenized text prepared for repeated pattern matching.
///
/// Classification applies hundreds of patterns to each erratum; preparing
/// the text once amortizes tokenization and lowercasing. The prepared text
/// *owns* its source, so callers can slice matched [`Span`]s back out of it
/// ([`PreparedText::snippet`]) without keeping a second copy of the string
/// alive.
#[derive(Debug, Clone)]
pub struct PreparedText {
    /// The source text the spans index into.
    source: String,
    /// All lowercased word tokens (punctuation removed), concatenated
    /// back to back in one buffer. One allocation instead of one per
    /// token, and token iteration walks contiguous memory — pattern
    /// matching over a large analyzed corpus is cache-bound, not
    /// pointer-chasing.
    words_buf: String,
    /// End byte offset of each word in `words_buf` (a word's start is the
    /// previous word's end).
    word_ends: Vec<u32>,
    /// Token kinds, parallel to the words.
    kinds: Vec<TokenKind>,
    /// Source byte spans, parallel to the words.
    spans: Vec<Span>,
}

impl PreparedText {
    /// Tokenizes and lowercases `text`.
    pub fn new(text: &str) -> Self {
        Self::from_string(text.to_string())
    }

    /// Tokenizes and lowercases an owned string, taking ownership of the
    /// source so no second allocation is needed to slice snippets later.
    pub fn from_string(source: String) -> Self {
        rememberr_obs::count("textkit.tokenize_calls", 1);
        let mut tokens: Vec<Token> = tokenize(&source);
        tokens.retain(|t| t.kind != TokenKind::Punct);
        let mut words_buf = String::with_capacity(source.len());
        let mut word_ends = Vec::with_capacity(tokens.len());
        for t in &tokens {
            words_buf.push_str(t.text);
            word_ends.push(words_buf.len() as u32);
        }
        words_buf.make_ascii_lowercase();
        let kinds = tokens.iter().map(|t| t.kind).collect();
        let spans = tokens
            .iter()
            .map(|t| Span {
                start: t.start,
                end: t.end(),
            })
            .collect();
        drop(tokens);
        Self {
            source,
            words_buf,
            word_ends,
            kinds,
            spans,
        }
    }

    /// The `i`-th lowercased word token.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn word(&self, i: usize) -> &str {
        let start = if i == 0 {
            0
        } else {
            self.word_ends[i - 1] as usize
        };
        &self.words_buf[start..self.word_ends[i] as usize]
    }

    /// Number of word tokens.
    pub fn len(&self) -> usize {
        self.word_ends.len()
    }

    /// True if the text has no word tokens.
    pub fn is_empty(&self) -> bool {
        self.word_ends.is_empty()
    }

    /// The lowercased word tokens, in text order.
    pub fn words(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.word(i))
    }

    /// The source text the prepared tokens index into.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Slices a matched span back out of the owned source text.
    ///
    /// # Panics
    ///
    /// Panics if the span does not lie on byte boundaries of this text —
    /// spans returned by [`Pattern::find_in`] on the same prepared text
    /// always do.
    pub fn snippet(&self, span: Span) -> &str {
        &self.source[span.start..span.end]
    }

    /// Source byte spans of the word tokens, parallel to [`Self::words`].
    ///
    /// Span ends are strictly increasing, so a byte-offset boundary (such
    /// as a title/description split inside a concatenated document) maps to
    /// a token prefix via `partition_point`.
    pub fn token_spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Pattern {
    /// Compiles a pattern from the DSL.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError`] on empty patterns, malformed gaps, or empty
    /// alternatives.
    pub fn parse(source: &str) -> Result<Self, PatternError> {
        let err = |reason: &str| PatternError {
            source: source.to_string(),
            reason: reason.to_string(),
        };
        let mut elems = Vec::new();
        for raw in source.split_whitespace() {
            if raw == "#" {
                elems.push(Elem::Number);
            } else if raw == "?" {
                elems.push(Elem::AnyWord);
            } else if let Some(gap) = raw.strip_prefix('<').and_then(|r| r.strip_suffix('>')) {
                let max: usize = gap.parse().map_err(|_| err("gap bound must be a number"))?;
                elems.push(Elem::Gap { max });
            } else {
                let mut alts = Vec::new();
                for alt in raw.split('|') {
                    if alt.is_empty() {
                        return Err(err("empty alternative"));
                    }
                    let lower = alt.to_ascii_lowercase();
                    if let Some(prefix) = lower.strip_suffix('*') {
                        if prefix.is_empty() {
                            return Err(err("empty prefix"));
                        }
                        alts.push(WordAlt::Prefix(prefix.to_string()));
                    } else {
                        alts.push(WordAlt::Literal(lower));
                    }
                }
                elems.push(Elem::Word(alts));
            }
        }
        if elems.is_empty() {
            return Err(err("pattern has no elements"));
        }
        if elems.iter().all(|e| matches!(e, Elem::Gap { .. })) {
            return Err(err("pattern must contain a non-gap element"));
        }
        Ok(Self {
            elems,
            source: source.to_string(),
        })
    }

    /// The DSL source the pattern was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Matches `self.elems[ei..]` at word position `wi`; returns the end
    /// word index of a successful match (shortest-gap first).
    fn match_at(&self, text: &PreparedText, ei: usize, wi: usize) -> Option<usize> {
        let Some(elem) = self.elems.get(ei) else {
            return Some(wi);
        };
        match elem {
            Elem::Word(alts) => {
                if wi >= text.len() {
                    return None;
                }
                let word = text.word(wi);
                if alts.iter().any(|a| a.matches(word)) {
                    self.match_at(text, ei + 1, wi + 1)
                } else {
                    None
                }
            }
            Elem::Number => {
                let kind = *text.kinds.get(wi)?;
                if matches!(kind, TokenKind::Number | TokenKind::HexNumber) {
                    self.match_at(text, ei + 1, wi + 1)
                } else {
                    None
                }
            }
            Elem::AnyWord => {
                if wi < text.len() {
                    self.match_at(text, ei + 1, wi + 1)
                } else {
                    None
                }
            }
            Elem::Gap { max } => (0..=*max).find_map(|skip| self.match_at(text, ei + 1, wi + skip)),
        }
    }

    /// The compiled elements (for same-crate multi-pattern indexing).
    pub(crate) fn elems(&self) -> &[Elem] {
        &self.elems
    }

    /// The match that starts at word `wi`, if any: its source byte span
    /// and the index of the first word after it.
    pub(crate) fn match_span_at(&self, text: &PreparedText, wi: usize) -> Option<(Span, usize)> {
        // The parser guarantees a non-gap element, so a match consumes at
        // least one word: end > wi.
        let end = self.match_at(text, 0, wi)?;
        let span = Span {
            start: text.spans[wi].start,
            end: text.spans[end - 1].end,
        };
        Some((span, end))
    }

    /// Finds all non-overlapping matches (leftmost, shortest-gap) and
    /// returns their source byte spans.
    pub fn find_in(&self, text: &PreparedText) -> Vec<Span> {
        let mut out = Vec::new();
        let mut wi = 0;
        while wi < text.len() {
            if let Some((span, end)) = self.match_span_at(text, wi) {
                out.push(span);
                wi = end;
            } else {
                wi += 1;
            }
        }
        out
    }

    /// True if the pattern matches anywhere in prepared text.
    pub fn is_match(&self, text: &PreparedText) -> bool {
        (0..text.len()).any(|wi| self.match_at(text, 0, wi).is_some())
    }

    /// Convenience: tokenizes `text` and tests for a match.
    pub fn matches(&self, text: &str) -> bool {
        self.is_match(&PreparedText::new(text))
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

impl std::str::FromStr for Pattern {
    type Err = PatternError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pattern::parse(s)
    }
}

/// A labelled collection of patterns applied together.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    patterns: Vec<(String, Pattern)>,
}

impl PatternSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pattern under a label; multiple patterns may share a label.
    pub fn add(&mut self, label: &str, pattern: Pattern) -> &mut Self {
        self.patterns.push((label.to_string(), pattern));
        self
    }

    /// Compiles and adds a pattern from DSL source.
    ///
    /// # Errors
    ///
    /// Propagates [`PatternError`] from compilation.
    pub fn add_source(&mut self, label: &str, source: &str) -> Result<&mut Self, PatternError> {
        let p = Pattern::parse(source)?;
        Ok(self.add(label, p))
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if the set has no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Labels whose patterns match the text, deduplicated, in insertion order.
    pub fn matching_labels(&self, text: &PreparedText) -> Vec<&str> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for (label, pattern) in &self.patterns {
            if !seen.contains(label.as_str()) && pattern.is_match(text) {
                seen.insert(label.as_str());
                out.push(label.as_str());
            }
        }
        out
    }

    /// The label of pattern `i`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn label(&self, i: usize) -> &str {
        &self.patterns[i].0
    }

    /// All `(label, span)` matches in the text: every pattern's
    /// [`Pattern::find_in`] spans, pattern after pattern.
    pub fn find_spans(&self, text: &PreparedText) -> Vec<(&str, Span)> {
        let mut out = Vec::new();
        for (label, pattern) in &self.patterns {
            for span in pattern.find_in(text) {
                out.push((label.as_str(), span));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prep(s: &str) -> PreparedText {
        PreparedText::new(s)
    }

    #[test]
    fn literal_phrase() {
        let p = Pattern::parse("machine check").unwrap();
        assert!(p.matches("a Machine Check exception is signaled"));
        assert!(!p.matches("check the machine"));
    }

    #[test]
    fn prefix_match() {
        let p = Pattern::parse("speculat*").unwrap();
        assert!(p.matches("a speculative load"));
        assert!(p.matches("due to speculation"));
        assert!(!p.matches("spec compliance"));
    }

    #[test]
    fn alternation() {
        let p = Pattern::parse("pci|pcie link").unwrap();
        assert!(p.matches("the PCIe link may degrade"));
        assert!(p.matches("the PCI link may degrade"));
        assert!(!p.matches("the USB link may degrade"));
    }

    #[test]
    fn bounded_gap() {
        let p = Pattern::parse("power <2> state").unwrap();
        assert!(p.matches("power state"));
        assert!(p.matches("power management state"));
        assert!(p.matches("power gating sleep state"));
        assert!(!p.matches("power a b c state"));
    }

    #[test]
    fn number_and_any_elements() {
        let p = Pattern::parse("exceeding # kb").unwrap();
        assert!(p.matches("a code footprint exceeding 32 KB"));
        assert!(!p.matches("exceeding many KB"));
        let q = Pattern::parse("bank ?").unwrap();
        assert!(q.matches("bank five"));
        assert!(!q.matches("bank"));
    }

    #[test]
    fn find_in_returns_byte_spans() {
        let text = "reset, then another reset occurs";
        let p = Pattern::parse("reset").unwrap();
        let spans = p.find_in(&prep(text));
        assert_eq!(spans.len(), 2);
        assert_eq!(&text[spans[0].start..spans[0].end], "reset");
        assert_eq!(&text[spans[1].start..spans[1].end], "reset");
    }

    #[test]
    fn spans_cover_whole_phrase() {
        let text = "during a power management state transition";
        let p = Pattern::parse("power <2> state").unwrap();
        let spans = p.find_in(&prep(text));
        assert_eq!(spans.len(), 1);
        assert_eq!(
            &text[spans[0].start..spans[0].end],
            "power management state"
        );
    }

    #[test]
    fn parse_errors() {
        assert!(Pattern::parse("").is_err());
        assert!(Pattern::parse("<3>").is_err());
        assert!(Pattern::parse("a||b").is_err());
        assert!(Pattern::parse("<x>").is_err());
        assert!(Pattern::parse("*").is_err());
        let e = Pattern::parse("").unwrap_err();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn pattern_set_labels_and_spans() {
        let mut set = PatternSet::new();
        set.add_source("pow", "power <2> state|states").unwrap();
        set.add_source("pow", "throttl*").unwrap();
        set.add_source("rst", "warm|cold reset").unwrap();
        let text = prep("after a warm reset during power state transitions with throttling");
        assert_eq!(set.matching_labels(&text), vec!["pow", "rst"]);
        let spans = set.find_spans(&text);
        assert_eq!(spans.len(), 3);
    }

    #[test]
    fn match_at_start_and_end_of_text() {
        let p = Pattern::parse("hang").unwrap();
        assert!(p.matches("hang"));
        assert!(p.matches("the processor may hang"));
        assert!(p.matches("hang occurs"));
    }

    #[test]
    fn gap_prefers_shortest() {
        let text = "power x state y state";
        let p = Pattern::parse("power <3> state").unwrap();
        let spans = p.find_in(&prep(text));
        assert_eq!(spans.len(), 1);
        assert_eq!(&text[spans[0].start..spans[0].end], "power x state");
    }

    #[test]
    fn prepared_text_owns_source_and_slices_snippets() {
        let text = PreparedText::from_string("a Warm Reset occurs".to_string());
        assert_eq!(text.source(), "a Warm Reset occurs");
        let p = Pattern::parse("warm reset").unwrap();
        let spans = p.find_in(&text);
        assert_eq!(spans.len(), 1);
        assert_eq!(text.snippet(spans[0]), "Warm Reset");
    }

    #[test]
    fn span_utilities() {
        let a = Span { start: 0, end: 5 };
        let b = Span { start: 4, end: 8 };
        let c = Span { start: 5, end: 6 };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
    }
}
