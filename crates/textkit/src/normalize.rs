//! Normalization for duplicate detection: stopword removal and a light
//! suffix-stripping stemmer.
//!
//! Intel duplicate detection works on titles whose phrasings vary slightly
//! between documents ("May Be Saved Incorrectly" vs "Might be Saved
//! Incorrectly"); normalization makes such variants compare equal.

use std::ops::Range;

use crate::tokenize::for_each_word;

/// English stopwords that carry no signal in erratum titles.
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "can", "could", "do", "does", "for", "from",
    "has", "have", "if", "in", "into", "is", "it", "its", "may", "might", "not", "of", "on", "or",
    "shall", "should", "such", "that", "the", "their", "then", "there", "these", "this", "to",
    "under", "upon", "when", "which", "while", "will", "with", "would",
];

/// The longest word [`pack`] holds.
const PACKED_MAX: usize = 7;

/// A word of at most [`PACKED_MAX`] bytes as one integer: its bytes in the
/// low bytes, its length in the top byte. Two such words pack equal exactly
/// when they are equal, so a stopword lookup compares integers, not
/// strings.
const fn pack(word: &[u8]) -> u64 {
    let mut key = (word.len() as u64) << 56;
    let mut i = 0;
    while i < word.len() {
        key |= (word[i] as u64) << (8 * i);
        i += 1;
    }
    key
}

/// [`STOPWORDS`] packed and sorted, for a binary search over integers.
const STOPWORD_KEYS: [u64; STOPWORDS.len()] = {
    let mut keys = [0u64; STOPWORDS.len()];
    let mut i = 0;
    while i < keys.len() {
        assert!(STOPWORDS[i].len() <= PACKED_MAX, "every stopword packs");
        keys[i] = pack(STOPWORDS[i].as_bytes());
        i += 1;
    }
    // Insertion sort: `sort` is not available in const evaluation.
    let mut i = 1;
    while i < keys.len() {
        let mut j = i;
        while j > 0 && keys[j - 1] > keys[j] {
            let swap = keys[j];
            keys[j] = keys[j - 1];
            keys[j - 1] = swap;
            j -= 1;
        }
        i += 1;
    }
    keys
};

/// True if the lowercase word is a stopword.
pub fn is_stopword(word: &str) -> bool {
    word.len() <= PACKED_MAX && STOPWORD_KEYS.binary_search(&pack(word.as_bytes())).is_ok()
}

/// Applies a light suffix-stripping stemmer to a lowercase word.
///
/// This is deliberately not a full Porter stemmer: erratum vocabulary is
/// narrow, and aggressive stemming would merge distinct technical terms.
/// Rules, in order: `'s`, `ies -> y`, `sses -> ss`, `es`, `s` (guarded),
/// `ing` (guarded), `ed` (guarded).
pub fn stem(word: &str) -> String {
    let w = word;
    if let Some(base) = w.strip_suffix("'s") {
        return base.to_string();
    }
    if let Some(base) = w.strip_suffix("ies") {
        if base.len() >= 2 {
            return format!("{base}y");
        }
    }
    if let Some(base) = w.strip_suffix("sses") {
        return format!("{base}ss");
    }
    if let Some(base) = w.strip_suffix("es") {
        // "caches" -> "cach"+"es"? prefer "cache": only strip bare "s" when
        // the remainder ends with a consonant cluster that needs the "e".
        if base.len() >= 3 && (base.ends_with("sh") || base.ends_with("ch") || base.ends_with('x'))
        {
            return base.to_string();
        }
    }
    if let Some(base) = w.strip_suffix('s') {
        if base.len() >= 3 && !base.ends_with('s') && !base.ends_with('u') && !base.ends_with('i') {
            return base.to_string();
        }
    }
    if let Some(base) = w.strip_suffix("ing") {
        if base.len() >= 3 {
            return base.to_string();
        }
    }
    if let Some(base) = w.strip_suffix("ed") {
        if base.len() >= 3 {
            return base.to_string();
        }
    }
    w.to_string()
}

/// [`stem`] applied in place to the word that ends `buf` and starts at
/// byte `start`: every rule is a suffix truncation (plus one `push('y')`
/// into freed capacity), so no word needs a `String` of its own. Behavior
/// is identical to [`stem`] — the tests below hold them equal.
fn stem_in_place(buf: &mut String, start: usize) {
    let (keep, y) = stem_cut(&buf[start..]);
    buf.truncate(start + keep);
    if y {
        buf.push('y');
    }
}

/// Where [`stem`] cuts a lowercase word: the length of the prefix it keeps,
/// and whether a `y` follows that prefix.
fn stem_cut(w: &str) -> (usize, bool) {
    let n = w.len();
    if w.ends_with("'s") {
        return (n - 2, false);
    }
    if w.ends_with("ies") && n >= 5 {
        return (n - 3, true);
    }
    if w.ends_with("sses") {
        return (n - 2, false);
    }
    if let Some(base) = w.strip_suffix("es") {
        if base.len() >= 3 && (base.ends_with("sh") || base.ends_with("ch") || base.ends_with('x'))
        {
            return (n - 2, false);
        }
    }
    if let Some(base) = w.strip_suffix('s') {
        if base.len() >= 3 && !base.ends_with('s') && !base.ends_with('u') && !base.ends_with('i') {
            return (n - 1, false);
        }
    }
    if w.ends_with("ing") && n >= 6 {
        return (n - 3, false);
    }
    if w.ends_with("ed") && n >= 5 {
        return (n - 2, false);
    }
    (n, false)
}

/// The one per-word normalization routine behind [`normalize`],
/// [`normalized_key`] and [`crate::TitleKey`]: appends the normalized words
/// of `text` to the empty `out`, separated by single spaces, and hands each
/// word's byte range in `out` to `word`.
///
/// Each word is copied into `out`, lowercased there, dropped again if it
/// is a stopword, and stemmed by truncation, so no word gets a `String` of
/// its own.
pub(crate) fn normalize_into(text: &str, out: &mut String, mut word: impl FnMut(Range<usize>)) {
    let mut first = true;
    for_each_word(text, |raw| {
        let mark = out.len();
        if !first {
            out.push(' ');
        }
        let start = out.len();
        out.push_str(raw);
        out[start..].make_ascii_lowercase();
        if is_stopword(&out[start..]) {
            out.truncate(mark);
            return;
        }
        stem_in_place(out, start);
        first = false;
        word(start..out.len());
    });
}

/// Normalizes text into a canonical token sequence: lowercase word tokens,
/// stopwords removed, light stemming applied.
///
/// # Examples
///
/// ```
/// use rememberr_textkit::normalize;
///
/// assert_eq!(
///     normalize("The X87 FDP Value May be Saved Incorrectly"),
///     normalize("X87 FDP values might be saved incorrectly"),
/// );
/// ```
pub fn normalize(text: &str) -> Vec<String> {
    let mut joined = String::with_capacity(text.len());
    let mut words = Vec::new();
    normalize_into(text, &mut joined, |range| words.push(range));
    words
        .into_iter()
        .map(|range| joined[range].to_string())
        .collect()
}

/// Normalized text joined with single spaces — the canonical title form the
/// Intel duplicate detector keys on.
pub fn normalized_key(text: &str) -> String {
    let mut joined = String::with_capacity(text.len());
    normalize_into(text, &mut joined, |_| {});
    joined
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-place stem over an owned word, for comparison with [`stem`].
    fn stem_owned(mut w: String) -> String {
        stem_in_place(&mut w, 0);
        w
    }

    #[test]
    fn stopwords_detected() {
        assert!(is_stopword("the"));
        assert!(is_stopword("may"));
        assert!(!is_stopword("processor"));
    }

    #[test]
    fn stopword_lookup_is_list_membership_near_every_listed_word() {
        let listed = |w: &str| STOPWORDS.contains(&w);
        for &word in STOPWORDS {
            assert!(is_stopword(word), "{word:?}");
            // One letter dropped, anywhere.
            for at in 0..word.len() {
                let dropped = format!("{}{}", &word[..at], &word[at + 1..]);
                assert_eq!(is_stopword(&dropped), listed(&dropped), "{dropped:?}");
            }
            // One letter added, anywhere (and a NUL, which packing must
            // not confuse with padding).
            for at in 0..=word.len() {
                for letter in ['a', 'e', 's', 'z', '\0'] {
                    let added = format!("{}{letter}{}", &word[..at], &word[at..]);
                    assert_eq!(is_stopword(&added), listed(&added), "{added:?}");
                }
            }
        }
    }

    #[test]
    fn stemming_rules() {
        assert_eq!(stem("registers"), "register");
        assert_eq!(stem("stores"), "store");
        assert_eq!(stem("caches"), "cach"); // via bare-s rule after "es" guard
        assert_eq!(stem("branches"), "branch");
        assert_eq!(stem("retries"), "retry");
        assert_eq!(stem("crossing"), "cross");
        assert_eq!(stem("saved"), "sav");
        assert_eq!(stem("processor's"), "processor");
        // Guards: short words and awkward endings survive.
        assert_eq!(stem("bus"), "bus");
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("miss"), "miss");
    }

    #[test]
    fn normalize_merges_phrasing_variants() {
        let a = normalized_key("Processor May Hang When Switching Between Caches");
        let b = normalized_key("The processor might hang when switching between the caches");
        assert_eq!(a, b);
    }

    #[test]
    fn normalize_keeps_technical_terms_distinct() {
        assert_ne!(
            normalized_key("PCIe link may degrade"),
            normalized_key("USB link may degrade")
        );
    }

    #[test]
    fn normalized_key_of_empty_is_empty() {
        assert_eq!(normalized_key(""), "");
        assert_eq!(normalized_key("the of and"), "");
    }

    #[test]
    fn stem_owned_matches_stem_on_rule_boundaries() {
        for w in [
            "",
            "s",
            "es",
            "ies",
            "sses",
            "ing",
            "ed",
            "'s",
            "ties",
            "dies",
            "yes",
            "uses",
            "misses",
            "boxes",
            "riches",
            "wishes",
            "caches",
            "registers",
            "crossing",
            "saved",
            "bus",
            "miss",
            "radius",
            "axis",
            "sing",
            "ring",
            "bed",
            "red",
            "seed",
            "processor's",
        ] {
            assert_eq!(stem_owned(w.to_string()), stem(w), "word {w:?}");
        }
    }

    proptest::proptest! {
        /// The in-place stem is a pure allocation optimization: it must
        /// agree with the reference [`stem`] on every input.
        #[test]
        fn stem_owned_is_stem(base in "[a-z']{0,10}", pick in 0usize..8) {
            const SUFFIXES: [&str; 8] = ["", "'s", "ies", "sses", "es", "s", "ing", "ed"];
            let w = format!("{base}{}", SUFFIXES[pick]);
            proptest::prop_assert_eq!(stem_owned(w.clone()), stem(&w));
        }

        #[test]
        fn stopword_lookup_is_list_membership(word in prop_oneof_words()) {
            proptest::prop_assert_eq!(is_stopword(&word), STOPWORDS.contains(&word.as_str()));
        }

        /// The in-place routine is the reference pipeline: lowercase word
        /// tokens, stopwords out, [`stem`] on the rest, joined by spaces.
        #[test]
        fn normalization_is_the_reference_pipeline(text in ".{0,40}") {
            let reference: Vec<String> = crate::tokenize::word_tokens(&text)
                .into_iter()
                .filter(|w| !STOPWORDS.contains(&w.as_str()))
                .map(|w| stem(&w))
                .collect();
            proptest::prop_assert_eq!(normalized_key(&text), reference.join(" "));
            proptest::prop_assert_eq!(normalize(&text), reference);
        }
    }

    /// Random lowercase words of stopword lengths and a little longer,
    /// plus arbitrary strings.
    fn prop_oneof_words() -> impl proptest::strategy::Strategy<Value = String> {
        proptest::prop_oneof!["[a-z]{0,9}", "[a-z]{1,3}", ".{0,9}"]
    }
}
