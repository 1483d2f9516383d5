//! String and token-set similarity metrics.
//!
//! The Intel duplicate detector ranks candidate pairs by title similarity
//! (Section IV-A: "title similarity is a strong indicator of potential
//! duplicates"). We provide Levenshtein distance (banded, early-exit) and
//! the composite title similarity the cascade uses: a blend of token-set
//! Jaccard and Levenshtein similarity over normalized titles, precomputed
//! per title as a [`TitleKey`].

use std::cmp::Ordering;

use crate::normalize::normalize_into;

/// Levenshtein edit distance between two strings, by bytes.
///
/// Uses the classic two-row dynamic program. If `cutoff` is `Some(k)` and
/// the distance provably exceeds `k`, returns `k + 1` early.
pub fn levenshtein(a: &str, b: &str, cutoff: Option<usize>) -> usize {
    let a = a.as_bytes();
    let b = b.as_bytes();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    if let Some(k) = cutoff {
        if a.len().abs_diff(b.len()) > k {
            return k + 1;
        }
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if let Some(k) = cutoff {
            if row_min > k {
                return k + 1;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized Levenshtein similarity in `[0, 1]` (1 = identical).
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b, None) as f64 / max_len as f64
}

/// The composite blend: `0.6 * jaccard + 0.4 * levenshtein_similarity`.
///
/// Every similarity path (full scoring and the threshold check) funnels
/// through this one expression, so threshold short-cuts can reason about
/// the exact floating-point value the full computation would produce.
fn composite(jaccard: f64, levenshtein: f64) -> f64 {
    0.6 * jaccard + 0.4 * levenshtein
}

/// Outcome of a threshold-gated similarity check: whether the pair clears
/// the threshold, and whether deciding that required the Levenshtein
/// dynamic program (as opposed to a cheap bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdCheck {
    /// `similarity(a, b) >= threshold`, decided exactly.
    pub passes: bool,
    /// True if the edit-distance dynamic program had to run; false when a
    /// constant-time bound settled the question.
    pub scored: bool,
}

/// Upper bound on the Levenshtein distance: after stripping the longest
/// common prefix and suffix, the remainders can always be aligned with
/// `max(|rem_a|, |rem_b|)` substitutions/insertions/deletions.
fn trimmed_distance_bound(a: &[u8], b: &[u8]) -> usize {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (a.len() - suffix).max(b.len() - suffix)
}

/// Decides `composite(j, levenshtein_similarity(a, b)) >= threshold` with
/// the exact result of the full computation, running the edit-distance
/// dynamic program only when cheap bounds cannot settle it.
///
/// Soundness: `composite` is monotone non-increasing in the edit distance
/// `d` (every floating-point step — division, subtraction, scaled blend —
/// is monotone), and `|len(a) - len(b)| <= d <= trimmed_distance_bound`.
/// Evaluating the *same* float expression at the bounds therefore brackets
/// the true value; only when the bracket straddles the threshold does the
/// banded DP run, with its cutoff set to the largest distance that still
/// passes — the exact band [`levenshtein`] exits early on.
fn decide_threshold(jaccard: f64, a: &str, b: &str, threshold: f64) -> ThresholdCheck {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return ThresholdCheck {
            passes: composite(jaccard, 1.0) >= threshold,
            scored: false,
        };
    }
    // The exact similarity the full computation would produce for a
    // hypothetical distance d — same expression, same rounding.
    let sim_at = |d: usize| composite(jaccard, 1.0 - d as f64 / max_len as f64);
    let d_lower = a.len().abs_diff(b.len());
    if sim_at(d_lower) < threshold {
        // Even the most favorable distance fails: hopeless pair.
        return ThresholdCheck {
            passes: false,
            scored: false,
        };
    }
    let d_upper = trimmed_distance_bound(a.as_bytes(), b.as_bytes());
    if sim_at(d_upper) >= threshold {
        // Even the least favorable distance passes: certain pair.
        return ThresholdCheck {
            passes: true,
            scored: false,
        };
    }
    // sim_at is monotone non-increasing, sim_at(d_lower) passes and
    // sim_at(d_upper) fails: binary-search the largest passing distance.
    let (mut lo, mut hi) = (d_lower, d_upper);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if sim_at(mid) >= threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let d = levenshtein(a, b, Some(lo));
    ThresholdCheck {
        passes: d <= lo,
        scored: true,
    }
}

/// A title's precomputed similarity key: its joined normalized form and
/// its distinct normalized tokens, computed once so repeated comparisons
/// skip re-normalization.
///
/// Titles are normalized (stopwords out, light stemming), then
/// [`TitleKey::similarity`] blends token Jaccard and character-level
/// Levenshtein similarity on the normalized keys: Jaccard captures word
/// permutations, Levenshtein captures near-identical phrasing with small
/// in-word edits. Normalization dominates the cost of a comparison, so
/// callers build one key per title and compare keys.
///
/// The tokens are byte ranges into the joined form, sorted by token text,
/// so a key makes two allocations however many words the title has, and
/// the Jaccard intersection is a merge of two sorted lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TitleKey {
    /// Normalized tokens joined with single spaces (the Levenshtein operand,
    /// identical to [`crate::normalized_key`] of the title).
    joined: String,
    /// Byte ranges in `joined` of the distinct tokens (the Jaccard operand),
    /// sorted by token text; of repeated tokens, the first occurrence.
    tokens: Vec<(usize, usize)>,
}

impl TitleKey {
    /// Normalizes `title` once into its comparison key.
    #[must_use]
    pub fn new(title: &str) -> Self {
        rememberr_obs::count("textkit.tokenize_calls", 1);
        let mut joined = String::with_capacity(title.len());
        let mut tokens = Vec::new();
        normalize_into(title, &mut joined, |range| {
            tokens.push((range.start, range.end));
        });
        let token = |&(start, end): &(usize, usize)| &joined[start..end];
        tokens.sort_unstable_by(|a, b| token(a).cmp(token(b)).then(a.0.cmp(&b.0)));
        tokens.dedup_by(|a, b| token(a) == token(b));
        Self { joined, tokens }
    }

    /// The joined normalized form — byte-identical to
    /// [`crate::normalized_key`] of the original title, so it doubles as the
    /// exact-match clustering key.
    #[must_use]
    pub fn joined(&self) -> &str {
        &self.joined
    }

    /// The distinct normalized tokens (the Jaccard operand), sorted.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.tokens
            .iter()
            .map(|&(start, end)| &self.joined[start..end])
    }

    /// The fewest distinct tokens this key must share with another key for
    /// their similarity to reach `threshold`: the least `o` with
    /// `composite(o / n, 1.0) >= threshold` for this key's `n` tokens, in
    /// the float expression [`TitleKey::similarity`] evaluates (`n + 1` if
    /// no `o <= n` reaches it).
    ///
    /// The bound is exact in floating point. The computed Jaccard
    /// `shared / union` is at most `shared / n`, since the union holds this
    /// key's tokens and correctly rounded division is monotone in both
    /// operands; the Levenshtein similarity is at most 1; and the
    /// composite blend is monotone in both. A key with no tokens returns
    /// 1: it shares none, and only another empty key can reach a threshold
    /// above 0.4 with it, through the Jaccard of two empty sets, 1.
    #[must_use]
    pub fn min_shared_tokens(&self, threshold: f64) -> usize {
        let n = self.tokens.len();
        if n == 0 {
            return 1;
        }
        (0..=n)
            .find(|&o| composite(o as f64 / n as f64, 1.0) >= threshold)
            .unwrap_or(n + 1)
    }

    /// The number of distinct tokens the two keys share: a merge of the
    /// two sorted token lists.
    fn shared_tokens(&self, other: &Self) -> usize {
        let (mut mine, mut theirs) = (self.tokens().peekable(), other.tokens().peekable());
        let mut shared = 0;
        while let (Some(a), Some(b)) = (mine.peek(), theirs.peek()) {
            match a.cmp(b) {
                Ordering::Less => {
                    mine.next();
                }
                Ordering::Greater => {
                    theirs.next();
                }
                Ordering::Equal => {
                    shared += 1;
                    mine.next();
                    theirs.next();
                }
            }
        }
        shared
    }

    /// Composite title similarity in `[0, 1]` against another key, the
    /// ranking key of the Intel duplicate-detection cascade.
    #[must_use]
    pub fn similarity(&self, other: &Self) -> f64 {
        let l = levenshtein_similarity(&self.joined, &other.joined);
        composite(self.jaccard(other), l)
    }

    /// Token-set Jaccard similarity against another key (the first operand
    /// of the composite blend).
    #[must_use]
    pub fn jaccard(&self, other: &Self) -> f64 {
        let inter = self.shared_tokens(other);
        let union = self.tokens.len() + other.tokens.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Decides `self.similarity(other) >= threshold` exactly, without
    /// always paying for the full edit-distance computation.
    ///
    /// The threshold is threaded into [`levenshtein`]'s cutoff band: the
    /// dynamic program runs only when constant-time distance bounds cannot
    /// settle the comparison, and then exits as soon as the distance
    /// provably leaves the band that could still pass. `passes` is
    /// bit-for-bit identical to comparing [`TitleKey::similarity`] against
    /// `threshold`; `scored` reports whether the dynamic program ran.
    ///
    /// Before the token-list merge, the token counts alone may reject
    /// the pair: `jaccard <= min(|A|, |B|) / max(|A|, |B|)`, and correctly
    /// rounded division is monotone in both operands, so the bound holds in
    /// floating point too. A pair it rejects also fails the first bound of
    /// the edit-distance decision, so `scored` is what that decision alone
    /// would report.
    #[must_use]
    pub fn similarity_at_least(&self, other: &Self, threshold: f64) -> ThresholdCheck {
        let (na, nb) = (self.tokens.len(), other.tokens.len());
        let max_len = self.joined.len().max(other.joined.len());
        // Both token sets empty (jaccard 1) or both keys empty (no length
        // bound): the decision below handles those exactly.
        if na.max(nb) > 0 && max_len > 0 {
            let j_upper = na.min(nb) as f64 / na.max(nb) as f64;
            let d_lower = self.joined.len().abs_diff(other.joined.len());
            if composite(j_upper, 1.0 - d_lower as f64 / max_len as f64) < threshold {
                return ThresholdCheck {
                    passes: false,
                    scored: false,
                };
            }
        }
        decide_threshold(self.jaccard(other), &self.joined, &other.joined, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", "", None), 0);
        assert_eq!(levenshtein("abc", "", None), 3);
        assert_eq!(levenshtein("kitten", "sitting", None), 3);
        assert_eq!(levenshtein("flaw", "lawn", None), 2);
    }

    #[test]
    fn levenshtein_cutoff_early_exit() {
        assert_eq!(levenshtein("aaaaaaaaaa", "bbbbbbbbbb", Some(3)), 4);
        assert_eq!(levenshtein("short", "muchlongerstring", Some(2)), 3);
        // Within cutoff: exact value.
        assert_eq!(levenshtein("kitten", "sitting", Some(5)), 3);
    }

    #[test]
    fn jaccard_basics() {
        let jaccard = |a: &str, b: &str| TitleKey::new(a).jaccard(&TitleKey::new(b));
        // Titles of stopwords only have empty token sets.
        assert_eq!(jaccard("", "the of"), 1.0);
        assert_eq!(jaccard("warm reset", "reset warm"), 1.0);
        assert_eq!(jaccard("warm reset", "usb pcie"), 0.0);
        assert_eq!(jaccard("warm reset hang", "reset hang cache"), 0.5);
    }

    #[test]
    fn title_key_ranks_near_duplicates_high() {
        let a = TitleKey::new("X87 FDP Value May be Saved Incorrectly");
        let b = TitleKey::new("x87 FDP Values Might Be Saved Incorrectly");
        let c = TitleKey::new(
            "Processor May Hang When Switching Between Instruction Cache and Op Cache",
        );
        assert!(a.similarity(&b) > 0.9, "{}", a.similarity(&b));
        assert!(a.similarity(&c) < 0.3, "{}", a.similarity(&c));
        assert!(a.similarity(&a) > 0.999);
    }

    #[test]
    fn title_key_exposes_the_normalized_key() {
        let title = "X87 FDP Value May be Saved Incorrectly";
        assert_eq!(TitleKey::new(title).joined(), crate::normalized_key(title));
    }

    #[test]
    fn min_shared_tokens_at_the_intra_document_threshold() {
        let key = |n: usize| {
            TitleKey::new(
                &(0..n)
                    .map(|i| format!("w{i}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        };
        // composite(0, 1) = 0.4, so at 0.9 every non-empty key needs a
        // shared token; five tokens need all five, six need five.
        assert_eq!(key(0).min_shared_tokens(0.9), 1);
        assert_eq!(key(1).min_shared_tokens(0.9), 1);
        assert_eq!(key(5).min_shared_tokens(0.9), 5);
        for n in 1..=64 {
            let alpha = key(n).min_shared_tokens(0.9);
            assert!((1..=n).contains(&alpha), "{n} tokens: {alpha}");
        }
        assert_eq!(key(3).min_shared_tokens(0.0), 0);
        assert_eq!(key(3).min_shared_tokens(1.5), 4);
    }

    #[test]
    fn trimmed_bound_brackets_the_distance() {
        for (a, b) in [
            ("warm reset hang", "warm reset hang case"),
            ("kitten", "sitting"),
            ("", "abc"),
            ("same", "same"),
            ("x87 fdp value save incorrectly", "x87 fdp value might save"),
        ] {
            let d = levenshtein(a, b, None);
            assert!(
                d <= trimmed_distance_bound(a.as_bytes(), b.as_bytes()),
                "{a:?} vs {b:?}"
            );
            assert!(d >= a.len().abs_diff(b.len()));
        }
    }

    /// Stopwords, stem variants and a few content words: titles drawn from
    /// this share most tokens, so pairs land on both sides of thresholds in
    /// `[0.8, 1.0]`, and some are empty or stopwords only.
    const VOCAB: &[&str] = &[
        "the", "of", "may", "might", "be", "warm", "reset", "resets", "hang", "hanging", "hangs",
        "cache", "caches", "value", "values", "saved", "x87", "usb",
    ];

    fn vocab_title() -> impl Strategy<Value = String> {
        prop::collection::vec((0..VOCAB.len()).prop_map(|i| VOCAB[i]), 0..8)
            .prop_map(|words| words.join(" "))
    }

    /// Arbitrary strings at any threshold, or vocabulary titles at
    /// thresholds around the intra-document check's 0.9, where the
    /// token-count bound both rejects and passes pairs.
    fn titles_and_threshold() -> impl Strategy<Value = (String, String, f64)> {
        prop_oneof![
            (".{0,60}", ".{0,60}", 0.0f64..1.0),
            (
                vocab_title(),
                vocab_title(),
                prop_oneof![0.8f64..1.0, Just(0.9), Just(1.0)],
            ),
        ]
    }

    proptest! {
        #[test]
        fn threshold_check_matches_full_similarity(
            (a, b, threshold) in titles_and_threshold(),
        ) {
            let (ka, kb) = (TitleKey::new(&a), TitleKey::new(&b));
            let full = ka.similarity(&kb) >= threshold;
            let fast = ka.similarity_at_least(&kb, threshold);
            prop_assert_eq!(fast.passes, full, "threshold {} on {:?} vs {:?}", threshold, a, b);
            let unbounded = decide_threshold(ka.jaccard(&kb), ka.joined(), kb.joined(), threshold);
            prop_assert_eq!(fast.scored, unbounded.scored, "{:?} vs {:?}", a, b);
        }

        /// The key's tokens are the sorted, deduplicated normalized words,
        /// its joined form is the normalized key, and its Jaccard is
        /// bit-identical to a `BTreeSet` intersection over those words.
        #[test]
        fn title_keys_match_the_set_oracle(
            a in prop_oneof![vocab_title(), ".{0,40}"],
            b in prop_oneof![vocab_title(), ".{0,40}"],
        ) {
            use std::collections::BTreeSet;

            let (ka, kb) = (TitleKey::new(&a), TitleKey::new(&b));
            let (sa, sb): (BTreeSet<String>, BTreeSet<String>) =
                (crate::normalize(&a).into_iter().collect(), crate::normalize(&b).into_iter().collect());
            prop_assert!(ka.tokens().eq(sa.iter().map(String::as_str)), "{:?}", a);
            prop_assert_eq!(ka.joined(), crate::normalized_key(&a));
            let inter = sa.intersection(&sb).count();
            let union = sa.len() + sb.len() - inter;
            let oracle = if union == 0 { 1.0 } else { inter as f64 / union as f64 };
            prop_assert_eq!(ka.jaccard(&kb).to_bits(), oracle.to_bits(), "{:?} vs {:?}", a, b);
        }

        /// A pair that reaches the threshold shares at least
        /// `min_shared_tokens` of each non-empty side, and one token fewer
        /// would not reach it.
        #[test]
        fn passing_pairs_share_the_minimum_token_count(
            (a, b, threshold) in titles_and_threshold(),
        ) {
            let (ka, kb) = (TitleKey::new(&a), TitleKey::new(&b));
            for key in [&ka, &kb] {
                let (n, alpha) = (key.tokens().len(), key.min_shared_tokens(threshold));
                if n > 0 && alpha > 0 && alpha <= n {
                    prop_assert!(composite((alpha - 1) as f64 / n as f64, 1.0) < threshold);
                    prop_assert!(composite(alpha as f64 / n as f64, 1.0) >= threshold);
                }
                if n > 0 && ka.similarity_at_least(&kb, threshold).passes {
                    prop_assert!(
                        ka.shared_tokens(&kb) >= alpha,
                        "{:?} vs {:?} at {}", a, b, threshold
                    );
                }
            }
        }

        #[test]
        fn levenshtein_is_a_metric(a in "[a-c]{0,12}", b in "[a-c]{0,12}", c in "[a-c]{0,12}") {
            let dab = levenshtein(&a, &b, None);
            let dba = levenshtein(&b, &a, None);
            prop_assert_eq!(dab, dba); // symmetry
            prop_assert_eq!(levenshtein(&a, &a, None), 0); // identity
            let dac = levenshtein(&a, &c, None);
            let dcb = levenshtein(&c, &b, None);
            prop_assert!(dab <= dac + dcb); // triangle inequality
        }

        #[test]
        fn similarity_scores_are_in_unit_interval(a in ".{0,40}", b in ".{0,40}") {
            let t = TitleKey::new(&a).similarity(&TitleKey::new(&b));
            prop_assert!((0.0..=1.0).contains(&t), "title {t}");
            let l = levenshtein_similarity(&a, &b);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&l), "lev {l}");
        }

        #[test]
        fn jaccard_symmetric(a in prop::collection::vec("[a-e]{1,3}", 0..8),
                             b in prop::collection::vec("[a-e]{1,3}", 0..8)) {
            let (ka, kb) = (TitleKey::new(&a.join(" ")), TitleKey::new(&b.join(" ")));
            prop_assert_eq!(ka.jaccard(&kb).to_bits(), kb.jaccard(&ka).to_bits());
        }
    }
}
