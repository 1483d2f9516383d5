//! String and token-set similarity metrics.
//!
//! The Intel duplicate detector ranks candidate pairs by title similarity
//! (Section IV-A: "title similarity is a strong indicator of potential
//! duplicates"). We provide Levenshtein distance (banded, early-exit) and
//! the composite title similarity the cascade uses: a blend of token-set
//! Jaccard and Levenshtein similarity over normalized titles, precomputed
//! per title as a [`TitleKey`].

use std::collections::BTreeSet;

use crate::normalize::normalize;

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

/// A title's precomputed similarity key: its normalized token set and
/// joined normalized form, computed once so repeated comparisons skip
/// re-normalization.
///
/// Titles are normalized (stopwords out, light stemming), then
/// [`TitleKey::similarity`] blends token Jaccard and character-level
/// Levenshtein similarity on the normalized keys: Jaccard captures word
/// permutations, Levenshtein captures near-identical phrasing with small
/// in-word edits. Normalization dominates the cost of a comparison, so
/// callers build one key per title and compare keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TitleKey {
    /// Distinct normalized tokens (the Jaccard operand).
    tokens: BTreeSet<String>,
    /// Normalized tokens joined with single spaces (the Levenshtein operand,
    /// identical to [`crate::normalized_key`] of the title).
    joined: String,
}

impl TitleKey {
    /// Normalizes `title` once into its comparison key.
    #[must_use]
    pub fn new(title: &str) -> Self {
        rememberr_obs::count("textkit.tokenize_calls", 1);
        let normalized = normalize(title);
        let joined = normalized.join(" ");
        Self {
            tokens: normalized.into_iter().collect(),
            joined,
        }
    }

    /// The joined normalized form — byte-identical to
    /// [`crate::normalized_key`] of the original title, so it doubles as the
    /// exact-match clustering key.
    #[must_use]
    pub fn joined(&self) -> &str {
        &self.joined
    }

    /// The distinct normalized tokens (the Jaccard operand), sorted.
    #[must_use]
    pub fn tokens(&self) -> &BTreeSet<String> {
        &self.tokens
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
        let inter = self.tokens.intersection(&other.tokens).count();
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
    /// Before the token-set intersection, the token counts alone may reject
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
