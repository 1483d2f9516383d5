//! Candidate-pair generation for the similarity cascade.
//!
//! The cascade only ever merges entry pairs with identical problem
//! descriptions, so candidates are confined to description groups. Within a
//! group, two generators are available:
//!
//! * [`CandidateGen::Indexed`] (default) — runs the threshold-derived
//!   inverted-index filters of [`rememberr_textkit::candidate_pairs`] over
//!   interned [`Signature`]s, pruning pairs that provably cannot reach the
//!   similarity threshold. Groups smaller than [`INDEX_GROUP_CUTOVER`]
//!   skip index construction entirely — for a handful of members the
//!   posting lists cost more than the pairs they prune — and enumerate
//!   distinct-root pairs directly (scoring still uses the signature fast
//!   paths).
//! * [`CandidateGen::Exhaustive`] — the original all-pairs enumerator,
//!   kept as the correctness oracle the equivalence suites compare
//!   against.
//!
//! Pruning is lossless (the index generates a superset of every pair that
//! can pass) and cascade merges are order-independent under union-find, so
//! both generators yield identical clusters, identical `cascade_merges`,
//! and byte-identical database JSON.
//!
//! Signatures come from one of two places: the legacy path builds them
//! here, lazily, for groups where a merge is still possible
//! ([`plan_cascade`]); the single-pass path borrows them from an
//! [`AnalyzedCorpus`] that already interned every title
//! ([`plan_cascade_analyzed`]). [`PlanSignatures`] abstracts over the two
//! so the scoring loop in `dedup` is identical either way.

use std::collections::BTreeSet;

use rememberr_textkit::{candidate_pairs, AnalyzedCorpus, Interner, Signature, TitleKey};

/// How the cascade generates candidate pairs within a description group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CandidateGen {
    /// Inverted token index with threshold-derived prefix/length filters;
    /// scoring then runs over interned signatures with edit-distance fast
    /// paths.
    #[default]
    Indexed,
    /// Brute-force all-pairs enumeration with full similarity scoring —
    /// the correctness oracle the indexed path is checked against.
    Exhaustive,
}

/// Smallest group size for which the indexed generator builds the inverted
/// token index. Below this, document-frequency tallies and posting lists
/// cost more than scoring the few possible pairs directly — the source of
/// the small-scale wall-clock regression the dedup baseline exposed — so
/// tiny groups enumerate distinct-root pairs like the oracle does and rely
/// on the signature fast paths at scoring time.
pub(crate) const INDEX_GROUP_CUTOVER: usize = 8;

/// Where a plan's scoring signatures live: built by the plan itself
/// (legacy per-stage path) or borrowed from the corpus-wide analysis arena
/// (single-pass path).
pub(crate) enum PlanSignatures<'a> {
    /// Signatures built lazily by [`plan_cascade`], aligned with the entry
    /// slice; `None` for entries no candidate pair touches.
    Owned(Vec<Option<Signature>>),
    /// Signatures borrowed from an [`AnalyzedCorpus`].
    Shared(&'a AnalyzedCorpus),
}

impl PlanSignatures<'_> {
    /// The signature of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a cascade candidate (owned plans only build
    /// signatures for candidates) or was not title-analyzed.
    pub(crate) fn get(&self, i: usize) -> &Signature {
        match self {
            PlanSignatures::Owned(sigs) => sigs[i].as_ref().expect("candidate is planned"),
            PlanSignatures::Shared(corpus) => {
                corpus.signature(i).expect("candidate is title-analyzed")
            }
        }
    }
}

/// The cascade's scoring work list, produced by [`plan_cascade`] or
/// [`plan_cascade_analyzed`].
pub(crate) struct CascadePlan<'a> {
    /// Entry-index pairs to score.
    pub pairs: Vec<(usize, usize)>,
    /// Pairs the index filters excluded without scoring (0 for the
    /// exhaustive generator).
    pub candidates_pruned: u64,
    /// Interned signatures for cascade participants (indexed generator
    /// only).
    pub signatures: PlanSignatures<'a>,
}

/// All distinct-root pairs of every group, in group order — the oracle
/// enumeration, also used below the indexed generator's group-size cutover.
fn exhaustive_pairs(groups: &[Vec<usize>], roots: &[usize]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for group in groups {
        for (gi, &a) in group.iter().enumerate() {
            for &b in &group[gi + 1..] {
                if roots[a] != roots[b] {
                    pairs.push((a, b));
                }
            }
        }
    }
    pairs
}

/// The indexed generator's pairing pass, generic over where signatures
/// live: per multi-root group, either enumerate directly (tiny groups) or
/// run the inverted-index filters, keeping pairs whose roots still differ.
fn indexed_pairs<'s>(
    groups: &[Vec<usize>],
    roots: &[usize],
    threshold: f64,
    signature: impl Fn(usize) -> &'s Signature,
) -> (Vec<(usize, usize)>, u64) {
    let mut pairs = Vec::new();
    let mut pruned = 0u64;
    for group in groups {
        let distinct: BTreeSet<usize> = group.iter().map(|&i| roots[i]).collect();
        if distinct.len() < 2 {
            continue;
        }
        if group.len() < INDEX_GROUP_CUTOVER {
            for (gi, &a) in group.iter().enumerate() {
                for &b in &group[gi + 1..] {
                    if roots[a] != roots[b] {
                        pairs.push((a, b));
                    }
                }
            }
            continue;
        }
        let refs: Vec<&Signature> = group.iter().map(|&i| signature(i)).collect();
        let candidates = candidate_pairs(&refs, threshold);
        pruned += candidates.pruned as u64;
        for (li, lj) in candidates.pairs {
            let (a, b) = (group[li], group[lj]);
            if roots[a] != roots[b] {
                pairs.push((a, b));
            }
        }
    }
    (pairs, pruned)
}

/// Plans the cascade's candidate pairs over description `groups`.
///
/// `roots` holds each entry's pre-cascade union-find root: pairs already in
/// the same cluster are never candidates (merging them would be a no-op),
/// matching the original enumerator. Signatures are built lazily, only for
/// groups where a merge is still possible, and share one [`Interner`] so
/// token ids agree across groups.
pub(crate) fn plan_cascade(
    groups: &[Vec<usize>],
    roots: &[usize],
    title_keys: &[Option<TitleKey>],
    threshold: f64,
    gen: CandidateGen,
) -> CascadePlan<'static> {
    match gen {
        CandidateGen::Exhaustive => CascadePlan {
            pairs: exhaustive_pairs(groups, roots),
            candidates_pruned: 0,
            signatures: PlanSignatures::Owned(Vec::new()),
        },
        CandidateGen::Indexed => {
            let mut signatures: Vec<Option<Signature>> = vec![None; title_keys.len()];
            let mut interner = Interner::new();
            for group in groups {
                let distinct: BTreeSet<usize> = group.iter().map(|&i| roots[i]).collect();
                if distinct.len() < 2 {
                    continue;
                }
                for &i in group {
                    if signatures[i].is_none() {
                        let key = title_keys[i].as_ref().expect("cascade entry is Intel");
                        signatures[i] = Some(Signature::from_title_key(key, &mut interner));
                    }
                }
            }
            let (pairs, pruned) = indexed_pairs(groups, roots, threshold, |i| {
                signatures[i].as_ref().expect("signature just built")
            });
            CascadePlan {
                pairs,
                candidates_pruned: pruned,
                signatures: PlanSignatures::Owned(signatures),
            }
        }
    }
}

/// [`plan_cascade`] over a pre-analyzed corpus: signatures were already
/// interned once, corpus-wide, by [`AnalyzedCorpus::analyze`], so planning
/// borrows them instead of rebuilding. The corpus interner assigns ids over
/// all title-analyzed documents (not just cascade participants), so rarity
/// tie-breaks inside the index filters may admit a *different lossless
/// superset* of candidates than the legacy plan — clusters, merges, and
/// database bytes are identical either way, only effort diagnostics may
/// shift.
pub(crate) fn plan_cascade_analyzed<'a>(
    groups: &[Vec<usize>],
    roots: &[usize],
    corpus: &'a AnalyzedCorpus,
    threshold: f64,
    gen: CandidateGen,
) -> CascadePlan<'a> {
    let (pairs, candidates_pruned) = match gen {
        CandidateGen::Exhaustive => (exhaustive_pairs(groups, roots), 0),
        CandidateGen::Indexed => indexed_pairs(groups, roots, threshold, |i| {
            corpus
                .signature(i)
                .expect("cascade entry is title-analyzed")
        }),
    };
    CascadePlan {
        pairs,
        candidates_pruned,
        signatures: PlanSignatures::Shared(corpus),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(titles: &[&str]) -> Vec<Option<TitleKey>> {
        titles.iter().map(|t| Some(TitleKey::new(t))).collect()
    }

    /// `n` pairwise-disjoint titles (no shared tokens), so the index can
    /// prune every pair.
    fn disjoint_titles(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("alpha{i} beta{i} gamma{i} delta{i}"))
            .collect()
    }

    #[test]
    fn candidate_gen_defaults_to_indexed() {
        // Every production caller takes the default; only tests and the
        // Criterion group select the exhaustive oracle.
        assert_eq!(CandidateGen::default(), CandidateGen::Indexed);
    }

    #[test]
    fn exhaustive_enumerates_distinct_root_pairs_in_group_order() {
        let title_keys = keys(&["a b", "a b c", "a c", "z"]);
        let groups = vec![vec![0, 1, 2], vec![3]];
        let roots = vec![0, 1, 0, 3]; // 0 and 2 already share a cluster
        let plan = plan_cascade(&groups, &roots, &title_keys, 0.5, CandidateGen::Exhaustive);
        assert_eq!(plan.pairs, vec![(0, 1), (1, 2)]);
        assert_eq!(plan.candidates_pruned, 0);
    }

    #[test]
    fn indexed_covers_every_passing_exhaustive_pair() {
        // At least INDEX_GROUP_CUTOVER titles so the index actually runs.
        let titles = [
            "warm reset processor hang",
            "warm reset processor hang case",
            "usb transfer drop packet",
            "pcie link retrain endlessly",
            "machine check cache eviction",
            "x87 fdp value save incorrectly",
            "thermal throttle under load",
            "memory controller training fail",
        ];
        let title_keys = keys(&titles);
        let groups = vec![(0..titles.len()).collect()];
        let roots: Vec<usize> = (0..titles.len()).collect();
        let threshold = 0.5;
        let exhaustive = plan_cascade(
            &groups,
            &roots,
            &title_keys,
            threshold,
            CandidateGen::Exhaustive,
        );
        let indexed = plan_cascade(
            &groups,
            &roots,
            &title_keys,
            threshold,
            CandidateGen::Indexed,
        );
        for &(a, b) in &exhaustive.pairs {
            let (ka, kb) = (
                title_keys[a].as_ref().unwrap(),
                title_keys[b].as_ref().unwrap(),
            );
            if ka.similarity(kb) >= threshold {
                assert!(
                    indexed.pairs.contains(&(a, b)),
                    "lost passing pair ({a}, {b})"
                );
            }
        }
        assert!(
            indexed.candidates_pruned > 0,
            "expected pruning on disjoint titles"
        );
    }

    #[test]
    fn indexed_skips_single_root_groups_entirely() {
        let title_keys = keys(&["a b", "a b"]);
        let groups = vec![vec![0, 1]];
        let roots = vec![0, 0];
        let plan = plan_cascade(&groups, &roots, &title_keys, 0.5, CandidateGen::Indexed);
        assert!(plan.pairs.is_empty());
        match &plan.signatures {
            PlanSignatures::Owned(sigs) => {
                assert!(sigs.iter().all(Option::is_none), "no signatures built");
            }
            PlanSignatures::Shared(_) => panic!("legacy plan owns its signatures"),
        }
    }

    /// Pins the group-size cutover: one member below it, the indexed
    /// generator enumerates directly (nothing pruned even on fully
    /// disjoint titles); at the cutover, the index runs and prunes.
    #[test]
    fn group_size_cutover_is_pinned() {
        assert_eq!(INDEX_GROUP_CUTOVER, 8);
        for (n, expect_pruning) in [
            (INDEX_GROUP_CUTOVER - 1, false),
            (INDEX_GROUP_CUTOVER, true),
        ] {
            let titles = disjoint_titles(n);
            let refs: Vec<&str> = titles.iter().map(String::as_str).collect();
            let title_keys = keys(&refs);
            let groups = vec![(0..n).collect()];
            let roots: Vec<usize> = (0..n).collect();
            let plan = plan_cascade(&groups, &roots, &title_keys, 0.5, CandidateGen::Indexed);
            if expect_pruning {
                assert!(plan.candidates_pruned > 0, "size {n}: index should prune");
                assert!(plan.pairs.is_empty(), "disjoint titles are all pruned");
            } else {
                assert_eq!(plan.candidates_pruned, 0, "size {n}: index bypassed");
                assert_eq!(plan.pairs.len(), n * (n - 1) / 2, "all pairs enumerated");
            }
        }
    }

    /// The analyzed plan (signatures borrowed from the corpus arena) and
    /// the legacy plan agree on every pair that can pass the threshold.
    #[test]
    fn analyzed_plan_covers_every_passing_pair() {
        let titles = [
            "warm reset processor hang",
            "warm reset processor hang case",
            "usb transfer drop packet",
            "pcie link retrain endlessly",
            "machine check cache eviction",
            "x87 fdp value save incorrectly",
            "thermal throttle under load",
            "memory controller training fail",
        ];
        let corpus = AnalyzedCorpus::analyze(&titles, |t| rememberr_textkit::DocText {
            text: format!("{t}\nbody"),
            title_len: t.len(),
            analyze_title: true,
        });
        let title_keys = keys(&titles);
        let groups = vec![(0..titles.len()).collect()];
        let roots: Vec<usize> = (0..titles.len()).collect();
        let threshold = 0.5;
        let plan =
            plan_cascade_analyzed(&groups, &roots, &corpus, threshold, CandidateGen::Indexed);
        for a in 0..titles.len() {
            for b in a + 1..titles.len() {
                let (ka, kb) = (
                    title_keys[a].as_ref().unwrap(),
                    title_keys[b].as_ref().unwrap(),
                );
                if ka.similarity(kb) >= threshold {
                    assert!(plan.pairs.contains(&(a, b)), "lost passing pair ({a}, {b})");
                }
            }
        }
        // Scoring through the borrowed signatures matches the title keys.
        for &(a, b) in &plan.pairs {
            let sim_sig = plan.signatures.get(a).similarity(plan.signatures.get(b));
            let sim_key = title_keys[a]
                .as_ref()
                .unwrap()
                .similarity(title_keys[b].as_ref().unwrap());
            assert!(sim_sig.to_bits() == sim_key.to_bits());
        }
    }
}
