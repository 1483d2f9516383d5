//! Duplicate keying: clustering identical errata across documents.
//!
//! Section IV-A of the paper:
//!
//! * **AMD** identifies errata with vendor-global numbers, so two documents
//!   list the same bug iff they use the same number.
//! * **Intel** gives no cross-document identifiers. The study first marks
//!   errata with identical titles as duplicates (manual inspection showed
//!   identical titles imply identical remaining fields), then manually
//!   inspects the remaining pairs in decreasing title similarity, finding
//!   29 more pairs with minor phrasing variations.
//!
//! [`DedupStrategy::SimilarityCascade`] automates the manual step: a pair
//! whose titles are similar above a threshold *and* whose problem
//! descriptions are textually identical is merged. The description check is
//! the automated stand-in for "all other fields are identical as well".
//! [`DedupStrategy::ExactTitleOnly`] is the ablation baseline.
//!
//! The cascade scores every pair of entries that share a description and do
//! not already share a cluster. Such a group holds a few listings of one
//! bug, so there is nothing to prune: [`CandidateGen`] only chooses how
//! each pair is decided, never which pairs are looked at.

use std::collections::HashMap;

use rememberr_model::{UniqueKey, Vendor};
use rememberr_textkit::{ThresholdCheck, TitleKey};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::entry::DbEntry;

/// Intel deduplication strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DedupStrategy {
    /// Only exact (normalized) title matches are merged — misses the
    /// near-duplicate pairs the study found manually.
    ExactTitleOnly,
    /// Exact title matches plus the similarity cascade at
    /// [`SIMILARITY_THRESHOLD`]: the paper-equivalent configuration.
    #[default]
    SimilarityCascade,
}

/// Minimum composite title similarity for the cascade to merge a pair.
///
/// Candidates are generated by *body identity* (identical problem text), so
/// the threshold's role is to reject pathological coincidences, not to rank
/// free-form pairs; near-duplicate titles with very short normalized keys
/// can score as low as ~0.55.
pub const SIMILARITY_THRESHOLD: f64 = 0.5;

/// How the similarity cascade decides each pair of same-description
/// entries.
///
/// Both variants look at exactly the same pairs and reach exactly the same
/// decisions, so clusters, `cascade_merges` and serialized output are
/// identical; only the `comparisons_made` diagnostic differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CandidateGen {
    /// [`TitleKey::similarity_at_least`]: constant-time edit-distance bounds
    /// decide most pairs, and the Levenshtein dynamic program runs only
    /// when the bounds straddle the threshold.
    #[default]
    Bounded,
    /// Full similarity for every pair — the correctness oracle the bounded
    /// decision is checked against.
    Exhaustive,
}

/// Statistics about a deduplication run.
///
/// The first four fields describe the clustering *result* and are the
/// serialized identity of a run: equality, persistence, and the
/// determinism suite all key on them alone. `comparisons_made` is an
/// effort diagnostic — it varies with [`CandidateGen`] (the bounded
/// decision does strictly less work for the same clusters) and is
/// deliberately excluded from `==` and from the database header so both
/// variants produce byte-identical JSON.
#[derive(Debug, Clone, Copy, Default)]
pub struct DedupStats {
    /// Total entries keyed.
    pub entries: usize,
    /// Clusters (unique bugs) produced.
    pub clusters: usize,
    /// Intel clusters merged by exact normalized titles.
    pub exact_title_merges: usize,
    /// Intel cluster merges contributed by the similarity cascade — the
    /// counterpart of the study's 29 manually-identified pairs.
    pub cascade_merges: usize,
    /// Diagnostic: full Levenshtein dynamic-program evaluations the
    /// cascade paid for. [`CandidateGen::Exhaustive`] scores every pair
    /// fully; [`CandidateGen::Bounded`] resolves most pairs with
    /// constant-time bounds and only falls back to the DP when the bounds
    /// straddle the threshold.
    pub comparisons_made: u64,
}

impl PartialEq for DedupStats {
    fn eq(&self, other: &Self) -> bool {
        (
            self.entries,
            self.clusters,
            self.exact_title_merges,
            self.cascade_merges,
        ) == (
            other.entries,
            other.clusters,
            other.exact_title_merges,
            other.cascade_merges,
        )
    }
}

impl Eq for DedupStats {}

impl Serialize for DedupStats {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("entries".to_string(), self.entries.to_value()),
            ("clusters".to_string(), self.clusters.to_value()),
            (
                "exact_title_merges".to_string(),
                self.exact_title_merges.to_value(),
            ),
            ("cascade_merges".to_string(), self.cascade_merges.to_value()),
        ])
    }
}

impl Deserialize for DedupStats {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if value.as_object().is_none() {
            return Err(DeError::mismatch("object", value));
        }
        let field = |name: &str| -> Result<usize, DeError> {
            value
                .get(name)
                .ok_or_else(|| DeError::missing(name))
                .and_then(usize::from_value)
        };
        Ok(DedupStats {
            entries: field("entries")?,
            clusters: field("clusters")?,
            exact_title_merges: field("exact_title_merges")?,
            cascade_merges: field("cascade_merges")?,
            comparisons_made: 0,
        })
    }
}

/// Assigns a [`UniqueKey`] to every entry, in place, and returns statistics.
///
/// Keys are dense, assigned in first-appearance order (AMD clusters first
/// when AMD entries precede Intel ones in `entries`). Uses the default
/// (bounded) pair decision; see [`assign_keys_with`] to choose.
pub fn assign_keys(entries: &mut [DbEntry], strategy: DedupStrategy) -> DedupStats {
    assign_keys_with(entries, strategy, CandidateGen::default())
}

/// [`assign_keys`] with an explicit cascade pair decision.
///
/// The choice only changes how much work the similarity cascade does:
/// clusters, key assignment, `cascade_merges`, and serialized output are
/// identical for every [`CandidateGen`]. Only the `comparisons_made`
/// diagnostic differs.
pub fn assign_keys_with(
    entries: &mut [DbEntry],
    strategy: DedupStrategy,
    candidates: CandidateGen,
) -> DedupStats {
    let _span = rememberr_obs::span!("dedup.assign_keys");
    let mut stats = DedupStats {
        entries: entries.len(),
        ..DedupStats::default()
    };

    // Union-find over entry indices.
    let mut parent: Vec<usize> = (0..entries.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let union = |parent: &mut [usize], a: usize, b: usize| -> bool {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
            true
        } else {
            false
        }
    };

    // --- AMD: cluster by vendor-global number. ---
    let mut amd_by_number: HashMap<u32, usize> = HashMap::new();
    for (i, e) in entries.iter().enumerate() {
        if e.vendor() == Vendor::Amd {
            if let Some(&first) = amd_by_number.get(&e.id().number) {
                union(&mut parent, first, i);
            } else {
                amd_by_number.insert(e.id().number, i);
            }
        }
    }

    // --- Intel: precomputed title keys. ---
    // Each Intel title is normalized exactly once into a side table instead
    // of inside the pairwise cascade below; the table feeds both the
    // exact-title stage and the similarity scoring. `title_keys[i]` is
    // `Some` exactly for the Intel entries.
    let title_keys: Vec<Option<TitleKey>> = {
        let _span = rememberr_obs::span!("dedup.title_keys");
        rememberr_par::par_map(&*entries, |e| {
            (e.vendor() == Vendor::Intel).then(|| TitleKey::new(&e.erratum.title))
        })
    };

    // --- Intel: exact normalized-title clusters. ---
    let mut intel_by_title: HashMap<&str, usize> = HashMap::new();
    for (i, key) in title_keys.iter().enumerate() {
        if let Some(key) = key {
            if let Some(&first) = intel_by_title.get(key.joined()) {
                if union(&mut parent, first, i) {
                    stats.exact_title_merges += 1;
                }
            } else {
                intel_by_title.insert(key.joined(), i);
            }
        }
    }

    // --- Intel: similarity cascade over remaining cluster pairs. ---
    //
    // Split into a parallel scoring pass and a sequential merge so results
    // are identical at every worker count: pairs are fixed by the
    // pre-cascade union-find state (description groups are disjoint, so no
    // cascade merge can invalidate another group's pairs), every pair is
    // decided independently, then merges apply in deterministic pair order.
    // `dedup.comparisons_made` counts full edit-distance evaluations — a
    // pure function of the input and `candidates`, not of scheduling.
    if strategy == DedupStrategy::SimilarityCascade {
        let _span = rememberr_obs::span!("dedup.cascade");
        // Pairs by identical description text: this is the cheap, reliable
        // surrogate for "all other fields are identical". Groups are kept in
        // first-appearance order for deterministic pair ordering.
        let mut group_of: HashMap<&str, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            if e.vendor() == Vendor::Intel {
                let g = *group_of
                    .entry(e.erratum.description.as_str())
                    .or_insert_with(|| {
                        groups.push(Vec::new());
                        groups.len() - 1
                    });
                groups[g].push(i);
            }
        }
        let roots: Vec<usize> = (0..entries.len()).map(|i| find(&mut parent, i)).collect();
        let pairs = distinct_root_pairs(&groups, &roots);
        let key = |i: usize| title_keys[i].as_ref().expect("cascade entry is Intel");
        let checks: Vec<ThresholdCheck> =
            rememberr_par::par_map(&pairs, |&(a, b)| match candidates {
                CandidateGen::Bounded => key(a).similarity_at_least(key(b), SIMILARITY_THRESHOLD),
                CandidateGen::Exhaustive => ThresholdCheck {
                    passes: key(a).similarity(key(b)) >= SIMILARITY_THRESHOLD,
                    scored: true,
                },
            });
        stats.comparisons_made = checks.iter().filter(|c| c.scored).count() as u64;
        for (&(a, b), check) in pairs.iter().zip(&checks) {
            if check.passes && union(&mut parent, a, b) {
                stats.cascade_merges += 1;
            }
        }
        rememberr_obs::count("dedup.comparisons_made", stats.comparisons_made);
    }

    // --- Key assignment in first-appearance order. ---
    let mut root_to_key: HashMap<usize, UniqueKey> = HashMap::new();
    let mut next = 1u32;
    for (i, entry) in entries.iter_mut().enumerate() {
        let root = find(&mut parent, i);
        let key = *root_to_key.entry(root).or_insert_with(|| {
            let k = UniqueKey(next);
            next += 1;
            k
        });
        entry.key = Some(key);
    }
    stats.clusters = root_to_key.len();
    rememberr_obs::count("dedup.entries_keyed", stats.entries as u64);
    rememberr_obs::count("dedup.clusters_formed", stats.clusters as u64);
    rememberr_obs::count("dedup.exact_title_merges", stats.exact_title_merges as u64);
    rememberr_obs::count("dedup.cascade_merges", stats.cascade_merges as u64);
    stats
}

/// Every pair of entries inside a description group whose pre-cascade
/// union-find roots differ, in group order. Pairs already in one cluster
/// are skipped: merging them would be a no-op.
fn distinct_root_pairs(groups: &[Vec<usize>], roots: &[usize]) -> Vec<(usize, usize)> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_model::{Date, Design, Erratum, ErratumId, Provenance};

    fn entry(design: Design, number: u32, title: &str, description: &str) -> DbEntry {
        DbEntry::new(
            Erratum {
                id: ErratumId::new(design, number),
                title: title.to_string(),
                description: description.to_string(),
                implications: String::new(),
                workaround: "None identified.".into(),
                status: "No fix planned.".into(),
            },
            Provenance::from_revision_log(1, Date::new(2016, 1, 15).unwrap()),
        )
    }

    #[test]
    fn amd_clusters_by_number() {
        let mut entries = vec![
            entry(Design::Amd17h00, 1100, "Title A", "da"),
            entry(Design::Amd17h30, 1100, "Title A slightly reworded", "da"),
            entry(Design::Amd17h30, 1101, "Title A", "da"),
        ];
        let stats = assign_keys(&mut entries, DedupStrategy::ExactTitleOnly);
        assert_eq!(entries[0].key, entries[1].key);
        // Same title but different number: a distinct AMD bug.
        assert_ne!(entries[0].key, entries[2].key);
        assert_eq!(stats.clusters, 2);
    }

    #[test]
    fn intel_exact_titles_merge_across_documents() {
        let mut entries = vec![
            entry(
                Design::Intel6,
                1,
                "X87 FDP Value May be Saved Incorrectly",
                "d1",
            ),
            entry(
                Design::Intel7_8,
                4,
                "X87 FDP Values might be saved incorrectly",
                "d2",
            ),
        ];
        assign_keys(&mut entries, DedupStrategy::ExactTitleOnly);
        // Normalization (stopwords, stemming, case) makes these identical.
        assert_eq!(entries[0].key, entries[1].key);
    }

    #[test]
    fn cascade_merges_near_duplicates_with_identical_bodies() {
        let mut entries = vec![
            entry(
                Design::Intel6,
                1,
                "A Warm Reset May Cause the Processor to Hang",
                "identical body",
            ),
            entry(
                Design::Intel7_8,
                9,
                "A Warm Reset Might Cause the Processor to Hang in Some Cases",
                "identical body",
            ),
        ];
        let stats = assign_keys(&mut entries, DedupStrategy::default());
        assert_eq!(entries[0].key, entries[1].key);
        assert_eq!(stats.cascade_merges, 1);
    }

    #[test]
    fn exact_only_misses_near_duplicates() {
        let mut entries = vec![
            entry(
                Design::Intel6,
                1,
                "A Warm Reset May Cause the Processor to Hang",
                "identical body",
            ),
            entry(
                Design::Intel7_8,
                9,
                "A Warm Reset Might Cause the Processor to Hang in Some Cases",
                "identical body",
            ),
        ];
        assign_keys(&mut entries, DedupStrategy::ExactTitleOnly);
        assert_ne!(entries[0].key, entries[1].key);
    }

    #[test]
    fn cascade_does_not_merge_different_bodies() {
        // Similar-but-distinct titles (normalization does not equate them)
        // with different bodies: two distinct bugs.
        let mut entries = vec![
            entry(
                Design::Intel6,
                1,
                "A Warm Reset May Cause a Hang",
                "body one",
            ),
            entry(
                Design::Intel7_8,
                9,
                "A Warm Reset Might Cause a Hang on Selected SKUs",
                "body two",
            ),
        ];
        assign_keys(&mut entries, DedupStrategy::default());
        assert_ne!(entries[0].key, entries[1].key);
    }

    #[test]
    fn identical_normalized_titles_merge_even_without_cascade() {
        // "May" and "Might" are stopwords: these titles normalize equal,
        // which the study found to imply identical errata.
        let mut entries = vec![
            entry(Design::Intel6, 1, "A Warm Reset May Cause a Hang", "b"),
            entry(Design::Intel7_8, 9, "A Warm Reset Might Cause a Hang", "b"),
        ];
        assign_keys(&mut entries, DedupStrategy::ExactTitleOnly);
        assert_eq!(entries[0].key, entries[1].key);
    }

    #[test]
    fn cascade_does_not_merge_dissimilar_titles() {
        let mut entries = vec![
            entry(Design::Intel6, 1, "USB Transfers May Drop Packets", "same"),
            entry(
                Design::Intel7_8,
                9,
                "PCIe Links May Retrain Endlessly",
                "same",
            ),
        ];
        assign_keys(&mut entries, DedupStrategy::default());
        assert_ne!(entries[0].key, entries[1].key);
    }

    #[test]
    fn keys_are_dense_from_one() {
        let mut entries = vec![
            entry(Design::Intel6, 1, "Alpha", "a"),
            entry(Design::Intel6, 2, "Beta", "b"),
            entry(Design::Amd19h, 7, "Gamma", "c"),
        ];
        let stats = assign_keys(&mut entries, DedupStrategy::default());
        let mut keys: Vec<u32> = entries.iter().map(|e| e.key.unwrap().value()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(stats.clusters, 3);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn vendors_never_share_clusters() {
        let mut entries = vec![
            entry(Design::Intel6, 1100, "Same Everything", "same"),
            entry(Design::Amd19h, 1100, "Same Everything", "same"),
        ];
        assign_keys(&mut entries, DedupStrategy::default());
        assert_ne!(entries[0].key, entries[1].key);
    }

    fn mixed_corpus() -> Vec<DbEntry> {
        vec![
            entry(
                Design::Intel6,
                1,
                "A Warm Reset May Cause the Processor to Hang",
                "b1",
            ),
            entry(
                Design::Intel7_8,
                2,
                "A Warm Reset Might Cause the Processor to Hang in Some Cases",
                "b1",
            ),
            entry(Design::Intel8_9, 3, "USB Transfers May Drop Packets", "b1"),
            entry(Design::Intel6, 4, "PCIe Links May Retrain Endlessly", "b2"),
            entry(Design::Intel7_8, 5, "PCIe Link May Retrain Endlessly", "b2"),
            entry(Design::Intel8_9, 6, "Machine Check on Cache Eviction", "b2"),
            entry(Design::Amd17h00, 7, "An AMD Bug", "b1"),
            entry(Design::Amd17h30, 7, "An AMD Bug Reworded", "b1"),
        ]
    }

    #[test]
    fn candidate_gen_defaults_to_bounded() {
        // Every production caller takes the default; only tests select the
        // exhaustive oracle.
        assert_eq!(CandidateGen::default(), CandidateGen::Bounded);
    }

    #[test]
    fn exhaustive_enumerates_distinct_root_pairs_in_group_order() {
        let groups = vec![vec![0, 1, 2], vec![3], vec![4, 5]];
        // 0 and 2 already share a cluster, and so do 4 and 5: the second
        // and third groups yield nothing.
        let roots = vec![0, 1, 0, 3, 4, 4];
        assert_eq!(distinct_root_pairs(&groups, &roots), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn bounded_and_exhaustive_decisions_agree() {
        let mut bounded = mixed_corpus();
        let mut exhaustive = mixed_corpus();
        let sb = assign_keys_with(
            &mut bounded,
            DedupStrategy::default(),
            CandidateGen::Bounded,
        );
        let se = assign_keys_with(
            &mut exhaustive,
            DedupStrategy::default(),
            CandidateGen::Exhaustive,
        );
        let kb: Vec<_> = bounded.iter().map(|e| e.key).collect();
        let ke: Vec<_> = exhaustive.iter().map(|e| e.key).collect();
        assert_eq!(kb, ke);
        assert_eq!(sb, se); // identity fields only
        assert_eq!(sb.cascade_merges, se.cascade_merges);
        assert!(
            sb.comparisons_made <= se.comparisons_made,
            "bounded did more edit-distance work ({} > {})",
            sb.comparisons_made,
            se.comparisons_made
        );
    }

    #[test]
    fn stats_equality_and_serialization_ignore_diagnostics() {
        let a = DedupStats {
            entries: 5,
            clusters: 3,
            exact_title_merges: 1,
            cascade_merges: 1,
            comparisons_made: 40,
        };
        let b = DedupStats {
            comparisons_made: 2,
            ..a
        };
        assert_eq!(a, b);
        assert_eq!(a.to_value(), b.to_value());
        let back = DedupStats::from_value(&a.to_value()).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.comparisons_made, 0);
        assert!(DedupStats::from_value(&Value::Null).is_err());
    }
}
