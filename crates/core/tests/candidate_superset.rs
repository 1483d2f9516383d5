//! Property-based equivalence of the cascade pair decisions.
//!
//! Random Intel entries over a small shared vocabulary (so titles collide
//! and overlap often) with a handful of shared description bodies: keying
//! with the bounded decision must produce exactly the same clusters and
//! merge counts as the exhaustive oracle — the observable consequence of
//! the distance bounds never deciding a pair differently from full
//! scoring.

use proptest::prelude::*;
use rememberr::{assign_keys_with, CandidateGen, DedupStrategy};
use rememberr_model::{Date, Design, Erratum, ErratumId, Provenance};

fn entry(number: u32, title: &str, description: &str) -> rememberr::DbEntry {
    rememberr::DbEntry::new(
        Erratum {
            id: ErratumId::new(Design::Intel6, number),
            title: title.to_string(),
            description: description.to_string(),
            implications: String::new(),
            workaround: "None identified.".into(),
            status: "No fix planned.".into(),
        },
        Provenance::from_revision_log(1, Date::new(2016, 1, 15).unwrap()),
    )
}

const WORDS: [&str; 12] = [
    "warm",
    "reset",
    "processor",
    "hang",
    "cache",
    "x87",
    "fdp",
    "value",
    "save",
    "usb",
    "pcie",
    "machine",
];
const BODIES: [&str; 3] = ["body alpha", "body beta", "body gamma"];

fn title_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..WORDS.len(), 0..6).prop_map(|idxs| {
        idxs.into_iter()
            .map(|i| WORDS[i])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_clustering_equals_exhaustive_oracle(
        specs in prop::collection::vec((title_strategy(), 0usize..BODIES.len()), 0..16),
    ) {
        let build = || -> Vec<rememberr::DbEntry> {
            specs
                .iter()
                .enumerate()
                .map(|(i, (title, body))| entry(i as u32, title, BODIES[*body]))
                .collect()
        };
        let mut bounded = build();
        let mut exhaustive = build();
        let sb = assign_keys_with(&mut bounded, DedupStrategy::default(), CandidateGen::Bounded);
        let se = assign_keys_with(
            &mut exhaustive,
            DedupStrategy::default(),
            CandidateGen::Exhaustive,
        );
        let kb: Vec<_> = bounded.iter().map(|e| e.key).collect();
        let ke: Vec<_> = exhaustive.iter().map(|e| e.key).collect();
        prop_assert_eq!(kb, ke);
        prop_assert_eq!(sb.clusters, se.clusters);
        prop_assert_eq!(sb.cascade_merges, se.cascade_merges);
        prop_assert!(sb.comparisons_made <= se.comparisons_made);
    }
}
