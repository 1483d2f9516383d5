//! `AnalyzedCorpus` equivalence and determinism: for random documents the
//! shared arena must hold exactly what a fresh `PreparedText` tokenization
//! of each text yields, at any worker count.

use std::num::NonZeroUsize;

use proptest::prelude::*;
use rememberr_textkit::{AnalyzedCorpus, PreparedText};

/// Words over a small vocabulary mixed with stopwords, numbers, hex
/// literals and hyphenated/identifier forms, so every token class gets
/// exercised.
fn word_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-e]{1,6}",
        "[a-e]{1,6}",
        Just("the".to_string()),
        Just("may".to_string()),
        Just("processors".to_string()),
        Just("0x1F".to_string()),
        Just("C0010063h".to_string()),
        Just("MCx_STATUS".to_string()),
        Just("virtual-8086".to_string()),
        "[0-9]{1,3}",
    ]
}

fn line_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(word_strategy(), 0..8).prop_map(|words| words.join(" "))
}

fn doc_strategy() -> impl Strategy<Value = String> {
    (line_strategy(), line_strategy()).prop_map(|(title, body)| format!("{title}\n{body}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_matches_per_stage_derivations_at_every_worker_count(
        docs in prop::collection::vec(doc_strategy(), 0..20),
    ) {
        // Oracle: each text tokenized on its own, the way a stage that
        // holds no arena (`classify_erratum`) prepares it.
        let want: Vec<PreparedText> = docs.iter().map(|d| PreparedText::new(d)).collect();

        for jobs in [1usize, 2, 8] {
            rememberr_par::set_jobs(NonZeroUsize::new(jobs));
            let corpus = AnalyzedCorpus::analyze(&docs, String::clone);
            rememberr_par::set_jobs(None);

            prop_assert_eq!(corpus.len(), docs.len());
            for (i, text) in want.iter().enumerate() {
                prop_assert_eq!(corpus.text(i).source(), text.source());
                prop_assert!(corpus.text(i).words().eq(text.words()), "doc {} jobs {}", i, jobs);
                prop_assert_eq!(corpus.text(i).token_spans(), text.token_spans());
            }
        }
    }
}
