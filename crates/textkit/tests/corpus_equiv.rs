//! `AnalyzedCorpus` equivalence and determinism: for random documents the
//! shared single-pass arena must reproduce exactly what the per-stage
//! pipeline derives on its own — fresh `PreparedText` tokenization of the
//! full text and `TitleKey::new` over the title alone — and every result
//! must be identical at any worker count.

use std::num::NonZeroUsize;

use proptest::prelude::*;
use rememberr_textkit::{AnalyzedCorpus, DocText, PreparedText, TitleKey};

/// Words over a small vocabulary mixed with stopwords, numbers, hex
/// literals and hyphenated/identifier forms, so normalization, stemming
/// and token classification all get exercised.
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

#[derive(Debug, Clone)]
struct Doc {
    title: String,
    body: String,
    analyze_title: bool,
}

fn doc_strategy() -> impl Strategy<Value = Doc> {
    (line_strategy(), line_strategy(), any::<bool>()).prop_map(|(title, body, analyze_title)| Doc {
        title,
        body,
        analyze_title,
    })
}

fn analyze(docs: &[Doc]) -> AnalyzedCorpus {
    AnalyzedCorpus::analyze(docs, |d| DocText {
        text: format!("{}\n{}", d.title, d.body),
        title_len: d.title.len(),
        analyze_title: d.analyze_title,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_matches_per_stage_derivations_at_every_worker_count(
        docs in prop::collection::vec(doc_strategy(), 0..20),
    ) {
        // Per-stage oracle: each feature derived independently, the way
        // the pre-arena pipeline stages did.
        let want: Vec<(PreparedText, Option<TitleKey>)> = docs
            .iter()
            .map(|d| {
                let text = PreparedText::new(&format!("{}\n{}", d.title, d.body));
                (text, d.analyze_title.then(|| TitleKey::new(&d.title)))
            })
            .collect();

        for jobs in [1usize, 2, 8] {
            rememberr_par::set_jobs(NonZeroUsize::new(jobs));
            let corpus = analyze(&docs);
            rememberr_par::set_jobs(None);

            prop_assert_eq!(corpus.len(), docs.len());
            for (i, (text, title)) in want.iter().enumerate() {
                prop_assert_eq!(corpus.text(i).source(), text.source());
                prop_assert!(corpus.text(i).words().eq(text.words()));
                prop_assert_eq!(corpus.text(i).token_spans(), text.token_spans());
                prop_assert_eq!(corpus.title_key(i), title.as_ref(), "doc {} jobs {}", i, jobs);
                prop_assert_eq!(corpus.doc(i).title_key(), title.as_ref());
            }
        }
    }
}
