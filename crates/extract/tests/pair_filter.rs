//! Effort gate for the intra-document duplicate check: extraction scores
//! only the title pairs its prefix filter keeps, at every worker count.
//!
//! The counter is process-global, so this binary holds one test.

use std::num::NonZeroUsize;

use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::extract_corpus;

/// `extract.title_comparisons` on the 0.25-scale corpus at the default
/// seed. Scoring every same-document pair of distinct numbers would make
/// it 9,459.
const TITLE_COMPARISONS: u64 = 59;

#[test]
fn title_pairs_scored_are_pinned_and_ten_times_fewer_than_all_pairs() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    rememberr_obs::enable();
    for jobs in [1usize, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        rememberr_obs::reset();
        let (documents, _) =
            extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
                .expect("the generated corpus extracts");
        let scored = rememberr_obs::snapshot().counters["extract.title_comparisons"];

        let all_pairs: u64 = documents
            .iter()
            .map(|doc| {
                let mut pairs = 0u64;
                for (i, a) in doc.errata.iter().enumerate() {
                    pairs += doc.errata[i + 1..]
                        .iter()
                        .filter(|b| b.id.number != a.id.number)
                        .count() as u64;
                }
                pairs
            })
            .sum();

        assert_eq!(scored, TITLE_COMPARISONS, "jobs={jobs}");
        assert!(
            scored * 10 <= all_pairs,
            "jobs={jobs}: {scored} scored of {all_pairs} pairs"
        );
    }
    rememberr_par::set_jobs(None);
}
