//! Failure injection: the extraction pipeline must degrade gracefully —
//! return errors, never panic — on corrupted page streams.

use proptest::prelude::*;
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::{extract_corpus, extract_document, ExtractError, ERRATA_HEADING};
use rememberr_model::Design;

fn sample_text() -> (Design, String) {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.02));
    let rendered = &corpus.rendered[0];
    (rendered.design, rendered.text.clone())
}

/// A corpus-level mutation applied to the text.
#[derive(Debug, Clone)]
enum Mutation {
    DeleteLine(usize),
    DuplicateLine(usize),
    TruncateAt(usize),
    SwapLines(usize, usize),
    InsertGarbage(usize),
    DropFormFeeds,
    /// Empties the title of the i-th erratum.
    BlankTitle(usize),
    /// Gives the i-th erratum a title of stopwords only, whose normalized
    /// token set is empty.
    StopwordTitle(usize),
    /// Repeats the i-th erratum section: a name collision with an
    /// identical body.
    DuplicateErratum(usize),
}

/// Indices of the erratum header lines (`<id>  <title>`) after the errata
/// heading.
fn header_lines(lines: &[&str]) -> Vec<usize> {
    let Some(heading) = lines.iter().position(|l| l.trim() == ERRATA_HEADING) else {
        return Vec::new();
    };
    (heading + 1..lines.len())
        .filter(|&i| {
            lines[i].split_once("  ").is_some_and(|(id, _)| {
                id.chars().all(|c| c.is_ascii_alphanumeric())
                    && id.ends_with(|c: char| c.is_ascii_digit())
            })
        })
        .collect()
}

fn mutate(text: &str, mutation: &Mutation) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return text.to_string();
    }
    match mutation {
        Mutation::DeleteLine(i) => {
            let i = i % lines.len();
            lines.remove(i);
            lines.join("\n")
        }
        Mutation::DuplicateLine(i) => {
            let i = i % lines.len();
            lines.insert(i, lines[i]);
            lines.join("\n")
        }
        Mutation::TruncateAt(i) => {
            let i = i % lines.len();
            lines.truncate(i.max(1));
            lines.join("\n")
        }
        Mutation::SwapLines(i, j) => {
            let (i, j) = (i % lines.len(), j % lines.len());
            lines.swap(i, j);
            lines.join("\n")
        }
        Mutation::InsertGarbage(i) => {
            let i = i % lines.len();
            lines.insert(i, "@@ % garbage ## line 0x??");
            lines.join("\n")
        }
        Mutation::DropFormFeeds => text.replace('\u{c}', "\n"),
        Mutation::BlankTitle(i) | Mutation::StopwordTitle(i) => {
            let headers = header_lines(&lines);
            if headers.is_empty() {
                return text.to_string();
            }
            let h = headers[i % headers.len()];
            let id = lines[h].split_once("  ").map_or("", |(id, _)| id);
            let title = match mutation {
                Mutation::BlankTitle(_) => "",
                _ => "The Of May Be",
            };
            let header = format!("{id}  {title}");
            // The header plus its indented continuation lines.
            let title_end = (h + 1..lines.len())
                .find(|&k| !lines[k].starts_with(' '))
                .unwrap_or(lines.len());
            lines.drain(h..title_end);
            lines.insert(h, &header);
            lines.join("\n")
        }
        Mutation::DuplicateErratum(i) => {
            let headers = header_lines(&lines);
            if headers.is_empty() {
                return text.to_string();
            }
            let h = headers[i % headers.len()];
            let end = (h..lines.len())
                .find(|&k| lines[k].trim().is_empty())
                .unwrap_or(lines.len());
            let copy: Vec<&str> = std::iter::once("")
                .chain(lines[h..end].iter().copied())
                .collect();
            lines.splice(end..end, copy);
            lines.join("\n")
        }
    }
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..5_000).prop_map(Mutation::DeleteLine),
        (0usize..5_000).prop_map(Mutation::DuplicateLine),
        (0usize..5_000).prop_map(Mutation::TruncateAt),
        ((0usize..5_000), (0usize..5_000)).prop_map(|(a, b)| Mutation::SwapLines(a, b)),
        (0usize..5_000).prop_map(Mutation::InsertGarbage),
        Just(Mutation::DropFormFeeds),
        (0usize..500).prop_map(Mutation::BlankTitle),
        (0usize..500).prop_map(Mutation::StopwordTitle),
        (0usize..500).prop_map(Mutation::DuplicateErratum),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn mutated_documents_never_panic(mutations in prop::collection::vec(mutation_strategy(), 1..6)) {
        let (design, original) = sample_text();
        let mut text = original;
        for m in &mutations {
            text = mutate(&text, m);
        }
        // Ok or Err are both acceptable; panics are not.
        let _ = extract_document(design, &text);
    }

    #[test]
    fn arbitrary_bytes_never_panic(text in "[\\x20-\\x7e\\n\\x0c]{0,2000}") {
        let _ = extract_document(Design::Intel6, &text);
    }
}

#[test]
fn single_line_deletions_usually_still_extract() {
    // Deleting one mid-document content line must not collapse extraction:
    // either it still succeeds or it fails with a clean error.
    let (design, original) = sample_text();
    let lines: Vec<&str> = original.lines().collect();
    let mut successes = 0usize;
    let step = (lines.len() / 40).max(1);
    let mut attempts = 0usize;
    for i in (0..lines.len()).step_by(step) {
        let mut mutated: Vec<&str> = lines.clone();
        mutated.remove(i);
        let text = mutated.join("\n");
        attempts += 1;
        if extract_document(design, &text).is_ok() {
            successes += 1;
        }
    }
    assert!(
        successes * 2 >= attempts,
        "only {successes}/{attempts} single-deletion variants extracted"
    );
}

#[test]
fn corpus_errors_name_the_failing_document() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.02));
    let broken = corpus.rendered[3].design;
    let texts: Vec<(Design, String)> = corpus
        .rendered
        .iter()
        .map(|r| {
            let text = if r.design == broken {
                r.text.replace(ERRATA_HEADING, "")
            } else {
                r.text.clone()
            };
            (r.design, text)
        })
        .collect();
    let err = extract_corpus(texts.iter().map(|(d, text)| (*d, text.as_str()))).unwrap_err();
    assert_eq!(err.design, broken);
    assert_eq!(
        err.error,
        ExtractError::MissingSection {
            heading: ERRATA_HEADING
        }
    );
    assert!(err.to_string().contains(broken.reference()), "{err}");
}
