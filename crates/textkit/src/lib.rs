//! Text-processing substrate for the RemembERR pipeline.
//!
//! The original study used Python NLP/PDF tooling (`pdftotext`, `camelot`,
//! regular expressions); this crate provides the equivalent building blocks
//! from scratch:
//!
//! * [`tokenize`] / [`word_tokens`] — offset-preserving tokenization of
//!   erratum prose, aware of numbers, hex constants and register names;
//! * [`normalize`] / [`normalized_key`] — stopword removal and light
//!   stemming for duplicate detection;
//! * [`levenshtein`], [`TitleKey`] — the title-similarity metric behind the
//!   Intel duplicate-detection cascade and the intra-document duplicate
//!   check, with an exact threshold check that skips the edit-distance
//!   program when cheap bounds settle a pair;
//! * [`Pattern`] / [`PatternSet`] — a token-phrase pattern engine replacing
//!   the paper's regex rules;
//! * [`RuleMatcher`] — an indexed multi-pattern engine that matches a whole
//!   pattern library against a [`PreparedText`] in one pass, pruning
//!   patterns whose anchor token is absent (over [`Interner`] token ids);
//! * [`AnalyzedCorpus`] / [`AnalyzedDoc`] — the single-pass analysis arena:
//!   tokenizes, normalizes and stems each document's title/text exactly
//!   once, in parallel, and hands out the views every downstream stage
//!   consumes;
//! * [`highlights`] — the syntax-highlighting assist used during manual
//!   classification;
//! * [`wrap`] / [`reflow`] — document line rendering and its inverse.
//!
//! # Examples
//!
//! ```
//! use rememberr_textkit::{Pattern, TitleKey};
//!
//! # fn main() -> Result<(), rememberr_textkit::PatternError> {
//! let p = Pattern::parse("machine check <2> exception")?;
//! assert!(p.matches("a Machine Check Architecture exception occurs"));
//!
//! let a = TitleKey::new("X87 FDP Value May be Saved Incorrectly");
//! let b = TitleKey::new("x87 FDP Values Might Be Saved Incorrectly");
//! assert!(a.similarity(&b) > 0.9);
//! assert!(a.similarity_at_least(&b, 0.9).passes);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unnecessary_to_owned)]
#![deny(clippy::redundant_clone)]

mod corpus;
mod highlight;
mod intern;
mod matcher;
mod normalize;
mod pattern;
mod similarity;
mod tokenize;
mod wrap;

pub use corpus::{AnalyzedCorpus, AnalyzedDoc, DocText};
pub use highlight::{
    highlights, highlights_prepared, highlights_prepared_filtered, render_ansi, render_markup,
    Highlight,
};
pub use intern::Interner;
pub use matcher::{MatchSet, RuleMatcher};
pub use normalize::{is_stopword, normalize, normalized_key, stem, stem_owned};
pub use pattern::{Pattern, PatternError, PatternSet, PreparedText, Span};
pub use similarity::{levenshtein, levenshtein_similarity, ThresholdCheck, TitleKey};
pub use tokenize::{tokenize, word_tokens, Token, TokenKind};
pub use wrap::{reflow, reflow_counted, wrap, ReflowStats};
