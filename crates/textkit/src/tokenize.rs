//! Tokenization of erratum prose.
//!
//! Errata mix English prose with technical identifiers (`MCx_STATUS`,
//! `0xC0010063`, `FSAVE`), so the tokenizer distinguishes words, decimal and
//! hexadecimal numbers, and register-style identifiers, and keeps byte
//! offsets so higher layers (the highlighter, the extractor) can map tokens
//! back into the source text.

use std::fmt;

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TokenKind {
    /// An alphabetic word (`processor`, `FSAVE`).
    Word,
    /// A decimal number (`32`, `1361`).
    Number,
    /// A hexadecimal number (`0x1A`, `C0010063h`).
    HexNumber,
    /// A register-style identifier containing an underscore (`MCx_STATUS`).
    Identifier,
    /// A single punctuation character.
    Punct,
}

/// One token: its class, text and location in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// Lexical class.
    pub kind: TokenKind,
    /// The token text, as written (not normalized).
    pub text: &'a str,
    /// Byte offset of the token's first byte in the source.
    pub start: usize,
}

impl Token<'_> {
    /// Byte offset one past the token's last byte.
    pub fn end(&self) -> usize {
        self.start + self.text.len()
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-'
}

/// Classifies a completed word-like chunk.
fn classify(chunk: &str) -> TokenKind {
    let bytes = chunk.as_bytes();
    if bytes.iter().all(|b| b.is_ascii_digit()) {
        return TokenKind::Number;
    }
    // Case-insensitive hex checks on raw bytes; this runs once per word
    // token of every document, so it must not allocate.
    if bytes.len() > 2
        && bytes[0] == b'0'
        && bytes[1] | 0x20 == b'x'
        && bytes[2..].iter().all(u8::is_ascii_hexdigit)
    {
        return TokenKind::HexNumber;
    }
    if bytes.len() > 1 && bytes[bytes.len() - 1] | 0x20 == b'h' {
        let hex = &bytes[..bytes.len() - 1];
        if hex.iter().all(u8::is_ascii_hexdigit) && hex.iter().any(u8::is_ascii_digit) {
            return TokenKind::HexNumber;
        }
    }
    if chunk.contains('_') {
        return TokenKind::Identifier;
    }
    TokenKind::Word
}

/// Splits text into [`Token`]s.
///
/// Word-like chunks (alphanumerics plus `_`; internal `-` is kept so
/// `virtual-8086` stays one token) become [`TokenKind::Word`],
/// [`TokenKind::Number`], [`TokenKind::HexNumber`] or
/// [`TokenKind::Identifier`]; every other non-whitespace byte becomes a
/// [`TokenKind::Punct`] token. Whitespace produces nothing.
///
/// # Examples
///
/// ```
/// use rememberr_textkit::{tokenize, TokenKind};
///
/// let tokens = tokenize("the MCx_STATUS register (MSR 0x401)");
/// assert_eq!(tokens.len(), 7);
/// assert_eq!(tokens[1].kind, TokenKind::Identifier);
/// assert_eq!(tokens[5].kind, TokenKind::HexNumber);
/// ```
pub fn tokenize(text: &str) -> Vec<Token<'_>> {
    // Pre-size for the common shape (~6 bytes per token incl. whitespace)
    // so per-document tokenization does one allocation, not a growth
    // series.
    let mut tokens = Vec::with_capacity(text.len() / 6 + 4);
    scan(text, |token| tokens.push(token));
    tokens
}

/// The one tokenizer loop behind [`tokenize`] and [`for_each_word`]: hands
/// every token of `text` to `emit`, in order, without collecting them.
fn scan<'a>(text: &'a str, mut emit: impl FnMut(Token<'a>)) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
        } else if is_word_byte(b) && b != b'-' {
            let start = i;
            while i < bytes.len() && is_word_byte(bytes[i]) {
                i += 1;
            }
            // Trailing hyphens belong to punctuation (e.g. line-break "proc-").
            let mut end = i;
            while end > start && bytes[end - 1] == b'-' {
                end -= 1;
            }
            let chunk = &text[start..end];
            if !chunk.is_empty() {
                emit(Token {
                    kind: classify(chunk),
                    text: chunk,
                    start,
                });
            }
            for (j, _) in text[end..i].char_indices() {
                emit(Token {
                    kind: TokenKind::Punct,
                    text: &text[end + j..end + j + 1],
                    start: end + j,
                });
            }
        } else {
            // One punctuation char (may be multi-byte UTF-8).
            let ch_len = text[i..].chars().next().map_or(1, |c| c.len_utf8());
            emit(Token {
                kind: TokenKind::Punct,
                text: &text[i..i + ch_len],
                start: i,
            });
            i += ch_len;
        }
    }
}

/// Hands the text of every word-like token (words, numbers, identifiers)
/// of `text` to `word`, in order, as written.
pub(crate) fn for_each_word<'a>(text: &'a str, mut word: impl FnMut(&'a str)) {
    scan(text, |token| {
        if token.kind != TokenKind::Punct {
            word(token.text);
        }
    });
}

/// Returns only the word-like tokens (words, numbers, identifiers),
/// lowercased — the form similarity metrics and patterns consume.
pub fn word_tokens(text: &str) -> Vec<String> {
    let mut words = Vec::new();
    for_each_word(text, |w| words.push(w.to_ascii_lowercase()));
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_sentence() {
        let tokens = tokenize("The processor may hang.");
        let texts: Vec<&str> = tokens.iter().map(|t| t.text).collect();
        assert_eq!(texts, ["The", "processor", "may", "hang", "."]);
        assert_eq!(tokens[4].kind, TokenKind::Punct);
    }

    #[test]
    fn kinds_are_detected() {
        let tokens = tokenize("32 KB at 0x401 or C0010063h in MCx_STATUS");
        let kinds: Vec<TokenKind> = tokens.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            [
                TokenKind::Number,
                TokenKind::Word,
                TokenKind::Word,
                TokenKind::HexNumber,
                TokenKind::Word,
                TokenKind::HexNumber,
                TokenKind::Word,
                TokenKind::Identifier,
            ]
        );
    }

    #[test]
    fn hyphenated_words_stay_joined() {
        let tokens = tokenize("virtual-8086 mode");
        assert_eq!(tokens[0].text, "virtual-8086");
        assert_eq!(tokens[0].kind, TokenKind::Word);
    }

    #[test]
    fn trailing_hyphen_is_punct() {
        // A hyphen at a line break must not merge into the word.
        let tokens = tokenize("proc- essor");
        let texts: Vec<&str> = tokens.iter().map(|t| t.text).collect();
        assert_eq!(texts, ["proc", "-", "essor"]);
    }

    #[test]
    fn offsets_map_back_into_source() {
        let src = "a (b) c";
        for t in tokenize(src) {
            assert_eq!(&src[t.start..t.end()], t.text);
        }
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n\t ").is_empty());
    }

    #[test]
    fn non_ascii_punct_is_not_split_mid_char() {
        let src = "a \u{2014} b"; // em dash
        let tokens = tokenize(src);
        assert_eq!(tokens.len(), 3);
        assert_eq!(tokens[1].text, "\u{2014}");
    }

    #[test]
    fn word_tokens_lowercases_and_drops_punct() {
        assert_eq!(
            word_tokens("The FSAVE, or FNSAVE."),
            vec!["the", "fsave", "or", "fnsave"]
        );
    }

    #[test]
    fn plain_hex_without_marker_is_word_or_number() {
        // "face" is hex-ish but has no 0x/h marker: stays a word.
        assert_eq!(tokenize("face")[0].kind, TokenKind::Word);
        // "deadh" has the marker and a digit-free body: still a word.
        assert_eq!(tokenize("deadh")[0].kind, TokenKind::Word);
        // "0ah" qualifies.
        assert_eq!(tokenize("0ah")[0].kind, TokenKind::HexNumber);
    }
}
