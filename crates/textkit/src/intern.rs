//! Deterministic string interning for the rule matcher's token index.
//!
//! [`crate::RuleMatcher`] posts every pattern under the interned id of its
//! anchor token; interning maps each distinct token string to a dense `u32`
//! once, so the index is keyed by small integers instead of re-hashed
//! string bytes.
//!
//! Ids are assigned in first-intern order, so an interner fed the same
//! token stream always produces the same ids — a precondition for the
//! byte-identical pipeline outputs the determinism suite asserts.

use std::collections::HashMap;

/// A deterministic string interner: each distinct string gets a dense
/// `u32` id in first-appearance order.
///
/// # Examples
///
/// ```
/// use rememberr_textkit::Interner;
///
/// let mut interner = Interner::new();
/// let cache = interner.intern("cache");
/// let hang = interner.intern("hang");
/// assert_eq!(interner.intern("cache"), cache);
/// assert_ne!(cache, hang);
/// assert_eq!(interner.resolve(hang), Some("hang"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    ids: HashMap<String, u32>,
    strings: Vec<String>,
}

impl Interner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `text`, interning it if unseen.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct strings are interned.
    pub fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow");
        self.ids.insert(text.to_string(), id);
        self.strings.push(text.to_string());
        id
    }

    /// The id of an already-interned string, if any.
    #[must_use]
    pub fn get(&self, text: &str) -> Option<u32> {
        self.ids.get(text).copied()
    }

    /// The string behind an id, if the id was ever issued.
    #[must_use]
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of distinct strings interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        let a = i.intern("alpha");
        let b = i.intern("beta");
        let a2 = i.intern("alpha");
        assert_eq!(a, a2);
        assert_eq!((a, b), (0, 1));
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("beta"), Some(b));
        assert_eq!(i.get("gamma"), None);
        assert_eq!(i.resolve(a), Some("alpha"));
        assert_eq!(i.resolve(99), None);
    }

    #[test]
    fn same_stream_same_ids() {
        let stream = ["warm", "reset", "hang", "reset", "cache"];
        let mut x = Interner::new();
        let mut y = Interner::new();
        let xs: Vec<u32> = stream.iter().map(|t| x.intern(t)).collect();
        let ys: Vec<u32> = stream.iter().map(|t| y.intern(t)).collect();
        assert_eq!(xs, ys);
    }
}
