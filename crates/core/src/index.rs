//! Indexed query serving: per-database fixed-width bitmaps, the one
//! engine every [`crate::Query`] runs on.
//!
//! Every analysis figure is a batch of facet queries, and every served
//! request is one. [`QueryIndex`] keeps one bitmap per facet value a query
//! can ask for, one bit per slot, and decides every predicate with
//! word-wise ANDs and ORs:
//!
//! * **Two families of slots** — the `all` family's slots are entry
//!   positions (⌈entries / 64⌉ words per bitmap); the `unique` family's
//!   slots are representative *ranks*, the key order
//!   [`Database::unique_entries`] returns (⌈representatives / 64⌉ words).
//!   A `unique_only` query reads the `unique` family, and walking its set
//!   bits yields representatives already in key order.
//! * **Facet bitmaps** — one per vendor, design, workaround category, fix
//!   status, trigger, trigger class, context, effect and MSR, plus one per
//!   "at least `k` triggers": `k = 0` is every annotated slot, and the one
//!   above the largest trigger count is empty. A query ANDs the bitmap of
//!   each of its conditions, `min_triggers` included; a disjunctive facet
//!   (context, effect) contributes the OR of its listed values.
//! * **Date window** — each family's slots sorted by disclosure date turn
//!   `disclosed_after` (`>= after`) and `disclosed_before` (`< before`)
//!   into a window of date ranks, found by two binary searches. The window
//!   is checked on each slot the bitmaps leave set or, when it holds fewer
//!   slots than that, drives: its slots are tested against the bitmap one
//!   by one.
//!
//! [`crate::Query::count`] is then a popcount, and [`crate::Query::run`]
//! walks the set bits to entries.
//!
//! The equivalence suites (`tests/query_engine.rs`, the `query.rs` unit
//! tests and `serve_e2e.rs`) each keep a scan oracle of their own, a
//! filter with the query's per-entry `matches` over every entry or every
//! representative, and check the engine against it: the index is a
//! throughput knob, never a semantics knob. Results come back in the
//! order that scan produces (entry order, or representative key order
//! under `unique_only`).
//!
//! Observability: building emits the `query.build_index` span; execution
//! emits `query.execute` plus the counters `query.entries_scanned` (slots
//! the date check visited one at a time; none without a date window) and
//! `query.postings_intersected` (bitmaps combined after the first).

use std::fmt;
use std::sync::OnceLock;

use rememberr_model::{
    Annotation, Context, Date, Design, Effect, FixStatus, MsrName, Trigger, TriggerClass, Vendor,
    WorkaroundCategory,
};

use crate::cluster::representatives;
use crate::db::Database;
use crate::entry::DbEntry;
use crate::query::Query;

// Bitmap numbers: value `v` of a facet has bitmap `FACET + ordinal(v)`.
const VENDOR: usize = 0;
const DESIGN: usize = VENDOR + Vendor::ALL.len();
const WORKAROUND: usize = DESIGN + Design::ALL.len();
const FIX: usize = WORKAROUND + WorkaroundCategory::ALL.len();
const TRIGGER: usize = FIX + FixStatus::ALL.len();
const TRIGGER_CLASS: usize = TRIGGER + Trigger::ALL.len();
const CONTEXT: usize = TRIGGER_CLASS + TriggerClass::ALL.len();
const EFFECT: usize = CONTEXT + Context::ALL.len();
const MSR: usize = EFFECT + Effect::ALL.len();
/// Bitmap `AT_LEAST + k` holds the slots annotated with at least `k`
/// triggers, for `k` from 0 (every annotated slot) to one above the
/// largest trigger count (no slot).
const AT_LEAST: usize = MSR + MsrName::ALL.len();

/// Fixed-width bitmaps over one universe of slots, every entry position
/// (the `all` family) or every representative rank (the `unique` family),
/// and the slots' disclosure-date order.
#[derive(Debug)]
struct Family {
    /// Words per bitmap: ⌈slots / 64⌉.
    words: usize,
    /// Every bitmap, back to back, `words` words each: bit `s % 64` of word
    /// `s / 64` is slot `s`. Bits past the last slot are clear.
    bits: Vec<u64>,
    /// Slot → entry position.
    position: Vec<u32>,
    /// Slots sorted by `(disclosure_date, slot)`.
    date_order: Vec<u32>,
    /// Disclosure dates in `date_order` order, for binary bracketing.
    dates_sorted: Vec<Date>,
    /// Slot → rank in `date_order`.
    date_rank: Vec<u32>,
}

impl Family {
    /// Files the entry at `position[s]` under every bitmap slot `s` belongs
    /// to, and sorts the slots by date; `bitmaps` is how many bitmaps each
    /// family holds.
    fn build(entries: &[DbEntry], position: Vec<u32>, bitmaps: usize) -> Self {
        let slots = position.len();
        let words = slots.div_ceil(64);
        let mut bits = vec![0u64; bitmaps * words];
        // Each slot's sort key, read once: slots are unique, so sorting the
        // pairs orders the slots by `(disclosure_date, slot)`.
        let mut keyed = Vec::with_capacity(slots);
        for (s, &pos) in position.iter().enumerate() {
            let entry = &entries[pos as usize];
            keyed.push((entry.provenance.disclosure_date, s as u32));
            let (word, bit) = (s / 64, 1u64 << (s % 64));
            let mut set = |bitmap: usize| bits[bitmap * words + word] |= bit;
            set(VENDOR + ordinal(&Vendor::ALL, entry.vendor()));
            set(DESIGN + entry.design().index());
            set(WORKAROUND + ordinal(&WorkaroundCategory::ALL, entry.workaround));
            set(FIX + ordinal(&FixStatus::ALL, entry.fix));
            let Some(ann) = entry.annotation.as_ref() else {
                continue;
            };
            for t in ann.triggers.iter() {
                set(TRIGGER + t.index());
                set(TRIGGER_CLASS + t.class().index());
            }
            for c in ann.contexts.iter() {
                set(CONTEXT + c.index());
            }
            for e in ann.effects.iter() {
                set(EFFECT + e.index());
            }
            // A register referenced more than once (e.g. distinct banks)
            // sets the same bit again.
            for msr in &ann.msrs {
                set(MSR + ordinal(&MsrName::ALL, msr.name));
            }
            for k in 0..=ann.complexity() {
                set(AT_LEAST + k);
            }
        }

        keyed.sort_unstable();
        let date_order: Vec<u32> = keyed.iter().map(|&(_, s)| s).collect();
        let dates_sorted: Vec<Date> = keyed.iter().map(|&(date, _)| date).collect();
        let mut date_rank = vec![0u32; slots];
        for (rank, &s) in date_order.iter().enumerate() {
            date_rank[s as usize] = rank as u32;
        }
        Family {
            words,
            bits,
            position,
            date_order,
            dates_sorted,
            date_rank,
        }
    }

    /// Bitmap number `n`.
    fn bitmap(&self, n: usize) -> &[u64] {
        &self.bits[n * self.words..(n + 1) * self.words]
    }

    /// A bitmap with every slot set.
    fn full(&self) -> Vec<u64> {
        let mut bits = vec![u64::MAX; self.words];
        let tail = self.position.len() % 64;
        if tail != 0 {
            bits[self.words - 1] = (1 << tail) - 1;
        }
        bits
    }
}

/// Position of `value` in a facet's canonical `ALL` table.
fn ordinal<T: PartialEq + Copy>(all: &[T], value: T) -> usize {
    all.iter()
        .position(|&v| v == value)
        .expect("facet value is in its ALL table")
}

/// Immutable per-database query index: a bitmap per facet value, and the
/// disclosure-date order, over all entries and over the unique-bug
/// representatives.
///
/// The database caches one ([`Database::query_index`]), and
/// [`crate::Query::run`] / [`crate::Query::count`] answer from it;
/// [`QueryIndex::build`] builds one for [`crate::Query::run_indexed`] /
/// [`crate::Query::count_indexed`].
///
/// # Examples
///
/// ```
/// use rememberr::{Database, Query, QueryIndex};
/// use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
/// use rememberr_model::Vendor;
///
/// let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
/// let db = Database::from_documents(&corpus.structured);
/// let index = QueryIndex::build(&db);
/// let query = Query::new().vendor(Vendor::Intel).unique_only();
/// assert_eq!(query.run_indexed(&index, &db).len(), query.count(&db));
/// ```
#[derive(Debug)]
pub struct QueryIndex {
    /// Bitmaps over every entry position.
    all: Family,
    /// Bitmaps over representative ranks (key order).
    unique: Family,
    /// `AT_LEAST + empty_at_least` is the (empty) at-least bitmap one above
    /// the largest trigger count.
    empty_at_least: usize,
}

impl QueryIndex {
    /// Builds the index in one pass over the entries per family, plus the
    /// sorts for the representative and date orders.
    pub fn build(db: &Database) -> Self {
        let _span = rememberr_obs::span!("query.build_index");
        let entries = db.entries();
        let n = entries.len();

        let empty_at_least = 1 + entries
            .iter()
            .filter_map(|e| e.annotation.as_ref().map(Annotation::complexity))
            .max()
            .unwrap_or(0);
        let bitmaps = AT_LEAST + empty_at_least + 1;
        let all = Family::build(entries, (0..n as u32).collect(), bitmaps);
        // Representatives in key order: the same routine
        // `Database::unique_entries` answers from, so the two never differ.
        let reps = representatives(entries)
            .into_iter()
            .map(|(_, pos)| pos)
            .collect();
        let unique = Family::build(entries, reps, bitmaps);
        QueryIndex {
            all,
            unique,
            empty_at_least,
        }
    }

    /// Number of entries the index covers.
    pub fn entry_count(&self) -> usize {
        self.all.position.len()
    }

    /// Number of unique-bug representatives the index covers.
    pub fn unique_count(&self) -> usize {
        self.unique.position.len()
    }
}

/// A lazily-built cache of a structure derived from a [`Database`]'s
/// entries — the [`QueryIndex`] and the cluster table.
///
/// The cell participates in the database's derived `Clone`/`Debug`/
/// `Default` without leaking into equality or serialization: clones start
/// empty (the clone rebuilds on first use), and two databases compare
/// equal regardless of which of them has built a cache.
pub(crate) struct DerivedCell<T>(OnceLock<T>);

impl<T> DerivedCell<T> {
    /// The cached value, building it on first use. Safe under concurrent
    /// readers: one builds, the rest block and share the result.
    pub(crate) fn get_or_build(&self, build: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(build)
    }

    /// Drops any built value; the next reader rebuilds.
    pub(crate) fn invalidate(&mut self) {
        self.0 = OnceLock::new();
    }

    /// Whether a value is currently cached.
    #[cfg(test)]
    pub(crate) fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

impl<T> Default for DerivedCell<T> {
    fn default() -> Self {
        DerivedCell(OnceLock::new())
    }
}

impl<T> Clone for DerivedCell<T> {
    fn clone(&self) -> Self {
        DerivedCell::default()
    }
}

impl<T> fmt::Debug for DerivedCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.0.get() {
            Some(_) => "DerivedCell(built)",
            None => "DerivedCell(empty)",
        })
    }
}

/// Runs `query` through the index, returning entries in entry order, or in
/// representative key order for a `unique_only` query.
pub(crate) fn execute<'db>(
    query: &Query,
    index: &QueryIndex,
    db: &'db Database,
) -> Vec<&'db DbEntry> {
    let _span = rememberr_obs::span!("query.execute");
    let (family, bits) = matching_slots(query, index, db);
    let entries = db.entries();
    let mut hits = Vec::with_capacity(popcount(&bits));
    for_each_slot(&bits, |s| hits.push(&entries[family.position[s] as usize]));
    hits
}

/// Number of matches: the popcount of the matching slots.
pub(crate) fn execute_count(query: &Query, index: &QueryIndex, db: &Database) -> usize {
    let _span = rememberr_obs::span!("query.execute");
    popcount(&matching_slots(query, index, db).1)
}

/// The family `query` reads and the bitmap of its slots that match.
///
/// # Panics
///
/// Panics if the index was built over a database with a different entry
/// count (an index is only valid for the exact database it was built
/// from).
fn matching_slots<'i>(
    query: &Query,
    index: &'i QueryIndex,
    db: &Database,
) -> (&'i Family, Vec<u64>) {
    assert_eq!(
        index.entry_count(),
        db.len(),
        "QueryIndex was built over a different database (entry counts differ)"
    );
    let family = if query.unique_only {
        &index.unique
    } else {
        &index.all
    };

    // The bitmaps every match is in, then the disjunctive facets: a match
    // is in at least one bitmap of each non-empty group.
    let mut all_of = Vec::new();
    if let Some(v) = query.vendor {
        all_of.push(VENDOR + ordinal(&Vendor::ALL, v));
    }
    if let Some(d) = query.design {
        all_of.push(DESIGN + d.index());
    }
    if let Some(w) = query.workaround {
        all_of.push(WORKAROUND + ordinal(&WorkaroundCategory::ALL, w));
    }
    if let Some(f) = query.fix {
        all_of.push(FIX + ordinal(&FixStatus::ALL, f));
    }
    all_of.extend(query.triggers_all.iter().map(|t| TRIGGER + t.index()));
    if let Some(class) = query.trigger_class {
        all_of.push(TRIGGER_CLASS + class.index());
    }
    if let Some(msr) = query.msr {
        all_of.push(MSR + ordinal(&MsrName::ALL, msr));
    }
    // `min_triggers` implies an annotation; `annotated_only` alone is "at
    // least 0 triggers".
    match query.min_triggers {
        Some(k) => all_of.push(AT_LEAST + k.min(index.empty_at_least)),
        None if query.annotated_only => all_of.push(AT_LEAST),
        None => {}
    }
    let any_of: [Vec<usize>; 2] = [
        query
            .context_any
            .iter()
            .map(|c| CONTEXT + c.index())
            .collect(),
        query
            .effect_any
            .iter()
            .map(|e| EFFECT + e.index())
            .collect(),
    ];

    let mut bits = family.full();
    for &n in &all_of {
        for (word, &other) in bits.iter_mut().zip(family.bitmap(n)) {
            *word &= other;
        }
    }
    for group in any_of.iter().filter(|g| !g.is_empty()) {
        for (w, word) in bits.iter_mut().enumerate() {
            *word &= group.iter().fold(0, |any, &n| any | family.bitmap(n)[w]);
        }
    }
    let read = all_of.len() + any_of.iter().map(Vec::len).sum::<usize>();
    rememberr_obs::count("query.postings_intersected", read.saturating_sub(1) as u64);

    if query.disclosed_after.is_none() && query.disclosed_before.is_none() {
        rememberr_obs::count("query.entries_scanned", 0);
        return (family, bits);
    }
    // Date window in the family's date-rank space: `>= after` is
    // rank >= lo, `< before` is rank < hi.
    let dates = &family.dates_sorted;
    let lo = query
        .disclosed_after
        .map_or(0, |after| dates.partition_point(|&d| d < after));
    let hi = query
        .disclosed_before
        .map_or(dates.len(), |before| dates.partition_point(|&d| d < before));
    let window = &family.date_order[lo..hi.max(lo)];
    let survivors = popcount(&bits);
    let mut kept = vec![0u64; family.words];
    let mut keep = |s: usize| kept[s / 64] |= 1 << (s % 64);
    if window.len() < survivors {
        rememberr_obs::count("query.entries_scanned", window.len() as u64);
        for s in window.iter().map(|&s| s as usize) {
            if bits[s / 64] & (1 << (s % 64)) != 0 {
                keep(s);
            }
        }
    } else {
        rememberr_obs::count("query.entries_scanned", survivors as u64);
        for_each_slot(&bits, |s| {
            if (lo..hi).contains(&(family.date_rank[s] as usize)) {
                keep(s);
            }
        });
    }
    (family, kept)
}

/// Number of set slots.
fn popcount(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// Calls `visit` with each set slot of `bits`, ascending.
fn for_each_slot(bits: &[u64], mut visit: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            visit(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_cell_clone_is_empty_and_invalidates() {
        let cell = DerivedCell::default();
        assert!(!cell.is_built());
        let db = Database::new();
        cell.get_or_build(|| QueryIndex::build(&db));
        assert!(cell.is_built());
        assert!(!cell.clone().is_built());
        let mut cell = cell;
        cell.invalidate();
        assert!(!cell.is_built());
    }

    #[test]
    fn empty_database_index_serves_empty_results() {
        let db = Database::new();
        let index = QueryIndex::build(&db);
        assert_eq!(index.entry_count(), 0);
        assert_eq!(index.unique_count(), 0);
        assert!(Query::new().run_indexed(&index, &db).is_empty());
        assert_eq!(Query::new().count_indexed(&index, &db), 0);
    }

    #[test]
    #[should_panic(expected = "different database")]
    fn foreign_index_is_rejected() {
        use rememberr_model::{Date, Erratum, ErratumId, Provenance};
        let empty = Database::new();
        let index = QueryIndex::build(&empty);
        let db = Database::from_parts(
            vec![DbEntry::new(
                Erratum {
                    id: ErratumId::new(Design::Intel6, 1),
                    title: "T".into(),
                    description: "D".into(),
                    implications: String::new(),
                    workaround: "None identified.".into(),
                    status: "No fix planned.".into(),
                },
                Provenance::from_revision_log(1, Date::new(2016, 6, 15).unwrap()),
            )],
            Default::default(),
        );
        let _ = Query::new().run_indexed(&index, &db);
    }
}
