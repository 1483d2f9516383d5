//! The RemembERR database.

use std::collections::HashMap;

use rememberr_model::{Annotation, Design, ErrataDocument, ErratumId, UniqueKey, Vendor};
use serde::{DeError, Deserialize, Serialize, Value};

use rememberr_textkit::{AnalyzedCorpus, DocText};

use crate::dedup::{
    assign_keys_analyzed, assign_keys_with, CandidateGen, DedupStats, DedupStrategy,
};
use crate::entry::DbEntry;
use crate::index::{QueryIndex, QueryIndexCell};

/// The annotated, keyed errata database — the paper's primary artifact.
///
/// # Examples
///
/// ```
/// use rememberr::Database;
/// use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
///
/// let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.02));
/// let db = Database::from_documents(&corpus.structured);
/// assert_eq!(db.len(), corpus.truth.grand_total());
/// assert!(db.unique_count() <= db.len());
/// ```
/// Identity (equality, serialization) is the entries plus dedup
/// statistics; the cached query index is a derived acceleration structure
/// and never part of either — see the manual `PartialEq`/`Serialize`/
/// `Deserialize` impls below.
#[derive(Debug, Clone, Default)]
pub struct Database {
    entries: Vec<DbEntry>,
    dedup_stats: DedupStats,
    index: QueryIndexCell,
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        (&self.entries, &self.dedup_stats) == (&other.entries, &other.dedup_stats)
    }
}

impl Serialize for Database {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("entries".to_string(), self.entries.to_value()),
            ("dedup_stats".to_string(), self.dedup_stats.to_value()),
        ])
    }
}

impl Deserialize for Database {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if value.as_object().is_none() {
            return Err(DeError::mismatch("object", value));
        }
        let field = |name: &str| value.get(name).ok_or_else(|| DeError::missing(name));
        Ok(Database {
            entries: field("entries").and_then(Vec::<DbEntry>::from_value)?,
            dedup_stats: field("dedup_stats").and_then(DedupStats::from_value)?,
            index: QueryIndexCell::default(),
        })
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from structured documents and runs the default
    /// duplicate keying.
    ///
    /// Disclosure dates are approximated from the revision histories
    /// (Section IV-B1): earliest revision claiming the erratum, neighbor
    /// interpolation for unmentioned errata.
    pub fn from_documents(documents: &[ErrataDocument]) -> Self {
        Self::from_documents_with(documents, DedupStrategy::default())
    }

    /// Like [`Database::from_documents`] with an explicit dedup strategy.
    pub fn from_documents_with(documents: &[ErrataDocument], strategy: DedupStrategy) -> Self {
        Self::from_documents_opts(documents, strategy, CandidateGen::default())
    }

    /// Like [`Database::from_documents_with`] with an explicit cascade pair
    /// decision. The choice never changes the resulting database — only how
    /// much similarity-scoring work dedup performs.
    pub fn from_documents_opts(
        documents: &[ErrataDocument],
        strategy: DedupStrategy,
        candidates: CandidateGen,
    ) -> Self {
        let mut entries = build_entries(documents);
        let dedup_stats = assign_keys_with(&mut entries, strategy, candidates);
        Self {
            entries,
            dedup_stats,
            index: QueryIndexCell::default(),
        }
    }

    /// Like [`Database::from_documents_opts`], but analyzes the whole
    /// corpus once up front and returns the [`AnalyzedCorpus`] alongside
    /// the database so classification and analysis reuse the same
    /// tokenization instead of re-deriving it per stage.
    ///
    /// The corpus is aligned with [`Database::entries`]: index `i` holds
    /// the analysis of entry `i` (keying assigns cluster keys in place and
    /// never reorders). Intel entries are title-analyzed for dedup; the
    /// resulting database is byte-identical to the per-stage path.
    pub fn from_documents_analyzed(
        documents: &[ErrataDocument],
        strategy: DedupStrategy,
        candidates: CandidateGen,
    ) -> (Self, AnalyzedCorpus) {
        let mut entries = build_entries(documents);
        let corpus = AnalyzedCorpus::analyze(&entries, |e| DocText {
            text: e.erratum.full_text(),
            title_len: e.erratum.title.len(),
            analyze_title: e.vendor() == Vendor::Intel,
        });
        let dedup_stats = assign_keys_analyzed(&mut entries, strategy, candidates, &corpus);
        let db = Self {
            entries,
            dedup_stats,
            index: QueryIndexCell::default(),
        };
        // Downstream consumers (classification, highlight assist) read the
        // arena only at representative positions — resolved exactly the way
        // they resolve them: one representative per unique key, mapped to
        // its first entry index. Release the rest of the token buffers so
        // the match-heavy stages run against a much smaller resident arena.
        let mut index_of: HashMap<ErratumId, usize> = HashMap::new();
        for (i, entry) in db.entries.iter().enumerate() {
            index_of.entry(entry.id()).or_insert(i);
        }
        let keep: Vec<usize> = db
            .unique_entries()
            .iter()
            .map(|e| index_of[&e.id()])
            .collect();
        let mut corpus = corpus;
        corpus.release_texts_except(keep);
        (db, corpus)
    }

    /// Number of entries (errata listings, duplicates counted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[DbEntry] {
        &self.entries
    }

    /// Statistics from the duplicate-keying run.
    pub fn dedup_stats(&self) -> DedupStats {
        self.dedup_stats
    }

    /// The query index for this database, built lazily on first use and
    /// cached until the next mutation (every `&mut self` method
    /// invalidates it). Safe to call from concurrent readers: one builds,
    /// the rest share the result.
    pub fn query_index(&self) -> &QueryIndex {
        self.index.get_or_build(|| QueryIndex::build(self))
    }

    /// Debug guard every `&mut self` mutator ends with: a mutation that
    /// leaves a built index cached would serve stale query results.
    fn debug_assert_index_invalidated(&self) {
        debug_assert!(
            !self.index.is_built(),
            "database mutation left a built query index behind"
        );
    }

    /// Restores dedup statistics (used when loading a persisted database).
    pub(crate) fn restore_dedup_stats(&mut self, stats: DedupStats) {
        self.index.invalidate();
        self.dedup_stats = stats;
        self.debug_assert_index_invalidated();
    }

    /// Entries listed by a given design's document.
    pub fn entries_for(&self, design: Design) -> impl Iterator<Item = &DbEntry> {
        self.entries.iter().filter(move |e| e.design() == design)
    }

    /// Looks up an entry by identifier (first match for collided numbers).
    pub fn entry(&self, id: ErratumId) -> Option<&DbEntry> {
        self.entries.iter().find(|e| e.id() == id)
    }

    /// Mutable lookup, for attaching annotations.
    pub fn entry_mut(&mut self, id: ErratumId) -> Option<&mut DbEntry> {
        self.index.invalidate();
        self.debug_assert_index_invalidated();
        self.entries.iter_mut().find(|e| e.id() == id)
    }

    /// Attaches an annotation to every entry of the cluster containing `id`.
    ///
    /// Returns the number of entries annotated (0 if the id is unknown).
    /// Name-collision identifiers resolve to the first matching entry's
    /// cluster; use [`Database::annotate_key`] for unambiguous addressing.
    pub fn annotate_cluster(&mut self, id: ErratumId, annotation: Annotation) -> usize {
        match self.entry(id).and_then(|e| e.key) {
            Some(key) => self.annotate_key(key, annotation),
            None => 0,
        }
    }

    /// Attaches an annotation to every entry with the given unique key.
    ///
    /// Returns the number of entries annotated.
    pub fn annotate_key(&mut self, key: UniqueKey, annotation: Annotation) -> usize {
        self.index.invalidate();
        let mut n = 0;
        for e in &mut self.entries {
            if e.key == Some(key) {
                e.annotation = Some(annotation.clone());
                n += 1;
            }
        }
        self.debug_assert_index_invalidated();
        n
    }

    /// One representative entry per unique key: the earliest disclosure
    /// (ties broken by design order, then number).
    ///
    /// The paper's deduplicated ("unique errata") analyses run over exactly
    /// this view.
    pub fn unique_entries(&self) -> Vec<&DbEntry> {
        let mut best: HashMap<UniqueKey, &DbEntry> = HashMap::new();
        for e in &self.entries {
            let Some(key) = e.key else { continue };
            best.entry(key)
                .and_modify(|cur| {
                    let cand = (
                        e.provenance.disclosure_date,
                        e.design().index(),
                        e.id().number,
                    );
                    let incumbent = (
                        cur.provenance.disclosure_date,
                        cur.design().index(),
                        cur.id().number,
                    );
                    if cand < incumbent {
                        *cur = e;
                    }
                })
                .or_insert(e);
        }
        let mut out: Vec<&DbEntry> = best.into_values().collect();
        out.sort_by_key(|e| e.key);
        out
    }

    /// Number of unique bugs (clusters).
    pub fn unique_count(&self) -> usize {
        self.dedup_stats.clusters
    }

    /// Number of unique bugs for one vendor.
    pub fn unique_count_for(&self, vendor: Vendor) -> usize {
        self.unique_entries()
            .iter()
            .filter(|e| e.vendor() == vendor)
            .count()
    }

    /// Number of entries for one vendor.
    pub fn total_count_for(&self, vendor: Vendor) -> usize {
        self.entries.iter().filter(|e| e.vendor() == vendor).count()
    }

    /// Merges another database into this one and re-runs duplicate keying
    /// over the combined entries (cross-database duplicates cluster
    /// together; annotations and provenance are preserved).
    ///
    /// Returns the new dedup statistics. This is how a future corpus — say,
    /// a new generation's errata document — joins an existing database, the
    /// extension path the paper's Section VII describes.
    pub fn merge(&mut self, other: Database, strategy: DedupStrategy) -> DedupStats {
        self.index.invalidate();
        self.entries.extend(other.entries);
        for entry in &mut self.entries {
            entry.key = None;
        }
        self.dedup_stats = assign_keys_with(&mut self.entries, strategy, CandidateGen::default());
        self.debug_assert_index_invalidated();
        self.dedup_stats
    }

    /// All entries of the cluster containing `key`.
    pub fn cluster(&self, key: UniqueKey) -> impl Iterator<Item = &DbEntry> {
        self.entries.iter().filter(move |e| e.key == Some(key))
    }

    /// Designs listing the cluster `key`, in canonical order, deduplicated.
    pub fn cluster_designs(&self, key: UniqueKey) -> Vec<Design> {
        let mut designs: Vec<Design> = self.cluster(key).map(|e| e.design()).collect();
        designs.sort_by_key(|d| d.index());
        designs.dedup();
        designs
    }
}

/// Builds the unkeyed entry list from structured documents, in document
/// order, with approximated disclosure dates and fix steppings.
fn build_entries(documents: &[ErrataDocument]) -> Vec<DbEntry> {
    let mut entries = Vec::new();
    for doc in documents {
        let provenance = doc.approximate_disclosure_dates();
        for (erratum, prov) in doc.errata.iter().zip(provenance) {
            let mut entry = DbEntry::new(erratum.clone(), prov);
            entry.fixed_in = doc.fixed_in(erratum.id.number).map(str::to_string);
            entries.push(entry);
        }
    }
    entries
}

impl Extend<DbEntry> for Database {
    /// Extends the database with pre-keyed entries. Dedup statistics are
    /// not recomputed; call [`crate::assign_keys`] afterwards if needed.
    fn extend<I: IntoIterator<Item = DbEntry>>(&mut self, iter: I) {
        self.index.invalidate();
        self.entries.extend(iter);
        self.debug_assert_index_invalidated();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

    fn small_db() -> (SyntheticCorpus, Database) {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.08));
        let db = Database::from_documents(&corpus.structured);
        (corpus, db)
    }

    #[test]
    fn entry_counts_match_corpus() {
        let (corpus, db) = small_db();
        assert_eq!(db.len(), corpus.truth.grand_total());
        for vendor in Vendor::ALL {
            assert_eq!(db.total_count_for(vendor), corpus.truth.total_count(vendor));
        }
    }

    #[test]
    fn unique_counts_match_ground_truth() {
        let (corpus, db) = small_db();
        for vendor in Vendor::ALL {
            assert_eq!(
                db.unique_count_for(vendor),
                corpus.truth.unique_count(vendor),
                "{vendor}"
            );
        }
        assert_eq!(db.unique_count(), corpus.truth.bugs.len());
    }

    #[test]
    fn paper_scale_unique_counts_are_exact() {
        let corpus = SyntheticCorpus::paper();
        let db = Database::from_documents(&corpus.structured);
        assert_eq!(db.len(), 2_563);
        assert_eq!(db.total_count_for(Vendor::Intel), 2_057);
        assert_eq!(db.total_count_for(Vendor::Amd), 506);
        assert_eq!(db.unique_count_for(Vendor::Intel), 743);
        assert_eq!(db.unique_count_for(Vendor::Amd), 385);
        assert_eq!(db.unique_count(), 1_128);
    }

    #[test]
    fn fixed_entries_carry_their_stepping() {
        let (_, db) = small_db();
        let with_stepping = db.entries().iter().filter(|e| e.fixed_in.is_some()).count();
        let fixed = db
            .entries()
            .iter()
            .filter(|e| e.fix == rememberr_model::FixStatus::Fixed)
            .count();
        assert_eq!(with_stepping, fixed, "every fixed entry names a stepping");
    }

    #[test]
    fn unique_entries_pick_earliest_disclosure() {
        let (_, db) = small_db();
        for rep in db.unique_entries() {
            let key = rep.key.unwrap();
            for other in db.cluster(key) {
                assert!(rep.provenance.disclosure_date <= other.provenance.disclosure_date);
            }
        }
    }

    #[test]
    fn annotate_cluster_spreads_to_all_members() {
        let (_, mut db) = small_db();
        // Find a multi-entry cluster.
        let key = db
            .unique_entries()
            .iter()
            .map(|e| e.key.unwrap())
            .find(|&k| db.cluster(k).count() >= 2)
            .expect("a shared bug exists");
        let id = db.cluster(key).next().unwrap().id();
        let n = db.annotate_cluster(id, Annotation::new());
        assert!(n >= 2);
        assert!(db.cluster(key).all(|e| e.annotation.is_some()));
    }

    #[test]
    fn cluster_designs_are_sorted_unique() {
        let (_, db) = small_db();
        for rep in db.unique_entries() {
            let designs = db.cluster_designs(rep.key.unwrap());
            assert!(!designs.is_empty());
            for pair in designs.windows(2) {
                assert!(pair[0].index() < pair[1].index());
            }
        }
    }

    #[test]
    fn merging_split_corpora_recovers_the_whole() {
        // Build the database from two halves of the corpus and merge: the
        // cluster structure must match building it in one shot.
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.1));
        let (first, second) = corpus.structured.split_at(14);
        let mut a = Database::from_documents(first);
        let b = Database::from_documents(second);
        let whole = Database::from_documents(&corpus.structured);

        let stats = a.merge(b, crate::dedup::DedupStrategy::default());
        assert_eq!(a.len(), whole.len());
        assert_eq!(stats.clusters, whole.unique_count());
        for vendor in Vendor::ALL {
            assert_eq!(
                a.unique_count_for(vendor),
                whole.unique_count_for(vendor),
                "{vendor}"
            );
        }
    }

    #[test]
    fn merge_preserves_annotations() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let (first, second) = corpus.structured.split_at(14);
        let mut a = Database::from_documents(first);
        let id = a.entries()[0].id();
        a.annotate_cluster(id, Annotation::new());
        let b = Database::from_documents(second);
        a.merge(b, crate::dedup::DedupStrategy::default());
        assert!(a.entry(id).unwrap().annotation.is_some());
    }

    #[test]
    fn empty_database() {
        let db = Database::new();
        assert!(db.is_empty());
        assert_eq!(db.unique_count(), 0);
        assert!(db.unique_entries().is_empty());
    }

    #[test]
    fn query_index_is_cached_and_invalidated_on_mutation() {
        let (corpus, mut db) = small_db();
        let first = db.query_index() as *const _;
        assert_eq!(first, db.query_index() as *const _, "second read is cached");

        // Annotating rebuilds the index with the new annotation visible.
        let before = crate::Query::new().annotated_only().count(&db);
        let id = corpus.truth.bugs[0].occurrences[0].id();
        let n = db.annotate_cluster(id, corpus.truth.bugs[0].profile.annotation.clone());
        assert!(n >= 1);
        let q = crate::Query::new().annotated_only();
        assert_eq!(q.count_indexed(db.query_index(), &db), before + n);
        assert_eq!(q.count_indexed(db.query_index(), &db), q.count(&db));
    }

    #[test]
    fn every_mutation_path_invalidates_the_query_index() {
        let (corpus, db) = small_db();
        let id = db.entries()[0].id();
        let key = db.unique_entries()[0].key.unwrap();
        let extra = db.entries()[0].clone();
        let annotation = corpus.truth.bugs[0].profile.annotation.clone();
        let stats = db.dedup_stats();

        type Mutation = Box<dyn FnOnce(&mut Database)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            (
                "restore_dedup_stats",
                Box::new(move |db| db.restore_dedup_stats(stats)),
            ),
            (
                "entry_mut",
                Box::new(move |db| {
                    let _ = db.entry_mut(id);
                }),
            ),
            ("annotate_cluster", {
                let annotation = annotation.clone();
                Box::new(move |db| {
                    let _ = db.annotate_cluster(id, annotation);
                })
            }),
            (
                "annotate_key",
                Box::new(move |db| {
                    let _ = db.annotate_key(key, annotation);
                }),
            ),
            ("extend", Box::new(move |db| db.extend([extra]))),
            (
                "merge",
                Box::new(move |db| {
                    let _ = db.merge(Database::new(), crate::dedup::DedupStrategy::default());
                }),
            ),
        ];
        for (name, mutate) in mutations {
            let mut db = db.clone();
            let _ = db.query_index();
            assert!(db.index.is_built(), "{name}: index built before mutation");
            mutate(&mut db);
            assert!(!db.index.is_built(), "{name} left a built index cached");
        }
    }

    #[test]
    fn query_index_cache_is_outside_identity() {
        let (_, db) = small_db();
        let clone = db.clone();
        let _ = db.query_index();
        // Building the index changes neither equality nor serialization.
        assert_eq!(db, clone);
        assert_eq!(
            serde_json::to_string(&db).unwrap(),
            serde_json::to_string(&clone).unwrap()
        );
        let back: Database = serde_json::from_str(&serde_json::to_string(&db).unwrap()).unwrap();
        assert_eq!(back.entries(), db.entries());
        assert_eq!(back.dedup_stats(), db.dedup_stats());
    }
}
