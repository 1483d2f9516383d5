//! The RemembERR database.

use std::collections::HashMap;

use rememberr_model::{Annotation, Design, ErrataDocument, UniqueKey, Vendor};
use rememberr_textkit::AnalyzedCorpus;

use crate::cluster::ClusterTable;
use crate::dedup::{assign_keys_with, CandidateGen, DedupStats, DedupStrategy};
use crate::entry::DbEntry;
use crate::index::{DerivedCell, QueryIndex};

/// The annotated, keyed errata database — the paper's primary artifact.
///
/// The pipeline builds a database once from the documents, annotates it
/// once through [`Database::annotate_keys`], and only reads it after that.
///
/// Identity (equality, and what [`crate::save`] writes) is the entries
/// plus dedup statistics; the cached query index and cluster table are
/// derived acceleration structures and never part of it — see the manual
/// `PartialEq` impl below.
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
#[derive(Debug, Clone, Default)]
pub struct Database {
    entries: Vec<DbEntry>,
    dedup_stats: DedupStats,
    index: DerivedCell<QueryIndex>,
    clusters: DerivedCell<ClusterTable>,
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        (&self.entries, &self.dedup_stats) == (&other.entries, &other.dedup_stats)
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// A database that takes ownership of already-keyed `entries`, with the
    /// dedup statistics of the run that keyed them; the loaders build
    /// through it so decoded entries are moved in, not copied.
    pub(crate) fn from_parts(entries: Vec<DbEntry>, dedup_stats: DedupStats) -> Self {
        Self {
            entries,
            dedup_stats,
            ..Self::default()
        }
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
        Self::from_parts(entries, dedup_stats)
    }

    /// [`Database::from_documents_opts`] followed by
    /// [`Database::analyze_representatives`]: the database and the arena
    /// that classification and the highlighting assist share.
    pub fn from_documents_analyzed(
        documents: &[ErrataDocument],
        strategy: DedupStrategy,
        candidates: CandidateGen,
    ) -> (Self, AnalyzedCorpus) {
        let db = Self::from_documents_opts(documents, strategy, candidates);
        let corpus = db.analyze_representatives();
        (db, corpus)
    }

    /// Tokenizes the full text of every cluster representative once.
    ///
    /// Document `k` of the arena is the `k`-th entry of
    /// [`Database::unique_entries`], so each representative is read from
    /// its own text even when two representatives share an identifier.
    /// The other cluster members' full texts are never tokenized: dedup
    /// reads only their titles.
    pub fn analyze_representatives(&self) -> AnalyzedCorpus {
        AnalyzedCorpus::analyze(&self.unique_entries(), |e| e.erratum.full_text())
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
    /// cached until [`Database::annotate_keys`] changes the annotations it
    /// indexes. Safe to call from concurrent readers: one builds, the rest
    /// share the result.
    pub fn query_index(&self) -> &QueryIndex {
        self.index.get_or_build(|| QueryIndex::build(self))
    }

    /// The cluster table, cached beside the query index: built lazily and
    /// shared by concurrent readers. It reads only keys, disclosure dates
    /// and erratum ids, which nothing changes after construction, so it is
    /// built at most once per database.
    fn clusters(&self) -> &ClusterTable {
        self.clusters
            .get_or_build(|| ClusterTable::build(&self.entries))
    }

    /// Entries listed by a given design's document.
    pub fn entries_for(&self, design: Design) -> impl Iterator<Item = &DbEntry> {
        self.entries.iter().filter(move |e| e.design() == design)
    }

    /// Attaches `annotations[key]` to every entry keyed `key`, for all keys
    /// at once, in one pass over the entries. Entries whose key has no
    /// annotation are left as they are.
    ///
    /// This is the database's only mutation. It drops the query index,
    /// which indexes annotations, and keeps the cluster table, which reads
    /// none.
    ///
    /// Returns the number of entries annotated.
    pub fn annotate_keys(&mut self, annotations: &HashMap<UniqueKey, Annotation>) -> usize {
        self.index.invalidate();
        let mut n = 0;
        for e in &mut self.entries {
            if let Some(annotation) = e.key.and_then(|key| annotations.get(&key)) {
                e.annotation = Some(annotation.clone());
                n += 1;
            }
        }
        n
    }

    /// One representative entry per unique key, in key order: the earliest
    /// disclosure (ties broken by design order, then number, then entry
    /// order).
    ///
    /// The paper's deduplicated ("unique errata") analyses run over exactly
    /// this view.
    pub fn unique_entries(&self) -> Vec<&DbEntry> {
        self.clusters()
            .representatives()
            .map(|pos| &self.entries[pos])
            .collect()
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

    /// All entries of the cluster containing `key`, in entry order.
    pub fn cluster(&self, key: UniqueKey) -> impl Iterator<Item = &DbEntry> {
        self.clusters().members(key).map(|pos| &self.entries[pos])
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

/// Annotates each true bug's cluster with the bug's true labels. A bug's
/// cluster is the one holding the first entry that carries the bug's first
/// listed id, so of two bugs listed under one id, the later bug's labels
/// win.
///
/// Returns the number of entries annotated.
#[cfg(test)]
pub(crate) fn annotate_from_truth(
    db: &mut Database,
    truth: &rememberr_docgen::GroundTruth,
) -> usize {
    let mut annotations = HashMap::new();
    for bug in &truth.bugs {
        let id = bug.occurrences[0].id();
        if let Some(key) = db.entries.iter().find(|e| e.id() == id).and_then(|e| e.key) {
            annotations.insert(key, bug.profile.annotation.clone());
        }
    }
    db.annotate_keys(&annotations)
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

        // Annotating rebuilds the index with the new annotations visible.
        let before = crate::Query::new().annotated_only().count(&db);
        let n = annotate_from_truth(&mut db, &corpus.truth);
        assert!(n >= 1);
        let q = crate::Query::new().annotated_only();
        assert_eq!(q.count_indexed(db.query_index(), &db), before + n);
        let annotated = db.entries().iter().filter(|e| e.annotation.is_some());
        assert_eq!(q.count(&db), annotated.count());
    }

    /// Addresses of `entries`, so a check can tell the very same entries
    /// from equal copies.
    fn addresses(entries: Vec<&DbEntry>) -> Vec<*const DbEntry> {
        entries.into_iter().map(|e| e as *const DbEntry).collect()
    }

    #[test]
    fn annotate_keys_drops_the_index_and_keeps_the_cluster_table() {
        let (corpus, mut db) = small_db();
        let _ = db.query_index();
        let representatives = addresses(db.unique_entries());
        assert!(db.index.is_built() && db.clusters.is_built());
        annotate_from_truth(&mut db, &corpus.truth);
        assert!(
            !db.index.is_built(),
            "annotate_keys left a stale index cached"
        );
        assert!(
            db.clusters.is_built(),
            "annotate_keys dropped the cluster table"
        );
        assert_eq!(addresses(db.unique_entries()), representatives);
    }

    #[test]
    fn annotate_keys_annotates_exactly_the_listed_clusters() {
        let (corpus, db) = small_db();
        // Every other cluster, so unlisted clusters are covered too.
        let annotations: HashMap<UniqueKey, Annotation> = db
            .unique_entries()
            .iter()
            .step_by(2)
            .zip(&corpus.truth.bugs)
            .map(|(rep, bug)| (rep.key.unwrap(), bug.profile.annotation.clone()))
            .collect();
        let mut annotated = db.clone();
        let n = annotated.annotate_keys(&annotations);
        let mut expected = 0;
        for (before, after) in db.entries().iter().zip(annotated.entries()) {
            match before.key.and_then(|key| annotations.get(&key)) {
                Some(annotation) => {
                    expected += 1;
                    assert_eq!(after.annotation.as_ref(), Some(annotation));
                }
                None => assert_eq!(after, before),
            }
        }
        assert_eq!(n, expected);
        assert!(expected > 0 && expected < db.len());
    }

    /// Today's linear-scan definitions of the cluster queries: the oracle
    /// the cluster table is checked against.
    mod oracle {
        use super::*;

        pub(super) fn cluster(db: &Database, key: UniqueKey) -> Vec<&DbEntry> {
            db.entries().iter().filter(|e| e.key == Some(key)).collect()
        }

        pub(super) fn cluster_designs(db: &Database, key: UniqueKey) -> Vec<Design> {
            let mut designs: Vec<Design> = cluster(db, key).iter().map(|e| e.design()).collect();
            designs.sort_by_key(|d| d.index());
            designs.dedup();
            designs
        }

        pub(super) fn unique_entries(db: &Database) -> Vec<&DbEntry> {
            let mut best: HashMap<UniqueKey, &DbEntry> = HashMap::new();
            for e in db.entries() {
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
    }

    /// Checks `cluster`, `cluster_designs` and `unique_entries` against the
    /// oracle for every key present plus one absent key. Entries compare by
    /// address, so the table must pick the very same entries, not equal
    /// copies.
    fn assert_clusters_match_oracle(db: &Database, when: &str) {
        assert_eq!(
            addresses(db.unique_entries()),
            addresses(oracle::unique_entries(db)),
            "unique_entries {when}"
        );
        let mut keys: Vec<UniqueKey> = db.entries().iter().filter_map(|e| e.key).collect();
        keys.sort_unstable();
        keys.dedup();
        let absent = UniqueKey(keys.last().map_or(0, |k| k.0 + 1));
        for key in keys.into_iter().chain([absent]) {
            assert_eq!(
                addresses(db.cluster(key).collect()),
                addresses(oracle::cluster(db, key)),
                "cluster {key} {when}"
            );
            assert_eq!(
                db.cluster_designs(key),
                oracle::cluster_designs(db, key),
                "cluster_designs {key} {when}"
            );
        }
    }

    /// The cluster table of one docgen corpus agrees with the oracle after
    /// dedup, and again after `annotate_keys`, which keeps the table built
    /// by the first check. Seeds docgen cannot build a corpus from check
    /// nothing.
    fn check_cluster_table(seed: u64, scale: f64) {
        let mut spec = CorpusSpec::scaled(scale);
        spec.seed = seed;
        let Ok(corpus) = SyntheticCorpus::try_generate(&spec) else {
            return;
        };
        let mut db = Database::from_documents(&corpus.structured);
        assert_clusters_match_oracle(&db, "after dedup");
        annotate_from_truth(&mut db, &corpus.truth);
        assert_clusters_match_oracle(&db, "after annotate_keys");
    }

    proptest::proptest! {
        // Each case generates a corpus, so keep the count small.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn cluster_table_matches_the_linear_scan_oracle(
            seed in 0u64..1_000_000,
            scale in 0.02f64..0.25,
        ) {
            check_cluster_table(seed, scale);
        }
    }

    #[test]
    fn query_index_cache_is_outside_identity() {
        let (_, db) = small_db();
        let clone = db.clone();
        let _ = db.query_index();
        let _ = db.unique_entries();
        // Building the caches changes neither equality nor what a save
        // writes.
        assert_eq!(db, clone);
        let jsonl = |db: &Database| {
            let mut out = Vec::new();
            crate::save(db, &mut out).unwrap();
            out
        };
        assert_eq!(jsonl(&db), jsonl(&clone));
    }
}
