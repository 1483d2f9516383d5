//! Query interface over the database.
//!
//! The paper's artifact ships "an example script to encourage readers to
//! write their own queries"; this module is the equivalent surface: a
//! builder of composable filters over entries or unique bugs.
//!
//! # Examples
//!
//! ```
//! use rememberr::{Database, Query};
//! use rememberr_model::{Trigger, Vendor};
//! use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
//!
//! let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
//! let mut db = Database::from_documents(&corpus.structured);
//! # let key = db.unique_entries()[0].key.unwrap();
//! # let ann = corpus.truth.bugs[0].profile.annotation.clone();
//! # db.annotate_keys(&std::collections::HashMap::from([(key, ann)]));
//! let hits = Query::new()
//!     .vendor(Vendor::Intel)
//!     .unique_only()
//!     .run(&db);
//! assert!(hits.len() <= db.len());
//! ```

use rememberr_model::{
    Context, Date, Design, Effect, FixStatus, MsrName, Trigger, TriggerClass, Vendor,
    WorkaroundCategory,
};

use crate::db::Database;
use crate::entry::DbEntry;
use crate::index::QueryIndex;

/// A composable filter over database entries.
///
/// All added conditions must hold (conjunction). An unset condition matches
/// everything.
///
/// Two engines serve a query: [`Query::run_indexed`] intersects the
/// posting lists of a [`QueryIndex`] and is what the CLI and the server
/// call; [`Query::run`] scans every entry and is the correctness oracle
/// the tests check it against. Both return the same entries in the same
/// order.
#[derive(Debug, Clone, Default)]
pub struct Query {
    pub(crate) vendor: Option<Vendor>,
    pub(crate) design: Option<Design>,
    pub(crate) triggers_all: Vec<Trigger>,
    pub(crate) trigger_class: Option<TriggerClass>,
    pub(crate) context_any: Vec<Context>,
    pub(crate) effect_any: Vec<Effect>,
    pub(crate) msr: Option<MsrName>,
    pub(crate) workaround: Option<WorkaroundCategory>,
    pub(crate) fix: Option<FixStatus>,
    pub(crate) disclosed_after: Option<Date>,
    pub(crate) disclosed_before: Option<Date>,
    pub(crate) min_triggers: Option<usize>,
    pub(crate) unique_only: bool,
    pub(crate) annotated_only: bool,
}

impl Query {
    /// Creates an unconstrained query (matches every entry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts to one vendor.
    pub fn vendor(mut self, vendor: Vendor) -> Self {
        self.vendor = Some(vendor);
        self
    }

    /// Restricts to one design's document.
    pub fn design(mut self, design: Design) -> Self {
        self.design = Some(design);
        self
    }

    /// Requires the annotation to contain this trigger (repeatable; all
    /// required triggers must be present — triggers are conjunctive).
    pub fn trigger(mut self, trigger: Trigger) -> Self {
        self.triggers_all.push(trigger);
        self
    }

    /// Requires at least one trigger of this class.
    pub fn trigger_class(mut self, class: TriggerClass) -> Self {
        self.trigger_class = Some(class);
        self
    }

    /// Requires this context to be applicable (repeatable; any listed
    /// context suffices — contexts are disjunctive).
    pub fn context(mut self, context: Context) -> Self {
        self.context_any.push(context);
        self
    }

    /// Requires this effect to be observable (repeatable; any listed effect
    /// suffices — effects are disjunctive).
    pub fn effect(mut self, effect: Effect) -> Self {
        self.effect_any.push(effect);
        self
    }

    /// Requires the bug to be witnessed by this MSR.
    pub fn msr(mut self, msr: MsrName) -> Self {
        self.msr = Some(msr);
        self
    }

    /// Restricts to a workaround category.
    pub fn workaround(mut self, workaround: WorkaroundCategory) -> Self {
        self.workaround = Some(workaround);
        self
    }

    /// Restricts to a fix status.
    pub fn fix(mut self, fix: FixStatus) -> Self {
        self.fix = Some(fix);
        self
    }

    /// Restricts to disclosures at or after this date.
    pub fn disclosed_after(mut self, date: Date) -> Self {
        self.disclosed_after = Some(date);
        self
    }

    /// Restricts to disclosures strictly before this date.
    pub fn disclosed_before(mut self, date: Date) -> Self {
        self.disclosed_before = Some(date);
        self
    }

    /// Requires at least this many necessary triggers (bug complexity).
    pub fn min_triggers(mut self, n: usize) -> Self {
        self.min_triggers = Some(n);
        self
    }

    /// Evaluates over one representative per unique bug instead of all
    /// listings.
    pub fn unique_only(mut self) -> Self {
        self.unique_only = true;
        self
    }

    /// Skips entries without an annotation.
    pub fn annotated_only(mut self) -> Self {
        self.annotated_only = true;
        self
    }

    /// True if an entry satisfies every condition.
    pub fn matches(&self, entry: &DbEntry) -> bool {
        if let Some(v) = self.vendor {
            if entry.vendor() != v {
                return false;
            }
        }
        if let Some(d) = self.design {
            if entry.design() != d {
                return false;
            }
        }
        if let Some(after) = self.disclosed_after {
            if entry.provenance.disclosure_date < after {
                return false;
            }
        }
        if let Some(before) = self.disclosed_before {
            if entry.provenance.disclosure_date >= before {
                return false;
            }
        }
        if let Some(w) = self.workaround {
            if entry.workaround != w {
                return false;
            }
        }
        if let Some(f) = self.fix {
            if entry.fix != f {
                return false;
            }
        }

        let needs_annotation = self.annotated_only
            || !self.triggers_all.is_empty()
            || self.trigger_class.is_some()
            || !self.context_any.is_empty()
            || !self.effect_any.is_empty()
            || self.msr.is_some()
            || self.min_triggers.is_some();
        let Some(ann) = entry.annotation.as_ref() else {
            return !needs_annotation;
        };

        if !self.triggers_all.iter().all(|&t| ann.triggers.contains(t)) {
            return false;
        }
        if let Some(class) = self.trigger_class {
            if !ann.triggers.iter().any(|t| t.class() == class) {
                return false;
            }
        }
        if !self.context_any.is_empty()
            && !self.context_any.iter().any(|&c| ann.contexts.contains(c))
        {
            return false;
        }
        if !self.effect_any.is_empty() && !self.effect_any.iter().any(|&e| ann.effects.contains(e))
        {
            return false;
        }
        if let Some(msr) = self.msr {
            if !ann.msrs.iter().any(|r| r.name == msr) {
                return false;
            }
        }
        if let Some(n) = self.min_triggers {
            if ann.complexity() < n {
                return false;
            }
        }
        true
    }

    /// The scan engine's shared code path: visits every candidate entry
    /// and reports hits. `run` and `count` both ride on this so counting
    /// never materializes a `Vec<&DbEntry>`.
    ///
    /// Counts every entry the engine visits as `query.entries_scanned`:
    /// for `unique_only` queries that is the full pass deriving the
    /// representative view plus one `matches` test per representative; for
    /// entry queries it is one test per entry.
    fn scan<'db>(&self, db: &'db Database, mut hit: impl FnMut(&'db DbEntry)) {
        let _span = rememberr_obs::span!("query.execute");
        if self.unique_only {
            let uniques = db.unique_entries();
            rememberr_obs::count("query.entries_scanned", (db.len() + uniques.len()) as u64);
            for e in uniques {
                if self.matches(e) {
                    hit(e);
                }
            }
        } else {
            rememberr_obs::count("query.entries_scanned", db.len() as u64);
            for e in db.entries() {
                if self.matches(e) {
                    hit(e);
                }
            }
        }
    }

    /// Runs the query against a database with the scan engine.
    pub fn run<'db>(&self, db: &'db Database) -> Vec<&'db DbEntry> {
        let mut out = Vec::new();
        self.scan(db, |e| out.push(e));
        out
    }

    /// Number of matches, counted with the scan engine.
    pub fn count(&self, db: &Database) -> usize {
        let mut n = 0;
        self.scan(db, |_| n += 1);
        n
    }

    /// Runs the query through a prebuilt [`QueryIndex`], returning entries
    /// in the same order as [`Query::run`].
    ///
    /// # Panics
    ///
    /// Panics if `index` was built over a different database.
    pub fn run_indexed<'db>(&self, index: &QueryIndex, db: &'db Database) -> Vec<&'db DbEntry> {
        crate::index::execute(self, index, db)
    }

    /// Number of matches, counted through a prebuilt [`QueryIndex`]. When
    /// no residual predicate remains this is the final intersection's
    /// length — no `Vec<&DbEntry>` is materialized.
    ///
    /// # Panics
    ///
    /// Panics if `index` was built over a different database.
    pub fn count_indexed(&self, index: &QueryIndex, db: &Database) -> usize {
        crate::index::execute_count(self, index, db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_model::{Annotation, Erratum, ErratumId, Provenance};

    fn entry(design: Design, number: u32, annotation: Option<Annotation>) -> DbEntry {
        let mut e = DbEntry::new(
            Erratum {
                id: ErratumId::new(design, number),
                title: format!("Title {number}"),
                description: format!("Description {number}"),
                implications: String::new(),
                workaround: "None identified.".into(),
                status: "No fix planned.".into(),
            },
            Provenance::from_revision_log(1, Date::new(2016, 6, 15).unwrap()),
        );
        e.annotation = annotation;
        e
    }

    fn db_with(entries: Vec<DbEntry>) -> Database {
        Database::from_parts(entries, Default::default())
    }

    #[test]
    fn vendor_and_design_filters() {
        let db = db_with(vec![
            entry(Design::Intel6, 1, None),
            entry(Design::Amd19h, 2, None),
        ]);
        assert_eq!(Query::new().vendor(Vendor::Intel).count(&db), 1);
        assert_eq!(Query::new().design(Design::Amd19h).count(&db), 1);
        assert_eq!(Query::new().count(&db), 2);
    }

    #[test]
    fn trigger_filters_are_conjunctive() {
        let ann = Annotation::builder()
            .trigger(Trigger::Reset, "r")
            .trigger(Trigger::Pcie, "p")
            .effect(Effect::Hang, "h")
            .build();
        let db = db_with(vec![
            entry(Design::Intel6, 1, Some(ann)),
            entry(Design::Intel6, 2, None),
        ]);
        assert_eq!(Query::new().trigger(Trigger::Reset).count(&db), 1);
        assert_eq!(
            Query::new()
                .trigger(Trigger::Reset)
                .trigger(Trigger::Pcie)
                .count(&db),
            1
        );
        assert_eq!(
            Query::new()
                .trigger(Trigger::Reset)
                .trigger(Trigger::Usb)
                .count(&db),
            0
        );
        assert_eq!(Query::new().trigger_class(TriggerClass::Ext).count(&db), 1);
    }

    #[test]
    fn context_and_effect_filters_are_disjunctive() {
        let ann = Annotation::builder()
            .context(Context::VmGuest, "g")
            .effect(Effect::Hang, "h")
            .build();
        let db = db_with(vec![entry(Design::Intel6, 1, Some(ann))]);
        assert_eq!(
            Query::new()
                .context(Context::VmGuest)
                .context(Context::Smm)
                .count(&db),
            1
        );
        assert_eq!(Query::new().context(Context::Smm).count(&db), 0);
        assert_eq!(
            Query::new()
                .effect(Effect::Hang)
                .effect(Effect::Usb)
                .count(&db),
            1
        );
    }

    #[test]
    fn unannotated_entries_fail_annotation_conditions() {
        let db = db_with(vec![entry(Design::Intel6, 1, None)]);
        assert_eq!(Query::new().min_triggers(1).count(&db), 0);
        assert_eq!(Query::new().annotated_only().count(&db), 0);
        assert_eq!(Query::new().count(&db), 1);
    }

    #[test]
    fn date_window() {
        let db = db_with(vec![entry(Design::Intel6, 1, None)]);
        let before = Date::new(2016, 1, 1).unwrap();
        let after = Date::new(2017, 1, 1).unwrap();
        assert_eq!(Query::new().disclosed_after(before).count(&db), 1);
        assert_eq!(Query::new().disclosed_after(after).count(&db), 0);
        assert_eq!(Query::new().disclosed_before(after).count(&db), 1);
        assert_eq!(Query::new().disclosed_before(before).count(&db), 0);
    }

    #[test]
    fn min_triggers_measures_complexity() {
        let ann = Annotation::builder()
            .trigger(Trigger::Reset, "r")
            .trigger(Trigger::Pcie, "p")
            .build();
        let db = db_with(vec![entry(Design::Intel6, 1, Some(ann))]);
        assert_eq!(Query::new().min_triggers(2).count(&db), 1);
        assert_eq!(Query::new().min_triggers(3).count(&db), 0);
    }

    /// Every query exercised by this module's tests, plus residual and
    /// date combinations, served identically by both engines on a real
    /// (deduped + annotated) corpus.
    #[test]
    fn engines_agree_on_synthetic_corpus() {
        use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.08));
        let mut db = Database::from_documents(&corpus.structured);
        crate::db::annotate_from_truth(&mut db, &corpus.truth);
        let after = Date::new(2016, 1, 1).unwrap();
        let before = Date::new(2019, 6, 1).unwrap();
        let queries = vec![
            Query::new(),
            Query::new().unique_only(),
            Query::new().vendor(Vendor::Intel).unique_only(),
            Query::new().vendor(Vendor::Amd).trigger(Trigger::Reset),
            Query::new().trigger_class(TriggerClass::Ext).unique_only(),
            Query::new().context(Context::VmGuest).context(Context::Smm),
            Query::new().effect(Effect::Hang).effect(Effect::Usb),
            Query::new().msr(MsrName::McStatus).unique_only(),
            Query::new().workaround(WorkaroundCategory::Bios),
            Query::new().fix(FixStatus::Fixed).unique_only(),
            Query::new().disclosed_after(after).disclosed_before(before),
            Query::new().disclosed_after(after).unique_only(),
            Query::new().min_triggers(2),
            Query::new().min_triggers(2).unique_only(),
            Query::new().annotated_only(),
            Query::new()
                .vendor(Vendor::Intel)
                .effect(Effect::Hang)
                .disclosed_after(after)
                .min_triggers(1)
                .unique_only(),
        ];
        let index = QueryIndex::build(&db);
        for q in &queries {
            let scan: Vec<_> = q.run(&db).iter().map(|e| e.id()).collect();
            let indexed: Vec<_> = q.run_indexed(&index, &db).iter().map(|e| e.id()).collect();
            assert_eq!(indexed, scan, "{q:?}");
            assert_eq!(q.count_indexed(&index, &db), scan.len(), "{q:?}");
            assert_eq!(q.count(&db), scan.len(), "{q:?}");
        }
    }

    /// Pinned: `disclosed_after` is inclusive (`>= after`),
    /// `disclosed_before` is exclusive (`< before`) — on both engines.
    #[test]
    fn date_bounds_are_inclusive_exclusive_on_both_engines() {
        let db = db_with(vec![entry(Design::Intel6, 1, None)]);
        let disclosed = Date::new(2016, 6, 15).unwrap(); // the fixture's date
        let index = QueryIndex::build(&db);
        for (q, expect) in [
            (Query::new().disclosed_after(disclosed), 1),
            (Query::new().disclosed_before(disclosed), 0),
            (
                Query::new()
                    .disclosed_after(disclosed)
                    .disclosed_before(disclosed),
                0,
            ),
        ] {
            assert_eq!(q.count(&db), expect, "scan {q:?}");
            assert_eq!(q.count_indexed(&index, &db), expect, "indexed {q:?}");
        }
    }
}
