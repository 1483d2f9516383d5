//! Query interface over the database.
//!
//! The paper's artifact ships "an example script to encourage readers to
//! write their own queries"; this module is the equivalent surface: a
//! builder of composable filters over entries or unique bugs. The CLI's
//! `query` options and the server's URL parameters are one vocabulary,
//! parsed by [`Query::from_params`], and every query runs on one engine:
//! word-wise AND/OR over the facet bitmaps of the database's
//! [`QueryIndex`].
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
//!
//! let (parsed, limit) = Query::from_params([("vendor", "intel"), ("unique", "1")], "")?;
//! assert_eq!(parsed.count(&db), hits.len());
//! assert_eq!(limit, None);
//! # Ok::<(), String>(())
//! ```

use std::str::FromStr;

use rememberr_model::{
    parse_fix, parse_vendor, parse_workaround, Context, Date, Design, Effect, FixStatus, MsrName,
    Trigger, TriggerClass, Vendor, WorkaroundCategory,
};

use crate::db::Database;
use crate::entry::DbEntry;
use crate::index::QueryIndex;

/// A composable filter over database entries.
///
/// All added conditions must hold (conjunction). An unset condition matches
/// everything.
///
/// [`Query::run`] and [`Query::count`] answer from the database's cached
/// [`QueryIndex`], which decides every condition with its bitmaps;
/// [`Query::matches`] is the per-entry definition they agree with.
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

/// How a query parameter takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arity {
    /// A switch: `--unique` on the command line; `unique`, `unique=1` or
    /// `unique=0` in a URL.
    Flag,
    /// One value; given twice, it must repeat the same value.
    One,
    /// Repeatable: each value adds a condition.
    Many,
}

/// The query parameter vocabulary: the CLI's `query` options (spelled
/// `--name`) and the server's URL parameters.
const PARAMS: [(&str, Arity); 15] = [
    ("vendor", Arity::One),
    ("design", Arity::One),
    ("trigger", Arity::Many),
    ("trigger-class", Arity::One),
    ("context", Arity::Many),
    ("effect", Arity::Many),
    ("msr", Arity::One),
    ("workaround", Arity::One),
    ("fix", Arity::One),
    ("after", Arity::One),
    ("before", Arity::One),
    ("min-triggers", Arity::One),
    ("unique", Arity::Flag),
    ("annotated", Arity::Flag),
    ("limit", Arity::One),
];

impl Query {
    /// Creates an unconstrained query (matches every entry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a query from `(name, value)` parameters: the CLI's `query`
    /// options and the server's URL parameters both come through here, so
    /// the two surfaces accept and refuse the same things with the same
    /// words.
    ///
    /// Returns the query and the `limit` render cap, if one was given.
    /// `prefix` is how the caller's surface spells a parameter name in its
    /// messages: `"--"` for command-line options, `""` for URL parameters.
    ///
    /// `trigger`, `context` and `effect` repeat, one condition per value.
    /// Any other parameter given twice must repeat its value. A flag
    /// (`unique`, `annotated`) takes `""`, `1`/`true` or `0`/`false`, and
    /// `min-triggers=0` sets no condition.
    ///
    /// # Errors
    ///
    /// Returns a message naming what was refused and what is valid: an
    /// unknown parameter, a malformed value, or a single-valued parameter
    /// repeated with a different value.
    pub fn from_params<'a>(
        params: impl IntoIterator<Item = (&'a str, &'a str)>,
        prefix: &str,
    ) -> Result<(Query, Option<usize>), String> {
        let mut query = Query::new();
        let mut limit = None;
        // The value each single-valued parameter was first given.
        let mut given = [None; PARAMS.len()];
        for (name, value) in params {
            let Some(slot) = PARAMS.iter().position(|&(n, _)| n == name) else {
                let valid: Vec<&str> = PARAMS.iter().map(|&(n, _)| n).collect();
                return Err(format!(
                    "unknown parameter {name:?} (valid: {})",
                    valid.join(", ")
                ));
            };
            if PARAMS[slot].1 != Arity::Many {
                match given[slot] {
                    Some(first) if first != value => {
                        return Err(format!(
                            "{prefix}{name} given twice with conflicting values: \
                             {first:?} then {value:?}"
                        ));
                    }
                    _ => given[slot] = Some(value),
                }
            }
            let invalid = |expected: &str| {
                format!("invalid value for {prefix}{name}: {value:?} ({expected})")
            };
            let number = || {
                value
                    .parse::<usize>()
                    .map_err(|_| invalid("expected a number"))
            };
            let date = || {
                value
                    .parse::<Date>()
                    .map_err(|_| invalid("expected YYYY-MM-DD"))
            };
            let flag = || match value {
                "" | "1" | "true" => Ok(true),
                "0" | "false" => Ok(false),
                _ => Err(invalid("use 1/true or 0/false")),
            };
            match name {
                "vendor" => query.vendor = Some(parse_vendor(value)?),
                "design" => {
                    query.design = Some(value.parse().map_err(|_| {
                        format!("unknown design {value:?} (label like \"Core 6\" or reference)")
                    })?);
                }
                "trigger" => query.triggers_all.push(code(value, "trigger code")?),
                "trigger-class" => query.trigger_class = Some(code(value, "trigger class")?),
                "context" => query.context_any.push(code(value, "context code")?),
                "effect" => query.effect_any.push(code(value, "effect code")?),
                "msr" => query.msr = Some(code(value, "MSR name")?),
                "workaround" => query.workaround = Some(parse_workaround(value)?),
                "fix" => query.fix = Some(parse_fix(value)?),
                "after" => query.disclosed_after = Some(date()?),
                "before" => query.disclosed_before = Some(date()?),
                "min-triggers" => query.min_triggers = Some(number()?).filter(|&n| n > 0),
                "unique" => query.unique_only = flag()?,
                "annotated" => query.annotated_only = flag()?,
                "limit" => limit = Some(number()?),
                _ => unreachable!("every name in PARAMS has an arm"),
            }
        }
        Ok((query, limit))
    }

    /// Whether `name` is a query parameter that takes no value on the
    /// command line (`unique`, `annotated`); `None` when `name` is not a
    /// query parameter at all.
    pub fn param_is_flag(name: &str) -> Option<bool> {
        PARAMS
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, arity)| arity == Arity::Flag)
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

    /// True if an entry satisfies every condition. `unique_only` is not a
    /// condition on the entry: it makes the representatives, not every
    /// entry, the set a query answers from.
    ///
    /// This is what a match means; the engine never calls it, and the
    /// equivalence tests filter with it to check the engine.
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

    /// Runs the query over the database's cached [`QueryIndex`], returning
    /// the matching entries in entry order, or the matching representatives
    /// in key order for a `unique_only` query.
    pub fn run<'db>(&self, db: &'db Database) -> Vec<&'db DbEntry> {
        self.run_indexed(db.query_index(), db)
    }

    /// Number of matches, counted over the database's cached [`QueryIndex`]
    /// without materializing the entries.
    pub fn count(&self, db: &Database) -> usize {
        self.count_indexed(db.query_index(), db)
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

    /// Number of matches, counted through a prebuilt [`QueryIndex`]: a
    /// popcount of the matching bitmap, with no `Vec<&DbEntry>`
    /// materialized.
    ///
    /// # Panics
    ///
    /// Panics if `index` was built over a different database.
    pub fn count_indexed(&self, index: &QueryIndex, db: &Database) -> usize {
        crate::index::execute_count(self, index, db)
    }
}

/// Parses a taxonomy code (`Trg_EXT_rst`, `MCx_STATUS`) through its
/// `FromStr` impl.
fn code<T: FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("unknown {what} {value:?}"))
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

    /// The scan oracle the engine is checked against: every entry (every
    /// representative, for a `unique_only` query) that `matches` accepts,
    /// in entry (representative key) order.
    fn scan<'db>(query: &Query, db: &'db Database) -> Vec<&'db DbEntry> {
        let universe = if query.unique_only {
            db.unique_entries()
        } else {
            db.entries().iter().collect()
        };
        universe.into_iter().filter(|e| query.matches(e)).collect()
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

    /// Every query exercised by this module's tests, plus `min_triggers`
    /// and date combinations, served by the engine exactly as the scan
    /// oracle answers them on a real (deduped + annotated) corpus.
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
            let scan: Vec<_> = scan(q, &db).iter().map(|e| e.id()).collect();
            let served: Vec<_> = q.run(&db).iter().map(|e| e.id()).collect();
            let indexed: Vec<_> = q.run_indexed(&index, &db).iter().map(|e| e.id()).collect();
            assert_eq!(served, scan, "{q:?}");
            assert_eq!(indexed, scan, "{q:?}");
            assert_eq!(q.count_indexed(&index, &db), scan.len(), "{q:?}");
            assert_eq!(q.count(&db), scan.len(), "{q:?}");
        }
    }

    /// Every facet value, each `min_triggers` edge (0, 1, 2, the largest
    /// trigger count and one above it), and date windows (one-sided, one
    /// date wide, empty and inverted), each over all entries and over the
    /// representatives.
    fn boundary_queries(db: &Database) -> Vec<Query> {
        let mut queries = vec![Query::new(), Query::new().annotated_only()];
        queries.extend(Vendor::ALL.map(|v| Query::new().vendor(v)));
        queries.extend(Design::ALL.map(|d| Query::new().design(d)));
        queries.extend(WorkaroundCategory::ALL.map(|w| Query::new().workaround(w)));
        queries.extend(FixStatus::ALL.map(|f| Query::new().fix(f)));
        queries.extend(Trigger::ALL.iter().map(|&t| Query::new().trigger(t)));
        queries.extend(
            TriggerClass::ALL
                .iter()
                .map(|&c| Query::new().trigger_class(c)),
        );
        queries.extend(Context::ALL.iter().map(|&c| Query::new().context(c)));
        queries.extend(Effect::ALL.iter().map(|&e| Query::new().effect(e)));
        queries.extend(MsrName::ALL.map(|m| Query::new().msr(m)));
        queries.push(
            Query::new()
                .context(Context::ALL[0])
                .context(Context::ALL[1]),
        );
        queries.push(
            Query::new()
                .vendor(Vendor::Intel)
                .effect(Effect::ALL[0])
                .effect(Effect::ALL[2]),
        );
        let largest = db
            .entries()
            .iter()
            .filter_map(|e| e.annotation.as_ref().map(Annotation::complexity))
            .max()
            .unwrap_or(0);
        for k in [0, 1, 2, largest, largest + 1] {
            queries.push(Query::new().min_triggers(k));
            queries.push(
                Query::new()
                    .vendor(Vendor::Amd)
                    .annotated_only()
                    .min_triggers(k),
            );
        }
        let mut dates: Vec<Date> = db
            .entries()
            .iter()
            .map(|e| e.provenance.disclosure_date)
            .collect();
        dates.sort_unstable();
        dates.dedup();
        let quartile = |q: usize| {
            dates
                .get(dates.len() * q / 4)
                .copied()
                .unwrap_or(Date::new(2016, 6, 15).unwrap())
        };
        let (early, mid, late) = (quartile(1), quartile(2), quartile(3));
        let next = dates.iter().copied().find(|&d| d > mid).unwrap_or(mid);
        for (after, before) in [
            (Some(mid), None),
            (None, Some(mid)),
            (Some(early), Some(late)),
            (Some(mid), Some(next)),
            (Some(mid), Some(mid)),
            (Some(late), Some(early)),
        ] {
            let mut q = Query::new();
            q.disclosed_after = after;
            q.disclosed_before = before;
            // One design holds fewer slots than most windows, so each
            // window is checked slot by slot at its edges, besides driving.
            queries.extend(Design::ALL.map(|d| q.clone().design(d)));
            queries.push(
                q.clone()
                    .trigger_class(TriggerClass::ALL[0])
                    .min_triggers(1),
            );
            queries.push(q);
        }
        queries
            .into_iter()
            .flat_map(|q| [q.clone(), q.unique_only()])
            .collect()
    }

    /// Bitmaps end mid-word or on a word boundary: the engine answers as
    /// the scan does on databases of 0 to 129 entries, cut from a docgen
    /// corpus either as a prefix of its entries or as its first
    /// representatives (distinct keys, so the representative universe has
    /// as many slots as the entry universe).
    #[test]
    fn engine_matches_scan_across_word_boundaries() {
        use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.15));
        let mut source = Database::from_documents(&corpus.structured);
        crate::db::annotate_from_truth(&mut source, &corpus.truth);
        // Every fifth entry loses its annotation, so the annotation facets
        // split both universes.
        let thin = |entries: Vec<&DbEntry>| -> Vec<DbEntry> {
            let mut entries: Vec<DbEntry> = entries.into_iter().cloned().collect();
            for e in entries.iter_mut().skip(4).step_by(5) {
                e.annotation = None;
            }
            entries
        };
        let listed = thin(source.entries().iter().collect());
        let reps = thin(source.unique_entries());
        assert!(reps.len() >= 129, "{} representatives", reps.len());
        for n in [0, 1, 63, 64, 65, 127, 128, 129] {
            for (cut, entries) in [("entries", &listed), ("representatives", &reps)] {
                let db = db_with(entries[..n].to_vec());
                if cut == "representatives" {
                    assert_eq!(db.query_index().unique_count(), n);
                }
                for q in boundary_queries(&db) {
                    let want: Vec<*const DbEntry> =
                        scan(&q, &db).into_iter().map(std::ptr::from_ref).collect();
                    let got: Vec<*const DbEntry> =
                        q.run(&db).into_iter().map(std::ptr::from_ref).collect();
                    assert_eq!(got, want, "first {n} {cut}: {q:?}");
                    assert_eq!(q.count(&db), want.len(), "first {n} {cut}: {q:?}");
                }
            }
        }
    }

    /// Pinned: `disclosed_after` is inclusive (`>= after`),
    /// `disclosed_before` is exclusive (`< before`) — in the engine and in
    /// the scan oracle.
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
            assert_eq!(scan(&q, &db).len(), expect, "scan {q:?}");
            assert_eq!(q.count(&db), expect, "engine {q:?}");
            assert_eq!(q.count_indexed(&index, &db), expect, "indexed {q:?}");
        }
    }
}
