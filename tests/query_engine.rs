//! Query-engine equivalence: the engine behind `Query::run` / `count`
//! (per-facet bitmaps combined word by word) and a scan oracle kept in
//! this file return byte-identical result id sequences and identical
//! counts for randomly generated query combinations, on databases built at
//! worker counts 1 and 8.
//!
//! This is the correctness contract of the indexed query-serving work:
//! bitmaps, the at-least-k trigger bitmaps and date-window bracketing are
//! throughput knobs, never semantics knobs. The pinned date test nails the
//! inclusive/exclusive bracket convention (`>= after`, `< before`) in the
//! engine and the oracle so an engine rewrite cannot silently shift a
//! boundary, and the figure-shaped battery pins that the index actually
//! saves work: the engine visits slots one at a time only to check a date
//! window, so its `query.entries_scanned` stays far below the scan's.
//! Databases whose universes end on and around 64-bit word boundaries are
//! covered by the `rememberr` unit tests (`query.rs`).
//!
//! The battery test reads the process-global obs counters and the fixture
//! sets the global worker count, so every test serializes on one gate.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use rememberr::{Database, DbEntry, Query, QueryIndex};
use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_model::{
    Context, Date, Design, Effect, FixStatus, MsrName, Trigger, TriggerClass, Vendor,
    WorkaroundCategory,
};

static GATE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One way of answering a query that is not `unique_only`.
type Engine = for<'db> fn(&Query, &'db Database) -> Vec<&'db DbEntry>;

/// The scan oracle: every entry (every representative, for a `unique`
/// query) that `Query::matches` accepts, in entry (representative key)
/// order.
fn scan<'db>(query: &Query, unique: bool, db: &'db Database) -> Vec<&'db DbEntry> {
    let universe = if unique {
        db.unique_entries()
    } else {
        db.entries().iter().collect()
    };
    universe.into_iter().filter(|e| query.matches(e)).collect()
}

fn scan_entries<'db>(query: &Query, db: &'db Database) -> Vec<&'db DbEntry> {
    scan(query, false, db)
}

/// The production path: the engine over the database's cached index.
fn engine<'db>(query: &Query, db: &'db Database) -> Vec<&'db DbEntry> {
    query.run(db)
}

/// Annotated databases built from the same corpus at jobs=1 and jobs=8.
fn dbs() -> &'static (Database, Database) {
    static DBS: OnceLock<(Database, Database)> = OnceLock::new();
    DBS.get_or_init(|| {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.15));
        let mut built = Vec::new();
        for jobs in [1usize, 8] {
            rememberr_par::set_jobs(NonZeroUsize::new(jobs));
            let mut db = Database::from_documents(&corpus.structured);
            classify_database(
                &mut db,
                &Rules::standard(),
                HumanOracle::Simulated(&corpus.truth),
                &FourEyesConfig::default(),
            );
            built.push(db);
        }
        rememberr_par::set_jobs(None);
        let jobs8 = built.pop().expect("two databases");
        let jobs1 = built.pop().expect("two databases");
        (jobs1, jobs8)
    })
}

/// A serializable description of one query condition; a random `Vec<Cond>`
/// folded over `Query::new()` covers every facet the engine handles,
/// `min_triggers` included.
#[derive(Debug, Clone)]
enum Cond {
    Vendor(bool),
    Design(usize),
    Trigger(usize),
    TriggerClass(usize),
    Context(usize),
    Effect(usize),
    Msr(usize),
    Workaround(usize),
    Fix(usize),
    After(u16),
    Before(u16),
    MinTriggers(usize),
    Unique,
    Annotated,
}

fn apply(query: Query, cond: &Cond) -> Query {
    match cond {
        Cond::Vendor(intel) => query.vendor(if *intel { Vendor::Intel } else { Vendor::Amd }),
        Cond::Design(i) => query.design(Design::ALL[i % Design::ALL.len()]),
        Cond::Trigger(i) => query.trigger(Trigger::ALL[i % Trigger::ALL.len()]),
        Cond::TriggerClass(i) => {
            query.trigger_class(TriggerClass::ALL[i % TriggerClass::ALL.len()])
        }
        Cond::Context(i) => query.context(Context::ALL[i % Context::ALL.len()]),
        Cond::Effect(i) => query.effect(Effect::ALL[i % Effect::ALL.len()]),
        Cond::Msr(i) => query.msr(MsrName::ALL[i % MsrName::ALL.len()]),
        Cond::Workaround(i) => {
            query.workaround(WorkaroundCategory::ALL[i % WorkaroundCategory::ALL.len()])
        }
        Cond::Fix(i) => query.fix(FixStatus::ALL[i % FixStatus::ALL.len()]),
        Cond::After(day) => query.disclosed_after(date_from_day(*day)),
        Cond::Before(day) => query.disclosed_before(date_from_day(*day)),
        Cond::MinTriggers(n) => query.min_triggers(n % 4),
        Cond::Unique => query.unique_only(),
        Cond::Annotated => query.annotated_only(),
    }
}

/// Spread an arbitrary day offset over the corpus' disclosure span
/// (roughly 2008-2021) so date windows land on populated, boundary, and
/// empty regions alike.
fn date_from_day(day: u16) -> Date {
    let year = 2008 + u32::from(day) / 336;
    let month = 1 + (u32::from(day) / 28) % 12;
    let dom = 1 + u32::from(day) % 28;
    Date::new(year as i32, month as u8, dom as u8).expect("generated date is valid")
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    prop_oneof![
        any::<bool>().prop_map(Cond::Vendor),
        (0usize..64).prop_map(Cond::Design),
        (0usize..64).prop_map(Cond::Trigger),
        (0usize..64).prop_map(Cond::TriggerClass),
        (0usize..64).prop_map(Cond::Context),
        (0usize..64).prop_map(Cond::Effect),
        (0usize..64).prop_map(Cond::Msr),
        (0usize..64).prop_map(Cond::Workaround),
        (0usize..64).prop_map(Cond::Fix),
        (0u16..4700).prop_map(Cond::After),
        (0u16..4700).prop_map(Cond::Before),
        (0usize..4).prop_map(Cond::MinTriggers),
        Just(Cond::Unique),
        Just(Cond::Annotated),
    ]
}

/// The full identity of a result sequence: ids in order plus dedup keys.
fn fingerprint(hits: &[&DbEntry]) -> Vec<(String, Option<u32>)> {
    hits.iter()
        .map(|e| (e.id().to_string(), e.key.map(|k| k.value())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_agree_on_random_queries_at_every_worker_count(
        conds in prop::collection::vec(cond_strategy(), 0..5),
    ) {
        let _gate = exclusive();
        let query = conds.iter().fold(Query::new(), apply);
        let unique = conds.iter().any(|c| matches!(c, Cond::Unique));
        let (jobs1, jobs8) = dbs();
        let oracle = fingerprint(&scan(&query, unique, jobs1));
        for (jobs, db) in [(1usize, jobs1), (8, jobs8)] {
            let scanned = fingerprint(&scan(&query, unique, db));
            let served = fingerprint(&query.run(db));
            prop_assert_eq!(&scanned, &oracle, "scan diverges across jobs={}", jobs);
            prop_assert_eq!(&served, &oracle, "engine diverges at jobs={}", jobs);
            prop_assert_eq!(query.count(db), oracle.len(), "count at jobs={}", jobs);
            prop_assert_eq!(
                query.count_indexed(db.query_index(), db),
                oracle.len(),
                "count_indexed at jobs={}",
                jobs
            );
        }
    }

    #[test]
    fn prebuilt_index_matches_cached_index(conds in prop::collection::vec(cond_strategy(), 0..4)) {
        // A freshly built index and the database's lazily cached one serve
        // identical results — the cache is pure memoization.
        let _gate = exclusive();
        let query = conds.iter().fold(Query::new(), apply);
        let (db, _) = dbs();
        let fresh = QueryIndex::build(db);
        let via_fresh: Vec<String> = query
            .run_indexed(&fresh, db)
            .iter()
            .map(|e| e.id().to_string())
            .collect();
        let via_cached: Vec<String> = query
            .run_indexed(db.query_index(), db)
            .iter()
            .map(|e| e.id().to_string())
            .collect();
        prop_assert_eq!(via_fresh, via_cached);
    }
}

#[test]
fn date_bounds_are_inclusive_after_exclusive_before_on_both_engines() {
    let _gate = exclusive();
    let (db, _) = dbs();
    let entry = &db.entries()[db.len() / 2];
    let pivot = entry.provenance.disclosure_date;
    let engines: [(&str, Engine); 2] = [("scan", scan_entries), ("engine", engine)];
    for (engine, run) in engines {
        // `disclosed_after` is inclusive: a window starting exactly at the
        // pivot date still contains the pivot entry.
        let from_pivot = run(&Query::new().disclosed_after(pivot), db);
        assert!(
            from_pivot.iter().any(|e| e.id() == entry.id()),
            "{engine}: >= after must include the boundary date"
        );
        assert!(from_pivot
            .iter()
            .all(|e| e.provenance.disclosure_date >= pivot));

        // `disclosed_before` is exclusive: a window ending exactly at the
        // pivot date excludes the pivot entry.
        let until_pivot = run(&Query::new().disclosed_before(pivot), db);
        assert!(
            until_pivot
                .iter()
                .all(|e| e.provenance.disclosure_date < pivot),
            "{engine}: < before must exclude the boundary date"
        );

        // The two windows partition the database exactly.
        assert_eq!(from_pivot.len() + until_pivot.len(), db.len(), "{engine}");

        // An empty window is empty on both engines.
        let empty = run(
            &Query::new().disclosed_after(pivot).disclosed_before(pivot),
            db,
        );
        assert!(empty.is_empty(), "{engine}: [pivot, pivot) must be empty");
    }
}

/// The shape every analysis figure serves: per vendor, unique-bug queries
/// for every trigger, context, effect, MSR and workaround category, plus a
/// date window and two composites (one with `min_triggers`).
/// Every query is `unique_only`.
fn figure_battery() -> Vec<Query> {
    let after = Date::new(2016, 1, 1).expect("valid date");
    let before = Date::new(2019, 1, 1).expect("valid date");
    let mut queries = Vec::new();
    for vendor in Vendor::ALL {
        let base = Query::new().vendor(vendor).unique_only();
        queries.extend(Trigger::ALL.iter().map(|&t| base.clone().trigger(t)));
        queries.extend(Context::ALL.iter().map(|&c| base.clone().context(c)));
        queries.extend(Effect::ALL.iter().map(|&e| base.clone().effect(e)));
        queries.extend(MsrName::ALL.map(|m| base.clone().msr(m)));
        queries.extend(WorkaroundCategory::ALL.map(|w| base.clone().workaround(w)));
        queries.push(base.clone().disclosed_after(after).disclosed_before(before));
        queries.push(
            base.clone()
                .effect(Effect::Hang)
                .fix(FixStatus::NoFixPlanned)
                .disclosed_after(after),
        );
        queries.push(base.clone().trigger(Trigger::Reset).min_triggers(2));
    }
    queries
}

fn hit_ids(hits: &[&DbEntry]) -> Vec<String> {
    hits.iter().map(|e| e.id().to_string()).collect()
}

/// Result ids of every battery query under the engine, plus the
/// `query.entries_scanned` counter the run accumulated.
fn run_battery(db: &Database, queries: &[Query]) -> (Vec<Vec<String>>, u64) {
    rememberr_obs::reset();
    rememberr_obs::enable();
    let ids = queries.iter().map(|q| hit_ids(&q.run(db))).collect();
    let snap = rememberr_obs::snapshot();
    rememberr_obs::disable();
    rememberr_obs::reset();
    let scanned = snap.counters.get("query.entries_scanned").copied();
    (ids, scanned.unwrap_or(0))
}

#[test]
fn indexed_engine_scans_ten_times_fewer_entries_on_the_figure_battery() {
    let _gate = exclusive();
    let (db, _) = dbs();
    let queries = figure_battery();
    let oracle_ids: Vec<Vec<String>> = queries
        .iter()
        .map(|q| hit_ids(&scan(q, true, db)))
        .collect();
    // Per unique query, the scan visits every entry and then the
    // representatives it derives from them.
    let oracle_scanned = (queries.len() * (db.len() + db.unique_entries().len())) as u64;
    let (ids, scanned) = run_battery(db, &queries);
    for (i, (got, want)) in ids.iter().zip(&oracle_ids).enumerate() {
        assert_eq!(got, want, "query #{i} ({:?}) diverged", queries[i]);
    }
    assert!(scanned > 0, "the indexed engine reports its effort");
    assert!(
        oracle_scanned >= 10 * scanned,
        "expected >= 10x fewer entries scanned: scan {oracle_scanned} vs indexed {scanned}"
    );
}
