//! Observability for the RemembERR pipeline: hierarchical tracing spans
//! and a process-global metrics registry.
//!
//! # Design
//!
//! * **Disabled by default.** Every entry point checks one relaxed atomic
//!   and returns immediately when collection is off, so instrumented hot
//!   paths (similarity comparisons, page scans) pay only a load+branch.
//!   [`enable`] turns collection on; the CLI does this for `--trace` and
//!   `--metrics-out`.
//! * **Determinism split.** Counters are pure functions of the input and
//!   the seed, so their JSON section is byte-identical across identically
//!   seeded runs and tests may assert exact values. Durations are wall
//!   clock and live in a separate section ([`Snapshot`] keeps them apart).
//! * **Naming convention.** Metric names are `stage.noun_verb`, e.g.
//!   `extract.pages_scanned`, `dedup.comparisons_made`,
//!   `classify.rules_fired`. Stages: `docgen`, `extract`, `dedup`,
//!   `persist`, `classify`, `analysis`, `corpus`, `textkit`, `query`,
//!   `serve`, `par`.
//! * **One tree per run, built as it runs.** Spans carry start timestamps
//!   and lanes; work fanned out to `par`/`join` threads runs under a
//!   [`worker_scope`]/[`aux_scope`] whose [`ScopeGuard::finish`] hands its
//!   spans back for the spawning thread to [`adopt`], so [`chrome_trace`]
//!   (Perfetto-loadable, one lane per worker) and [`profile_rows`]
//!   (per-stage self/child time) read [`take_spans`] as it is.
//!
//! # Example
//!
//! ```
//! rememberr_obs::enable();
//! {
//!     let _outer = rememberr_obs::span!("extract.corpus");
//!     let _inner = rememberr_obs::span!("extract.document", "intel-6");
//!     rememberr_obs::count("extract.pages_scanned", 12);
//! }
//! let snap = rememberr_obs::snapshot();
//! assert_eq!(snap.counters.get("extract.pages_scanned"), Some(&12));
//! assert!(rememberr_obs::render_trace().contains("extract.document"));
//! rememberr_obs::reset();
//! rememberr_obs::disable();
//! ```

#![forbid(unsafe_code)]

mod export;
mod metrics;
mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

pub use export::{chrome_trace, lane_name, profile_rows, render_profile, root_wall_ns, ProfileRow};
pub use metrics::{Histogram, Snapshot, WorkerStats, BUCKETS};
pub use span::{
    adopt, aux_scope, completed_spans, render_trace, span, span_with_detail, take_spans,
    worker_lane, worker_scope, ScopeGuard, Span, SpanRecord, AUX_LANE_BASE, MAIN_LANE,
};

/// Locks one of the crate's collectors. A panic elsewhere never poisons
/// collection: every update leaves the data valid.
fn lock<T>(mutex: &'static Mutex<T>) -> MutexGuard<'static, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Master switch; collection is off until [`enable`] is called.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether closing spans build records for the collector. On by default;
/// long-running processes (the serve daemon) turn it off so span *timings*
/// still feed the duration histograms while no span *record* is built —
/// otherwise every request would grow the collector without bound.
static RETAIN_SPANS: AtomicBool = AtomicBool::new(true);

/// Turns metric and span collection on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns collection back off; already-collected data stays until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether collection is currently on.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Controls completed-span retention (default: retained).
///
/// With retention off, spans still time their region and feed the
/// duration histograms on close, but build no [`SpanRecord`] (nor format
/// their detail), so nothing accumulates in the global collector. A
/// long-running server with collection enabled MUST turn retention off
/// (or drain spans periodically) to keep memory bounded; one-shot
/// pipeline commands leave it on so `--trace`/`--trace-out` see the full
/// tree.
pub fn retain_spans(retain: bool) {
    RETAIN_SPANS.store(retain, Ordering::Relaxed);
}

/// Whether completed spans are currently retained.
#[inline]
#[must_use]
pub fn spans_retained() -> bool {
    RETAIN_SPANS.load(Ordering::Relaxed)
}

/// Adds `delta` to the named counter. No-op while collection is off.
///
/// Counter values must be deterministic for a fixed input and seed: count
/// events, never elapsed time (durations go to [`record_ns`]).
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if is_enabled() {
        metrics::add_counter(name, delta);
    }
}

/// Records one duration observation, in nanoseconds, into the named
/// log-scale histogram. No-op while collection is off.
#[inline]
pub fn record_ns(name: &'static str, nanos: u64) {
    if is_enabled() {
        metrics::add_duration(name, nanos);
    }
}

/// Accumulates wall-clock utilization for `par_map` worker slot `index`
/// (busy nanoseconds and items processed). Worker stats land in the
/// [`Snapshot::par`] section — wall clock, never mixed into the
/// deterministic counters. No-op while collection is off.
#[inline]
pub fn record_worker(index: usize, busy_ns: u64, tasks: u64) {
    if is_enabled() {
        metrics::add_worker(index, busy_ns, tasks);
    }
}

/// Takes a consistent copy of all counters and duration histograms.
#[must_use]
pub fn snapshot() -> Snapshot {
    metrics::snapshot()
}

/// Clears all counters, histograms, and completed spans, and restores
/// span retention to its default (test isolation and multi-command CLI
/// runs).
pub fn reset() {
    metrics::reset();
    span::reset();
    RETAIN_SPANS.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard};

    /// Unit tests share the process-global registry; serialize them.
    static GATE: Mutex<()> = Mutex::new(());

    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        let guard = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        super::reset();
        super::enable();
        guard
    }

    pub(crate) fn teardown() {
        super::disable();
        super::reset();
    }

    #[test]
    fn disabled_collection_records_nothing() {
        let _gate = exclusive();
        super::disable();
        super::count("test.should_not_appear", 5);
        super::record_ns("test.should_not_appear", 100);
        {
            let _span = super::span("test.invisible");
        }
        let snap = super::snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.durations.is_empty());
        assert!(super::take_spans().is_empty());
        teardown();
    }

    #[test]
    fn enable_disable_round_trips() {
        let _gate = exclusive();
        assert!(super::is_enabled());
        super::disable();
        assert!(!super::is_enabled());
        teardown();
    }
}
