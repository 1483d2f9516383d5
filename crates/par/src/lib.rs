//! Deterministic scoped-thread parallelism for the RemembERR pipeline.
//!
//! The pipeline's hot stages — document rendering, per-document extraction,
//! the dedup similarity cascade, per-representative classification, and the
//! per-figure analysis passes — are embarrassingly parallel over independent
//! items. This crate provides the two primitives they share, built on
//! `std::thread::scope` only (the workspace builds offline, so no external
//! thread-pool dependency):
//!
//! * [`par_map`] / [`par_map_indexed`] — map a function over a slice with
//!   worker threads pulling chunks from an atomic cursor, collecting results
//!   **in input order** regardless of worker count or scheduling;
//! * [`join`] — run two independent computations on two threads (the
//!   building block for heterogeneous fan-out like the analysis figures).
//!
//! # Determinism contract
//!
//! For a pure `f`, `par_map(items, f)` returns exactly
//! `items.iter().map(f).collect()` at every worker count: results are placed
//! by input index, never by completion order. Anything order-sensitive
//! (union-find merges, key assignment, report aggregation) stays sequential
//! in the callers; only the independent per-item work fans out. Observability
//! counters recorded inside workers are order-independent sums, so metric
//! snapshots are byte-identical across worker counts too.
//!
//! # Worker-count selection
//!
//! The worker count is a process-wide setting: `0`/unset means "auto"
//! ([`std::thread::available_parallelism`]), and [`set_jobs`] pins it (the
//! CLI's `--jobs N`). `jobs = 1` takes a true sequential path — no threads
//! are spawned, no cursor, no result buffers — so single-core behavior is
//! exactly the pre-parallel code path.
//!
//! # Panics
//!
//! A panic in any worker propagates to the caller after all workers have
//! been joined; items are never silently dropped.
//!
//! # Example
//!
//! ```
//! let squares = rememberr_par::par_map(&[1u64, 2, 3, 4], |&n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let (a, b) = rememberr_par::join(|| 2 + 2, || "ok");
//! assert_eq!((a, b), (4, "ok"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod join;
mod map;

pub use join::{join, join4};
pub use map::{par_map, par_map_indexed};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pinned worker count; `0` means "auto" (one worker per available core).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Pins the worker count for all subsequent parallel calls in this process,
/// or restores automatic selection with `None`.
///
/// The CLI calls this from `--jobs N`; benches sweep it.
pub fn set_jobs(jobs: Option<NonZeroUsize>) {
    JOBS.store(jobs.map_or(0, NonZeroUsize::get), Ordering::Relaxed);
}

/// The effective worker count: the pinned value, or the number of available
/// cores when unpinned (falling back to 1 if that cannot be determined).
#[must_use]
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        pinned => pinned,
    }
}

/// Workers to actually spawn for `len` items: never more than one per item.
pub(crate) fn effective_workers(len: usize) -> usize {
    jobs().min(len).max(1)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Unit tests mutate the process-global job count; serialize them.
    static GATE: Mutex<()> = Mutex::new(());

    pub(crate) fn exclusive(jobs: Option<usize>) -> MutexGuard<'static, ()> {
        let guard = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        set_jobs(jobs.and_then(NonZeroUsize::new));
        guard
    }

    #[test]
    fn jobs_pin_and_auto_round_trip() {
        let _gate = exclusive(Some(3));
        assert_eq!(jobs(), 3);
        set_jobs(None);
        assert_eq!(
            jobs(),
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        );
    }

    #[test]
    fn workers_never_exceed_items() {
        let _gate = exclusive(Some(8));
        assert_eq!(effective_workers(3), 3);
        assert_eq!(effective_workers(0), 1);
        assert_eq!(effective_workers(100), 8);
        set_jobs(None);
    }
}
