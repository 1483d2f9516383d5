//! Ordered parallel map over a slice.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Chunks claimed per worker per cursor fetch: small enough to balance
/// skewed item costs (document sizes vary 10x), large enough to amortize
/// the atomic increment on cheap items.
const CHUNKS_PER_WORKER: usize = 8;

/// Maps `f` over `items` in parallel, returning results **in input order**.
///
/// Equivalent to `items.iter().map(f).collect()` for pure `f`, at any
/// worker count (see the crate-level determinism contract). With one
/// effective worker this *is* that sequential expression — no threads.
///
/// # Panics
///
/// Propagates the first worker panic after all workers are joined.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// Like [`par_map`], passing the input index alongside each item.
///
/// # Panics
///
/// Propagates the first worker panic after all workers are joined.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = crate::effective_workers(items.len());
    rememberr_obs::count("par.items_mapped", items.len() as u64);
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let chunk = (items.len() / (workers * CHUNKS_PER_WORKER)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let mut first_panic = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    // Spans opened on this thread record the worker's lane
                    // and come back with its results. If the closure
                    // panics, the dropped scope closes the frames it left
                    // open and publishes them as roots.
                    let obs_scope = rememberr_obs::worker_scope(rememberr_obs::worker_lane(w));
                    let telemetry = rememberr_obs::is_enabled().then(Instant::now);
                    let span = rememberr_obs::span!("par.worker", "w{w:02}");
                    let mut produced = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            produced.push((i, f(i, item)));
                        }
                    }
                    drop(span);
                    if let Some(started) = telemetry {
                        let busy_ns =
                            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        rememberr_obs::record_worker(w, busy_ns, produced.len() as u64);
                    }
                    (produced, obs_scope.finish())
                })
            })
            .collect();
        // Every worker is joined, its results placed and its spans adopted
        // under the span that called par_map (in worker order) before a
        // panic is re-raised, so no thread is left running and no item is
        // silently dropped.
        for handle in handles {
            match handle.join() {
                Ok((produced, spans)) => {
                    rememberr_obs::adopt(spans);
                    for (i, r) in produced {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("cursor visits every index exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::exclusive;

    #[test]
    fn matches_sequential_map_in_order() {
        let _gate = exclusive(Some(4));
        let items: Vec<u32> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&n| u64::from(n) * 3).collect();
        assert_eq!(par_map(&items, |&n| u64::from(n) * 3), expected);
        crate::set_jobs(None);
    }

    #[test]
    fn indexed_variant_sees_input_indices() {
        let _gate = exclusive(Some(3));
        let items = vec!["a", "b", "c", "d", "e"];
        let got = par_map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
        crate::set_jobs(None);
    }

    #[test]
    fn sequential_path_handles_empty_and_single() {
        let _gate = exclusive(Some(1));
        assert_eq!(par_map::<u8, u8, _>(&[], |&b| b), Vec::<u8>::new());
        assert_eq!(par_map(&[7u8], |&b| b + 1), vec![8]);
        crate::set_jobs(None);
    }

    #[test]
    fn more_workers_than_items_still_covers_all() {
        let _gate = exclusive(Some(16));
        let items = vec![10u64, 20, 30];
        assert_eq!(par_map(&items, |&n| n / 10), vec![1, 2, 3]);
        crate::set_jobs(None);
    }

    #[test]
    fn worker_panic_propagates() {
        let _gate = exclusive(Some(4));
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |&n| {
                assert!(n != 41, "worker failure under test");
                n
            })
        });
        assert!(result.is_err());
        crate::set_jobs(None);
    }

    #[test]
    fn parallel_workers_emit_labeled_spans() {
        let _gate = exclusive(Some(2));
        rememberr_obs::reset();
        rememberr_obs::enable();
        let items: Vec<u32> = (0..32).collect();
        let _ = par_map(&items, |&n| n + 1);
        let trace = rememberr_obs::render_trace();
        assert!(trace.contains("par.worker [w00]"), "{trace}");
        let snap = rememberr_obs::snapshot();
        assert_eq!(snap.counters.get("par.items_mapped"), Some(&32));
        rememberr_obs::disable();
        rememberr_obs::reset();
        crate::set_jobs(None);
    }
}
