//! Cross-thread span hand-back and worker telemetry through the `par`
//! primitives: `par_map` worker spans and `join` lane spans come home
//! under the calling span, per-worker utilization lands in the snapshot's
//! `par` section, scope exit flushes spans a worker closure failed to
//! close, a panicking worker's spans still reach the collector (as roots),
//! and with span retention off nothing is kept while every duration is
//! still counted.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};

use rememberr_obs::SpanRecord;
use rememberr_par::{join, par_map, set_jobs};

/// These tests mutate process-global obs + jobs state; serialize them.
static GATE: Mutex<()> = Mutex::new(());

fn exclusive(jobs: usize) -> MutexGuard<'static, ()> {
    let guard = GATE.lock().unwrap_or_else(|p| p.into_inner());
    set_jobs(NonZeroUsize::new(jobs));
    rememberr_obs::reset();
    rememberr_obs::enable();
    guard
}

fn teardown() {
    rememberr_obs::disable();
    rememberr_obs::reset();
    set_jobs(None);
}

fn find<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    let mut hits = Vec::new();
    for span in spans {
        if span.name == name {
            hits.push(span);
        }
        hits.extend(find(&span.children, name));
    }
    hits
}

#[test]
fn par_map_worker_spans_stitch_under_the_calling_span() {
    let _gate = exclusive(4);
    let items: Vec<u32> = (0..64).collect();
    {
        let _stage = rememberr_obs::span!("test.stage");
        let _ = par_map(&items, |&n| n * 2);
    }
    let spans = rememberr_obs::take_spans();
    assert_eq!(spans.len(), 1, "worker spans left orphan roots: {spans:?}");
    let stage = &spans[0];
    assert_eq!(stage.name, "test.stage");
    let workers = &stage.children;
    assert!(
        !workers.is_empty() && workers.len() <= 4,
        "expected 1..=4 adopted workers, got {}",
        workers.len()
    );
    // Each worker span sits on its own lane, within the --jobs bound.
    for worker in workers {
        assert_eq!(worker.name, "par.worker");
        assert!((1..=4).contains(&worker.lane), "lane {}", worker.lane);
    }
    teardown();
}

#[test]
fn join_lane_spans_stitch_under_the_calling_span() {
    let _gate = exclusive(2);
    {
        let _stage = rememberr_obs::span!("test.fanout");
        let ((), ()) = join(
            || {
                let _s = rememberr_obs::span!("test.lane_a");
            },
            || {
                let _s = rememberr_obs::span!("test.lane_b");
            },
        );
    }
    let spans = rememberr_obs::take_spans();
    assert_eq!(spans.len(), 1, "{spans:?}");
    let names: Vec<&str> = spans[0].children.iter().map(|c| c.name).collect();
    assert!(names.contains(&"test.lane_a"), "{names:?}");
    assert!(names.contains(&"test.lane_b"), "{names:?}");
    // The spawned lane ran on an aux lane, the caller lane stayed put.
    let lane_b = find(&spans[0].children, "test.lane_b")[0];
    assert!(
        lane_b.lane >= rememberr_obs::AUX_LANE_BASE,
        "{}",
        lane_b.lane
    );
    teardown();
}

#[test]
fn worker_telemetry_accumulates_per_slot() {
    let _gate = exclusive(2);
    let items: Vec<u32> = (0..100).collect();
    let _ = par_map(&items, |&n| n + 1);
    let _ = par_map(&items, |&n| n + 2);
    let snap = rememberr_obs::snapshot();
    assert!(!snap.par.is_empty(), "no worker telemetry recorded");
    assert!(snap.par.len() <= 2, "{:?}", snap.par);
    let tasks: u64 = snap.par.values().map(|w| w.tasks).sum();
    assert_eq!(tasks, 200, "every item is counted exactly once: {snap:?}");
    assert!(snap.par.values().all(|w| w.busy_ns > 0));
    // Telemetry is wall clock: the deterministic counter section must not
    // mention it.
    assert!(
        !snap.counters_json().contains("busy"),
        "{}",
        snap.counters_json()
    );
    teardown();
}

#[test]
fn sequential_runs_record_no_worker_telemetry() {
    let _gate = exclusive(1);
    let items: Vec<u32> = (0..10).collect();
    let _ = par_map(&items, |&n| n);
    let snap = rememberr_obs::snapshot();
    assert!(snap.par.is_empty(), "{:?}", snap.par);
    assert_eq!(snap.worker_imbalance(), None);
    teardown();
}

#[test]
fn spans_leaked_inside_a_worker_closure_are_flushed() {
    let _gate = exclusive(2);
    let items: Vec<u32> = (0..8).collect();
    let _ = par_map(&items, |&n| {
        // A guard the closure never drops: without the par_map scope
        // flush this span (and any children) would vanish with the
        // worker's thread-local stack.
        std::mem::forget(rememberr_obs::span!("test.leaked", "item {n}"));
        n
    });
    let spans = rememberr_obs::take_spans();
    let leaked = find(&spans, "test.leaked");
    assert_eq!(
        leaked.len(),
        items.len(),
        "leaked spans were discarded: {spans:?}"
    );
    teardown();
}

#[test]
fn a_panicking_workers_spans_reach_the_collector_as_roots() {
    let _gate = exclusive(2);
    let result = std::panic::catch_unwind(|| {
        let _stage = rememberr_obs::span!("test.stage");
        par_map(&[0u32, 1], |&n| {
            let _item = rememberr_obs::span!("test.item", "{n}");
            assert!(n != 1, "worker failure under test");
        })
    });
    assert!(result.is_err());
    let spans = rememberr_obs::take_spans();
    // The panicking worker's span could not come home through par_map: it
    // became a root, on its worker lane, before the stage closed unwinding.
    let roots: Vec<&str> = spans.iter().map(|root| root.name).collect();
    assert_eq!(roots, ["par.worker", "test.stage"], "{spans:?}");
    assert_ne!(spans[0].lane, rememberr_obs::MAIN_LANE);
    let failed = find(&spans[0].children, "test.item");
    assert!(failed.iter().any(|s| s.detail.as_deref() == Some("1")));
    assert_eq!(find(&spans, "test.item").len(), 2, "{spans:?}");
    teardown();
}

#[test]
fn unretained_fan_outs_keep_nothing_but_count_every_worker() {
    let _gate = exclusive(2);
    rememberr_obs::retain_spans(false);
    let items: Vec<u32> = (0..64).collect();
    {
        let _stage = rememberr_obs::span!("test.stage");
        let _ = par_map(&items, |&n| n + 1);
    }
    assert!(rememberr_obs::take_spans().is_empty());
    let snap = rememberr_obs::snapshot();
    assert_eq!(snap.durations["test.stage"].count, 1);
    assert_eq!(snap.durations["par.worker"].count, 2, "{snap:?}");
    teardown();
}
