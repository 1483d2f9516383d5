//! Hierarchical tracing spans: RAII guards that time a region, nest via a
//! thread-local stack, and publish completed root spans to a global
//! collector for text-tree, profile-table, or Chrome-trace rendering.
//!
//! # Crossing threads
//!
//! Same-thread nesting is structural: a closing span joins its parent's
//! `children`. Work that hops threads — `par_map` workers, `join` lanes —
//! runs under a [`worker_scope`]/[`aux_scope`] guard on the new thread. The
//! scope keeps the spans that complete at that thread's top level, and
//! [`ScopeGuard::finish`] returns them for the spawning thread to
//! [`adopt`] under its innermost open span, so the tree is connected as it
//! is built, through any depth of nested fan-out. Ending a scope also
//! closes the frames its work left open, so a leaked guard loses timing
//! precision, never whole subtrees; a guard dropped without `finish` (the
//! work panicked) publishes what it kept as roots.
//!
//! # Lanes
//!
//! Each span records the `lane` it ran on: `0` is the spawning/main
//! thread, `1..=N` are `par_map` worker slots (stable across calls, so a
//! Chrome trace shows one lane per worker), and lanes from
//! [`AUX_LANE_BASE`] up are short-lived `join` threads (allocated from a
//! free pool so they stay dense).

use std::cell::RefCell;
use std::fmt::Display;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::lock;
use std::time::{Duration, Instant};

/// Lane of the spawning/main thread.
pub const MAIN_LANE: u32 = 0;

/// First lane used for auxiliary (`join`) threads; `par_map` worker lanes
/// sit in `1..AUX_LANE_BASE`.
pub const AUX_LANE_BASE: u32 = 1_000;

/// The lane of `par_map` worker slot `index` (slot 0 → lane 1; lane 0 is
/// the spawning thread).
#[must_use]
pub fn worker_lane(index: usize) -> u32 {
    u32::try_from(index + 1).unwrap_or(AUX_LANE_BASE - 1)
}

/// One completed span with its timed children.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The static span name (`stage.noun_verb`).
    pub name: &'static str,
    /// Optional per-instance detail, e.g. a document or figure label.
    pub detail: Option<String>,
    /// Start time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration, monotonic-clock nanoseconds.
    pub elapsed_ns: u64,
    /// Lane (thread slot) the span ran on; see the module docs.
    pub lane: u32,
    /// Completed child spans: same-thread children in completion order,
    /// then those adopted from each fan-out in worker order.
    pub children: Vec<SpanRecord>,
}

/// An in-progress span on the thread-local stack.
struct Frame {
    name: &'static str,
    detail: Option<String>,
    start: Instant,
    children: Vec<SpanRecord>,
}

/// Per-thread span context: the open-frame stack plus the lane and kept
/// spans installed by [`worker_scope`]/[`aux_scope`].
struct ThreadCtx {
    stack: Vec<Frame>,
    lane: u32,
    /// Spans completed at the top level of an open scope, for
    /// [`ScopeGuard::finish`]; `None` outside a scope.
    kept: Option<Vec<SpanRecord>>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx { stack: Vec::new(), lane: MAIN_LANE, kept: None })
    };
}

/// Completed root spans from all threads, in completion order.
static COMPLETED: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// The process trace epoch: all `start_ns` values are relative to this.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Released aux lanes available for reuse, plus the next fresh one.
static AUX_POOL: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static NEXT_AUX: AtomicU32 = AtomicU32::new(AUX_LANE_BASE);

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// RAII guard returned by [`span`]; closing (dropping) it records the
/// elapsed time. Guards must close in reverse opening order (the natural
/// order for scope-bound guards).
#[must_use = "a span measures the scope holding the guard; dropping it immediately measures nothing"]
pub struct Span {
    /// Stack depth at open; `usize::MAX` marks a disabled no-op guard.
    depth: usize,
}

/// Opens a span. While collection is disabled this is a no-op returning an
/// inert guard.
pub fn span(name: &'static str) -> Span {
    open(name, None::<&str>)
}

/// Opens a span with a per-instance detail (the `span!` macro's formatting
/// arm). The detail is formatted only for a span that will be kept, so
/// neither disabled collection nor span retention off pays for it.
pub fn span_with_detail(name: &'static str, detail: impl Display) -> Span {
    open(name, Some(detail))
}

fn open(name: &'static str, detail: Option<impl Display>) -> Span {
    if !crate::is_enabled() {
        return Span { depth: usize::MAX };
    }
    let detail = detail
        .filter(|_| crate::spans_retained())
        .map(|detail| detail.to_string());
    // Fix the trace epoch before the first start it is measured from.
    epoch();
    let start = Instant::now();
    let depth = CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        ctx.stack.push(Frame {
            name,
            detail,
            start,
            children: Vec::new(),
        });
        ctx.stack.len() - 1
    });
    Span { depth }
}

/// Closes every frame above `base_depth` on this thread (shared by
/// [`Span::drop`] and scope exit). With span retention off the duration
/// histogram is all a closing span feeds: no record is built.
fn close_frames_above(ctx: &mut ThreadCtx, base_depth: usize) {
    while ctx.stack.len() > base_depth {
        let frame = ctx.stack.pop().expect("stack holds frames above base");
        let elapsed_ns = nanos(frame.start.elapsed());
        crate::record_ns(frame.name, elapsed_ns);
        if crate::spans_retained() {
            let record = SpanRecord {
                name: frame.name,
                detail: frame.detail,
                start_ns: nanos(frame.start.duration_since(epoch())),
                elapsed_ns,
                lane: ctx.lane,
                children: frame.children,
            };
            file(ctx, record);
        }
    }
}

/// Files a completed span under this thread's innermost open span, else
/// in its open scope's kept list, else in the global collector as a root.
fn file(ctx: &mut ThreadCtx, record: SpanRecord) {
    if let Some(parent) = ctx.stack.last_mut() {
        parent.children.push(record);
    } else if let Some(kept) = &mut ctx.kept {
        kept.push(record);
    } else if crate::spans_retained() {
        lock(&COMPLETED).push(record);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.depth == usize::MAX {
            return;
        }
        CTX.with(|ctx| {
            // Defensive: frames opened after this one that were leaked
            // rather than dropped are closed here (they become children).
            close_frames_above(&mut ctx.borrow_mut(), self.depth);
        });
    }
}

/// Files spans that a worker/aux scope handed back
/// ([`ScopeGuard::finish`]) as if they had completed on this thread: under
/// its innermost open span, else in its own open scope, else as roots.
/// Their lanes are kept.
pub fn adopt(spans: Vec<SpanRecord>) {
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        for record in spans {
            file(&mut ctx, record);
        }
    });
}

/// RAII guard installed on a worker/aux thread for the duration of its
/// borrowed work; see [`worker_scope`] and [`aux_scope`]. Inert while
/// collection is off.
#[must_use = "ScopeGuard::finish hands this thread's spans back to the spawning thread"]
pub struct ScopeGuard(Option<Entered>);

/// What an entered scope replaced on its thread, restored when it ends.
struct Entered {
    lane: u32,
    kept: Option<Vec<SpanRecord>>,
    base_depth: usize,
    /// Aux lane to return to the pool, if one was allocated.
    aux_lane: Option<u32>,
}

/// Enters a `par_map` worker scope on the current thread: spans opened
/// here record `lane`, and the ones completing at this thread's top level
/// are kept for [`ScopeGuard::finish`].
pub fn worker_scope(lane: u32) -> ScopeGuard {
    enter_scope(Some(lane))
}

/// Like [`worker_scope`] for short-lived `join` threads: the lane is
/// allocated from a dense reusable pool starting at [`AUX_LANE_BASE`] and
/// returned when the scope ends.
pub fn aux_scope() -> ScopeGuard {
    enter_scope(None)
}

fn enter_scope(lane: Option<u32>) -> ScopeGuard {
    if !crate::is_enabled() {
        return ScopeGuard(None);
    }
    let (lane, aux_lane) = match lane {
        Some(lane) => (lane, None),
        None => {
            let lane = lock(&AUX_POOL)
                .pop()
                .unwrap_or_else(|| NEXT_AUX.fetch_add(1, Ordering::Relaxed));
            (lane, Some(lane))
        }
    };
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        ScopeGuard(Some(Entered {
            lane: std::mem::replace(&mut ctx.lane, lane),
            kept: ctx.kept.replace(Vec::new()),
            base_depth: ctx.stack.len(),
            aux_lane,
        }))
    })
}

impl ScopeGuard {
    /// Ends the scope and returns the spans that completed at its top
    /// level (frames still open are closed first), for the spawning thread
    /// to [`adopt`]. Empty while collection is off.
    #[must_use]
    pub fn finish(mut self) -> Vec<SpanRecord> {
        self.exit()
    }

    /// Closes the scope's open frames, restores what it replaced on the
    /// thread, and returns what it kept. Runs once.
    fn exit(&mut self) -> Vec<SpanRecord> {
        let Some(entered) = self.0.take() else {
            return Vec::new();
        };
        let kept = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            close_frames_above(&mut ctx, entered.base_depth);
            ctx.lane = entered.lane;
            std::mem::replace(&mut ctx.kept, entered.kept)
        });
        if let Some(lane) = entered.aux_lane {
            lock(&AUX_POOL).push(lane);
        }
        kept.unwrap_or_default()
    }
}

impl Drop for ScopeGuard {
    /// A scope that ends without [`ScopeGuard::finish`] (its work panicked)
    /// publishes what it kept as roots rather than losing it.
    fn drop(&mut self) {
        let orphans = self.exit();
        if !orphans.is_empty() && crate::spans_retained() {
            lock(&COMPLETED).extend(orphans);
        }
    }
}

/// Opens a span guard: `span!("extract.document")`, or with a formatted
/// detail label, `span!("analysis.figure", "fig{:02}", n)`. The label is
/// formatted only while collection is on and spans are retained.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($detail:tt)+) => {
        $crate::span_with_detail($name, format_args!($($detail)+))
    };
}

/// Removes and returns all completed root spans, in completion order.
#[must_use]
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *lock(&COMPLETED))
}

/// A copy of all completed root spans without consuming them.
#[must_use]
pub fn completed_spans() -> Vec<SpanRecord> {
    lock(&COMPLETED).clone()
}

/// Renders completed root spans as an indented text tree with millisecond
/// timings. Does not consume the spans.
#[must_use]
pub fn render_trace() -> String {
    let mut out = String::new();
    for record in lock(&COMPLETED).iter() {
        render_into(record, 0, &mut out);
    }
    out
}

fn render_into(record: &SpanRecord, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(record.name);
    if let Some(detail) = &record.detail {
        out.push_str(" [");
        out.push_str(detail);
        out.push(']');
    }
    let ms = record.elapsed_ns as f64 / 1_000_000.0;
    out.push_str(&format!(" — {ms:.3} ms\n"));
    for child in &record.children {
        render_into(child, depth + 1, out);
    }
}

pub(crate) fn reset() {
    lock(&COMPLETED).clear();
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        ctx.stack.clear();
        ctx.kept = None;
        ctx.lane = MAIN_LANE;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{exclusive, teardown};

    /// Runs `work` on a new thread inside the scope `enter` opens and
    /// returns the spans the scope hands back.
    fn on_thread(
        enter: impl FnOnce() -> ScopeGuard + Send,
        work: impl FnOnce() + Send,
    ) -> Vec<SpanRecord> {
        std::thread::scope(|scope| {
            let spawned = scope.spawn(|| {
                let guard = enter();
                work();
                guard.finish()
            });
            spawned.join().unwrap()
        })
    }

    #[test]
    fn spans_nest_and_preserve_order() {
        let _gate = exclusive();
        {
            let _root = crate::span!("test.root");
            {
                let _first = crate::span!("test.first");
            }
            {
                let _second = crate::span!("test.second", "doc {}", 3);
            }
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 1);
        let root = &spans[0];
        assert_eq!(root.name, "test.root");
        let child_names: Vec<&str> = root.children.iter().map(|c| c.name).collect();
        assert_eq!(child_names, ["test.first", "test.second"]);
        assert_eq!(root.children[1].detail.as_deref(), Some("doc 3"));
        // A parent's time covers its children.
        assert!(root.elapsed_ns >= root.children.iter().map(|c| c.elapsed_ns).sum::<u64>());
        assert!(root.children.iter().all(|c| c.lane == MAIN_LANE));
        teardown();
    }

    #[test]
    fn span_durations_feed_the_histogram_registry() {
        let _gate = exclusive();
        {
            let _span = crate::span!("test.timed");
        }
        let snap = crate::snapshot();
        assert_eq!(snap.durations["test.timed"].count, 1);
        // Spans record durations, never counters.
        assert!(snap.counters.is_empty());
        teardown();
    }

    #[test]
    fn unretained_spans_only_feed_their_histograms() {
        let _gate = exclusive();
        crate::retain_spans(false);
        for _ in 0..3 {
            let _outer = crate::span!("test.request");
            let _inner = crate::span!("test.step", "{}", "detail");
        }
        assert!(take_spans().is_empty());
        let snap = crate::snapshot();
        assert_eq!(snap.durations["test.request"].count, 3);
        assert_eq!(snap.durations["test.step"].count, 3);
        teardown();
    }

    #[test]
    fn span_details_are_formatted_only_for_kept_spans() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        struct Counted;
        impl Display for Counted {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                CALLS.fetch_add(1, Ordering::Relaxed);
                f.write_str("counted")
            }
        }
        let calls_after_a_span = || {
            drop(crate::span!("test.detail", "{}", Counted));
            CALLS.load(Ordering::Relaxed)
        };
        let _gate = exclusive();
        crate::disable();
        assert_eq!(calls_after_a_span(), 0, "formatted while collection is off");
        crate::enable();
        crate::retain_spans(false);
        assert_eq!(calls_after_a_span(), 0, "formatted with retention off");
        crate::retain_spans(true);
        assert_eq!(calls_after_a_span(), 1);
        assert_eq!(take_spans()[0].detail.as_deref(), Some("counted"));
        teardown();
    }

    #[test]
    fn trace_tree_renders_with_indentation() {
        let _gate = exclusive();
        {
            let _outer = crate::span!("test.outer");
            let _inner = crate::span!("test.inner");
        }
        let tree = render_trace();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("test.outer — "));
        assert!(lines[1].starts_with("  test.inner — "));
        // Rendering does not consume.
        assert_eq!(take_spans().len(), 1);
        teardown();
    }

    #[test]
    fn worker_roots_stitch_under_the_spawning_span() {
        let _gate = exclusive();
        {
            let _root = crate::span!("test.spawner");
            adopt(on_thread(
                || worker_scope(worker_lane(0)),
                || drop(crate::span!("test.worker_task")),
            ));
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 1, "worker span was not adopted: {spans:?}");
        let root = &spans[0];
        assert_eq!(root.name, "test.spawner");
        assert_eq!(root.children.len(), 1);
        let worker = &root.children[0];
        assert_eq!(worker.name, "test.worker_task");
        assert_eq!(worker.lane, worker_lane(0));
        teardown();
    }

    #[test]
    fn scope_exit_flushes_leaked_worker_frames() {
        let _gate = exclusive();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let guard = worker_scope(worker_lane(2));
                let leaked = crate::span!("test.leaked_parent");
                {
                    let _child = crate::span!("test.completed_child");
                }
                // The span guard never drops — without the scope flush,
                // the frame and its completed child would vanish with the
                // thread-local stack. Dropping the scope guard without
                // `finish` is the panic path: what it kept becomes a root.
                std::mem::forget(leaked);
                drop(guard);
            });
        });
        let spans = take_spans();
        assert_eq!(spans.len(), 1, "leaked frame was discarded: {spans:?}");
        assert_eq!(spans[0].name, "test.leaked_parent");
        assert_eq!(spans[0].lane, worker_lane(2));
        assert_eq!(spans[0].children.len(), 1);
        assert_eq!(spans[0].children[0].name, "test.completed_child");
        teardown();
    }

    #[test]
    fn nested_fanout_stitches_through_intermediate_orphans() {
        let _gate = exclusive();
        {
            let _root = crate::span!("test.outer_stage");
            adopt(on_thread(
                || worker_scope(worker_lane(0)),
                || {
                    let _mid = crate::span!("test.mid_worker");
                    adopt(on_thread(
                        || worker_scope(worker_lane(1)),
                        || drop(crate::span!("test.inner_task")),
                    ));
                },
            ));
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 1, "{spans:?}");
        let mid = &spans[0].children[0];
        assert_eq!((mid.name, mid.lane), ("test.mid_worker", worker_lane(0)));
        let inner = &mid.children[0];
        assert_eq!(
            (inner.name, inner.lane),
            ("test.inner_task", worker_lane(1))
        );
        teardown();
    }

    #[test]
    fn aux_scopes_reuse_pooled_lanes() {
        let _gate = exclusive();
        let aux_lane = || on_thread(aux_scope, || drop(crate::span("test.aux")))[0].lane;
        // The second aux thread ran after the first released its lane, so
        // both use the same pooled lane.
        let first = aux_lane();
        assert_eq!(aux_lane(), first);
        assert!(first >= AUX_LANE_BASE);
        teardown();
    }
}
