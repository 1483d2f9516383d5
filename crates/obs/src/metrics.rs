//! The metrics registry: named monotonic counters and log-scale duration
//! histograms behind one mutex.
//!
//! Counters and histograms are kept in `BTreeMap`s so every snapshot and
//! JSON export iterates in name order — a precondition for the
//! byte-identical counter sections the test suite asserts.

use std::collections::BTreeMap;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::lock;

/// Number of power-of-two duration buckets; bucket `i` counts observations
/// with `floor(log2(ns)) == i` (bucket 0 also takes `ns == 0`).
pub const BUCKETS: usize = 64;

/// Compile-time guard that the bucket math and the advertised bucket count
/// agree (`bucket_index` maps into `0..BUCKETS`).
const _: () = assert!(BUCKETS == u64::BITS as usize);

struct Registry {
    counters: BTreeMap<&'static str, u64>,
    durations: BTreeMap<&'static str, Histogram>,
    workers: BTreeMap<String, WorkerStats>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    durations: BTreeMap::new(),
    workers: BTreeMap::new(),
});

pub(crate) fn add_counter(name: &'static str, delta: u64) {
    let mut reg = lock(&REGISTRY);
    let slot = reg.counters.entry(name).or_insert(0);
    *slot = slot.saturating_add(delta);
}

pub(crate) fn add_duration(name: &'static str, nanos: u64) {
    let mut reg = lock(&REGISTRY);
    reg.durations.entry(name).or_default().record(nanos);
}

pub(crate) fn add_worker(index: usize, busy_ns: u64, tasks: u64) {
    let mut reg = lock(&REGISTRY);
    let stats = reg.workers.entry(format!("w{index:02}")).or_default();
    stats.busy_ns = stats.busy_ns.saturating_add(busy_ns);
    stats.tasks = stats.tasks.saturating_add(tasks);
}

pub(crate) fn snapshot() -> Snapshot {
    let reg = lock(&REGISTRY);
    Snapshot {
        counters: reg
            .counters
            .iter()
            .map(|(name, value)| ((*name).to_string(), *value))
            .collect(),
        durations: reg
            .durations
            .iter()
            .map(|(name, histogram)| ((*name).to_string(), histogram.clone()))
            .collect(),
        par: reg.workers.clone(),
    }
}

pub(crate) fn reset() {
    let mut reg = lock(&REGISTRY);
    reg.counters.clear();
    reg.durations.clear();
    reg.workers.clear();
}

/// A log-scale histogram of durations in nanoseconds.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Observation count.
    pub count: u64,
    /// Sum of all observations, saturating.
    pub total_ns: u64,
    /// Smallest observation (0 when empty).
    pub min_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
    /// Sparse buckets as `(bucket_index, count)`, index-ascending; bucket
    /// `i` holds observations in `[2^i, 2^(i+1))` (index 0 also takes 0).
    pub buckets: Vec<(u8, u64)>,
}

/// Bucket index for one observation.
#[must_use]
pub(crate) fn bucket_index(nanos: u64) -> u8 {
    if nanos == 0 {
        0
    } else {
        (63 - nanos.leading_zeros()) as u8
    }
}

impl Histogram {
    /// Adds one observation.
    pub fn record(&mut self, nanos: u64) {
        if self.count == 0 || nanos < self.min_ns {
            self.min_ns = nanos;
        }
        if nanos > self.max_ns {
            self.max_ns = nanos;
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(nanos);
        let index = bucket_index(nanos);
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (index, 1)),
        }
    }

    /// Mean observation in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile in nanoseconds from the log-scale buckets.
    ///
    /// Walks the cumulative bucket counts until `q` of the observations
    /// are covered and reports that bucket's upper bound `2^(i+1) - 1`,
    /// clamped into `[min_ns, max_ns]` — a deterministic upper estimate
    /// with factor-of-two resolution, which is what a latency endpoint
    /// needs (`p50`/`p99` to the right order of magnitude, no sample
    /// retention). Out-of-range `q` clamps; an empty histogram reports 0.
    /// A histogram read from a file may hold any bucket index, count or
    /// range: an index past the last bucket bounds at `u64::MAX`, and
    /// nothing here can overflow or panic.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), at least 1: the rank of the target observation.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, count) in &self.buckets {
            seen = seen.saturating_add(count);
            if seen >= rank {
                let upper = u64::MAX >> (63 - u32::from(index.min(63)));
                return upper.min(self.max_ns).max(self.min_ns);
            }
        }
        self.max_ns
    }
}

/// Wall-clock utilization of one `par_map` worker slot, accumulated
/// across every parallel call in the run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Nanoseconds the worker slot spent executing (spawn to finish).
    pub busy_ns: u64,
    /// Items the worker slot processed.
    pub tasks: u64,
}

/// A point-in-time copy of the registry, JSON-exportable.
///
/// The `counters` section is deterministic for a fixed input and seed;
/// `durations` and `par` are wall-clock and vary run to run. Consumers
/// comparing runs must compare `counters` only — that is why the sections
/// live in separate top-level JSON keys.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Deterministic event counts, name-ascending.
    pub counters: BTreeMap<String, u64>,
    /// Nondeterministic duration histograms, name-ascending.
    pub durations: BTreeMap<String, Histogram>,
    /// Per-worker utilization (`w00`, `w01`, …), wall clock like
    /// `durations`; empty on sequential runs and in snapshots written
    /// before this section existed.
    #[serde(default)]
    pub par: BTreeMap<String, WorkerStats>,
}

impl Snapshot {
    /// Pretty JSON with `counters` and `durations` as separate sections.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// The deterministic section alone, as compact JSON — byte-identical
    /// across identically seeded runs.
    #[must_use]
    pub fn counters_json(&self) -> String {
        serde_json::to_string(&self.counters).expect("counter serialization is infallible")
    }

    /// Worker busy-time imbalance: the busiest worker's `busy_ns` over the
    /// least busy one's. `1.0` is perfectly balanced; `None` when fewer
    /// than two workers reported or the minimum is zero.
    #[must_use]
    pub fn worker_imbalance(&self) -> Option<f64> {
        if self.par.len() < 2 {
            return None;
        }
        let max = self.par.values().map(|w| w.busy_ns).max()?;
        let min = self.par.values().map(|w| w.busy_ns).min()?;
        (min > 0).then(|| max as f64 / min as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{exclusive, teardown};

    #[test]
    fn counters_accumulate_and_snapshot_in_name_order() {
        let _gate = exclusive();
        crate::count("z.last", 1);
        crate::count("a.first", 2);
        crate::count("a.first", 3);
        let snap = crate::snapshot();
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(snap.counters["a.first"], 5);
        assert_eq!(snap.counters["z.last"], 1);
        teardown();
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::default();
        for ns in [5, 3, 900, 3] {
            h.record(ns);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.total_ns, 911);
        assert_eq!(h.min_ns, 3);
        assert_eq!(h.max_ns, 900);
        assert_eq!(h.mean_ns(), 227);
        // 3 and 3 share bucket 1, 5 is bucket 2, 900 is bucket 9.
        assert_eq!(h.buckets, vec![(1, 2), (2, 1), (9, 1)]);
    }

    #[test]
    fn histogram_quantiles_walk_buckets_and_clamp_to_observed_range() {
        let empty = Histogram::default();
        assert_eq!(empty.quantile_ns(0.5), 0);

        let mut h = Histogram::default();
        for ns in [5, 3, 900, 3] {
            h.record(ns);
        }
        // Ranks 1-2 land in bucket 1 (upper bound 3), rank 3 in bucket 2
        // (upper bound 7), rank 4 in bucket 9 — clamped to max_ns.
        assert_eq!(h.quantile_ns(0.25), 3);
        assert_eq!(h.quantile_ns(0.50), 3);
        assert_eq!(h.quantile_ns(0.75), 7);
        assert_eq!(h.quantile_ns(0.99), 900);
        assert_eq!(h.quantile_ns(1.0), 900);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile_ns(-1.0), 3);
        assert_eq!(h.quantile_ns(2.0), 900);

        // A single observation answers every quantile with itself: the
        // bucket upper bound clamps into [min_ns, max_ns].
        let mut one = Histogram::default();
        one.record(1_000);
        assert_eq!(one.quantile_ns(0.01), 1_000);
        assert_eq!(one.quantile_ns(0.99), 1_000);
    }

    #[test]
    fn quantile_bounds_hold_for_any_bucket_index_a_file_can_hold() {
        let max = u64::MAX;
        let histogram = |count, min_ns, max_ns, buckets| Histogram {
            count,
            total_ns: 0,
            min_ns,
            max_ns,
            buckets,
        };
        let p50 = |index| histogram(1, 0, max, vec![(index, 1)]).quantile_ns(0.5);
        let bounds = [0, 62, 63, 64, 200, 255].map(p50);
        assert_eq!(bounds, [1, max >> 1, max, max, max, max]);
        // Counts that overflow a running sum, and min above max.
        let hostile = histogram(max, 10, 5, vec![(1, 1), (2, max)]);
        assert_eq!(hostile.quantile_ns(1.0), 10);
    }

    #[test]
    fn counter_section_is_deterministic_across_identical_runs() {
        let _gate = exclusive();
        let run = || {
            crate::reset();
            // Same logical event stream, interleaved differently with
            // durations — durations must not leak into the counter section.
            crate::count("dedup.comparisons_made", 40);
            crate::record_ns("dedup.assign_keys", 123_456);
            crate::count("extract.pages_scanned", 7);
            crate::count("dedup.comparisons_made", 2);
            crate::snapshot().counters_json()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert!(first.contains("\"dedup.comparisons_made\":42"));
        teardown();
    }

    #[test]
    fn worker_stats_accumulate_and_stay_out_of_counters() {
        let _gate = exclusive();
        crate::record_worker(0, 4_000, 10);
        crate::record_worker(1, 1_000, 2);
        crate::record_worker(0, 2_000, 5);
        let snap = crate::snapshot();
        assert_eq!(snap.par["w00"].busy_ns, 6_000);
        assert_eq!(snap.par["w00"].tasks, 15);
        assert_eq!(snap.par["w01"].busy_ns, 1_000);
        assert!(snap.counters.is_empty(), "{:?}", snap.counters);
        assert_eq!(snap.worker_imbalance(), Some(6.0));
        // Round trip keeps the section; counters_json ignores it.
        let parsed: Snapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(snap.counters_json(), "{}");
        teardown();
    }

    #[test]
    fn snapshots_without_a_par_section_still_parse() {
        let text = r#"{"counters":{"a.b":1},"durations":{}}"#;
        let snap: Snapshot = serde_json::from_str(text).expect("legacy snapshot parses");
        assert!(snap.par.is_empty());
        assert_eq!(snap.worker_imbalance(), None);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let _gate = exclusive();
        crate::count("classify.rules_fired", 11);
        crate::record_ns("analysis.figure", 2_048);
        crate::record_ns("analysis.figure", 4_096);
        let snap = crate::snapshot();
        let parsed: Snapshot = serde_json::from_str(&snap.to_json()).expect("valid JSON");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.durations["analysis.figure"].count, 2);
        teardown();
    }
}
