//! The metric names and units the benchmark prints — the one list
//! `BENCHMARK.json` must agree with (`tests/bench.rs` checks it).

use rememberr_obs::Snapshot;

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_s", "s"),
    ("snapshot_bytes", "bytes"),
    ("query_rps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("reload_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer
/// that does no work in a workload's traced window reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("extract.ms", "ms"),
    ("extract.pages_scanned", "count"),
    ("extract.lines_repaired", "count"),
    ("extract.recovered_errors", "count"),
    ("textkit.tokenize_calls", "count"),
    ("textkit.tokenize_per_entry", "ratio"),
    ("dedup.ms", "ms"),
    ("corpus.docs_analyzed", "count"),
    ("dedup.comparisons_made", "count"),
    ("dedup.candidates_pruned", "count"),
    ("dedup.cascade_merges", "count"),
    ("classify.ms", "ms"),
    ("classify.pattern_evals", "count"),
    ("classify.patterns_pruned", "count"),
    ("analysis.ms", "ms"),
    ("analysis.assist_docs", "count"),
    ("query.entries_scanned", "count"),
    ("persist.save_ms", "ms"),
    ("persist.bytes_written", "bytes"),
    ("persist.bin.strings", "count"),
    ("persist.bin.chunks", "count"),
    ("persist.load_ms", "ms"),
    ("par.busy_ms", "ms"),
    ("par.imbalance", "ratio"),
    ("par.items_mapped", "count"),
    ("serve.request_p50_us", "us"),
    ("serve.request_p99_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.write_us", "us"),
    ("client.wait_us", "us"),
    ("query.execute_us", "us"),
    ("query.inproc_us", "us"),
    ("query.entries_scanned_per_req", "count/req"),
    ("query.postings_intersected_per_req", "count/req"),
    ("query.residual_checks_per_req", "count/req"),
    ("reload.load_ms", "ms"),
    ("query.build_index_ms", "ms"),
    ("gen.late_p99_us", "us"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.reloads", "count"),
    ("setup.generate_ms", "ms"),
    ("setup.boot_ms", "ms"),
    ("obs.overhead_frac", "ratio"),
];

/// Per-query metrics and the obs counters they divide.
const PER_REQUEST: [(&str, &str); 3] = [
    ("query.entries_scanned_per_req", "query.entries_scanned"),
    (
        "query.postings_intersected_per_req",
        "query.postings_intersected",
    ),
    ("query.residual_checks_per_req", "query.residual_checks"),
];

/// Values for one list of metrics, printed in list order.
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// End-to-end metrics; every one must be set before printing.
    pub fn end_to_end() -> Metrics {
        Metrics {
            names: END_TO_END,
            values: vec![None; END_TO_END.len()],
        }
    }

    /// Per-layer metrics, all 0 until set.
    pub fn per_layer() -> Metrics {
        Metrics {
            names: PER_LAYER,
            values: vec![Some(0.0); PER_LAYER.len()],
        }
    }

    /// Whether `name` belongs to this list.
    pub fn has(&self, name: &str) -> bool {
        self.names.iter().any(|&(n, _)| n == name)
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the list: a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .names
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this mode"));
        self.values[index] = Some(value);
    }

    /// Copies every obs counter of `snap` this list names, and the
    /// worker busy time and imbalance of its `par` section.
    pub fn set_from_obs(&mut self, snap: &Snapshot) {
        for (name, &value) in &snap.counters {
            if self.has(name) {
                self.set(name, value as f64);
            }
        }
        let busy_ns: u64 = snap.par.values().map(|w| w.busy_ns).sum();
        self.set("par.busy_ms", busy_ns as f64 / 1e6);
        self.set("par.imbalance", snap.worker_imbalance().unwrap_or(1.0));
    }

    /// Sets the per-query effort metrics from the counters `snap` took
    /// over `queries` queries.
    pub fn set_per_query(&mut self, snap: &Snapshot, queries: usize) {
        for (metric, counter) in PER_REQUEST {
            let total = snap.counters.get(counter).copied().unwrap_or(0);
            self.set(metric, total as f64 / queries as f64);
        }
    }

    /// The `"metrics"` JSON object.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never set: a bug in the benchmark.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .names
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), value)| {
                let value = value.unwrap_or_else(|| panic!("metric {name} was never set"));
                // JSON has no NaN or infinity; an undefined ratio reads 0.
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}
