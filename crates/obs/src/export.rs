//! Span exporters: Chrome trace-event JSON (loadable in `chrome://tracing`
//! and Perfetto) and an aggregated per-stage profile table.

use std::collections::BTreeMap;

use serde::{Serialize, Value};

use crate::span::SpanRecord;

fn flatten<'a>(record: &'a SpanRecord, out: &mut Vec<&'a SpanRecord>) {
    out.push(record);
    for child in &record.children {
        flatten(child, out);
    }
}

/// A JSON object with `fields` in order.
fn object(fields: &[(&str, &dyn Serialize)]) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(key, value)| ((*key).to_string(), value.to_value()))
            .collect(),
    )
}

/// Human label for a lane: `main`, `worker-NN`, or `aux-NN`.
#[must_use]
pub fn lane_name(lane: u32) -> String {
    if lane == crate::MAIN_LANE {
        "main".to_string()
    } else if lane < crate::AUX_LANE_BASE {
        format!("worker-{:02}", lane - 1)
    } else {
        format!("aux-{:02}", lane - crate::AUX_LANE_BASE)
    }
}

/// Renders spans as Chrome trace-event JSON.
///
/// The output is one JSON object `{"traceEvents": [...], "displayTimeUnit":
/// "ms"}` containing a `thread_name` metadata event per lane followed by a
/// complete (`"ph": "X"`) event per span with microsecond `ts`/`dur`, so
/// each `par_map` worker renders as its own lane. A span's detail, if any,
/// rides along in `args`. Events carry absolute timestamps, so the viewer
/// nests them by time on each lane.
#[must_use]
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut flat = Vec::new();
    for record in spans {
        flatten(record, &mut flat);
    }
    // Deterministic event order: by start time, then (the sort is stable)
    // parents before their children.
    flat.sort_by_key(|record| record.start_ns);

    let mut lanes: Vec<u32> = flat.iter().map(|record| record.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();

    let mut events: Vec<Value> = Vec::with_capacity(lanes.len() + flat.len());
    for lane in lanes {
        events.push(object(&[
            ("ph", &"M"),
            ("name", &"thread_name"),
            ("pid", &1u64),
            ("tid", &lane),
            ("args", &object(&[("name", &lane_name(lane))])),
        ]));
    }
    for record in flat {
        let args = match &record.detail {
            Some(detail) => object(&[("detail", detail)]),
            None => object(&[]),
        };
        events.push(object(&[
            ("ph", &"X"),
            ("name", &record.name),
            ("cat", &"rememberr"),
            ("pid", &1u64),
            ("tid", &record.lane),
            ("ts", &(record.start_ns as f64 / 1e3)),
            ("dur", &(record.elapsed_ns as f64 / 1e3)),
            ("args", &args),
        ]));
    }
    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), "ms".to_value()),
    ]);
    serde_json::to_string(&doc).expect("trace serialization is infallible")
}

/// The span each `par_map` worker opens around its share of a fan-out.
const WORKER_SPAN: &str = "par.worker";

/// One aggregated profile row: every span sharing a name, with the time
/// split into *self* (the span's own work) and *child* (inside direct
/// children).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name (`stage.noun_verb`).
    pub name: String,
    /// Number of spans aggregated.
    pub calls: u64,
    /// Total wall time across calls.
    pub total_ns: u64,
    /// Wall time covered by direct children: the union of their
    /// `[start, start + elapsed)` intervals, so concurrent children on
    /// other lanes count once.
    pub child_ns: u64,
    /// Time in the span outside its children, plus that of every
    /// `par.worker` span between it and the next span down: the work a
    /// fan-out hands to its workers is booked to the span that fanned it
    /// out, so `par.worker` rows keep none (unless a worker has no other
    /// ancestor), and with several workers a row's self time can exceed
    /// its total.
    pub self_ns: u64,
}

/// Aggregates a span forest into per-name profile rows,
/// sorted by self time (descending, name-ascending on ties). The row set
/// and call counts are deterministic for a fixed workload; only the times
/// vary run to run.
#[must_use]
pub fn profile_rows(spans: &[SpanRecord]) -> Vec<ProfileRow> {
    type Rows = BTreeMap<&'static str, ProfileRow>;
    fn row<'a>(acc: &'a mut Rows, name: &'static str) -> &'a mut ProfileRow {
        acc.entry(name).or_insert_with(|| ProfileRow {
            name: name.to_string(),
            calls: 0,
            total_ns: 0,
            child_ns: 0,
            self_ns: 0,
        })
    }
    /// `owner` is the nearest ancestor that is not a worker.
    fn visit(record: &SpanRecord, owner: Option<&'static str>, acc: &mut Rows) {
        let child_ns = covered_ns(&record.children);
        let this = row(acc, record.name);
        this.calls += 1;
        this.total_ns = this.total_ns.saturating_add(record.elapsed_ns);
        this.child_ns = this.child_ns.saturating_add(child_ns);
        let owner = match owner {
            Some(owner) if record.name == WORKER_SPAN => owner,
            _ => record.name,
        };
        let booked = row(acc, owner);
        booked.self_ns = booked
            .self_ns
            .saturating_add(record.elapsed_ns.saturating_sub(child_ns));
        for child in &record.children {
            visit(child, Some(owner), acc);
        }
    }
    let mut acc = BTreeMap::new();
    for record in spans {
        visit(record, None, &mut acc);
    }
    let mut rows: Vec<ProfileRow> = acc.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// Nanoseconds covered by the union of `spans`' `[start, start + elapsed)`
/// intervals.
fn covered_ns(spans: &[SpanRecord]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns, s.start_ns.saturating_add(s.elapsed_ns)))
        .collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (start, end) in intervals {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    covered
}

/// Total wall time of a span forest: the sum of root span durations
/// (the denominator for the profile table's `% of total` column).
#[must_use]
pub fn root_wall_ns(spans: &[SpanRecord]) -> u64 {
    spans
        .iter()
        .map(|r| r.elapsed_ns)
        .fold(0, u64::saturating_add)
}

/// Renders profile rows as an aligned text table with a `self%`-of-total
/// column (`wall_ns` is the denominator, normally [`root_wall_ns`]).
#[must_use]
pub fn render_profile(rows: &[ProfileRow], wall_ns: u64) -> String {
    let name_width = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("span".len()))
        .max()
        .unwrap_or(4);
    let mut out = format!(
        "{:name_width$}  {:>6}  {:>12}  {:>12}  {:>12}  {:>6}\n",
        "span", "calls", "self ms", "child ms", "total ms", "self%"
    );
    for row in rows {
        let pct = if wall_ns == 0 {
            0.0
        } else {
            100.0 * row.self_ns as f64 / wall_ns as f64
        };
        out.push_str(&format!(
            "{:name_width$}  {:>6}  {:>12.3}  {:>12.3}  {:>12.3}  {:>5.1}%\n",
            row.name,
            row.calls,
            row.self_ns as f64 / 1e6,
            row.child_ns as f64 / 1e6,
            row.total_ns as f64 / 1e6,
            pct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{exclusive, teardown};

    fn record(
        name: &'static str,
        start_ns: u64,
        elapsed_ns: u64,
        lane: u32,
        children: Vec<SpanRecord>,
    ) -> SpanRecord {
        SpanRecord {
            name,
            detail: None,
            start_ns,
            elapsed_ns,
            lane,
            children,
        }
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let spans = vec![record(
            "stage.outer",
            0,
            10_000_000,
            0,
            vec![record("stage.inner", 1_000_000, 2_000_000, 1, vec![])],
        )];
        let json = chrome_trace(&spans);
        let doc: Value = serde_json::from_str(&json).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // Two lane-name metadata events + two span events.
        assert_eq!(events.len(), 4);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Value::as_str).expect("ph"))
            .collect();
        assert_eq!(phases, ["M", "M", "X", "X"]);
        let lane_names: Vec<&str> = events[..2]
            .iter()
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(lane_names, ["main", "worker-00"]);
        for event in &events[2..] {
            assert!(event.get("ts").is_some());
            assert!(event.get("dur").is_some());
            assert!(event.get("tid").is_some());
            let args = event.get("args").expect("args");
            assert!(args.get("id").is_none() && args.get("parent").is_none());
        }
    }

    #[test]
    fn chrome_trace_events_are_time_ordered() {
        let spans = vec![
            record("stage.late", 5_000, 1_000, 0, vec![]),
            record("stage.early", 1_000, 1_000, 0, vec![]),
        ];
        let json = chrome_trace(&spans);
        let doc: Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .map(|e| e.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, ["stage.early", "stage.late"]);
    }

    #[test]
    fn profile_rows_split_self_and_child_time() {
        let spans = vec![record(
            "stage.parent",
            0,
            10_000_000,
            0,
            vec![
                record("stage.child", 0, 3_000_000, 0, vec![]),
                record("stage.child", 3_000_000, 1_000_000, 0, vec![]),
            ],
        )];
        let rows = profile_rows(&spans);
        assert_eq!(rows.len(), 2);
        let parent = rows.iter().find(|r| r.name == "stage.parent").unwrap();
        assert_eq!(parent.calls, 1);
        assert_eq!(parent.total_ns, 10_000_000);
        assert_eq!(parent.child_ns, 4_000_000);
        assert_eq!(parent.self_ns, 6_000_000);
        let child = rows.iter().find(|r| r.name == "stage.child").unwrap();
        assert_eq!(child.calls, 2);
        assert_eq!(child.self_ns, 4_000_000);
        // Sorted by self time descending.
        assert_eq!(rows[0].name, "stage.parent");
        assert_eq!(root_wall_ns(&spans), 10_000_000);
    }

    #[test]
    fn fanned_out_worker_time_is_booked_to_the_fan_out() {
        // Two workers of 8 ms each under a 10 ms fan-out: the children
        // cover 8 ms of it, and the workers' own 16 ms is the fan-out's.
        let spans = vec![record(
            "stage.fanout",
            0,
            10_000_000,
            0,
            vec![
                record("par.worker", 0, 8_000_000, 1, vec![]),
                record("par.worker", 0, 8_000_000, 2, vec![]),
            ],
        )];
        let rows = profile_rows(&spans);
        let fanout = rows.iter().find(|r| r.name == "stage.fanout").unwrap();
        assert_eq!(fanout.child_ns, 8_000_000);
        assert_eq!(fanout.self_ns, 2_000_000 + 16_000_000);
        let worker = rows.iter().find(|r| r.name == "par.worker").unwrap();
        assert_eq!((worker.calls, worker.total_ns), (2, 16_000_000));
        assert_eq!(worker.self_ns, 0);

        // A span a worker opens keeps its own time; only the worker's time
        // outside it moves up.
        let spans = vec![record(
            "stage.fanout",
            0,
            10_000_000,
            0,
            vec![
                record(
                    "par.worker",
                    0,
                    8_000_000,
                    1,
                    vec![record("stage.item", 1_000_000, 3_000_000, 1, vec![])],
                ),
                record("par.worker", 0, 8_000_000, 2, vec![]),
            ],
        )];
        let rows = profile_rows(&spans);
        let fanout = rows.iter().find(|r| r.name == "stage.fanout").unwrap();
        assert_eq!(fanout.self_ns, 2_000_000 + 5_000_000 + 8_000_000);
        let item = rows.iter().find(|r| r.name == "stage.item").unwrap();
        assert_eq!(item.self_ns, 3_000_000);
        let worker = rows.iter().find(|r| r.name == "par.worker").unwrap();
        assert_eq!((worker.child_ns, worker.self_ns), (3_000_000, 0));
    }

    #[test]
    fn live_spans_export_end_to_end() {
        let _gate = exclusive();
        {
            let _root = crate::span!("test.export_root");
            let _leaf = crate::span!("test.export_leaf");
        }
        let spans = crate::take_spans();
        let json = chrome_trace(&spans);
        let doc: Value = serde_json::from_str(&json).expect("parses");
        assert!(doc.get("traceEvents").is_some());
        let rows = profile_rows(&spans);
        assert_eq!(rows.len(), 2);
        let table = render_profile(&rows, root_wall_ns(&spans));
        assert!(table.contains("test.export_root"), "{table}");
        assert!(table.contains("self ms"), "{table}");
        teardown();
    }
}
