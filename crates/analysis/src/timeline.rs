//! Figures 2, 4 and 5: disclosure timelines and latency.

use rememberr::Database;
use rememberr_model::{Date, Design, UniqueKey, Vendor};

use crate::chart::SeriesChart;
use crate::util::{cumulative_series, year_of};

/// Figure 2: cumulative disclosed errata per document over time (duplicate
/// entries counted individually, as in the paper).
pub fn fig02_disclosure_timeline(db: &Database, vendor: Vendor) -> SeriesChart {
    let mut chart = SeriesChart::new(
        format!("Fig. 2 — Disclosure dates of {vendor} errata"),
        "year",
        "cumulative disclosed errata",
    );
    for design in Design::ALL.iter().filter(|d| d.vendor() == vendor) {
        let dates: Vec<Date> = db
            .entries_for(*design)
            .map(|e| e.provenance.disclosure_date)
            .collect();
        if !dates.is_empty() {
            chart.push(design.label(), cumulative_series(dates));
        }
    }
    chart
}

/// The documents covering Intel Core generations 6 through 10.
pub const GEN6_TO_10_DOCS: [Design; 4] = [
    Design::Intel6,
    Design::Intel7_8,
    Design::Intel8_9,
    Design::Intel10,
];

/// Figure 4 result: the bugs shared by all Intel generations 6-10 and their
/// per-document disclosure timelines.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedSetTimeline {
    /// Number of shared bugs (the paper reports 104).
    pub shared_bugs: usize,
    /// Cumulative disclosure of the shared set in each covering document;
    /// the first x value of each series is the document's release date.
    pub chart: SeriesChart,
    /// Fraction of the shared bugs already disclosed (in any earlier
    /// document) before each document's release, keyed by document.
    pub known_before_release: Vec<(Design, f64)>,
}

/// Figure 4: disclosure dates of the bugs shared by all generations 6-10.
pub fn fig04_shared_set_timeline(db: &Database) -> SharedSetTimeline {
    // Keys present in all four documents, in key order (the order
    // `unique_entries` yields), so membership is a binary search.
    let mut shared: Vec<UniqueKey> = Vec::new();
    'keys: for entry in db.unique_entries() {
        let Some(key) = entry.key else { continue };
        if entry.vendor() != Vendor::Intel {
            continue;
        }
        let designs = db.cluster_designs(key);
        for doc in GEN6_TO_10_DOCS {
            if !designs.contains(&doc) {
                continue 'keys;
            }
        }
        shared.push(key);
    }

    let mut chart = SeriesChart::new(
        "Fig. 4 — Disclosure of bugs shared by Intel Core generations 6-10",
        "year",
        "cumulative disclosed shared bugs",
    );
    let mut known_before_release = Vec::new();
    for doc in GEN6_TO_10_DOCS {
        let mut dates: Vec<Date> = Vec::new();
        for entry in db.entries_for(doc) {
            if entry.key.is_some_and(|k| shared.binary_search(&k).is_ok()) {
                dates.push(entry.provenance.disclosure_date);
            }
        }
        // Fraction known somewhere before this document's release.
        let release = doc.release_date();
        let known = shared
            .iter()
            .filter(|&&key| {
                db.cluster(key)
                    .any(|e| e.provenance.disclosure_date < release)
            })
            .count();
        known_before_release.push((
            doc,
            if shared.is_empty() {
                0.0
            } else {
                known as f64 / shared.len() as f64
            },
        ));
        let mut series = cumulative_series(dates);
        // Prefix with the release date at zero, the paper's first data point.
        series.insert(0, (year_of(release), 0.0));
        chart.push(doc.label(), series);
    }

    SharedSetTimeline {
        shared_bugs: shared.len(),
        chart,
        known_before_release,
    }
}

/// Figure 5 result: forward- and backward-latent errata over time.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyAnalysis {
    /// The chart: two cumulative series ("forward-latent",
    /// "backward-latent") over the year of the *later* report.
    pub chart: SeriesChart,
    /// Total forward-latent errata.
    pub forward: usize,
    /// Total backward-latent errata.
    pub backward: usize,
}

/// Figure 5: forward-latent (reported in an earlier design strictly before
/// a later design) and backward-latent (the reverse) Intel errata.
pub fn fig05_latency(db: &Database) -> LatencyAnalysis {
    let mut forward_dates: Vec<Date> = Vec::new();
    let mut backward_dates: Vec<Date> = Vec::new();

    for rep in db.unique_entries() {
        if rep.vendor() != Vendor::Intel {
            continue;
        }
        let key = rep.key.expect("unique entries are keyed");
        // Per design: earliest disclosure in that design's document.
        let mut per_design: Vec<(Design, Date)> = Vec::new();
        for e in db.cluster(key) {
            match per_design.iter_mut().find(|(d, _)| *d == e.design()) {
                Some((_, date)) => {
                    if e.provenance.disclosure_date < *date {
                        *date = e.provenance.disclosure_date;
                    }
                }
                None => per_design.push((e.design(), e.provenance.disclosure_date)),
            }
        }
        per_design.sort_by_key(|(d, _)| d.index());

        let mut is_forward: Option<Date> = None;
        let mut is_backward: Option<Date> = None;
        for (i, (_, date_a)) in per_design.iter().enumerate() {
            for (_, date_b) in per_design.iter().skip(i + 1) {
                if date_a < date_b {
                    // Reported in the earlier design strictly first.
                    let when = *date_b;
                    if is_forward.is_none_or(|d| when < d) {
                        is_forward = Some(when);
                    }
                } else if date_b < date_a {
                    let when = *date_a;
                    if is_backward.is_none_or(|d| when < d) {
                        is_backward = Some(when);
                    }
                }
            }
        }
        if let Some(d) = is_forward {
            forward_dates.push(d);
        }
        if let Some(d) = is_backward {
            backward_dates.push(d);
        }
    }

    let mut chart = SeriesChart::new(
        "Fig. 5 — Forward-latent and backward-latent Intel errata",
        "year",
        "cumulative errata",
    );
    let forward = forward_dates.len();
    let backward = backward_dates.len();
    chart.push("forward-latent", cumulative_series(forward_dates));
    chart.push("backward-latent", cumulative_series(backward_dates));
    LatencyAnalysis {
        chart,
        forward,
        backward,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn fig02_has_one_series_per_nonempty_document() {
        let db = &fixture(0.1).db;
        let intel = fig02_disclosure_timeline(db, Vendor::Intel);
        assert!(intel.series.len() <= 16);
        assert!(!intel.series.is_empty());
        let amd = fig02_disclosure_timeline(db, Vendor::Amd);
        assert!(amd.series.len() <= 12);
        // Cumulative series end at the document's entry count.
        for (name, points) in &intel.series {
            let design: Design = name.parse().unwrap();
            assert_eq!(
                points.last().unwrap().1 as usize,
                db.entries_for(design).count()
            );
        }
    }

    #[test]
    fn fig02_series_are_nondecreasing() {
        let db = &fixture(0.1).db;
        for vendor in Vendor::ALL {
            let chart = fig02_disclosure_timeline(db, vendor);
            for (_, points) in &chart.series {
                for pair in points.windows(2) {
                    assert!(pair[0].0 <= pair[1].0);
                    assert!(pair[0].1 <= pair[1].1);
                }
            }
        }
    }

    #[test]
    fn fig04_counts_104_on_paper_corpus() {
        let shared = fig04_shared_set_timeline(&fixture(1.0).db);
        assert_eq!(shared.shared_bugs, 104);
        assert_eq!(shared.chart.series.len(), 4);
        // O4: most shared bugs were known before the subsequent documents'
        // releases (the later three documents).
        for (doc, fraction) in &shared.known_before_release[1..] {
            assert!(
                *fraction > 0.5,
                "{doc}: only {fraction} known before release"
            );
        }
    }

    #[test]
    fn fig05_finds_both_latency_kinds() {
        let latency = fig05_latency(&fixture(1.0).db);
        assert!(latency.forward > 100, "forward {}", latency.forward);
        assert!(latency.backward > 10, "backward {}", latency.backward);
        assert!(
            latency.forward > latency.backward,
            "forward {} <= backward {}",
            latency.forward,
            latency.backward
        );
    }
}
