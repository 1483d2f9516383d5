//! Section IV-B2 ("Rediscovery"): of the errata shared between designs,
//! how many were confirmed on the later design immediately at its release,
//! and how many had to be rediscovered later?

use rememberr::Database;
use rememberr_model::{Date, Design, Vendor};

use crate::chart::BarChart;

/// Rediscovery statistics for one pair of (earlier design, later design).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RediscoveryStats {
    /// Shared bugs already known (in the earlier document) before the later
    /// design's release.
    pub known_before_release: usize,
    /// Of those, bugs the later document listed right at its release.
    pub confirmed_at_release: usize,
    /// Of those, bugs the later document only listed in a later revision —
    /// the rediscoveries.
    pub rediscovered_later: usize,
}

/// Computes rediscovery statistics for every consecutive pair of unified
/// Intel documents (the paper restricts chronology analyses to Intel).
pub fn rediscovery_by_pair(db: &Database) -> Vec<(Design, Design, RediscoveryStats)> {
    let docs: Vec<Design> = Design::intel().collect();
    let mut out = Vec::new();
    for pair in docs.windows(2) {
        let (earlier, later) = (pair[0], pair[1]);
        out.push((earlier, later, rediscovery_stats(db, earlier, later)));
    }
    out
}

/// Rediscovery statistics for one ordered pair of designs.
pub fn rediscovery_stats(db: &Database, earlier: Design, later: Design) -> RediscoveryStats {
    let release: Date = later.release_date();
    let mut stats = RediscoveryStats {
        known_before_release: 0,
        confirmed_at_release: 0,
        rediscovered_later: 0,
    };
    for rep in db.unique_entries() {
        if rep.vendor() != Vendor::Intel {
            continue;
        }
        let key = rep.key.expect("keyed");
        let mut in_earlier_before_release = false;
        let mut later_first: Option<(u32, Date)> = None;
        for entry in db.cluster(key) {
            if entry.design() == earlier && entry.provenance.disclosure_date < release {
                in_earlier_before_release = true;
            }
            if entry.design() == later {
                let cand = (
                    entry.provenance.first_revision,
                    entry.provenance.disclosure_date,
                );
                if later_first.is_none_or(|cur| cand < cur) {
                    later_first = Some(cand);
                }
            }
        }
        let Some((first_revision, _)) = later_first else {
            continue;
        };
        if !in_earlier_before_release {
            continue;
        }
        stats.known_before_release += 1;
        if first_revision <= 1 {
            stats.confirmed_at_release += 1;
        } else {
            stats.rediscovered_later += 1;
        }
    }
    stats
}

/// The rediscovery fractions as a chart: per consecutive Intel pair, the
/// percentage of pre-known shared bugs that still had to be rediscovered
/// after the later design's release.
pub fn rediscovery_chart(db: &Database) -> BarChart {
    let mut chart = BarChart::new(
        "Rediscovery — pre-known shared bugs not listed at release",
        "%",
    );
    for (earlier, later, stats) in rediscovery_by_pair(db) {
        if stats.known_before_release == 0 {
            continue;
        }
        chart.push(
            format!("{} -> {}", earlier.label(), later.label()),
            100.0 * stats.rediscovered_later as f64 / stats.known_before_release as f64,
        );
    }
    chart
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn stats_are_internally_consistent() {
        let db = &fixture(1.0).db;
        for (earlier, later, stats) in rediscovery_by_pair(db) {
            assert_eq!(
                stats.confirmed_at_release + stats.rediscovered_later,
                stats.known_before_release,
                "{earlier} -> {later}"
            );
        }
    }

    #[test]
    fn most_preknown_bugs_are_confirmed_at_release() {
        // O4's mechanism: forward-propagated bugs are usually listed in the
        // later document's first revision.
        let db = &fixture(1.0).db;
        let stats = rediscovery_stats(db, Design::Intel6, Design::Intel7_8);
        assert!(stats.known_before_release > 50);
        assert!(
            stats.confirmed_at_release > stats.rediscovered_later,
            "{stats:?}"
        );
    }

    #[test]
    fn chart_has_rows_for_sharing_pairs() {
        let db = &fixture(1.0).db;
        let chart = rediscovery_chart(db);
        assert!(!chart.rows.is_empty());
        for (_, pct) in &chart.rows {
            assert!((0.0..=100.0).contains(pct));
        }
    }
}
