//! Parameter sweeps: how the headline results respond to the design knobs
//! DESIGN.md calls out.
//!
//! * [`dedup_threshold_sweep`] — unique-bug counts as the similarity
//!   cascade threshold varies (ablation 2);
//! * [`observation_budget_sweep`] — campaign coverage as the observation
//!   footprint grows (the paper's observation-space challenge: where is the
//!   knee?);
//! * [`trigger_budget_sweep`] — coverage as the number of stimuli applied
//!   together grows (how much conjunctive depth testing needs; compare
//!   Figure 11's 49%-need-two finding).

use rememberr::{assign_keys, Database, DbEntry, DedupStrategy};
use rememberr_model::Vendor;

use crate::chart::SeriesChart;
use crate::guidance::plan_campaign;

/// Unique-cluster counts across similarity thresholds.
///
/// The sweep clones the entries per point; thresholds span `[0, 1]`
/// inclusive in `steps` increments.
pub fn dedup_threshold_sweep(db: &Database, steps: usize) -> SeriesChart {
    let mut chart = SeriesChart::new(
        "Ablation — unique bugs vs cascade similarity threshold",
        "threshold",
        "clusters",
    );
    let mut intel = Vec::new();
    let mut total = Vec::new();
    for i in 0..=steps {
        let threshold = i as f64 / steps as f64;
        let mut entries: Vec<DbEntry> = db.entries().to_vec();
        let stats = assign_keys(&mut entries, DedupStrategy::SimilarityCascade { threshold });
        let intel_clusters = {
            let mut keys: Vec<_> = entries
                .iter()
                .filter(|e| e.vendor() == Vendor::Intel)
                .filter_map(|e| e.key)
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        };
        intel.push((threshold, intel_clusters as f64));
        total.push((threshold, stats.clusters as f64));
    }
    chart.push("Intel clusters", intel);
    chart.push("all clusters", total);
    chart
}

/// Campaign coverage as the observation budget grows, at a fixed number of
/// steps and stimuli per step.
pub fn observation_budget_sweep(
    db: &Database,
    steps: usize,
    triggers_per_step: usize,
    max_effects: usize,
) -> SeriesChart {
    let mut chart = SeriesChart::new(
        "Sweep — campaign coverage vs observation footprint",
        "effects watched per step",
        "coverage %",
    );
    let points = (1..=max_effects)
        .map(|effects| {
            let plan = plan_campaign(db, steps, triggers_per_step, effects);
            (effects as f64, 100.0 * plan.coverage())
        })
        .collect();
    chart.push(
        format!("{steps} steps x {triggers_per_step} stimuli"),
        points,
    );
    chart
}

/// Campaign coverage as the conjunctive stimulus budget grows.
pub fn trigger_budget_sweep(
    db: &Database,
    steps: usize,
    max_triggers: usize,
    effects_watched: usize,
) -> SeriesChart {
    let mut chart = SeriesChart::new(
        "Sweep — campaign coverage vs stimuli applied together",
        "triggers per step",
        "coverage %",
    );
    let points = (1..=max_triggers)
        .map(|triggers| {
            let plan = plan_campaign(db, steps, triggers, effects_watched);
            (triggers as f64, 100.0 * plan.coverage())
        })
        .collect();
    chart.push(
        format!("{steps} steps x {effects_watched} watched effects"),
        points,
    );
    chart
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn threshold_sweep_is_monotone_nondecreasing() {
        // Raising the threshold can only reject merges, so cluster counts
        // never decrease.
        let db = &fixture(0.2).db;
        let chart = dedup_threshold_sweep(db, 10);
        for (_, points) in &chart.series {
            for pair in points.windows(2) {
                assert!(pair[0].1 <= pair[1].1, "{pair:?}");
            }
        }
    }

    #[test]
    fn threshold_sweep_brackets_the_exact_strategy() {
        let db = &fixture(0.2).db;
        let chart = dedup_threshold_sweep(db, 4);
        let totals = &chart.series[1].1;
        // Threshold 0 merges every body-identical pair; threshold 1 merges
        // only similarity-1 pairs; the default lies between.
        let at_zero = totals.first().unwrap().1;
        let at_one = totals.last().unwrap().1;
        assert!(at_zero <= db.unique_count() as f64);
        assert!(at_one >= db.unique_count() as f64);
    }

    #[test]
    fn observation_budget_shows_diminishing_returns() {
        let db = &fixture(0.2).db;
        let chart = observation_budget_sweep(db, 5, 3, 6);
        let points = &chart.series[0].1;
        for pair in points.windows(2) {
            assert!(pair[1].1 >= pair[0].1 - 1e-9, "coverage must not drop");
        }
        // Watching more helps at least somewhat.
        assert!(points.last().unwrap().1 >= points.first().unwrap().1);
    }

    #[test]
    fn trigger_budget_grows_coverage() {
        let db = &fixture(0.2).db;
        let chart = trigger_budget_sweep(db, 5, 4, 4);
        let points = &chart.series[0].1;
        assert!(points.last().unwrap().1 > points.first().unwrap().1);
    }
}
