//! Figures 10, 11, 13-18: category frequencies, trigger counts, evolution
//! and vendor comparison.
//!
//! All analyses here require an annotated database
//! (see [`rememberr_classify::classify_database`]) and work on unique
//! errata, as the paper's Section V-B does.

use rememberr::{Database, Query};
use rememberr_model::{Context, Design, Effect, Trigger, TriggerClass, Vendor};

use crate::chart::{BarChart, MatrixChart};
use crate::util::unique_of;

/// Figure 10: most frequent abstract triggers per vendor, as a percentage
/// of the vendor's unique errata.
pub fn fig10_trigger_frequency(db: &Database, top: usize) -> Vec<(Vendor, BarChart)> {
    facet_frequency(
        db,
        top,
        "Fig. 10 — Most frequent triggers",
        Trigger::ALL,
        Trigger::code,
        Query::trigger,
    )
}

/// Figure 17: most frequent contexts per vendor (% of unique errata).
pub fn fig17_context_frequency(db: &Database, top: usize) -> Vec<(Vendor, BarChart)> {
    facet_frequency(
        db,
        top,
        "Fig. 17 — Most frequent contexts",
        Context::ALL,
        Context::code,
        Query::context,
    )
}

/// Figure 18: most frequent observable effects per vendor (% of unique
/// errata).
pub fn fig18_effect_frequency(db: &Database, top: usize) -> Vec<(Vendor, BarChart)> {
    facet_frequency(
        db,
        top,
        "Fig. 18 — Most frequent effects",
        Effect::ALL,
        Effect::code,
        Query::effect,
    )
}

/// Figures 10, 17 and 18: the `top` most frequent `facets` per vendor, as a
/// percentage of the vendor's unique errata, in a chart titled
/// "`title` (vendor)".
///
/// A 2×N batch of facet counts, served by the database's shared
/// [`rememberr::QueryIndex`] instead of rescanning the unique view per
/// category.
fn facet_frequency<F: Copy>(
    db: &Database,
    top: usize,
    title: &str,
    facets: &[F],
    code: fn(&F) -> &'static str,
    filter: fn(Query, F) -> Query,
) -> Vec<(Vendor, BarChart)> {
    Vendor::ALL
        .iter()
        .map(|&vendor| {
            let vendor_uniques = Query::new().vendor(vendor).unique_only();
            let total = vendor_uniques.count(db);
            let mut chart = BarChart::new(format!("{title} ({vendor})"), "%");
            for facet in facets {
                let n = filter(vendor_uniques.clone(), *facet).count(db);
                chart.push(code(facet), 100.0 * n as f64 / total.max(1) as f64);
            }
            chart.sort_desc();
            chart.truncate(top);
            (vendor, chart)
        })
        .collect()
}

/// Figure 11 result: the trigger-count histogram and its headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerCountAnalysis {
    /// Histogram over errata with clear triggers: label = trigger count.
    pub chart: BarChart,
    /// Fraction of unique errata with no clear trigger (paper: 14.4%),
    /// excluded from the histogram.
    pub no_clear_trigger: f64,
    /// Of errata with clear triggers, the fraction needing at least two
    /// (paper: 49% across both vendors).
    pub multi_trigger: f64,
    /// Fraction of unique errata flagged as "complex set of conditions",
    /// per vendor (paper: Intel 8.7%, AMD 20.8%).
    pub complex_conditions: Vec<(Vendor, f64)>,
}

/// Figure 11: number of errata by the number of necessary triggers.
pub fn fig11_trigger_counts(db: &Database) -> TriggerCountAnalysis {
    let uniques = db.unique_entries();
    let total = uniques.len().max(1);
    let mut histogram: Vec<usize> = Vec::new();
    let mut no_clear = 0usize;
    for e in &uniques {
        let n = e.annotation_or_empty().complexity();
        if n == 0 {
            no_clear += 1;
        } else {
            if histogram.len() < n {
                histogram.resize(n, 0);
            }
            histogram[n - 1] += 1;
        }
    }
    let clear_total: usize = histogram.iter().sum();
    let multi: usize = histogram.iter().skip(1).sum();

    let mut chart = BarChart::new("Fig. 11 — Errata by number of triggers", "");
    for (i, &count) in histogram.iter().enumerate() {
        chart.push(format!("{} trigger(s)", i + 1), count as f64);
    }

    let complex_conditions = Vendor::ALL
        .iter()
        .map(|&vendor| {
            let of_vendor = unique_of(db, vendor);
            let complex = of_vendor
                .iter()
                .filter(|e| e.annotation_or_empty().complex_conditions)
                .count();
            (vendor, complex as f64 / of_vendor.len().max(1) as f64)
        })
        .collect();

    TriggerCountAnalysis {
        chart,
        no_clear_trigger: no_clear as f64 / total as f64,
        multi_trigger: multi as f64 / clear_total.max(1) as f64,
        complex_conditions,
    }
}

/// Figure 13: trigger classes over Intel documents — for every document,
/// the number of its unique bugs requiring at least one trigger of each
/// class.
pub fn fig13_class_evolution(db: &Database) -> MatrixChart {
    let docs: Vec<Design> = Design::intel().collect();
    let mut matrix = MatrixChart::zeros(
        "Fig. 13 — Trigger classes over Intel Core generations",
        TriggerClass::ALL
            .iter()
            .map(|c| c.code().to_string())
            .collect(),
        docs.iter().map(|d| d.label().to_string()).collect(),
    );
    for (col, &design) in docs.iter().enumerate() {
        // Count each cluster once per document.
        let mut seen = std::collections::BTreeSet::new();
        for entry in db.entries_for(design) {
            let Some(key) = entry.key else { continue };
            if !seen.insert(key) {
                continue;
            }
            for class in entry.annotation_or_empty().trigger_classes() {
                *matrix.get_mut(class.index(), col) += 1.0;
            }
        }
    }
    matrix
}

/// Figure 14: relative representation of trigger classes per vendor, as a
/// percentage of the vendor's trigger instances.
pub fn fig14_class_share(db: &Database) -> MatrixChart {
    let mut matrix = MatrixChart::zeros(
        "Fig. 14 — Trigger class share by vendor",
        TriggerClass::ALL
            .iter()
            .map(|c| c.code().to_string())
            .collect(),
        Vendor::ALL.iter().map(|v| v.to_string()).collect(),
    );
    for (col, &vendor) in Vendor::ALL.iter().enumerate() {
        let mut counts = vec![0usize; TriggerClass::ALL.len()];
        let mut total = 0usize;
        for e in unique_of(db, vendor) {
            for t in e.annotation_or_empty().triggers.iter() {
                counts[t.class().index()] += 1;
                total += 1;
            }
        }
        for (row, &count) in counts.iter().enumerate() {
            *matrix.get_mut(row, col) = 100.0 * count as f64 / total.max(1) as f64;
        }
    }
    matrix
}

/// Figures 15/16 helper: share of each abstract trigger of `class` within
/// the vendor's triggers of that class.
pub fn class_breakdown(db: &Database, class: TriggerClass, figure: &str) -> MatrixChart {
    let members = class.categories();
    let mut matrix = MatrixChart::zeros(
        format!("{figure} — {} triggers by vendor", class.code()),
        members.iter().map(|t| t.code().to_string()).collect(),
        Vendor::ALL.iter().map(|v| v.to_string()).collect(),
    );
    for (col, &vendor) in Vendor::ALL.iter().enumerate() {
        let mut counts = vec![0usize; members.len()];
        let mut total = 0usize;
        for e in unique_of(db, vendor) {
            for t in e.annotation_or_empty().triggers.iter() {
                if t.class() == class {
                    let row = members.iter().position(|m| *m == t).expect("member");
                    counts[row] += 1;
                    total += 1;
                }
            }
        }
        for (row, &count) in counts.iter().enumerate() {
            *matrix.get_mut(row, col) = 100.0 * count as f64 / total.max(1) as f64;
        }
    }
    matrix
}

/// Figure 15: external-stimuli trigger breakdown, Intel vs AMD.
pub fn fig15_external_breakdown(db: &Database) -> MatrixChart {
    class_breakdown(db, TriggerClass::Ext, "Fig. 15")
}

/// Figure 16: feature trigger breakdown, Intel vs AMD.
pub fn fig16_feature_breakdown(db: &Database) -> MatrixChart {
    class_breakdown(db, TriggerClass::Fea, "Fig. 16")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn fig10_power_and_config_dominate() {
        let db = &fixture(0.35).db;
        for (_, chart) in fig10_trigger_frequency(db, 5) {
            let labels: Vec<&str> = chart.rows.iter().map(|(l, _)| l.as_str()).collect();
            assert!(
                labels.contains(&"Trg_CFG_wrg"),
                "Trg_CFG_wrg missing from top 5: {labels:?}"
            );
            assert!(
                labels.contains(&"Trg_POW_tht") || labels.contains(&"Trg_POW_pwc"),
                "power triggers missing from top 5: {labels:?}"
            );
        }
    }

    #[test]
    fn fig17_vm_guest_is_top_context() {
        let db = &fixture(0.35).db;
        for (vendor, chart) in fig17_context_frequency(db, 3) {
            assert_eq!(chart.rows[0].0, "Ctx_PRV_vmg", "{vendor}");
        }
    }

    #[test]
    fn fig18_registers_and_hangs_dominate() {
        let db = &fixture(0.35).db;
        for (vendor, chart) in fig18_effect_frequency(db, 4) {
            let labels: Vec<&str> = chart.rows.iter().map(|(l, _)| l.as_str()).collect();
            assert!(labels.contains(&"Eff_CRP_reg"), "{vendor}: {labels:?}");
            assert!(labels.contains(&"Eff_HNG_hng"), "{vendor}: {labels:?}");
        }
    }

    #[test]
    fn fig11_matches_paper_shape() {
        let db = &fixture(0.5).db;
        let analysis = fig11_trigger_counts(db);
        assert!(
            (0.08..0.22).contains(&analysis.no_clear_trigger),
            "no-clear {}",
            analysis.no_clear_trigger
        );
        assert!(
            (0.38..0.60).contains(&analysis.multi_trigger),
            "multi {}",
            analysis.multi_trigger
        );
        // AMD mentions complex conditions more often than Intel.
        let intel = analysis.complex_conditions[0].1;
        let amd = analysis.complex_conditions[1].1;
        assert!(amd > intel, "intel {intel}, amd {amd}");
    }

    #[test]
    fn fig13_mbr_absent_in_latest_generations() {
        let db = &fixture(0.5).db;
        let matrix = fig13_class_evolution(db);
        let mbr_row = TriggerClass::Mbr.index();
        // Columns 14 and 15 are Core 11 and Core 12.
        assert_eq!(matrix.get(mbr_row, 14), 0.0);
        assert_eq!(matrix.get(mbr_row, 15), 0.0);
        // But MBR bugs exist somewhere earlier.
        let total: f64 = (0..14).map(|c| matrix.get(mbr_row, c)).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn fig14_shares_sum_to_hundred_and_are_similar() {
        let db = &fixture(0.5).db;
        let matrix = fig14_class_share(db);
        for col in 0..2 {
            let sum: f64 = (0..TriggerClass::ALL.len())
                .map(|r| matrix.get(r, col))
                .sum();
            assert!((sum - 100.0).abs() < 1e-6, "col {col} sums to {sum}");
        }
        // O10: class shares are broadly similar between vendors, with the
        // known exceptions (EXT and FEA).
        for class in TriggerClass::ALL {
            let r = class.index();
            let (i, a) = (matrix.get(r, 0), matrix.get(r, 1));
            if !matches!(class, TriggerClass::Ext | TriggerClass::Fea) {
                assert!((i - a).abs() < 10.0, "{class}: {i} vs {a}");
            }
        }
    }

    #[test]
    fn fig15_fig16_show_the_vendor_skews() {
        let db = &fixture(0.5).db;
        let ext = fig15_external_breakdown(db);
        // System bus (HyperTransport) is AMD-heavy.
        let bus_row = TriggerClass::Ext
            .categories()
            .iter()
            .position(|t| *t == Trigger::SystemBus)
            .unwrap();
        assert!(ext.get(bus_row, 1) > ext.get(bus_row, 0));

        let fea = fig16_feature_breakdown(db);
        // Tracing is Intel-heavy.
        let trc_row = TriggerClass::Fea
            .categories()
            .iter()
            .position(|t| *t == Trigger::Tracing)
            .unwrap();
        assert!(fea.get(trc_row, 0) > fea.get(trc_row, 1));
    }
}
