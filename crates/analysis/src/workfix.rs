//! Figures 6 and 7: workarounds and fixes.

use rememberr::{Database, Query};
use rememberr_model::{Design, FixStatus, Vendor, WorkaroundCategory};

use crate::chart::{BarChart, MatrixChart};

/// Figure 6 result: workaround mix per vendor plus the headline number.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkaroundAnalysis {
    /// One chart per vendor over unique errata (% per category).
    pub charts: Vec<(Vendor, BarChart)>,
    /// Fraction of unique errata without any suggested workaround, per
    /// vendor (paper: Intel 35.9%, AMD 28.9% — Observation O5).
    pub no_workaround: Vec<(Vendor, f64)>,
}

/// Figure 6: suggested workarounds of errata by category (identical errata
/// merged).
pub fn fig06_workarounds(db: &Database) -> WorkaroundAnalysis {
    let mut charts = Vec::new();
    let mut no_workaround = Vec::new();
    for &vendor in &Vendor::ALL {
        let vendor_uniques = Query::new().vendor(vendor).unique_only();
        let total = vendor_uniques.count(db).max(1);
        let mut chart = BarChart::new(format!("Fig. 6 — Workarounds by category ({vendor})"), "%");
        let mut none = 0usize;
        for category in WorkaroundCategory::ALL {
            let n = vendor_uniques.clone().workaround(category).count(db);
            if category == WorkaroundCategory::None {
                none = n;
            }
            chart.push(category.to_string(), 100.0 * n as f64 / total as f64);
        }
        no_workaround.push((vendor, none as f64 / total as f64));
        charts.push((vendor, chart));
    }
    WorkaroundAnalysis {
        charts,
        no_workaround,
    }
}

/// Figure 7 result: fixes per design plus the headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct FixAnalysis {
    /// Rows = designs, cols = `fixed`, `fix planned`, `unfixed`,
    /// `doc change`; cells = unique-bug counts attributed to the design.
    pub matrix: MatrixChart,
    /// Overall fraction of unique bugs whose root cause was (or will be)
    /// fixed (Observation O6: the vast majority of bugs are never fixed).
    pub fixed_fraction: f64,
}

/// Figure 7: proportion of fixed vs unfixed bugs per design.
pub fn fig07_fixes(db: &Database) -> FixAnalysis {
    let cols = vec![
        "fixed".to_string(),
        "fix planned".to_string(),
        "unfixed".to_string(),
        "doc change".to_string(),
    ];
    let mut matrix = MatrixChart::zeros(
        "Fig. 7 — Fixed vs unfixed bugs per design",
        Design::ALL.iter().map(|d| d.label().to_string()).collect(),
        cols,
    );
    for (row, &design) in Design::ALL.iter().enumerate() {
        let mut seen = std::collections::BTreeSet::new();
        for entry in db.entries_for(design) {
            let Some(key) = entry.key else { continue };
            if !seen.insert(key) {
                continue;
            }
            let col = match entry.fix {
                FixStatus::Fixed => 0,
                FixStatus::FixPlanned => 1,
                FixStatus::NoFixPlanned => 2,
                FixStatus::DocumentationChange => 3,
            };
            *matrix.get_mut(row, col) += 1.0;
        }
    }

    let uniques = Query::new().unique_only().count(db);
    let fixed = Query::new().fix(FixStatus::Fixed).unique_only().count(db)
        + Query::new()
            .fix(FixStatus::FixPlanned)
            .unique_only()
            .count(db);
    FixAnalysis {
        matrix,
        fixed_fraction: fixed as f64 / uniques.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn fig06_no_workaround_rates_match_paper() {
        let analysis = fig06_workarounds(&fixture(1.0).db);
        let intel = analysis.no_workaround[0].1;
        let amd = analysis.no_workaround[1].1;
        assert!((intel - 0.359).abs() < 0.05, "Intel {intel}");
        assert!((amd - 0.289).abs() < 0.05, "AMD {amd}");
    }

    #[test]
    fn fig06_percentages_sum_to_hundred() {
        let analysis = fig06_workarounds(&fixture(1.0).db);
        for (vendor, chart) in &analysis.charts {
            let sum: f64 = chart.rows.iter().map(|(_, v)| v).sum();
            assert!((sum - 100.0).abs() < 1e-6, "{vendor}: {sum}");
        }
    }

    #[test]
    fn fig06_documentation_fixes_are_negligible() {
        // The paper: documentation fixes are < 0.5% of all errata. Per
        // vendor the count is single-digit, so assert on the combined rate.
        let db = &fixture(1.0).db;
        let uniques = db.unique_entries();
        let docfix = uniques
            .iter()
            .filter(|e| e.workaround == WorkaroundCategory::DocumentationFix)
            .count();
        let rate = docfix as f64 / uniques.len() as f64;
        assert!(rate < 0.012, "{rate}");
    }

    #[test]
    fn fig07_bugs_are_rarely_fixed() {
        let analysis = fig07_fixes(&fixture(1.0).db);
        assert!(
            analysis.fixed_fraction < 0.25,
            "{}",
            analysis.fixed_fraction
        );
        assert!(analysis.fixed_fraction > 0.02);
    }

    #[test]
    fn fig07_recent_intel_trend_toward_fixing() {
        let analysis = fig07_fixes(&fixture(1.0).db);
        let m = &analysis.matrix;
        let rate = |row: usize| {
            let fixed = m.get(row, 0) + m.get(row, 1);
            let total: f64 = (0..4).map(|c| m.get(row, c)).sum();
            fixed / total.max(1.0)
        };
        // Average fix rate of the last three Intel documents exceeds the
        // first three (the paper's weak trend).
        let early: f64 = (0..3).map(rate).sum::<f64>() / 3.0;
        let late: f64 = (13..16).map(rate).sum::<f64>() / 3.0;
        assert!(late > early, "early {early}, late {late}");
    }

    #[test]
    fn fig07_rows_cover_document_uniques() {
        let db = &fixture(1.0).db;
        let analysis = fig07_fixes(db);
        for (row, &design) in Design::ALL.iter().enumerate() {
            let total: f64 = (0..4).map(|c| analysis.matrix.get(row, c)).sum();
            let uniques = crate::util::keys_in_document(db, design).len();
            assert_eq!(total as usize, uniques, "{design}");
        }
    }
}
