//! Figure 19: the MSRs in which observable effects manifest.

use rememberr::{Database, Query};
use rememberr_model::{MsrName, Vendor};

use crate::chart::BarChart;
use crate::util::unique_of;

/// Figure 19 result.
#[derive(Debug, Clone, PartialEq)]
pub struct MsrWitnessAnalysis {
    /// One chart per vendor: % of unique errata witnessed by each MSR.
    pub charts: Vec<(Vendor, BarChart)>,
    /// Fraction of unique errata witnessed by machine-check status
    /// registers (MCx_STATUS / MCx_ADDR), per vendor (paper: 7.1%-8.5%,
    /// Observation O13).
    pub machine_check_witness: Vec<(Vendor, f64)>,
}

/// Figure 19: most frequent MSRs containing observable effects.
pub fn fig19_msr_witnesses(db: &Database, top: usize) -> MsrWitnessAnalysis {
    let mut charts = Vec::new();
    let mut machine_check_witness = Vec::new();
    for &vendor in &Vendor::ALL {
        // Per-name counts are a 2×26 facet batch on the shared index; the
        // machine-check disjunction below (MCx_STATUS *or* MCx_ADDR per
        // entry) is not expressible as one `Query`, so it stays a scan of
        // the representative view.
        let uniques = unique_of(db, vendor);
        let total = uniques.len().max(1);
        let vendor_uniques = Query::new().vendor(vendor).unique_only();
        let mut chart = BarChart::new(
            format!("Fig. 19 — MSRs witnessing observable effects ({vendor})"),
            "%",
        );
        for name in MsrName::ALL {
            let n = vendor_uniques.clone().msr(name).count(db);
            if n > 0 {
                chart.push(name.text(), 100.0 * n as f64 / total as f64);
            }
        }
        chart.sort_desc();
        chart.truncate(top);

        let mc = uniques
            .iter()
            .filter(|e| {
                e.annotation_or_empty()
                    .msrs
                    .iter()
                    .any(|r| matches!(r.name, MsrName::McStatus | MsrName::McAddr))
            })
            .count();
        machine_check_witness.push((vendor, mc as f64 / total as f64));
        charts.push((vendor, chart));
    }
    MsrWitnessAnalysis {
        charts,
        machine_check_witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn mc_status_tops_both_vendors() {
        let analysis = fig19_msr_witnesses(&fixture(0.5).db, 5);
        for (vendor, chart) in &analysis.charts {
            assert!(!chart.rows.is_empty(), "{vendor}");
            assert_eq!(chart.rows[0].0, "MCx_STATUS", "{vendor}: {:?}", chart.rows);
        }
    }

    #[test]
    fn machine_check_witness_rate_within_5_to_12_percent() {
        // The paper's 7.1-8.5% band is not asserted: the paper-scale AMD
        // rate is 6.8% (EXPERIMENTS.md, Fig. 19 row).
        let analysis = fig19_msr_witnesses(&fixture(0.5).db, 5);
        for (vendor, rate) in &analysis.machine_check_witness {
            assert!((0.05..0.12).contains(rate), "{vendor}: {rate}");
        }
    }

    #[test]
    fn ibs_registers_only_appear_for_amd() {
        let analysis = fig19_msr_witnesses(&fixture(0.5).db, 26);
        let intel_chart = &analysis.charts[0].1;
        assert!(intel_chart.rows.iter().all(|(l, _)| !l.starts_with("IBS_")));
        let amd_chart = &analysis.charts[1].1;
        assert!(amd_chart.rows.iter().any(|(l, _)| l.starts_with("IBS_")));
    }
}
