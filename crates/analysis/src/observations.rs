//! The paper's thirteen observations (O1-O13), as measured predicates.
//!
//! Each observation reads the figures [`FullReport::build`] has already
//! built; only O2 scans the database (its disclosure dates). `holds` says
//! whether the reproduced corpus supports the statement, and `evidence`
//! carries the measured numbers for EXPERIMENTS.md.

use rememberr::Database;
use rememberr_model::{Design, TriggerClass, Vendor};

use crate::chart::{BarChart, MatrixChart};
use crate::corpus_stats::CorpusStats;
use crate::correlation::top_trigger_pairs;
use crate::heredity::HeredityAnalysis;
use crate::msrfig::MsrWitnessAnalysis;
use crate::report::FullReport;
use crate::timeline::SharedSetTimeline;
use crate::util::year_of;
use crate::workfix::{FixAnalysis, WorkaroundAnalysis};

/// One measured observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Observation number (1-13).
    pub id: u8,
    /// The paper's statement.
    pub statement: &'static str,
    /// Whether the reproduced data supports the statement.
    pub holds: bool,
    /// Measured numbers backing the verdict.
    pub evidence: String,
}

/// Derives all thirteen observations from a report's figures; `db` is the
/// annotated database the report was built from.
pub(crate) fn observations(report: &FullReport, db: &Database) -> Vec<Observation> {
    vec![
        o1(&report.stats),
        o2(db),
        o3(&report.fig03),
        o4(&report.fig04),
        o5(&report.fig06),
        o6(&report.fig07),
        o7(&report.fig10),
        o8(&report.fig12),
        o9(&report.fig13),
        o10(&report.fig14),
        o11(&report.fig17),
        o12(&report.fig18),
        o13(&report.fig19),
    ]
}

/// The labels of a chart's first `n` rows. Rows are stable-sorted, so a
/// prefix of a top-10 chart is the top-`n` chart.
fn top_labels(chart: &BarChart, n: usize) -> Vec<&str> {
    chart.rows.iter().take(n).map(|(l, _)| l.as_str()).collect()
}

fn o1(stats: &CorpusStats) -> Observation {
    // Entries per Intel document; the latest documents must not collapse.
    // `per_document` follows `Design::ALL`.
    let counts: Vec<usize> = Design::ALL
        .iter()
        .zip(&stats.per_document)
        .filter(|(d, _)| d.vendor() == Vendor::Intel)
        .map(|(_, (_, n))| *n)
        .collect();
    let mut sorted = counts.clone();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2] as f64;
    let worst_recent = counts[counts.len() - 4..]
        .iter()
        .copied()
        .min()
        .unwrap_or(0) as f64;
    Observation {
        id: 1,
        statement: "The number of reported errata does not significantly decrease over time \
                    with new designs.",
        holds: worst_recent >= 0.15 * median,
        evidence: format!("entries per Intel document: {counts:?} (median {median})"),
    }
}

fn o2(db: &Database) -> Observation {
    // Concavity: first half of each document's life discloses at least as
    // fast as the second half, for most documents.
    let mut concave = 0usize;
    let mut total = 0usize;
    for design in Design::ALL {
        let mut years: Vec<f64> = db
            .entries_for(design)
            .map(|e| year_of(e.provenance.disclosure_date))
            .collect();
        if years.len() < 8 {
            continue;
        }
        years.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let (first, last) = (years[0], *years.last().expect("non-empty"));
        if last - first < 0.5 {
            continue;
        }
        let mid = (first + last) / 2.0;
        let first_half = years.iter().filter(|y| **y <= mid).count();
        total += 1;
        if first_half * 2 >= years.len() {
            concave += 1;
        }
    }
    Observation {
        id: 2,
        statement: "The increase in errata for a given design is usually concave.",
        holds: total > 0 && concave as f64 >= 0.7 * total as f64,
        evidence: format!("{concave}/{total} documents front-load their disclosures"),
    }
}

fn o3(heredity: &HeredityAnalysis) -> Observation {
    let longest = heredity.longest_span.map(|(_, s)| s).unwrap_or(0);
    Observation {
        id: 3,
        statement: "Bugs are often shared between generations of microprocessors. Shared bugs \
                    may stay for up to 11 generations.",
        holds: heredity.core1_to_core10 >= 1 && longest >= 12,
        evidence: format!(
            "{} bugs span Core 1 to Core 10; longest document span {} positions",
            heredity.core1_to_core10, longest
        ),
    }
}

fn o4(shared: &SharedSetTimeline) -> Observation {
    // Skip the first document (nothing precedes it).
    let later = &shared.known_before_release[1..];
    let avg: f64 = later.iter().map(|(_, f)| f).sum::<f64>() / later.len().max(1) as f64;
    Observation {
        id: 4,
        statement: "Most of the design flaws that are shared between generations were already \
                    known before releasing the subsequent generation.",
        holds: avg > 0.5,
        evidence: format!(
            "{} shared bugs; avg fraction known before subsequent releases: {avg:.2}",
            shared.shared_bugs
        ),
    }
}

fn o5(wk: &WorkaroundAnalysis) -> Observation {
    let evidence = wk
        .no_workaround
        .iter()
        .map(|(v, f)| format!("{v}: {:.1}%", 100.0 * f))
        .collect::<Vec<_>>()
        .join(", ");
    Observation {
        id: 5,
        statement: "A substantial number of errata do not have any suggested workaround.",
        holds: wk.no_workaround.iter().all(|(_, f)| *f > 0.2),
        evidence: format!("no-workaround rates: {evidence}"),
    }
}

fn o6(fixes: &FixAnalysis) -> Observation {
    Observation {
        id: 6,
        statement: "Bugs are rarely fixed.",
        holds: fixes.fixed_fraction < 0.3,
        evidence: format!(
            "{:.1}% of unique bugs fixed or fix-planned",
            100.0 * fixes.fixed_fraction
        ),
    }
}

fn o7(fig10: &[(Vendor, BarChart)]) -> Observation {
    let mut holds = true;
    let mut evidence = String::new();
    for (vendor, chart) in fig10 {
        let top = top_labels(chart, 3);
        holds &= top.contains(&"Trg_CFG_wrg")
            && (top.contains(&"Trg_POW_tht") || top.contains(&"Trg_POW_pwc"));
        evidence.push_str(&format!("{vendor} top3: {top:?}; "));
    }
    Observation {
        id: 7,
        statement: "Most errata require specific MSR interaction or configuration combined \
                    with throttling, power state transitions, or peripheral inputs.",
        holds,
        evidence,
    }
}

fn o8(matrix: &MatrixChart) -> Observation {
    let top = top_trigger_pairs(matrix, 5);
    let n = rememberr_model::Trigger::ALL.len();
    let nonzero = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .filter(|&(i, j)| matrix.get(i, j) > 0.0)
        .count();
    let density = nonzero as f64 / (n * (n - 1) / 2) as f64;
    let strongest = top.first().map(|(_, _, v)| *v).unwrap_or(0.0);
    Observation {
        id: 8,
        statement: "Some abstract triggers tend to correlate strongly, while most do not.",
        holds: strongest >= 5.0 && density < 0.8,
        evidence: format!(
            "strongest pair {:?} ({} errata); pair density {density:.2}",
            top.first().map(|(a, b, _)| (a.code(), b.code())),
            strongest
        ),
    }
}

fn o9(matrix: &MatrixChart) -> Observation {
    let docs: Vec<Design> = Design::intel().collect();
    let mut all_needed_until_gen10 = true;
    let mut mbr_absent_late = true;
    for (col, design) in docs.iter().enumerate() {
        for class in TriggerClass::ALL {
            let v = matrix.get(class.index(), col);
            let late = matches!(design, Design::Intel11 | Design::Intel12);
            if late && *class == TriggerClass::Mbr {
                mbr_absent_late &= v == 0.0;
            } else if !late && v == 0.0 {
                all_needed_until_gen10 = false;
            }
        }
    }
    Observation {
        id: 9,
        statement: "It is necessary to apply all trigger classes to trigger all known bugs \
                    (except in the latest two generations).",
        holds: all_needed_until_gen10 && mbr_absent_late,
        evidence: format!(
            "all classes present through Core 10: {all_needed_until_gen10}; \
             MBR absent in Core 11/12: {mbr_absent_late}"
        ),
    }
}

fn o10(matrix: &MatrixChart) -> Observation {
    let mut max_diff_core: f64 = 0.0;
    for class in TriggerClass::ALL {
        if matches!(class, TriggerClass::Ext | TriggerClass::Fea) {
            continue;
        }
        let diff = (matrix.get(class.index(), 0) - matrix.get(class.index(), 1)).abs();
        max_diff_core = max_diff_core.max(diff);
    }
    let ext_fea_diff =
        (matrix.get(TriggerClass::Fea.index(), 0) - matrix.get(TriggerClass::Fea.index(), 1)).abs()
            + (matrix.get(TriggerClass::Ext.index(), 0) - matrix.get(TriggerClass::Ext.index(), 1))
                .abs();
    Observation {
        id: 10,
        statement: "The representation of trigger classes over the errata corpora is very \
                    similar for Intel and AMD (external stimuli and features differ).",
        holds: max_diff_core < 8.0,
        evidence: format!(
            "max share difference outside EXT/FEA: {max_diff_core:.1}pp; \
             EXT+FEA combined difference: {ext_fea_diff:.1}pp"
        ),
    }
}

fn o11(fig17: &[(Vendor, BarChart)]) -> Observation {
    let holds = fig17
        .iter()
        .all(|(_, c)| c.rows.first().is_some_and(|(l, _)| l == "Ctx_PRV_vmg"));
    Observation {
        id: 11,
        statement: "Most errors occur in the context of hardware support for virtual machine \
                    guests.",
        holds,
        evidence: fig17
            .iter()
            .map(|(v, c)| format!("{v} top context: {:?}", c.rows.first()))
            .collect::<Vec<_>>()
            .join("; "),
    }
}

fn o12(fig18: &[(Vendor, BarChart)]) -> Observation {
    let mut holds = true;
    let mut evidence = String::new();
    for (vendor, chart) in fig18 {
        let top = top_labels(chart, 3);
        holds &= top.contains(&"Eff_CRP_reg") && top.contains(&"Eff_HNG_hng");
        evidence.push_str(&format!("{vendor} top3: {top:?}; "));
    }
    Observation {
        id: 12,
        statement: "Corrupted registers and hangs are the most common observable effect on \
                    Intel and AMD designs.",
        holds,
        evidence,
    }
}

fn o13(analysis: &MsrWitnessAnalysis) -> Observation {
    let holds = analysis
        .charts
        .iter()
        .all(|(_, c)| c.rows.first().is_some_and(|(l, _)| l == "MCx_STATUS"));
    let rates = analysis
        .machine_check_witness
        .iter()
        .map(|(v, r)| format!("{v}: {:.1}%", 100.0 * r))
        .collect::<Vec<_>>()
        .join(", ");
    Observation {
        id: 13,
        statement: "Among MSRs, Machine Check Status Registers most often indicate a bug's \
                    occurrence.",
        holds,
        evidence: format!("machine-check witness rates: {rates}"),
    }
}

/// Renders the observation table as text.
pub fn render_observations(observations: &[Observation]) -> String {
    let mut out = String::from("== Observations O1-O13 ==\n");
    for o in observations {
        out.push_str(&format!(
            "O{:<2} [{}] {}\n      evidence: {}\n",
            o.id,
            if o.holds { "HOLDS" } else { "FAILS" },
            o.statement,
            o.evidence
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    fn paper_observations() -> Vec<Observation> {
        FullReport::build(&fixture(1.0).db, None, None).observations
    }

    #[test]
    fn all_thirteen_observations_hold_on_the_paper_corpus() {
        let obs = paper_observations();
        assert_eq!(obs.len(), 13);
        for o in &obs {
            assert!(
                o.holds,
                "O{} fails: {}\n  {}",
                o.id, o.statement, o.evidence
            );
        }
    }

    #[test]
    fn render_includes_every_observation() {
        let text = render_observations(&paper_observations());
        for i in 1..=13 {
            assert!(text.contains(&format!("O{i} ")) || text.contains(&format!("O{i}  ")));
        }
    }
}
