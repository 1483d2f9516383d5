//! The full study report: every figure and table in one pass, then the
//! observations derived from them.

use rememberr::Database;
use rememberr_classify::FourEyesOutcome;
use rememberr_extract::ExtractionReport;
use rememberr_model::Vendor;

use crate::categories::{
    fig10_trigger_frequency, fig11_trigger_counts, fig13_class_evolution, fig14_class_share,
    fig15_external_breakdown, fig16_feature_breakdown, fig17_context_frequency,
    fig18_effect_frequency, TriggerCountAnalysis,
};
use crate::chart::{BarChart, MatrixChart, SeriesChart};
use crate::corpus_stats::{corpus_stats, render_defect_report, CorpusStats};
use crate::correlation::fig12_trigger_correlation;
use crate::effort::{fig08_classification_steps, fig09_agreement};
use crate::heredity::{fig03_heredity, HeredityAnalysis};
use crate::msrfig::{fig19_msr_witnesses, MsrWitnessAnalysis};
use crate::observations::{observations, render_observations, Observation};
use crate::timeline::{
    fig02_disclosure_timeline, fig04_shared_set_timeline, fig05_latency, LatencyAnalysis,
    SharedSetTimeline,
};
use crate::workfix::{fig06_workarounds, fig07_fixes, FixAnalysis, WorkaroundAnalysis};

/// Every figure and table of the paper, computed from one database.
#[derive(Debug, Clone)]
pub struct FullReport {
    /// Table III / Section IV-A statistics.
    pub stats: CorpusStats,
    /// Figure 2 (one chart per vendor).
    pub fig02: Vec<(Vendor, SeriesChart)>,
    /// Figure 3.
    pub fig03: HeredityAnalysis,
    /// Figure 4.
    pub fig04: SharedSetTimeline,
    /// Figure 5.
    pub fig05: LatencyAnalysis,
    /// Figure 6.
    pub fig06: WorkaroundAnalysis,
    /// Figure 7.
    pub fig07: FixAnalysis,
    /// Figure 8 (present when the four-eyes simulation ran).
    pub fig08: Option<SeriesChart>,
    /// Figure 9 (present when the four-eyes simulation ran).
    pub fig09: Option<SeriesChart>,
    /// Figure 10.
    pub fig10: Vec<(Vendor, BarChart)>,
    /// Figure 11.
    pub fig11: TriggerCountAnalysis,
    /// Figure 12.
    pub fig12: MatrixChart,
    /// Figure 13.
    pub fig13: MatrixChart,
    /// Figure 14.
    pub fig14: MatrixChart,
    /// Figure 15.
    pub fig15: MatrixChart,
    /// Figure 16.
    pub fig16: MatrixChart,
    /// Figure 17.
    pub fig17: Vec<(Vendor, BarChart)>,
    /// Figure 18.
    pub fig18: Vec<(Vendor, BarChart)>,
    /// Figure 19.
    pub fig19: MsrWitnessAnalysis,
    /// Observations O1-O13, derived from the figures above.
    pub observations: Vec<Observation>,
    /// The "errata in errata" report, if extraction ran.
    pub defects: Option<ExtractionReport>,
}

/// Runs one figure renderer under a named span, so `--trace` and the
/// duration histograms break the report down per figure.
fn timed<T>(name: &'static str, build: impl FnOnce() -> T) -> T {
    let _span = rememberr_obs::span(name);
    build()
}

impl FullReport {
    /// Computes every figure over an annotated database, then derives the
    /// observations from the figures.
    pub fn build(
        db: &Database,
        four_eyes: Option<&FourEyesOutcome>,
        defects: Option<ExtractionReport>,
    ) -> Self {
        let _span = rememberr_obs::span!("analysis.full_report");
        // Every figure reads the database immutably and independently, so
        // the passes fan out over four balanced worker lanes; each figure's
        // result lands in its named field regardless of lane scheduling.
        // With one job the lanes run sequentially in order.
        let (
            (stats, fig02, fig03, fig04, fig05),
            (fig06, fig07, fig08, fig09, fig10, fig11),
            (fig12, fig13, fig14, fig15, fig16),
            (fig17, fig18, fig19),
        ) = rememberr_par::join4(
            || {
                (
                    timed("analysis.corpus_stats", || corpus_stats(db)),
                    timed("analysis.fig02", || {
                        Vendor::ALL
                            .iter()
                            .map(|&v| (v, fig02_disclosure_timeline(db, v)))
                            .collect()
                    }),
                    timed("analysis.fig03", || fig03_heredity(db)),
                    timed("analysis.fig04", || fig04_shared_set_timeline(db)),
                    timed("analysis.fig05", || fig05_latency(db)),
                )
            },
            || {
                (
                    timed("analysis.fig06", || fig06_workarounds(db)),
                    timed("analysis.fig07", || fig07_fixes(db)),
                    timed("analysis.fig08", || {
                        four_eyes.map(fig08_classification_steps)
                    }),
                    timed("analysis.fig09", || four_eyes.map(fig09_agreement)),
                    timed("analysis.fig10", || fig10_trigger_frequency(db, 10)),
                    timed("analysis.fig11", || fig11_trigger_counts(db)),
                )
            },
            || {
                (
                    timed("analysis.fig12", || fig12_trigger_correlation(db)),
                    timed("analysis.fig13", || fig13_class_evolution(db)),
                    timed("analysis.fig14", || fig14_class_share(db)),
                    timed("analysis.fig15", || fig15_external_breakdown(db)),
                    timed("analysis.fig16", || fig16_feature_breakdown(db)),
                )
            },
            || {
                (
                    timed("analysis.fig17", || fig17_context_frequency(db, 10)),
                    timed("analysis.fig18", || fig18_effect_frequency(db, 10)),
                    timed("analysis.fig19", || fig19_msr_witnesses(db, 8)),
                )
            },
        );
        let mut report = Self {
            stats,
            fig02,
            fig03,
            fig04,
            fig05,
            fig06,
            fig07,
            fig08,
            fig09,
            fig10,
            fig11,
            fig12,
            fig13,
            fig14,
            fig15,
            fig16,
            fig17,
            fig18,
            fig19,
            observations: Vec::new(),
            defects,
        };
        report.observations = timed("analysis.observations", || observations(&report, db));
        report
    }

    /// Renders the complete report as text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.stats.render_text());
        out.push('\n');
        if let Some(defects) = &self.defects {
            out.push_str(&render_defect_report(defects));
            out.push('\n');
        }
        for (_, chart) in &self.fig02 {
            out.push_str(&chart.render_text(48));
            out.push('\n');
        }
        out.push_str(&self.fig03.matrix.render_text());
        out.push_str(&format!(
            "Core1->Core10 bugs: {}\n\n",
            self.fig03.core1_to_core10
        ));
        out.push_str(&self.fig04.chart.render_text(48));
        out.push_str(&format!("shared bugs: {}\n\n", self.fig04.shared_bugs));
        out.push_str(&self.fig05.chart.render_text(48));
        out.push_str(&format!(
            "forward-latent: {}, backward-latent: {}\n\n",
            self.fig05.forward, self.fig05.backward
        ));
        for (_, chart) in &self.fig06.charts {
            out.push_str(&chart.render_text(40));
            out.push('\n');
        }
        out.push_str(&self.fig07.matrix.render_text());
        out.push_str(&format!(
            "fixed or planned: {:.1}%\n\n",
            100.0 * self.fig07.fixed_fraction
        ));
        if let (Some(f8), Some(f9)) = (&self.fig08, &self.fig09) {
            out.push_str(&f8.render_text(14));
            out.push('\n');
            out.push_str(&f9.render_text(14));
            out.push('\n');
        }
        for (_, chart) in &self.fig10 {
            out.push_str(&chart.render_text(40));
            out.push('\n');
        }
        out.push_str(&self.fig11.chart.render_text(40));
        out.push_str(&format!(
            "no clear trigger: {:.1}%; needing >=2 triggers: {:.1}%\n\n",
            100.0 * self.fig11.no_clear_trigger,
            100.0 * self.fig11.multi_trigger
        ));
        out.push_str(&self.fig12.render_text());
        out.push('\n');
        out.push_str(&self.fig13.render_text());
        out.push('\n');
        out.push_str(&self.fig14.render_text());
        out.push('\n');
        out.push_str(&self.fig15.render_text());
        out.push('\n');
        out.push_str(&self.fig16.render_text());
        out.push('\n');
        for (_, chart) in &self.fig17 {
            out.push_str(&chart.render_text(40));
            out.push('\n');
        }
        for (_, chart) in &self.fig18 {
            out.push_str(&chart.render_text(40));
            out.push('\n');
        }
        for (_, chart) in &self.fig19.charts {
            out.push_str(&chart.render_text(40));
            out.push('\n');
        }
        out.push_str(&render_observations(&self.observations));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
    use rememberr_extract::extract_corpus;

    #[test]
    fn full_report_builds_and_renders() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.15));
        let (docs, defects) =
            extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str()))).unwrap();
        let mut db = Database::from_documents(&docs);
        let run = classify_database(
            &mut db,
            &Rules::standard(),
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
        );
        let report = FullReport::build(&db, run.four_eyes.as_ref(), Some(defects));
        let text = report.render_text();
        for needle in [
            "Corpus statistics",
            "Errata in errata",
            "Fig. 2",
            "Fig. 3",
            "Fig. 4",
            "Fig. 5",
            "Fig. 6",
            "Fig. 7",
            "Fig. 8",
            "Fig. 9",
            "Fig. 10",
            "Fig. 11",
            "Fig. 12",
            "Fig. 13",
            "Fig. 14",
            "Fig. 15",
            "Fig. 16",
            "Fig. 17",
            "Fig. 18",
            "Fig. 19",
            "Observations O1-O13",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        assert_eq!(report.observations.len(), 13);
    }
}
