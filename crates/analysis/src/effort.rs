//! Figures 8 and 9: classification effort and inter-annotator agreement.

use rememberr_classify::FourEyesOutcome;

use crate::chart::SeriesChart;

/// Figure 8: cumulative errata per classification discussion step.
pub fn fig08_classification_steps(outcome: &FourEyesOutcome) -> SeriesChart {
    let mut chart = SeriesChart::new(
        "Fig. 8 — Errata per classification discussion step",
        "step",
        "cumulative errata",
    );
    chart.push(
        "classified errata",
        outcome
            .steps
            .iter()
            .map(|s| (s.step as f64, s.cumulative_errata as f64))
            .collect(),
    );
    chart
}

/// Figure 9: pre-discussion agreement per step (percent).
pub fn fig09_agreement(outcome: &FourEyesOutcome) -> SeriesChart {
    let mut chart = SeriesChart::new(
        "Fig. 9 — Human agreement before discussion",
        "step",
        "agreement %",
    );
    chart.push(
        "agreement",
        outcome
            .steps
            .iter()
            .map(|s| (s.step as f64, 100.0 * s.agreement))
            .collect(),
    );
    chart.push(
        "Cohen's kappa x100",
        outcome
            .steps
            .iter()
            .map(|s| (s.step as f64, 100.0 * s.kappa))
            .collect(),
    );
    chart
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    fn outcome() -> &'static FourEyesOutcome {
        fixture(0.3)
            .run
            .four_eyes
            .as_ref()
            .expect("simulated oracle")
    }

    #[test]
    fn fig08_is_cumulative_over_seven_steps() {
        let chart = fig08_classification_steps(outcome());
        let points = &chart.series[0].1;
        assert_eq!(points.len(), 7);
        for pair in points.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn fig08_covers_every_unique_erratum() {
        // The paper's Figure 8 counts all classified errata, not only those
        // carrying human decisions.
        assert_eq!(
            outcome().steps.last().unwrap().cumulative_errata,
            fixture(0.3).db.unique_count()
        );
    }

    #[test]
    fn fig09_agreement_is_generally_above_eighty() {
        // The paper: "the agreement percentage is generally above 80%".
        // Small steps are noisy, so allow one dip below 78%.
        let chart = fig09_agreement(outcome());
        let agreement = &chart.series[0].1;
        let above = agreement.iter().filter(|(_, y)| *y > 78.0).count();
        assert!(above >= agreement.len() - 1, "{agreement:?}");
        let avg: f64 = agreement.iter().map(|(_, y)| y).sum::<f64>() / agreement.len() as f64;
        assert!(avg > 80.0, "average agreement {avg}");
    }
}
