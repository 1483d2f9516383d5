//! RemembERR study analyses.
//!
//! Every figure and table of the paper's evaluation, recomputed from the
//! database, plus the Section VI guidance engine:
//!
//! | paper item | function |
//! |---|---|
//! | Table III / IV-A stats | [`corpus_stats`] |
//! | "errata in errata"      | [`render_defect_report`] |
//! | Figure 2  | [`fig02_disclosure_timeline`] |
//! | Figure 3  | [`fig03_heredity`] |
//! | Figure 4  | [`fig04_shared_set_timeline`] |
//! | Figure 5  | [`fig05_latency`] |
//! | Figure 6  | [`fig06_workarounds`] |
//! | Figure 7  | [`fig07_fixes`] |
//! | Figure 8  | [`fig08_classification_steps`] |
//! | Figure 9  | [`fig09_agreement`] |
//! | Figure 10 | [`fig10_trigger_frequency`] |
//! | Figure 11 | [`fig11_trigger_counts`] |
//! | Figure 12 | [`fig12_trigger_correlation`] |
//! | Figure 13 | [`fig13_class_evolution`] |
//! | Figure 14 | [`fig14_class_share`] |
//! | Figure 15 | [`fig15_external_breakdown`] |
//! | Figure 16 | [`fig16_feature_breakdown`] |
//! | Figure 17 | [`fig17_context_frequency`] |
//! | Figure 18 | [`fig18_effect_frequency`] |
//! | Figure 19 | [`fig19_msr_witnesses`] |
//! | O1-O13    | [`FullReport::observations`] |
//! | Section IV-B2 "Rediscovery" | [`rediscovery_by_pair`] |
//! | Section VI | [`plan_campaign`], [`recommend_observation_points`], [`blackbox_guidance`] |
//! | extensions | [`export_csvs`] |
//!
//! [`FullReport::build`] computes every figure once, then derives the
//! observations from the figures it built.
//!
//! # Examples
//!
//! ```
//! use rememberr::Database;
//! use rememberr_analysis::fig11_trigger_counts;
//! use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
//! use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
//!
//! let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
//! let mut db = Database::from_documents(&corpus.structured);
//! classify_database(
//!     &mut db,
//!     &Rules::standard(),
//!     HumanOracle::Simulated(&corpus.truth),
//!     &FourEyesConfig::default(),
//! );
//! let fig11 = fig11_trigger_counts(&db);
//! assert!(fig11.multi_trigger > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod assist;
mod categories;
mod chart;
mod corpus_stats;
mod correlation;
mod effort;
mod export;
#[cfg(test)]
mod fixtures;
mod guidance;
mod heredity;
mod msrfig;
mod observations;
mod rediscovery;
mod report;
mod timeline;
mod util;
mod workfix;

pub use assist::{assist_highlights_analyzed, AssistSummary};
pub use categories::{
    class_breakdown, fig10_trigger_frequency, fig11_trigger_counts, fig13_class_evolution,
    fig14_class_share, fig15_external_breakdown, fig16_feature_breakdown, fig17_context_frequency,
    fig18_effect_frequency, TriggerCountAnalysis,
};
pub use chart::{BarChart, MatrixChart, SeriesChart};
pub use corpus_stats::{corpus_stats, render_defect_report, CorpusStats};
pub use correlation::{fig12_trigger_correlation, top_trigger_pairs};
pub use effort::{fig08_classification_steps, fig09_agreement};
pub use export::export_csvs;
pub use guidance::{
    blackbox_guidance, plan_campaign, recommend_observation_points, CampaignPlan, CampaignStep,
};
pub use heredity::{fig03_heredity, HeredityAnalysis};
pub use msrfig::{fig19_msr_witnesses, MsrWitnessAnalysis};
pub use observations::{render_observations, Observation};
pub use rediscovery::{
    rediscovery_by_pair, rediscovery_chart, rediscovery_stats, RediscoveryStats,
};
pub use report::FullReport;
pub use timeline::{
    fig02_disclosure_timeline, fig04_shared_set_timeline, fig05_latency, LatencyAnalysis,
    SharedSetTimeline, GEN6_TO_10_DOCS,
};
pub use util::{cumulative_series, keys_in_document, unique_of, year_of};
pub use workfix::{fig06_workarounds, fig07_fixes, FixAnalysis, WorkaroundAnalysis};
