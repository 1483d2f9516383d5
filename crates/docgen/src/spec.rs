//! Corpus calibration: every population number the paper reports, as a
//! tunable specification.
//!
//! The default [`CorpusSpec`] reproduces the paper's corpus: 2,563 errata
//! (Intel 2,057 of which 743 unique; AMD 506 of which 385 unique), the
//! heredity structure of Figure 3 (104 bugs shared by all Intel generations
//! 6-10, 6 bugs spanning Core 1 to Core 10, one Core 2 erratum resurfacing
//! in Core 12), the per-category frequency profiles of Figures 10-19, and
//! the six "errata in errata" defect classes with their exact counts.

use rememberr_model::{Date, Design, UniqueKey, Vendor};
use serde::{Deserialize, Serialize};

/// Full corpus specification. Construct via [`CorpusSpec::default`] (paper
/// calibration) and adjust fields, or use [`CorpusSpec::scaled`] for small
/// test corpora.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// RNG seed; corpora are bit-reproducible per seed.
    pub seed: u64,
    /// Number of unique Intel bugs (paper: 743).
    pub intel_unique: usize,
    /// Total Intel erratum entries across documents (paper: 2,057).
    pub intel_total: usize,
    /// Number of unique AMD bugs (paper: 385).
    pub amd_unique: usize,
    /// Total AMD erratum entries across documents (paper: 506).
    pub amd_total: usize,
    /// Bugs shared by all Intel generations 6-10 (paper: 104, including the
    /// long-lived ones below).
    pub gen6_to_10_shared: usize,
    /// Bugs present from Core 1 through Core 10 (paper: 6).
    pub core1_to_core10: usize,
    /// Probability that a bug affecting a gen <= 5 Intel generation appears
    /// in both the Desktop and Mobile documents of that generation.
    pub desktop_mobile_share: f64,
    /// Per-generation forward propagation probability (Intel).
    pub intel_propagation: f64,
    /// Per-family propagation probability within related AMD families.
    pub amd_propagation: f64,
    /// Fraction of shared bugs discovered on the *newer* design first
    /// (backward-latent, Figure 5).
    pub backward_latent_fraction: f64,
    /// Mean of the exponential discovery-delay distribution, in days
    /// (drives the concave curves of Figure 2).
    pub discovery_mean_days: f64,
    /// Snapshot date of the corpus (documents have no revisions after it).
    pub snapshot: Date,
    /// Fraction of errata whose description only offers a "complex set of
    /// conditions", per vendor (paper: Intel 8.7%, AMD 20.8%).
    pub complex_conditions_rate: VendorPair<f64>,
    /// Fraction of unique errata without any suggested workaround
    /// (paper: Intel 35.9%, AMD 28.9%).
    pub no_workaround_rate: VendorPair<f64>,
    /// Distribution of the number of *clear* abstract triggers per erratum,
    /// indexed from 1 (weights, normalized internally). Calibrated so ~49%
    /// of errata with clear triggers need >= 2 (Figure 11).
    pub trigger_count_weights: Vec<f64>,
    /// Fraction of errata with no clear trigger (paper: 14.4%).
    pub no_clear_trigger_rate: f64,
    /// Defect-injection counts ("errata in errata", Section IV-A).
    pub defects: DefectSpec,
    /// Number of manually-identified Intel near-duplicate pairs whose titles
    /// differ slightly between documents (paper: 29).
    pub near_duplicate_pairs: usize,
}

/// A pair of values, one per vendor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VendorPair<T> {
    /// The Intel value.
    pub intel: T,
    /// The AMD value.
    pub amd: T,
}

impl<T: Copy> VendorPair<T> {
    /// Selects the value for a vendor.
    pub fn get(&self, vendor: Vendor) -> T {
        match vendor {
            Vendor::Intel => self.intel,
            Vendor::Amd => self.amd,
        }
    }
}

/// Exact counts for the six documented defect classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefectSpec {
    /// Errata claimed as added by two revisions (paper: 8 errata / 3 docs).
    pub double_added_errata: usize,
    /// Documents carrying double-added errata.
    pub double_added_docs: usize,
    /// Errata never mentioned in revision notes (paper: 12 errata / 2 docs).
    pub unmentioned_errata: usize,
    /// Documents carrying unmentioned errata.
    pub unmentioned_docs: usize,
    /// Reused erratum names: one identifier, two different errata
    /// (paper: 1, the erratum named AAJ143).
    pub name_collisions: usize,
    /// Errata with missing or duplicated fields (paper: 7 errata / 4 docs).
    pub field_defect_errata: usize,
    /// Documents carrying field defects.
    pub field_defect_docs: usize,
    /// Errata with erroneous MSR numbers (paper: 3 errata / 3 docs).
    pub wrong_msr_errata: usize,
    /// Intra-document duplicated erratum pairs (paper: 11 pairs / 6 docs).
    pub intra_doc_duplicate_pairs: usize,
    /// Documents carrying intra-document duplicates.
    pub intra_doc_duplicate_docs: usize,
}

impl Default for DefectSpec {
    fn default() -> Self {
        Self {
            double_added_errata: 8,
            double_added_docs: 3,
            unmentioned_errata: 12,
            unmentioned_docs: 2,
            name_collisions: 1,
            field_defect_errata: 7,
            field_defect_docs: 4,
            wrong_msr_errata: 3,
            intra_doc_duplicate_pairs: 11,
            intra_doc_duplicate_docs: 6,
        }
    }
}

impl Default for CorpusSpec {
    fn default() -> Self {
        Self {
            seed: 0x5EED_2022,
            intel_unique: 743,
            intel_total: 2_057,
            amd_unique: 385,
            amd_total: 506,
            gen6_to_10_shared: 104,
            core1_to_core10: 6,
            desktop_mobile_share: 0.85,
            intel_propagation: 0.38,
            amd_propagation: 0.22,
            backward_latent_fraction: 0.15,
            discovery_mean_days: 400.0,
            snapshot: Date::new(2022, 8, 1).expect("valid snapshot date"),
            complex_conditions_rate: VendorPair {
                intel: 0.087,
                amd: 0.208,
            },
            no_workaround_rate: VendorPair {
                intel: 0.359,
                amd: 0.289,
            },
            trigger_count_weights: vec![0.51, 0.30, 0.13, 0.045, 0.015],
            no_clear_trigger_rate: 0.144,
            defects: DefectSpec::default(),
            near_duplicate_pairs: 29,
        }
    }
}

/// A reason a [`CorpusSpec`] is not generatable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// A vendor's total is below its unique count.
    TotalBelowUnique(Vendor),
    /// The gen-6-to-10 shared block exceeds the Intel unique count.
    SharedBlockTooLarge,
    /// A probability field is outside `[0, 1]`.
    BadProbability(&'static str),
    /// The trigger-count weights are empty or non-positive.
    BadTriggerWeights,
    /// Defect counts exceed what the corpus can host.
    DefectsExceedCorpus,
    /// Under this seed, the bug's title collides with another bug's in
    /// every title style; another seed draws a different bug pool.
    TitlesExhausted(UniqueKey),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::TotalBelowUnique(v) => {
                write!(f, "{v} total is below the unique count")
            }
            SpecError::SharedBlockTooLarge => {
                write!(f, "gen6_to_10_shared exceeds intel_unique")
            }
            SpecError::BadProbability(field) => {
                write!(f, "{field} must lie in [0, 1]")
            }
            SpecError::BadTriggerWeights => {
                write!(
                    f,
                    "trigger_count_weights must be non-empty with a positive sum"
                )
            }
            SpecError::DefectsExceedCorpus => {
                write!(f, "defect counts exceed the corpus population")
            }
            SpecError::TitlesExhausted(bug) => {
                write!(
                    f,
                    "cannot find a unique title for bug {bug} under this seed; try another seed"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl CorpusSpec {
    /// The paper-calibrated specification (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Validates that the specification can be generated.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.intel_total < self.intel_unique {
            return Err(SpecError::TotalBelowUnique(Vendor::Intel));
        }
        if self.amd_total < self.amd_unique {
            return Err(SpecError::TotalBelowUnique(Vendor::Amd));
        }
        if self.gen6_to_10_shared > self.intel_unique {
            return Err(SpecError::SharedBlockTooLarge);
        }
        for (field, value) in [
            ("desktop_mobile_share", self.desktop_mobile_share),
            ("intel_propagation", self.intel_propagation),
            ("amd_propagation", self.amd_propagation),
            ("backward_latent_fraction", self.backward_latent_fraction),
            ("no_clear_trigger_rate", self.no_clear_trigger_rate),
            (
                "complex_conditions_rate.intel",
                self.complex_conditions_rate.intel,
            ),
            (
                "complex_conditions_rate.amd",
                self.complex_conditions_rate.amd,
            ),
            ("no_workaround_rate.intel", self.no_workaround_rate.intel),
            ("no_workaround_rate.amd", self.no_workaround_rate.amd),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(SpecError::BadProbability(field));
            }
        }
        if self.trigger_count_weights.is_empty()
            || self.trigger_count_weights.iter().any(|w| *w < 0.0)
            || self.trigger_count_weights.iter().sum::<f64>() <= 0.0
        {
            return Err(SpecError::BadTriggerWeights);
        }
        let d = &self.defects;
        let budget = self.intel_total / 4;
        if d.double_added_errata
            + d.unmentioned_errata
            + d.field_defect_errata
            + d.intra_doc_duplicate_pairs
            > budget.max(40)
        {
            return Err(SpecError::DefectsExceedCorpus);
        }
        Ok(())
    }

    /// A proportionally scaled-down corpus for fast tests and examples.
    ///
    /// `factor` in `(0, 1]` scales the bug populations; defect counts and
    /// structural constants are scaled with a floor so small corpora still
    /// exercise every code path.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn scaled(factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        let spec = Self::default();
        let s = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        Self {
            intel_unique: s(spec.intel_unique),
            intel_total: s(spec.intel_total).max(s(spec.intel_unique)),
            amd_unique: s(spec.amd_unique),
            amd_total: s(spec.amd_total).max(s(spec.amd_unique)),
            gen6_to_10_shared: s(spec.gen6_to_10_shared),
            core1_to_core10: s(spec.core1_to_core10).min(s(spec.gen6_to_10_shared)),
            near_duplicate_pairs: s(spec.near_duplicate_pairs),
            defects: DefectSpec {
                double_added_errata: s(8).min(8),
                double_added_docs: s(3).min(3),
                unmentioned_errata: s(12).min(12),
                unmentioned_docs: s(2).min(2),
                name_collisions: 1,
                field_defect_errata: s(7).min(7),
                field_defect_docs: s(4).min(4),
                wrong_msr_errata: s(3).min(3),
                intra_doc_duplicate_pairs: s(11).min(11),
                intra_doc_duplicate_docs: s(6).min(6),
            },
            ..spec
        }
    }

    /// Unique-bug target for a vendor.
    pub fn unique_for(&self, vendor: Vendor) -> usize {
        match vendor {
            Vendor::Intel => self.intel_unique,
            Vendor::Amd => self.amd_unique,
        }
    }

    /// Total-entry target for a vendor.
    pub fn total_for(&self, vendor: Vendor) -> usize {
        match vendor {
            Vendor::Intel => self.intel_total,
            Vendor::Amd => self.amd_total,
        }
    }

    /// Grand total of erratum entries (paper: 2,563).
    pub fn grand_total(&self) -> usize {
        self.intel_total + self.amd_total
    }

    /// Number of revisions each document receives.
    ///
    /// For Intel the revision number embedded in the document reference is
    /// authoritative (`332689-028US` is revision 28); AMD references use a
    /// `major.minor` scheme from which we derive a coarser count, matching
    /// the observation that AMD updates its documents less frequently.
    pub fn revision_count(&self, design: Design) -> u32 {
        let reference = design.reference();
        match design.vendor() {
            Vendor::Intel => reference
                .split('-')
                .nth(1)
                .and_then(|r| r.trim_end_matches("US").parse::<u32>().ok())
                .unwrap_or(10)
                .max(1),
            Vendor::Amd => {
                // "41322-3.84" -> minor 84 -> ~1 revision per ~8 minor bumps.
                let minor: u32 = reference
                    .split('.')
                    .nth(1)
                    .and_then(|r| r.parse().ok())
                    .unwrap_or(8);
                (minor / 8).clamp(2, 14)
            }
        }
    }

    /// Relative size weight of each document within its vendor; used to
    /// apportion bug introductions. Later designs get smaller weights ("the
    /// latest microarchitectures seem to be less affected").
    pub fn document_weight(&self, design: Design) -> f64 {
        match design {
            Design::Intel1D => 1.15,
            Design::Intel1M => 1.05,
            Design::Intel2D => 1.0,
            Design::Intel2M => 0.95,
            Design::Intel3D => 0.9,
            Design::Intel3M => 0.85,
            Design::Intel4D => 1.0,
            Design::Intel4M => 0.95,
            Design::Intel5D => 0.7,
            Design::Intel5M => 0.75,
            Design::Intel6 => 1.1,
            Design::Intel7_8 => 0.8,
            Design::Intel8_9 => 0.7,
            Design::Intel10 => 0.6,
            Design::Intel11 => 0.5,
            Design::Intel12 => 0.4,
            Design::Amd10h => 1.2,
            Design::Amd11h => 0.6,
            Design::Amd12h => 0.8,
            Design::Amd14h => 0.9,
            Design::Amd15h00 => 1.1,
            Design::Amd15h10 => 0.9,
            Design::Amd15h30 => 0.8,
            Design::Amd15h70 => 0.6,
            Design::Amd16h => 0.8,
            Design::Amd17h00 => 1.0,
            Design::Amd17h30 => 0.9,
            Design::Amd19h => 0.7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals() {
        let spec = CorpusSpec::paper();
        assert_eq!(spec.grand_total(), 2_563);
        assert_eq!(spec.intel_unique + spec.amd_unique, 1_128);
        spec.validate().expect("the paper spec is generatable");
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut spec = CorpusSpec::paper();
        spec.intel_total = 10;
        assert_eq!(
            spec.validate(),
            Err(SpecError::TotalBelowUnique(Vendor::Intel))
        );

        let mut spec = CorpusSpec::paper();
        spec.gen6_to_10_shared = spec.intel_unique + 1;
        assert_eq!(spec.validate(), Err(SpecError::SharedBlockTooLarge));

        let mut spec = CorpusSpec::paper();
        spec.intel_propagation = 1.5;
        assert!(matches!(spec.validate(), Err(SpecError::BadProbability(_))));

        let mut spec = CorpusSpec::paper();
        spec.trigger_count_weights = vec![];
        assert_eq!(spec.validate(), Err(SpecError::BadTriggerWeights));

        let mut spec = CorpusSpec::paper();
        spec.defects.unmentioned_errata = 5_000;
        assert_eq!(spec.validate(), Err(SpecError::DefectsExceedCorpus));
    }

    #[test]
    fn scaled_specs_validate() {
        for factor in [0.02, 0.1, 0.5, 1.0] {
            CorpusSpec::scaled(factor)
                .validate()
                .unwrap_or_else(|e| panic!("scaled({factor}): {e}"));
        }
    }

    #[test]
    fn trigger_count_weights_calibrate_figure_11() {
        // ~49% of errata with clear triggers require at least two.
        let spec = CorpusSpec::paper();
        let total: f64 = spec.trigger_count_weights.iter().sum();
        let multi: f64 = spec.trigger_count_weights[1..].iter().sum();
        let fraction = multi / total;
        assert!((0.44..0.54).contains(&fraction), "{fraction}");
    }

    #[test]
    fn revision_counts_follow_references() {
        let spec = CorpusSpec::paper();
        assert_eq!(spec.revision_count(Design::Intel1D), 37);
        assert_eq!(spec.revision_count(Design::Intel6), 28);
        assert_eq!(spec.revision_count(Design::Intel12), 4);
        // AMD counts are coarse and bounded.
        for design in Design::amd() {
            let n = spec.revision_count(design);
            assert!((2..=14).contains(&n), "{design}: {n}");
        }
    }

    #[test]
    fn intel_documents_have_more_revisions_than_amd_on_average() {
        let spec = CorpusSpec::paper();
        let avg = |iter: &mut dyn Iterator<Item = Design>| {
            let (sum, n) = iter.fold((0u32, 0u32), |(s, n), d| {
                (s + spec.revision_count(d), n + 1)
            });
            f64::from(sum) / f64::from(n)
        };
        let intel = avg(&mut Design::intel());
        let amd = avg(&mut Design::amd());
        assert!(intel > amd, "intel {intel} <= amd {amd}");
    }

    #[test]
    fn scaled_keeps_invariants() {
        let small = CorpusSpec::scaled(0.1);
        assert!(small.intel_total >= small.intel_unique);
        assert!(small.amd_total >= small.amd_unique);
        assert!(small.core1_to_core10 >= 1);
        assert!(small.defects.name_collisions == 1);
        assert!(small.gen6_to_10_shared >= small.core1_to_core10);
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn scaled_rejects_bad_factor() {
        let _ = CorpusSpec::scaled(0.0);
    }

    #[test]
    fn vendor_pair_selection() {
        let pair = VendorPair { intel: 1, amd: 2 };
        assert_eq!(pair.get(Vendor::Intel), 1);
        assert_eq!(pair.get(Vendor::Amd), 2);
    }

    #[test]
    fn document_weights_are_positive() {
        let spec = CorpusSpec::paper();
        for design in Design::ALL {
            assert!(spec.document_weight(design) > 0.0);
        }
    }
}
