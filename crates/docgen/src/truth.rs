//! Ground truth emitted alongside the synthetic corpus.
//!
//! The real study had no ground truth — annotations *were* the product.
//! The synthetic corpus knows the true unique keys, categories and defects,
//! which lets the repository additionally evaluate the extraction, dedup
//! and classification stages (`rememberr::evaluate`).

use rememberr_model::{Date, Design, ErratumId, UniqueKey, Vendor};
use serde::{Deserialize, Serialize};

use crate::sampler::BugProfile;

/// One listing of a bug in one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrueOccurrence {
    /// The document (design) listing the bug.
    pub design: Design,
    /// Erratum number within that document.
    pub number: u32,
    /// 1-based revision that first lists the bug.
    pub revision: u32,
    /// Date of that revision (the true disclosure date).
    pub date: Date,
    /// Title phrasing variant (non-zero for near-duplicate listings).
    pub title_variant: u32,
}

impl TrueOccurrence {
    /// The erratum identifier of this occurrence.
    pub fn id(&self) -> ErratumId {
        ErratumId::new(self.design, self.number)
    }
}

/// A unique bug with its true labels and every listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrueBug {
    /// Ground-truth unique key.
    pub key: UniqueKey,
    /// Vendor of the affected designs.
    pub vendor: Vendor,
    /// The design on which the bug was first discovered.
    pub discovery: Design,
    /// True annotation, workaround and fix status.
    pub profile: BugProfile,
    /// All listings, sorted by design index (intra-document duplicates
    /// appear as two occurrences with the same design).
    pub occurrences: Vec<TrueOccurrence>,
}

impl TrueBug {
    /// The earliest disclosure date across all occurrences.
    pub fn first_disclosure(&self) -> Option<Date> {
        self.occurrences.iter().map(|o| o.date).min()
    }

    /// True if the bug is listed by the given design.
    pub fn affects(&self, design: Design) -> bool {
        self.occurrences.iter().any(|o| o.design == design)
    }
}

/// Kinds of injected field defects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FieldDefect {
    /// The implications field is missing.
    MissingImplications,
    /// The workaround field is missing.
    MissingWorkaround,
    /// The workaround field appears twice.
    DuplicateWorkaround,
}

/// Ledger of every injected "errata in errata" defect.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefectLedger {
    /// Errata claimed as newly added by two different revisions.
    pub double_added: Vec<ErratumId>,
    /// Errata never mentioned in the revision summary.
    pub unmentioned: Vec<ErratumId>,
    /// `(design, number)` pairs where one number names two distinct errata.
    pub name_collisions: Vec<(Design, u32)>,
    /// Errata with a missing or duplicated field.
    pub field_defects: Vec<(ErratumId, FieldDefect)>,
    /// Errata whose printed MSR number is wrong.
    pub wrong_msr: Vec<ErratumId>,
    /// `(design, number_a, number_b)` intra-document duplicate pairs.
    pub intra_doc_pairs: Vec<(Design, u32, u32)>,
}

impl DefectLedger {
    /// Total number of injected defect instances.
    pub fn total(&self) -> usize {
        self.double_added.len()
            + self.unmentioned.len()
            + self.name_collisions.len()
            + self.field_defects.len()
            + self.wrong_msr.len()
            + self.intra_doc_pairs.len()
    }
}

/// Complete ground truth for a generated corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Every unique bug with its labels and listings.
    pub bugs: Vec<TrueBug>,
    /// Injected document defects.
    pub defects: DefectLedger,
    /// The AMD "near-miss" pair: two *distinct* bugs whose errata are
    /// textually identical except for the workaround (the paper's
    /// no. 1327 / no. 1329 example). `None` for corpora too small to carry
    /// the pair.
    pub amd_near_miss: Option<(UniqueKey, UniqueKey)>,
}

impl GroundTruth {
    /// Number of unique bugs for a vendor.
    pub fn unique_count(&self, vendor: Vendor) -> usize {
        self.bugs.iter().filter(|b| b.vendor == vendor).count()
    }

    /// Total erratum entries (listings) for a vendor.
    pub fn total_count(&self, vendor: Vendor) -> usize {
        self.bugs
            .iter()
            .filter(|b| b.vendor == vendor)
            .map(|b| b.occurrences.len())
            .sum()
    }

    /// Grand total of erratum entries.
    pub fn grand_total(&self) -> usize {
        self.bugs.iter().map(|b| b.occurrences.len()).sum()
    }

    /// Looks up the bug listed under a given erratum id.
    ///
    /// A name-collision id maps to *two* bugs; this returns the first in key
    /// order (use [`GroundTruth::bugs_for_id`] to see collisions).
    pub fn bug_for_id(&self, id: ErratumId) -> Option<&TrueBug> {
        self.bugs
            .iter()
            .find(|b| b.occurrences.iter().any(|o| o.id() == id))
    }

    /// All bugs listed under a given erratum id (two for collisions).
    pub fn bugs_for_id(&self, id: ErratumId) -> Vec<&TrueBug> {
        self.bugs
            .iter()
            .filter(|b| b.occurrences.iter().any(|o| o.id() == id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_model::Annotation;

    fn bug(key: u32, designs: &[(Design, u32)]) -> TrueBug {
        TrueBug {
            key: UniqueKey(key),
            vendor: designs[0].0.vendor(),
            discovery: designs[0].0,
            profile: BugProfile {
                annotation: Annotation::new(),
                workaround: Default::default(),
                fix: Default::default(),
            },
            occurrences: designs
                .iter()
                .enumerate()
                .map(|(i, &(design, number))| TrueOccurrence {
                    design,
                    number,
                    revision: 1 + i as u32,
                    date: design.release_date(),
                    title_variant: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn counting() {
        let gt = GroundTruth {
            bugs: vec![
                bug(1, &[(Design::Intel6, 1), (Design::Intel7_8, 1)]),
                bug(2, &[(Design::Amd19h, 1361)]),
            ],
            defects: DefectLedger::default(),
            amd_near_miss: None,
        };
        assert_eq!(gt.unique_count(Vendor::Intel), 1);
        assert_eq!(gt.total_count(Vendor::Intel), 2);
        assert_eq!(gt.unique_count(Vendor::Amd), 1);
        assert_eq!(gt.grand_total(), 3);
    }

    #[test]
    fn id_lookup() {
        let gt = GroundTruth {
            bugs: vec![bug(1, &[(Design::Intel6, 42)])],
            defects: DefectLedger::default(),
            amd_near_miss: None,
        };
        let id = ErratumId::new(Design::Intel6, 42);
        assert_eq!(gt.bug_for_id(id).unwrap().key, UniqueKey(1));
        assert!(gt.bug_for_id(ErratumId::new(Design::Intel6, 43)).is_none());
        assert_eq!(gt.bugs_for_id(id).len(), 1);
    }

    #[test]
    fn first_disclosure_is_min() {
        let b = bug(1, &[(Design::Intel7_8, 5), (Design::Intel6, 9)]);
        assert_eq!(b.first_disclosure(), Some(Design::Intel6.release_date()));
        assert!(b.affects(Design::Intel6));
        assert!(!b.affects(Design::Intel10));
    }

    #[test]
    fn ledger_total() {
        let mut ledger = DefectLedger::default();
        ledger.double_added.push(ErratumId::new(Design::Intel6, 1));
        ledger.intra_doc_pairs.push((Design::Intel6, 1, 2));
        assert_eq!(ledger.total(), 2);
    }
}
