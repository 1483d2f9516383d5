//! Assembly of structured errata documents and ground truth.
//!
//! This stage turns the bug pool into the 28 [`ErrataDocument`]s: it
//! schedules disclosure dates onto revision grids, numbers errata the way
//! each vendor does (Intel: per-document sequential with a prefix; AMD: one
//! global number per bug), renders the prose, injects the "errata in
//! errata" defects with the paper's exact counts, and emits the ground
//! truth used for pipeline evaluation.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rememberr_model::{Date, Design, ErrataDocument, Erratum, ErratumId, Revision, Vendor};

use crate::bugpool::{build_pool, BugSeed};
use crate::rng::CorpusRng;
use crate::sampler::{sample_profile, BugProfile};
use crate::spec::{CorpusSpec, SpecError};
use crate::text::{alternative_workaround, render_bug_text, vendor_boilerplate};
use crate::timeline::{raw_disclosure_dates, RevisionSchedule};
use crate::truth::{DefectLedger, FieldDefect, GroundTruth, TrueBug, TrueOccurrence};

/// The assembled corpus: structured documents plus ground truth.
///
/// The defect ledger inside [`GroundTruth`] also instructs the text
/// renderer (duplicated fields only exist at the page-stream level).
#[derive(Debug, Clone)]
pub struct AssembledCorpus {
    /// One structured document per design, in [`Design::ALL`] order.
    pub documents: Vec<ErrataDocument>,
    /// Ground truth: bugs, labels, occurrences, defects.
    pub truth: GroundTruth,
}

/// One planned listing of a bug before numbering.
#[derive(Debug, Clone, Copy)]
struct OccRec {
    design: Design,
    revision: u32,
    date: Date,
    variant: u32,
    /// Erratum number, assigned by the numbering pass.
    number: u32,
}

/// Title styles tried per bug before a seed is declared unusable.
const MAX_TITLE_STYLES: u32 = 512;

/// Assembles the full corpus for a specification.
///
/// # Errors
///
/// Returns [`SpecError::TitlesExhausted`] when some bug's title collides
/// with another bug's in each of its 512 title styles; the seed decides
/// which titles the pool draws.
pub fn assemble(spec: &CorpusSpec) -> Result<AssembledCorpus, SpecError> {
    let mut rng = CorpusRng::seed_from_u64(spec.seed);
    let pool = build_pool(spec, &mut rng);
    let mut profiles: Vec<BugProfile> = pool
        .iter()
        .map(|bug| sample_profile(spec, bug, &mut rng))
        .collect();

    let near_miss = apply_amd_near_miss_pair(&pool, &mut profiles, &mut rng);
    let near_miss_keys = near_miss.map(|(a, b)| (pool[a].key, pool[b].key));

    let schedules: Vec<RevisionSchedule> = Design::ALL
        .iter()
        .map(|&d| RevisionSchedule::build(spec, d))
        .collect();

    // ---- Occurrence scheduling ---------------------------------------------
    let mut occs: Vec<Vec<OccRec>> = pool
        .iter()
        .map(|bug| {
            raw_disclosure_dates(spec, &bug.affected, bug.discovery, &mut rng)
                .into_iter()
                .map(|(design, raw)| {
                    let (revision, date) = schedules[design.index()].snap(raw);
                    OccRec {
                        design,
                        revision,
                        date,
                        variant: 0,
                        number: 0,
                    }
                })
                .collect()
        })
        .collect();

    let mut ledger = DefectLedger::default();
    plan_intra_doc_duplicates(spec, &pool, &mut occs, &schedules, &mut rng);
    plan_near_duplicate_variants(spec, &pool, &mut occs, &mut rng);

    // ---- Numbering ----------------------------------------------------------
    assign_intel_numbers(&pool, &mut occs);
    assign_amd_numbers(&pool, &mut occs, &mut rng);

    // ---- Title uniquification -----------------------------------------------
    // Intel duplicate detection rests on "identical titles imply identical
    // errata" (Section IV-A); distinct bugs therefore must not share a
    // normalized title. Styles reshuffle phrasing until every title is
    // unique.
    let styles = uniquify_titles(spec, &pool, &profiles)?;

    // ---- Render prose and build documents ---------------------------------
    let mut documents: Vec<ErrataDocument> = Design::ALL
        .iter()
        .map(|&d| ErrataDocument::new(d))
        .collect();

    for (bug_idx, bug) in pool.iter().enumerate() {
        // Fill concrete-level ground-truth strings from the canonical text.
        let canonical = render_bug_text(spec, bug, &profiles[bug_idx], 0, styles[bug_idx]);
        profiles[bug_idx].annotation.concrete_triggers = canonical.concrete_triggers.clone();
        profiles[bug_idx].annotation.concrete_contexts = canonical.concrete_contexts.clone();
        profiles[bug_idx].annotation.concrete_effects = canonical.concrete_effects.clone();

        for occ in &occs[bug_idx] {
            let text = if occ.variant == 0 {
                canonical.clone()
            } else {
                render_bug_text(spec, bug, &profiles[bug_idx], occ.variant, styles[bug_idx])
            };
            let mut implications = text.implications;
            if rng.random_bool(0.3) {
                implications.push(' ');
                implications.push_str(vendor_boilerplate(bug.vendor));
            }
            documents[occ.design.index()].errata.push(Erratum {
                id: ErratumId::new(occ.design, occ.number),
                title: text.title,
                description: text.description,
                implications,
                workaround: text.workaround,
                status: text.status,
            });
        }
    }
    for doc in &mut documents {
        doc.errata.sort_by_key(|e| e.id.number);
    }

    // The AMD near-miss pair becomes textually identical except for the
    // workaround (errata "1327 vs 1329": distinguishable only by that field).
    if let Some((a_idx, b_idx)) = near_miss {
        let a_text = render_bug_text(spec, &pool[a_idx], &profiles[a_idx], 0, styles[a_idx]);
        let b_design = pool[b_idx].affected[0];
        let b_number = occs[b_idx][0].number;
        let doc = &mut documents[b_design.index()];
        if let Some(entry) = doc.errata.iter_mut().find(|e| e.id.number == b_number) {
            entry.title = a_text.title;
            entry.description = a_text.description.clone();
            entry.implications = a_text.implications;
            entry.workaround = alternative_workaround(profiles[b_idx].workaround).to_string();
        }
        profiles[b_idx].annotation.concrete_triggers = a_text.concrete_triggers;
        profiles[b_idx].annotation.concrete_contexts = a_text.concrete_contexts;
        profiles[b_idx].annotation.concrete_effects = a_text.concrete_effects;
    }

    // ---- Revision histories -------------------------------------------------
    for (design_idx, doc) in documents.iter_mut().enumerate() {
        let schedule = &schedules[design_idx];
        let mut revisions: Vec<Revision> = schedule
            .dates
            .iter()
            .enumerate()
            .map(|(i, &date)| Revision {
                number: (i + 1) as u32,
                date,
                added: Vec::new(),
            })
            .collect();
        for occ_list in occs.iter() {
            for occ in occ_list {
                if occ.design.index() == design_idx {
                    revisions[(occ.revision - 1) as usize]
                        .added
                        .push(occ.number);
                }
            }
        }
        for rev in &mut revisions {
            rev.added.sort_unstable();
        }
        doc.revisions = revisions;
    }

    // ---- Defect injection ---------------------------------------------------
    inject_double_added(spec, &mut documents, &mut ledger);
    inject_unmentioned(spec, &mut documents, &mut ledger);
    inject_name_collision(spec, &mut documents, &mut occs, &pool, &mut ledger);
    inject_field_defects(spec, &mut documents, &mut ledger);
    inject_wrong_msr(spec, &pool, &profiles, &occs, &mut documents, &mut ledger);

    // ---- Summary tables of changes ------------------------------------------
    // Fixed errata are attributed to a stepping; the per-erratum status
    // field points here ("refer to the Summary Table of Changes").
    for (bug_idx, bug) in pool.iter().enumerate() {
        if profiles[bug_idx].fix != rememberr_model::FixStatus::Fixed {
            continue;
        }
        for occ in &occs[bug_idx] {
            let steppings = occ.design.steppings();
            let pick = (u64::from(bug.key.value()) ^ spec.seed) as usize % steppings.len();
            // Fixes land in a late stepping: skip the initial one.
            let stepping = steppings[pick.max(1).min(steppings.len() - 1)];
            documents[occ.design.index()]
                .fix_summary
                .push(rememberr_model::FixedIn {
                    number: occ.number,
                    stepping: stepping.to_string(),
                });
        }
    }
    for doc in &mut documents {
        doc.fix_summary.sort_by_key(|f| f.number);
        doc.fix_summary.dedup();
    }

    // ---- Ground truth --------------------------------------------------------
    let bugs: Vec<TrueBug> = pool
        .into_iter()
        .zip(profiles)
        .zip(occs)
        .map(|((bug, profile), occ_list)| TrueBug {
            key: bug.key,
            vendor: bug.vendor,
            discovery: bug.discovery,
            profile,
            occurrences: occ_list
                .into_iter()
                .map(|o| TrueOccurrence {
                    design: o.design,
                    number: o.number,
                    revision: o.revision,
                    date: o.date,
                    title_variant: o.variant,
                })
                .collect(),
        })
        .collect();

    ledger.intra_doc_pairs = ledger_intra_doc_pairs(&bugs);

    Ok(AssembledCorpus {
        documents,
        truth: GroundTruth {
            bugs,
            defects: ledger,
            amd_near_miss: near_miss_keys,
        },
    })
}

/// Finds a style per bug such that all normalized titles are distinct.
fn uniquify_titles(
    spec: &CorpusSpec,
    pool: &[BugSeed],
    profiles: &[BugProfile],
) -> Result<Vec<u32>, SpecError> {
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut styles = vec![0u32; pool.len()];
    for (i, bug) in pool.iter().enumerate() {
        let unique = (0..MAX_TITLE_STYLES).find(|&style| {
            let text = render_bug_text(spec, bug, &profiles[i], 0, style);
            // `insert` claims the title only if no earlier bug holds it.
            used.insert(rememberr_textkit::normalized_key(&text.title))
        });
        styles[i] = unique.ok_or(SpecError::TitlesExhausted(bug.key))?;
    }
    Ok(styles)
}

/// Makes two single-document AMD bugs textually identical except for their
/// workarounds (the paper's example: errata no. 1327 and no. 1329 "only
/// differ in their suggested workaround but may originate from distinct
/// root causes").
fn apply_amd_near_miss_pair(
    pool: &[BugSeed],
    profiles: &mut [BugProfile],
    _rng: &mut CorpusRng,
) -> Option<(usize, usize)> {
    let mut candidates = pool
        .iter()
        .enumerate()
        .filter(|(_, b)| b.vendor == Vendor::Amd && b.affected.len() == 1);
    let (first, a) = candidates.next()?;
    let (second, _) = candidates.find(|(_, b)| b.affected == a.affected)?;
    let mut clone = profiles[first].clone();
    // A different workaround category keeps the pair distinguishable only by
    // its workaround field.
    clone.workaround = alternative_workaround_category(profiles[first].workaround);
    profiles[second] = clone;
    Some((first, second))
}

fn alternative_workaround_category(
    w: rememberr_model::WorkaroundCategory,
) -> rememberr_model::WorkaroundCategory {
    use rememberr_model::WorkaroundCategory::*;
    match w {
        Bios => Software,
        Software => Bios,
        Peripherals => Software,
        Absent => Bios,
        None => Software,
        DocumentationFix => Software,
    }
}

/// Duplicates a listing inside the same document for the planned number of
/// pairs, spread over the planned number of documents.
fn plan_intra_doc_duplicates(
    spec: &CorpusSpec,
    pool: &[BugSeed],
    occs: &mut [Vec<OccRec>],
    schedules: &[RevisionSchedule],
    rng: &mut CorpusRng,
) {
    let docs: Vec<Design> = Design::intel()
        .take(spec.defects.intra_doc_duplicate_docs.max(1))
        .collect();
    let mut placed = 0usize;
    let mut bug_order: Vec<usize> = (0..pool.len()).collect();
    bug_order.shuffle(rng);
    'outer: for round in 0.. {
        for &doc in &docs {
            if placed >= spec.defects.intra_doc_duplicate_pairs {
                break 'outer;
            }
            // Find the next bug with exactly one listing in `doc` and no
            // variant listings anywhere yet (each duplicated pair must be a
            // distinct bug, or two injected copies would merge with each
            // other instead of counting as separate pairs).
            let Some(&bug_idx) = bug_order.iter().find(|&&i| {
                occs[i].iter().filter(|o| o.design == doc).count() == 1
                    && occs[i].iter().all(|o| o.variant == 0)
            }) else {
                continue;
            };
            let base = *occs[bug_idx]
                .iter()
                .find(|o| o.design == doc)
                .expect("listing exists");
            let schedule = &schedules[doc.index()];
            let next_rev = (base.revision + 1).min(schedule.len() as u32);
            let date = schedule.dates[(next_rev - 1) as usize];
            occs[bug_idx].push(OccRec {
                design: doc,
                revision: next_rev,
                date,
                variant: 1, // phrased slightly differently, as in real documents
                number: 0,
            });
            placed += 1;
            // Rotate the order so different bugs are chosen per document.
            bug_order.rotate_left(1);
        }
        if round > pool.len() {
            break;
        }
    }
}

/// Marks the second listing of some multi-document Intel bugs with a title
/// phrasing variant — the 29 pairs the study had to match manually.
fn plan_near_duplicate_variants(
    spec: &CorpusSpec,
    pool: &[BugSeed],
    occs: &mut [Vec<OccRec>],
    rng: &mut CorpusRng,
) {
    let mut candidates: Vec<usize> = (0..pool.len())
        .filter(|&i| {
            pool[i].vendor == Vendor::Intel
                && occs[i].len() >= 2
                && occs[i].iter().all(|o| o.variant == 0)
        })
        .collect();
    candidates.shuffle(rng);
    for &bug_idx in candidates.iter().take(spec.near_duplicate_pairs) {
        occs[bug_idx][1].variant = 1;
    }
}

/// Intel numbering: per document, sequential in disclosure order.
fn assign_intel_numbers(pool: &[BugSeed], occs: &mut [Vec<OccRec>]) {
    for design in Design::intel() {
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for (bug_idx, occ_list) in occs.iter().enumerate() {
            for (occ_idx, occ) in occ_list.iter().enumerate() {
                if occ.design == design {
                    slots.push((bug_idx, occ_idx));
                }
            }
        }
        slots.sort_by_key(|&(b, o)| (occs[b][o].revision, occs[b][o].date, pool[b].key, o));
        for (number, &(b, o)) in slots.iter().enumerate() {
            occs[b][o].number = (number + 1) as u32;
        }
    }
}

/// AMD numbering: one global number per bug, shared across documents,
/// ascending with gaps in first-disclosure order.
fn assign_amd_numbers(pool: &[BugSeed], occs: &mut [Vec<OccRec>], rng: &mut CorpusRng) {
    let mut amd_bugs: Vec<usize> = (0..pool.len())
        .filter(|&i| pool[i].vendor == Vendor::Amd)
        .collect();
    amd_bugs.sort_by_key(|&i| {
        (
            occs[i].iter().map(|o| o.date).min().expect("occurrences"),
            pool[i].key,
        )
    });
    let mut number = 57u32;
    for &bug_idx in &amd_bugs {
        number += rng.random_range(1..=3);
        for occ in &mut occs[bug_idx] {
            occ.number = number;
        }
    }
}

/// Picks a deterministic spread of Intel documents for a defect class.
fn defect_docs(count: usize, offset: usize) -> Vec<Design> {
    Design::intel().skip(offset).take(count).collect()
}

/// Revision logs that claim the same erratum twice (8 errata / 3 docs).
fn inject_double_added(
    spec: &CorpusSpec,
    documents: &mut [ErrataDocument],
    ledger: &mut DefectLedger,
) {
    let docs = defect_docs(spec.defects.double_added_docs, 1);
    let per_doc = spec.defects.double_added_errata.div_ceil(docs.len().max(1));
    let mut remaining = spec.defects.double_added_errata;
    for design in docs {
        let doc = &mut documents[design.index()];
        let take = per_doc.min(remaining);
        // Choose errata added before the last revision so a "next revision"
        // exists to repeat the claim.
        let mut chosen: Vec<u32> = Vec::new();
        for rev_idx in 0..doc.revisions.len().saturating_sub(1) {
            for &n in &doc.revisions[rev_idx].added {
                if chosen.len() < take {
                    chosen.push(n);
                }
            }
            if chosen.len() >= take {
                break;
            }
        }
        let chosen_len = chosen.len();
        for (i, n) in chosen.into_iter().enumerate() {
            // Repeat the claim in a later revision.
            let later = (i % doc.revisions.len().saturating_sub(1)) + 1;
            doc.revisions[later].added.push(n);
            doc.revisions[later].added.sort_unstable();
            ledger.double_added.push(ErratumId::new(design, n));
        }
        remaining -= chosen_len;
        if remaining == 0 {
            break;
        }
    }
}

/// Errata silently dropped from the revision summary (12 errata / 2 docs).
fn inject_unmentioned(
    spec: &CorpusSpec,
    documents: &mut [ErrataDocument],
    ledger: &mut DefectLedger,
) {
    let docs = defect_docs(spec.defects.unmentioned_docs, 4);
    let per_doc = spec.defects.unmentioned_errata.div_ceil(docs.len().max(1));
    let mut remaining = spec.defects.unmentioned_errata;
    let double_added: Vec<ErratumId> = ledger.double_added.clone();
    for design in docs {
        let doc = &mut documents[design.index()];
        let take = per_doc.min(remaining);
        let mut dropped = 0usize;
        // Drop mentions of errata in the middle of the document so neighbor
        // interpolation has anchors on both sides.
        let numbers: Vec<u32> = doc
            .errata
            .iter()
            .map(|e| e.id.number)
            .filter(|&n| !double_added.contains(&ErratumId::new(design, n)))
            .collect();
        for &n in numbers.iter().skip(numbers.len() / 3) {
            if dropped >= take {
                break;
            }
            let mut was_mentioned = false;
            for rev in &mut doc.revisions {
                let before = rev.added.len();
                rev.added.retain(|&x| x != n);
                was_mentioned |= rev.added.len() != before;
            }
            if was_mentioned {
                ledger.unmentioned.push(ErratumId::new(design, n));
                dropped += 1;
            }
        }
        remaining -= dropped;
        if remaining == 0 {
            break;
        }
    }
}

/// One erratum name denoting two different errata (the AAJ143 case: the
/// collision lives in the Core 1 Desktop document, whose prefix is `AAJ`).
fn inject_name_collision(
    spec: &CorpusSpec,
    documents: &mut [ErrataDocument],
    occs: &mut [Vec<OccRec>],
    _pool: &[BugSeed],
    ledger: &mut DefectLedger,
) {
    if spec.defects.name_collisions == 0 {
        return;
    }
    let design = Design::Intel1D;
    let doc = &mut documents[design.index()];
    if doc.errata.len() < 2 {
        return;
    }
    // Prefer the number 143 when the document is large enough.
    let target_pos = doc
        .errata
        .iter()
        .position(|e| e.id.number == 143)
        .unwrap_or(doc.errata.len() / 3);
    let victim_pos = (target_pos + doc.errata.len() / 2) % doc.errata.len();
    if victim_pos == target_pos {
        return;
    }
    let target_number = doc.errata[target_pos].id.number;
    let old_number = doc.errata[victim_pos].id.number;
    doc.errata[victim_pos].id.number = target_number;
    // Ground truth follows the rename.
    for occ_list in occs.iter_mut() {
        for occ in occ_list.iter_mut() {
            if occ.design == design && occ.number == old_number {
                occ.number = target_number;
            }
        }
    }
    doc.errata.sort_by_key(|e| e.id.number);
    ledger.name_collisions.push((design, target_number));
}

/// Missing or duplicated fields (7 errata / 4 docs).
fn inject_field_defects(
    spec: &CorpusSpec,
    documents: &mut [ErrataDocument],
    ledger: &mut DefectLedger,
) {
    let docs = defect_docs(spec.defects.field_defect_docs, 6);
    let kinds = [
        FieldDefect::MissingImplications,
        FieldDefect::MissingWorkaround,
        FieldDefect::DuplicateWorkaround,
    ];
    let mut injected = 0usize;
    'outer: for (i, design) in docs.iter().cycle().enumerate() {
        if injected >= spec.defects.field_defect_errata {
            break 'outer;
        }
        let doc = &mut documents[design.index()];
        let pos = (i * 7 + 3) % doc.errata.len().max(1);
        let Some(erratum) = doc.errata.get_mut(pos) else {
            continue;
        };
        let id = erratum.id;
        if ledger.field_defects.iter().any(|(e, _)| *e == id) {
            continue;
        }
        let kind = kinds[injected % kinds.len()];
        match kind {
            FieldDefect::MissingImplications => erratum.implications.clear(),
            FieldDefect::MissingWorkaround => erratum.workaround.clear(),
            // Duplication only exists at the page-stream level; the
            // renderer consults the ledger.
            FieldDefect::DuplicateWorkaround => {}
        }
        ledger.field_defects.push((id, kind));
        injected += 1;
        if i > documents.len() * 1000 {
            break;
        }
    }
}

/// Erroneous printed MSR numbers (3 errata / 3 docs).
fn inject_wrong_msr(
    spec: &CorpusSpec,
    pool: &[BugSeed],
    profiles: &[BugProfile],
    occs: &[Vec<OccRec>],
    documents: &mut [ErrataDocument],
    ledger: &mut DefectLedger,
) {
    let mut remaining = spec.defects.wrong_msr_errata;
    let mut used_docs: Vec<Design> = Vec::new();
    for (bug_idx, profile) in profiles.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        let Some(msr) = profile.annotation.msrs.first() else {
            continue;
        };
        // Variant-marked listings rely on body identity for duplicate
        // matching; keep the defect away from them so Intel dedup recall
        // stays structurally perfect (the study matched such pairs by hand).
        if occs[bug_idx].iter().any(|o| o.variant != 0) {
            continue;
        }
        let design = pool[bug_idx].affected[0];
        if used_docs.contains(&design) {
            continue;
        }
        let Some(number) = occs[bug_idx]
            .iter()
            .find(|o| o.design == design)
            .map(|o| o.number)
        else {
            continue;
        };
        let doc = &mut documents[design.index()];
        let good = format!("MSR {:#X}", msr.claimed_address);
        let bad = format!("MSR {:#X}", msr.claimed_address ^ 0x5000);
        // Mutate exactly this bug's own listing.
        if let Some(erratum) = doc
            .errata
            .iter_mut()
            .find(|e| e.id.number == number && e.description.contains(&good))
        {
            erratum.description = erratum.description.replacen(&good, &bad, 1);
            ledger.wrong_msr.push(erratum.id);
            used_docs.push(design);
            remaining -= 1;
        }
    }
}

/// Records the intra-document pairs into the ledger after numbering.
///
/// Called from [`assemble`] indirectly via ground truth: pairs are
/// recoverable as bugs with two occurrences in one design. This helper
/// derives the ledger entries from the occurrence table.
pub(crate) fn ledger_intra_doc_pairs(bugs: &[TrueBug]) -> Vec<(Design, u32, u32)> {
    let mut pairs = Vec::new();
    for bug in bugs {
        for (i, a) in bug.occurrences.iter().enumerate() {
            for b in bug.occurrences.iter().skip(i + 1) {
                if a.design == b.design {
                    pairs.push((a.design, a.number.min(b.number), a.number.max(b.number)));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AssembledCorpus {
        assemble(&CorpusSpec::scaled(0.12)).unwrap()
    }

    #[test]
    fn paper_corpus_has_exact_totals() {
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        let total: usize = corpus.documents.iter().map(|d| d.len()).sum();
        assert_eq!(total, 2_563);
        assert_eq!(corpus.truth.grand_total(), 2_563);
        assert_eq!(corpus.truth.unique_count(Vendor::Intel), 743);
        assert_eq!(corpus.truth.unique_count(Vendor::Amd), 385);
        assert_eq!(corpus.truth.total_count(Vendor::Intel), 2_057);
        assert_eq!(corpus.truth.total_count(Vendor::Amd), 506);
    }

    #[test]
    fn documents_match_ground_truth_occurrences() {
        let corpus = small();
        for doc in &corpus.documents {
            let in_truth = corpus
                .truth
                .bugs
                .iter()
                .flat_map(|b| &b.occurrences)
                .filter(|o| o.design == doc.design)
                .count();
            assert_eq!(doc.len(), in_truth, "{}", doc.design);
        }
    }

    #[test]
    fn intel_numbers_are_sequential_except_collision() {
        let corpus = small();
        for doc in corpus
            .documents
            .iter()
            .filter(|d| d.design.vendor() == Vendor::Intel)
        {
            let mut numbers: Vec<u32> = doc.errata.iter().map(|e| e.id.number).collect();
            numbers.sort_unstable();
            let collisions = corpus
                .truth
                .defects
                .name_collisions
                .iter()
                .filter(|(d, _)| *d == doc.design)
                .count();
            let mut unique = numbers.clone();
            unique.dedup();
            assert_eq!(numbers.len() - unique.len(), collisions, "{}", doc.design);
        }
    }

    #[test]
    fn amd_numbers_are_stable_across_documents() {
        let corpus = small();
        for bug in corpus.truth.bugs.iter().filter(|b| b.vendor == Vendor::Amd) {
            let numbers: std::collections::BTreeSet<u32> =
                bug.occurrences.iter().map(|o| o.number).collect();
            assert_eq!(numbers.len(), 1, "AMD bug {} has mixed numbers", bug.key);
        }
    }

    #[test]
    fn amd_numbers_unique_per_bug() {
        let corpus = small();
        let mut by_number: std::collections::BTreeMap<u32, u32> = Default::default();
        for bug in corpus.truth.bugs.iter().filter(|b| b.vendor == Vendor::Amd) {
            let n = bug.occurrences[0].number;
            if let Some(other) = by_number.insert(n, bug.key.value()) {
                panic!("AMD number {n} used by bugs {other} and {}", bug.key);
            }
        }
    }

    #[test]
    fn defect_counts_match_spec() {
        let spec = CorpusSpec::paper();
        let corpus = assemble(&spec).unwrap();
        let d = &corpus.truth.defects;
        assert_eq!(d.double_added.len(), spec.defects.double_added_errata);
        assert_eq!(d.unmentioned.len(), spec.defects.unmentioned_errata);
        assert_eq!(d.name_collisions.len(), spec.defects.name_collisions);
        assert_eq!(d.field_defects.len(), spec.defects.field_defect_errata);
        assert_eq!(d.wrong_msr.len(), spec.defects.wrong_msr_errata);
        let pairs = ledger_intra_doc_pairs(&corpus.truth.bugs);
        assert_eq!(pairs.len(), spec.defects.intra_doc_duplicate_pairs);
        let docs: std::collections::BTreeSet<Design> = pairs.iter().map(|(d, _, _)| *d).collect();
        assert_eq!(docs.len(), spec.defects.intra_doc_duplicate_docs);
    }

    #[test]
    fn double_added_numbers_appear_in_two_revisions() {
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        for id in &corpus.truth.defects.double_added {
            let doc = &corpus.documents[id.design.index()];
            let mentions: usize = doc
                .revisions
                .iter()
                .map(|r| r.added.iter().filter(|&&n| n == id.number).count())
                .sum();
            assert!(mentions >= 2, "{id} mentioned {mentions} times");
        }
    }

    #[test]
    fn unmentioned_numbers_absent_from_revision_logs() {
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        for id in &corpus.truth.defects.unmentioned {
            let doc = &corpus.documents[id.design.index()];
            assert!(doc.revisions.iter().all(|r| !r.added.contains(&id.number)));
            assert!(doc.erratum(id.number).is_some());
        }
    }

    #[test]
    fn name_collision_is_in_core1_desktop() {
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        let (design, number) = corpus.truth.defects.name_collisions[0];
        assert_eq!(design, Design::Intel1D);
        let doc = &corpus.documents[design.index()];
        let with_number = doc.errata.iter().filter(|e| e.id.number == number).count();
        assert_eq!(with_number, 2);
    }

    #[test]
    fn wrong_msr_descriptions_are_inconsistent() {
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        assert_eq!(corpus.truth.defects.wrong_msr.len(), 3);
        for id in &corpus.truth.defects.wrong_msr {
            let doc = &corpus.documents[id.design.index()];
            let erratum = doc
                .errata
                .iter()
                .find(|e| e.id == *id)
                .expect("defective erratum exists");
            // The printed address must not match any canonical register
            // window for the named register.
            assert!(erratum.description.contains("MSR 0x"));
        }
    }

    #[test]
    fn near_duplicates_have_variant_titles() {
        let spec = CorpusSpec::paper();
        let corpus = assemble(&spec).unwrap();
        let with_variant = corpus
            .truth
            .bugs
            .iter()
            .filter(|b| {
                b.vendor == Vendor::Intel
                    && b.occurrences.len() >= 2
                    && b.occurrences.iter().any(|o| o.title_variant > 0)
                    // Exclude intra-document duplicates (also variant-marked).
                    && {
                        let designs: std::collections::BTreeSet<_> =
                            b.occurrences.iter().map(|o| o.design).collect();
                        designs.len() == b.occurrences.len()
                    }
            })
            .count();
        assert_eq!(with_variant, spec.near_duplicate_pairs);
    }

    #[test]
    fn revisions_cover_all_errata_except_unmentioned() {
        let corpus = small();
        for doc in &corpus.documents {
            let mentioned: std::collections::BTreeSet<u32> = doc
                .revisions
                .iter()
                .flat_map(|r| r.added.iter().copied())
                .collect();
            for e in &doc.errata {
                let is_unmentioned = corpus.truth.defects.unmentioned.contains(&e.id);
                let is_collision_victim = corpus
                    .truth
                    .defects
                    .name_collisions
                    .iter()
                    .any(|(d, n)| *d == e.id.design && *n == e.id.number);
                if !is_unmentioned && !is_collision_victim {
                    assert!(
                        mentioned.contains(&e.id.number),
                        "{} not mentioned in any revision of {}",
                        e.id,
                        doc.design
                    );
                }
            }
        }
    }

    #[test]
    fn assembly_is_deterministic() {
        let spec = CorpusSpec::scaled(0.05);
        let a = assemble(&spec).unwrap();
        let b = assemble(&spec).unwrap();
        assert_eq!(a.documents, b.documents);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn amd_near_miss_pair_exists() {
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        // Two AMD bugs in the same document with identical descriptions but
        // different workarounds.
        let amd_docs = corpus
            .documents
            .iter()
            .filter(|d| d.design.vendor() == Vendor::Amd);
        let mut found = false;
        for doc in amd_docs {
            for (i, a) in doc.errata.iter().enumerate() {
                for b in doc.errata.iter().skip(i + 1) {
                    if a.description == b.description
                        && a.id.number != b.id.number
                        && a.workaround != b.workaround
                    {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "AMD near-miss pair (a la 1327/1329) missing");
    }
}

#[cfg(test)]
mod title_tests {
    use super::*;
    use rememberr_textkit::normalized_key;

    #[test]
    fn normalized_titles_are_unique_across_bugs() {
        // The Intel dedup rule "identical title => identical erratum" must
        // hold by construction on the full corpus.
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        let near_miss = corpus.truth.amd_near_miss;
        let mut seen: std::collections::HashMap<String, u32> = Default::default();
        for doc in &corpus.documents {
            for e in &doc.errata {
                let collision = corpus
                    .truth
                    .defects
                    .name_collisions
                    .iter()
                    .any(|(d, n)| *d == e.id.design && *n == e.id.number);
                if collision {
                    continue;
                }
                let Some(bug) = corpus.truth.bug_for_id(e.id) else {
                    continue;
                };
                // The AMD near-miss pair shares a title by design.
                if near_miss.is_some_and(|(a, b)| bug.key == a || bug.key == b) {
                    continue;
                }
                // Skip variant listings (near-duplicates) and the AMD
                // near-miss patch: key on canonical titles only.
                let occ = bug
                    .occurrences
                    .iter()
                    .find(|o| o.id() == e.id)
                    .expect("occurrence");
                if occ.title_variant != 0 {
                    continue;
                }
                let key = normalized_key(&e.title);
                if let Some(&other) = seen.get(&key) {
                    assert_eq!(
                        other,
                        bug.key.value(),
                        "distinct bugs share title {:?}",
                        e.title
                    );
                } else {
                    seen.insert(key, bug.key.value());
                }
            }
        }
    }

    #[test]
    fn same_bug_same_canonical_title_everywhere() {
        let corpus = assemble(&CorpusSpec::scaled(0.1)).unwrap();
        for bug in &corpus.truth.bugs {
            let mut canonical: Option<String> = None;
            for occ in &bug.occurrences {
                if occ.title_variant != 0 {
                    continue;
                }
                // Name-collision numbers retrieve an ambiguous entry.
                let collision = corpus
                    .truth
                    .defects
                    .name_collisions
                    .iter()
                    .any(|(d, n)| *d == occ.design && *n == occ.number);
                if collision {
                    continue;
                }
                let doc = &corpus.documents[occ.design.index()];
                let title = doc
                    .errata
                    .iter()
                    .find(|e| {
                        e.id.number == occ.number && {
                            // Name collisions give two errata the same number;
                            // match on any of them.
                            true
                        }
                    })
                    .map(|e| e.title.clone())
                    .expect("listing exists");
                match &canonical {
                    None => canonical = Some(title),
                    Some(c) => {
                        // Collision victims may retrieve the wrong entry;
                        // tolerate only exact matches or collision numbers.
                        let collision = corpus
                            .truth
                            .defects
                            .name_collisions
                            .iter()
                            .any(|(d, n)| *d == occ.design && *n == occ.number);
                        if !collision {
                            assert_eq!(c, &title, "bug {} retitled", bug.key);
                        }
                    }
                }
            }
        }
    }
}
