//! Figure 3: bug heredity across Intel documents.

use rememberr::Database;
use rememberr_model::{Design, UniqueKey, Vendor};

use crate::chart::MatrixChart;
use crate::util::keys_in_document;

/// Figure 3 result: the pairwise shared-bug matrix plus headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct HeredityAnalysis {
    /// Symmetric matrix: `cells[i][j]` = unique bugs shared between Intel
    /// documents `i` and `j` (diagonal: the document's unique-bug count).
    pub matrix: MatrixChart,
    /// Bugs listed in both the Core 1 and Core 10 documents (paper: 6).
    pub core1_to_core10: usize,
    /// The longest span (in document positions) any bug covers, with the
    /// spanning bug's key.
    pub longest_span: Option<(UniqueKey, usize)>,
}

/// Figure 3: number of common bugs across Intel documents.
pub fn fig03_heredity(db: &Database) -> HeredityAnalysis {
    let docs: Vec<Design> = Design::intel().collect();
    let labels: Vec<String> = docs.iter().map(|d| d.label().to_string()).collect();
    let mut matrix = MatrixChart::zeros(
        "Fig. 3 — Common bugs across Intel documents",
        labels.clone(),
        labels,
    );

    let keys_per_doc: Vec<Vec<UniqueKey>> = docs.iter().map(|&d| keys_in_document(db, d)).collect();

    for (i, keys_i) in keys_per_doc.iter().enumerate() {
        for (j, keys_j) in keys_per_doc.iter().enumerate() {
            let shared = if i == j {
                keys_i.len()
            } else {
                // Both lists are sorted (`keys_in_document`).
                keys_i
                    .iter()
                    .filter(|k| keys_j.binary_search(k).is_ok())
                    .count()
            };
            *matrix.get_mut(i, j) = shared as f64;
        }
    }

    // Core 1 (either segment) to Core 10.
    let core1_to_core10 = db
        .unique_entries()
        .iter()
        .filter(|e| e.vendor() == Vendor::Intel)
        .filter(|e| {
            let designs = db.cluster_designs(e.key.expect("keyed"));
            designs.contains(&Design::Intel1D) && designs.contains(&Design::Intel10)
        })
        .count();

    // Longest document span of any bug.
    let mut longest_span: Option<(UniqueKey, usize)> = None;
    for e in db.unique_entries() {
        if e.vendor() != Vendor::Intel {
            continue;
        }
        let key = e.key.expect("keyed");
        let designs = db.cluster_designs(key);
        if let (Some(first), Some(last)) = (designs.first(), designs.last()) {
            let span = last.index() - first.index();
            if longest_span.is_none_or(|(_, s)| span > s) {
                longest_span = Some((key, span));
            }
        }
    }

    HeredityAnalysis {
        matrix,
        core1_to_core10,
        longest_span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn matrix_is_symmetric_with_dominant_diagonal() {
        let analysis = fig03_heredity(&fixture(1.0).db);
        let m = &analysis.matrix;
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(m.get(i, j), m.get(j, i));
                assert!(m.get(i, j) <= m.get(i, i).min(m.get(j, j)));
            }
        }
    }

    #[test]
    fn desktop_and_mobile_share_the_vast_majority() {
        let analysis = fig03_heredity(&fixture(1.0).db);
        let m = &analysis.matrix;
        // Core 1 (D) is row 0, Core 1 (M) is row 1, etc.
        for gen in 0..5 {
            let (d, mob) = (2 * gen, 2 * gen + 1);
            let shared = m.get(d, mob);
            let smaller = m.get(d, d).min(m.get(mob, mob));
            assert!(
                shared / smaller > 0.5,
                "gen {gen}: shared {shared} of {smaller}"
            );
        }
    }

    #[test]
    fn six_bugs_from_core1_to_core10() {
        let analysis = fig03_heredity(&fixture(1.0).db);
        assert_eq!(analysis.core1_to_core10, 6);
    }

    #[test]
    fn gens_6_to_10_block_is_salient() {
        let analysis = fig03_heredity(&fixture(1.0).db);
        let m = &analysis.matrix;
        // Documents 10..=13 are Core 6, 7/8, 8/9, 10.
        let in_block = m.get(10, 13);
        let outside = m.get(10, 15); // Core 6 vs Core 12
        assert!(
            in_block > outside,
            "block {in_block} should exceed outside {outside}"
        );
        assert!(in_block >= 104.0);
    }

    #[test]
    fn longest_span_reaches_core12() {
        // The Core 2 erratum resurfacing in Core 12 spans documents 2..15.
        let analysis = fig03_heredity(&fixture(1.0).db);
        let (_, span) = analysis.longest_span.expect("spanning bugs exist");
        assert_eq!(span, Design::Intel12.index() - Design::Intel2D.index());
    }
}
