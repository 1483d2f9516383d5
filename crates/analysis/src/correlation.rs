//! Figure 12: pairwise cross-correlation between abstract triggers.
//!
//! Cell `(a, b)` counts the unique errata requiring *at least* both
//! triggers `a` and `b` — the empirical basis for combining stimuli in a
//! testing campaign (Observation O8: some triggers correlate strongly,
//! most do not).

use rememberr::Database;
use rememberr_model::Trigger;

use crate::chart::MatrixChart;

/// Figure 12: the 34x34 trigger co-occurrence matrix over unique errata.
pub fn fig12_trigger_correlation(db: &Database) -> MatrixChart {
    let labels: Vec<String> = Trigger::ALL.iter().map(|t| t.code().to_string()).collect();
    let mut matrix = MatrixChart::zeros(
        "Fig. 12 — Pairwise cross-correlation between abstract triggers",
        labels.clone(),
        labels,
    );
    for entry in db.unique_entries() {
        let triggers = entry.annotation_or_empty().triggers;
        let members: Vec<Trigger> = triggers.iter().collect();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                *matrix.get_mut(a.index(), b.index()) += 1.0;
                *matrix.get_mut(b.index(), a.index()) += 1.0;
            }
        }
    }
    matrix
}

/// The strongest off-diagonal pairs of the correlation matrix, as
/// `(trigger, trigger, count)`, deduplicated (each unordered pair once).
pub fn top_trigger_pairs(matrix: &MatrixChart, n: usize) -> Vec<(Trigger, Trigger, f64)> {
    let mut pairs = Vec::new();
    for i in 0..Trigger::ALL.len() {
        for j in (i + 1)..Trigger::ALL.len() {
            let v = matrix.get(i, j);
            if v > 0.0 {
                pairs.push((Trigger::ALL[i], Trigger::ALL[j], v));
            }
        }
    }
    pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    pairs.truncate(n);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let m = fig12_trigger_correlation(&fixture(0.5).db);
        for i in 0..Trigger::ALL.len() {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..Trigger::ALL.len() {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn known_affinities_are_salient() {
        let m = fig12_trigger_correlation(&fixture(0.5).db);
        let cell = |a: Trigger, b: Trigger| m.get(a.index(), b.index());
        // Debug x VM transition outranks debug x floating point.
        assert!(
            cell(Trigger::Debug, Trigger::VmTransition)
                > cell(Trigger::Debug, Trigger::FloatingPoint)
        );
        // MSR configuration x throttling is among the hottest pairs.
        let top = top_trigger_pairs(&m, 6);
        assert!(
            top.iter().any(|(a, b, _)| {
                (*a == Trigger::ConfigRegister && *b == Trigger::Throttling)
                    || (*a == Trigger::Throttling && *b == Trigger::ConfigRegister)
            }),
            "top pairs: {top:?}"
        );
    }

    #[test]
    fn top_pairs_are_sorted_and_unique() {
        let m = fig12_trigger_correlation(&fixture(0.5).db);
        let top = top_trigger_pairs(&m, 10);
        for pair in top.windows(2) {
            assert!(pair[0].2 >= pair[1].2);
        }
        let mut seen = std::collections::BTreeSet::new();
        for (a, b, _) in &top {
            assert!(seen.insert((a.index().min(b.index()), a.index().max(b.index()))));
        }
    }

    #[test]
    fn most_triggers_do_not_interact() {
        // Observation O8: the matrix is sparse.
        let m = fig12_trigger_correlation(&fixture(0.5).db);
        let n = Trigger::ALL.len();
        let nonzero = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && m.get(i, j) > 0.0)
            .count();
        let density = nonzero as f64 / (n * (n - 1)) as f64;
        assert!(density < 0.8, "density {density}");
    }
}
