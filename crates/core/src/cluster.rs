//! The cluster table: every unique key's representative and members.
//!
//! The paper's deduplicated analyses (Figures 3–5, the observations) ask
//! per cluster which entries and designs share a bug. Answering each such
//! question with a scan of the whole entry list makes a figure quadratic in
//! the corpus; [`ClusterTable`] answers it with a binary search instead.
//! [`crate::Database`] builds the table lazily on first use and keeps it for
//! its lifetime: the table reads only keys, disclosure dates and erratum
//! ids, and annotation, the one mutation, changes none of them.

use std::collections::HashMap;

use rememberr_model::UniqueKey;

use crate::entry::DbEntry;

/// One representative per unique key, as `(key, entry position)` sorted by
/// key: the earliest disclosure, ties broken by design order, then erratum
/// number, then first position.
///
/// The one place representatives are chosen: the cluster table and
/// [`crate::QueryIndex::build`] both call it.
pub(crate) fn representatives(entries: &[DbEntry]) -> Vec<(UniqueKey, u32)> {
    let mut best: HashMap<UniqueKey, u32> = HashMap::new();
    for (i, e) in entries.iter().enumerate() {
        let Some(key) = e.key else { continue };
        let cand = (
            e.provenance.disclosure_date,
            e.design().index(),
            e.id().number,
        );
        best.entry(key)
            .and_modify(|pos| {
                let cur = &entries[*pos as usize];
                let incumbent = (
                    cur.provenance.disclosure_date,
                    cur.design().index(),
                    cur.id().number,
                );
                if cand < incumbent {
                    *pos = i as u32;
                }
            })
            .or_insert(i as u32);
    }
    let mut reps: Vec<(UniqueKey, u32)> = best.into_iter().collect();
    reps.sort_unstable_by_key(|&(key, _)| key);
    reps
}

/// Each unique key's representative and member positions.
#[derive(Debug)]
pub(crate) struct ClusterTable {
    /// `(key, representative position)`, sorted by key.
    reps: Vec<(UniqueKey, u32)>,
    /// `(key, member position)` of every keyed entry, sorted by key and
    /// then position, so each cluster is one contiguous run in entry order.
    members: Vec<(UniqueKey, u32)>,
}

impl ClusterTable {
    /// Builds the table in one pass over the entries plus two sorts.
    pub(crate) fn build(entries: &[DbEntry]) -> Self {
        let mut members: Vec<(UniqueKey, u32)> = entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.key.map(|key| (key, i as u32)))
            .collect();
        members.sort_unstable();
        ClusterTable {
            reps: representatives(entries),
            members,
        }
    }

    /// Representative positions, in key order.
    pub(crate) fn representatives(&self) -> impl Iterator<Item = usize> + '_ {
        self.reps.iter().map(|&(_, pos)| pos as usize)
    }

    /// Member positions of cluster `key` in entry order; empty for a key
    /// no entry carries.
    pub(crate) fn members(&self, key: UniqueKey) -> impl Iterator<Item = usize> + '_ {
        let start = self.members.partition_point(|&(k, _)| k < key);
        let end = start + self.members[start..].partition_point(|&(k, _)| k == key);
        self.members[start..end]
            .iter()
            .map(|&(_, pos)| pos as usize)
    }
}
