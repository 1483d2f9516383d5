//! Small shared helpers for the analyses.

use rememberr::{Database, DbEntry};
use rememberr_model::{Date, UniqueKey, Vendor};

/// A calendar date as a fractional year (x axis of the time figures).
pub fn year_of(date: Date) -> f64 {
    1970.0 + date.days_since_epoch() as f64 / 365.2425
}

/// Builds a cumulative step series from event dates: one `(year, count)`
/// point per event, counts starting at 1.
pub fn cumulative_series(mut dates: Vec<Date>) -> Vec<(f64, f64)> {
    dates.sort_unstable();
    dates
        .into_iter()
        .enumerate()
        .map(|(i, d)| (year_of(d), (i + 1) as f64))
        .collect()
}

/// Unique-bug representatives of a vendor.
pub fn unique_of(db: &Database, vendor: Vendor) -> Vec<&DbEntry> {
    db.unique_entries()
        .into_iter()
        .filter(|e| e.vendor() == vendor)
        .collect()
}

/// Distinct cluster keys listed by a design's document, sorted.
pub fn keys_in_document(db: &Database, design: rememberr_model::Design) -> Vec<UniqueKey> {
    let mut keys: Vec<UniqueKey> = db.entries_for(design).filter_map(|e| e.key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn year_of_epoch_and_midyear() {
        assert!((year_of(Date::new(1970, 1, 1).unwrap()) - 1970.0).abs() < 1e-9);
        let y = year_of(Date::new(2015, 7, 2).unwrap());
        assert!((y - 2015.5).abs() < 0.01, "{y}");
    }

    #[test]
    fn cumulative_series_sorts_and_counts() {
        let series = cumulative_series(vec![
            Date::new(2012, 5, 1).unwrap(),
            Date::new(2010, 1, 1).unwrap(),
            Date::new(2011, 3, 1).unwrap(),
        ]);
        assert_eq!(series.len(), 3);
        assert!(series[0].0 < series[1].0 && series[1].0 < series[2].0);
        assert_eq!(series[2].1, 3.0);
    }
}
