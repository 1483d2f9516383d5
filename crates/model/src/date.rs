//! Calendar dates for errata chronology.
//!
//! Errata documents carry release and revision dates; the paper's timeline
//! analyses (Figures 2, 4 and 5) only need day-resolution civil dates and
//! day arithmetic, so we implement a small proleptic-Gregorian date type
//! instead of pulling in a full time library.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::decimal::write_zero_padded;
use crate::error::ModelError;

/// A civil (proleptic Gregorian) calendar date.
///
/// Internally stored as year/month/day and validated on construction.
/// Ordering is chronological.
///
/// # Examples
///
/// ```
/// use rememberr_model::Date;
///
/// # fn main() -> Result<(), rememberr_model::ModelError> {
/// let release = Date::new(2015, 8, 5)?;
/// let update = Date::new(2016, 1, 12)?;
/// assert!(release < update);
/// assert_eq!(update - release, 160);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date from year, month (1-12) and day (1-31).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDate`] if the month or day is out of
    /// range for the given year.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self, ModelError> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(ModelError::InvalidDate { year, month, day });
        }
        Ok(Self { year, month, day })
    }

    /// Creates a date without validation; used for compile-time tables.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the date is invalid.
    pub(crate) const fn from_ymd_unchecked(year: i32, month: u8, day: u8) -> Self {
        Self { year, month, day }
    }

    /// The year component.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// The month component (1-12).
    pub fn month(&self) -> u8 {
        self.month
    }

    /// The day-of-month component (1-31).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// Number of days since 1970-01-01 (negative before the epoch).
    ///
    /// Uses the civil-from-days algorithm by Howard Hinnant.
    pub fn days_since_epoch(&self) -> i64 {
        let y = i64::from(self.year) - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let m = i64::from(self.month);
        let d = i64::from(self.day);
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// Builds a date from a number of days since 1970-01-01.
    pub fn from_days_since_epoch(days: i64) -> Self {
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = doy - (153 * mp + 2) / 5 + 1;
        let m = if mp < 10 { mp + 3 } else { mp - 9 };
        Self {
            year: (y + i64::from(m <= 2)) as i32,
            month: m as u8,
            day: d as u8,
        }
    }

    /// Returns this date shifted by a (possibly negative) number of days.
    pub fn add_days(&self, days: i64) -> Self {
        Self::from_days_since_epoch(self.days_since_epoch() + days)
    }

    /// Returns this date shifted forward by whole months, clamping the day.
    pub fn add_months(&self, months: i32) -> Self {
        let total = self.year * 12 + i32::from(self.month) - 1 + months;
        let year = total.div_euclid(12);
        let month = (total.rem_euclid(12) + 1) as u8;
        let day = self.day.min(days_in_month(year, month));
        Self { year, month, day }
    }

    /// Fractional years elapsed since another date (for plotting timelines).
    pub fn years_since(&self, other: Date) -> f64 {
        (self.days_since_epoch() - other.days_since_epoch()) as f64 / 365.2425
    }

    /// Writes the date as `YYYY-MM-DD`, its `Display` form: the year is
    /// zero-padded to four characters counting its sign (year -5 is
    /// `-005`, year 10000 is `10000`), the month and day to two digits.
    ///
    /// # Errors
    ///
    /// Returns the error `out` returns; writing to a `String` never fails.
    pub fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let year_width = if self.year < 0 {
            out.write_char('-')?;
            3
        } else {
            4
        };
        write_zero_padded(out, u64::from(self.year.unsigned_abs()), year_width)?;
        out.write_char('-')?;
        write_zero_padded(out, u64::from(self.month), 2)?;
        out.write_char('-')?;
        write_zero_padded(out, u64::from(self.day), 2)
    }
}

impl std::ops::Sub for Date {
    type Output = i64;

    /// Difference in days (`self - rhs`).
    fn sub(self, rhs: Self) -> i64 {
        self.days_since_epoch() - rhs.days_since_epoch()
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl FromStr for Date {
    type Err = ModelError;

    /// Parses `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(3, '-');
        let bad = || ModelError::DateParse(s.to_string());
        let year: i32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let month: u8 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let day: u8 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        Date::new(year, month, day)
    }
}

fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// English month names used when rendering document revision tables.
pub const MONTH_NAMES: [&str; 12] = [
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

impl Date {
    /// Renders the date the way vendor documents print it, e.g. `August 2015`.
    pub fn to_document_style(&self) -> String {
        format!("{} {}", MONTH_NAMES[usize::from(self.month) - 1], self.year)
    }

    /// Parses a document-style date such as `August 2015` (day defaults to 15,
    /// the mid-month convention the extraction pipeline uses for
    /// month-resolution dates).
    pub fn parse_document_style(s: &str) -> Result<Self, ModelError> {
        let mut it = s.split_whitespace();
        let bad = || ModelError::DateParse(s.to_string());
        let month_name = it.next().ok_or_else(bad)?;
        let year: i32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let month = MONTH_NAMES
            .iter()
            .position(|m| m.eq_ignore_ascii_case(month_name))
            .ok_or_else(bad)? as u8
            + 1;
        Date::new(year, month, 15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_epoch() {
        let d = Date::new(1970, 1, 1).unwrap();
        assert_eq!(d.days_since_epoch(), 0);
        assert_eq!(Date::from_days_since_epoch(0), d);
    }

    #[test]
    fn known_offsets() {
        assert_eq!(Date::new(1970, 1, 2).unwrap().days_since_epoch(), 1);
        assert_eq!(Date::new(1969, 12, 31).unwrap().days_since_epoch(), -1);
        assert_eq!(Date::new(2000, 3, 1).unwrap().days_since_epoch(), 11_017);
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2012));
        assert!(!is_leap_year(2013));
        assert!(Date::new(2012, 2, 29).is_ok());
        assert!(Date::new(2013, 2, 29).is_err());
    }

    #[test]
    fn rejects_invalid() {
        assert!(Date::new(2020, 0, 1).is_err());
        assert!(Date::new(2020, 13, 1).is_err());
        assert!(Date::new(2020, 4, 31).is_err());
        assert!(Date::new(2020, 1, 0).is_err());
    }

    #[test]
    fn ordering_is_chronological() {
        let a = Date::new(2010, 5, 20).unwrap();
        let b = Date::new(2010, 6, 1).unwrap();
        let c = Date::new(2011, 1, 1).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn subtraction_gives_day_difference() {
        let a = Date::new(2013, 1, 1).unwrap();
        let b = Date::new(2013, 12, 31).unwrap();
        assert_eq!(b - a, 364);
    }

    #[test]
    fn add_months_clamps_day() {
        let d = Date::new(2013, 1, 31).unwrap();
        let e = d.add_months(1);
        assert_eq!((e.year(), e.month(), e.day()), (2013, 2, 28));
        let f = d.add_months(13);
        assert_eq!((f.year(), f.month(), f.day()), (2014, 2, 28));
        let g = d.add_months(-2);
        assert_eq!((g.year(), g.month(), g.day()), (2012, 11, 30));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let d = Date::new(2022, 7, 4).unwrap();
        assert_eq!(d.to_string(), "2022-07-04");
        assert_eq!("2022-07-04".parse::<Date>().unwrap(), d);
        assert!("2022-07".parse::<Date>().is_err());
        assert!("garbage".parse::<Date>().is_err());
        // Years a snapshot can carry (its decoder takes any `i32`) print
        // as `{:04}` prints them, sign included.
        for year in [-5, 0, 5, 999, 2022, 10_000, i32::MIN, i32::MAX] {
            for (month, day) in [(1, 1), (7, 4), (12, 31)] {
                let d = Date::new(year, month, day).unwrap();
                assert_eq!(d.to_string(), format!("{year:04}-{month:02}-{day:02}"));
            }
        }
        assert_eq!(Date::new(-5, 1, 1).unwrap().to_string(), "-005-01-01");
    }

    #[test]
    fn document_style_roundtrip() {
        let d = Date::new(2015, 8, 15).unwrap();
        assert_eq!(d.to_document_style(), "August 2015");
        assert_eq!(Date::parse_document_style("August 2015").unwrap(), d);
        assert_eq!(Date::parse_document_style("august 2015").unwrap(), d);
        assert!(Date::parse_document_style("Augternary 2015").is_err());
    }

    #[test]
    fn years_since_is_fractional() {
        let a = Date::new(2010, 1, 1).unwrap();
        let b = Date::new(2011, 1, 1).unwrap();
        let y = b.years_since(a);
        assert!((y - 1.0).abs() < 0.01, "{y}");
    }
}
