//! Zero-padded decimal numbers written straight into a [`fmt::Write`].

use std::fmt;

/// Digits in `u64::MAX`.
const MAX_DIGITS: usize = u64::MAX.ilog10() as usize + 1;

/// Writes `value` in decimal, left-padded with zeros to at least `width`
/// digits: what `format!("{value:0width$}")` prints, without going through
/// `fmt`'s padding machinery.
///
/// [`crate::Date`] and [`crate::ErratumId`] spell their numbers with it,
/// and the query server writes its counts with it.
///
/// # Errors
///
/// Returns the error `out` returns; writing to a `String` never fails.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// rememberr_model::write_zero_padded(&mut out, 95, 3)?;
/// rememberr_model::write_zero_padded(&mut out, 1361, 0)?;
/// assert_eq!(out, "0951361");
/// # Ok::<(), std::fmt::Error>(())
/// ```
pub fn write_zero_padded<W: fmt::Write>(out: &mut W, value: u64, width: usize) -> fmt::Result {
    let mut digits = [0u8; MAX_DIGITS];
    let mut start = MAX_DIGITS;
    let mut rest = value;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    for _ in MAX_DIGITS - start..width {
        out.write_char('0')?;
    }
    out.write_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spells_what_zero_padded_format_spells() {
        let mut values = vec![0, 1, 5, 7, 9, 10, 95, 99, 100, 999, 1000, 1361, 10_000];
        values.extend([u64::from(u32::MAX), u64::MAX - 1, u64::MAX]);
        values.extend((1..MAX_DIGITS as u32).map(|p| 10u64.pow(p) - 1));
        for value in values {
            for width in [0, 1, 2, 3, 4, 5, 19, 20, 21, 24] {
                let mut out = String::new();
                write_zero_padded(&mut out, value, width).unwrap();
                assert_eq!(out, format!("{value:0width$}"), "{value} at width {width}");
            }
        }
    }
}
