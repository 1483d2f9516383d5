//! Lenient facet-value parsing for the query parameters that the CLI's
//! `query` options and the serve daemon's URL parameters share
//! (`rememberr::Query::from_params`).
//!
//! Two shapes exist: code-named categories (`Trg_EXT_rst`) parse through
//! their `FromStr` impls, and display-named categories ("no fix planned")
//! parse here, case-insensitively, with `-`/`_` accepted for spaces so
//! they survive both shell quoting and URL encoding.

use crate::design::Vendor;
use crate::status::{FixStatus, WorkaroundCategory};

/// Parses a vendor from its lowercase name (`intel` / `amd`).
///
/// # Errors
///
/// Returns a message listing the accepted names.
pub fn parse_vendor(text: &str) -> Result<Vendor, String> {
    match text.to_ascii_lowercase().as_str() {
        "intel" => Ok(Vendor::Intel),
        "amd" => Ok(Vendor::Amd),
        other => Err(format!("unknown vendor {other:?} (use intel or amd)")),
    }
}

/// Case-insensitive category parse against the canonical display names,
/// with `-`/`_` accepted for spaces (`no-fix-planned` == "no fix planned").
///
/// # Errors
///
/// Returns a message listing every valid value in its dashed form.
pub fn parse_display_category<T: Copy + std::fmt::Display>(
    all: &[T],
    what: &str,
    text: &str,
) -> Result<T, String> {
    let wanted = text.to_ascii_lowercase().replace(['-', '_'], " ");
    all.iter()
        .copied()
        .find(|c| c.to_string().to_ascii_lowercase() == wanted)
        .ok_or_else(|| {
            let known: Vec<String> = all
                .iter()
                .map(|c| c.to_string().to_ascii_lowercase().replace(' ', "-"))
                .collect();
            format!("unknown {what} {text:?} (use one of: {})", known.join(", "))
        })
}

/// Parses a workaround category from its display name.
///
/// # Errors
///
/// Returns a message listing the valid categories.
pub fn parse_workaround(text: &str) -> Result<WorkaroundCategory, String> {
    parse_display_category(&WorkaroundCategory::ALL, "workaround category", text)
}

/// Parses a fix status from its display name.
///
/// # Errors
///
/// Returns a message listing the valid statuses.
pub fn parse_fix(text: &str) -> Result<FixStatus, String> {
    parse_display_category(&FixStatus::ALL, "fix status", text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendors_parse_case_insensitively() {
        assert_eq!(parse_vendor("intel"), Ok(Vendor::Intel));
        assert_eq!(parse_vendor("AMD"), Ok(Vendor::Amd));
        let err = parse_vendor("via").unwrap_err();
        assert!(err.contains("intel"), "{err}");
    }

    #[test]
    fn display_categories_accept_dashes_and_underscores() {
        assert_eq!(parse_fix("no-fix-planned"), Ok(FixStatus::NoFixPlanned));
        assert_eq!(parse_fix("No_Fix_Planned"), Ok(FixStatus::NoFixPlanned));
        assert_eq!(parse_workaround("bios"), Ok(WorkaroundCategory::Bios));
        let err = parse_workaround("magic").unwrap_err();
        assert!(err.contains("workaround category"), "{err}");
        assert!(err.contains("bios"), "lists valid values: {err}");
    }
}
