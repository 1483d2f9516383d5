//! Minimal argument parsing for the CLI (no external parser dependency).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: the subcommand, `--key value` options, and
/// repeated/flag options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Single-valued options. Repeating one with the same value is
    /// harmless; contradictory repeats are rejected at parse time.
    pub options: BTreeMap<String, String>,
    /// Multi-valued options, in order of appearance.
    pub multi: BTreeMap<String, Vec<String>>,
    /// Boolean flags.
    pub flags: Vec<String>,
}

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    MissingCommand,
    /// An option is missing its value.
    MissingValue(String),
    /// A bare positional argument where an option was expected.
    UnexpectedPositional(String),
    /// An option name no command understands.
    UnknownOption(String),
    /// A single-valued option given twice with different values
    /// (option, first value, second value). Silently letting the last
    /// occurrence win would hide the contradiction.
    ConflictingValues(String, String, String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "missing subcommand"),
            ArgsError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgsError::UnexpectedPositional(a) => write!(f, "unexpected argument {a:?}"),
            ArgsError::UnknownOption(k) => write!(f, "unknown option --{k}"),
            ArgsError::ConflictingValues(k, first, second) => write!(
                f,
                "option --{k} given twice with conflicting values: {first:?} then {second:?}"
            ),
        }
    }
}

impl std::error::Error for ArgsError {}

/// Option names that may repeat (collected into `multi`).
const MULTI_OPTIONS: &[&str] = &["trigger", "context", "effect"];

/// Option names that are boolean flags (no value).
const FLAG_OPTIONS: &[&str] = &["unique", "annotated", "no-humans", "help", "trace"];

/// Single-valued option names understood by at least one command.
/// Anything else is rejected up front, so a typo fails with usage text
/// instead of being silently ignored.
const VALUE_OPTIONS: &[&str] = &[
    "out",
    "scale",
    "seed",
    "docs",
    "db",
    "truth",
    "csv-dir",
    "vendor",
    "design",
    "trigger-class",
    "msr",
    "workaround",
    "fix",
    "after",
    "before",
    "min-triggers",
    "limit",
    "steps",
    "triggers",
    "effects",
    "metrics",
    "metrics-out",
    "trace-out",
    "jobs",
    "snapshot-format",
    "addr",
    "workers",
    "queue-depth",
    "request-timeout-ms",
];

/// Parses a raw argument list (without the program name).
///
/// # Errors
///
/// Returns [`ArgsError`] for a missing subcommand, a valueless option, a
/// stray positional argument, or a single-valued option repeated with
/// contradictory values.
pub fn parse<I, S>(raw: I) -> Result<ParsedArgs, ArgsError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut iter = raw.into_iter().map(Into::into).peekable();
    let command = iter.next().ok_or(ArgsError::MissingCommand)?;
    if command.starts_with('-') && command != "--help" {
        return Err(ArgsError::MissingCommand);
    }
    let mut parsed = ParsedArgs {
        command: command.trim_start_matches('-').to_string(),
        ..ParsedArgs::default()
    };
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(ArgsError::UnexpectedPositional(arg));
        };
        let key = key.to_string();
        if FLAG_OPTIONS.contains(&key.as_str()) {
            parsed.flags.push(key);
        } else {
            if !MULTI_OPTIONS.contains(&key.as_str()) && !VALUE_OPTIONS.contains(&key.as_str()) {
                return Err(ArgsError::UnknownOption(key));
            }
            let value = iter
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| ArgsError::MissingValue(key.clone()))?;
            if MULTI_OPTIONS.contains(&key.as_str()) {
                parsed.multi.entry(key).or_default().push(value);
            } else if let Some(previous) = parsed.options.get(&key) {
                if previous != &value {
                    return Err(ArgsError::ConflictingValues(key, previous.clone(), value));
                }
            } else {
                parsed.options.insert(key, value);
            }
        }
    }
    Ok(parsed)
}

impl ParsedArgs {
    /// A single-valued option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A single-valued option parsed into `T`, or `default` if absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the option when parsing fails.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {text:?}")),
        }
    }

    /// All values of a repeatable option.
    pub fn get_multi(&self, key: &str) -> &[String] {
        self.multi.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if the flag was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The `--jobs N` worker count, if given.
    ///
    /// # Errors
    ///
    /// Rejects `0` and non-numeric values: the worker count must be a
    /// positive integer (`1` selects the true sequential path).
    pub fn jobs(&self) -> Result<Option<std::num::NonZeroUsize>, String> {
        match self.get("jobs") {
            None => Ok(None),
            Some(text) => text
                .parse::<std::num::NonZeroUsize>()
                .map(Some)
                .map_err(|_| {
                    format!("invalid value for --jobs: {text:?} (expected a positive integer)")
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_options_and_flags() {
        let parsed = parse([
            "query",
            "--db",
            "db.jsonl",
            "--trigger",
            "Trg_EXT_rst",
            "--trigger",
            "Trg_EXT_pci",
            "--unique",
        ])
        .unwrap();
        assert_eq!(parsed.command, "query");
        assert_eq!(parsed.get("db"), Some("db.jsonl"));
        assert_eq!(parsed.get_multi("trigger").len(), 2);
        assert!(parsed.has_flag("unique"));
        assert!(!parsed.has_flag("no-humans"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse(Vec::<String>::new()), Err(ArgsError::MissingCommand));
        assert_eq!(
            parse(["query", "--db"]),
            Err(ArgsError::MissingValue("db".into()))
        );
        assert_eq!(
            parse(["query", "stray"]),
            Err(ArgsError::UnexpectedPositional("stray".into()))
        );
        assert_eq!(
            parse(["query", "--db", "--unique"]),
            Err(ArgsError::MissingValue("db".into()))
        );
        assert_eq!(
            parse(["query", "--frobnicate", "9"]),
            Err(ArgsError::UnknownOption("frobnicate".into()))
        );
    }

    #[test]
    fn observability_flags_parse() {
        let parsed = parse([
            "extract",
            "--docs",
            "d",
            "--out",
            "o",
            "--metrics-out",
            "m",
            "--trace",
            "--trace-out",
            "t.json",
        ])
        .unwrap();
        assert!(parsed.has_flag("trace"));
        assert_eq!(parsed.get("metrics-out"), Some("m"));
        assert_eq!(parsed.get("trace-out"), Some("t.json"));
    }

    #[test]
    fn profile_options_parse() {
        let parsed = parse(["profile", "--scale", "0.25", "--jobs", "2"]).unwrap();
        assert_eq!(parsed.command, "profile");
        assert_eq!(parsed.get_parsed("scale", 1.0).unwrap(), 0.25);
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let parsed = parse(["generate", "--scale", "0.5"]).unwrap();
        assert_eq!(parsed.get_parsed("scale", 1.0).unwrap(), 0.5);
        assert_eq!(parsed.get_parsed("seed", 7u64).unwrap(), 7);
        let bad = parse(["generate", "--scale", "abc"]).unwrap();
        assert!(bad.get_parsed("scale", 1.0).is_err());
    }

    #[test]
    fn jobs_accepts_positive_rejects_zero_and_garbage() {
        let parsed = parse(["extract", "--docs", "d", "--out", "o", "--jobs", "4"]).unwrap();
        assert_eq!(
            parsed.jobs().unwrap().map(std::num::NonZeroUsize::get),
            Some(4)
        );
        assert_eq!(
            parse(["extract", "--docs", "d"]).unwrap().jobs().unwrap(),
            None
        );
        let zero = parse(["extract", "--jobs", "0"]).unwrap();
        assert!(zero.jobs().unwrap_err().contains("--jobs"));
        let garbage = parse(["extract", "--jobs", "many"]).unwrap();
        assert!(garbage.jobs().unwrap_err().contains("positive integer"));
        let negative = parse(["extract", "--jobs", "-2"]).unwrap();
        assert!(negative.jobs().unwrap_err().contains("-2"));
    }

    #[test]
    fn help_flag_is_a_command() {
        let parsed = parse(["--help"]).unwrap();
        assert_eq!(parsed.command, "help");
    }

    #[test]
    fn query_facet_options_parse() {
        let parsed = parse([
            "query",
            "--db",
            "db.jsonl",
            "--design",
            "Core 6",
            "--trigger-class",
            "Trg_EXT",
            "--msr",
            "MCx_STATUS",
            "--workaround",
            "bios",
            "--fix",
            "fixed",
            "--after",
            "2016-01-01",
            "--before",
            "2019-06-01",
            "--annotated",
        ])
        .unwrap();
        assert_eq!(parsed.get("design"), Some("Core 6"));
        assert_eq!(parsed.get("trigger-class"), Some("Trg_EXT"));
        assert_eq!(parsed.get("msr"), Some("MCx_STATUS"));
        assert_eq!(parsed.get("workaround"), Some("bios"));
        assert_eq!(parsed.get("fix"), Some("fixed"));
        assert_eq!(parsed.get("after"), Some("2016-01-01"));
        assert_eq!(parsed.get("before"), Some("2019-06-01"));
        assert!(parsed.has_flag("annotated"));
    }

    #[test]
    fn conflicting_duplicate_options_are_rejected() {
        let err = parse(["query", "--vendor", "intel", "--vendor", "amd"]).unwrap_err();
        assert_eq!(
            err,
            ArgsError::ConflictingValues("vendor".into(), "intel".into(), "amd".into())
        );
        assert!(err.to_string().contains("--vendor"));
        assert!(err.to_string().contains("conflicting"));
        // Repeating the same value is harmless; repeatable facets still
        // repeat freely.
        let parsed = parse([
            "query",
            "--vendor",
            "intel",
            "--vendor",
            "intel",
            "--effect",
            "Eff_HNG_hng",
            "--effect",
            "Eff_USB_usb",
        ])
        .unwrap();
        assert_eq!(parsed.get("vendor"), Some("intel"));
        assert_eq!(parsed.get_multi("effect").len(), 2);
    }
}
