//! Output-path validation shared by every `--*-out FILE` option.

use std::path::Path;

/// Checks that `path` is plausibly writable *before* the run: not an
/// existing directory, and inside a parent directory that exists. Catching
/// this up front means a multi-minute pipeline run cannot end by throwing
/// away its output on a typo'd path. Both file-writing options
/// (`--metrics-out`, `--trace-out`) share this check, so they fail with
/// the same message shape.
pub fn validate_out_path(option: &str, path: &str) -> Result<(), String> {
    let p = Path::new(path);
    if p.is_dir() {
        return Err(format!(
            "--{option} {path}: is a directory, expected a file path"
        ));
    }
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(format!(
                "--{option} {path}: parent directory {} does not exist",
                parent.display()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_directories_and_missing_parents() {
        let dir = std::env::temp_dir();
        let err = validate_out_path("metrics-out", dir.to_str().unwrap()).unwrap_err();
        assert!(err.contains("is a directory"), "{err}");

        let missing = dir.join("no-such-subdir").join("out.json");
        let err = validate_out_path("metrics-out", missing.to_str().unwrap()).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");

        let ok = dir.join("out.json");
        validate_out_path("trace-out", ok.to_str().unwrap()).unwrap();
    }
}
