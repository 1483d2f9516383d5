//! CSV export of the full report: one file per figure, for external
//! plotting (the original artifact produced matplotlib PDFs; this writes
//! the underlying series instead).

use std::fs;
use std::io;
use std::path::Path;

use crate::report::FullReport;

/// Writes one CSV per figure into `dir` (created if absent) and returns the
/// file names written.
///
/// # Errors
///
/// Returns the first I/O error encountered.
pub fn export_csvs(report: &FullReport, dir: &Path) -> io::Result<Vec<String>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut write = |name: &str, contents: String| -> io::Result<()> {
        fs::write(dir.join(name), contents)?;
        written.push(name.to_string());
        Ok(())
    };

    for (vendor, chart) in &report.fig02 {
        write(
            &format!("fig02_timeline_{}.csv", vendor.to_string().to_lowercase()),
            chart.to_csv(),
        )?;
    }
    write("fig03_heredity.csv", report.fig03.matrix.to_csv())?;
    write("fig04_shared_set.csv", report.fig04.chart.to_csv())?;
    write("fig05_latency.csv", report.fig05.chart.to_csv())?;
    for (vendor, chart) in &report.fig06.charts {
        write(
            &format!(
                "fig06_workarounds_{}.csv",
                vendor.to_string().to_lowercase()
            ),
            chart.to_csv(),
        )?;
    }
    write("fig07_fixes.csv", report.fig07.matrix.to_csv())?;
    if let Some(f8) = &report.fig08 {
        write("fig08_steps.csv", f8.to_csv())?;
    }
    if let Some(f9) = &report.fig09 {
        write("fig09_agreement.csv", f9.to_csv())?;
    }
    for (vendor, chart) in &report.fig10 {
        write(
            &format!("fig10_triggers_{}.csv", vendor.to_string().to_lowercase()),
            chart.to_csv(),
        )?;
    }
    write("fig11_trigger_counts.csv", report.fig11.chart.to_csv())?;
    write("fig12_correlation.csv", report.fig12.to_csv())?;
    write("fig13_class_evolution.csv", report.fig13.to_csv())?;
    write("fig14_class_share.csv", report.fig14.to_csv())?;
    write("fig15_ext_breakdown.csv", report.fig15.to_csv())?;
    write("fig16_fea_breakdown.csv", report.fig16.to_csv())?;
    for (vendor, chart) in &report.fig17 {
        write(
            &format!("fig17_contexts_{}.csv", vendor.to_string().to_lowercase()),
            chart.to_csv(),
        )?;
    }
    for (vendor, chart) in &report.fig18 {
        write(
            &format!("fig18_effects_{}.csv", vendor.to_string().to_lowercase()),
            chart.to_csv(),
        )?;
    }
    for (vendor, chart) in &report.fig19.charts {
        write(
            &format!("fig19_msrs_{}.csv", vendor.to_string().to_lowercase()),
            chart.to_csv(),
        )?;
    }

    // Observations as a CSV table.
    let mut obs = String::from("id,holds,statement,evidence\n");
    for o in &report.observations {
        obs.push_str(&format!(
            "O{},{},\"{}\",\"{}\"\n",
            o.id,
            o.holds,
            o.statement.replace('"', "\"\""),
            o.evidence.replace('"', "\"\"")
        ));
    }
    write("observations.csv", obs)?;

    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn export_writes_every_figure() {
        let f = fixture(0.05);
        let report = FullReport::build(&f.db, f.run.four_eyes.as_ref(), None);

        let dir =
            std::env::temp_dir().join(format!("rememberr-export-test-{}", std::process::id()));
        let written = export_csvs(&report, &dir).expect("export succeeds");
        assert!(written.len() >= 20, "only {} files", written.len());
        for name in &written {
            let path = dir.join(name);
            let contents = fs::read_to_string(&path).expect("file exists");
            assert!(contents.lines().count() >= 1, "{name} is empty");
        }
        // Every paper figure number appears among the file names.
        for fig in 2..=19 {
            assert!(
                written.iter().any(|n| n.contains(&format!("fig{fig:02}"))),
                "figure {fig} missing from export"
            );
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
