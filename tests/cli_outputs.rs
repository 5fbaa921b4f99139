//! End-to-end checks of the `hypertrio sim` binary's output flags: every
//! requested file is written whichever run-control flags come with it.

use std::path::Path;
use std::process::Command;

/// An RSS watchdog limit no run reaches must not cost the run its
/// time series, its span trace, or the report's latency breakdown.
#[test]
fn rss_limited_run_writes_every_requested_output() {
    let dir = std::env::temp_dir().join(format!("hypertrio-cli-outputs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let ts = dir.join("ts.csv");
    let spans = dir.join("spans.json");
    let report = dir.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_hypertrio"))
        .args(["sim", "--tenants", "8", "--scale", "2000"])
        .args(["--rss-limit-mb", "100000"])
        .arg("--timeseries-out")
        .arg(&ts)
        .arg("--spans-out")
        .arg(&spans)
        .arg("--report-json")
        .arg(&report)
        .output()
        .expect("run hypertrio");
    assert!(
        out.status.success(),
        "hypertrio failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = |p: &Path| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false);
    assert!(written(&ts), "time series not written");
    assert!(written(&spans), "span trace not written");
    let json = std::fs::read_to_string(&report).expect("report JSON written");
    assert!(
        json.contains("\"latency_breakdown\": {"),
        "report lacks the latency breakdown:\n{json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
