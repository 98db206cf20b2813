//! End-to-end tests for the self-observability surface of the CLI:
//! `dsspy demo` → `dsspy analyze --telemetry` → `dsspy telemetry --check`,
//! plus the Prometheus exposition validator on malformed input.

use std::path::PathBuf;

use dsspy_cli::{
    cmd_analyze, cmd_demo, cmd_report, cmd_telemetry, validate_prometheus, CliError,
    TelemetryFormat,
};
use dsspy_telemetry::TelemetrySnapshot;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsspy-telemetry-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn demo_capture(name: &str) -> PathBuf {
    let path = temp_dir().join(name);
    let msg = cmd_demo(&path, Some("wordwheelsolver"), false, None, false).unwrap();
    assert!(msg.contains("WordWheelSolver"), "{msg}");
    path
}

#[test]
fn demo_writes_a_capture_other_commands_can_read() {
    let path = demo_capture("demo.dsspycap");
    let text = cmd_analyze(&path, false, false, 0, None).unwrap();
    assert!(text.contains("data structure instances"), "{text}");
}

#[test]
fn demo_rejects_unknown_workloads() {
    let err = cmd_demo(
        &temp_dir().join("x.dsspycap"),
        Some("nope"),
        false,
        None,
        false,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown workload"), "{msg}");
    assert!(msg.contains("WordWheelSolver"), "lists choices: {msg}");
}

#[test]
fn analyze_with_telemetry_writes_a_loadable_snapshot() {
    let capture = demo_capture("observed.dsspycap");
    let out = temp_dir().join("observed.telemetry.json");
    cmd_analyze(&capture, false, false, 2, Some(&out)).unwrap();
    let snapshot: TelemetrySnapshot =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    // The snapshot covers the whole observed run: parallel chunk decode,
    // per-instance analysis spans, and the overhead accountant.
    assert!(snapshot.counter("persist.decode_bytes").unwrap_or(0) > 0);
    assert!(snapshot.counter("persist.bodies_decoded").unwrap_or(0) > 0);
    assert!(snapshot.counter("analysis.instances").unwrap_or(0) > 0);
    // Collection-time signals from `dsspy demo`'s observed session ride in
    // the capture header and are merged into the offline snapshot, so the
    // collector histograms are visible here even though collection happened
    // in (conceptually) another process.
    assert!(snapshot.counter("collector.events").unwrap_or(0) > 0);
    assert!(snapshot.histogram("collector.batch_events").is_some());
    assert!(snapshot
        .spans_in(dsspy_telemetry::overhead::signals::ANALYSIS_CAT)
        .next()
        .is_some());
    let overhead = snapshot.overhead.expect("accounted");
    assert!(overhead.slowdown >= 1.0);
}

#[test]
fn demo_overhead_share_stays_below_the_whole_session() {
    // Decode runs in the analyzing process after the session ended; only
    // the collector's in-session busy time may be charged to the session.
    let path = temp_dir().join("overhead.dsspycap");
    cmd_demo(&path, Some("Mandelbrot"), false, None, false).unwrap();
    let json = cmd_telemetry(&path, 1, TelemetryFormat::Json, false).unwrap();
    let snapshot: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
    let overhead = snapshot.overhead.expect("accounted");
    assert_eq!(
        Some(overhead.accounted_profiling_nanos),
        snapshot.counter(dsspy_telemetry::overhead::signals::COLLECTOR_BUSY)
    );
    assert!(
        overhead.overhead_share() < 1.0,
        "profiling work is {:.2}% of the session",
        overhead.overhead_share() * 100.0
    );
}

#[test]
fn analyze_without_telemetry_flag_keeps_the_plain_output() {
    let capture = demo_capture("plain.dsspycap");
    let observed_out = temp_dir().join("plain.telemetry.json");
    let plain = cmd_analyze(&capture, false, false, 1, None).unwrap();
    let observed = cmd_analyze(&capture, false, false, 1, Some(&observed_out)).unwrap();
    assert_eq!(plain, observed, "observation must not change the report");
}

#[test]
fn report_with_telemetry_writes_both_artifacts() {
    let capture = demo_capture("report.dsspycap");
    let html = temp_dir().join("report.html");
    let tjson = temp_dir().join("report.telemetry.json");
    let msg = cmd_report(&capture, &html, 0, Some(&tjson)).unwrap();
    assert!(msg.contains("bytes"));
    assert!(std::fs::read_to_string(&html).unwrap().contains("<html"));
    let snapshot: TelemetrySnapshot =
        serde_json::from_str(&std::fs::read_to_string(&tjson).unwrap()).unwrap();
    assert!(!snapshot.is_empty());
}

#[test]
fn telemetry_subcommand_renders_every_format() {
    let capture = demo_capture("formats.dsspycap");
    let summary = cmd_telemetry(&capture, 2, TelemetryFormat::Summary, false).unwrap();
    assert!(summary.contains("overhead:"), "{summary}");
    assert!(summary.contains("counters:"));

    let json = cmd_telemetry(&capture, 2, TelemetryFormat::Json, false).unwrap();
    let snapshot: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
    assert!(snapshot.counter("persist.bodies_decoded").unwrap_or(0) > 0);

    let prom = cmd_telemetry(&capture, 2, TelemetryFormat::Prometheus, true).unwrap();
    assert!(prom.contains("dsspy_persist_decode_bytes_total"), "{prom}");
    validate_prometheus(&prom).unwrap();

    let trace = cmd_telemetry(&capture, 2, TelemetryFormat::Trace, false).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&trace).unwrap();
    assert!(!doc["traceEvents"].as_array().unwrap().is_empty());

    let err = "yaml".parse::<TelemetryFormat>().unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    assert!(err.to_string().contains("\"yaml\""), "{err}");
}

#[test]
fn validator_accepts_the_real_exposition_and_rejects_corruptions() {
    let capture = demo_capture("validator.dsspycap");
    let good = cmd_telemetry(&capture, 1, TelemetryFormat::Prometheus, false).unwrap();
    validate_prometheus(&good).unwrap();

    // Sample with no preceding # TYPE declaration.
    let err = validate_prometheus("dsspy_orphan_total 1\n").unwrap_err();
    assert!(err.contains("no # TYPE"), "{err}");

    // Unknown metric type.
    let err = validate_prometheus("# TYPE dsspy_x summary\ndsspy_x 1\n").unwrap_err();
    assert!(err.contains("unknown metric type"), "{err}");

    // Value that does not parse.
    let err = validate_prometheus("# TYPE dsspy_c counter\ndsspy_c banana\n").unwrap_err();
    assert!(err.contains("bad value"), "{err}");

    // Histogram whose cumulative buckets decrease.
    let err = validate_prometheus(
        "# TYPE dsspy_h histogram\n\
         dsspy_h_bucket{le=\"1\"} 5\n\
         dsspy_h_bucket{le=\"2\"} 3\n\
         dsspy_h_bucket{le=\"+Inf\"} 5\n\
         dsspy_h_sum 9\n\
         dsspy_h_count 5\n",
    )
    .unwrap_err();
    assert!(err.contains("decreases"), "{err}");

    // +Inf bucket disagreeing with _count.
    let err = validate_prometheus(
        "# TYPE dsspy_h histogram\n\
         dsspy_h_bucket{le=\"+Inf\"} 5\n\
         dsspy_h_sum 9\n\
         dsspy_h_count 7\n",
    )
    .unwrap_err();
    assert!(err.contains("!= _count"), "{err}");

    // Histogram with no +Inf bucket at all.
    let err = validate_prometheus(
        "# TYPE dsspy_h histogram\n\
         dsspy_h_sum 9\n\
         dsspy_h_count 7\n",
    )
    .unwrap_err();
    assert!(err.contains("+Inf"), "{err}");

    // Unterminated label set.
    let err = validate_prometheus(
        "# TYPE dsspy_h histogram\n\
         dsspy_h_bucket{le=\"1\" 5\n",
    )
    .unwrap_err();
    assert!(err.contains("unterminated") || err.contains("bad"), "{err}");
}
