//! The full self-observability loop, end to end: one telemetry handle
//! watches collection (collector thread), persistence (encode + parallel
//! decode), and analysis (per-instance spans), and the final snapshot both
//! exports cleanly and carries the serde-skipped `Report::timings` as spans.

use dsspy::collect::{load_capture_with, save_capture_with, ReadOptions, Session};
use dsspy::collections::{site, SpyMap, SpyVec};
use dsspy::core::{Dsspy, Report};
use dsspy::telemetry::{export, overhead::signals, Telemetry, TelemetrySnapshot};

fn observed_capture_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsspy-e2e-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Run a small program under an observed session and return the telemetry
/// that watched it plus the path its capture was saved to.
fn record_observed(name: &str) -> (Telemetry, std::path::PathBuf) {
    let telemetry = Telemetry::enabled();
    let session = Session::builder().telemetry(telemetry.clone()).start();
    {
        let mut list = SpyVec::register(&session, site!("e2e_hot_list"));
        for i in 0..2_000u64 {
            list.add(i);
        }
        let total: u64 = (0..list.len()).map(|i| *list.get(i)).sum();
        let mut dict = SpyMap::register(&session, site!("e2e_dict"));
        for i in 0..200u64 {
            dict.insert(i, total.wrapping_add(i));
        }
    }
    let capture = session.finish();
    let path = observed_capture_path(name);
    save_capture_with(&capture, &path, &telemetry).unwrap();
    (telemetry, path)
}

#[test]
fn one_handle_observes_collection_persistence_and_analysis() {
    let (telemetry, path) = record_observed("loop.dsspycap");

    // Collection left its marks.
    let after_session = telemetry.snapshot();
    assert!(after_session.counter("collector.events").unwrap_or(0) >= 2_200);
    assert!(after_session.counter("collector.batches").unwrap_or(0) > 0);
    assert_eq!(after_session.gauge("collector.queue_depth"), Some(0));
    assert!(after_session.counter(signals::PERSIST_ENCODE).unwrap_or(0) > 0);

    // Reload with parallel decode under the same handle, then analyze.
    let opts = ReadOptions {
        threads: 4,
        telemetry: telemetry.clone(),
    };
    let capture = load_capture_with(&path, &opts).unwrap();
    let report = Dsspy::new()
        .with_threads(4)
        .analyze_capture_with(&capture, &telemetry);

    let snapshot = report.telemetry.as_ref().expect("snapshot embedded");
    // Persistence: encode and decode volumes agree (same file, same format).
    assert_eq!(
        snapshot.counter("persist.encode_bytes"),
        snapshot.counter("persist.decode_bytes"),
    );
    assert_eq!(snapshot.counter("persist.bodies_decoded"), Some(2));
    // Analysis: one mine + one classify span per instance, all top-level.
    let mine = snapshot
        .spans_in(signals::ANALYSIS_CAT)
        .filter(|s| s.name.starts_with("mine#"))
        .count();
    assert_eq!(mine, report.instances.len());
    // Overhead accounting covers the whole loop and stays sane.
    let overhead = snapshot.overhead.expect("accounted");
    assert!(overhead.slowdown >= 1.0);
    assert!(overhead.accounted_profiling_nanos > 0);
    assert_eq!(overhead.session_nanos, capture.session_nanos);
}

#[test]
fn exporters_stay_parseable_on_a_real_run() {
    let (telemetry, path) = record_observed("export.dsspycap");
    let opts = ReadOptions {
        threads: 2,
        telemetry: telemetry.clone(),
    };
    let capture = load_capture_with(&path, &opts).unwrap();
    let report = Dsspy::new()
        .with_threads(2)
        .analyze_capture_with(&capture, &telemetry);
    let snapshot = report.telemetry.as_ref().unwrap();

    dsspy_cli::validate_prometheus(&export::prometheus(snapshot)).unwrap();

    let back: TelemetrySnapshot = serde_json::from_str(&export::to_json(snapshot)).unwrap();
    assert_eq!(&back, snapshot);

    let trace: serde_json::Value = serde_json::from_str(&export::chrome_trace(snapshot)).unwrap();
    assert!(!trace["traceEvents"].as_array().unwrap().is_empty());

    let human = export::summary(snapshot);
    assert!(human.contains("collector.events"), "{human}");
    assert!(human.contains("overhead:"), "{human}");
}

#[test]
fn saved_report_recovers_timings_from_its_snapshot() {
    let (telemetry, path) = record_observed("timings.dsspycap");
    let opts = ReadOptions {
        threads: 2,
        telemetry: telemetry.clone(),
    };
    let capture = load_capture_with(&path, &opts).unwrap();
    let report = Dsspy::new()
        .with_threads(2)
        .analyze_capture_with(&capture, &telemetry);

    let json = serde_json::to_string(&report).unwrap();
    let restored: Report = serde_json::from_str(&json).unwrap();
    assert!(restored.timings.per_instance.is_empty(), "still skipped");
    // Each instance's phase costs ride along as `mine#i`/`classify#i`.
    let snapshot = restored.telemetry.as_ref().unwrap();
    let spans: Vec<&str> = snapshot
        .spans_in(signals::ANALYSIS_CAT)
        .map(|s| s.name.as_str())
        .collect();
    for i in 0..restored.instances.len() {
        assert!(spans.contains(&format!("mine#{i}").as_str()), "{spans:?}");
        assert!(
            spans.contains(&format!("classify#{i}").as_str()),
            "{spans:?}"
        );
    }
    assert_eq!(snapshot.gauge("analysis.threads"), Some(2));
}

#[test]
fn observation_does_not_change_the_verdicts() {
    let (telemetry, path) = record_observed("verdicts.dsspycap");
    let opts = ReadOptions {
        threads: 2,
        telemetry: telemetry.clone(),
    };
    let capture = load_capture_with(&path, &opts).unwrap();

    let observed = Dsspy::new()
        .with_threads(2)
        .analyze_capture_with(&capture, &telemetry);
    let mut plain = Dsspy::new().with_threads(2).analyze_capture(&capture);
    assert!(plain.telemetry.is_none());

    // Everything except the snapshot itself must be identical.
    plain.telemetry = observed.telemetry.clone();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&observed).unwrap()
    );
}
