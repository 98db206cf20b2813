//! Capture persistence + re-analysis: profile once, save the capture to
//! disk, reload it later and re-analyze with different thresholds — the
//! post-mortem workflow the paper's two-phase design (§IV) enables — and
//! diff the verdicts.
//!
//! ```sh
//! cargo run --example capture_replay
//! ```

use dsspy::collect::{load_capture_with, save_capture, ReadOptions, Session};
use dsspy::collections::{site, SpyVec};
use dsspy::core::{diff_reports, Dsspy};
use dsspy::usecases::Thresholds;

fn main() {
    // --- 1. Run and capture -------------------------------------------------
    let session = Session::new();
    {
        let mut hot = SpyVec::register(&session, site!("ingest"));
        for i in 0..250 {
            hot.add(i);
        }
        let mut warm = SpyVec::register(&session, site!("staging"));
        for i in 0..60 {
            warm.add(i);
        }
    }
    let capture = session.finish();
    println!(
        "captured {} events across {} instances",
        capture.event_count(),
        capture.instance_count()
    );

    // --- 2. Persist and reload ----------------------------------------------
    let path = std::env::temp_dir().join("dsspy-example.dsspycap");
    save_capture(&capture, &path).expect("save capture");
    let reloaded = load_capture_with(&path, &ReadOptions::default()).expect("load capture");
    println!(
        "round-tripped through {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );
    assert_eq!(reloaded.event_count(), capture.event_count());

    // --- 3. Analyze twice, diff the verdicts ---------------------------------
    let default_report = Dsspy::new().analyze_capture(&reloaded);
    let lenient_report = Dsspy::new()
        .with_thresholds(Thresholds {
            li_min_run_len: 50, // flag the 60-element fill too
            ..Thresholds::default()
        })
        .analyze_capture(&reloaded);

    println!(
        "\ndefault thresholds: {} use case(s); lenient: {} use case(s)",
        default_report.all_use_cases().len(),
        lenient_report.all_use_cases().len()
    );
    let diff = diff_reports(&default_report, &lenient_report);
    println!("lenient vs default: {}", diff.summary());
    for key in &diff.introduced {
        println!("  newly flagged: {} ({})", key.site, key.kind);
    }

    std::fs::remove_file(&path).ok();
}
