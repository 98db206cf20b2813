//! The parallel fan-outs: capture decode and `analyze_capture` must
//! produce the same report on one thread, two threads, or one worker per
//! core — and `0` must resolve to the machine's parallelism.

use dsspy::collect::{read_capture_with, write_capture, Capture, ReadOptions, Session};
use dsspy::collections::{site, SpyQueue, SpyVec};
use dsspy::core::{AnalysisConfig, Dsspy};
use dsspy::parallel::default_threads;
use dsspy::telemetry::Telemetry;
use dsspy::workloads::{suite7, Mode, Scale};
use proptest::prelude::*;

/// A capture with a configurable mix of instance shapes, so the analysis
/// has real per-instance work to fan out.
fn capture_with(shapes: &[(u16, bool)]) -> Capture {
    let session = Session::new();
    for (i, &(fill, churn)) in shapes.iter().enumerate() {
        let mut list = SpyVec::register(&session, site!("par_prop"));
        for v in 0..fill {
            list.add(i64::from(v));
        }
        if churn {
            let mut q = SpyQueue::register(&session, site!("par_prop_q"));
            for v in 0..fill.min(64) {
                q.enqueue(i64::from(v) + i as i64);
                if q.len() > 2 {
                    q.dequeue();
                }
            }
        }
        let _sum: i64 = list.iter().sum();
    }
    session.finish()
}

#[test]
fn zero_threads_resolves_to_default_threads() {
    let config = AnalysisConfig::default();
    assert_eq!(config.threads, 0, "parallel analysis is the default");
    assert_eq!(config.resolved_threads(), default_threads());
    let pinned = Dsspy::new().with_threads(3);
    assert_eq!(pinned.analysis.resolved_threads(), 3);
}

/// Both fan-outs on real traffic: every suite7 capture is written, read
/// back with its bodies decoded at `threads` workers, and analyzed at the
/// same width; the serialized report must equal the width-1 report.
#[test]
fn suite7_reports_are_identical_at_any_decode_and_analysis_width() {
    for w in suite7() {
        let name = w.spec().name;
        let session = Session::new();
        std::hint::black_box(w.run(Scale::Test, Mode::Instrumented(&session)));
        let mut bytes = Vec::new();
        write_capture(&session.finish(), &mut bytes).expect("write capture");
        let report_at = |threads: usize| {
            let opts = ReadOptions {
                threads,
                telemetry: Telemetry::disabled(),
            };
            let capture = read_capture_with(&bytes[..], &opts).expect("read capture");
            let report = Dsspy::new().with_threads(threads).analyze_capture(&capture);
            serde_json::to_string(&report).expect("serialize report")
        };
        let baseline = report_at(1);
        for threads in [2, 4, 0] {
            assert!(
                report_at(threads) == baseline,
                "{name}: report at threads={threads} differs from threads=1"
            );
        }
    }
}

#[test]
fn timings_cover_every_instance() {
    let capture = capture_with(&[(200, true), (50, false), (0, false)]);
    let report = Dsspy::new().with_threads(2).analyze_capture(&capture);
    assert_eq!(report.timings.per_instance.len(), report.instances.len());
    assert_eq!(report.timings.threads, 2);
    assert!(report.timings.wall_nanos > 0);
    // The mined instances did real work; summed phase times are consistent.
    assert_eq!(
        report.timings.cpu_nanos(),
        report.timings.mining_nanos() + report.timings.classify_nanos()
    );
}

#[test]
fn timings_are_not_serialized() {
    let capture = capture_with(&[(300, false)]);
    let report = Dsspy::new().analyze_capture(&capture);
    let json = serde_json::to_string(&report).unwrap();
    assert!(
        !json.contains("timings"),
        "timings must stay out of the JSON"
    );
    let back: dsspy::core::Report = serde_json::from_str(&json).unwrap();
    assert!(back.timings.per_instance.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn report_is_identical_for_any_thread_count(
        shapes in proptest::collection::vec((1u16..400, any::<bool>()), 1..10)
    ) {
        let capture = capture_with(&shapes);
        let sequential = Dsspy::new().with_threads(1).analyze_capture(&capture);
        let baseline = serde_json::to_string(&sequential).unwrap();
        for threads in [2usize, 4, 0] {
            let parallel = Dsspy::new().with_threads(threads).analyze_capture(&capture);
            let got = serde_json::to_string(&parallel).unwrap();
            prop_assert_eq!(&baseline, &got, "threads={}", threads);
        }
    }
}
