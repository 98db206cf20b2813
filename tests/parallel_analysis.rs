//! The parallel fan-outs: capture decode, `analyze_capture` and the fused
//! `analyze_encoded_with` must produce the same report on one thread, two
//! threads, or one worker per core — and `0` must resolve to the machine's
//! parallelism. Instances of several chunks are folded chunk by chunk and
//! merged, so the reports are also checked against one straight fold of
//! each instance. A body stored out of `seq` order reports the same in
//! memory, after a write and a read, and straight from its encoded bodies.

use dsspy::collect::{
    read_capture_with, read_encoded_with, write_capture, Capture, CollectorStats, ReadOptions,
    Session,
};
use dsspy::collections::{site, SpyQueue, SpyVec};
use dsspy::core::{AnalysisConfig, Dsspy, InstanceFold};
use dsspy::events::encode::CHUNK_EVENTS;
use dsspy::events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
    Target, ThreadTag,
};
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

/// Every path on real traffic: every suite7 capture is written, read back
/// with its bodies decoded at `threads` workers and analyzed at the same
/// width, and analyzed straight from its encoded bodies at that width; every
/// serialized report must equal the width-1 report of the loaded capture.
#[test]
fn suite7_reports_are_identical_at_any_decode_and_analysis_width() {
    let mut multi_chunk = 0;
    for w in suite7() {
        let name = w.spec().name;
        let session = Session::new();
        std::hint::black_box(w.run(Scale::Test, Mode::Instrumented(&session)));
        let capture = session.finish();
        multi_chunk += capture
            .profiles
            .iter()
            .filter(|p| p.events.len() > CHUNK_EVENTS)
            .count();
        let mut bytes = Vec::new();
        write_capture(&capture, &mut bytes).expect("write capture");
        let report_at = |threads: usize| {
            let opts = ReadOptions {
                threads,
                telemetry: Telemetry::disabled(),
            };
            let capture = read_capture_with(&bytes[..], &opts).expect("read capture");
            let report = Dsspy::new().with_threads(threads).analyze_capture(&capture);
            serde_json::to_string(&report).expect("serialize report")
        };
        let fused_at = |threads: usize| {
            let encoded = read_encoded_with(&bytes[..], &Telemetry::disabled()).expect("read");
            let report = Dsspy::new()
                .with_threads(threads)
                .analyze_encoded_with(&encoded, &Telemetry::disabled())
                .expect("decode");
            serde_json::to_string(&report).expect("serialize report")
        };
        let baseline = report_at(1);
        assert_eq!(baseline, straight_report(&capture), "{name}: merged folds");
        for threads in [2, 4, 0] {
            assert!(
                report_at(threads) == baseline,
                "{name}: report at threads={threads} differs from threads=1"
            );
        }
        for threads in [1, 2, 4, 0] {
            assert!(
                fused_at(threads) == baseline,
                "{name}: fused report at threads={threads} differs"
            );
        }
    }
    // Mandelbrot's image list alone spans six chunks at test scale.
    assert!(multi_chunk > 0, "no suite7 instance spans two chunks");
}

/// The report of `capture` with every instance folded straight through in
/// one [`InstanceFold`], serialized: what the chunked analysis must match.
fn straight_report(capture: &Capture) -> String {
    let dsspy = Dsspy::new().with_threads(1);
    let mut report = dsspy.analyze_capture(capture);
    for (inst, profile) in report.instances.iter_mut().zip(&capture.profiles) {
        let mut fold = InstanceFold::new(&dsspy.analysis);
        for e in &profile.events {
            fold.fold(e);
        }
        *inst = fold.report(&profile.instance, &dsspy.analysis);
    }
    serde_json::to_string(&report).expect("serialize report")
}

/// One synthetic instance of `3 * CHUNK_EVENTS + 1` events. Reads sweep
/// forward and back over a structure longer than a chunk, so a read run
/// straddles every chunk boundary; in between come appends and front
/// inserts, deletes at both ends, writes, sorts and searches, and every
/// thousandth event moves to another thread.
fn synthetic_profile(id: u32, shift: u64) -> RuntimeProfile {
    let n = 3 * CHUNK_EVENTS + 1;
    let size = CHUNK_EVENTS as u32 + 777;
    let mut len = size;
    let events = (0..n as u64)
        .map(|k| {
            let j = k + shift;
            let thread = ThreadTag(((j / 1000) % 3) as u32);
            let at = |kind, index: u32, len| AccessEvent {
                seq: j,
                kind,
                target: Target::Index(index),
                len,
                thread,
            };
            match j % 40_000 {
                // Appends, then front inserts.
                0..=99 => {
                    len += 1;
                    at(AccessKind::Insert, len - 1, len)
                }
                100..=149 => {
                    len += 1;
                    at(AccessKind::Insert, 0, len)
                }
                // Deletes from the back, then the front.
                150..=199 => {
                    len -= 1;
                    at(AccessKind::Delete, len, len)
                }
                200..=249 => {
                    len -= 1;
                    at(AccessKind::Delete, 0, len)
                }
                250..=299 => at(AccessKind::Write, (j % 50) as u32, len),
                300 => AccessEvent::whole(j, AccessKind::Sort, len),
                301 => AccessEvent {
                    target: Target::Range { start: 0, end: 9 },
                    ..AccessEvent::whole(j, AccessKind::Search, len)
                },
                // A sweep forward and back over the whole structure.
                _ => {
                    let step = j % (2 * u64::from(size));
                    let index = if step < u64::from(size) {
                        step
                    } else {
                        2 * u64::from(size) - 1 - step
                    };
                    at(AccessKind::Read, index as u32, len)
                }
            }
        })
        .collect();
    RuntimeProfile::new(
        InstanceInfo::new(
            InstanceId(u64::from(id)),
            AllocationSite::new("Synthetic", "chunks", id),
            DsKind::List,
            "u64",
        ),
        events,
    )
}

/// Instances of `3 * CHUNK_EVENTS + 1` events (four units, the last of one
/// event) report the same at every width and through every path, and the
/// same as one straight fold.
#[test]
fn multi_chunk_instances_report_the_same_at_every_width() {
    let profiles: Vec<RuntimeProfile> = [0u64, 17, 40_150]
        .iter()
        .enumerate()
        .map(|(id, &shift)| synthetic_profile(id as u32, shift))
        .collect();
    let events = profiles.iter().map(|p| p.events.len() as u64).sum();
    let capture = Capture::new(
        profiles,
        CollectorStats {
            events,
            batches: 1,
            dropped: 0,
        },
        1,
    );
    let baseline = straight_report(&capture);
    let mut bytes = Vec::new();
    write_capture(&capture, &mut bytes).expect("write capture");
    let encoded = read_encoded_with(&bytes[..], &Telemetry::disabled()).expect("read");
    for threads in [1, 2, 4, 0] {
        let dsspy = Dsspy::new().with_threads(threads);
        let loaded = serde_json::to_string(&dsspy.analyze_capture(&capture)).unwrap();
        assert!(loaded == baseline, "analyze_capture at threads={threads}");
        let fused = serde_json::to_string(
            &dsspy
                .analyze_encoded_with(&encoded, &Telemetry::disabled())
                .unwrap(),
        )
        .unwrap();
        assert!(
            fused == baseline,
            "analyze_encoded_with at threads={threads}"
        );
    }
}

/// `capture` analyzed in memory, analyzed after a write and a read at
/// decode widths 1 and 2, and analyzed straight from its encoded bodies at
/// widths 1 and 2 must serialize to the same report.
fn assert_every_path_reports_alike(capture: &Capture) {
    let baseline = serde_json::to_string(&Dsspy::new().analyze_capture(capture)).unwrap();
    let mut bytes = Vec::new();
    write_capture(capture, &mut bytes).expect("write capture");
    for threads in [1, 2] {
        let opts = ReadOptions {
            threads,
            telemetry: Telemetry::disabled(),
        };
        let loaded = read_capture_with(&bytes[..], &opts).expect("read capture");
        let report = Dsspy::new().with_threads(threads).analyze_capture(&loaded);
        assert!(
            serde_json::to_string(&report).unwrap() == baseline,
            "loaded capture at threads={threads}"
        );
        let encoded = read_encoded_with(&bytes[..], &Telemetry::disabled()).expect("read");
        let report = Dsspy::new()
            .with_threads(threads)
            .analyze_encoded_with(&encoded, &Telemetry::disabled())
            .expect("decode");
        assert!(
            serde_json::to_string(&report).unwrap() == baseline,
            "fused analysis at threads={threads}"
        );
    }
}

/// A capture of one `List` per entry of `bodies`, each profile holding
/// exactly the given events in the given order.
fn capture_of_bodies(bodies: Vec<Vec<AccessEvent>>) -> Capture {
    let events = bodies.iter().map(|b| b.len() as u64).sum();
    let profiles = bodies
        .into_iter()
        .enumerate()
        .map(|(id, events)| RuntimeProfile {
            instance: InstanceInfo::new(
                InstanceId(id as u64),
                AllocationSite::new("Unordered", "body", id as u32),
                DsKind::List,
                "u32",
            ),
            events,
        })
        .collect();
    let stats = CollectorStats {
        events,
        batches: 1,
        dropped: 0,
    };
    Capture::new(profiles, stats, 1)
}

/// `n` events at seq `0..n`: back-inserts for the first half (rounded
/// up), then a forward read over the front of what they filled.
fn fill_then_read(n: u32) -> Vec<AccessEvent> {
    let filled = n - n / 2;
    let fill = (0..filled).map(|i| AccessEvent::at(u64::from(i), AccessKind::Insert, i, i + 1));
    let read =
        (0..n / 2).map(|i| AccessEvent::at(u64::from(filled + i), AccessKind::Read, i, filled));
    fill.chain(read).collect()
}

/// A body that steps back in `seq` exactly at the chunk boundary: its first
/// chunk holds seq `300..CHUNK_EVENTS + 300`, its second seq `0..300`.
#[test]
fn a_body_inverted_across_the_chunk_boundary_reports_alike_on_every_path() {
    let n = CHUNK_EVENTS as u32 + 300;
    let mut events: Vec<_> = (0..n)
        .map(|i| AccessEvent::at(u64::from(i), AccessKind::Insert, i, i + 1))
        .collect();
    events.rotate_left(300);
    assert_every_path_reports_alike(&capture_of_bodies(vec![events]));
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

    /// Bodies in any order: each instance's fill-then-read sequence is
    /// permuted by sorting it on arbitrary keys.
    #[test]
    fn permuted_bodies_report_alike_on_every_path(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..300), 1..4)
    ) {
        let bodies = keys
            .iter()
            .map(|keys| {
                let events = fill_then_read(keys.len() as u32);
                let mut keyed: Vec<_> = keys.iter().zip(events).collect();
                keyed.sort_by_key(|(k, _)| **k);
                keyed.into_iter().map(|(_, e)| e).collect()
            })
            .collect();
        assert_every_path_reports_alike(&capture_of_bodies(bodies));
    }

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
