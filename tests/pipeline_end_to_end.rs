//! Cross-crate integration: the full Fig. 4 pipeline — instrumentation,
//! execution, collection, pattern detection, use-case generation, advice —
//! exercised through the public facade.

use dsspy::collections::{site, SpyArray, SpyDeque, SpyMap, SpyQueue, SpyStack, SpyVec};
use dsspy::core::Dsspy;
use dsspy::events::encode;
use dsspy::prelude::*;
use dsspy::usecases::UseCaseKind;

#[test]
fn mixed_program_full_pipeline() {
    let report = Dsspy::new().profile(|session| {
        // A producer/consumer pair on a misused list (IQ shape).
        let mut worklist = SpyVec::register(session, site!("worklist"));
        for task in 0..200 {
            worklist.add(task);
            if worklist.len() > 4 {
                worklist.remove_at(0);
            }
        }

        // A bulk loader (LI shape).
        let mut records = SpyVec::register(session, site!("records"));
        for i in 0..1_000 {
            records.add(i * 7);
        }

        // A scanner that rereads everything (FLR shape).
        let mut cache = SpyVec::register(session, site!("cache"));
        cache.extend(0..50);
        for _round in 0..12 {
            let sum: i32 = cache.iter().sum();
            assert!(sum > 0);
            let _ = cache.try_get(25);
        }

        // Properly used structures: never flagged.
        let mut stack = SpyStack::register(session, site!("undo_stack"));
        for i in 0..40 {
            stack.push(i);
        }
        while stack.pop().is_some() {}

        let mut queue = SpyQueue::register(session, site!("job_queue"));
        for i in 0..40 {
            queue.enqueue(i);
            queue.dequeue();
        }

        let mut deque = SpyDeque::register(session, site!("window"));
        for i in 0..10 {
            deque.push_back(i);
        }

        let mut index = SpyMap::register(session, site!("index"));
        index.insert("a", 1);
        assert_eq!(index.get(&"a"), Some(&1));

        let mut buffer: SpyArray<u8> = SpyArray::register(session, site!("buffer"), 32);
        buffer.set(0, 255);
    });

    assert_eq!(report.instance_count(), 8);
    let kinds: Vec<(UseCaseKind, String)> = report
        .all_use_cases()
        .iter()
        .map(|u| (u.kind, u.instance.site.method.clone()))
        .collect();
    assert!(
        kinds.contains(&(UseCaseKind::ImplementQueue, "worklist".into())),
        "{kinds:?}"
    );
    assert!(
        kinds.contains(&(UseCaseKind::LongInsert, "records".into())),
        "{kinds:?}"
    );
    assert!(
        kinds.contains(&(UseCaseKind::FrequentLongRead, "cache".into())),
        "{kinds:?}"
    );
    // The well-used structures stay out of the result set.
    for benign in ["undo_stack", "job_queue", "window", "index", "buffer"] {
        assert!(
            !kinds.iter().any(|(_, m)| m == benign),
            "{benign} must not be flagged: {kinds:?}"
        );
    }
    // Three flagged of eight → reduction 62.5 %.
    assert!((report.search_space_reduction() - 0.625).abs() < 1e-9);

    // The advice renders with reasons and actions.
    let text = report.render_use_cases();
    assert!(text.contains("Use Case 1"));
    assert!(text.contains("Action:"));
    assert!(text.contains("Reason:"));
}

#[test]
fn multithreaded_profiling_session() {
    let report = Dsspy::new().profile(|session| {
        std::thread::scope(|scope| {
            for t in 0..4 {
                let mut list = SpyVec::register(session, site!("worker"));
                scope.spawn(move || {
                    for i in 0..300 {
                        list.add(i * t);
                    }
                    let total: i64 = list.iter().sum();
                    assert!(total >= 0);
                });
            }
        });
    });
    assert_eq!(report.instance_count(), 4);
    // Every worker list gets its Long-Insert.
    let li = report
        .all_use_cases()
        .iter()
        .filter(|u| u.kind == UseCaseKind::LongInsert)
        .count();
    assert_eq!(li, 4);
    // Each profile is single-threaded from the analysis' point of view.
    for instance in &report.instances {
        assert_eq!(instance.analysis.metrics.total_events, 600);
    }
}

#[test]
fn report_survives_json_round_trip() {
    let report = Dsspy::new().profile(|session| {
        let mut l = SpyVec::register(session, site!("json"));
        for i in 0..150 {
            l.add(i);
        }
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let back: dsspy::core::Report = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.instance_count(), report.instance_count());
    assert_eq!(back.all_use_cases().len(), report.all_use_cases().len());
    assert_eq!(back.all_use_cases()[0].kind, report.all_use_cases()[0].kind);
}

#[test]
fn capture_event_encoding_round_trip() {
    // Events captured by a real session survive the wire encoding.
    let session = Session::new();
    {
        let mut l = SpyVec::register(&session, site!("wire"));
        for i in 0..64 {
            l.add(i);
        }
        l.sort();
        let _ = l.contains(&10);
    }
    let capture = session.finish();
    let events = &capture.profiles[0].events;
    let mut encoded = Vec::new();
    encode::encode_body(events, &mut encoded);
    let body = encode::Body::parse(&encoded, events.len() as u64).expect("framing");
    let mut decoded = Vec::new();
    body.chunks()[0].decode_into(&mut decoded).expect("decode");
    assert_eq!(body.chunks().len(), 1);
    assert_eq!(&decoded, events);
}

#[test]
fn every_suite7_capture_round_trips_event_for_event() {
    use dsspy::collect::{read_capture_with, write_capture, ReadOptions};
    use dsspy::workloads::{suite7, Mode, Scale};
    for w in suite7() {
        let name = w.spec().name;
        let session = Session::new();
        std::hint::black_box(w.run(Scale::Test, Mode::Instrumented(&session)));
        let capture = session.finish();
        let mut bytes = Vec::new();
        write_capture(&capture, &mut bytes).expect("write capture");
        let opts = ReadOptions {
            threads: 2,
            ..ReadOptions::default()
        };
        let back = read_capture_with(&bytes[..], &opts).expect("read capture");
        assert_eq!(back.profiles.len(), capture.profiles.len(), "{name}");
        for (a, b) in back.profiles.iter().zip(&capture.profiles) {
            assert_eq!(a.instance, b.instance, "{name}");
            assert!(a.events == b.events, "{name}: {} differs", a.instance.id);
        }
        assert_eq!(back.stats, capture.stats, "{name}");
        assert_eq!(back.session_nanos, capture.session_nanos, "{name}");
    }
}
