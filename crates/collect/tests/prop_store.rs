//! A session's capture is the v4 encoding of exactly the events its handles
//! recorded. For any batch size — batches that straddle a chunk boundary
//! included — any interleaving of instances, and bodies of several chunks,
//! writing the session's own sealed chunks gives the bytes that encoding
//! its decoded profiles gives, and the decoded events equal the list the
//! test records beside the session.

use std::sync::Mutex;

use dsspy_collect::clock::current_thread_tag;
use dsspy_collect::{write_capture, Capture, InstanceHandle, Session, SessionConfig};
use dsspy_events::encode::CHUNK_EVENTS;
use dsspy_events::{AccessEvent, AccessKind, AllocationSite, DsKind, Target};
use proptest::prelude::*;

fn session(batch_size: usize) -> Session {
    Session::builder()
        .config(SessionConfig {
            batch_size,
            channel_capacity: None,
        })
        .start()
}

fn register(session: &Session, line: u32) -> InstanceHandle {
    session.register(
        AllocationSite::new("Store", "prop", line),
        DsKind::List,
        "u64",
    )
}

/// The `k`-th event of a stream seeded by `seed`: mostly neighbouring
/// indices (the 4-byte row), with ranges, whole-structure and untargeted
/// events, and lengths that jump.
fn planned(seed: u64, k: u64) -> (AccessKind, Target, u32) {
    let r = (seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let r = r ^ (r >> 31);
    let kind = AccessKind::from_u8((r % 11) as u8).expect("11 kinds");
    let index = (k % 500) as u32;
    let target = match (r >> 8) % 16 {
        0 => Target::Range {
            start: index,
            end: index + (r >> 16) as u32 % 40,
        },
        1 => Target::Whole,
        2 => Target::None,
        3 => Target::Index((r >> 20) as u32),
        _ => Target::Index(index),
    };
    let len = if (r >> 12).is_multiple_of(64) {
        (r >> 24) as u32
    } else {
        500
    };
    (kind, target, len)
}

/// Record `total` events from `seed` on `instances` handles of a session
/// with batches of `batch_size`, switching instance after runs of random
/// length; return the capture and, per instance, the events recorded.
fn record(
    batch_size: usize,
    instances: usize,
    total: u64,
    seed: u64,
) -> (Capture, Vec<Vec<AccessEvent>>) {
    let session = session(batch_size);
    let mut handles: Vec<_> = (0..instances as u32)
        .map(|i| register(&session, i))
        .collect();
    let mut reference = vec![Vec::new(); instances];
    let mut at = 0;
    for seq in 0..total {
        if planned(seed, seq).0 as u8 == 0 {
            at = (seq as usize / 7 + seed as usize) % instances;
        }
        let (kind, target, len) = planned(seed, seq);
        handles[at].record(kind, target, len);
        reference[at].push(AccessEvent {
            seq,
            kind,
            target,
            len,
            thread: current_thread_tag(),
        });
    }
    drop(handles);
    (session.finish(), reference)
}

/// The two checks: the sealed chunks written as they are equal the
/// encoding of the decoded profiles, and the decoded events equal the
/// recorded ones.
fn assert_sealed_is_decoded(capture: &Capture, reference: &[Vec<AccessEvent>]) {
    let total: usize = reference.iter().map(Vec::len).sum();
    assert_eq!(capture.event_count(), total);
    assert_eq!(capture.instance_count(), reference.len());
    let mut sealed = Vec::new();
    write_capture(capture, &mut sealed).expect("write the sealed capture");
    let decoded = Capture::new(
        capture.profiles.to_vec(),
        capture.stats,
        capture.session_nanos,
    );
    let mut encoded = Vec::new();
    write_capture(&decoded, &mut encoded).expect("write the decoded capture");
    assert!(sealed == encoded, "sealed chunks differ from the encoding");
    for (i, (profile, events)) in capture.profiles.iter().zip(reference).enumerate() {
        assert!(&profile.events == events, "instance {i}: decoded events");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sealed_chunks_are_the_encoding_of_the_recorded_events(
        batch_size in prop_oneof![
            1usize..=8,
            60usize..=1100,
            (CHUNK_EVENTS - 2)..=(CHUNK_EVENTS + 2),
            1usize..=2 * CHUNK_EVENTS,
        ],
        instances in 1usize..=3,
        total in prop_oneof![0u64..=2_000, 0u64..=(2 * CHUNK_EVENTS as u64 + 9)],
        seed in any::<u64>(),
    ) {
        let (capture, reference) = record(batch_size, instances, total, seed);
        assert_sealed_is_decoded(&capture, &reference);
    }
}

#[test]
fn a_body_of_three_chunks_and_one_event() {
    // Batches of 1000 straddle every chunk boundary.
    for instances in [1, 2] {
        let total = (3 * CHUNK_EVENTS + 1) as u64 * instances as u64;
        let (capture, reference) = record(1000, instances, total, 7);
        assert!(reference.iter().any(|r| r.len() > 3 * CHUNK_EVENTS));
        assert_sealed_is_decoded(&capture, &reference);
    }
}

#[test]
fn one_handle_shared_by_threads_under_a_mutex() {
    const THREADS: u64 = 3;
    const EACH: u64 = 25_000;
    let session = session(97);
    // The reference is kept under the handle's lock, so its order is the
    // record order, and only this instance draws from the session's clock.
    let shared = Mutex::new((register(&session, 0), Vec::new()));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let shared = &shared;
            s.spawn(move || {
                for k in 0..EACH {
                    let (kind, target, len) = planned(t, k);
                    let mut guard = shared.lock().expect("no panics while held");
                    let (handle, reference) = &mut *guard;
                    handle.record(kind, target, len);
                    reference.push(AccessEvent {
                        seq: reference.len() as u64,
                        kind,
                        target,
                        len,
                        thread: current_thread_tag(),
                    });
                }
            });
        }
    });
    let (handle, reference) = shared.into_inner().expect("no panics while held");
    drop(handle);
    let capture = session.finish();
    assert_eq!(reference.len() as u64, THREADS * EACH);
    assert_eq!(capture.profiles[0].threads().len(), THREADS as usize);
    assert_sealed_is_decoded(&capture, &[reference]);
}
