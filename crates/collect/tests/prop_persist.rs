//! Property tests: capture persistence is lossless for arbitrary captures,
//! and corrupted files never panic the loader.

use dsspy_collect::persist::{read_capture, write_capture};
use dsspy_collect::{Capture, CollectorStats};
use dsspy_events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
    Target, ThreadTag,
};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    (0u8..11).prop_map(|v| AccessKind::from_u8(v).unwrap())
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        any::<u32>().prop_map(Target::Index),
        (any::<u32>(), any::<u32>()).prop_map(|(start, end)| Target::Range { start, end }),
        Just(Target::Whole),
        Just(Target::None),
    ]
}

fn arb_event() -> impl Strategy<Value = AccessEvent> {
    (
        any::<u64>(),
        arb_kind(),
        arb_target(),
        any::<u32>(),
        prop_oneof![0u32..4, any::<u32>()],
    )
        .prop_map(|(seq, kind, target, len, thread)| AccessEvent {
            seq,
            kind,
            target,
            len,
            thread: ThreadTag(thread),
        })
}

/// A profile of arbitrary events in generated order: bodies out of `seq`
/// order must round-trip as they are.
fn arb_profile(id: u64) -> impl Strategy<Value = RuntimeProfile> {
    (
        proptest::collection::vec(arb_event(), 0..200),
        "[A-Za-z][A-Za-z0-9.]{0,20}",
        "[A-Za-z][A-Za-z0-9_]{0,15}",
        any::<u16>(),
    )
        .prop_map(move |(events, class, method, pos)| RuntimeProfile {
            instance: InstanceInfo::new(
                InstanceId(id),
                AllocationSite::new(class, method, u32::from(pos)),
                DsKind::List,
                "i64",
            ),
            events,
        })
}

fn arb_capture() -> impl Strategy<Value = Capture> {
    proptest::collection::vec(any::<u8>(), 0..5).prop_flat_map(|ids| {
        let profiles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, _)| arb_profile(i as u64))
            .collect();
        (profiles, any::<u32>(), any::<u32>()).prop_map(|(profiles, events, nanos)| {
            Capture::new(
                profiles,
                CollectorStats {
                    events: u64::from(events),
                    batches: u64::from(events) / 7,
                    dropped: 0,
                },
                u64::from(nanos),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A written capture reads back as itself, profile by profile, whatever
    /// the order of each body's events.
    #[test]
    fn capture_roundtrip(capture in arb_capture()) {
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let back = read_capture(buf.as_slice()).unwrap();
        prop_assert_eq!(back.stats, capture.stats);
        prop_assert_eq!(back.session_nanos, capture.session_nanos);
        prop_assert_eq!(back.profiles, capture.profiles);
    }

    #[test]
    fn truncation_never_panics(capture in arb_capture(), frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let cut = ((buf.len() as f64) * frac) as usize;
        let _ = read_capture(&buf[..cut]); // error or (very rarely) a prefix — never a panic
    }

    #[test]
    fn bitflips_never_panic(capture in arb_capture(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        if buf.is_empty() {
            return Ok(());
        }
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        let _ = read_capture(buf.as_slice()); // any outcome but a panic
    }
}
