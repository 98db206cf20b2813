//! Property tests: the wire encoding is a lossless bijection on events.

use bytes::BytesMut;
use dsspy_events::encode::{decode_batch, decode_event, encode_batch, encode_event};
use dsspy_events::{AccessEvent, AccessKind, Target, ThreadTag};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    (0u8..11).prop_map(|v| AccessKind::from_u8(v).unwrap())
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        any::<u32>().prop_map(Target::Index),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| Target::Range {
            start: a.min(b),
            end: a.max(b)
        }),
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
        any::<u32>(),
    )
        .prop_map(|(seq, kind, target, len, thread)| AccessEvent {
            seq,
            kind,
            target,
            len,
            thread: ThreadTag(thread),
        })
}

proptest! {
    #[test]
    fn event_roundtrip(e in arb_event()) {
        let mut buf = BytesMut::new();
        encode_event(&e, &mut buf);
        let mut bytes = &buf[..];
        let back = decode_event(&mut bytes).unwrap();
        prop_assert_eq!(back, e);
        prop_assert_eq!(bytes.len(), 0);
    }

    #[test]
    fn batch_roundtrip(events in proptest::collection::vec(arb_event(), 0..200)) {
        let encoded = encode_batch(&events);
        let back = decode_batch(&encoded).unwrap();
        prop_assert_eq!(back, events);
    }

    #[test]
    fn truncation_never_panics(events in proptest::collection::vec(arb_event(), 1..20), cut_frac in 0.0f64..1.0) {
        let encoded = encode_batch(&events);
        let cut = ((encoded.len() as f64) * cut_frac) as usize;
        // Either decodes a (possibly different-length) prefix or errors; never panics.
        let _ = decode_batch(&encoded[..cut]);
    }
}
