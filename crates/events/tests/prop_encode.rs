//! Property tests: the chunked body codec is lossless for events in any
//! order and of any width, at any decode width, and malformed bodies are
//! errors, never panics: every single-byte flip anywhere in a body fails.

use dsspy_events::encode::{decode_bodies, encode_body, Body, DecodeError, CHUNK_EVENTS};
use dsspy_events::{AccessEvent, AccessKind, Target, ThreadTag};
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

fn encode(events: &[AccessEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_body(events, &mut out);
    out
}

fn decode(bytes: &[u8], expected: u64, threads: usize) -> Result<Vec<AccessEvent>, DecodeError> {
    let body = Body::parse(bytes, expected)?;
    let mut bodies = decode_bodies(&[body], threads).map_err(|e| e.error)?;
    Ok(bodies.remove(0))
}

proptest! {
    #[test]
    fn body_roundtrip(events in proptest::collection::vec(arb_event(), 0..300)) {
        let bytes = encode(&events);
        prop_assert_eq!(decode(&bytes, events.len() as u64, 1).unwrap(), events);
    }

    #[test]
    fn many_bodies_roundtrip_at_any_width(
        profiles in proptest::collection::vec(proptest::collection::vec(arb_event(), 0..100), 0..6),
        threads in 0usize..5,
    ) {
        let encoded: Vec<Vec<u8>> = profiles.iter().map(|p| encode(p)).collect();
        let bodies: Vec<Body> = encoded
            .iter()
            .zip(&profiles)
            .map(|(bytes, p)| Body::parse(bytes, p.len() as u64).unwrap())
            .collect();
        let decoded = decode_bodies(&bodies, threads).unwrap();
        for (body, events) in decoded.iter().zip(&profiles) {
            prop_assert_eq!(body, events);
        }
        prop_assert_eq!(decoded.len(), profiles.len());
    }

    #[test]
    fn every_truncation_is_an_error(
        events in proptest::collection::vec(arb_event(), 1..100),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode(&events);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(decode(&bytes[..cut], events.len() as u64, 1).is_err());
    }

    #[test]
    fn every_single_byte_flip_is_an_error(
        events in proptest::collection::vec(arb_event(), 1..100),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        threads in 1usize..3,
    ) {
        let mut bytes = encode(&events);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        // A flip in the frame breaks the count, the framing or the
        // checksum; a flip in the rows always breaks the checksum.
        let decoded = decode(&bytes, events.len() as u64, threads);
        prop_assert!(decoded.is_err(), "flip {:#04x} at {} decoded", flip, pos);
        if pos >= 12 {
            prop_assert!(
                matches!(decoded, Err(DecodeError::Checksum { .. })),
                "row flip at {} gave {:?}", pos, decoded
            );
        }
    }
}

/// One profile spanning three chunks, mixing every target and several
/// thread switches, round-trips at every decode width.
#[test]
fn a_profile_of_three_chunks_roundtrips_at_widths_1_2_4() {
    let n = 2 * CHUNK_EVENTS + 1;
    let events: Vec<AccessEvent> = (0..n as u64)
        .map(|i| {
            let k = i as u32;
            let target = match i % 4 {
                0 => Target::Index(k % 1000),
                1 => Target::Range {
                    start: k % 1000,
                    end: k % 1000 + 7,
                },
                2 => Target::Whole,
                _ => Target::None,
            };
            AccessEvent {
                seq: 3 * i,
                kind: AccessKind::from_u8((i % 11) as u8).unwrap(),
                target,
                len: 1000 + (k % 13),
                thread: ThreadTag((i / 10_000) as u32 % 3),
            }
        })
        .collect();
    let bytes = encode(&events);
    for threads in [1, 2, 4] {
        assert_eq!(
            decode(&bytes, n as u64, threads).unwrap(),
            events,
            "{threads} threads"
        );
    }
    // The second chunk's frame is guarded like the first.
    let first_bytes = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let second = 12 + first_bytes;
    for pos in second..second + 12 {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x01;
        assert!(decode(&bad, n as u64, 2).is_err(), "frame flip at {pos}");
    }
    assert_eq!(
        decode(&bytes[..second], n as u64, 2),
        Err(DecodeError::EventCount {
            expected: n as u64,
            found: CHUNK_EVENTS as u64
        })
    );
}
