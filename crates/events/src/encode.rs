//! Compact binary encoding for access events and profiles.
//!
//! This is the on-disk event format of a persisted capture: each
//! instance's events are one count-prefixed batch body. (The collector's
//! channel carries `Vec<AccessEvent>` batches and never encodes them.)
//! Decoding reads straight from the bytes already in memory, without
//! copying them first.
//!
//! Layout (little-endian, fixed-width except for the target which is
//! tag-prefixed). `seq` is the event's only timestamp (a logical tick), so
//! an index-targeted event takes 22 bytes:
//!
//! ```text
//! event   := seq:u64 kind:u8 thread:u32 len:u32 target
//! target  := 0x00 idx:u32            (Index)
//!          | 0x01 start:u32 end:u32  (Range)
//!          | 0x02                    (Whole)
//!          | 0x03                    (None)
//! batch   := count:u32 event*
//! ```

use crate::event::{AccessEvent, AccessKind, Target, ThreadTag};
use bytes::{BufMut, Bytes, BytesMut};

/// Error produced when decoding malformed event bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended in the middle of an event.
    Truncated,
    /// An unknown [`AccessKind`] discriminant was encountered.
    BadKind(u8),
    /// An unknown target tag was encountered.
    BadTarget(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "event buffer truncated"),
            DecodeError::BadKind(k) => write!(f, "unknown access kind discriminant {k}"),
            DecodeError::BadTarget(t) => write!(f, "unknown target tag {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append one event to `buf` in wire format.
pub fn encode_event(e: &AccessEvent, buf: &mut BytesMut) {
    buf.put_u64_le(e.seq);
    buf.put_u8(e.kind as u8);
    buf.put_u32_le(e.thread.0);
    buf.put_u32_le(e.len);
    match e.target {
        Target::Index(i) => {
            buf.put_u8(0);
            buf.put_u32_le(i);
        }
        Target::Range { start, end } => {
            buf.put_u8(1);
            buf.put_u32_le(start);
            buf.put_u32_le(end);
        }
        Target::Whole => buf.put_u8(2),
        Target::None => buf.put_u8(3),
    }
}

/// Take the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Decode one event from the front of `buf`, advancing it past the event.
pub fn decode_event(buf: &mut &[u8]) -> Result<AccessEvent, DecodeError> {
    // Fixed header: 8 + 1 + 4 + 4 + 1 (target tag) = 18 bytes minimum.
    if buf.len() < 18 {
        return Err(DecodeError::Truncated);
    }
    let seq = u64::from_le_bytes(take(buf)?);
    let [kind_raw] = take(buf)?;
    let kind = AccessKind::from_u8(kind_raw).ok_or(DecodeError::BadKind(kind_raw))?;
    let thread = ThreadTag(u32::from_le_bytes(take(buf)?));
    let len = u32::from_le_bytes(take(buf)?);
    let [tag] = take(buf)?;
    let target = match tag {
        0 => Target::Index(u32::from_le_bytes(take(buf)?)),
        1 => {
            let start = u32::from_le_bytes(take(buf)?);
            let end = u32::from_le_bytes(take(buf)?);
            Target::Range { start, end }
        }
        2 => Target::Whole,
        3 => Target::None,
        t => return Err(DecodeError::BadTarget(t)),
    };
    Ok(AccessEvent {
        seq,
        kind,
        target,
        len,
        thread,
    })
}

/// Encode a batch of events with a count prefix.
pub fn encode_batch(events: &[AccessEvent]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + events.len() * 26);
    buf.put_u32_le(events.len() as u32);
    for e in events {
        encode_event(e, &mut buf);
    }
    buf.freeze()
}

/// Decode a count-prefixed batch of events from `bytes`.
pub fn decode_batch(mut bytes: &[u8]) -> Result<Vec<AccessEvent>, DecodeError> {
    let count = u32::from_le_bytes(take(&mut bytes)?) as usize;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        out.push(decode_event(&mut bytes)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<AccessEvent> {
        vec![
            AccessEvent {
                seq: 0,
                kind: AccessKind::Insert,
                target: Target::Index(0),
                len: 1,
                thread: ThreadTag(0),
            },
            AccessEvent {
                seq: 1,
                kind: AccessKind::Search,
                target: Target::Range { start: 0, end: 17 },
                len: 40,
                thread: ThreadTag(3),
            },
            AccessEvent {
                seq: u64::MAX,
                kind: AccessKind::Clear,
                target: Target::Whole,
                len: u32::MAX,
                thread: ThreadTag(u32::MAX),
            },
            AccessEvent {
                seq: 2,
                kind: AccessKind::Search,
                target: Target::None,
                len: 0,
                thread: ThreadTag(1),
            },
        ]
    }

    #[test]
    fn single_event_roundtrip() {
        for e in sample_events() {
            let mut buf = BytesMut::new();
            encode_event(&e, &mut buf);
            let mut b = &buf[..];
            assert_eq!(decode_event(&mut b).unwrap(), e);
            assert!(b.is_empty(), "decoder must consume the event exactly");
        }
    }

    #[test]
    fn batch_roundtrip() {
        let events = sample_events();
        let encoded = encode_batch(&events);
        assert_eq!(decode_batch(&encoded).unwrap(), events);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let encoded = encode_batch(&[]);
        assert_eq!(decode_batch(&encoded).unwrap(), vec![]);
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        let events = sample_events();
        let encoded = encode_batch(&events);
        for cut in [0usize, 3, 4, 10, encoded.len() - 1] {
            assert!(
                decode_batch(&encoded[..cut]).is_err(),
                "cut at {cut} should fail to decode"
            );
        }
    }

    #[test]
    fn bad_kind_is_an_error() {
        let mut buf = BytesMut::new();
        encode_event(&sample_events()[0], &mut buf);
        let mut raw = buf.to_vec();
        raw[8] = 200; // kind byte
        assert_eq!(decode_event(&mut &raw[..]), Err(DecodeError::BadKind(200)));
    }

    #[test]
    fn bad_target_is_an_error() {
        let mut buf = BytesMut::new();
        encode_event(&sample_events()[0], &mut buf);
        let mut raw = buf.to_vec();
        raw[17] = 9; // target tag byte
        assert_eq!(decode_event(&mut &raw[..]), Err(DecodeError::BadTarget(9)));
    }
}
