//! Compact binary encoding of event bodies, and their chunk-by-chunk decode.
//!
//! This is the on-disk event format of a persisted capture (format
//! version 4): each instance's events are one *body*, a run of
//! independently decodable chunks of at most [`CHUNK_EVENTS`] events, each
//! guarded by a checksum of its rows.
//! A session's collector writes the same bodies as the batches arrive
//! ([`BodyWriter`]); saving a capture writes them unchanged. Every field is
//! coded against the row before it, so the common row — the next tick, same
//! thread and length, a neighbouring index — takes 4 bytes.
//!
//! ```text
//! body    := chunk*
//! chunk   := count:u32 (1..=CHUNK_EVENTS) bytes:u32 sum:u32 row{count}
//! row     := head:u8 dseq:var [thread:var] dlen:zvar [target]
//! head    := kind (bits 0-3) | target tag (bits 4-5: Index, Range, Whole, None)
//!            | thread-changed (bit 6); bit 7 must be 0
//! target  := Index: zvar(idx - prev_idx) | Range: zvar(start - prev_idx) zvar(end - start)
//! ```
//!
//! `var` is LEB128 `u64`; `zvar` is zigzag LEB128 of the `i64` difference;
//! `dseq = seq - prev_seq` (wrapping). A Range moves `prev_idx` to its
//! start. `prev_seq`, thread, len and `prev_idx` start at 0 in every chunk,
//! so chunks decode independently: [`Chunk::decode_to`] writes one chunk
//! straight into its slots of a pre-sized event vector, which lets a reader
//! spread the chunks of all bodies over worker threads, and
//! [`Chunk::decode_into`] decodes one chunk into a caller's buffer.
//!
//! `sum` is a Fletcher-style checksum of the chunk's row bytes. Decoding a chunk checks
//! it first, in the same pass, so a flipped byte in the rows fails as
//! [`DecodeError::Checksum`] instead of decoding into other events.
//!
//! Decoding validates before it allocates: [`Body::parse`] checks every
//! chunk's framing and that the counts sum to the expected event count, and
//! only then are the event vectors sized from those validated counts.

use std::mem::MaybeUninit;

use crate::event::{AccessEvent, AccessKind, Target, ThreadTag};

/// Most events one chunk holds; a body of `n` events has `⌈n / CHUNK_EVENTS⌉`
/// chunks.
pub const CHUNK_EVENTS: usize = 65_536;

/// The largest row: head, a 10-byte `dseq`, a 5-byte thread, a 5-byte
/// `dlen` and two 5-byte range fields.
const MAX_ROW_BYTES: usize = 31;

/// The smallest row: head, `dseq` and `dlen` of one byte each.
const MIN_ROW_BYTES: usize = 3;

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

const THREAD_CHANGED: u8 = 0x40;
const HEAD_RESERVED: u8 = 0x80;

const TAG_INDEX: u8 = 0;
const TAG_RANGE: u8 = 1;
const TAG_WHOLE: u8 = 2;
const TAG_NONE: u8 = 3;

/// Error produced when decoding a malformed body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The body ended inside a chunk header or before a chunk's rows.
    Truncated,
    /// A chunk declared 0 events or more than [`CHUNK_EVENTS`].
    BadChunkCount(u32),
    /// A chunk declared a byte length its event count cannot fill (each row
    /// takes 3 to 31 bytes).
    BadChunkBytes {
        /// The chunk's declared event count.
        count: u32,
        /// The chunk's declared byte length.
        bytes: u32,
    },
    /// A varint ran over 10 bytes.
    VarintTooLong,
    /// A 10-byte varint does not fit in a `u64`.
    VarintOverflow,
    /// An unknown [`AccessKind`] discriminant was encountered.
    BadKind(u8),
    /// A row head had its reserved bit 7 set.
    BadHead(u8),
    /// A decoded field (len, index, start, end or thread) lies outside `u32`.
    OutOfRange(&'static str),
    /// A chunk's rows did not consume exactly its declared byte length.
    RowBytes,
    /// A chunk's rows do not match the checksum its frame declares.
    Checksum {
        /// The checksum the chunk's frame declares.
        declared: u32,
        /// The checksum of the rows as read.
        computed: u32,
    },
    /// The chunk counts do not sum to the expected number of events.
    EventCount {
        /// Events the caller expects the body to hold.
        expected: u64,
        /// Events the body's chunks declare.
        found: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "event body truncated"),
            DecodeError::BadChunkCount(n) => {
                write!(f, "chunk declares {n} events (must be 1..={CHUNK_EVENTS})")
            }
            DecodeError::BadChunkBytes { count, bytes } => write!(
                f,
                "chunk of {count} events declares {bytes} bytes \
                 (rows take {MIN_ROW_BYTES} to {MAX_ROW_BYTES} bytes)"
            ),
            DecodeError::VarintTooLong => write!(f, "varint longer than {MAX_VARINT_BYTES} bytes"),
            DecodeError::VarintOverflow => write!(f, "varint overflows u64"),
            DecodeError::BadKind(k) => write!(f, "unknown access kind discriminant {k}"),
            DecodeError::BadHead(h) => write!(f, "row head {h:#04x} has reserved bit 7 set"),
            DecodeError::OutOfRange(field) => write!(f, "{field} lies outside u32"),
            DecodeError::RowBytes => {
                write!(f, "chunk rows do not fill exactly its declared bytes")
            }
            DecodeError::Checksum { declared, computed } => write!(
                f,
                "chunk checksum mismatch: the frame declares {declared:#010x}, \
                 the rows sum to {computed:#010x}"
            ),
            DecodeError::EventCount { expected, found } => {
                write!(f, "expected {expected} events, chunks hold {found}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The running values every row is coded against; reset per chunk.
#[derive(Clone, Debug, Default)]
struct Prev {
    seq: u64,
    thread: u32,
    len: u32,
    idx: u32,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn put_var(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_delta(out: &mut Vec<u8>, from: u32, to: u32) {
    put_var(out, zigzag(i64::from(to) - i64::from(from)));
}

fn encode_row(e: &AccessEvent, prev: &mut Prev, out: &mut Vec<u8>) {
    // The common row — an Index target on the same thread, every field one
    // byte — is written in one go.
    if let (Target::Index(i), true) = (e.target, e.thread.0 == prev.thread) {
        let dseq = e.seq.wrapping_sub(prev.seq);
        let dlen = zigzag(i64::from(e.len) - i64::from(prev.len));
        let didx = zigzag(i64::from(i) - i64::from(prev.idx));
        if (dseq | dlen | didx) < 0x80 {
            out.extend_from_slice(&[e.kind as u8, dseq as u8, dlen as u8, didx as u8]);
            prev.seq = e.seq;
            prev.len = e.len;
            prev.idx = i;
            return;
        }
    }
    let tag = match e.target {
        Target::Index(_) => TAG_INDEX,
        Target::Range { .. } => TAG_RANGE,
        Target::Whole => TAG_WHOLE,
        Target::None => TAG_NONE,
    };
    let thread_changed = e.thread.0 != prev.thread;
    let mut head = e.kind as u8 | tag << 4;
    if thread_changed {
        head |= THREAD_CHANGED;
    }
    out.push(head);
    put_var(out, e.seq.wrapping_sub(prev.seq));
    if thread_changed {
        put_var(out, u64::from(e.thread.0));
    }
    put_delta(out, prev.len, e.len);
    match e.target {
        Target::Index(i) => {
            put_delta(out, prev.idx, i);
            prev.idx = i;
        }
        Target::Range { start, end } => {
            put_delta(out, prev.idx, start);
            put_delta(out, start, end);
            prev.idx = start;
        }
        Target::Whole | Target::None => {}
    }
    prev.seq = e.seq;
    prev.thread = e.thread.0;
    prev.len = e.len;
}

/// Bytes of a chunk frame: count, byte length and checksum.
const FRAME_BYTES: usize = 12;

/// The checksum of a chunk's row bytes, a 32-bit word at a time.
///
/// Fletcher-style: with the rows read as little-endian words `w_1..w_n`
/// (the last one zero-padded), it is `Σ (2(n - i) + 3) · w_i mod 2^32`,
/// computed from the running sums `s1 = Σ w` and `s2 = Σ s1` as
/// `s1 + 2·s2`. Every weight is odd, hence invertible mod 2^32, and a
/// changed byte changes one word by `d · 2^(8j)` with `0 < |d| < 256`,
/// `j < 4`; so every single-byte change changes the checksum. The weights
/// also make it depend on word order.
fn checksum(rows: &[u8]) -> u32 {
    let (mut s1, mut s2) = (0u32, 0u32);
    let mut words = rows.chunks_exact(4);
    for word in &mut words {
        s1 = s1.wrapping_add(u32::from_le_bytes([word[0], word[1], word[2], word[3]]));
        s2 = s2.wrapping_add(s1);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 4];
        word[..tail.len()].copy_from_slice(tail);
        s1 = s1.wrapping_add(u32::from_le_bytes(word));
        s2 = s2.wrapping_add(s1);
    }
    s1.wrapping_add(s2.wrapping_mul(2))
}

/// One body written a batch at a time.
///
/// Each [`BodyWriter::push`] encodes its events on arrival into the open
/// chunk, which is sealed — its frame and checksum written — as soon as it
/// holds [`CHUNK_EVENTS`] rows, or when the body is finished. The bytes are
/// the same however the events were split into pushes: [`encode_body`] is
/// one push of the whole slice.
#[derive(Clone, Debug, Default)]
pub struct BodyWriter {
    /// Sealed chunks, then the open chunk's frame placeholder and rows.
    bytes: Vec<u8>,
    /// Where the open chunk's frame starts in `bytes`.
    frame: usize,
    /// Rows in the open chunk; 0 when no chunk is open.
    open: usize,
    /// Events pushed so far.
    events: u64,
    prev: Prev,
}

impl BodyWriter {
    /// Encode `events` after the events pushed before them.
    pub fn push(&mut self, mut events: &[AccessEvent]) {
        while !events.is_empty() {
            if self.open == 0 {
                self.frame = self.bytes.len();
                self.bytes.extend_from_slice(&[0; FRAME_BYTES]);
                self.prev = Prev::default();
            }
            let take = events.len().min(CHUNK_EVENTS - self.open);
            let (rows, rest) = events.split_at(take);
            self.bytes.reserve(take * MAX_ROW_BYTES);
            for e in rows {
                encode_row(e, &mut self.prev, &mut self.bytes);
            }
            self.open += take;
            self.events += take as u64;
            if self.open == CHUNK_EVENTS {
                self.seal();
            }
            events = rest;
        }
    }

    /// The number of events pushed so far.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// Whether no event was pushed.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Seal the open chunk, if any, and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.seal();
        self.bytes
    }

    fn seal(&mut self) {
        if self.open == 0 {
            return;
        }
        let frame = self.frame;
        let rows = &self.bytes[frame + FRAME_BYTES..];
        let (bytes, sum) = (rows.len() as u32, checksum(rows));
        self.bytes[frame..frame + 4].copy_from_slice(&(self.open as u32).to_le_bytes());
        self.bytes[frame + 4..frame + 8].copy_from_slice(&bytes.to_le_bytes());
        self.bytes[frame + 8..frame + FRAME_BYTES].copy_from_slice(&sum.to_le_bytes());
        self.open = 0;
    }
}

/// Append `events` to `out` as one body: chunks of at most
/// [`CHUNK_EVENTS`] rows, in order. An empty slice appends nothing.
pub fn encode_body(events: &[AccessEvent], out: &mut Vec<u8>) {
    let mut body = BodyWriter {
        bytes: std::mem::take(out),
        ..BodyWriter::default()
    };
    body.push(events);
    *out = body.finish();
}

/// One chunk of a parsed [`Body`]: its declared event count, checksum and
/// row bytes.
pub struct Chunk<'a> {
    count: usize,
    sum: u32,
    rows: &'a [u8],
}

impl Chunk<'_> {
    /// The number of events the chunk holds.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the chunk holds no events (never true of a parsed chunk).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Check the chunk's checksum, then decode its events into `out`,
    /// replacing what `out` held. On error `out` holds the events decoded
    /// before the failing row.
    pub fn decode_into(&self, out: &mut Vec<AccessEvent>) -> Result<(), DecodeError> {
        self.verify()?;
        out.clear();
        out.reserve(self.count);
        let (mut rows, mut prev) = (self.rows, Prev::default());
        for _ in 0..self.count {
            out.push(decode_row(&mut rows, &mut prev)?);
        }
        if !rows.is_empty() {
            return Err(DecodeError::RowBytes);
        }
        Ok(())
    }

    /// Check the chunk's checksum, then decode its events into `dst`, one
    /// per slot, in stored order.
    ///
    /// On `Ok`, every slot of `dst` has been written. On error, a prefix of
    /// the slots may have been. Panics if `dst` does not have exactly
    /// [`Chunk::len`] slots.
    pub fn decode_to(&self, dst: &mut [MaybeUninit<AccessEvent>]) -> Result<(), DecodeError> {
        assert_eq!(dst.len(), self.count, "one slot per event of the chunk");
        self.verify()?;
        let (mut rows, mut prev) = (self.rows, Prev::default());
        for slot in dst.iter_mut() {
            slot.write(decode_row(&mut rows, &mut prev)?);
        }
        if !rows.is_empty() {
            return Err(DecodeError::RowBytes);
        }
        Ok(())
    }

    /// Check the chunk's rows against the checksum its frame declares,
    /// decoding nothing.
    pub fn verify(&self) -> Result<(), DecodeError> {
        let computed = checksum(self.rows);
        if computed != self.sum {
            return Err(DecodeError::Checksum {
                declared: self.sum,
                computed,
            });
        }
        Ok(())
    }
}

/// A body whose chunk framing has been validated but not yet decoded.
pub struct Body<'a> {
    chunks: Vec<Chunk<'a>>,
    events: usize,
}

impl<'a> Body<'a> {
    /// Split `bytes` into chunks, checking each chunk's count and byte
    /// length and that the counts sum to `expected_events`. Rows are not
    /// read until a chunk is decoded.
    pub fn parse(mut bytes: &'a [u8], expected_events: u64) -> Result<Body<'a>, DecodeError> {
        let mut chunks = Vec::new();
        let mut events = 0u64;
        while !bytes.is_empty() {
            let (frame, rest) = bytes
                .split_first_chunk::<FRAME_BYTES>()
                .ok_or(DecodeError::Truncated)?;
            let [c0, c1, c2, c3, b0, b1, b2, b3, s0, s1, s2, s3] = *frame;
            let count = u32::from_le_bytes([c0, c1, c2, c3]);
            let len = u32::from_le_bytes([b0, b1, b2, b3]);
            let sum = u32::from_le_bytes([s0, s1, s2, s3]);
            if count == 0 || count as usize > CHUNK_EVENTS {
                return Err(DecodeError::BadChunkCount(count));
            }
            let (n, len_bytes) = (count as usize, len as usize);
            if len_bytes < n * MIN_ROW_BYTES || len_bytes > n * MAX_ROW_BYTES {
                return Err(DecodeError::BadChunkBytes { count, bytes: len });
            }
            if rest.len() < len_bytes {
                return Err(DecodeError::Truncated);
            }
            let (rows, rest) = rest.split_at(len_bytes);
            chunks.push(Chunk {
                count: n,
                sum,
                rows,
            });
            events += u64::from(count);
            bytes = rest;
        }
        if events != expected_events {
            return Err(DecodeError::EventCount {
                expected: expected_events,
                found: events,
            });
        }
        Ok(Body {
            chunks,
            events: events as usize,
        })
    }

    /// The body's chunks, in order.
    pub fn chunks(&self) -> &[Chunk<'a>] {
        &self.chunks
    }

    /// The number of events the body holds: the sum of its chunk counts.
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether the body holds no events.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }
}

fn byte(rows: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&b, rest) = rows.split_first().ok_or(DecodeError::RowBytes)?;
    *rows = rest;
    Ok(b)
}

fn var(rows: &mut &[u8]) -> Result<u64, DecodeError> {
    let b = byte(rows)?;
    if b < 0x80 {
        return Ok(u64::from(b));
    }
    let mut v = u64::from(b & 0x7f);
    for shift in (7..64).step_by(7) {
        let b = byte(rows)?;
        if shift == 63 {
            if b & 0x80 != 0 {
                return Err(DecodeError::VarintTooLong);
            }
            if b > 1 {
                return Err(DecodeError::VarintOverflow);
            }
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
    }
    unreachable!("the tenth byte always returns")
}

/// `from` moved by the zigzag-coded difference `z`, which must land in `u32`.
fn step(from: u32, z: u64, field: &'static str) -> Result<u32, DecodeError> {
    i64::from(from)
        .checked_add(unzigzag(z))
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(DecodeError::OutOfRange(field))
}

fn delta(rows: &mut &[u8], from: u32, field: &'static str) -> Result<u32, DecodeError> {
    step(from, var(rows)?, field)
}

fn kind_of(head: u8) -> Result<AccessKind, DecodeError> {
    if head & HEAD_RESERVED != 0 {
        return Err(DecodeError::BadHead(head));
    }
    AccessKind::from_u8(head & 0x0f).ok_or(DecodeError::BadKind(head & 0x0f))
}

// Both decode loops (into a body's slots and into a caller's buffer) call
// this per row: inlined into each, the common row stays a straight-line
// path (left to the compiler, the second caller stops it inlining).
#[inline(always)]
fn decode_row(rows: &mut &[u8], prev: &mut Prev) -> Result<AccessEvent, DecodeError> {
    // The common row — an Index target on the same thread, every field one
    // byte — decodes from one bounds check.
    if let Some((&[head, dseq, dlen, didx], rest)) = rows.split_first_chunk::<4>() {
        if head & (THREAD_CHANGED | 0x30) == 0 && (dseq | dlen | didx) < 0x80 {
            let kind = kind_of(head)?;
            prev.seq = prev.seq.wrapping_add(u64::from(dseq));
            prev.len = step(prev.len, u64::from(dlen), "len")?;
            prev.idx = step(prev.idx, u64::from(didx), "index")?;
            *rows = rest;
            return Ok(AccessEvent {
                seq: prev.seq,
                kind,
                target: Target::Index(prev.idx),
                len: prev.len,
                thread: ThreadTag(prev.thread),
            });
        }
    }
    let head = byte(rows)?;
    let kind = kind_of(head)?;
    prev.seq = prev.seq.wrapping_add(var(rows)?);
    if head & THREAD_CHANGED != 0 {
        prev.thread = u32::try_from(var(rows)?).map_err(|_| DecodeError::OutOfRange("thread"))?;
    }
    prev.len = delta(rows, prev.len, "len")?;
    let target = match (head >> 4) & 0x03 {
        TAG_INDEX => {
            prev.idx = delta(rows, prev.idx, "index")?;
            Target::Index(prev.idx)
        }
        TAG_RANGE => {
            let start = delta(rows, prev.idx, "start")?;
            let end = delta(rows, start, "end")?;
            prev.idx = start;
            Target::Range { start, end }
        }
        TAG_WHOLE => Target::Whole,
        _ => Target::None,
    };
    Ok(AccessEvent {
        seq: prev.seq,
        kind,
        target,
        len: prev.len,
        thread: ThreadTag(prev.thread),
    })
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
            AccessEvent {
                seq: 3,
                kind: AccessKind::Resize,
                target: Target::Range {
                    start: u32::MAX,
                    end: 0,
                },
                len: 7,
                thread: ThreadTag(1),
            },
        ]
    }

    fn encode(events: &[AccessEvent]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_body(events, &mut out);
        out
    }

    fn decode(bytes: &[u8], expected: u64) -> Result<Vec<AccessEvent>, DecodeError> {
        let body = Body::parse(bytes, expected)?;
        let (mut events, mut chunk_events) = (Vec::new(), Vec::new());
        for chunk in body.chunks() {
            chunk.decode_into(&mut chunk_events)?;
            events.extend_from_slice(&chunk_events);
        }
        Ok(events)
    }

    /// A one-chunk body holding `rows` verbatim as its `count` rows, with
    /// their checksum.
    fn chunk(count: u32, rows: &[u8]) -> Vec<u8> {
        let mut out = count.to_le_bytes().to_vec();
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum(rows).to_le_bytes());
        out.extend_from_slice(rows);
        out
    }

    #[test]
    fn body_roundtrip() {
        let events = sample_events();
        assert_eq!(decode(&encode(&events), 5).unwrap(), events);
    }

    #[test]
    fn empty_body_roundtrip() {
        assert!(encode(&[]).is_empty());
        assert_eq!(decode(&[], 0).unwrap(), vec![]);
    }

    #[test]
    fn a_sequential_fill_takes_four_bytes_per_event() {
        let events: Vec<_> = (0..1000u32)
            .map(|i| AccessEvent::at(u64::from(i), AccessKind::Insert, i, i + 1))
            .collect();
        // One 12-byte chunk frame; the first row's deltas are all small too.
        assert_eq!(encode(&events).len(), FRAME_BYTES + 4 * 1000);
    }

    #[test]
    fn bodies_split_into_full_chunks() {
        let events: Vec<_> = (0..CHUNK_EVENTS as u64 + 1)
            .map(|i| AccessEvent::whole(i, AccessKind::Read, 3))
            .collect();
        let bytes = encode(&events);
        let body = Body::parse(&bytes, events.len() as u64).unwrap();
        let counts: Vec<_> = body.chunks.iter().map(|c| c.count).collect();
        assert_eq!(counts, vec![CHUNK_EVENTS, 1]);
        assert_eq!((body.len(), body.is_empty()), (events.len(), false));
        assert_eq!(decode(&bytes, events.len() as u64).unwrap(), events);
    }

    #[test]
    fn pushes_of_any_size_write_the_body_of_one_push() {
        let events: Vec<_> = (0..2 * CHUNK_EVENTS as u64 + 5)
            .map(|i| AccessEvent::at(i, AccessKind::Read, (i % 300) as u32, 300))
            .collect();
        let whole = encode(&events);
        for step in [1, 1000, CHUNK_EVENTS - 1, CHUNK_EVENTS, CHUNK_EVENTS + 1] {
            let mut body = BodyWriter::default();
            for part in events.chunks(step) {
                body.push(part);
            }
            assert_eq!(body.len(), events.len() as u64);
            assert!(body.finish() == whole, "pushes of {step}");
        }
        assert!(BodyWriter::default().finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "one slot per event")]
    fn decode_to_wants_one_slot_per_event() {
        let bytes = encode(&sample_events());
        let body = Body::parse(&bytes, 5).unwrap();
        let mut slots = [MaybeUninit::uninit(); 4];
        let _ = body.chunks()[0].decode_to(&mut slots);
    }

    #[test]
    fn every_single_byte_change_changes_the_checksum() {
        let rows: Vec<u8> = (0..23u8).map(|b| b.wrapping_mul(37)).collect();
        let sum = checksum(&rows);
        for at in 0..rows.len() {
            for flip in 1..=255u8 {
                let mut changed = rows.clone();
                changed[at] ^= flip;
                assert_ne!(checksum(&changed), sum, "byte {at} ^ {flip:#04x}");
            }
        }
        // Word order matters too.
        assert_ne!(
            checksum(&[1, 0, 0, 0, 2, 0, 0, 0]),
            checksum(&[2, 0, 0, 0, 1, 0, 0, 0])
        );
    }

    #[test]
    fn a_flipped_row_byte_fails_the_checksum() {
        let good = encode(&sample_events());
        let row = FRAME_BYTES + 2;
        let mut bytes = good.clone();
        bytes[row] ^= 0x01;
        let err = decode(&bytes, 5).unwrap_err();
        assert!(matches!(err, DecodeError::Checksum { .. }), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        let body = Body::parse(&bytes, 5).unwrap();
        let mut out = Vec::new();
        assert_eq!(body.chunks()[0].decode_into(&mut out), Err(err));
    }

    #[test]
    fn decode_into_reuses_the_buffer_chunk_by_chunk() {
        let events: Vec<_> = (0..CHUNK_EVENTS as u64 + 7)
            .map(|i| AccessEvent::at(i, AccessKind::Read, (i % 300) as u32, 300))
            .collect();
        let bytes = encode(&events);
        let body = Body::parse(&bytes, events.len() as u64).unwrap();
        let mut out = vec![AccessEvent::whole(9, AccessKind::Clear, 1)];
        let mut all = Vec::new();
        for chunk in body.chunks() {
            chunk.decode_into(&mut out).unwrap();
            assert_eq!(out.len(), chunk.len());
            all.extend_from_slice(&out);
        }
        assert_eq!(all, events);
    }

    #[test]
    fn out_of_order_bodies_decode_in_stored_order() {
        let ordered: Vec<_> = (0..CHUNK_EVENTS as u64 + 3)
            .map(|i| AccessEvent::whole(i / 2, AccessKind::Read, 3))
            .collect();
        let mut inside = ordered.clone();
        inside.swap(10, 11);
        inside.swap(20, 30);
        // The second chunk starts below where the first one ends.
        let mut across = ordered.clone();
        across[CHUNK_EVENTS].seq = 0;
        across[CHUNK_EVENTS + 1].seq = 0;
        across[CHUNK_EVENTS + 2].seq = 0;
        for events in [&ordered, &inside, &across] {
            let back = decode(&encode(events), events.len() as u64).unwrap();
            assert_eq!(&back, events);
        }
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = encode(&sample_events());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], 5).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn truncated_frame_is_an_error() {
        assert_eq!(
            decode(&[1, 0, 0, 0, 3, 0, 0, 0], 1),
            Err(DecodeError::Truncated)
        );
        let mut bytes = chunk(1, &[0, 0, 0]);
        bytes.pop();
        assert_eq!(decode(&bytes, 1), Err(DecodeError::Truncated));
    }

    #[test]
    fn zero_or_oversized_chunk_count_is_an_error() {
        assert_eq!(
            decode(&chunk(0, &[]), 0),
            Err(DecodeError::BadChunkCount(0))
        );
        let over = CHUNK_EVENTS as u32 + 1;
        assert_eq!(
            decode(&chunk(over, &[]), u64::from(over)),
            Err(DecodeError::BadChunkCount(over))
        );
    }

    #[test]
    fn implausible_chunk_bytes_are_an_error() {
        // Above 31 bytes per row ...
        assert_eq!(
            decode(&chunk(1, &[0; 32]), 1),
            Err(DecodeError::BadChunkBytes {
                count: 1,
                bytes: 32
            })
        );
        // ... or below 3: checked before anything is sized from the count.
        assert_eq!(
            decode(&chunk(1000, &[0; 8]), 1000),
            Err(DecodeError::BadChunkBytes {
                count: 1000,
                bytes: 8
            })
        );
    }

    #[test]
    fn varint_over_ten_bytes_is_an_error() {
        let mut rows = vec![0x00];
        rows.extend([0xff; 10]);
        rows.extend([0x00; 2]);
        assert_eq!(decode(&chunk(1, &rows), 1), Err(DecodeError::VarintTooLong));
    }

    #[test]
    fn overflowing_varint_is_an_error() {
        let mut rows = vec![0x00];
        rows.extend([0xff; 9]);
        rows.extend([0x02, 0x00, 0x00]);
        assert_eq!(
            decode(&chunk(1, &rows), 1),
            Err(DecodeError::VarintOverflow)
        );
        // The largest u64 itself decodes.
        let mut rows = vec![0x02 << 4];
        rows.extend([0xff; 9]);
        rows.extend([0x01, 0x00]);
        assert_eq!(decode(&chunk(1, &rows), 1).unwrap()[0].seq, u64::MAX);
    }

    #[test]
    fn kind_above_ten_is_an_error() {
        assert_eq!(
            decode(&chunk(1, &[0x0b, 0, 0, 0]), 1),
            Err(DecodeError::BadKind(11))
        );
    }

    #[test]
    fn reserved_head_bit_is_an_error() {
        assert_eq!(
            decode(&chunk(1, &[0x80, 0, 0, 0]), 1),
            Err(DecodeError::BadHead(0x80))
        );
    }

    #[test]
    fn fields_outside_u32_are_errors() {
        // A zigzag of -1 from 0 (0x01), and a thread of 2^32 (0x80 0x80 0x80 0x80 0x10).
        let big = [0x80, 0x80, 0x80, 0x80, 0x10];
        let whole = TAG_WHOLE << 4;
        let range = TAG_RANGE << 4;
        let cases: [(Vec<u8>, &str); 5] = [
            (vec![whole, 0, 0x01], "len"),
            (vec![0, 0, 0, 0x01], "index"),
            (vec![range, 0, 0, 0x01, 0], "start"),
            (vec![range, 0, 0, 0, 0x01], "end"),
            ([&[whole | 0x40, 0][..], &big, &[0]].concat(), "thread"),
        ];
        for (rows, field) in cases {
            assert_eq!(
                decode(&chunk(1, &rows), 1),
                Err(DecodeError::OutOfRange(field)),
                "{field}"
            );
        }
    }

    #[test]
    fn rows_must_fill_exactly_the_chunk() {
        // Three Whole rows of 3 bytes declared as 1 ...
        let whole = TAG_WHOLE << 4;
        assert_eq!(
            decode(&chunk(1, &[whole, 0, 0, whole, 0, 0]), 1),
            Err(DecodeError::RowBytes)
        );
        // ... and an Index row cut short by its chunk.
        assert_eq!(decode(&chunk(1, &[0, 0, 0]), 1), Err(DecodeError::RowBytes));
    }

    #[test]
    fn chunk_counts_must_sum_to_the_expected_events() {
        let bytes = encode(&sample_events());
        assert_eq!(
            decode(&bytes, 4),
            Err(DecodeError::EventCount {
                expected: 4,
                found: 5
            })
        );
    }
}
