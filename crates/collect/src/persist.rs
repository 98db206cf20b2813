//! Capture persistence: save a profiling session to disk and load it back.
//!
//! The paper's pipeline is two-phase — collect at runtime, analyze
//! post-mortem (§IV) — which implies captures are artifacts worth keeping:
//! re-analysis with different thresholds, report diffing across refactors,
//! and sharing profiles all need a durable form.
//!
//! Format (version-tagged):
//!
//! ```text
//! magic   := "DSSPYCAP" version:u32(=4)
//! header  := json(CaptureHeader), u64-LE length-prefixed
//! bodies  := per instance, in header order:
//!            u64-LE byte length, then chunk* (dsspy_events::encode)
//! ```
//!
//! The header (instances, stats, session duration, per-instance event
//! counts, collection telemetry) is JSON for debuggability; the event
//! bodies use the delta-varint chunk codec of [`dsspy_events::encode`]
//! because they dominate the size (about 4 bytes per event), each chunk
//! guarded by a checksum of its rows. This module owns the container:
//! magic, version, header, body order, error mapping and telemetry.
//! A session's capture holds its bodies already encoded, and
//! [`write_capture`] writes them unchanged.
//! [`read_encoded_with`] reads a file into an [`EncodedCapture`] whose
//! bodies are still encoded; [`read_capture_with`] decodes those into
//! profiles, and analysis can instead decode them chunk by chunk. Files of
//! any other version — including version 3, whose chunks carried no
//! checksum — are rejected with [`PersistError::BadVersion`] and must be
//! re-recorded.

use std::io::{self, Read, Write};
use std::path::Path;

use dsspy_events::encode::{encode_body, Body, DecodeError};
use dsspy_events::{InstanceInfo, RuntimeProfile};
use dsspy_telemetry::{overhead::signals, Telemetry, TelemetrySnapshot};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::collector::{Capture, CollectorStats};

const MAGIC: &[u8; 8] = b"DSSPYCAP";
const VERSION: u32 = 4;

/// Most bytes reserved for one body before any of it is read (64 MiB).
const MAX_BODY_RESERVE: u64 = 1 << 26;

/// JSON header of a persisted capture.
#[derive(Serialize, Deserialize)]
struct CaptureHeader {
    instances: Vec<InstanceInfo>,
    stats: CollectorStats,
    session_nanos: u64,
    event_counts: Vec<u64>,
    /// Collection-time telemetry (collector histograms, queue pressure,
    /// encode volume) recorded by an observed session — `None` for captures
    /// from unobserved sessions.
    #[serde(default)]
    telemetry: Option<TelemetrySnapshot>,
}

/// Errors from loading a persisted capture.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the DSspy capture magic.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion(u32),
    /// The JSON header failed to parse.
    BadHeader(String),
    /// An event body was corrupt.
    BadBody(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a DSspy capture file"),
            PersistError::BadVersion(v) => write!(
                f,
                "unsupported capture version {v} (this build reads version {VERSION}); \
                 re-record the capture"
            ),
            PersistError::BadHeader(e) => write!(f, "corrupt capture header: {e}"),
            PersistError::BadBody(e) => write!(f, "corrupt event body: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serialize a capture into a writer.
///
/// ```
/// use dsspy_collect::{read_capture, write_capture, Session};
///
/// let capture = Session::new().finish();
/// let mut buf = Vec::new();
/// write_capture(&capture, &mut buf).unwrap();
/// let back = read_capture(buf.as_slice()).unwrap();
/// assert_eq!(back.instance_count(), 0);
/// ```
pub fn write_capture(capture: &Capture, w: impl Write) -> Result<(), PersistError> {
    write_capture_with(capture, w, &Telemetry::disabled())
}

/// [`write_capture`] that also reports write volume and time: counters
/// `persist.encode_bytes`, `persist.bodies_encoded`, and the
/// `persist.encode_nanos` signal.
///
/// A session's capture already holds its bodies encoded, and they are
/// written unchanged; a capture of decoded profiles is encoded here, one
/// body at a time.
pub fn write_capture_with(
    capture: &Capture,
    mut w: impl Write,
    telemetry: &Telemetry,
) -> Result<(), PersistError> {
    let start_nanos = telemetry.now_nanos();
    let mut written = 0u64;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let counted = capture.profiles.counted();
    let header = CaptureHeader {
        instances: counted.iter().map(|(i, _)| (*i).clone()).collect(),
        stats: capture.stats,
        session_nanos: capture.session_nanos,
        event_counts: counted.iter().map(|(_, n)| *n).collect(),
        telemetry: capture.collection_telemetry.clone(),
    };
    let header_json =
        serde_json::to_vec(&header).map_err(|e| PersistError::BadHeader(e.to_string()))?;
    w.write_all(&(header_json.len() as u64).to_le_bytes())?;
    w.write_all(&header_json)?;
    written += 8 + 4 + 8 + header_json.len() as u64;
    let mut write_body = |body: &[u8]| {
        w.write_all(&(body.len() as u64).to_le_bytes())?;
        w.write_all(body)?;
        written += 8 + body.len() as u64;
        Ok::<(), io::Error>(())
    };
    match capture.profiles.sealed_bytes() {
        Some(mut bodies) => bodies.try_for_each(&mut write_body)?,
        None => {
            let mut body = Vec::new();
            for profile in capture.profiles.iter() {
                body.clear();
                encode_body(&profile.events, &mut body);
                write_body(&body)?;
            }
        }
    }
    // A buffered writer may still hold the tail of the file: a failed final
    // write must surface here, not be dropped with the writer.
    w.flush()?;
    if telemetry.is_enabled() {
        telemetry.counter("persist.encode_bytes").add(written);
        telemetry
            .counter("persist.bodies_encoded")
            .add(counted.len() as u64);
        telemetry
            .counter(signals::PERSIST_ENCODE)
            .add(telemetry.now_nanos().saturating_sub(start_nanos));
    }
    Ok(())
}

/// How [`read_capture_with`] / [`load_capture_with`] should behave.
#[derive(Clone, Debug)]
pub struct ReadOptions {
    /// Worker threads for decoding event bodies. `1` (the default) decodes
    /// inline; more threads split the chunks of all bodies into that many
    /// runs of near-equal event count, so one large instance decodes on
    /// several cores. `0` means one worker per core.
    pub threads: usize,
    /// Where to report decode volume and time.
    pub telemetry: Telemetry,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            threads: 1,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// A capture read into memory with its event bodies still encoded.
///
/// [`read_capture_with`] decodes the bodies into [`RuntimeProfile`]s;
/// analysis can instead decode one chunk at a time with
/// [`EncodedCapture::bodies`] and never build the profiles.
pub struct EncodedCapture {
    /// The registered instances, in header order.
    pub instances: Vec<InstanceInfo>,
    /// Collector statistics of the recording session.
    pub stats: CollectorStats,
    /// Wall-clock duration of the recording session, nanoseconds.
    pub session_nanos: u64,
    /// Collection-time telemetry of an observed recording session.
    pub collection_telemetry: Option<TelemetrySnapshot>,
    event_counts: Vec<u64>,
    bodies: Vec<Vec<u8>>,
}

impl EncodedCapture {
    /// Every body with its chunk framing validated against its instance's
    /// header event count, in header order. Rows are decoded later, chunk
    /// by chunk.
    pub fn bodies(&self) -> Result<Vec<Body<'_>>, PersistError> {
        self.bodies
            .iter()
            .zip(&self.event_counts)
            .enumerate()
            .map(|(i, (body, &expect))| {
                Body::parse(body, expect).map_err(|e| self.body_error(i, e))
            })
            .collect()
    }

    /// The error for body `body` failing to decode: names the instance.
    pub fn body_error(&self, body: usize, error: DecodeError) -> PersistError {
        PersistError::BadBody(format!("instance {}: {error}", self.instances[body].id))
    }
}

/// The error for a file that ends inside `field`.
fn truncated(field: &str) -> PersistError {
    PersistError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("truncated capture: ends inside {field}"),
    ))
}

/// The next `N` bytes of `r`, the fixed-size `field`; a reader that ends
/// first is a [`truncated`] capture.
fn read_field<const N: usize>(r: &mut impl Read, field: &str) -> Result<[u8; N], PersistError> {
    let mut bytes = [0u8; N];
    match r.read_exact(&mut bytes) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(truncated(field)),
        read => read.map(|()| bytes).map_err(PersistError::Io),
    }
}

/// Read a capture's header and encoded bodies from a reader, decoding no
/// event. With an enabled `telemetry`, the bytes read count into
/// `persist.decode_bytes` and the time into the `persist.decode_nanos`
/// signal; whoever decodes the bodies adds `persist.bodies_decoded` and the
/// decode time.
pub fn read_encoded_with(
    mut r: impl Read,
    telemetry: &Telemetry,
) -> Result<EncodedCapture, PersistError> {
    let start_nanos = telemetry.now_nanos();
    if &read_field::<8>(&mut r, "the magic")? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(read_field(&mut r, "the version")?);
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let header_len = u64::from_le_bytes(read_field(&mut r, "the header length")?) as usize;
    if header_len > 1 << 30 {
        return Err(PersistError::BadHeader("implausible header size".into()));
    }
    // Read incrementally: a corrupted length prefix must not translate into
    // a huge upfront allocation.
    let mut header_json = Vec::new();
    r.by_ref()
        .take(header_len as u64)
        .read_to_end(&mut header_json)?;
    if header_json.len() != header_len {
        return Err(truncated("the header"));
    }
    let header: CaptureHeader =
        serde_json::from_slice(&header_json).map_err(|e| PersistError::BadHeader(e.to_string()))?;
    if header.event_counts.len() != header.instances.len() {
        return Err(PersistError::BadHeader(format!(
            "{} instances but {} event counts",
            header.instances.len(),
            header.event_counts.len()
        )));
    }

    // The format is a stream of length-prefixed bodies: pull each one off.
    let mut total_bytes = 8 + 4 + 8 + header_len as u64;
    let mut bodies = Vec::with_capacity(header.instances.len());
    for _ in &header.instances {
        let body_len = u64::from_le_bytes(read_field(&mut r, "an event body length")?);
        // Sized up front (reading into a growing vector copies it at every
        // doubling), but capped, so a corrupt length cannot reserve more.
        let mut body = Vec::with_capacity(body_len.min(MAX_BODY_RESERVE) as usize);
        r.by_ref().take(body_len).read_to_end(&mut body)?;
        if body.len() as u64 != body_len {
            return Err(truncated("an event body"));
        }
        total_bytes += 8 + body_len;
        bodies.push(body);
    }
    if telemetry.is_enabled() {
        telemetry.counter("persist.decode_bytes").add(total_bytes);
        telemetry
            .counter(signals::PERSIST_DECODE)
            .add(telemetry.now_nanos().saturating_sub(start_nanos));
    }
    Ok(EncodedCapture {
        instances: header.instances,
        stats: header.stats,
        session_nanos: header.session_nanos,
        collection_telemetry: header.telemetry,
        event_counts: header.event_counts,
        bodies,
    })
}

/// Load a capture file without decoding its bodies (see
/// [`read_encoded_with`]).
pub fn load_encoded_with(
    path: impl AsRef<Path>,
    telemetry: &Telemetry,
) -> Result<EncodedCapture, PersistError> {
    let file = std::fs::File::open(path)?;
    read_encoded_with(io::BufReader::new(file), telemetry)
}

/// Deserialize a capture from a reader (sequential, unobserved).
pub fn read_capture(r: impl Read) -> Result<Capture, PersistError> {
    read_capture_with(r, &ReadOptions::default())
}

/// Deserialize a capture from a reader, optionally decoding event bodies in
/// parallel and reporting into telemetry.
///
/// I/O stays sequential (the format is a stream of length-prefixed bodies),
/// but chunk decode — the CPU-bound part — fans out over `opts.threads`.
/// Profiles come back in header order regardless of thread count, and each
/// keeps its events in stored order, so reading back what
/// [`write_capture`] wrote gives the same capture, profile by profile.
pub fn read_capture_with(r: impl Read, opts: &ReadOptions) -> Result<Capture, PersistError> {
    let telemetry = &opts.telemetry;
    let encoded = read_encoded_with(r, telemetry)?;
    let start_nanos = telemetry.now_nanos();
    // Validate every body's chunk framing against its header event count,
    // then decode all chunks of all bodies on `threads` workers.
    let bodies = encoded.bodies()?;
    let threads = if opts.threads == 0 {
        dsspy_parallel::default_threads()
    } else {
        opts.threads
    };
    let profiles = decode_profiles(&encoded.instances, &bodies, threads)
        .map_err(|(body, e)| encoded.body_error(body, e))?;
    drop(bodies);
    if telemetry.is_enabled() {
        telemetry
            .counter("persist.bodies_decoded")
            .add(profiles.len() as u64);
        telemetry
            .counter(signals::PERSIST_DECODE)
            .add(telemetry.now_nanos().saturating_sub(start_nanos));
    }
    let mut capture = Capture::new(profiles, encoded.stats, encoded.session_nanos);
    capture.collection_telemetry = encoded.collection_telemetry;
    Ok(capture)
}

/// Decode the chunks of all bodies on `threads` workers of
/// [`dsspy_parallel::par_map_weighted`], weighted by event count, and return
/// the profile of each of `instances` with its body's events, in stored
/// order.
///
/// Each chunk writes straight into its own slots of its body's vector, sized
/// from the validated chunk counts. A chunk's slots sit behind a lock only
/// so that the shared job list can hand them out; its one decoder takes the
/// lock once. On error the first failing chunk in body order is reported,
/// with its body's index, whatever the thread count.
pub(crate) fn decode_profiles(
    instances: &[InstanceInfo],
    bodies: &[Body<'_>],
    threads: usize,
) -> Result<Vec<RuntimeProfile>, (usize, DecodeError)> {
    let mut out: Vec<_> = bodies.iter().map(|b| Vec::with_capacity(b.len())).collect();
    let mut jobs = Vec::new();
    for (i, (body, events)) in bodies.iter().zip(out.iter_mut()).enumerate() {
        let mut spare = &mut events.spare_capacity_mut()[..body.len()];
        for chunk in body.chunks() {
            let (dst, rest) = std::mem::take(&mut spare).split_at_mut(chunk.len());
            spare = rest;
            jobs.push((i, chunk, Mutex::new(dst)));
        }
    }
    let results = dsspy_parallel::par_map_weighted(
        &jobs,
        threads,
        |(_, chunk, _)| chunk.len(),
        || (),
        |(), (_, chunk, dst)| chunk.decode_to(&mut dst.lock()),
    );
    let mut filled = vec![0usize; bodies.len()];
    for ((body, chunk, _), result) in jobs.iter().zip(results) {
        result.map_err(|e| (*body, e))?;
        filled[*body] += chunk.len();
    }
    drop(jobs);
    for ((events, body), filled) in out.iter_mut().zip(bodies).zip(filled) {
        assert_eq!(filled, body.len(), "every slot of the body was decoded");
        // SAFETY: the capacity is at least `body.len()`. The body's chunks
        // were handed disjoint, consecutive slot ranges of the spare
        // capacity that together cover `0..body.len()` (`Body::parse` makes
        // `len` the sum of the chunk counts), and a successful
        // `Chunk::decode_to` has written every slot of its range. The assert
        // above checks that every chunk of this body succeeded, so all
        // `body.len()` slots are initialized. `AccessEvent: Copy`, so the
        // vectors dropped on an earlier error own nothing to drop.
        unsafe { events.set_len(body.len()) };
    }
    let instances = instances.iter().cloned();
    Ok(instances
        .zip(out)
        .map(|(instance, events)| RuntimeProfile { instance, events })
        .collect())
}

/// Save a capture to a file.
pub fn save_capture(capture: &Capture, path: impl AsRef<Path>) -> Result<(), PersistError> {
    save_capture_with(capture, path, &Telemetry::disabled())
}

/// [`save_capture`] reporting into telemetry (see [`write_capture_with`]).
pub fn save_capture_with(
    capture: &Capture,
    path: impl AsRef<Path>,
    telemetry: &Telemetry,
) -> Result<(), PersistError> {
    let file = std::fs::File::create(path)?;
    write_capture_with(capture, io::BufWriter::new(file), telemetry)
}

/// Load a capture from a file (sequential, unobserved).
pub fn load_capture(path: impl AsRef<Path>) -> Result<Capture, PersistError> {
    load_capture_with(path, &ReadOptions::default())
}

/// Load a capture from a file with parallel chunk decode and telemetry
/// (see [`read_capture_with`]).
pub fn load_capture_with(
    path: impl AsRef<Path>,
    opts: &ReadOptions,
) -> Result<Capture, PersistError> {
    let file = std::fs::File::open(path)?;
    read_capture_with(io::BufReader::new(file), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use dsspy_events::encode::CHUNK_EVENTS;
    use dsspy_events::{AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, Target};

    fn sample_capture() -> Capture {
        let session = Session::new();
        let mut h1 = session.register(AllocationSite::new("A", "m", 1), DsKind::List, "i32");
        for i in 0..500u32 {
            h1.record(AccessKind::Insert, Target::Index(i), i + 1);
        }
        let h2 = session.register(AllocationSite::new("B", "n", 2), DsKind::Array, "f64");
        drop(h1);
        drop(h2);
        session.finish()
    }

    #[test]
    fn round_trip_through_memory() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let back = read_capture(buf.as_slice()).unwrap();
        assert_eq!(back.profiles.len(), capture.profiles.len());
        assert_eq!(back.event_count(), capture.event_count());
        assert_eq!(back.stats, capture.stats);
        assert_eq!(back.session_nanos, capture.session_nanos);
        for (a, b) in back.profiles.iter().zip(capture.profiles.iter()) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn round_trip_through_file() {
        let capture = sample_capture();
        let dir = std::env::temp_dir().join(format!("dsspy-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capture.dsspy");
        save_capture(&capture, &path).unwrap();
        let back = load_capture(&path).unwrap();
        assert_eq!(back.event_count(), capture.event_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = read_capture(&b"NOTACAPXXXX"[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn rejects_version_3_and_asks_for_a_rerecording() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        buf[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = read_capture(buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::BadVersion(3)));
        assert!(err.to_string().contains("re-record"), "{err}");
    }

    #[test]
    fn every_strict_prefix_is_a_truncated_capture() {
        let mut buf = Vec::new();
        write_capture(&sample_capture(), &mut buf).unwrap();
        for end in 0..buf.len() {
            let err = read_capture(&buf[..end]).unwrap_err();
            assert!(err.to_string().contains("truncated"), "prefix {end}: {err}");
        }
        let err = read_capture(&buf[..10]).unwrap_err();
        assert!(err.to_string().contains("ends inside the version"), "{err}");
    }

    /// `buf` with its JSON header passed through `edit`.
    fn with_header(buf: &[u8], edit: impl Fn(&str) -> String) -> Vec<u8> {
        let len = u64::from_le_bytes(buf[12..20].try_into().unwrap()) as usize;
        let json = edit(std::str::from_utf8(&buf[20..20 + len]).unwrap());
        let mut out = buf[..12].to_vec();
        out.extend_from_slice(&(json.len() as u64).to_le_bytes());
        out.extend_from_slice(json.as_bytes());
        out.extend_from_slice(&buf[20 + len..]);
        out
    }

    #[test]
    fn rejects_event_counts_that_do_not_match_the_instances() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        for (counts, want) in [
            ("[500]", "2 instances but 1 event counts"),
            ("[500,0,0]", "2 instances but 3 event counts"),
        ] {
            let edited = with_header(&buf, |h| {
                h.replace(
                    "\"event_counts\":[500,0]",
                    &format!("\"event_counts\":{counts}"),
                )
            });
            let err = read_capture(edited.as_slice()).unwrap_err();
            assert!(matches!(err, PersistError::BadHeader(_)), "{err}");
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn rejects_a_body_whose_chunks_disagree_with_the_header_count() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let edited = with_header(&buf, |h| {
            h.replace("\"event_counts\":[500,0]", "\"event_counts\":[499,0]")
        });
        let err = read_capture(edited.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::BadBody(_)), "{err}");
        assert!(
            err.to_string()
                .contains("expected 499 events, chunks hold 500"),
            "{err}"
        );
    }

    #[test]
    fn a_flipped_row_byte_names_the_instance_and_the_checksum() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        // The last body is empty; the first one's rows end 8 bytes before
        // it: flip a byte well inside them.
        let at = buf.len() - 8 - 100;
        buf[at] ^= 0x10;
        assert_checksum_error_names(&buf, "ds#0", &[1, 2]);
    }

    /// A capture of one profile per entry of `counts`, holding that many
    /// events.
    fn capture_of(counts: &[usize]) -> Capture {
        let profiles = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| RuntimeProfile {
                instance: InstanceInfo::new(
                    InstanceId(i as u64),
                    AllocationSite::new("C", "m", i as u32),
                    DsKind::List,
                    "i32",
                ),
                events: (0..n as u64)
                    .map(|s| AccessEvent::at(s, AccessKind::Read, (s % 300) as u32, 300))
                    .collect(),
            })
            .collect();
        Capture::new(profiles, CollectorStats::default(), 0)
    }

    /// Where each body's bytes start in a written capture, after its length
    /// prefix, in header order.
    fn body_starts(buf: &[u8]) -> Vec<usize> {
        let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize;
        let (mut at, mut starts) = (20 + u64_at(12), Vec::new());
        while at < buf.len() {
            starts.push(at + 8);
            at += 8 + u64_at(at);
        }
        starts
    }

    /// Where the rows of chunk `k` of the body starting at `body` begin.
    fn chunk_rows(buf: &[u8], body: usize, k: usize) -> usize {
        let mut at = body;
        for _ in 0..k {
            at += 12 + u32::from_le_bytes(buf[at + 4..at + 8].try_into().unwrap()) as usize;
        }
        at + 12
    }

    /// Reading `buf` fails at every width in `widths` with a corrupt body
    /// whose message names `instance` and the checksum.
    fn assert_checksum_error_names(buf: &[u8], instance: &str, widths: &[usize]) {
        for &threads in widths {
            let opts = ReadOptions {
                threads,
                ..ReadOptions::default()
            };
            let err = read_capture_with(buf, &opts).unwrap_err();
            assert!(matches!(err, PersistError::BadBody(_)), "{err}");
            let msg = err.to_string();
            let named = msg.contains(&format!("instance {instance}:"));
            assert!(named && msg.contains("checksum"), "{threads}: {msg}");
        }
    }

    #[test]
    fn the_first_failing_body_is_named_at_any_width() {
        let mut buf = Vec::new();
        write_capture(&capture_of(&[500, 1, 1]), &mut buf).unwrap();
        let starts = body_starts(&buf);
        for &body in &starts[1..] {
            let at = chunk_rows(&buf, body, 0) + 1;
            buf[at] ^= 0x01;
        }
        assert_checksum_error_names(&buf, "ds#1", &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_flipped_byte_in_a_later_chunk_is_named_before_a_later_body() {
        // At 2 and 4 threads instance 0's third chunk decodes on another
        // worker than its first two; at 4, instance 1 on another still.
        let mut buf = Vec::new();
        write_capture(&capture_of(&[3 * CHUNK_EVENTS + 1, 500]), &mut buf).unwrap();
        let starts = body_starts(&buf);
        for at in [
            chunk_rows(&buf, starts[0], 2),
            chunk_rows(&buf, starts[1], 0),
        ] {
            buf[at + 5] ^= 0x01;
        }
        assert_checksum_error_names(&buf, "ds#0", &[1, 2, 4, 0]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_final_write_is_an_error() {
        // The whole file fits in the writer's buffer, so only the flush
        // reaches the full device.
        let err = save_capture(&Session::new().finish(), "/dev/full").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = read_capture(buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        // Cut the file at several offsets: header, body, mid-event.
        for cut in [4usize, 11, 20, buf.len() / 2, buf.len() - 3] {
            let err = read_capture(&buf[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_corrupt_header_json() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        // Flip a byte inside the JSON header region.
        buf[24] ^= 0xFF;
        assert!(read_capture(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_capture_round_trips() {
        let capture = Session::new().finish();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let back = read_capture(buf.as_slice()).unwrap();
        assert_eq!(back.profiles.len(), 0);
        assert_eq!(back.event_count(), 0);
    }
}
