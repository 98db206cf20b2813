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
//!
//! A capture in memory holds its bodies encoded, whatever it came from (see
//! [`crate::store`]): [`write_capture`] writes them unchanged, and
//! [`read_capture_with`] keeps the bodies it reads, after checking each
//! body's chunk framing and each chunk's checksum, so a flipped byte fails
//! at load, naming its instance. Rows are decoded later, by analysis chunk
//! by chunk or by the first read of the profiles. Files of any other
//! version — including version 3, whose chunks carried no checksum — are
//! rejected with [`PersistError::BadVersion`] and must be re-recorded.

use std::io::{self, Read, Write};
use std::path::Path;

use dsspy_events::encode::{Body, DecodeError};
use dsspy_events::InstanceInfo;
use dsspy_telemetry::{overhead::signals, Telemetry, TelemetrySnapshot};
use serde::{Deserialize, Serialize};

use crate::collector::{Capture, CollectorStats};
use crate::store::{Profiles, SealedBody};

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

impl PersistError {
    /// The error for `instance`'s body failing to decode: names the
    /// instance.
    pub fn bad_body(instance: &InstanceInfo, error: DecodeError) -> PersistError {
        PersistError::BadBody(format!("instance {}: {error}", instance.id))
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serialize a capture into a writer.
///
/// ```
/// use dsspy_collect::{read_capture_with, write_capture, ReadOptions, Session};
///
/// let capture = Session::new().finish();
/// let mut buf = Vec::new();
/// write_capture(&capture, &mut buf).unwrap();
/// let back = read_capture_with(buf.as_slice(), &ReadOptions::default()).unwrap();
/// assert_eq!(back.instance_count(), 0);
/// ```
pub fn write_capture(capture: &Capture, w: impl Write) -> Result<(), PersistError> {
    write_capture_with(capture, w, &Telemetry::disabled())
}

/// [`write_capture`] that also reports write volume and time: counters
/// `persist.encode_bytes`, `persist.bodies_encoded`, and the
/// `persist.encode_nanos` signal. The capture's bodies are written
/// unchanged.
pub fn write_capture_with(
    capture: &Capture,
    mut w: impl Write,
    telemetry: &Telemetry,
) -> Result<(), PersistError> {
    let start_nanos = telemetry.now_nanos();
    let mut written = 0u64;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let profiles = &capture.profiles;
    let header = CaptureHeader {
        instances: profiles.instances().to_vec(),
        stats: capture.stats,
        session_nanos: capture.session_nanos,
        event_counts: profiles.sealed.iter().map(|b| b.events).collect(),
        telemetry: capture.collection_telemetry.clone(),
    };
    let header_json =
        serde_json::to_vec(&header).map_err(|e| PersistError::BadHeader(e.to_string()))?;
    w.write_all(&(header_json.len() as u64).to_le_bytes())?;
    w.write_all(&header_json)?;
    written += 8 + 4 + 8 + header_json.len() as u64;
    for body in &profiles.sealed {
        w.write_all(&(body.bytes.len() as u64).to_le_bytes())?;
        w.write_all(&body.bytes)?;
        written += 8 + body.bytes.len() as u64;
    }
    // A buffered writer may still hold the tail of the file: a failed final
    // write must surface here, not be dropped with the writer.
    w.flush()?;
    if telemetry.is_enabled() {
        telemetry.counter("persist.encode_bytes").add(written);
        telemetry
            .counter("persist.bodies_encoded")
            .add(profiles.instance_count() as u64);
        telemetry
            .counter(signals::PERSIST_ENCODE)
            .add(telemetry.now_nanos().saturating_sub(start_nanos));
    }
    Ok(())
}

/// How [`read_capture_with`] / [`load_capture_with`] should behave.
#[derive(Clone, Debug)]
pub struct ReadOptions {
    /// Worker threads for checking the chunk checksums. `1` (the default)
    /// checks inline; more threads split the chunks of all bodies into that
    /// many runs of near-equal event count, so one large instance is checked
    /// on several cores. `0` means one worker per core.
    pub threads: usize,
    /// Where to report read volume and time.
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

/// Read a capture from a reader, checking what it reads and reporting into
/// telemetry.
///
/// I/O is sequential (the format is a stream of length-prefixed bodies).
/// Every body's chunk framing is then checked against its header event
/// count, and every chunk's checksum on `opts.threads` workers; the first
/// body or chunk that fails, in body order, is the error, naming its
/// instance, whatever the thread count. The capture keeps the bodies as
/// read and decodes no row, so reading back what [`write_capture`] wrote
/// gives the same capture. With an enabled telemetry handle, the bytes read
/// count into `persist.decode_bytes` and the time into the
/// `persist.decode_nanos` signal.
pub fn read_capture_with(mut r: impl Read, opts: &ReadOptions) -> Result<Capture, PersistError> {
    let telemetry = &opts.telemetry;
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
    let mut sealed = Vec::with_capacity(header.instances.len());
    for &events in &header.event_counts {
        let body_len = u64::from_le_bytes(read_field(&mut r, "an event body length")?);
        // Sized up front (reading into a growing vector copies it at every
        // doubling), but capped, so a corrupt length cannot reserve more.
        let mut bytes = Vec::with_capacity(body_len.min(MAX_BODY_RESERVE) as usize);
        r.by_ref().take(body_len).read_to_end(&mut bytes)?;
        if bytes.len() as u64 != body_len {
            return Err(truncated("an event body"));
        }
        total_bytes += 8 + body_len;
        sealed.push(SealedBody { events, bytes });
    }
    let threads = if opts.threads == 0 {
        dsspy_parallel::default_threads()
    } else {
        opts.threads
    };
    check_bodies(&header.instances, &sealed, threads)?;
    if telemetry.is_enabled() {
        telemetry.counter("persist.decode_bytes").add(total_bytes);
        telemetry
            .counter(signals::PERSIST_DECODE)
            .add(telemetry.now_nanos().saturating_sub(start_nanos));
    }
    Ok(Capture {
        profiles: Profiles::new(header.instances, sealed),
        stats: header.stats,
        session_nanos: header.session_nanos,
        collection_telemetry: header.telemetry,
    })
}

/// Check every body's chunk framing against its event count, then every
/// chunk's checksum on `threads` workers of
/// [`dsspy_parallel::par_map_weighted`], weighted by event count.
fn check_bodies(
    instances: &[InstanceInfo],
    sealed: &[SealedBody],
    threads: usize,
) -> Result<(), PersistError> {
    let bodies = instances
        .iter()
        .zip(sealed)
        .map(|(instance, body)| {
            Body::parse(&body.bytes, body.events).map_err(|e| PersistError::bad_body(instance, e))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let chunks: Vec<_> = bodies
        .iter()
        .enumerate()
        .flat_map(|(i, body)| body.chunks().iter().map(move |chunk| (i, chunk)))
        .collect();
    let checked = dsspy_parallel::par_map_weighted(
        &chunks,
        threads,
        |(_, chunk)| chunk.len(),
        || (),
        |(), (_, chunk)| chunk.verify(),
    );
    for ((body, _), result) in chunks.iter().zip(checked) {
        result.map_err(|e| PersistError::bad_body(&instances[*body], e))?;
    }
    Ok(())
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

/// Load a capture from a file (see [`read_capture_with`]).
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
    use dsspy_events::{
        AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, RuntimeProfile, Target,
    };

    fn read_capture(r: &[u8]) -> Result<Capture, PersistError> {
        read_capture_with(r, &ReadOptions::default())
    }

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
        let back = load_capture_with(&path, &ReadOptions::default()).unwrap();
        assert_eq!(back.event_count(), capture.event_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = read_capture(b"NOTACAPXXXX").unwrap_err();
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
