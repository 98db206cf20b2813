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
//! magic   := "DSSPYCAP" version:u32(=2)
//! header  := json(CaptureHeader) length-prefixed (u64 LE)
//! bodies  := per instance: event batch (dsspy_events::encode)
//!            length-prefixed (u64 LE), in header order
//! ```
//!
//! The header (instances, stats, session duration) is JSON for
//! debuggability; the event bodies use the compact wire codec because they
//! dominate the size. Version 2 events carry one timestamp, the logical
//! tick `seq`; version 1 files (which also stored a per-event wall-clock
//! offset) are rejected with [`PersistError::BadVersion`] and must be
//! re-recorded.

use std::io::{self, Read, Write};
use std::path::Path;

use dsspy_events::encode::{decode_batch, encode_batch};
use dsspy_events::{InstanceInfo, RuntimeProfile};
use dsspy_telemetry::{overhead::signals, Telemetry, TelemetrySnapshot};
use serde::{Deserialize, Serialize};

use crate::collector::{Capture, CollectorStats};

const MAGIC: &[u8; 8] = b"DSSPYCAP";
const VERSION: u32 = 2;

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

/// [`write_capture`] that also reports encode volume and time: counters
/// `persist.encode_bytes`, `persist.bodies_encoded`, and the
/// `persist.encode_nanos` signal the overhead accountant charges to
/// profiling.
pub fn write_capture_with(
    capture: &Capture,
    mut w: impl Write,
    telemetry: &Telemetry,
) -> Result<(), PersistError> {
    let start_nanos = telemetry.now_nanos();
    let mut written = 0u64;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let header = CaptureHeader {
        instances: capture
            .profiles
            .iter()
            .map(|p| p.instance.clone())
            .collect(),
        stats: capture.stats,
        session_nanos: capture.session_nanos,
        event_counts: capture.profiles.iter().map(|p| p.len() as u64).collect(),
        telemetry: capture.collection_telemetry.clone(),
    };
    let header_json =
        serde_json::to_vec(&header).map_err(|e| PersistError::BadHeader(e.to_string()))?;
    w.write_all(&(header_json.len() as u64).to_le_bytes())?;
    w.write_all(&header_json)?;
    written += 8 + 4 + 8 + header_json.len() as u64;
    for profile in &capture.profiles {
        let body = encode_batch(&profile.events);
        w.write_all(&(body.len() as u64).to_le_bytes())?;
        w.write_all(&body)?;
        written += 8 + body.len() as u64;
    }
    if telemetry.is_enabled() {
        telemetry.counter("persist.encode_bytes").add(written);
        telemetry
            .counter("persist.bodies_encoded")
            .add(capture.profiles.len() as u64);
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
    /// inline; more threads fan the per-instance bodies out over
    /// `dsspy_parallel::par_map`, which pays off once captures carry many
    /// instances with large event lists. `0` means one worker per core.
    pub threads: usize,
    /// Where to report decode volume and per-body decode time.
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

/// Deserialize a capture from a reader (sequential, unobserved).
pub fn read_capture(r: impl Read) -> Result<Capture, PersistError> {
    read_capture_with(r, &ReadOptions::default())
}

/// Deserialize a capture from a reader, optionally decoding event bodies in
/// parallel and reporting into telemetry.
///
/// I/O stays sequential (the format is a stream of length-prefixed bodies),
/// but body decode — the CPU-bound part — fans out over `opts.threads`.
/// Profiles come back in header order regardless of thread count.
pub fn read_capture_with(mut r: impl Read, opts: &ReadOptions) -> Result<Capture, PersistError> {
    let telemetry = &opts.telemetry;
    let start_nanos = telemetry.now_nanos();
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let mut v4 = [0u8; 4];
    r.read_exact(&mut v4)?;
    let version = u32::from_le_bytes(v4);
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let mut len8 = [0u8; 8];
    r.read_exact(&mut len8)?;
    let header_len = u64::from_le_bytes(len8) as usize;
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
        return Err(PersistError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated header",
        )));
    }
    let header: CaptureHeader =
        serde_json::from_slice(&header_json).map_err(|e| PersistError::BadHeader(e.to_string()))?;

    // Pass 1 (sequential): pull every length-prefixed body off the stream.
    let mut total_bytes = 8 + 4 + 8 + header_len as u64;
    let mut bodies = Vec::with_capacity(header.instances.len());
    for (info, expect) in header.instances.into_iter().zip(header.event_counts) {
        r.read_exact(&mut len8)?;
        let body_len = u64::from_le_bytes(len8) as usize;
        let mut body = Vec::new();
        r.by_ref().take(body_len as u64).read_to_end(&mut body)?;
        if body.len() != body_len {
            return Err(PersistError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated event body",
            )));
        }
        total_bytes += 8 + body_len as u64;
        bodies.push((info, expect, body));
    }

    // Pass 2 (parallel): decode the bodies, preserving header order. Each
    // body's decode time lands in a histogram so skewed instances show up.
    let body_decode = telemetry.histogram("persist.body_decode_nanos");
    let decode_one = |(info, expect, body): &(InstanceInfo, u64, Vec<u8>)| {
        let body_start = telemetry.now_nanos();
        let events = decode_batch(body).map_err(|e| PersistError::BadBody(e.to_string()))?;
        if events.len() as u64 != *expect {
            return Err(PersistError::BadBody(format!(
                "instance {} expected {expect} events, body has {}",
                info.id,
                events.len()
            )));
        }
        if telemetry.is_enabled() {
            body_decode.record(telemetry.now_nanos().saturating_sub(body_start));
        }
        Ok(RuntimeProfile::new(info.clone(), events))
    };
    let threads = if opts.threads == 0 {
        dsspy_parallel::default_threads()
    } else {
        opts.threads
    };
    let profiles: Vec<RuntimeProfile> = dsspy_parallel::par_map(&bodies, threads, decode_one)
        .into_iter()
        .collect::<Result<_, _>>()?;

    if telemetry.is_enabled() {
        telemetry.counter("persist.decode_bytes").add(total_bytes);
        telemetry
            .counter("persist.bodies_decoded")
            .add(profiles.len() as u64);
        telemetry
            .counter(signals::PERSIST_DECODE)
            .add(telemetry.now_nanos().saturating_sub(start_nanos));
    }
    let mut capture = Capture::new(profiles, header.stats, header.session_nanos);
    capture.collection_telemetry = header.telemetry;
    Ok(capture)
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

/// Load a capture from a file with parallel body decode and telemetry
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
    use dsspy_events::{AccessKind, AllocationSite, DsKind, Target};

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
    fn rejects_version_1_and_asks_for_a_rerecording() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        buf[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = read_capture(buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::BadVersion(1)));
        assert!(err.to_string().contains("re-record"), "{err}");
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
