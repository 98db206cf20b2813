//! # dsspy-cli — command-line front end over saved captures
//!
//! The paper's workflow separates collection from analysis (§IV): programs
//! save a capture (`dsspy_collect::save_capture`), and this tool analyzes,
//! charts, diffs and sketches it offline. Every command is a library
//! function here, testable without spawning processes; the `dsspy` binary
//! is a switch over one table of [`args::Command`] rows, which `dsspy`
//! without arguments prints as usage.
//!
//! The live commands — `demo --live`, `watch --follow`, `telemetry serve
//! --live` and `doctor` on a capture — run a session with the
//! [`StreamingAnalyzer`] attached to its fan-out tap and end with one check
//! that its verdicts equal the post-mortem analysis. `--flight-recorder
//! PATH` arms the flight recorder in the session's telemetry
//! ([`Telemetry::with_flight`]); `dsspy doctor` reads its dump back.

pub mod args;

use dsspy_collect::{
    load_capture_with, read_capture_with, save_capture_with, Capture, CollectorStats, CollectorTap,
    PersistError, ReadOptions, Session, SessionConfig, QUEUE_WATERMARK,
};
use dsspy_core::{diff_reports, instances_csv, sketches, use_cases_csv, Dsspy, Report};
use dsspy_events::{AccessEvent, InstanceId, Origin, RuntimeProfile};
use dsspy_patterns::{analyze, segment_phases, MinerConfig};
use dsspy_stream::{SnapshotPolicy, StreamConfig, StreamingAnalyzer};
use dsspy_telemetry::{
    export, FlightDump, OverheadReport, Telemetry, TelemetrySnapshot, TraceContext,
};
use dsspy_viz::html_report;
use dsspy_viz::{
    flight_incidents_text, flight_lag_text, flight_timeline_text, profile_chart_svg,
    profile_chart_text, timeline_svg, timeline_text,
};
use dsspy_workloads::{suite7, Mode, Scale};
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Capture file could not be read.
    Capture(PersistError),
    /// Capture file could not be written.
    Save(PersistError),
    /// The requested instance index does not exist.
    NoSuchInstance(usize, usize),
    /// Report serialization failed.
    Json(String),
    /// A file or socket operation failed; the message names the operation
    /// and what it was on (`cannot read PATH`, `cannot listen on ADDR`).
    Io(std::io::Error),
    /// A telemetry export failed validation or could not be produced.
    Telemetry(String),
    /// The streaming analyzer misbehaved (no snapshot, or divergence from
    /// the post-mortem verdicts).
    Stream(String),
    /// An argument is not one of its command's choices (a csv kind, a
    /// telemetry format, a workload name), or `--inject-panic` comes
    /// without `--live`. Raised before any work; the binary prints usage
    /// and exits 2.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Capture(e) => write!(f, "cannot read capture: {e}"),
            CliError::Save(e) => write!(f, "cannot write capture: {e}"),
            CliError::NoSuchInstance(want, have) => {
                write!(f, "no instance #{want} (capture has {have})")
            }
            CliError::Json(e) => write!(f, "cannot serialize report: {e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Telemetry(e) => write!(f, "telemetry export: {e}"),
            CliError::Stream(e) => write!(f, "streaming analysis: {e}"),
            CliError::Usage(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for CliError {}

impl From<PersistError> for CliError {
    fn from(e: PersistError) -> Self {
        CliError::Capture(e)
    }
}

/// The [`CliError::Io`] of a failed `op` (read, listen on, write) on `target`.
fn io_error(op: &str, target: impl std::fmt::Display) -> impl FnOnce(std::io::Error) -> CliError {
    let context = format!("cannot {op} {target}");
    move |e| CliError::Io(std::io::Error::new(e.kind(), format!("{context}: {e}")))
}

/// Analyze the capture at `path`, observed or not: load it, checking its
/// checksums at the analysis width, and fold its chunks
/// ([`Dsspy::try_analyze_capture_with`]: each chunk is decoded on a worker
/// and folded there, and no profile is built).
fn analyze_file(path: &Path, dsspy: Dsspy, telemetry: &Telemetry) -> Result<Report, CliError> {
    let capture = load(path, dsspy.analysis.threads, telemetry)?;
    analyze_loaded(&capture, dsspy, telemetry)
}

/// The capture at `path`, its checksums checked on `threads` workers (`0`:
/// one per core), reporting the read into `telemetry`.
fn load(path: &Path, threads: usize, telemetry: &Telemetry) -> Result<Capture, CliError> {
    let telemetry = telemetry.clone();
    let opts = ReadOptions { threads, telemetry };
    Ok(load_capture_with(path, &opts)?)
}

/// The report of a loaded `capture`. When observed, the report embeds the
/// [`TelemetrySnapshot`] covering the file read, the chunk decode and the
/// analysis — and, when the capture was recorded by an observed session,
/// the collection-time signals merged back in.
fn analyze_loaded(
    capture: &Capture,
    dsspy: Dsspy,
    telemetry: &Telemetry,
) -> Result<Report, CliError> {
    let mut report = dsspy.try_analyze_capture_with(capture, telemetry)?;
    merge_collection_telemetry(&mut report, capture.collection_telemetry.as_ref());
    Ok(report)
}

/// `capture` with its profiles decoded: a file whose rows do not decode
/// fails here, naming the instance, before any command reads an event.
fn decoded(capture: Capture) -> Result<Capture, CliError> {
    capture.profiles.decode()?;
    Ok(capture)
}

/// The capture at `path`, [`decoded`], for a command that reads its events.
fn load_decoded(path: &Path) -> Result<Capture, CliError> {
    decoded(load(path, 1, &Telemetry::disabled())?)
}

/// Merge the collection-time snapshot a capture carries into the report's
/// snapshot, re-accounting the overhead over the combined view. The CLI's
/// telemetry handle is always freshly created per command, so the merge
/// cannot double-count.
fn merge_collection_telemetry(report: &mut Report, stored: Option<&TelemetrySnapshot>) {
    if let (Some(snapshot), Some(stored)) = (report.telemetry.as_mut(), stored) {
        snapshot.merge(stored);
        let overhead = OverheadReport::account(snapshot, report.session_nanos);
        snapshot.overhead = Some(overhead);
    }
}

/// Write the snapshot a report carries to `out` as JSON.
fn write_snapshot(report: &Report, out: &Path) -> Result<(), CliError> {
    let snapshot = report
        .telemetry
        .as_ref()
        .ok_or_else(|| CliError::Telemetry("run produced no snapshot".into()))?;
    std::fs::write(out, export::to_json(snapshot)).map_err(io_error("write", out.display()))
}

/// `dsspy analyze`: full report for a capture, as text or JSON. With
/// `telemetry_out`, the run is self-observed and the snapshot lands there.
pub fn cmd_analyze(
    path: &Path,
    json: bool,
    selective: bool,
    threads: usize,
    telemetry_out: Option<&Path>,
) -> Result<String, CliError> {
    let telemetry = telemetry_out.map_or_else(Telemetry::disabled, |_| Telemetry::enabled());
    let mut dsspy = Dsspy::new().with_threads(threads);
    dsspy.analysis.selective = selective;
    let report = analyze_file(path, dsspy, &telemetry)?;
    if let Some(out) = telemetry_out {
        write_snapshot(&report, out)?;
    }
    if json {
        serde_json::to_string_pretty(&report).map_err(|e| CliError::Json(e.to_string()))
    } else {
        let mut out = report.summary();
        out.push_str("\n\n");
        out.push_str(&report.render_use_cases());
        let advisories = report.render_advisories();
        if !advisories.is_empty() {
            out.push('\n');
            out.push_str(&advisories);
        }
        Ok(out)
    }
}

/// Instance `instance`'s profile in the capture at `path`.
fn load_profile(path: &Path, instance: usize) -> Result<RuntimeProfile, CliError> {
    let capture = load_decoded(path)?;
    let count = capture.profiles.len();
    let profile = capture.profiles.into_iter().nth(instance);
    profile.ok_or(CliError::NoSuchInstance(instance, count))
}

/// `dsspy chart`: the Fig. 2/3-style profile chart of one instance.
pub fn cmd_chart(path: &Path, instance: usize, svg_out: Option<&Path>) -> Result<String, CliError> {
    let profile = load_profile(path, instance)?;
    if let Some(out) = svg_out {
        std::fs::write(out, profile_chart_svg(&profile))
            .map_err(io_error("write", out.display()))?;
    }
    Ok(profile_chart_text(&profile))
}

/// `dsspy timeline`: the mined-pattern/phase timeline of one instance.
pub fn cmd_timeline(
    path: &Path,
    instance: usize,
    svg_out: Option<&Path>,
) -> Result<String, CliError> {
    let profile = load_profile(path, instance)?;
    let analysis = analyze(&profile, &MinerConfig::default());
    let phases = segment_phases(&profile);
    if let Some(out) = svg_out {
        let svg = timeline_svg(&profile, &analysis.patterns, &phases);
        std::fs::write(out, svg).map_err(io_error("write", out.display()))?;
    }
    Ok(timeline_text(&profile, &analysis.patterns, &phases, 100))
}

/// `dsspy diff`: compare the verdicts of two captures.
pub fn cmd_diff(before: &Path, after: &Path, threads: usize) -> Result<String, CliError> {
    let dsspy = Dsspy::new().with_threads(threads);
    let before_report = analyze_file(before, dsspy, &Telemetry::disabled())?;
    let after_report = analyze_file(after, dsspy, &Telemetry::disabled())?;
    let diff = diff_reports(&before_report, &after_report);
    let mut out = diff.summary();
    out.push('\n');
    for key in &diff.resolved {
        out.push_str(&format!("resolved:   {} ({})\n", key.site, key.kind));
    }
    for key in &diff.introduced {
        out.push_str(&format!("introduced: {} ({})\n", key.site, key.kind));
    }
    for key in &diff.unchanged {
        out.push_str(&format!("unchanged:  {} ({})\n", key.site, key.kind));
    }
    Ok(out)
}

/// What `dsspy csv` exports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsvKind {
    /// One row per instance.
    Instances,
    /// One row per detected use case.
    UseCases,
}

impl std::str::FromStr for CsvKind {
    type Err = CliError;
    fn from_str(s: &str) -> Result<CsvKind, CliError> {
        match s {
            "instances" => Ok(CsvKind::Instances),
            "usecases" => Ok(CsvKind::UseCases),
            other => Err(CliError::Usage(format!(
                "unknown csv kind {other:?} (instances|usecases)"
            ))),
        }
    }
}

/// `dsspy csv`: machine-readable exports (instances + use cases).
pub fn cmd_csv(path: &Path, what: CsvKind) -> Result<String, CliError> {
    let report = analyze_file(path, Dsspy::new(), &Telemetry::disabled())?;
    Ok(match what {
        CsvKind::Instances => instances_csv(&report),
        CsvKind::UseCases => use_cases_csv(&report),
    })
}

/// `dsspy report`: self-contained HTML report with embedded charts. With
/// `telemetry_out`, the run is self-observed and the snapshot lands there.
pub fn cmd_report(
    path: &Path,
    out: &Path,
    threads: usize,
    telemetry_out: Option<&Path>,
) -> Result<String, CliError> {
    let telemetry = telemetry_out.map_or_else(Telemetry::disabled, |_| Telemetry::enabled());
    let capture = load(path, threads, &telemetry)?;
    let report = analyze_loaded(&capture, Dsspy::new().with_threads(threads), &telemetry)?;
    if let Some(tout) = telemetry_out {
        write_snapshot(&report, tout)?;
    }
    // The HTML report draws every profile.
    let html = html_report(&report, capture.profiles.decode()?);
    std::fs::write(out, &html).map_err(io_error("write", out.display()))?;
    Ok(format!(
        "wrote {} ({} bytes): {}",
        out.display(),
        html.len(),
        report.summary()
    ))
}

/// The export formats of `dsspy telemetry`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetryFormat {
    /// Human-readable summary.
    Summary,
    /// The snapshot as JSON.
    Json,
    /// Prometheus text exposition.
    Prometheus,
    /// Chrome `trace_event` JSON.
    Trace,
}

impl std::str::FromStr for TelemetryFormat {
    type Err = CliError;
    fn from_str(s: &str) -> Result<TelemetryFormat, CliError> {
        match s {
            "summary" => Ok(TelemetryFormat::Summary),
            "json" => Ok(TelemetryFormat::Json),
            "prometheus" => Ok(TelemetryFormat::Prometheus),
            "trace" => Ok(TelemetryFormat::Trace),
            other => Err(CliError::Usage(format!(
                "unknown format {other:?} (summary|json|prometheus|trace)"
            ))),
        }
    }
}

/// `dsspy telemetry`: self-observe a full analysis of the capture and render
/// the snapshot in one of the export formats. `check` validates the
/// Prometheus exposition (any format may be combined with it; the check
/// always runs against the Prometheus rendering).
pub fn cmd_telemetry(
    path: &Path,
    threads: usize,
    format: TelemetryFormat,
    check: bool,
) -> Result<String, CliError> {
    let telemetry = Telemetry::enabled();
    let report = analyze_file(path, Dsspy::new().with_threads(threads), &telemetry)?;
    let snapshot = report
        .telemetry
        .as_ref()
        .ok_or_else(|| CliError::Telemetry("run produced no snapshot".into()))?;
    if check {
        validate_prometheus(&export::prometheus(snapshot)).map_err(CliError::Telemetry)?;
    }
    Ok(match format {
        TelemetryFormat::Summary => export::summary(snapshot),
        TelemetryFormat::Json => export::to_json(snapshot),
        TelemetryFormat::Prometheus => export::prometheus(snapshot),
        TelemetryFormat::Trace => export::chrome_trace(snapshot),
    })
}

/// `dsspy demo`: record one of the paper's seven evaluation workloads at
/// test scale and save the capture — a self-contained way to produce input
/// for every other command (and for the tier-1 smoke test).
///
/// With `live`, the session additionally feeds the streaming analyzer
/// ([`StreamingAnalyzer::attach`]) while the workload runs, and the command
/// verifies on exit that the streamed verdicts equal the post-mortem
/// analysis of the very capture it just saved.
///
/// `flight_out` arms a flight recorder on the session's telemetry
/// (auto-dumping to the path on incident, flushed once more at finish);
/// `inject_panic` adds a second, deliberately faulty subscriber to the live
/// fan-out so the recorder has a real `subscriber-panic` incident to
/// capture — the demo input for `dsspy doctor`.
pub fn cmd_demo(
    out: &Path,
    workload: Option<&str>,
    live: bool,
    flight_out: Option<&Path>,
    inject_panic: bool,
) -> Result<String, CliError> {
    if inject_panic && !live {
        return Err(CliError::Usage(
            "--inject-panic needs a live fan-out to poison (add --live)".into(),
        ));
    }
    let suite = suite7();
    let w = &suite[find_workload(workload)?];
    // Record under an observed session so the capture carries collection-time
    // telemetry (collector histograms, queue pressure) into offline analysis.
    let observer = Observer::new(flight_out);
    let (capture, streamed, note) = if live {
        let mut extra: Vec<(&str, Box<dyn CollectorTap>)> = Vec::new();
        if inject_panic {
            extra.push(("bomb", Box::new(PanicBomb)));
        }
        let (live, session) = Live::start(
            observer.clone(),
            SessionConfig::default(),
            1,
            StreamConfig::default(),
            extra,
        );
        w.run(Scale::Test, Mode::Instrumented(&session));
        let (capture, _, note) = live.end(session)?;
        let stats = live.streaming.stats();
        let streamed = format!(
            "; live stream folded {} events in {} batches into {} snapshot(s), verdicts match post-mortem: yes",
            stats.events, stats.batches, stats.snapshots,
        );
        (capture, streamed, note)
    } else {
        let session = Session::builder()
            .telemetry(observer.telemetry.clone())
            .start();
        w.run(Scale::Test, Mode::Instrumented(&session));
        (session.finish(), String::new(), observer.note())
    };
    save_capture_with(&capture, out, &observer.telemetry).map_err(CliError::Save)?;
    Ok(format!(
        "wrote {} ({} instances, {} events) from workload {}{streamed}{note}",
        out.display(),
        capture.instance_count(),
        capture.event_count(),
        w.spec().name,
    ))
}

/// Index of a suite7 workload by (case-insensitive) name; `None` picks the
/// demo default. An index rather than the workload itself so callers can
/// rebuild the suite on another thread.
fn find_workload(name: Option<&str>) -> Result<usize, CliError> {
    let suite = suite7();
    let name = name.unwrap_or("WordWheelSolver");
    suite
        .iter()
        .position(|w| w.spec().name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown workload {name:?} (one of: {})",
                suite
                    .iter()
                    .map(|w| w.spec().name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

/// The check every streaming command ends with: the analyzer's final
/// snapshot must carry byte-identical per-instance verdicts to the
/// post-mortem analysis of `capture` (classifications, evidence, metrics,
/// patterns, advisories and recommended actions all ride in the serialized
/// instance reports). Returns that final snapshot.
fn converged(
    dsspy: &Dsspy,
    streaming: &StreamingAnalyzer,
    capture: &Capture,
) -> Result<Arc<Report>, CliError> {
    let live = streaming
        .latest_report()
        .ok_or_else(|| CliError::Stream("session ended without a snapshot".into()))?;
    let post = dsspy.analyze_capture(capture);
    let verdicts =
        |r: &Report| serde_json::to_string(&r.instances).map_err(|e| CliError::Json(e.to_string()));
    if verdicts(&live)? != verdicts(&post)? {
        return Err(CliError::Stream(
            "streaming verdicts diverged from post-mortem analysis".into(),
        ));
    }
    Ok(live)
}

/// The stream configuration behind `watch`'s `--every` flag: a snapshot
/// every `every` folded batches.
fn watch_config(every: NonZeroU64) -> StreamConfig {
    StreamConfig {
        snapshots: SnapshotPolicy {
            every_batches: every.get(),
        },
    }
}

/// `watch`'s frame printer, shared by replay and `--follow`: one line per
/// snapshot the analyzer published since the last poll, up to `max` lines
/// (later snapshots still happen; they just aren't printed).
#[derive(Default)]
struct Frames {
    out: String,
    printed: usize,
    seen: u64,
    max: usize,
}

impl Frames {
    fn poll(&mut self, streaming: &StreamingAnalyzer) {
        let stats = streaming.stats();
        if stats.snapshots <= self.seen {
            return;
        }
        self.seen = stats.snapshots;
        if self.printed >= self.max {
            return;
        }
        let Some(report) = streaming.latest_report() else {
            return;
        };
        self.printed += 1;
        self.out.push_str(&format!(
            "frame {}: {} events in {} batches | {}/{} instances flagged, {} use cases\n",
            self.printed,
            stats.events,
            stats.batches,
            report.flagged_instance_count(),
            report.instance_count(),
            report.all_use_cases().len(),
        ));
    }

    /// The frames, then the converged report, `note`, and the verdict line.
    fn finish(self, live: &Report, note: &str) -> String {
        let mut out = self.out;
        out.push('\n');
        out.push_str(&live.summary());
        out.push_str("\n\n");
        out.push_str(&live.render_use_cases());
        out.push_str(note);
        out.push_str("streaming verdicts match post-mortem analysis: yes\n");
        out
    }
}

/// `dsspy watch`: replay a saved capture through the streaming analyzer as
/// if its session were still running — a frame per published snapshot —
/// then prove the stream converged to the post-mortem verdicts.
///
/// `batch` is the replayed batch size in events, `every` the snapshot
/// cadence in batches, and `max_frames` bounds how many frames are
/// rendered (later snapshots still happen; they just aren't printed).
pub fn cmd_watch(
    path: &Path,
    batch: NonZeroUsize,
    every: NonZeroU64,
    max_frames: usize,
) -> Result<String, CliError> {
    let capture = load_decoded(path)?;
    let dsspy = Dsspy::new().with_threads(1);
    let streaming = StreamingAnalyzer::new(dsspy, watch_config(every));
    for profile in &capture.profiles {
        streaming.register_instance(profile.instance.clone());
    }
    let mut frames = Frames {
        max: max_frames,
        ..Frames::default()
    };
    for profile in &capture.profiles {
        for chunk in profile.events.chunks(batch.get()) {
            streaming.fold_batch(profile.instance.id, chunk, 0);
            frames.poll(&streaming);
        }
    }
    streaming.finish_replay(&capture.stats, capture.session_nanos);
    let live = converged(&dsspy, &streaming, &capture)?;
    Ok(frames.finish(&live, ""))
}

/// `dsspy telemetry serve`: self-observe a full analysis of the capture and
/// expose the snapshot as a Prometheus scrape endpoint on a plain-stdlib
/// [`std::net::TcpListener`] — the continuous-export counterpart of
/// `dsspy telemetry --format prometheus`.
///
/// `requests` bounds how many scrapes are served before the command returns
/// (`None` serves forever). With `self_check`, the command scrapes itself
/// over a real TCP connection and runs [`validate_prometheus`] on what came
/// back — a curl-free smoke test of the whole wire path (the internal
/// scrape counts toward `requests`).
pub fn cmd_telemetry_serve(
    path: &Path,
    threads: usize,
    addr: &str,
    requests: Option<u64>,
    self_check: bool,
) -> Result<String, CliError> {
    let listener = std::net::TcpListener::bind(addr).map_err(io_error("listen on", addr))?;
    let body = cmd_telemetry(path, threads, TelemetryFormat::Prometheus, true)?;
    let (served, local, scraped) =
        serve_metrics(listener, requests, self_check, || Ok(body.clone()))?;
    let mut msg = format!(
        "served {served} scrape(s) of {} bytes from http://{local}/metrics",
        body.len()
    );
    if let Some(scraped) = scraped {
        if scraped != body {
            return Err(CliError::Telemetry(
                "self-check scrape differs from the exposition".into(),
            ));
        }
        msg.push_str("; self-check scrape validated");
    }
    Ok(msg)
}

/// How long `telemetry serve` waits for a connection's request before it
/// answers it with a 404, so a client that connects and sends nothing (a
/// TCP health check) cannot stall the scrapes queued behind it.
const REQUEST_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// The listener loop behind `telemetry serve`, with or without `--live`:
/// answer `/` and `/metrics` with `render()`'s exposition and anything else
/// (including a request not received within [`REQUEST_READ_TIMEOUT`]) with
/// a 404, until `requests` connections were served (`None`: forever).
/// With `self_check`, one of those scrapes comes from this process over a
/// real TCP connection and must pass [`validate_prometheus`]. Returns the
/// number of connections served, the bound address and the self-check
/// body.
fn serve_metrics(
    listener: std::net::TcpListener,
    requests: Option<u64>,
    self_check: bool,
    mut render: impl FnMut() -> Result<String, CliError>,
) -> Result<(u64, std::net::SocketAddr, Option<String>), CliError> {
    use std::io::{Read, Write};

    let local = listener
        .local_addr()
        .map_err(io_error("listen on", "the bound address"))?;
    args::note(format_args!(
        "serving Prometheus metrics on http://{local}/metrics"
    ));
    let checker = self_check.then(|| {
        std::thread::spawn(move || -> Result<String, String> {
            let mut stream = std::net::TcpStream::connect(local).map_err(|e| e.to_string())?;
            stream
                .write_all(b"GET /metrics HTTP/1.0\r\nHost: dsspy\r\n\r\n")
                .map_err(|e| e.to_string())?;
            let mut response = String::new();
            stream
                .read_to_string(&mut response)
                .map_err(|e| e.to_string())?;
            let (_headers, body) = response
                .split_once("\r\n\r\n")
                .ok_or_else(|| "malformed HTTP response".to_string())?;
            Ok(body.to_string())
        })
    });

    let mut served = 0u64;
    for conn in listener.incoming() {
        let mut conn = conn.map_err(io_error("accept a scrape on", local))?;
        conn.set_read_timeout(Some(REQUEST_READ_TIMEOUT))
            .map_err(io_error("read a scrape on", local))?;
        let mut buf = [0u8; 1024];
        let n = conn.read(&mut buf).unwrap_or(0);
        let request = String::from_utf8_lossy(&buf[..n]);
        // Request line: METHOD TARGET VERSION.
        let target = request
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1));
        let (status, payload) = if matches!(target, Some("/" | "/metrics")) {
            ("200 OK", render()?)
        } else {
            (
                "404 Not Found",
                "only / and /metrics exist here\n".to_string(),
            )
        };
        let _ = conn.write_all(
            format!(
                "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; \
                 charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
                payload.len()
            )
            .as_bytes(),
        );
        served += 1;
        if requests.is_some_and(|max| served >= max) {
            break;
        }
    }
    // Close the listener first: a self-check connection that was never
    // accepted then fails instead of blocking the join forever.
    drop(listener);
    let scraped = match checker {
        Some(handle) => {
            let body = handle
                .join()
                .map_err(|_| CliError::Telemetry("self-check thread panicked".into()))?
                .map_err(CliError::Telemetry)?;
            validate_prometheus(&body).map_err(CliError::Telemetry)?;
            Some(body)
        }
        None => None,
    };
    Ok((served, local, scraped))
}

/// A deliberately faulty second subscriber behind `--inject-panic`: panics
/// on its first `on_batch` delivery, gets poisoned by the fan-out's panic
/// isolation, and thereby forces a `subscriber-panic` incident into the
/// flight recorder — the acceptance path for `dsspy doctor`.
struct PanicBomb;

impl CollectorTap for PanicBomb {
    fn on_batch(
        &mut self,
        _ctx: TraceContext,
        _id: InstanceId,
        _events: &[AccessEvent],
        _queue_depth: usize,
    ) {
        panic!("injected demo panic (--inject-panic)");
    }

    fn on_stop(&mut self, _ctx: TraceContext, _stats: &CollectorStats, _session_nanos: u64) {}
}

/// The enabled telemetry a recording command observes its session with.
/// `--flight-recorder PATH` arms the flight ring inside it, auto-dumping to
/// `PATH` on every incident (and once more when the session finishes).
#[derive(Clone)]
struct Observer {
    telemetry: Telemetry,
    flight_out: Option<PathBuf>,
}

impl Observer {
    fn new(flight_out: Option<&Path>) -> Observer {
        let flight_out = flight_out.map(Path::to_path_buf);
        let mut telemetry = Telemetry::enabled();
        if flight_out.is_some() {
            telemetry = telemetry.with_flight(flight_out.clone());
        }
        Observer {
            telemetry,
            flight_out,
        }
    }

    /// The one-line flight summary a command appends to its output when the
    /// recorder dumps to a path.
    fn note(&self) -> String {
        let Some(path) = &self.flight_out else {
            return String::new();
        };
        let dump = self.telemetry.flight().dump();
        format!(
            "; flight recorder: {} event(s) retained ({} overwritten), {} incident(s), dump at {}",
            dump.events.len(),
            dump.overwritten,
            dump.incidents.len(),
            path.display()
        )
    }
}

/// A live session: the streaming analyzer attached to it, started and ended
/// the one way every live command does it. A clone ends the session on the
/// thread that drives it.
#[derive(Clone)]
struct Live {
    dsspy: Dsspy,
    observer: Observer,
    streaming: StreamingAnalyzer,
}

impl Live {
    /// Start a session configured by `session` that ships its batches to an
    /// analyzer on `observer`'s telemetry (analysis on `threads` workers),
    /// with `extra` subscribers beside it on the fan-out.
    fn start(
        observer: Observer,
        session: SessionConfig,
        threads: usize,
        config: StreamConfig,
        extra: Vec<(&str, Box<dyn CollectorTap>)>,
    ) -> (Live, Session) {
        let mut dsspy = Dsspy::new().with_threads(threads);
        dsspy.session = session;
        let streaming =
            StreamingAnalyzer::with_telemetry(dsspy, config, observer.telemetry.clone());
        let session = streaming.attach(extra);
        (
            Live {
                dsspy,
                observer,
                streaming,
            },
            session,
        )
    }

    /// End the session: its capture, the analyzer's final report (checked
    /// against the post-mortem analysis of that capture, see [`converged`])
    /// and the flight note.
    fn end(&self, session: Session) -> Result<(Capture, Arc<Report>, String), CliError> {
        let capture = session.finish();
        let report = converged(&self.dsspy, &self.streaming, &capture)?;
        Ok((capture, report, self.observer.note()))
    }
}

/// Re-collect a saved capture through real instance handles on the calling
/// thread, in the original global event order, into a live session on
/// `observer`'s telemetry (analysis on `threads` workers), and end it the
/// way [`Live::end`] does. The session's channel is bounded below the
/// collector's [`QUEUE_WATERMARK`], so a replay that outruns the collector
/// waits for it instead of queueing past the watermark, an incident the
/// replay itself would cause. With `pace`, the replay also sleeps 1 ms per
/// 512 events, so that concurrent scrapes observe it mid-collection.
fn replay(
    observer: Observer,
    threads: usize,
    source: &Capture,
    pace: bool,
) -> Result<(Capture, Arc<Report>, String), CliError> {
    let config = SessionConfig {
        batch_size: 64,
        channel_capacity: Some(QUEUE_WATERMARK as usize / 2),
    };
    let (live, session) = Live::start(observer, config, threads, StreamConfig::default(), vec![]);
    let mut handles: Vec<_> = source
        .profiles
        .iter()
        .map(|p| {
            let i = &p.instance;
            if matches!(i.origin, Origin::Manual) {
                session.register_manual(i.site.clone(), i.kind, i.elem_type.clone())
            } else {
                session.register(i.site.clone(), i.kind, i.elem_type.clone())
            }
        })
        .collect();
    let mut order: Vec<(u64, usize, usize)> = Vec::new();
    for (pi, p) in source.profiles.iter().enumerate() {
        for (ei, e) in p.events.iter().enumerate() {
            order.push((e.seq, pi, ei));
        }
    }
    order.sort_unstable();
    for (n, &(_, pi, ei)) in order.iter().enumerate() {
        let e = &source.profiles[pi].events[ei];
        handles[pi].record(e.kind, e.target, e.len);
        if pace && n % 512 == 511 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    drop(handles); // flushes each handle's last batch before the session ends
    live.end(session)
}

/// `dsspy telemetry serve --live`: attach the scrape endpoint to a
/// *running* session instead of a finished analysis. The saved capture is
/// re-collected on a driver thread through `replay`, paced: this is the
/// one command that wants the session slowed down, so that scrapes land
/// mid-flight. Meanwhile the listener renders a **fresh** snapshot of the
/// enabled [`Telemetry`] for every scrape — `collector.*` (events and batches
/// stored so far, queue depth), `stream.*` and `stream.tap.*` signals
/// observed mid-collection, each exposition validated before it is served.
///
/// Once the driver drains, the streamed verdicts must equal
/// [`Dsspy::analyze_capture`] of the re-collected session's capture.
pub fn cmd_telemetry_serve_live(
    path: &Path,
    threads: usize,
    addr: &str,
    requests: Option<u64>,
    self_check: bool,
    flight_out: Option<&Path>,
) -> Result<String, CliError> {
    let source = load_decoded(path)?;
    let listener = std::net::TcpListener::bind(addr).map_err(io_error("listen on", addr))?;
    let observer = Observer::new(flight_out);
    let replayed = observer.clone();
    let driver = std::thread::spawn(move || replay(replayed, threads, &source, true));

    let mut last_len = 0usize;
    let (served, local, scraped) = serve_metrics(listener, requests, self_check, || {
        // The point of --live: a fresh snapshot per scrape, frozen while
        // the collector may still be storing batches — and still a valid
        // exposition every single time.
        let body = export::prometheus(&observer.telemetry.snapshot());
        validate_prometheus(&body).map_err(|e| {
            CliError::Telemetry(format!("mid-session scrape failed validation: {e}"))
        })?;
        last_len = body.len();
        Ok(body)
    })?;

    let (capture, _, note) = driver
        .join()
        .map_err(|_| CliError::Stream("live replay driver panicked".into()))??;
    let mut msg = format!(
        "served {served} live scrape(s) (last {last_len} bytes) from http://{local}/metrics; \
         re-collected {} events in {} batches; streaming verdicts converged with post-mortem",
        capture.stats.events, capture.stats.batches
    );
    if scraped.is_some() {
        msg.push_str("; self-check scrape validated");
    }
    msg.push_str(&note);
    Ok(msg)
}

/// `dsspy watch --follow`: subscribe the streaming analyzer to a session
/// that is *actually running* — a suite7 workload driven on its own thread
/// — instead of replaying a finished file. Frames are printed as snapshots
/// appear; on drain the streamed verdicts are checked against the
/// post-mortem analysis.
pub fn cmd_watch_follow(
    workload: Option<&str>,
    batch: NonZeroUsize,
    every: NonZeroU64,
    max_frames: usize,
    flight_out: Option<&Path>,
) -> Result<String, CliError> {
    let w_idx = find_workload(workload)?;
    let session = SessionConfig {
        batch_size: batch.get(),
        ..SessionConfig::default()
    };
    let (live, session) = Live::start(
        Observer::new(flight_out),
        session,
        1,
        watch_config(every),
        Vec::new(),
    );
    let streaming = live.streaming.clone();
    let driver = std::thread::spawn(move || {
        suite7()[w_idx].run(Scale::Test, Mode::Instrumented(&session));
        live.end(session)
    });

    let mut frames = Frames {
        max: max_frames,
        ..Frames::default()
    };
    while !driver.is_finished() {
        frames.poll(&streaming);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let (capture, report, flight_note) = driver
        .join()
        .map_err(|_| CliError::Stream("workload driver panicked".into()))??;
    // The drain published a final snapshot; catch it even if the loop
    // exited first.
    frames.poll(&streaming);
    let note = format!(
        "followed live session: {} events in {} batches, {} frame(s) printed\n",
        capture.stats.events, capture.stats.batches, frames.printed
    );
    let mut out = frames.finish(&report, &note);
    if !flight_note.is_empty() {
        out.push_str(flight_note.trim_start_matches("; "));
        out.push('\n');
    }
    Ok(out)
}

/// `dsspy doctor`: post-mortem of a pipeline's health from a flight dump —
/// the causal timeline, the per-subscriber lag table and the incident
/// report, reconstructed session → batch → subscriber → failure.
///
/// `path` is either a flight dump (the JSON a `--flight-recorder PATH` run
/// wrote) or a saved capture: a capture is re-collected through the full
/// live fan-out under a fresh flight recorder first, unpaced (the bounded
/// replay channel makes it wait for the collector), and the streamed
/// verdicts must equal the post-mortem analysis, so `dsspy doctor
/// capture.dsspycap` is a one-command health check of the whole pipeline
/// against known traffic.
///
/// Returns the rendered report and the incident count; the binary exits
/// non-zero when any incident was recorded. `trace_out` additionally writes
/// the dump as Chrome `trace_event` JSON (one track per subscriber, loadable
/// in `about:tracing`/Perfetto).
pub fn cmd_doctor(
    path: &Path,
    max_events: usize,
    trace_out: Option<&Path>,
) -> Result<(String, usize), CliError> {
    let bytes = std::fs::read(path).map_err(io_error("read", path.display()))?;
    let (dump, provenance) = match std::str::from_utf8(&bytes)
        .ok()
        .and_then(|text| FlightDump::from_json(text).ok())
    {
        Some(dump) => (dump, format!("flight dump {}", path.display())),
        None => {
            // Not a dump: treat as a capture and re-collect it live under
            // full observation.
            let source = read_capture_with(bytes.as_slice(), &ReadOptions::default())?;
            let source = decoded(source)?;
            let observer = Observer {
                telemetry: Telemetry::enabled().with_flight(None),
                flight_out: None,
            };
            replay(observer.clone(), 1, &source, false)?;
            (
                observer.telemetry.flight().dump(),
                format!("re-collected capture {}", path.display()),
            )
        }
    };
    let sessions = dump.sessions();
    let subscribers = dump.subscribers();
    let mut out = format!(
        "doctor report for {provenance}\nschema {}, ring capacity {}, {} event(s) retained, {} overwritten\n",
        dump.schema,
        dump.capacity,
        dump.events.len(),
        dump.overwritten,
    );
    let list = |names: Vec<String>, none: &str| {
        if names.is_empty() {
            none.to_string()
        } else {
            names.join(", ")
        }
    };
    let sessions = sessions.iter().map(|s| format!("s{s}")).collect();
    let subscribers = subscribers.iter().map(|s| s.to_string()).collect();
    out.push_str(&format!(
        "sessions: {}\n",
        list(sessions, "none (replay only)")
    ));
    out.push_str(&format!("subscribers: {}\n", list(subscribers, "none")));
    out.push_str("\ncausal timeline:\n");
    out.push_str(&flight_timeline_text(&dump, max_events));
    out.push_str("\nper-subscriber lag:\n");
    out.push_str(&flight_lag_text(&dump));
    out.push('\n');
    out.push_str(&flight_incidents_text(&dump));
    if let Some(tout) = trace_out {
        std::fs::write(tout, export::flight_chrome_trace(&dump))
            .map_err(io_error("write", tout.display()))?;
        out.push_str(&format!("\nwrote Chrome trace to {}\n", tout.display()));
    }
    let incidents = dump.incidents.len();
    out.push_str(&format!(
        "\nverdict: {}\n",
        if incidents == 0 {
            "healthy — no incidents recorded".to_string()
        } else {
            format!("UNHEALTHY — {incidents} incident(s) recorded")
        }
    ));
    Ok((out, incidents))
}

/// Validate a Prometheus text-format exposition (the subset the exporter
/// emits): every sample must be preceded by a `# TYPE` for its metric
/// family, values must parse, histogram buckets must be cumulative and
/// agree with `_count`. Returns the first problem found.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    // Per-histogram running state: last cumulative bucket value, and the
    // +Inf/_count values seen so far.
    let mut last_bucket: HashMap<String, u64> = HashMap::new();
    let mut inf_bucket: HashMap<String, u64> = HashMap::new();
    let mut counts: HashMap<String, u64> = HashMap::new();

    let family_of = |sample: &str| -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = sample.strip_suffix(suffix) {
                return stripped.to_string();
            }
        }
        sample.to_string()
    };

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            match parts.as_slice() {
                ["TYPE", name, kind] => {
                    if !matches!(*kind, "counter" | "gauge" | "histogram") {
                        return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                    }
                    types.insert((*name).to_string(), (*kind).to_string());
                }
                ["HELP", ..] => {}
                _ => return Err(format!("line {lineno}: malformed comment: {line:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no value: {line:?}"))?;
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {lineno}: bad value {value_part:?}"))?;
        let (sample_name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated labels: {line:?}"))?;
                (n, Some(labels))
            }
            None => (name_part, None),
        };
        if sample_name.is_empty()
            || !sample_name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {lineno}: bad metric name {sample_name:?}"));
        }
        let family = family_of(sample_name);
        let declared = types
            .get(&family)
            .or_else(|| types.get(sample_name))
            .ok_or_else(|| format!("line {lineno}: sample {sample_name:?} has no # TYPE"))?;
        if declared == "histogram" && sample_name.ends_with("_bucket") {
            let le = labels
                .and_then(|l| l.strip_prefix("le=\""))
                .and_then(|l| l.strip_suffix('"'))
                .ok_or_else(|| format!("line {lineno}: bucket without le label: {line:?}"))?;
            let cumulative = value as u64;
            if let Some(prev) = last_bucket.get(&family) {
                if cumulative < *prev {
                    return Err(format!(
                        "line {lineno}: bucket for {family:?} decreases ({prev} -> {cumulative})"
                    ));
                }
            }
            last_bucket.insert(family.clone(), cumulative);
            if le == "+Inf" {
                inf_bucket.insert(family.clone(), cumulative);
            }
        } else if declared == "histogram" && sample_name.ends_with("_count") {
            counts.insert(family.clone(), value as u64);
        }
    }
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let inf = inf_bucket
            .get(family)
            .ok_or_else(|| format!("histogram {family:?} has no +Inf bucket"))?;
        let count = counts
            .get(family)
            .ok_or_else(|| format!("histogram {family:?} has no _count"))?;
        if inf != count {
            return Err(format!(
                "histogram {family:?}: +Inf bucket {inf} != _count {count}"
            ));
        }
    }
    Ok(())
}

/// `dsspy sketch`: transformation sketches for every detection.
pub fn cmd_sketch(path: &Path) -> Result<String, CliError> {
    let report = analyze_file(path, Dsspy::new(), &Telemetry::disabled())?;
    let sketches = sketches(&report);
    if sketches.is_empty() {
        return Ok("No use cases detected — nothing to transform.\n".into());
    }
    Ok(sketches
        .iter()
        .map(|s| s.render())
        .collect::<Vec<_>>()
        .join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_collect::{save_capture, Session};
    use dsspy_collections::{site, SpyVec};

    fn temp_capture(hot: bool, name: &str) -> std::path::PathBuf {
        let session = Session::new();
        {
            let mut l = SpyVec::register(&session, site!("cli_hot"));
            for i in 0..(if hot { 300 } else { 5 }) {
                l.add(i);
            }
            let mut m = SpyVec::register_manual(&session, site!("cli_manual"));
            m.add(1);
        }
        let capture = session.finish();
        let dir = std::env::temp_dir().join(format!("dsspy-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        save_capture(&capture, &path).unwrap();
        path
    }

    #[test]
    fn analyze_text_and_json() {
        let path = temp_capture(true, "a.dsspycap");
        let text = cmd_analyze(&path, false, false, 0, None).unwrap();
        assert!(text.contains("Long-Insert"), "{text}");
        let json = cmd_analyze(&path, true, false, 0, None).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed["instances"].is_array());
    }

    #[test]
    fn analyze_selective_filters_to_manual() {
        let path = temp_capture(true, "sel.dsspycap");
        let json = cmd_analyze(&path, true, true, 1, None).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["instances"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn analyze_output_does_not_depend_on_thread_count() {
        let path = temp_capture(true, "threads.dsspycap");
        let sequential = cmd_analyze(&path, true, false, 1, None).unwrap();
        for threads in [2usize, 4, 0] {
            let parallel = cmd_analyze(&path, true, false, threads, None).unwrap();
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn chart_and_timeline_render() {
        let path = temp_capture(true, "c.dsspycap");
        let chart = cmd_chart(&path, 0, None).unwrap();
        assert!(chart.contains("legend:"));
        let timeline = cmd_timeline(&path, 0, None).unwrap();
        assert!(timeline.contains("Insert-Back"), "{timeline}");
        // SVG outputs land on disk.
        let svg_path = path.with_extension("svg");
        cmd_chart(&path, 0, Some(&svg_path)).unwrap();
        assert!(std::fs::read_to_string(&svg_path)
            .unwrap()
            .starts_with("<svg"));
    }

    #[test]
    fn chart_rejects_bad_instance() {
        let path = temp_capture(true, "bad.dsspycap");
        let err = cmd_chart(&path, 99, None).unwrap_err();
        assert!(matches!(err, CliError::NoSuchInstance(99, 2)));
    }

    #[test]
    fn diff_between_two_captures() {
        let hot = temp_capture(true, "before.dsspycap");
        let cold = temp_capture(false, "after.dsspycap");
        let out = cmd_diff(&hot, &cold, 0).unwrap();
        assert!(out.contains("1 resolved"), "{out}");
        assert!(out.contains("cli_hot"));
    }

    #[test]
    fn sketch_renders_transformations() {
        let path = temp_capture(true, "s.dsspycap");
        let out = cmd_sketch(&path).unwrap();
        assert!(out.contains("par_for_init"), "{out}");
        let cold = temp_capture(false, "cold.dsspycap");
        let none = cmd_sketch(&cold).unwrap();
        assert!(none.contains("nothing to transform"));
    }

    #[test]
    fn csv_exports() {
        let path = temp_capture(true, "csv.dsspycap");
        let instances = cmd_csv(&path, CsvKind::Instances).unwrap();
        assert!(instances.lines().count() >= 3);
        let cases = cmd_csv(&path, CsvKind::UseCases).unwrap();
        assert!(cases.contains("Long-Insert"));
        let err = "bogus".parse::<CsvKind>().unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("\"bogus\""), "{err}");
    }

    #[test]
    fn report_writes_html() {
        let path = temp_capture(true, "r.dsspycap");
        let out = path.with_extension("html");
        let msg = cmd_report(&path, &out, 0, None).unwrap();
        assert!(msg.contains("bytes"));
        let html = std::fs::read_to_string(&out).unwrap();
        assert!(html.contains("Long-Insert"));
    }

    #[test]
    fn a_flipped_row_byte_fails_analysis_naming_instance_and_checksum() {
        let path = temp_capture(true, "flipped.dsspycap");
        let mut bytes = std::fs::read(&path).unwrap();
        // The last body (the manual list's one event) takes 24 bytes, so 40
        // bytes from the end lie in the hot list's rows.
        let at = bytes.len() - 40;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = cmd_analyze(&path, true, false, 2, None).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, CliError::Capture(_)), "{msg}");
        assert!(
            msg.contains("instance ds#") && msg.contains("checksum"),
            "{msg}"
        );
    }

    #[test]
    fn missing_file_is_a_capture_error() {
        let err =
            cmd_analyze(Path::new("/nonexistent.dsspycap"), false, false, 0, None).unwrap_err();
        assert!(matches!(err, CliError::Capture(_)));
    }

    #[test]
    fn watch_replays_frames_and_converges() {
        let path = temp_capture(true, "watch.dsspycap");
        let out = cmd_watch(&path, 32.try_into().unwrap(), 1.try_into().unwrap(), 8).unwrap();
        assert!(out.contains("frame 1:"), "{out}");
        assert!(
            out.contains("streaming verdicts match post-mortem analysis: yes"),
            "{out}"
        );
        assert!(out.contains("Long-Insert"), "{out}");
    }

    #[test]
    fn watch_frame_cap_still_converges() {
        let path = temp_capture(true, "watchcap.dsspycap");
        let out = cmd_watch(&path, 8.try_into().unwrap(), 1.try_into().unwrap(), 2).unwrap();
        // Only two frames printed, but the final verdict section is intact.
        assert!(out.contains("frame 2:"), "{out}");
        assert!(!out.contains("frame 3:"), "{out}");
        assert!(out.contains("match post-mortem analysis: yes"), "{out}");
    }

    #[test]
    fn demo_live_streams_and_converges() {
        let dir = std::env::temp_dir().join(format!("dsspy-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo-live.dsspycap");
        let msg = cmd_demo(&path, Some("wordwheelsolver"), true, None, false).unwrap();
        assert!(msg.contains("live stream folded"), "{msg}");
        assert!(msg.contains("verdicts match post-mortem: yes"), "{msg}");
        // The capture is still a normal capture every other command reads.
        let text = cmd_analyze(&path, false, false, 1, None).unwrap();
        assert!(text.contains("data structure instances"), "{text}");
    }

    #[test]
    fn demo_flight_recorder_writes_clean_dump_doctor_agrees() {
        let dir = std::env::temp_dir().join(format!("dsspy-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo-flight.dsspycap");
        let dump_path = dir.join("demo-flight.json");
        let msg = cmd_demo(
            &path,
            Some("wordwheelsolver"),
            true,
            Some(&dump_path),
            false,
        )
        .unwrap();
        assert!(msg.contains("flight recorder:"), "{msg}");
        assert!(msg.contains("0 incident(s)"), "{msg}");
        // The dump on disk is a valid schema-stamped flight dump with the
        // analyzer, the live session's one subscriber, on record.
        let dump = FlightDump::from_json(&std::fs::read_to_string(&dump_path).unwrap()).unwrap();
        assert!(dump.incidents.is_empty());
        assert_eq!(dump.sessions().len(), 1);
        assert_eq!(dump.subscribers(), vec!["analyzer"]);
        // Doctor reads it back and issues a clean bill of health.
        let (out, incidents) = cmd_doctor(&dump_path, 32, None).unwrap();
        assert_eq!(incidents, 0);
        assert!(out.contains("healthy — no incidents"), "{out}");
        assert!(out.contains("per-subscriber lag"), "{out}");
    }

    #[test]
    fn inject_panic_incident_is_reconstructed_by_doctor() {
        let dir = std::env::temp_dir().join(format!("dsspy-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo-panic.dsspycap");
        let dump_path = dir.join("demo-panic.json");
        // The bomb only poisons itself: the demo still converges.
        let msg = cmd_demo(&path, Some("wordwheelsolver"), true, Some(&dump_path), true).unwrap();
        assert!(msg.contains("verdicts match post-mortem: yes"), "{msg}");
        assert!(msg.contains("1 incident(s)"), "{msg}");
        let (out, incidents) =
            cmd_doctor(&dump_path, 48, Some(&dir.join("panic-trace.json"))).unwrap();
        assert_eq!(incidents, 1);
        // The report reconstructs session → batch → subscriber → panic.
        assert!(out.contains("UNHEALTHY"), "{out}");
        assert!(out.contains("subscriber-panic at s"), "{out}");
        assert!(out.contains("#b1"), "{out}");
        assert!(out.contains("subscriber bomb"), "{out}");
        assert!(out.contains("injected demo panic"), "{out}");
        assert!(out.contains("causal chain for s"), "{out}");
        // The Chrome trace landed and marks the incident.
        let trace = std::fs::read_to_string(dir.join("panic-trace.json")).unwrap();
        assert!(trace.contains("\"incident\""), "{trace}");
    }

    #[test]
    fn inject_panic_requires_live() {
        let dir = std::env::temp_dir().join(format!("dsspy-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = cmd_demo(&dir.join("x.dsspycap"), None, false, None, true).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn doctor_recollects_a_plain_capture() {
        let path = temp_capture(true, "doctor.dsspycap");
        let (out, incidents) = cmd_doctor(&path, 24, None).unwrap();
        assert_eq!(incidents, 0, "{out}");
        assert!(out.contains("re-collected capture"), "{out}");
        assert!(out.contains("analyzer"), "{out}");
        assert!(out.contains("healthy"), "{out}");
    }

    #[test]
    fn doctor_recollects_a_capture_past_the_watermark_without_incidents() {
        use dsspy_events::{AccessKind, AllocationSite, DsKind, Target};
        // Four times the events QUEUE_WATERMARK replayed 64-event batches
        // hold, as scattered reads (no long runs, so the collector's fold
        // is slow): an unbounded, unpaced replay queues past the watermark.
        let events = QUEUE_WATERMARK as u32 * 64 * 4;
        let session = Session::new();
        let mut list = session.register(AllocationSite::new("W", "scan", 1), DsKind::List, "u32");
        for i in 0..events {
            list.record(
                AccessKind::Read,
                Target::Index(i.wrapping_mul(7919) % 4096),
                4096,
            );
        }
        drop(list);
        let dir = std::env::temp_dir().join(format!("dsspy-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doctor-big.dsspycap");
        save_capture(&session.finish(), &path).unwrap();
        let (out, incidents) = cmd_doctor(&path, 8, None).unwrap();
        assert_eq!(incidents, 0, "{out}");
        assert!(out.contains("healthy"), "{out}");
    }

    #[test]
    fn doctor_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("dsspy-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{\"schema\":\"dsspy-flight/99\"}").unwrap();
        // Wrong schema → not a dump → not a capture either.
        let err = cmd_doctor(&path, 24, None).unwrap_err();
        assert!(matches!(err, CliError::Capture(_)), "{err}");
    }

    #[test]
    fn watch_follow_flight_recorder_stays_clean() {
        let dir = std::env::temp_dir().join(format!("dsspy-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump_path = dir.join("follow-flight.json");
        let out = cmd_watch_follow(
            Some("wordwheelsolver"),
            32.try_into().unwrap(),
            1.try_into().unwrap(),
            4,
            Some(&dump_path),
        )
        .unwrap();
        assert!(out.contains("flight recorder:"), "{out}");
        let (report, incidents) = cmd_doctor(&dump_path, 32, None).unwrap();
        assert_eq!(incidents, 0, "{report}");
    }

    #[test]
    fn validate_prometheus_requires_a_type_line() {
        // A gauge sample without its # TYPE declaration is rejected.
        let err = validate_prometheus("dsspy_collector_queue_depth_hwm 7\n").unwrap_err();
        assert!(err.contains("no # TYPE"), "{err}");
        // With the declaration it passes.
        validate_prometheus(
            "# TYPE dsspy_collector_queue_depth_hwm gauge\ndsspy_collector_queue_depth_hwm 7\n",
        )
        .unwrap();
    }

    #[test]
    fn flight_metric_families_reach_the_exposition() {
        let telemetry = Telemetry::enabled().with_flight(None);
        telemetry.flight().record(
            TraceContext::new(1, 1),
            dsspy_telemetry::FlightEventKind::SessionStart,
        );
        let body = export::prometheus(&telemetry.snapshot());
        validate_prometheus(&body).unwrap();
        for family in [
            "dsspy_flight_events_total",
            "dsspy_flight_incidents_total",
            "dsspy_flight_overwritten_total",
            "dsspy_flight_ring_len",
            "dsspy_flight_capacity",
        ] {
            assert!(body.contains(family), "missing {family} in:\n{body}");
        }
    }

    #[test]
    fn telemetry_serve_self_check_round_trips() {
        let path = temp_capture(true, "serve.dsspycap");
        let msg = cmd_telemetry_serve(&path, 1, "127.0.0.1:0", Some(1), true).unwrap();
        assert!(msg.contains("served 1 scrape(s)"), "{msg}");
        assert!(msg.contains("self-check scrape validated"), "{msg}");
    }

    #[test]
    fn a_silent_connection_does_not_stall_the_self_check_scrape() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        // Connected before the loop starts, so it is accepted first; it
        // stays open and never sends a byte.
        let _silent = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let served = serve_metrics(listener, Some(2), true, || {
                Ok("# TYPE up gauge\nup 1\n".to_string())
            });
            let _ = tx.send(served.map(|(served, _, scraped)| (served, scraped)));
        });
        let (served, scraped) = rx
            .recv_timeout(3 * REQUEST_READ_TIMEOUT)
            .expect("the silent connection stalled the listener")
            .unwrap();
        server.join().unwrap();
        assert_eq!(served, 2, "the timed-out connection counts as served");
        assert_eq!(scraped.as_deref(), Some("# TYPE up gauge\nup 1\n"));
    }

    #[test]
    fn telemetry_serve_rejects_bad_addr() {
        let path = temp_capture(true, "servebad.dsspycap");
        let err = cmd_telemetry_serve(&path, 1, "256.0.0.1:99999", Some(1), false).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
    }
}
