//! Live session service regression tests: every exposition rendered while
//! a session is still collecting — including scrapes that race a batch
//! flush — must parse under `validate_prometheus`, and the `--live` /
//! `--follow` surfaces must converge with post-mortem analysis on exit.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dsspy_cli::{cmd_demo, cmd_telemetry_serve_live, cmd_watch_follow, validate_prometheus};
use dsspy_collect::{Session, SessionConfig, TapFanout};
use dsspy_core::Dsspy;
use dsspy_stream::{StreamConfig, StreamingAnalyzer};
use dsspy_telemetry::{export, Telemetry};
use dsspy_workloads::{suite7, Mode, Scale};

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsspy-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn demo_capture(name: &str) -> PathBuf {
    let path = temp_dir().join(name);
    cmd_demo(&path, None, false, None, false).expect("demo capture");
    path
}

/// The core `--live` property, exercised without TCP in the way: while a
/// real session is mid-collection (batches flushing on the collector
/// thread, the fan-out dispatching to the analyzer), a snapshot taken
/// at *any* instant must render a valid Prometheus exposition. Before the
/// buckets-first histogram snapshot fix, a scrape racing a `record()` could
/// observe a torn histogram (count ahead of buckets) and fail validation.
#[test]
fn every_scrape_racing_a_batch_flush_validates() {
    let dsspy = Dsspy {
        session: SessionConfig {
            batch_size: 32,
            channel_capacity: None,
        },
        ..Dsspy::new()
    }
    .with_threads(1);
    let telemetry = Telemetry::enabled();
    let streaming =
        StreamingAnalyzer::with_telemetry(dsspy, StreamConfig::default(), telemetry.clone());
    let fanout =
        TapFanout::with_telemetry(telemetry.clone()).with_subscriber("analyzer", streaming.tap());
    let session = Session::builder()
        .config(dsspy.session)
        .telemetry(telemetry.clone())
        .tap(Box::new(fanout))
        .start();
    streaming.bind_registry(session.registry_handle());

    let driver = std::thread::spawn(move || {
        let suite = suite7();
        for w in &suite {
            w.run(Scale::Test, Mode::Instrumented(&session));
        }
        session.finish()
    });

    let mut scrapes = 0u64;
    while !driver.is_finished() {
        let body = export::prometheus(&telemetry.snapshot());
        validate_prometheus(&body)
            .unwrap_or_else(|e| panic!("scrape {scrapes} failed validation: {e}"));
        scrapes += 1;
    }
    let capture = driver.join().expect("driver");
    assert!(scrapes > 0, "at least one scrape raced the session");

    // And the drained exposition still validates and carries the live
    // collector and stream families.
    let body = export::prometheus(&telemetry.snapshot());
    validate_prometheus(&body).expect("final exposition");
    for family in [
        "collector_events",
        "stream_tap_analyzer_batches",
        "collector_batch_events",
    ] {
        assert!(body.contains(family), "missing {family} in exposition");
    }

    // Convergence, same as the production surfaces check.
    let live = streaming.latest_report().expect("final snapshot");
    let post = dsspy.analyze_capture(&capture);
    assert_eq!(
        serde_json::to_string(&live.instances).unwrap(),
        serde_json::to_string(&post.instances).unwrap()
    );
}

#[test]
fn live_serve_self_check_smoke() {
    let capture = demo_capture("live-self-check.dsspycap");
    let msg = cmd_telemetry_serve_live(&capture, 1, "127.0.0.1:0", Some(1), true, None)
        .expect("live serve with self-check");
    assert!(msg.contains("self-check scrape validated"), "{msg}");
    assert!(
        msg.contains("streaming verdicts converged with post-mortem"),
        "{msg}"
    );
}

#[test]
fn live_serve_survives_external_scrapes_racing_the_replay() {
    let capture = demo_capture("live-external.dsspycap");
    // Pick a port, release it, and hand it to the server — only this test
    // binds on it in the interim.
    let port = TcpListener::bind("127.0.0.1:0")
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let scrapes = 6u64;
    let server = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            cmd_telemetry_serve_live(&capture, 1, &addr, Some(scrapes), false, None)
        })
    };

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut validated = 0u64;
    while validated < scrapes {
        assert!(Instant::now() < deadline, "server never accepted scrapes");
        let Ok(mut stream) = TcpStream::connect(&addr) else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (_headers, body) = response.split_once("\r\n\r\n").expect("http response");
        validate_prometheus(body)
            .unwrap_or_else(|e| panic!("scrape {validated} failed validation: {e}"));
        validated += 1;
    }
    let msg = server
        .join()
        .expect("server thread")
        .expect("server converged");
    assert!(
        msg.contains("streaming verdicts converged with post-mortem"),
        "{msg}"
    );
}

#[test]
fn watch_follow_converges_on_a_live_workload() {
    let out = cmd_watch_follow(
        Some("WordWheelSolver"),
        64.try_into().unwrap(),
        2.try_into().unwrap(),
        8,
        None,
    )
    .expect("follow");
    assert!(out.contains("frame 1:"), "no frames printed:\n{out}");
    assert!(
        out.contains("streaming verdicts match post-mortem analysis: yes"),
        "{out}"
    );
    assert!(out.contains("followed live session:"), "{out}");
}

#[test]
fn watch_follow_rejects_unknown_workloads() {
    let err = cmd_watch_follow(
        Some("NoSuchWorkload"),
        64.try_into().unwrap(),
        2.try_into().unwrap(),
        8,
        None,
    )
    .unwrap_err();
    assert!(err.to_string().contains("unknown workload"), "{err}");
}
