//! End-to-end streaming convergence over the paper's evaluation suite:
//! every suite7 workload, run under a live tapped session, must produce a
//! streaming report whose per-instance verdicts serialize byte-for-byte
//! like the post-mortem `analyze_capture` of the drained capture — with
//! matching recommended actions — including a long session streamed in
//! small batches.

use dsspy::collect::{CaptureRecorder, Session, SessionConfig, TapFanout};
use dsspy::core::Dsspy;
use dsspy::stream::{StreamConfig, StreamingAnalyzer, TelemetrySampler};
use dsspy::telemetry::Telemetry;
use dsspy_workloads::{suite7, Mode, Scale};

fn instances_json(instances: &[dsspy::core::InstanceReport]) -> String {
    serde_json::to_string(instances).expect("serialize instance reports")
}

#[test]
fn every_suite7_workload_streams_to_the_post_mortem_verdicts() {
    let dsspy = Dsspy::new().with_threads(1);
    for w in suite7() {
        let streaming = StreamingAnalyzer::new(dsspy, StreamConfig::default());
        let session = streaming.attach(Vec::new());
        w.run(Scale::Test, Mode::Instrumented(&session));
        let capture = session.finish();
        let live = streaming
            .latest_report()
            .unwrap_or_else(|| panic!("{}: no final snapshot", w.spec().name));
        let post = dsspy.analyze_capture(&capture);

        // Byte-for-byte on everything per-instance: classifications,
        // evidence, metrics, patterns, regularity and advisories.
        assert_eq!(
            instances_json(&live.instances),
            instances_json(&post.instances),
            "{}: streaming diverged from post-mortem",
            w.spec().name
        );
        // Recommended actions, explicitly (the engineer-facing output).
        let live_actions: Vec<&str> = live
            .all_use_cases()
            .iter()
            .map(|u| u.recommendation())
            .collect();
        let post_actions: Vec<&str> = post
            .all_use_cases()
            .iter()
            .map(|u| u.recommendation())
            .collect();
        assert_eq!(live_actions, post_actions, "{}", w.spec().name);
        // And the aggregate headline numbers fall out equal too.
        assert_eq!(
            live.flagged_instance_count(),
            post.flagged_instance_count(),
            "{}",
            w.spec().name
        );
        assert_eq!(live.stats, post.stats, "{}", w.spec().name);
        assert_eq!(live.session_nanos, post.session_nanos, "{}", w.spec().name);
    }
}

#[test]
fn fanout_session_feeds_analyzer_sampler_and_recorder_identically() {
    // The `--live`/`--follow` wiring: one suite7 session multiplexed to the
    // three production subscriber kinds. Each must independently agree with
    // the post-mortem analysis of the drained capture.
    let dsspy = Dsspy::new().with_threads(1);
    let telemetry = Telemetry::enabled();
    let suite = suite7();
    let w = &suite[6]; // WordWheelSolver, the demo default

    let streaming = StreamingAnalyzer::new(dsspy, StreamConfig::default());
    let sampler = TelemetrySampler::new(&telemetry);
    let recorder = CaptureRecorder::new();
    let fanout = TapFanout::with_telemetry(telemetry.clone())
        .with_subscriber("analyzer", streaming.tap())
        .with_subscriber("sampler", sampler.tap())
        .with_subscriber("recorder", recorder.tap());
    let session = Session::builder()
        .config(dsspy.session)
        .telemetry(telemetry.clone())
        .tap(Box::new(fanout))
        .start();
    streaming.bind_registry(session.registry_handle());
    w.run(Scale::Test, Mode::Instrumented(&session));
    let capture = session.finish();
    let post = dsspy.analyze_capture(&capture);

    // Subscriber 1 — the streaming analyzer's verdicts.
    let live = streaming.latest_report().expect("final snapshot");
    assert_eq!(
        instances_json(&live.instances),
        instances_json(&post.instances)
    );
    assert_eq!(live.stats, post.stats);
    assert_eq!(live.session_nanos, post.session_nanos);

    // Subscriber 2 — the sampler's final word matches the capture's stats.
    let (events, batches) = sampler.seen();
    assert_eq!(events, capture.stats.events);
    assert_eq!(batches, capture.stats.batches);
    let (stats, nanos) = sampler.final_stats().expect("on_stop delivered");
    assert_eq!(stats, capture.stats);
    assert_eq!(nanos, capture.session_nanos);

    // Subscriber 3 — the recorder rebuilds a capture that analyzes to the
    // same report.
    let infos: Vec<_> = capture
        .profiles
        .iter()
        .map(|p| p.instance.clone())
        .collect();
    let rebuilt = recorder.capture(infos).expect("on_stop delivered");
    let re_analyzed = dsspy.analyze_capture(&rebuilt);
    assert_eq!(
        instances_json(&re_analyzed.instances),
        instances_json(&post.instances)
    );
    assert_eq!(re_analyzed.stats, post.stats);

    // And the fanout's own telemetry saw three healthy subscribers.
    let snap = telemetry.snapshot();
    assert_eq!(snap.gauge("stream.tap.subscribers"), Some(3));
    assert_eq!(snap.counter("stream.tap.panics"), Some(0));
    for label in ["analyzer", "sampler", "recorder"] {
        assert_eq!(
            snap.counter(&format!("stream.tap.{label}.batches")),
            Some(capture.stats.batches),
            "{label} missed batches"
        );
    }
}

#[test]
fn replaying_a_suite7_capture_matches_whole_report_serialization() {
    // Replay mode finishes with the capture's own stats, so the *entire*
    // report — not just the instance list — serializes identically.
    let dsspy = Dsspy::new().with_threads(1);
    let suite = suite7();
    let w = &suite[6]; // WordWheelSolver, the demo default
    let session = Session::new();
    w.run(Scale::Test, Mode::Instrumented(&session));
    let capture = session.finish();

    let streaming = StreamingAnalyzer::new(dsspy, StreamConfig::default());
    for profile in &capture.profiles {
        streaming.register_instance(profile.instance.clone());
    }
    for profile in &capture.profiles {
        for chunk in profile.events.chunks(256) {
            streaming.fold_batch(profile.instance.id, chunk, 0);
        }
    }
    streaming.finish_replay(&capture.stats, capture.session_nanos);
    let live = streaming.latest_report().expect("final snapshot");
    let post = dsspy.analyze_capture(&capture);
    assert_eq!(
        serde_json::to_string(&*live).unwrap(),
        serde_json::to_string(&post).unwrap()
    );
}

#[test]
fn long_session_streaming_converges_to_the_post_mortem_verdicts() {
    // A long session in small batches: the analyzer keeps only its folds,
    // and the verdicts still converge.
    let dsspy = Dsspy {
        session: SessionConfig {
            batch_size: 128,
            channel_capacity: None,
        },
        ..Dsspy::new()
    }
    .with_threads(1);
    let streaming = StreamingAnalyzer::new(dsspy, StreamConfig::default());
    let session = streaming.attach(Vec::new());
    let instances = 4usize;
    {
        let mut handles: Vec<_> = (0..instances)
            .map(|i| {
                session.register(
                    dsspy::events::AllocationSite::new("Long", "session", i as u32),
                    dsspy::events::DsKind::List,
                    "u64",
                )
            })
            .collect();
        for round in 0..50_000u32 {
            let h = &mut handles[(round as usize) % instances];
            h.record(
                dsspy::events::AccessKind::Insert,
                dsspy::events::Target::Index(round / instances as u32),
                round / instances as u32 + 1,
            );
        }
    }
    let capture = session.finish();
    assert_eq!(capture.stats.dropped, 0);

    let stats = streaming.stats();
    assert_eq!(stats.events, 50_000);
    assert_eq!(stats.instances, instances);

    let live = streaming.latest_report().expect("final snapshot");
    let post = dsspy.analyze_capture(&capture);
    assert_eq!(
        instances_json(&live.instances),
        instances_json(&post.instances)
    );
}
