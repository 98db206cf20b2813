//! Fan-out tap against a real live session: every subscriber observes
//! exactly the stored batch stream, a [`CaptureRecorder`] rebuilds the
//! session's capture byte-for-byte, and a panicking subscriber poisons
//! neither the collector thread nor its peers.

use dsspy_collect::{
    CaptureRecorder, CollectorStats, CollectorTap, Session, SessionConfig, TapFanout,
};
use dsspy_events::{AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, Target};
use dsspy_telemetry::{Telemetry, TraceContext};

fn site(line: u32) -> AllocationSite {
    AllocationSite::new("FanoutIt", "live", line)
}

fn run_workload(session: &Session) {
    let mut a = session.register(site(1), DsKind::List, "i32");
    let mut b = session.register(site(2), DsKind::List, "i32");
    for i in 0..500u32 {
        a.record(AccessKind::Insert, Target::Index(i), i + 1);
        if i % 3 == 0 {
            b.record(AccessKind::Insert, Target::Index(i / 3), i / 3 + 1);
        }
    }
}

#[test]
fn three_recorders_rebuild_identical_captures() {
    let recorders: Vec<CaptureRecorder> = (0..3).map(|_| CaptureRecorder::new()).collect();
    let mut fanout = TapFanout::new();
    for (i, r) in recorders.iter().enumerate() {
        fanout.subscribe(&format!("rec{i}"), r.tap());
    }
    let session = Session::builder()
        .config(SessionConfig {
            batch_size: 64,
            channel_capacity: None,
        })
        .tap(Box::new(fanout))
        .start();
    run_workload(&session);
    let capture = session.finish();
    assert!(capture.stats.batches > 1, "workload spans several batches");

    let session_json = serde_json::to_string(&capture.profiles[..]).unwrap();
    let infos: Vec<_> = capture
        .profiles
        .iter()
        .map(|p| p.instance.clone())
        .collect();
    let mut logs = Vec::new();
    for r in &recorders {
        let rebuilt = r.capture(infos.clone()).expect("session stopped");
        assert_eq!(
            serde_json::to_string(&rebuilt.profiles[..]).unwrap(),
            session_json,
            "recorder mirrors the session capture"
        );
        assert_eq!(rebuilt.stats, capture.stats);
        assert_eq!(rebuilt.session_nanos, capture.session_nanos);
        logs.push(r.batch_log());
    }
    // All subscribers saw the same delivery order.
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
    assert_eq!(
        logs[0].iter().map(|&(_, n)| n as u64).sum::<u64>(),
        capture.stats.events
    );
}

/// Panics while the collector thread delivers its `panic_on`-th batch.
struct Bomb {
    seen: usize,
    panic_on: usize,
}

impl CollectorTap for Bomb {
    fn on_batch(
        &mut self,
        _ctx: TraceContext,
        _id: InstanceId,
        _events: &[AccessEvent],
        _depth: usize,
    ) {
        self.seen += 1;
        if self.seen == self.panic_on {
            panic!("bomb");
        }
    }
    fn on_stop(&mut self, _ctx: TraceContext, _stats: &CollectorStats, _nanos: u64) {}
}

#[test]
fn subscriber_panic_on_collector_thread_does_not_poison_the_session() {
    let survivor = CaptureRecorder::new();
    let telemetry = Telemetry::enabled();
    let fanout = TapFanout::with_telemetry(telemetry.clone())
        .with_subscriber(
            "bomb",
            Box::new(Bomb {
                seen: 0,
                panic_on: 3,
            }),
        )
        .with_subscriber("survivor", survivor.tap());
    // The panic happens on the collector thread; the default hook would
    // print a scary backtrace for an expected event, so silence it around
    // the session (and restore it for the rest of the suite).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let session = Session::builder()
        .config(SessionConfig {
            batch_size: 16,
            channel_capacity: None,
        })
        .tap(Box::new(fanout))
        .start();
    run_workload(&session);
    let capture = session.finish();
    std::panic::set_hook(hook);

    // The collector survived: nothing dropped, all events stored.
    assert_eq!(capture.stats.dropped, 0);
    assert_eq!(capture.event_count() as u64, capture.stats.events);
    assert!(capture.stats.batches >= 3, "bomb armed on batch 3");

    // The healthy subscriber still mirrors the full capture.
    let infos: Vec<_> = capture
        .profiles
        .iter()
        .map(|p| p.instance.clone())
        .collect();
    let rebuilt = survivor.capture(infos).expect("on_stop delivered");
    assert_eq!(
        serde_json::to_string(&rebuilt.profiles[..]).unwrap(),
        serde_json::to_string(&capture.profiles[..]).unwrap()
    );
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("stream.tap.panics"), Some(1));
    assert_eq!(
        snap.counter("stream.tap.bomb.batches"),
        Some(2),
        "the panicking delivery is not counted"
    );
    assert_eq!(
        snap.counter("stream.tap.survivor.batches"),
        Some(capture.stats.batches)
    );
}
