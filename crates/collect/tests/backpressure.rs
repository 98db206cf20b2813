//! Integration: a session bounds the batches in flight. A producer that
//! outruns its collector waits for the backlog to drain instead of piling
//! batches up, loses no event, and records the capture it would have
//! recorded unbounded; a handle flushed after `finish` never waits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dsspy_collect::{
    CollectorStats, CollectorTap, Session, SessionConfig, TapFanout, MAX_BATCHES_IN_FLIGHT,
};
use dsspy_events::{AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, Target};
use dsspy_telemetry::{Telemetry, TraceContext};

const WAIT: &str = "session.backpressure_nanos";

fn site(line: u32) -> AllocationSite {
    AllocationSite::new("Backpressure", "main", line)
}

/// A tap that sleeps on every batch and remembers the most batches that
/// were in flight when one reached it: itself plus those queued behind.
struct SlowTap {
    most_in_flight: Arc<AtomicUsize>,
}

impl CollectorTap for SlowTap {
    fn on_batch(
        &mut self,
        _ctx: TraceContext,
        _id: InstanceId,
        _events: &[AccessEvent],
        queue_depth: usize,
    ) {
        self.most_in_flight
            .fetch_max(queue_depth + 1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_micros(200));
    }
    fn on_stop(&mut self, _ctx: TraceContext, _stats: &CollectorStats, _nanos: u64) {}
}

#[test]
fn a_producer_outrunning_a_slow_tap_waits_within_the_cap_and_loses_nothing() {
    const BATCH: u32 = 16;
    const EVENTS: u32 = BATCH * 4 * MAX_BATCHES_IN_FLIGHT as u32;
    let telemetry = Telemetry::enabled();
    let most_in_flight = Arc::new(AtomicUsize::new(0));
    let session = Session::builder()
        .config(SessionConfig {
            batch_size: BATCH as usize,
            channel_capacity: None,
        })
        .telemetry(telemetry.clone())
        .tap(Box::new(TapFanout::new().with_subscriber(
            "slow",
            Box::new(SlowTap {
                most_in_flight: Arc::clone(&most_in_flight),
            }),
        )))
        .start();
    let mut h = session.register(site(1), DsKind::List, "u32");
    for i in 0..EVENTS {
        h.record(AccessKind::Insert, Target::Index(i), i + 1);
    }
    drop(h);
    let capture = session.finish();

    let waited = telemetry.snapshot().counter(WAIT).unwrap_or(0);
    assert!(waited > 0, "the producer never waited for the collector");
    let most = most_in_flight.load(Ordering::Relaxed);
    assert!(
        most <= MAX_BATCHES_IN_FLIGHT,
        "{most} batches in flight, above the cap of {MAX_BATCHES_IN_FLIGHT}"
    );
    assert!(
        most > MAX_BATCHES_IN_FLIGHT / 2,
        "the producer never got ahead: at most {most} batches in flight"
    );
    assert_eq!(capture.stats.dropped, 0);
    assert_eq!(capture.stats.events, u64::from(EVENTS));
    assert_eq!(capture.stats.batches, u64::from(EVENTS / BATCH));
    let events = &capture.profiles[0].events;
    let expected: Vec<_> = (0..EVENTS)
        .map(|i| (u64::from(i), AccessKind::Insert, Target::Index(i), i + 1))
        .collect();
    let recorded: Vec<_> = events
        .iter()
        .map(|e| (e.seq, e.kind, e.target, e.len))
        .collect();
    assert!(
        recorded == expected,
        "the capture is not the recorded events"
    );
}

#[test]
fn a_handle_flushed_after_finish_never_waits() {
    let telemetry = Telemetry::enabled();
    let session = Session::builder()
        .config(SessionConfig {
            batch_size: 4,
            channel_capacity: Some(1),
        })
        .telemetry(telemetry.clone())
        .start();
    let mut h = session.register(site(1), DsKind::List, "u32");
    let capture = session.finish();
    assert_eq!(capture.stats.events, 0);
    // Far more batches than the bound of 1: none of them may wait for the
    // collector that is gone, and every event is counted lost.
    for i in 0..4_000u32 {
        h.record(AccessKind::Insert, Target::Index(i), i + 1);
    }
    h.record(AccessKind::Read, Target::Index(0), 4_000);
    drop(h);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter(WAIT), None, "a flush after finish waited");
    assert_eq!(snap.counter("collector.dropped"), Some(4_001));
}
