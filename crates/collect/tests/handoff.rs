//! Integration: the hand-off between a session's handles and its collector.
//! The collector is woken once per burst of batches, not once per batch,
//! yet a lone batch still reaches a tap within milliseconds, `finish`
//! stores everything without waiting for a burst, and a parked collector
//! never strands a producer.
//!
//! No public path panics the collector thread (the fan-out isolates every
//! subscriber); the unit tests of the queue itself show that a collector
//! that panics disconnects it, so a producer waiting at the cap returns.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use dsspy_collect::{Capture, CollectorStats, CollectorTap, Session, SessionConfig, TapFanout};
use dsspy_events::{AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, Target};
use dsspy_telemetry::{Telemetry, TraceContext};

fn site(line: u32) -> AllocationSite {
    AllocationSite::new("Handoff", "main", line)
}

fn session(batch_size: usize, telemetry: &Telemetry) -> Session {
    Session::builder()
        .config(SessionConfig {
            batch_size,
            channel_capacity: None,
        })
        .telemetry(telemetry.clone())
        .start()
}

/// A tap that reports when each batch reaches it.
struct Arrivals(mpsc::Sender<Instant>);

impl CollectorTap for Arrivals {
    fn on_batch(&mut self, _: TraceContext, _: InstanceId, _: &[AccessEvent], _: usize) {
        let _ = self.0.send(Instant::now());
    }
    fn on_stop(&mut self, _: TraceContext, _: &CollectorStats, _: u64) {}
}

/// `finish` on another thread, so a collector that never wakes fails the
/// test instead of hanging it.
fn finish_within(session: Session, bound: Duration) -> Capture {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(session.finish());
    });
    rx.recv_timeout(bound)
        .unwrap_or_else(|_| panic!("finish did not return within {bound:?}"))
}

#[test]
fn one_shipped_batch_reaches_a_tap_while_the_session_is_open() {
    let (tx, arrivals) = mpsc::channel();
    let session = Session::builder()
        .tap(Box::new(
            TapFanout::new().with_subscriber("arrivals", Box::new(Arrivals(tx))),
        ))
        .start();
    let mut h = session.register(site(1), DsKind::List, "u32");
    // Once right after start, and once after the collector has been idle
    // long enough to park until woken.
    for pause in [Duration::ZERO, Duration::from_millis(20)] {
        std::thread::sleep(pause);
        h.record(AccessKind::Insert, Target::Index(0), 1);
        let shipped = Instant::now();
        h.flush();
        let arrived = arrivals
            .recv_timeout(Duration::from_secs(5))
            .expect("the batch reached the tap");
        let lag = arrived.saturating_duration_since(shipped);
        assert!(
            lag < Duration::from_millis(50),
            "lag {lag:?} after {pause:?}"
        );
    }
    drop(h);
    assert_eq!(session.finish().stats.batches, 2);
}

#[test]
fn finish_with_a_few_batches_queued_stores_every_event() {
    let telemetry = Telemetry::enabled();
    let session = session(4, &telemetry);
    let mut h = session.register(site(1), DsKind::List, "u32");
    for i in 0..4 {
        h.record(AccessKind::Insert, Target::Index(i), i + 1);
    }
    // Idle long enough for the collector to park until woken, then queue
    // two batches (one ships on drop): far fewer than a burst.
    std::thread::sleep(Duration::from_millis(20));
    for i in 4..10 {
        h.record(AccessKind::Insert, Target::Index(i), i + 1);
    }
    drop(h);
    let capture = finish_within(session, Duration::from_secs(5));
    assert_eq!(capture.stats.events, 10);
    assert_eq!(capture.stats.batches, 3);
    assert_eq!(capture.stats.dropped, 0);
    let lens: Vec<u32> = capture.profiles[0].events.iter().map(|e| e.len).collect();
    assert_eq!(lens, (1..=10).collect::<Vec<_>>());
}

#[test]
fn a_burst_of_batches_wakes_the_collector_a_few_times() {
    const BATCH: u32 = 64;
    const BATCHES: u32 = 2_048;
    let telemetry = Telemetry::enabled();
    let session = session(BATCH as usize, &telemetry);
    let mut h = session.register(site(1), DsKind::List, "u32");
    for i in 0..BATCH * BATCHES {
        h.record(AccessKind::Read, Target::Index(i % 100), 100);
    }
    drop(h);
    let capture = finish_within(session, Duration::from_secs(30));
    assert_eq!(capture.stats.batches, u64::from(BATCHES));
    assert_eq!(capture.stats.events, u64::from(BATCH * BATCHES));
    let wakeups = telemetry.snapshot().counter("collector.wakeups");
    let wakeups = wakeups.expect("the collector counts its wakeups");
    assert!(
        wakeups <= u64::from(BATCHES / 4),
        "{wakeups} wakeups for {BATCHES} batches"
    );
}
