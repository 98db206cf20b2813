//! Integration: a telemetry-enabled session observes its own collector —
//! queue depth, batch histograms, busy time — and the queue-depth gauge
//! drains to 0 once `Session::finish` stops the collector.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dsspy_collect::{
    load_capture_with, read_capture_with, save_capture_with, write_capture, write_capture_with,
    CollectorStats, CollectorTap, ReadOptions, Session, SessionConfig, TapFanout,
};
use dsspy_events::{AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, Target};
use dsspy_telemetry::{overhead::signals, Telemetry, TraceContext};

fn site(line: u32) -> AllocationSite {
    AllocationSite::new("Test", "main", line)
}

#[test]
fn queue_depth_gauge_drains_to_zero_after_stop() {
    let telemetry = Telemetry::enabled();
    let session = Session::builder()
        .config(SessionConfig {
            batch_size: 8,
            channel_capacity: None,
        })
        .telemetry(telemetry.clone())
        .start();
    let mut handles: Vec<_> = (0..4)
        .map(|t| session.register(site(t), DsKind::List, "i32"))
        .collect();
    for h in &mut handles {
        for i in 0..100u32 {
            h.record(AccessKind::Insert, Target::Index(i), i + 1);
        }
    }
    drop(handles);
    let capture = session.finish();
    assert_eq!(capture.event_count(), 400);

    let snap = telemetry.snapshot();
    assert_eq!(
        snap.gauge("collector.queue_depth"),
        Some(0),
        "queue must be fully drained after Stop"
    );
    assert_eq!(snap.counter("collector.events"), Some(400));
    assert_eq!(
        snap.counter("collector.batches"),
        Some(capture.stats.batches)
    );
    assert_eq!(snap.counter("collector.dropped"), Some(0));
    // 400 events in batches of ≤8 means at least 50 batches were observed.
    let sizes = snap.histogram("collector.batch_events").unwrap();
    assert_eq!(sizes.count, capture.stats.batches);
    assert_eq!(sizes.sum, 400);
    assert!(sizes.max <= 8);
    // Wait and handle-time histograms saw every batch too.
    assert_eq!(
        snap.histogram("collector.batch_wait_nanos").unwrap().count,
        capture.stats.batches
    );
    assert_eq!(
        snap.histogram("collector.batch_handle_nanos")
            .unwrap()
            .count,
        capture.stats.batches
    );
    // Busy time is the sum of per-batch handling time.
    assert_eq!(
        snap.counter(signals::COLLECTOR_BUSY),
        Some(snap.histogram("collector.batch_handle_nanos").unwrap().sum)
    );
    assert!(snap.counter("session.session_nanos").unwrap_or(0) > 0);
}

#[test]
fn collector_counters_advance_while_the_session_runs() {
    let telemetry = Telemetry::enabled();
    let session = Session::builder().telemetry(telemetry.clone()).start();
    let mut h = session.register(site(1), DsKind::List, "i32");
    for i in 0..100u32 {
        h.record(AccessKind::Insert, Target::Index(i), i + 1);
    }
    h.flush();
    // The batch is stored asynchronously: poll, but never past a deadline.
    let deadline = Instant::now() + Duration::from_secs(10);
    while telemetry
        .snapshot()
        .counter("collector.events")
        .unwrap_or(0)
        == 0
    {
        assert!(
            Instant::now() < deadline,
            "collector.events still 0 mid-session"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let mid = telemetry.snapshot();
    assert_eq!(mid.counter("collector.events"), Some(100));
    assert_eq!(mid.counter("collector.batches"), Some(1));
    drop(h);
    let capture = session.finish();
    // Published per batch, not once more at stop.
    assert_eq!(
        telemetry.snapshot().counter("collector.events"),
        Some(capture.stats.events)
    );
}

/// A deliberately slow tap that meets the test at `gate` to pin down when
/// the collector samples its queue, and remembers the deepest queue it was
/// handed.
struct GatedTap {
    gate: Arc<Barrier>,
    deliveries: usize,
    deepest: Arc<AtomicUsize>,
}

impl CollectorTap for GatedTap {
    fn on_batch(
        &mut self,
        _ctx: TraceContext,
        _id: InstanceId,
        _events: &[AccessEvent],
        queue_depth: usize,
    ) {
        self.deepest.fetch_max(queue_depth, Ordering::Relaxed);
        self.deliveries += 1;
        match self.deliveries {
            // Batch 1: hold the collector until the test has queued the rest.
            1 => {
                self.gate.wait();
                self.gate.wait();
            }
            // Batch 2 was sampled: only now may `Stop` join the queue.
            2 => {
                self.gate.wait();
            }
            _ => {}
        }
    }
    fn on_stop(&mut self, _ctx: TraceContext, _stats: &CollectorStats, _nanos: u64) {}
}

#[test]
fn queue_depth_hwm_is_the_deepest_queue_the_tap_was_handed() {
    let telemetry = Telemetry::enabled();
    let gate = Arc::new(Barrier::new(2));
    let deepest = Arc::new(AtomicUsize::new(0));
    let session = Session::builder()
        .config(SessionConfig {
            batch_size: 4,
            channel_capacity: None,
        })
        .telemetry(telemetry.clone())
        .tap(Box::new(TapFanout::new().with_subscriber(
            "gated",
            Box::new(GatedTap {
                gate: Arc::clone(&gate),
                deliveries: 0,
                deepest: Arc::clone(&deepest),
            }),
        )))
        .start();
    let mut h = session.register(site(1), DsKind::List, "i32");
    let mut record = |range: std::ops::Range<u32>| {
        for i in range {
            h.record(AccessKind::Insert, Target::Index(i), i + 1);
        }
    };
    // Batch 1 ships and the collector is held inside the tap with it ...
    record(0..4);
    gate.wait();
    // ... while batches 2..=500 queue up behind it.
    record(4..2_000);
    gate.wait();
    gate.wait();
    drop(h);
    session.finish();
    let deepest = deepest.load(Ordering::Relaxed) as u64;
    assert_eq!(deepest, 498, "batch 2 is received with 3..=500 queued");
    // The collector's receipt-time sample is the gauge's only writer.
    assert_eq!(
        telemetry.snapshot().gauge("collector.queue_depth_hwm"),
        Some(deepest)
    );
}

/// A tap that spends `delay` on every batch, so the collector falls behind
/// the producer and is still draining when `Session::finish` is called.
struct SlowTap {
    delay: Duration,
    stop_nanos: Arc<AtomicUsize>,
}

impl CollectorTap for SlowTap {
    fn on_batch(
        &mut self,
        _ctx: TraceContext,
        _id: InstanceId,
        _events: &[AccessEvent],
        _queue_depth: usize,
    ) {
        std::thread::sleep(self.delay);
    }
    fn on_stop(&mut self, _ctx: TraceContext, _stats: &CollectorStats, session_nanos: u64) {
        self.stop_nanos
            .store(session_nanos as usize, Ordering::Relaxed);
    }
}

#[test]
fn session_duration_covers_a_lagging_collectors_busy_time() {
    let telemetry = Telemetry::enabled();
    let stop_nanos = Arc::new(AtomicUsize::new(0));
    let session = Session::builder()
        .config(SessionConfig {
            batch_size: 4,
            channel_capacity: None,
        })
        .telemetry(telemetry.clone())
        .tap(Box::new(TapFanout::new().with_subscriber(
            "slow",
            Box::new(SlowTap {
                delay: Duration::from_millis(2),
                stop_nanos: Arc::clone(&stop_nanos),
            }),
        )))
        .start();
    let mut h = session.register(site(1), DsKind::List, "i32");
    // 40 batches ship in microseconds; the tap needs ≥ 80 ms to take them.
    for i in 0..160u32 {
        h.record(AccessKind::Insert, Target::Index(i), i + 1);
    }
    drop(h);
    let capture = session.finish();
    assert_eq!(capture.stats.batches, 40);
    let busy = telemetry
        .snapshot()
        .counter(signals::COLLECTOR_BUSY)
        .unwrap();
    assert!(busy >= 80_000_000, "the tap's sleeps are busy time: {busy}");
    assert!(
        busy <= capture.session_nanos,
        "collector busy {busy} ns exceeds the session's {} ns",
        capture.session_nanos
    );
    assert_eq!(
        stop_nanos.load(Ordering::Relaxed) as u64,
        capture.session_nanos,
        "on_stop and the capture carry the same stamp"
    );
}

#[test]
fn handle_side_drops_reach_the_telemetry_counter() {
    let telemetry = Telemetry::enabled();
    let session = Session::builder().telemetry(telemetry.clone()).start();
    let mut h = session.register(site(1), DsKind::List, "i32");
    h.record(AccessKind::Insert, Target::Index(0), 1);
    h.flush();
    let capture = session.finish();
    assert_eq!(capture.stats.events, 1);
    // Recorded after shutdown: counted as dropped on the handle side.
    h.record(AccessKind::Read, Target::Index(0), 1);
    drop(h);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("collector.dropped"), Some(1));
}

#[test]
fn persistence_round_trip_reports_volume_and_checks_in_parallel() {
    let session = Session::new();
    let mut handles: Vec<_> = (0..6)
        .map(|t| session.register(site(t), DsKind::List, "u64"))
        .collect();
    for (t, h) in handles.iter_mut().enumerate() {
        for i in 0..200u32 {
            h.record(AccessKind::Insert, Target::Index(i), i + 1);
        }
        let _ = t;
    }
    drop(handles);
    let capture = session.finish();

    let telemetry = Telemetry::enabled();
    let mut buf = Vec::new();
    write_capture_with(&capture, &mut buf, &telemetry).unwrap();
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("persist.encode_bytes"), Some(buf.len() as u64));
    assert_eq!(snap.counter("persist.bodies_encoded"), Some(6));
    assert!(snap.counter(signals::PERSIST_ENCODE).unwrap_or(0) > 0);

    // Check with 1 thread and 4 threads: identical captures either way.
    for threads in [1usize, 4] {
        let telemetry = Telemetry::enabled();
        let opts = ReadOptions {
            threads,
            telemetry: telemetry.clone(),
        };
        let back = read_capture_with(buf.as_slice(), &opts).unwrap();
        assert_eq!(back.event_count(), capture.event_count());
        assert_eq!(back.stats, capture.stats);
        for (a, b) in back.profiles.iter().zip(capture.profiles.iter()) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.events, b.events);
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("persist.decode_bytes"), Some(buf.len() as u64));
        // Load checks the checksums but decodes no row: the analysis fold
        // is the one writer of `persist.bodies_decoded`.
        assert_eq!(snap.counter("persist.bodies_decoded"), None);
        assert!(snap.counter(signals::PERSIST_DECODE).unwrap_or(0) > 0);
    }
}

#[test]
fn file_round_trip_with_telemetry_options() {
    let session = Session::new();
    let mut h = session.register(site(1), DsKind::List, "i32");
    for i in 0..50u32 {
        h.record(AccessKind::Insert, Target::Index(i), i + 1);
    }
    drop(h);
    let capture = session.finish();

    let dir = std::env::temp_dir().join(format!("dsspy-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("capture.dsspy");
    let telemetry = Telemetry::enabled();
    save_capture_with(&capture, &path, &telemetry).unwrap();
    let back = load_capture_with(
        &path,
        &ReadOptions {
            threads: 2,
            telemetry: telemetry.clone(),
        },
    )
    .unwrap();
    assert_eq!(back.event_count(), capture.event_count());
    let snap = telemetry.snapshot();
    assert!(snap.counter("persist.encode_bytes").unwrap_or(0) > 0);
    assert_eq!(
        snap.counter("persist.decode_bytes"),
        snap.counter("persist.encode_bytes"),
        "the decoder reads exactly what the encoder wrote"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_telemetry_changes_nothing() {
    // The plain entry points still work and observe nothing.
    let session = Session::new();
    assert!(!session.telemetry().is_enabled());
    let mut h = session.register(site(1), DsKind::List, "i32");
    h.record(AccessKind::Insert, Target::Index(0), 1);
    drop(h);
    let capture = session.finish();
    let mut buf = Vec::new();
    write_capture(&capture, &mut buf).unwrap();
    assert!(session_snapshot_is_empty());

    fn session_snapshot_is_empty() -> bool {
        Telemetry::disabled().snapshot().is_empty()
    }
}
