//! Fan-out tap: one collector thread, many [`CollectorTap`] subscribers.
//!
//! A long-running profiling *service* puts several in-process consumers on
//! the collector's batch path: a streaming analyzer, ad-hoc observers, and
//! in tests a reference recorder, all watching the same session. The
//! [`TapFanout`] is the only thing the collector drives —
//! [`SessionBuilder::tap`](crate::SessionBuilder::tap) takes nothing else, so
//! a single subscriber is a fan-out of one — and it delivers every
//! `on_batch`/`on_stop` to each registered subscriber **in registration
//! order**, on the collector thread.
//!
//! Delivery guarantees, per subscriber:
//!
//! * every stored batch, in arrival order (dropped post-`Stop` batches are
//!   never delivered);
//! * `on_stop` exactly once, after the last batch;
//! * **panic isolation** — a subscriber that panics is poisoned (skipped
//!   for the rest of the session, counted in `stream.tap.panics`) and the
//!   collector thread, the other subscribers, and
//!   [`CollectorStats`] are unaffected.
//!
//! When built with an enabled [`Telemetry`], the fanout publishes
//! per-subscriber `stream.tap.<label>.*` instruments: `batches` / `events`
//! counters and a `dispatch_nanos` histogram (time that subscriber spends
//! in `on_batch`, which is collector busy time), plus the aggregate
//! `stream.tap.subscribers` gauge and `stream.tap.panics` counter. When that
//! handle has an armed flight recorder, every delivery and every panic
//! incident is recorded into it, on the same timeline as the collector's
//! batch receipts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dsspy_events::{AccessEvent, InstanceId, InstanceInfo};
use dsspy_telemetry::{
    Counter, FlightEventKind, Gauge, Histogram, IncidentTrigger, Telemetry, TraceContext,
};
use parking_lot::Mutex;

use crate::collector::{Capture, CollectorStats, CollectorTap};
use crate::store::Store;

/// Turn a per-subscriber metric name into the `&'static str` the telemetry
/// registry requires. Leaks one small string per (subscriber, instrument) —
/// subscribers are registered a handful of times per process, so the leak is
/// bounded; the disabled-telemetry path never calls this.
fn static_name(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// Keep labels metric-safe: alphanumerics pass through, everything else
/// folds to `_` (mirrors the Prometheus renderer's own folding).
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// One registered subscriber and its dispatch instruments.
struct Subscriber {
    label: String,
    tap: Box<dyn CollectorTap>,
    /// Set when the subscriber panicked; poisoned subscribers are skipped
    /// (their internal state can no longer be trusted).
    poisoned: bool,
    batches: Counter,
    events: Counter,
    dispatch_nanos: Histogram,
}

/// The collector's one tap: multiplexes the batch path to N
/// [`CollectorTap`] subscribers, each behind `catch_unwind`.
///
/// Build with [`TapFanout::new`] / [`TapFanout::with_telemetry`], register
/// subscribers with [`TapFanout::subscribe`] (or the chaining
/// [`TapFanout::with_subscriber`]), then hand the whole fanout to
/// [`SessionBuilder::tap`](crate::SessionBuilder::tap) as `Box::new(fanout)`.
pub struct TapFanout {
    telemetry: Telemetry,
    subs: Vec<Subscriber>,
    subscribers: Gauge,
    panics: Counter,
    /// `stream.tap.dispatch_nanos_max`: the slowest single delivery across
    /// all subscribers so far — the lag spike a scrape-to-scrape histogram
    /// delta cannot show.
    dispatch_max: Gauge,
}

impl TapFanout {
    /// An empty fanout without self-observation.
    pub fn new() -> TapFanout {
        TapFanout::with_telemetry(Telemetry::disabled())
    }

    /// An empty fanout that reports `stream.tap.*` instruments into
    /// `telemetry`.
    pub fn with_telemetry(telemetry: Telemetry) -> TapFanout {
        let subscribers = telemetry.gauge("stream.tap.subscribers");
        let panics = telemetry.counter("stream.tap.panics");
        let dispatch_max = telemetry.gauge("stream.tap.dispatch_nanos_max");
        TapFanout {
            telemetry,
            subs: Vec::new(),
            subscribers,
            panics,
            dispatch_max,
        }
    }

    /// Register `tap` under `label`. Delivery order across subscribers is
    /// registration order; `label` names the subscriber's
    /// `stream.tap.<label>.*` instruments.
    pub fn subscribe(&mut self, label: &str, tap: Box<dyn CollectorTap>) {
        let (batches, events, dispatch_nanos) = if self.telemetry.is_enabled() {
            let clean = sanitize_label(label);
            (
                self.telemetry
                    .counter(static_name(format!("stream.tap.{clean}.batches"))),
                self.telemetry
                    .counter(static_name(format!("stream.tap.{clean}.events"))),
                self.telemetry
                    .histogram(static_name(format!("stream.tap.{clean}.dispatch_nanos"))),
            )
        } else {
            (Counter::default(), Counter::default(), Histogram::default())
        };
        self.subs.push(Subscriber {
            label: label.to_string(),
            tap,
            poisoned: false,
            batches,
            events,
            dispatch_nanos,
        });
        self.subscribers.set(self.subs.len() as u64);
    }

    /// [`TapFanout::subscribe`], chaining.
    pub fn with_subscriber(mut self, label: &str, tap: Box<dyn CollectorTap>) -> TapFanout {
        self.subscribe(label, tap);
        self
    }

    /// Number of registered subscribers.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether no subscriber is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Labels of subscribers that panicked so far.
    pub fn poisoned_labels(&self) -> Vec<&str> {
        self.subs
            .iter()
            .filter(|s| s.poisoned)
            .map(|s| s.label.as_str())
            .collect()
    }

    /// Deliver one stored batch to every healthy subscriber — the collector
    /// thread's per-batch call (see [`CollectorTap::on_batch`]).
    pub(crate) fn on_batch(
        &mut self,
        ctx: TraceContext,
        id: InstanceId,
        events: &[AccessEvent],
        queue_depth: usize,
    ) {
        self.dispatch(ctx, Some(events.len() as u64), |tap| {
            tap.on_batch(ctx, id, events, queue_depth)
        });
    }

    /// Deliver the session stop to every healthy subscriber (see
    /// [`CollectorTap::on_stop`]).
    pub(crate) fn on_stop(
        &mut self,
        ctx: TraceContext,
        stats: &CollectorStats,
        session_nanos: u64,
    ) {
        self.dispatch(ctx, None, |tap| tap.on_stop(ctx, stats, session_nanos));
    }

    /// Deliver one callback to every healthy subscriber, isolating panics.
    /// `batch_events` is `Some(len)` for `on_batch` deliveries (counted into
    /// the subscriber's `batches`/`events` instruments) and `None` for
    /// `on_stop` (timed, not counted as a batch). Poisoned subscribers are
    /// skipped for **both** kinds — a subscriber that panicked mid-session
    /// must not receive `on_stop` against torn internal state.
    fn dispatch(
        &mut self,
        ctx: TraceContext,
        batch_events: Option<u64>,
        call: impl Fn(&mut dyn CollectorTap),
    ) {
        let flight = self.telemetry.flight();
        for sub in self.subs.iter_mut().filter(|s| !s.poisoned) {
            let started = self.telemetry.now_nanos();
            // The collector thread must survive any subscriber. A panicking
            // subscriber may have torn internal state, so it is poisoned and
            // skipped from here on; everyone else keeps receiving.
            let outcome = catch_unwind(AssertUnwindSafe(|| call(sub.tap.as_mut())));
            match outcome {
                Ok(()) => {
                    let dur_nanos = self.telemetry.now_nanos().saturating_sub(started);
                    if let Some(events) = batch_events {
                        sub.batches.inc();
                        sub.events.add(events);
                    }
                    sub.dispatch_nanos.record(dur_nanos);
                    self.dispatch_max.set_max(dur_nanos);
                    let kind = match batch_events {
                        Some(events) => FlightEventKind::TapDispatch { events, dur_nanos },
                        None => FlightEventKind::StopDelivered { dur_nanos },
                    };
                    flight.record_for(ctx, Some(&sub.label), kind);
                }
                Err(payload) => {
                    sub.poisoned = true;
                    self.panics.inc();
                    flight.incident(
                        ctx,
                        Some(&sub.label),
                        IncidentTrigger::SubscriberPanic {
                            payload: panic_payload(payload.as_ref()),
                        },
                    );
                }
            }
        }
    }
}

/// Extract a human-readable message from a panic payload (the `&str` /
/// `String` shapes `panic!` produces; anything else is opaque).
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Default for TapFanout {
    fn default() -> Self {
        TapFanout::new()
    }
}

impl std::fmt::Debug for TapFanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapFanout")
            .field(
                "subscribers",
                &self.subs.iter().map(|s| &s.label).collect::<Vec<_>>(),
            )
            .field("poisoned", &self.poisoned_labels())
            .finish()
    }
}

/// What a [`CaptureRecorder`] has seen so far.
#[derive(Default)]
struct RecorderState {
    /// Delivered events, encoded the way the collector stores them.
    store: Store,
    /// `(instance, batch length)` per delivered batch, in delivery order —
    /// the ordering evidence the fanout tests assert on.
    batch_log: Vec<(InstanceId, usize)>,
    finished: Option<(CollectorStats, u64)>,
}

/// A tap subscriber that mirrors the capture: it accumulates every
/// delivered batch and, once the session stops, can rebuild a [`Capture`]
/// equal to the one [`Session::finish`](crate::Session::finish) returns.
///
/// Clones share state: keep one handle on the driving thread and subscribe
/// [`CaptureRecorder::tap`] to a [`TapFanout`]. Because taps observe
/// exactly the stored batches, the rebuilt capture's profiles are
/// byte-identical to the session's own — the reference the fan-out
/// convergence tests compare against. No production surface installs it.
#[derive(Clone, Default)]
pub struct CaptureRecorder {
    shared: Arc<Mutex<RecorderState>>,
}

impl CaptureRecorder {
    /// A fresh recorder with no events.
    pub fn new() -> CaptureRecorder {
        CaptureRecorder::default()
    }

    /// The collector-thread subscription half.
    pub fn tap(&self) -> Box<dyn CollectorTap> {
        Box::new(RecorderTap {
            shared: Arc::clone(&self.shared),
        })
    }

    /// The collector stats and session duration delivered at `on_stop`.
    pub fn final_stats(&self) -> Option<(CollectorStats, u64)> {
        self.shared.lock().finished
    }

    /// `(instance, batch length)` per delivered batch, in delivery order.
    pub fn batch_log(&self) -> Vec<(InstanceId, usize)> {
        self.shared.lock().batch_log.clone()
    }

    /// Rebuild the capture from everything recorded, pairing the events
    /// with `instances`, which must be in registration order from the first
    /// (e.g. a registry snapshot, or the profiles of the session's own
    /// capture): the `i`-th gets the events of id `i`. `None` until the
    /// session stopped.
    pub fn capture(&self, instances: Vec<InstanceInfo>) -> Option<Capture> {
        let state = self.shared.lock();
        let (stats, session_nanos) = state.finished?;
        Some(Capture {
            profiles: state.store.clone().seal(instances),
            stats,
            session_nanos,
            collection_telemetry: None,
        })
    }
}

impl std::fmt::Debug for CaptureRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("CaptureRecorder")
            .field("instances", &state.store.instances_with_events())
            .field("batches", &state.batch_log.len())
            .field("stopped", &state.finished.is_some())
            .finish()
    }
}

struct RecorderTap {
    shared: Arc<Mutex<RecorderState>>,
}

impl CollectorTap for RecorderTap {
    fn on_batch(
        &mut self,
        _ctx: TraceContext,
        id: InstanceId,
        events: &[AccessEvent],
        _queue_depth: usize,
    ) {
        let mut state = self.shared.lock();
        state.store.store(id, events);
        state.batch_log.push((id, events.len()));
    }

    fn on_stop(&mut self, _ctx: TraceContext, stats: &CollectorStats, session_nanos: u64) {
        self.shared.lock().finished = Some((*stats, session_nanos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::{AccessKind, AllocationSite, DsKind};

    fn event(seq: u64) -> AccessEvent {
        AccessEvent::at(seq, AccessKind::Insert, seq as u32, seq as u32 + 1)
    }

    fn batch(seqs: std::ops::Range<u64>) -> Vec<AccessEvent> {
        seqs.map(event).collect()
    }

    /// A subscriber that panics when it sees its `panic_on`-th batch and
    /// counts `on_stop` deliveries (to pin poisoned-at-stop skipping).
    struct PanickyTap {
        seen: usize,
        panic_on: usize,
        stops: usize,
    }

    impl CollectorTap for PanickyTap {
        fn on_batch(
            &mut self,
            _ctx: TraceContext,
            _id: InstanceId,
            _events: &[AccessEvent],
            _depth: usize,
        ) {
            self.seen += 1;
            if self.seen == self.panic_on {
                panic!("subscriber blew up on batch {}", self.seen);
            }
        }
        fn on_stop(&mut self, _ctx: TraceContext, _stats: &CollectorStats, _nanos: u64) {
            self.stops += 1;
        }
    }

    #[test]
    fn every_subscriber_sees_every_batch_in_order() {
        let recorders: Vec<CaptureRecorder> = (0..3).map(|_| CaptureRecorder::new()).collect();
        let mut fanout = TapFanout::new();
        for (i, r) in recorders.iter().enumerate() {
            fanout.subscribe(&format!("sub{i}"), r.tap());
        }
        assert_eq!(fanout.len(), 3);
        fanout.on_batch(TraceContext::new(1, 1), InstanceId(0), &batch(0..4), 0);
        fanout.on_batch(TraceContext::new(1, 2), InstanceId(1), &batch(4..6), 1);
        fanout.on_batch(TraceContext::new(1, 3), InstanceId(0), &batch(6..7), 0);
        let stats = CollectorStats {
            events: 7,
            batches: 3,
            dropped: 0,
        };
        fanout.on_stop(TraceContext::new(1, 3), &stats, 999);
        let expected = vec![(InstanceId(0), 4), (InstanceId(1), 2), (InstanceId(0), 1)];
        for r in &recorders {
            assert_eq!(r.batch_log(), expected, "delivery order per subscriber");
            assert_eq!(r.final_stats(), Some((stats, 999)));
        }
    }

    #[test]
    fn panicking_subscriber_is_isolated_and_poisoned() {
        let healthy = CaptureRecorder::new();
        let late = CaptureRecorder::new();
        let telemetry = Telemetry::enabled();
        let mut fanout = TapFanout::with_telemetry(telemetry.clone())
            .with_subscriber("healthy", healthy.tap())
            .with_subscriber(
                "bomb",
                Box::new(PanickyTap {
                    seen: 0,
                    panic_on: 3,
                    stops: 0,
                }),
            )
            .with_subscriber("late", late.tap());
        // Silence the default panic hook for the expected panic; restore a
        // default hook afterwards.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for i in 0..5u64 {
            fanout.on_batch(
                TraceContext::new(1, i + 1),
                InstanceId(i),
                &batch(i..i + 1),
                0,
            );
        }
        std::panic::set_hook(hook);
        let stats = CollectorStats {
            events: 5,
            batches: 5,
            dropped: 0,
        };
        fanout.on_stop(TraceContext::new(1, 5), &stats, 5);
        assert_eq!(fanout.poisoned_labels(), vec!["bomb"]);
        // Subscribers before and after the bomb both saw all five batches
        // and the stop, in order.
        for r in [&healthy, &late] {
            assert_eq!(r.batch_log().len(), 5);
            assert_eq!(r.final_stats(), Some((stats, 5)));
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("stream.tap.panics"), Some(1));
        assert_eq!(snap.counter("stream.tap.healthy.batches"), Some(5));
        assert_eq!(snap.counter("stream.tap.healthy.events"), Some(5));
        // The bomb delivered twice before panicking; the panicking call is
        // not counted as a delivery.
        assert_eq!(snap.counter("stream.tap.bomb.batches"), Some(2));
        assert_eq!(snap.gauge("stream.tap.subscribers"), Some(3));
    }

    #[test]
    fn dispatch_telemetry_tracks_per_subscriber_volume() {
        let telemetry = Telemetry::enabled();
        let r = CaptureRecorder::new();
        let mut fanout =
            TapFanout::with_telemetry(telemetry.clone()).with_subscriber("only one!", r.tap());
        fanout.on_batch(TraceContext::new(1, 1), InstanceId(0), &batch(0..10), 0);
        fanout.on_batch(TraceContext::new(1, 2), InstanceId(0), &batch(10..15), 0);
        let snap = telemetry.snapshot();
        // Label sanitized for the metric namespace.
        assert_eq!(snap.counter("stream.tap.only_one_.batches"), Some(2));
        assert_eq!(snap.counter("stream.tap.only_one_.events"), Some(15));
        let h = snap
            .histogram("stream.tap.only_one_.dispatch_nanos")
            .unwrap();
        assert_eq!(h.count, 2);
    }

    #[test]
    fn recorder_rebuilds_the_capture() {
        let recorder = CaptureRecorder::new();
        let mut tap = TapFanout::new().with_subscriber("recorder", recorder.tap());
        tap.on_batch(TraceContext::new(1, 1), InstanceId(0), &batch(0..3), 0);
        tap.on_batch(TraceContext::new(1, 2), InstanceId(1), &batch(3..5), 0);
        assert!(recorder.capture(Vec::new()).is_none(), "not stopped yet");
        let stats = CollectorStats {
            events: 5,
            batches: 2,
            dropped: 0,
        };
        tap.on_stop(TraceContext::new(1, 2), &stats, 77);
        let infos: Vec<InstanceInfo> = (0..2)
            .map(|i| {
                InstanceInfo::new(
                    InstanceId(i),
                    AllocationSite::new("Fanout", "rec", i as u32),
                    DsKind::List,
                    "i64",
                )
            })
            .collect();
        let capture = recorder.capture(infos.clone()).expect("stopped");
        assert_eq!(capture.instance_count(), 2);
        assert_eq!(capture.event_count(), 5);
        assert_eq!(capture.stats, stats);
        assert_eq!(capture.session_nanos, 77);
        // Calling again yields the same capture (state is preserved).
        let again = recorder.capture(infos).expect("still stopped");
        assert_eq!(again.profiles, capture.profiles);
    }

    #[test]
    fn empty_fanout_is_a_noop_tap() {
        let mut fanout = TapFanout::default();
        assert!(fanout.is_empty());
        fanout.on_batch(TraceContext::new(1, 1), InstanceId(0), &batch(0..1), 0);
        fanout.on_stop(TraceContext::new(1, 1), &CollectorStats::default(), 0);
    }

    #[test]
    fn poisoned_subscriber_does_not_receive_on_stop() {
        // Regression guard: a subscriber whose on_batch panicked has torn
        // internal state — delivering on_stop to it would run arbitrary
        // subscriber code against that state. It must be skipped at stop.
        let probe = Arc::new(Mutex::new(0usize));
        struct StopProbe {
            bombed: bool,
            stops: Arc<Mutex<usize>>,
        }
        impl CollectorTap for StopProbe {
            fn on_batch(
                &mut self,
                _ctx: TraceContext,
                _id: InstanceId,
                _events: &[AccessEvent],
                _depth: usize,
            ) {
                if self.bombed {
                    panic!("boom");
                }
            }
            fn on_stop(&mut self, _ctx: TraceContext, _stats: &CollectorStats, _nanos: u64) {
                *self.stops.lock() += 1;
            }
        }
        let mut fanout = TapFanout::new()
            .with_subscriber(
                "bomb",
                Box::new(StopProbe {
                    bombed: true,
                    stops: Arc::clone(&probe),
                }),
            )
            .with_subscriber(
                "healthy",
                Box::new(StopProbe {
                    bombed: false,
                    stops: Arc::clone(&probe),
                }),
            );
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        fanout.on_batch(TraceContext::new(1, 1), InstanceId(0), &batch(0..1), 0);
        std::panic::set_hook(hook);
        assert_eq!(fanout.poisoned_labels(), vec!["bomb"]);
        fanout.on_stop(TraceContext::new(1, 1), &CollectorStats::default(), 0);
        assert_eq!(
            *probe.lock(),
            1,
            "only the healthy subscriber receives on_stop"
        );
    }

    #[test]
    fn fanout_records_flight_dispatches_and_panic_incidents() {
        let telemetry = Telemetry::enabled().with_flight(None);
        let r = CaptureRecorder::new();
        let mut fanout = TapFanout::with_telemetry(telemetry.clone())
            .with_subscriber("analyzer", r.tap())
            .with_subscriber(
                "bomb",
                Box::new(PanickyTap {
                    seen: 0,
                    panic_on: 1,
                    stops: 0,
                }),
            );
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let ctx = TraceContext::new(9, 1);
        fanout.on_batch(ctx, InstanceId(0), &batch(0..6), 0);
        std::panic::set_hook(hook);
        fanout.on_stop(TraceContext::new(9, 1), &CollectorStats::default(), 1);

        let dump = telemetry.flight().dump();
        // analyzer: TapDispatch + StopDelivered; bomb: the panic event.
        let chain = dump.chain(ctx);
        assert!(chain
            .iter()
            .any(|e| e.subscriber.as_deref() == Some("analyzer") && e.kind.tag() == "dispatch"));
        assert!(chain
            .iter()
            .any(|e| e.subscriber.as_deref() == Some("bomb") && e.kind.tag() == "panic"));
        assert_eq!(dump.incidents.len(), 1);
        assert_eq!(dump.incidents[0].subscriber.as_deref(), Some("bomb"));
        assert!(
            matches!(&dump.incidents[0].trigger, dsspy_telemetry::IncidentTrigger::SubscriberPanic { payload } if payload.contains("blew up")),
            "panic payload is captured: {:?}",
            dump.incidents[0].trigger
        );
        // The aggregate lag-spike gauge moved.
        let snap = telemetry.snapshot();
        assert!(snap.gauge("stream.tap.dispatch_nanos_max").is_some());
    }
}
