//! # dsspy-telemetry — the profiler watching itself
//!
//! The paper's evaluation (§V, Table IV) reports the profiler's own cost:
//! slowdown during data collection and the event volume that caused it. This
//! crate is the substrate that makes those numbers observable *from inside*
//! a running reproduction instead of only via external paired runs:
//!
//! * [`metrics`] — lock-light atomic counters, gauges, and fixed-bucket
//!   histograms (queue depth, batch sizes, decode bandwidth, …);
//! * [`span`] — hierarchical wall-time spans with per-thread attribution
//!   (worker utilization and load imbalance of the analysis fan-out);
//! * [`snapshot`] — the serializable freeze of everything observed, with
//!   order-independent shard merging;
//! * [`overhead`] — the Table IV-style slowdown accountant;
//! * [`export`] — human summary, JSON, Prometheus text format, and Chrome
//!   `trace_event` JSON;
//! * [`flight`] — the always-on causal flight recorder, armed on a handle
//!   with [`Telemetry::with_flight`] and read back with
//!   [`Telemetry::flight`].
//!
//! One handle observes a whole pipeline: metrics, spans and flight events
//! share its registry and its clock, so they land on one timeline.
//!
//! The cardinal rule is **zero cost when disabled**: [`Telemetry::disabled`]
//! is a `None` behind a cheap clone, every handle resolved from it is a
//! no-op whose hot-path operation is one branch on a pointer-sized option,
//! and the instrumented code paths (collector thread, persistence, analysis
//! workers) never allocate or lock on behalf of telemetry unless it is
//! enabled. Tests inject a [`ManualClock`] so span durations and histogram
//! samples are deterministic.

#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod overhead;
pub mod snapshot;
pub mod span;
pub mod trace;

use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

pub use clock::{ClockSource, ManualClock};
pub use flight::{
    FlightDump, FlightEvent, FlightEventKind, FlightRecorder, Incident, IncidentTrigger,
    FLIGHT_CAPACITY, FLIGHT_SCHEMA,
};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, HISTOGRAM_BUCKETS,
};
pub use overhead::OverheadReport;
pub use snapshot::TelemetrySnapshot;
pub use span::{SpanGuard, SpanRecord};
pub use trace::{next_session_id, TraceContext};

use metrics::MetricRegistry;

/// Shared state behind an enabled telemetry handle.
#[derive(Debug)]
pub(crate) struct TelemetryInner {
    pub(crate) clock: ClockSource,
    registry: MetricRegistry,
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    /// The armed flight recorder's ring; `None` unless
    /// [`Telemetry::with_flight`] armed one.
    pub(crate) flight: Option<flight::FlightInner>,
}

/// Handle to one telemetry domain. Clones share the same registry; the
/// default/disabled handle makes every operation a no-op.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// An enabled instance on the monotonic clock.
    pub fn enabled() -> Telemetry {
        Telemetry::with_clock(ClockSource::default())
    }

    /// An enabled instance reading time from `clock` (inject a
    /// [`ManualClock`] for deterministic tests).
    pub fn with_clock(clock: ClockSource) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                clock,
                registry: MetricRegistry::default(),
                spans: Mutex::new(Vec::new()),
                flight: None,
            })),
        }
    }

    /// Arm a flight recorder inside this handle, chaining. The recorder
    /// stamps its events from this handle's clock and publishes its
    /// `flight.*` instruments into this handle's registry; read it back
    /// with [`Telemetry::flight`]. The ring keeps the last
    /// [`FLIGHT_CAPACITY`] events. With a `dump_path`, every incident
    /// rewrites that file with the current [`FlightDump`]; `None` keeps
    /// the recorder in memory only. On a disabled handle this is a no-op.
    ///
    /// # Panics
    ///
    /// When the handle was already cloned: arm the recorder where the
    /// handle is built, before it is shared.
    pub fn with_flight(mut self, dump_path: Option<PathBuf>) -> Telemetry {
        if let Some(inner) = self.inner.as_mut() {
            let inner = Arc::get_mut(inner)
                .expect("Telemetry::with_flight must be called before the handle is cloned");
            inner.flight = Some(flight::FlightInner::new(dump_path, &inner.registry));
        }
        self
    }

    /// The flight recorder armed by [`Telemetry::with_flight`], or the
    /// disabled recorder (every operation one branch) when none was armed
    /// or the handle itself is disabled.
    pub fn flight(&self) -> FlightRecorder {
        FlightRecorder {
            inner: self.inner.as_ref().filter(|i| i.flight.is_some()).cloned(),
        }
    }

    /// The no-op instance for hot paths that are not being observed.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds on the telemetry clock (`0` when disabled).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.nanos())
    }

    /// Resolve a counter handle. Do this once per call site, outside hot
    /// loops; the handle itself is lock-free.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.inner.as_ref().map(|i| i.registry.counter(name)))
    }

    /// Resolve a gauge handle.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| i.registry.gauge(name)))
    }

    /// Resolve a histogram handle.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| i.registry.histogram(name)))
    }

    /// Open a span; it records itself when the guard drops.
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard::open(Arc::clone(inner), cat, name.into()),
            None => SpanGuard::disabled(),
        }
    }

    /// Open a span whose name is built only when telemetry is enabled —
    /// use this on hot paths where the name is formatted (`format!("mine#{i}")`)
    /// so the disabled path never allocates.
    pub fn span_lazy(&self, cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard::open(Arc::clone(inner), cat, name()),
            None => SpanGuard::disabled(),
        }
    }

    /// Record an already-finished span directly, at depth 0 on the calling
    /// thread. For callers that timed a phase themselves (e.g. around a
    /// parallel fan-out whose workers open their own spans) and do not want
    /// guard nesting to push the workers' spans off the top level.
    pub fn record_span(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        start_nanos: u64,
        dur_nanos: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner.spans.lock().push(SpanRecord {
                cat: cat.to_string(),
                name: name.into(),
                thread: span::thread_ord(),
                start_nanos,
                dur_nanos,
                depth: 0,
            });
        }
    }

    /// Freeze everything observed so far into a serializable snapshot.
    /// Metrics keep accumulating afterwards; spans recorded later appear in
    /// later snapshots.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(inner) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let mut snap = TelemetrySnapshot {
            counters: inner.registry.counter_snapshots(),
            gauges: inner.registry.gauge_snapshots(),
            histograms: inner.registry.histogram_snapshots(),
            spans: inner.spans.lock().clone(),
            overhead: None,
        };
        snap.normalize();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_default_and_free() {
        let t = Telemetry::default();
        assert!(!t.is_enabled());
        assert_eq!(t.now_nanos(), 0);
        t.counter("c").inc();
        t.gauge("g").set(1);
        t.histogram("h").record(1);
        drop(t.span("cat", "s"));
        assert!(t.snapshot().is_empty());
        let armed = Telemetry::disabled().with_flight(None);
        assert!(!armed.is_enabled() && !armed.flight().is_enabled());
        assert!(!Telemetry::enabled().flight().is_enabled(), "not armed");
    }

    #[test]
    fn flight_events_and_spans_share_one_clock() {
        let (hand, source) = ManualClock::new();
        let t = Telemetry::with_clock(source).with_flight(None);
        hand.advance(4321);
        {
            let _s = t.span("cat", "step");
            t.flight()
                .record(TraceContext::new(1, 1), FlightEventKind::SessionStart);
            hand.advance(10);
        }
        let event = &t.flight().dump().events[0];
        assert_eq!(event.nanos, 4321);
        assert_eq!(t.snapshot().spans[0].start_nanos, event.nanos);
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.counter("shared").add(2);
        u.counter("shared").add(3);
        assert_eq!(t.snapshot().counter("shared"), Some(5));
        assert_eq!(u.snapshot().counter("shared"), Some(5));
    }

    #[test]
    fn manual_clock_makes_spans_deterministic() {
        let (hand, source) = ManualClock::new();
        let t = Telemetry::with_clock(source);
        {
            let _s = t.span("cat", "step");
            hand.advance(1234);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans[0].dur_nanos, 1234);
        assert_eq!(snap.spans[0].start_nanos, 0);
    }

    #[test]
    fn snapshot_is_a_freeze_not_a_drain() {
        let t = Telemetry::enabled();
        t.counter("c").inc();
        let first = t.snapshot();
        t.counter("c").inc();
        let second = t.snapshot();
        assert_eq!(first.counter("c"), Some(1));
        assert_eq!(second.counter("c"), Some(2));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let t = Telemetry::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    let c = t.counter("mt");
                    let h = t.histogram("mt.hist");
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.counter("mt"), Some(4000));
        let h = snap.histogram("mt.hist").unwrap();
        assert_eq!(h.count, 4000);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4000);
    }
}
