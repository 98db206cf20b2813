//! The flight recorder: a bounded, always-on ring buffer of structured
//! pipeline events for post-hoc incident forensics.
//!
//! Aggregate counters tell you *that* something went wrong (a drop spike, a
//! poisoned subscriber); they cannot tell you *which batch* of *which
//! session* hit *which subscriber* on the way down. The flight recorder
//! keeps the last [`FLIGHT_CAPACITY`] structured events — batch
//! receipts, per-subscriber tap dispatches, snapshot publications, drops,
//! panics, queue-watermark breaches — each stamped with a
//! [`TraceContext`], so the causal chain of any recent batch is
//! reconstructable after the fact (DINAMITE-style bounded always-on
//! tracing; TASKPROF-style causal reconstruction).
//!
//! The recorder is not a handle of its own:
//! [`Telemetry::with_flight`](crate::Telemetry::with_flight) arms it inside
//! a telemetry handle, and [`Telemetry::flight`](crate::Telemetry::flight)
//! reads it back
//! wherever that handle reaches (session, collector, fan-out, streaming
//! analyzer). Its events are stamped from the telemetry clock, so flight
//! events, spans and histogram samples share one timeline.
//!
//! The cardinal rule matches [`Telemetry`](crate::Telemetry): **zero cost when disabled**. The
//! recorder of an unarmed handle is a `None` behind a cheap clone and every
//! `record` is one branch on a pointer-sized option; the
//! collector hot path never allocates or locks on behalf of the recorder
//! unless it is enabled. When enabled, a `record` is one short
//! `parking_lot` critical section (push + bounded evict) — events arrive
//! per *batch*, not per access event, so the lock is far off the
//! per-element hot path.
//!
//! **Incidents** are the trigger layer: a subscriber panic, a drop-counter
//! increase, or a queue-depth watermark breach records an [`Incident`]
//! (kept outside the ring, never overwritten) and — when the recorder was
//! armed with a dump path — auto-dumps the whole recorder state
//! to disk as a [`FlightDump`] (schema [`FLIGHT_SCHEMA`]), the file
//! `dsspy doctor` reads.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::ClockSource;
use crate::metrics::{Counter, Gauge, MetricRegistry};
use crate::trace::TraceContext;
use crate::TelemetryInner;

/// Schema identifier written into every [`FlightDump`].
pub const FLIGHT_SCHEMA: &str = "dsspy-flight/1";

/// Ring capacity in events; the oldest event is overwritten past this.
pub const FLIGHT_CAPACITY: usize = 4096;

/// What happened, structurally. One variant per pipeline edge the recorder
/// watches.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightEventKind {
    /// A session's collector thread started.
    SessionStart,
    /// The collector received and stored one batch.
    BatchReceived {
        /// Instance the batch belongs to.
        instance: u64,
        /// Events in the batch.
        events: u64,
        /// Channel depth observed behind the batch.
        queue_depth: u64,
    },
    /// One subscriber finished an `on_batch` delivery.
    TapDispatch {
        /// Events delivered.
        events: u64,
        /// Time the subscriber spent in `on_batch`.
        dur_nanos: u64,
    },
    /// One subscriber finished its `on_stop` delivery.
    StopDelivered {
        /// Time the subscriber spent in `on_stop`.
        dur_nanos: u64,
    },
    /// The streaming analyzer published a report snapshot.
    SnapshotPublished {
        /// 1-based snapshot ordinal.
        snapshot: u64,
    },
    /// Events were dropped (recorded after shutdown, or the collector was
    /// gone).
    Dropped {
        /// How many events this drop observation covers.
        events: u64,
    },
    /// A subscriber panicked during a delivery and was poisoned.
    SubscriberPanic {
        /// The panic payload, if it was a string.
        payload: String,
    },
    /// The collector queue crossed its high watermark.
    WatermarkBreach {
        /// Observed depth.
        queue_depth: u64,
        /// The watermark that was crossed.
        watermark: u64,
    },
    /// The session drained and stopped.
    SessionStop {
        /// Total events stored.
        events: u64,
        /// Total batches stored.
        batches: u64,
        /// Total events dropped.
        dropped: u64,
    },
}

impl FlightEventKind {
    /// Short lowercase tag for timelines and summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            FlightEventKind::SessionStart => "start",
            FlightEventKind::BatchReceived { .. } => "batch",
            FlightEventKind::TapDispatch { .. } => "dispatch",
            FlightEventKind::StopDelivered { .. } => "stop",
            FlightEventKind::SnapshotPublished { .. } => "snapshot",
            FlightEventKind::Dropped { .. } => "drop",
            FlightEventKind::SubscriberPanic { .. } => "panic",
            FlightEventKind::WatermarkBreach { .. } => "watermark",
            FlightEventKind::SessionStop { .. } => "session-stop",
        }
    }
}

/// One recorded pipeline event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Recorder-global sequence number (monotonic, never reused — gaps
    /// reveal ring overwrites).
    pub seq: u64,
    /// Nanoseconds on the telemetry clock.
    pub nanos: u64,
    /// The batch this event belongs to causally.
    pub ctx: TraceContext,
    /// Subscriber label for fan-out-edge events; `None` on collector-level
    /// events.
    #[serde(default)]
    pub subscriber: Option<String>,
    /// What happened.
    pub kind: FlightEventKind,
}

/// Why an incident fired.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncidentTrigger {
    /// A fan-out subscriber panicked and was poisoned.
    SubscriberPanic {
        /// The panic payload, if it was a string.
        payload: String,
    },
    /// The drop counter increased (events recorded after shutdown, or a
    /// straggler batch drained post-stop).
    DropSpike {
        /// Events covered by the observation that tripped the trigger.
        dropped: u64,
    },
    /// The collector queue crossed its high watermark.
    QueueWatermark {
        /// Observed depth.
        queue_depth: u64,
        /// The watermark that was crossed.
        watermark: u64,
    },
}

impl IncidentTrigger {
    /// Short lowercase tag for summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            IncidentTrigger::SubscriberPanic { .. } => "subscriber-panic",
            IncidentTrigger::DropSpike { .. } => "drop-spike",
            IncidentTrigger::QueueWatermark { .. } => "queue-watermark",
        }
    }

    fn as_event_kind(&self) -> FlightEventKind {
        match self {
            IncidentTrigger::SubscriberPanic { payload } => FlightEventKind::SubscriberPanic {
                payload: payload.clone(),
            },
            IncidentTrigger::DropSpike { dropped } => FlightEventKind::Dropped { events: *dropped },
            IncidentTrigger::QueueWatermark {
                queue_depth,
                watermark,
            } => FlightEventKind::WatermarkBreach {
                queue_depth: *queue_depth,
                watermark: *watermark,
            },
        }
    }
}

/// One triggered incident. Incidents live outside the ring: they are never
/// overwritten, so even a long post-incident tail cannot push the evidence
/// out of the dump.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Incident {
    /// The [`FlightEvent::seq`] of the event recorded alongside this
    /// incident (anchor into the ring, when it is still there).
    pub seq: u64,
    /// Nanoseconds on the telemetry clock.
    pub nanos: u64,
    /// The batch the incident belongs to causally.
    pub ctx: TraceContext,
    /// Subscriber label, when a specific subscriber was involved.
    #[serde(default)]
    pub subscriber: Option<String>,
    /// Why it fired.
    pub trigger: IncidentTrigger,
}

/// The serializable freeze of a flight recorder — what lands on disk at an
/// incident and what `dsspy doctor` reads back.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Always [`FLIGHT_SCHEMA`].
    pub schema: String,
    /// Ring capacity the recorder ran with.
    pub capacity: usize,
    /// Events overwritten (evicted from the ring) before this dump.
    pub overwritten: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Every triggered incident, oldest first (never overwritten).
    pub incidents: Vec<Incident>,
}

impl FlightDump {
    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// Parse a dump, rejecting unknown schemas.
    pub fn from_json(text: &str) -> Result<FlightDump, String> {
        let dump: FlightDump =
            serde_json::from_str(text).map_err(|e| format!("not a flight dump: {e}"))?;
        if dump.schema != FLIGHT_SCHEMA {
            return Err(format!(
                "unsupported flight dump schema {:?} (this build reads {FLIGHT_SCHEMA:?})",
                dump.schema
            ));
        }
        Ok(dump)
    }

    /// Distinct live session ids observed, ascending (replay session 0
    /// excluded).
    pub fn sessions(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .events
            .iter()
            .map(|e| e.ctx.session)
            .filter(|&s| s != 0)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Distinct subscriber labels observed, in first-seen order.
    pub fn subscribers(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.events {
            if let Some(label) = e.subscriber.as_deref() {
                if !out.contains(&label) {
                    out.push(label);
                }
            }
        }
        out
    }

    /// Every retained event of one batch, in recording order — the causal
    /// chain `dsspy doctor` renders.
    pub fn chain(&self, ctx: TraceContext) -> Vec<&FlightEvent> {
        self.events.iter().filter(|e| e.ctx == ctx).collect()
    }
}

struct FlightState {
    next_seq: u64,
    overwritten: u64,
    ring: VecDeque<FlightEvent>,
    incidents: Vec<Incident>,
}

/// The ring and incident log an armed [`Telemetry`](crate::Telemetry)
/// carries. It has no clock of its own: events are stamped from the
/// telemetry clock, so they share one timeline with the handle's spans and
/// histograms.
pub(crate) struct FlightInner {
    /// Auto-dump destination: every incident rewrites this file with the
    /// current [`FlightDump`]; `None` keeps the recorder in memory only.
    dump_path: Option<PathBuf>,
    state: Mutex<FlightState>,
    events: Counter,
    incidents: Counter,
    overwritten: Counter,
    ring_len: Gauge,
}

impl FlightInner {
    /// A fresh ring publishing `flight.events` / `flight.incidents` /
    /// `flight.overwritten` counters and `flight.ring_len` /
    /// `flight.capacity` gauges into `registry`.
    pub(crate) fn new(dump_path: Option<PathBuf>, registry: &MetricRegistry) -> FlightInner {
        Gauge(Some(registry.gauge("flight.capacity"))).set(FLIGHT_CAPACITY as u64);
        FlightInner {
            dump_path,
            state: Mutex::new(FlightState {
                next_seq: 0,
                overwritten: 0,
                ring: VecDeque::with_capacity(1024),
                incidents: Vec::new(),
            }),
            events: Counter(Some(registry.counter("flight.events"))),
            incidents: Counter(Some(registry.counter("flight.incidents"))),
            overwritten: Counter(Some(registry.counter("flight.overwritten"))),
            ring_len: Gauge(Some(registry.gauge("flight.ring_len"))),
        }
    }
}

impl std::fmt::Debug for FlightInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("FlightRecorder")
            .field("capacity", &FLIGHT_CAPACITY)
            .field("events", &state.ring.len())
            .field("overwritten", &state.overwritten)
            .field("incidents", &state.incidents.len())
            .finish()
    }
}

/// Handle to the flight recorder armed inside a
/// [`Telemetry`](crate::Telemetry); obtain it with
/// [`Telemetry::flight`](crate::Telemetry::flight). Clones share the ring;
/// the recorder of an unarmed handle makes every operation a no-op branch.
#[derive(Clone)]
pub struct FlightRecorder {
    /// `Some` only when the telemetry handle's flight ring is armed.
    pub(crate) inner: Option<Arc<TelemetryInner>>,
}

impl FlightRecorder {
    /// The telemetry clock and the armed ring, or `None` when disabled.
    #[inline]
    fn armed(&self) -> Option<(&ClockSource, &FlightInner)> {
        let telemetry = self.inner.as_deref()?;
        Some((&telemetry.clock, telemetry.flight.as_ref()?))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one collector-level event (no subscriber attribution).
    #[inline]
    pub fn record(&self, ctx: TraceContext, kind: FlightEventKind) {
        self.record_for(ctx, None, kind);
    }

    /// Record one event attributed to a fan-out subscriber.
    pub fn record_for(&self, ctx: TraceContext, subscriber: Option<&str>, kind: FlightEventKind) {
        let Some((clock, inner)) = self.armed() else {
            return;
        };
        let nanos = clock.nanos();
        let mut state = inner.state.lock();
        push_event(inner, &mut state, nanos, ctx, subscriber, kind);
    }

    /// Record an incident: the trigger joins the incident log (outside the
    /// ring), a matching event joins the ring, and — when the recorder has a
    /// dump path — the whole recorder state is re-dumped there.
    pub fn incident(&self, ctx: TraceContext, subscriber: Option<&str>, trigger: IncidentTrigger) {
        let Some((clock, inner)) = self.armed() else {
            return;
        };
        let nanos = clock.nanos();
        let dump = {
            let mut state = inner.state.lock();
            let seq = push_event(
                inner,
                &mut state,
                nanos,
                ctx,
                subscriber,
                trigger.as_event_kind(),
            );
            state.incidents.push(Incident {
                seq,
                nanos,
                ctx,
                subscriber: subscriber.map(str::to_string),
                trigger,
            });
            inner.incidents.inc();
            inner
                .dump_path
                .as_ref()
                .map(|path| (path.clone(), dump_locked(&state)))
        };
        // I/O happens outside the lock; an unwritable dump path must not
        // take the pipeline down, so the failure is reported, not raised.
        if let Some((path, dump)) = dump {
            if let Err(e) = std::fs::write(&path, dump.to_json()) {
                eprintln!(
                    "dsspy: flight-recorder dump to {} failed: {e}",
                    path.display()
                );
            }
        }
    }

    /// Freeze the recorder into a serializable dump.
    pub fn dump(&self) -> FlightDump {
        match self.armed() {
            Some((_, inner)) => dump_locked(&inner.state.lock()),
            None => FlightDump {
                schema: FLIGHT_SCHEMA.to_string(),
                capacity: 0,
                overwritten: 0,
                events: Vec::new(),
                incidents: Vec::new(),
            },
        }
    }

    /// Write the current dump to the recorder's dump path, if it has one.
    /// Returns whether a file was
    /// written. This is the end-of-session flush: incident auto-dumps keep
    /// the file fresh mid-flight, this call captures the final tail.
    pub fn flush_dump(&self) -> std::io::Result<bool> {
        let Some(path) = self.armed().and_then(|(_, f)| f.dump_path.clone()) else {
            return Ok(false);
        };
        std::fs::write(path, self.dump().to_json())?;
        Ok(true)
    }
}

/// Push one event under the state lock, evicting past capacity. Returns the
/// assigned sequence number.
fn push_event(
    inner: &FlightInner,
    state: &mut FlightState,
    nanos: u64,
    ctx: TraceContext,
    subscriber: Option<&str>,
    kind: FlightEventKind,
) -> u64 {
    let seq = state.next_seq;
    state.next_seq += 1;
    state.ring.push_back(FlightEvent {
        seq,
        nanos,
        ctx,
        subscriber: subscriber.map(str::to_string),
        kind,
    });
    while state.ring.len() > FLIGHT_CAPACITY {
        state.ring.pop_front();
        state.overwritten += 1;
        inner.overwritten.inc();
    }
    inner.events.inc();
    inner.ring_len.set(state.ring.len() as u64);
    seq
}

fn dump_locked(state: &FlightState) -> FlightDump {
    FlightDump {
        schema: FLIGHT_SCHEMA.to_string(),
        capacity: FLIGHT_CAPACITY,
        overwritten: state.overwritten,
        events: state.ring.iter().cloned().collect(),
        incidents: state.incidents.clone(),
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.armed() {
            None => f.write_str("FlightRecorder(disabled)"),
            Some((_, inner)) => inner.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn recorder() -> FlightRecorder {
        Telemetry::enabled().with_flight(None).flight()
    }

    fn batch_event(i: u64) -> FlightEventKind {
        FlightEventKind::BatchReceived {
            instance: 0,
            events: i,
            queue_depth: 0,
        }
    }

    #[test]
    fn disabled_recorder_is_free_and_empty() {
        let f = Telemetry::enabled().flight();
        assert!(!f.is_enabled());
        f.record(TraceContext::replay(1), batch_event(1));
        f.incident(
            TraceContext::replay(1),
            None,
            IncidentTrigger::DropSpike { dropped: 1 },
        );
        let dump = f.dump();
        assert!(dump.events.is_empty() && dump.incidents.is_empty());
        assert_eq!(dump.schema, FLIGHT_SCHEMA);
    }

    #[test]
    fn ring_stays_bounded_and_counts_overwrites() {
        let f = recorder();
        let total = FLIGHT_CAPACITY as u64 + 92;
        for i in 0..total {
            f.record(TraceContext::new(1, i + 1), batch_event(i));
        }
        let dump = f.dump();
        assert_eq!(dump.capacity, FLIGHT_CAPACITY);
        assert_eq!(dump.events.len(), FLIGHT_CAPACITY);
        assert_eq!(dump.overwritten, 92);
        // The retained tail is the newest FLIGHT_CAPACITY events, in order,
        // with their original (never reused) sequence numbers.
        let seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (92..total).collect::<Vec<_>>());
    }

    #[test]
    fn incidents_survive_ring_overwrite() {
        let f = recorder();
        f.incident(
            TraceContext::new(1, 1),
            Some("bomb"),
            IncidentTrigger::SubscriberPanic {
                payload: "boom".into(),
            },
        );
        for i in 0..FLIGHT_CAPACITY as u64 + 50 {
            f.record(TraceContext::new(1, i + 2), batch_event(i));
        }
        let dump = f.dump();
        assert_eq!(dump.events.len(), FLIGHT_CAPACITY, "ring bounded");
        assert!(dump.events.iter().all(|e| e.kind.tag() == "batch"));
        assert_eq!(dump.incidents.len(), 1, "incident log is not a ring");
        let inc = &dump.incidents[0];
        assert_eq!(inc.subscriber.as_deref(), Some("bomb"));
        assert_eq!(inc.ctx, TraceContext::new(1, 1));
        assert_eq!(inc.trigger.tag(), "subscriber-panic");
    }

    #[test]
    fn incident_auto_dumps_to_the_configured_path() {
        let path =
            std::env::temp_dir().join(format!("dsspy-flight-autodump-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let f = Telemetry::enabled()
            .with_flight(Some(path.clone()))
            .flight();
        f.record(TraceContext::new(3, 1), batch_event(5));
        assert!(!path.exists(), "plain events do not dump");
        f.incident(
            TraceContext::new(3, 1),
            None,
            IncidentTrigger::QueueWatermark {
                queue_depth: 9000,
                watermark: 4096,
            },
        );
        let dump = FlightDump::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.incidents.len(), 1);
        assert_eq!(dump.sessions(), vec![3]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dump_round_trips_and_rejects_bad_schema() {
        let f = recorder();
        f.record_for(
            TraceContext::new(2, 1),
            Some("analyzer"),
            FlightEventKind::TapDispatch {
                events: 10,
                dur_nanos: 123,
            },
        );
        let dump = f.dump();
        let back = FlightDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(back, dump);
        assert_eq!(back.subscribers(), vec!["analyzer"]);

        let mut wrong = dump;
        wrong.schema = "dsspy-flight/999".into();
        let err = FlightDump::from_json(&wrong.to_json()).unwrap_err();
        assert!(err.contains("dsspy-flight/999"), "{err}");
        assert!(FlightDump::from_json("{\"nope\":1}").is_err());
    }

    #[test]
    fn chain_filters_one_batch_across_the_fanout() {
        let f = recorder();
        let ctx = TraceContext::new(1, 7);
        f.record(ctx, batch_event(64));
        for label in ["analyzer", "sampler", "recorder"] {
            f.record_for(
                ctx,
                Some(label),
                FlightEventKind::TapDispatch {
                    events: 64,
                    dur_nanos: 1,
                },
            );
        }
        f.record(TraceContext::new(1, 8), batch_event(1));
        let dump = f.dump();
        let chain = dump.chain(ctx);
        assert_eq!(chain.len(), 4);
        assert_eq!(chain[0].kind.tag(), "batch");
        assert_eq!(chain[3].subscriber.as_deref(), Some("recorder"));
    }

    #[test]
    fn flight_metrics_reach_telemetry() {
        let telemetry = Telemetry::enabled().with_flight(None);
        let f = telemetry.flight();
        let recorded = FLIGHT_CAPACITY as u64 + 3;
        for i in 0..recorded {
            f.record(TraceContext::new(1, i + 1), batch_event(i));
        }
        f.incident(
            TraceContext::new(1, 5),
            None,
            IncidentTrigger::DropSpike { dropped: 3 },
        );
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("flight.events"), Some(recorded + 1));
        assert_eq!(snap.counter("flight.incidents"), Some(1));
        assert_eq!(snap.counter("flight.overwritten"), Some(4));
        assert_eq!(snap.gauge("flight.capacity"), Some(FLIGHT_CAPACITY as u64));
        assert_eq!(snap.gauge("flight.ring_len"), Some(FLIGHT_CAPACITY as u64));
    }

    #[test]
    fn concurrent_recording_keeps_sequences_unique() {
        let f = recorder();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let f = f.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        f.record(TraceContext::new(t + 1, i + 1), batch_event(i));
                    }
                });
            }
        });
        let dump = f.dump();
        assert_eq!(dump.events.len(), 2000);
        let mut seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000, "no sequence reused");
        assert_eq!(dump.sessions(), vec![1, 2, 3, 4]);
    }
}
