//! # dsspy-stream — in-flight (streaming) analysis
//!
//! The paper's pipeline (Fig. 4) is strictly post-mortem: profiles are
//! collected during execution and analyzed afterwards. This crate closes the
//! loop *while the program is still running*: a [`StreamingAnalyzer`]
//! subscribes to the collector thread's batch path through the
//! [`CollectorTap`] API and folds every batch into one
//! [`dsspy_core::InstanceFold`] per instance instead of re-scanning history.
//!
//! That fold is the only analysis path: [`dsspy_core::Dsspy::analyze_capture`]
//! feeds each saved profile through the same fold, and both turn a fold into
//! an instance report with [`dsspy_core::InstanceFold::report`]. The
//! streaming classification of a drained session is therefore **equal by
//! construction** to the post-mortem one — the convergence property the
//! proptests in this crate and the `streaming_end_to_end` integration suite
//! pin down byte-for-byte.
//!
//! Memory is O(patterns) with no cap: per instance, a constant-size fold per
//! `(thread, track)` plus the finalized pattern list. Raw events are not
//! kept.
//!
//! Snapshot cadence applies backpressure: the collector's queue depth behind
//! each batch, read from its channel at receipt (the value the collector
//! also writes to the `collector.queue_depth` gauge), stretches the
//! interval between [`Report`] snapshots by powers of two
//! ([`SnapshotPolicy`]), so a flooded collector spends its cycles storing
//! events, not re-classifying them.
//!
//! All stream internals report into `dsspy-telemetry` under the `stream.*`
//! namespace: `stream.events/batches/snapshots/out_of_order` counters,
//! `stream.fold_nanos`/`stream.snapshot_nanos` histograms, and
//! `stream.instances/snapshot_interval` gauges.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use dsspy_collect::{Capture, CollectorStats, CollectorTap, Registry, Session, TapFanout};
use dsspy_core::{AnalysisTimings, Dsspy, InstanceFold, Report};
use dsspy_events::{AccessEvent, InstanceId, InstanceInfo};
use dsspy_telemetry::{Counter, FlightEventKind, Gauge, Histogram, Telemetry, TraceContext};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Collector queue depth per doubling of the snapshot interval.
const BACKOFF_QUEUE_DEPTH: usize = 64;
/// Cap on the number of doublings.
const MAX_BACKOFF_SHIFTS: u32 = 4;

/// When the streaming analyzer re-classifies and publishes a snapshot.
///
/// Cadence is measured in *batches folded*, not wall clock, so replays and
/// live sessions behave identically and tests are deterministic. The
/// `queue_depth` the collector hands the tap with each batch — its channel
/// length read at receipt, the same value it writes to the
/// `collector.queue_depth` gauge — stretches the interval: every
/// `BACKOFF_QUEUE_DEPTH` (64) queued messages doubles it, up to
/// `MAX_BACKOFF_SHIFTS` (4) doublings. An idle collector snapshots every
/// `every_batches` batches; a flooded one backs off to
/// `every_batches << MAX_BACKOFF_SHIFTS`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SnapshotPolicy {
    /// Base interval: publish a snapshot every this many folded batches.
    pub every_batches: u64,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        SnapshotPolicy { every_batches: 8 }
    }
}

impl SnapshotPolicy {
    /// The snapshot interval in batches at the given collector queue depth.
    pub fn effective_interval(&self, queue_depth: usize) -> u64 {
        let every = self.every_batches.max(1);
        let shifts = ((queue_depth / BACKOFF_QUEUE_DEPTH) as u32).min(MAX_BACKOFF_SHIFTS);
        every.checked_shl(shifts).unwrap_or(u64::MAX)
    }
}

/// Tunables of the streaming analyzer's cadence behavior.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Snapshot cadence and backpressure.
    pub snapshots: SnapshotPolicy,
}

/// Progress counters of one streaming analyzer, for status lines and tests.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct StreamStats {
    /// Events folded so far.
    pub events: u64,
    /// Batches folded so far.
    pub batches: u64,
    /// Report snapshots published so far.
    pub snapshots: u64,
    /// Events that arrived out of sequence order (folded anyway; counted).
    pub out_of_order: u64,
    /// Instances with live mining state.
    pub instances: usize,
    /// The snapshot interval currently in effect (after backoff).
    pub current_interval: u64,
}

/// `stream.*` instruments, resolved once so the fold path does no registry
/// lookups.
struct Instruments {
    events: Counter,
    batches: Counter,
    snapshots: Counter,
    out_of_order: Counter,
    fold_nanos: Histogram,
    snapshot_nanos: Histogram,
    instances: Gauge,
    snapshot_interval: Gauge,
}

impl Instruments {
    fn new(telemetry: &Telemetry) -> Instruments {
        Instruments {
            events: telemetry.counter("stream.events"),
            batches: telemetry.counter("stream.batches"),
            snapshots: telemetry.counter("stream.snapshots"),
            out_of_order: telemetry.counter("stream.out_of_order"),
            fold_nanos: telemetry.histogram("stream.fold_nanos"),
            snapshot_nanos: telemetry.histogram("stream.snapshot_nanos"),
            instances: telemetry.gauge("stream.instances"),
            snapshot_interval: telemetry.gauge("stream.snapshot_interval"),
        }
    }
}

/// Live analysis state of one instance: the shared fold plus its
/// out-of-order bookkeeping.
struct InstanceState {
    fold: InstanceFold,
    /// Last observed `fold.out_of_order()`, for delta accounting.
    seen_out_of_order: u64,
}

/// Everything behind the mutex: fold state, cadence bookkeeping, and the
/// latest published report.
struct Shared {
    dsspy: Dsspy,
    config: StreamConfig,
    /// Self-observation handle; snapshot publications are recorded into its
    /// flight recorder when one is armed.
    telemetry: Telemetry,
    /// The causal coordinates of the most recently folded batch — the
    /// context a snapshot publication is attributed to.
    last_ctx: TraceContext,
    ins: Instruments,
    /// Session mode: the live session's registry, for instance metadata.
    registry: Option<Arc<Registry>>,
    /// Replay mode: instances registered by hand, in registration order.
    local: Vec<InstanceInfo>,
    states: HashMap<InstanceId, InstanceState>,
    batches: u64,
    batches_since_snapshot: u64,
    snapshots: u64,
    events_total: u64,
    current_interval: u64,
    /// Collector stats as of `on_stop`; synthesized from fold counters for
    /// mid-session snapshots.
    final_stats: Option<CollectorStats>,
    session_nanos: u64,
    latest: Option<Arc<Report>>,
}

impl Shared {
    fn new(dsspy: Dsspy, config: StreamConfig, telemetry: Telemetry) -> Shared {
        let ins = Instruments::new(&telemetry);
        let current_interval = config.snapshots.effective_interval(0);
        Shared {
            dsspy,
            config,
            telemetry,
            last_ctx: TraceContext::default(),
            ins,
            registry: None,
            local: Vec::new(),
            states: HashMap::new(),
            batches: 0,
            batches_since_snapshot: 0,
            snapshots: 0,
            events_total: 0,
            current_interval,
            final_stats: None,
            session_nanos: 0,
            latest: None,
        }
    }

    fn fold_batch(
        &mut self,
        ctx: TraceContext,
        id: InstanceId,
        events: &[AccessEvent],
        queue_depth: usize,
    ) {
        let started = self.telemetry.now_nanos();
        self.last_ctx = ctx;
        let analysis = &self.dsspy.analysis;
        let state = self.states.entry(id).or_insert_with(|| InstanceState {
            fold: InstanceFold::new(analysis),
            seen_out_of_order: 0,
        });
        for e in events {
            state.fold.fold(e);
        }
        let ooo = state.fold.out_of_order();
        let ooo_delta = ooo - state.seen_out_of_order;
        state.seen_out_of_order = ooo;

        self.events_total += events.len() as u64;
        self.batches += 1;
        self.batches_since_snapshot += 1;

        self.ins.events.add(events.len() as u64);
        self.ins.batches.inc();
        if ooo_delta > 0 {
            self.ins.out_of_order.add(ooo_delta);
        }
        self.ins.instances.set(self.states.len() as u64);
        self.ins
            .fold_nanos
            .record(self.telemetry.now_nanos().saturating_sub(started));

        self.current_interval = self.config.snapshots.effective_interval(queue_depth);
        self.ins.snapshot_interval.set(self.current_interval);
        if self.batches_since_snapshot >= self.current_interval {
            self.publish_snapshot();
        }
    }

    fn finish(&mut self, ctx: TraceContext, stats: &CollectorStats, session_nanos: u64) {
        self.last_ctx = ctx;
        self.final_stats = Some(*stats);
        self.session_nanos = session_nanos;
        self.publish_snapshot();
    }

    fn publish_snapshot(&mut self) {
        let started = self.telemetry.now_nanos();
        let report = self.build_report();
        self.latest = Some(Arc::new(report));
        self.snapshots += 1;
        self.batches_since_snapshot = 0;
        self.ins.snapshots.inc();
        self.ins
            .snapshot_nanos
            .record(self.telemetry.now_nanos().saturating_sub(started));
        self.telemetry.flight().record_for(
            self.last_ctx,
            Some("analyzer"),
            FlightEventKind::SnapshotPublished {
                snapshot: self.snapshots,
            },
        );
    }

    /// Report everything folded so far the way [`Dsspy::analyze_capture`]
    /// does: registration order, the selective-origin filter, then
    /// [`InstanceFold::report`] per instance.
    fn build_report(&self) -> Report {
        let analysis = &self.dsspy.analysis;
        let infos: Vec<InstanceInfo> = match &self.registry {
            Some(r) => r.snapshot(),
            None => self.local.clone(),
        };
        let instances = infos
            .iter()
            .filter(|info| analysis.includes(info))
            .map(|info| match self.states.get(&info.id) {
                Some(state) => state.fold.report(info, analysis),
                // Registered but never touched: the report of an empty fold.
                None => InstanceFold::new(analysis).report(info, analysis),
            })
            .collect();
        let stats = self.final_stats.unwrap_or(CollectorStats {
            events: self.events_total,
            batches: self.batches,
            dropped: 0,
        });
        Report {
            instances,
            stats,
            session_nanos: self.session_nanos,
            timings: AnalysisTimings::default(),
            telemetry: None,
        }
    }

    fn stats(&self) -> StreamStats {
        StreamStats {
            events: self.events_total,
            batches: self.batches,
            snapshots: self.snapshots,
            out_of_order: self.states.values().map(|s| s.seen_out_of_order).sum(),
            instances: self.states.len(),
            current_interval: self.current_interval,
        }
    }
}

/// The [`CollectorTap`] half: lives on the collector thread, forwards every
/// stored batch into the shared fold state.
struct StreamTap {
    shared: Arc<Mutex<Shared>>,
}

impl CollectorTap for StreamTap {
    fn on_batch(
        &mut self,
        ctx: TraceContext,
        id: InstanceId,
        events: &[AccessEvent],
        queue_depth: usize,
    ) {
        self.shared.lock().fold_batch(ctx, id, events, queue_depth);
    }

    fn on_stop(&mut self, ctx: TraceContext, stats: &CollectorStats, session_nanos: u64) {
        self.shared.lock().finish(ctx, stats, session_nanos);
    }
}

/// Streaming analysis of a profiling session while it runs.
///
/// Two modes share one implementation:
///
/// * **Session mode** — [`StreamingAnalyzer::attach`] starts a session
///   whose collector feeds the analyzer through a
///   [`TapFanout`]. (The parts stay public for rigs that assemble their own
///   fan-out: [`StreamingAnalyzer::tap`] +
///   [`SessionBuilder::tap`](dsspy_collect::SessionBuilder::tap) +
///   [`StreamingAnalyzer::bind_registry`].)
/// * **Replay mode** — [`StreamingAnalyzer::replay_capture`] (or
///   [`StreamingAnalyzer::register_instance`] +
///   [`StreamingAnalyzer::fold_batch`]) streams an existing capture through
///   the same fold path, batch by batch; `dsspy watch` uses this to replay
///   saved captures as if they were live.
///
/// Cloning is cheap and shares state — clone it before handing the tap to a
/// session and keep querying [`StreamingAnalyzer::latest_report`] from the
/// driving thread.
#[derive(Clone)]
pub struct StreamingAnalyzer {
    shared: Arc<Mutex<Shared>>,
}

impl StreamingAnalyzer {
    /// A streaming analyzer with the given pipeline + stream configuration,
    /// without self-observation.
    pub fn new(dsspy: Dsspy, config: StreamConfig) -> StreamingAnalyzer {
        StreamingAnalyzer::with_telemetry(dsspy, config, Telemetry::disabled())
    }

    /// A streaming analyzer that reports its internals (`stream.*` counters,
    /// histograms, gauges) into `telemetry`, and its snapshot publications
    /// into that handle's flight recorder when one is armed.
    pub fn with_telemetry(
        dsspy: Dsspy,
        config: StreamConfig,
        telemetry: Telemetry,
    ) -> StreamingAnalyzer {
        StreamingAnalyzer {
            shared: Arc::new(Mutex::new(Shared::new(dsspy, config, telemetry))),
        }
    }

    /// The collector-thread subscription. Subscribe it to a [`TapFanout`]
    /// handed to [`SessionBuilder::tap`](dsspy_collect::SessionBuilder::tap),
    /// and call [`StreamingAnalyzer::bind_registry`] with the session's
    /// [`Session::registry_handle`] so snapshots can resolve instance
    /// metadata — or let [`StreamingAnalyzer::attach`] do all of it.
    pub fn tap(&self) -> Box<dyn CollectorTap> {
        Box::new(StreamTap {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Use `registry` as the source of instance metadata (session mode).
    pub fn bind_registry(&self, registry: Arc<Registry>) {
        self.shared.lock().registry = Some(registry);
    }

    /// Start a session wired to this analyzer, with the analyzer's
    /// [`Dsspy::session`] configuration: the collector drives a
    /// [`TapFanout`] whose first subscriber is this analyzer (labelled
    /// `analyzer`), followed by each of `extra` in order, every one
    /// panic-isolated from the others. The session's registry backs
    /// snapshot metadata. Session, fan-out and analyzer all report into the
    /// telemetry handle the analyzer was built with, so its flight
    /// recorder, when armed, sees batch receipts, dispatches and snapshots
    /// on one causal timeline.
    pub fn attach(&self, extra: Vec<(&str, Box<dyn CollectorTap>)>) -> Session {
        let (telemetry, session_config) = {
            let s = self.shared.lock();
            (s.telemetry.clone(), s.dsspy.session)
        };
        let mut fanout =
            TapFanout::with_telemetry(telemetry.clone()).with_subscriber("analyzer", self.tap());
        for (label, tap) in extra {
            fanout.subscribe(label, tap);
        }
        let session = Session::builder()
            .config(session_config)
            .telemetry(telemetry)
            .tap(Box::new(fanout))
            .start();
        self.bind_registry(session.registry_handle());
        session
    }

    /// Replay mode: declare an instance (registration order is report
    /// order, as in a live registry).
    pub fn register_instance(&self, info: InstanceInfo) {
        self.shared.lock().local.push(info);
    }

    /// Replay mode: fold one batch of events for `id`, exactly as the tap
    /// would on the collector thread. `queue_depth` feeds the snapshot
    /// backpressure policy (use `0` when replaying from disk).
    pub fn fold_batch(&self, id: InstanceId, events: &[AccessEvent], queue_depth: usize) {
        let mut shared = self.shared.lock();
        // Replayed streams have no live session behind them: synthesize a
        // session-0 context carrying the fold ordinal, so flight events from
        // a replay are still ordered and distinguishable.
        let ctx = TraceContext::replay(shared.batches + 1);
        shared.fold_batch(ctx, id, events, queue_depth);
    }

    /// Stream a whole capture through the fold path in `batch_size`-event
    /// batches and finish with the capture's own stats, so the final
    /// [`StreamingAnalyzer::report`] is byte-for-byte comparable to
    /// [`Dsspy::analyze_capture`] on the same capture.
    pub fn replay_capture(&self, capture: &Capture, batch_size: usize) {
        let batch_size = batch_size.max(1);
        for profile in &capture.profiles {
            self.register_instance(profile.instance.clone());
        }
        for profile in &capture.profiles {
            for chunk in profile.events.chunks(batch_size) {
                self.fold_batch(profile.instance.id, chunk, 0);
            }
        }
        self.finish_replay(&capture.stats, capture.session_nanos);
    }

    /// Replay mode: end the stream with the drained session's collector
    /// stats and duration, publishing the final snapshot — what the tap's
    /// `on_stop` does in session mode. Call after the last
    /// [`StreamingAnalyzer::fold_batch`].
    pub fn finish_replay(&self, stats: &CollectorStats, session_nanos: u64) {
        let mut shared = self.shared.lock();
        let ctx = TraceContext::replay(shared.batches);
        shared.finish(ctx, stats, session_nanos);
    }

    /// The most recently published snapshot, if any batch interval or the
    /// session end has elapsed. Cheap: returns a shared handle, no
    /// re-classification.
    pub fn latest_report(&self) -> Option<Arc<Report>> {
        self.shared.lock().latest.clone()
    }

    /// Classify everything folded so far, right now (ignores cadence).
    pub fn report(&self) -> Report {
        self.shared.lock().build_report()
    }

    /// Progress counters for status lines.
    pub fn stats(&self) -> StreamStats {
        self.shared.lock().stats()
    }
}

impl std::fmt::Debug for StreamingAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.lock();
        f.debug_struct("StreamingAnalyzer")
            .field("batches", &s.batches)
            .field("events", &s.events_total)
            .field("instances", &s.states.len())
            .field("snapshots", &s.snapshots)
            .finish()
    }
}

/// Counters and the final collector verdict a [`TelemetrySampler`] saw.
#[derive(Default)]
struct SamplerState {
    events: u64,
    batches: u64,
    finished: Option<(CollectorStats, u64)>,
}

/// `stream.live.*` instruments, resolved once at construction.
struct SamplerInstruments {
    events: Counter,
    batches: Counter,
    queue_depth: Gauge,
    queue_peak: Gauge,
    last_batch_events: Gauge,
    stopped: Gauge,
}

/// A lightweight [`CollectorTap`] subscriber that turns the collector's
/// batch path into *live* telemetry for a scrape endpoint: per-batch
/// `stream.live.events`/`stream.live.batches` counters, the queue depth
/// observed behind each batch (`stream.live.queue_depth` and its peak), the
/// size of the most recent batch, and a `stream.live.stopped` flag once the
/// session drains.
///
/// Unlike the [`StreamingAnalyzer`] it keeps no per-instance state. No
/// production surface installs it: an observed session's collector
/// publishes the same pulse itself (`collector.events`/`collector.batches`
/// per stored batch, `collector.queue_depth` and its high-watermark), so
/// `stream.live.*` duplicates `collector.*`. It remains for the benchmark's
/// live rig. Clones share state; subscribe [`TelemetrySampler::tap`] to a
/// [`TapFanout`].
#[derive(Clone)]
pub struct TelemetrySampler {
    shared: Arc<Mutex<SamplerState>>,
    ins: Arc<SamplerInstruments>,
}

impl TelemetrySampler {
    /// A sampler publishing `stream.live.*` into `telemetry`.
    pub fn new(telemetry: &Telemetry) -> TelemetrySampler {
        TelemetrySampler {
            shared: Arc::new(Mutex::new(SamplerState::default())),
            ins: Arc::new(SamplerInstruments {
                events: telemetry.counter("stream.live.events"),
                batches: telemetry.counter("stream.live.batches"),
                queue_depth: telemetry.gauge("stream.live.queue_depth"),
                queue_peak: telemetry.gauge("stream.live.queue_depth_peak"),
                last_batch_events: telemetry.gauge("stream.live.last_batch_events"),
                stopped: telemetry.gauge("stream.live.stopped"),
            }),
        }
    }

    /// The collector-thread subscription half.
    pub fn tap(&self) -> Box<dyn CollectorTap> {
        Box::new(SamplerTap {
            shared: Arc::clone(&self.shared),
            ins: Arc::clone(&self.ins),
        })
    }

    /// Events and batches sampled so far.
    pub fn seen(&self) -> (u64, u64) {
        let s = self.shared.lock();
        (s.events, s.batches)
    }

    /// The collector stats and session duration delivered at `on_stop` —
    /// the sampler's final word on the session, which must agree with the
    /// capture's own stats.
    pub fn final_stats(&self) -> Option<(CollectorStats, u64)> {
        self.shared.lock().finished
    }
}

impl std::fmt::Debug for TelemetrySampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.lock();
        f.debug_struct("TelemetrySampler")
            .field("events", &s.events)
            .field("batches", &s.batches)
            .field("stopped", &s.finished.is_some())
            .finish()
    }
}

struct SamplerTap {
    shared: Arc<Mutex<SamplerState>>,
    ins: Arc<SamplerInstruments>,
}

impl CollectorTap for SamplerTap {
    fn on_batch(
        &mut self,
        _ctx: TraceContext,
        _id: InstanceId,
        events: &[AccessEvent],
        queue_depth: usize,
    ) {
        let mut s = self.shared.lock();
        s.events += events.len() as u64;
        s.batches += 1;
        self.ins.events.add(events.len() as u64);
        self.ins.batches.inc();
        self.ins.queue_depth.set(queue_depth as u64);
        self.ins.queue_peak.set_max(queue_depth as u64);
        self.ins.last_batch_events.set(events.len() as u64);
    }

    fn on_stop(&mut self, _ctx: TraceContext, stats: &CollectorStats, session_nanos: u64) {
        self.shared.lock().finished = Some((*stats, session_nanos));
        self.ins.queue_depth.set(0);
        self.ins.stopped.set(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_collect::SessionConfig;
    use dsspy_collections::{site, SpyQueue, SpyVec};

    fn run_workload(session: &Session) {
        let mut hot = SpyVec::register(session, site!("hot_fill"));
        for i in 0..800 {
            hot.add(i);
        }
        for i in 0..800 {
            let _ = *hot.get(i);
        }
        let mut q = SpyQueue::register(session, site!("queue_churn"));
        for i in 0..300 {
            q.enqueue(i);
            if q.len() > 4 {
                q.dequeue();
            }
        }
        let _idle: SpyVec<u8> = SpyVec::register(session, site!("idle"));
    }

    fn instances_json(r: &Report) -> String {
        serde_json::to_string(&r.instances).expect("serialize")
    }

    #[test]
    fn live_session_converges_to_post_mortem() {
        let dsspy = Dsspy::new().with_threads(1);
        let streaming = StreamingAnalyzer::new(dsspy, StreamConfig::default());
        let session = streaming.attach(Vec::new());
        run_workload(&session);
        let capture = session.finish();
        let live = streaming
            .latest_report()
            .expect("on_stop publishes a final snapshot");
        let post = dsspy.analyze_capture(&capture);
        assert_eq!(instances_json(&live), instances_json(&post));
        assert_eq!(live.stats, post.stats);
        assert_eq!(live.session_nanos, post.session_nanos);
    }

    #[test]
    fn sampler_publishes_live_signals_and_final_stats() {
        let telemetry = Telemetry::enabled();
        let sampler = TelemetrySampler::new(&telemetry);
        let session = Session::builder()
            .config(SessionConfig {
                batch_size: 32,
                channel_capacity: None,
            })
            .tap(Box::new(
                TapFanout::new().with_subscriber("sampler", sampler.tap()),
            ))
            .start();
        run_workload(&session);
        let capture = session.finish();

        let (events, batches) = sampler.seen();
        assert_eq!(events, capture.stats.events);
        assert_eq!(batches, capture.stats.batches);
        let (stats, nanos) = sampler.final_stats().expect("on_stop delivered");
        assert_eq!(stats, capture.stats);
        assert_eq!(nanos, capture.session_nanos);

        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("stream.live.events"),
            Some(capture.stats.events)
        );
        assert_eq!(
            snap.counter("stream.live.batches"),
            Some(capture.stats.batches)
        );
        assert_eq!(snap.gauge("stream.live.stopped"), Some(1));
        assert_eq!(snap.gauge("stream.live.queue_depth"), Some(0));
    }

    #[test]
    fn replay_matches_analyze_capture_byte_for_byte() {
        let dsspy = Dsspy::new().with_threads(1);
        let session = Session::new();
        run_workload(&session);
        let capture = session.finish();

        for batch in [1usize, 7, 100, 100_000] {
            let streaming = StreamingAnalyzer::new(dsspy, StreamConfig::default());
            streaming.replay_capture(&capture, batch);
            let live = streaming.latest_report().expect("final snapshot");
            let post = dsspy.analyze_capture(&capture);
            let live_json = serde_json::to_string(&*live).expect("serialize");
            let post_json = serde_json::to_string(&post).expect("serialize");
            assert_eq!(live_json, post_json, "batch size {batch}");
        }
    }

    #[test]
    fn snapshot_cadence_follows_policy() {
        let dsspy = Dsspy::new();
        let config = StreamConfig {
            snapshots: SnapshotPolicy { every_batches: 4 },
        };
        let streaming = StreamingAnalyzer::new(dsspy, config);
        let info = InstanceInfo::new(
            InstanceId(0),
            dsspy_events::AllocationSite::new("T", "m", 1),
            dsspy_events::DsKind::List,
            "i64",
        );
        streaming.register_instance(info);
        let events: Vec<AccessEvent> = (0..10)
            .map(|i| AccessEvent::at(i, dsspy_events::AccessKind::Insert, i as u32, i as u32 + 1))
            .collect();
        for _ in 0..3 {
            streaming.fold_batch(InstanceId(0), &events, 0);
        }
        assert_eq!(streaming.stats().snapshots, 0, "below interval");
        streaming.fold_batch(InstanceId(0), &events, 0);
        assert_eq!(streaming.stats().snapshots, 1, "4th batch snapshots");
        assert!(streaming.latest_report().is_some());
    }

    #[test]
    fn queue_pressure_stretches_the_interval() {
        let policy = SnapshotPolicy { every_batches: 8 };
        assert_eq!(policy.effective_interval(0), 8);
        assert_eq!(policy.effective_interval(63), 8);
        assert_eq!(policy.effective_interval(64), 16);
        assert_eq!(policy.effective_interval(200), 64);
        assert_eq!(policy.effective_interval(1_000_000), 8 << 4);
    }

    #[test]
    fn mid_session_snapshot_counts_only_what_arrived() {
        let dsspy = Dsspy::new();
        let config = StreamConfig {
            snapshots: SnapshotPolicy { every_batches: 1 },
        };
        let streaming = StreamingAnalyzer::new(dsspy, config);
        let info = InstanceInfo::new(
            InstanceId(0),
            dsspy_events::AllocationSite::new("T", "m", 1),
            dsspy_events::DsKind::List,
            "i64",
        );
        streaming.register_instance(info);
        let events: Vec<AccessEvent> = (0..500)
            .map(|i| AccessEvent::at(i, dsspy_events::AccessKind::Insert, i as u32, i as u32 + 1))
            .collect();
        streaming.fold_batch(InstanceId(0), &events[..100], 0);
        let early = streaming.latest_report().unwrap();
        assert_eq!(early.instances[0].events, 100);
        streaming.fold_batch(InstanceId(0), &events[100..], 0);
        let late = streaming.latest_report().unwrap();
        assert_eq!(late.instances[0].events, 500);
        assert!(late.instances[0].is_flagged(), "long insert detected live");
    }

    #[test]
    fn selective_mode_filters_streaming_reports_too() {
        let dsspy = Dsspy::new().selective().with_threads(1);
        let streaming = StreamingAnalyzer::new(dsspy, StreamConfig::default());
        let session = streaming.attach(Vec::new());
        {
            let mut auto = SpyVec::register(&session, site!("auto_hot"));
            for i in 0..400 {
                auto.add(i);
            }
            let mut manual = SpyVec::register_manual(&session, site!("manual_hot"));
            for i in 0..400 {
                manual.add(i);
            }
        }
        let capture = session.finish();
        let live = streaming.latest_report().unwrap();
        let post = dsspy.analyze_capture(&capture);
        assert_eq!(live.instances.len(), 1);
        assert_eq!(live.instances[0].instance.site.method, "manual_hot");
        assert_eq!(instances_json(&live), instances_json(&post));
    }

    #[test]
    fn stream_telemetry_reports_internals() {
        let telemetry = Telemetry::enabled();
        let dsspy = Dsspy::new().with_threads(1);
        let streaming =
            StreamingAnalyzer::with_telemetry(dsspy, StreamConfig::default(), telemetry.clone());
        let session = streaming.attach(Vec::new());
        run_workload(&session);
        let _capture = session.finish();
        let snap = telemetry.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert!(counter("stream.events") >= 1900, "{snap:?}");
        assert!(counter("stream.batches") >= 2);
        assert!(counter("stream.snapshots") >= 1);
        assert!(snap.gauge("stream.instances").unwrap_or(0) >= 2);
        assert!(
            snap.histograms
                .iter()
                .any(|h| h.name == "stream.fold_nanos" && h.count > 0),
            "{snap:?}"
        );
    }

    #[test]
    fn live_session_records_a_causal_flight_chain() {
        let telemetry = Telemetry::enabled().with_flight(None);
        let dsspy = Dsspy::new().with_threads(1);
        let streaming =
            StreamingAnalyzer::with_telemetry(dsspy, StreamConfig::default(), telemetry.clone());
        let session = streaming.attach(Vec::new());
        let sid = session.session_id();
        assert_ne!(sid, 0);
        run_workload(&session);
        let capture = session.finish();

        let dump = telemetry.flight().dump();
        assert_eq!(dump.sessions(), vec![sid], "one live session observed");
        let batches: Vec<_> = dump
            .events
            .iter()
            .filter(|e| e.kind.tag() == "batch")
            .collect();
        assert_eq!(batches.len() as u64, capture.stats.batches);
        // Batch seqs are 1..=N in order.
        assert!(batches
            .iter()
            .enumerate()
            .all(|(i, e)| e.ctx.batch_seq == i as u64 + 1));
        // The analyzer's snapshot publications are attributed to batches of
        // this session, and the session stop closes the timeline.
        assert!(dump
            .events
            .iter()
            .any(|e| e.kind.tag() == "snapshot" && e.subscriber.as_deref() == Some("analyzer")));
        assert_eq!(dump.events.last().unwrap().kind.tag(), "session-stop");
        assert!(dump.incidents.is_empty(), "healthy session, no incidents");
    }

    #[test]
    fn bounded_channel_session_with_tap_loses_nothing() {
        let dsspy = Dsspy {
            session: SessionConfig {
                batch_size: 8,
                channel_capacity: Some(4),
            },
            ..Dsspy::new()
        };
        let streaming = StreamingAnalyzer::new(dsspy.with_threads(1), StreamConfig::default());
        let session = streaming.attach(Vec::new());
        {
            let mut v = SpyVec::register(&session, site!("pressured"));
            for i in 0..5_000 {
                v.add(i);
            }
        }
        let capture = session.finish();
        assert_eq!(capture.stats.dropped, 0);
        let live = streaming.latest_report().unwrap();
        assert_eq!(live.instances[0].events as u64, capture.stats.events);
        let post = dsspy.with_threads(1).analyze_capture(&capture);
        assert_eq!(instances_json(&live), instances_json(&post));
    }
}
