//! Profiling sessions and per-instance recording handles.
//!
//! A [`Session`] corresponds to one instrumented program execution in the
//! paper's pipeline (Fig. 4: *Instrumentation → Execution → ... profiles*).
//! Instrumented collections obtain an [`InstanceHandle`] at construction
//! time and record one event per interface-method call; the collector
//! encodes each shipped batch on arrival, and when the session is finished
//! the sealed per-instance bodies are returned as a [`Capture`] for
//! post-mortem analysis.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, unbounded, Sender};
use dsspy_events::{AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, Origin, Target};
use dsspy_telemetry::{next_session_id, IncidentTrigger, Telemetry, TraceContext};

use crate::clock::{current_thread_tag, SessionClock};
use crate::collector::{spawn, Capture, CollectorStats, Msg};
use crate::fanout::TapFanout;
use crate::registry::Registry;
use crate::store::Store;

/// Tunables for a profiling session.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Events buffered inside each handle before a batch is shipped to the
    /// collector thread. Larger batches amortize channel traffic; smaller
    /// batches bound the events lost if a structure leaks past shutdown.
    pub batch_size: usize,
    /// Optional bound on the collector channel. `None` (the default) mirrors
    /// the paper's design goal of never hitting a log-size ceiling; `Some(n)`
    /// applies backpressure to the profiled code instead.
    pub channel_capacity: Option<usize>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            batch_size: 1024,
            channel_capacity: None,
        }
    }
}

/// Shared state between the session, its handles, and the collector.
#[derive(Debug)]
pub(crate) struct SessionInner {
    pub(crate) clock: SessionClock,
    /// Shared with streaming consumers via [`Session::registry_handle`], so
    /// a tap can resolve instance metadata while the session is still live.
    pub(crate) registry: Arc<Registry>,
    /// Self-observation handle, flight recorder included;
    /// [`Telemetry::disabled`] unless attached via
    /// [`SessionBuilder::telemetry`].
    pub(crate) telemetry: Telemetry,
    /// The process-unique id stamped into every [`TraceContext`] this
    /// session's collector emits.
    pub(crate) session_id: u64,
    closed: AtomicBool,
    dropped: AtomicU64,
}

/// One profiling session: registry + clock + background collector.
pub struct Session {
    inner: Arc<SessionInner>,
    sender: Sender<Msg>,
    join: JoinHandle<(Store, CollectorStats, u64)>,
    batch_size: usize,
}

impl Session {
    /// Start an unobserved session with the default configuration and no
    /// tap.
    pub fn new() -> Session {
        Session::builder().start()
    }

    /// Configure a session — [`SessionConfig`], telemetry (with or without
    /// an armed flight recorder) and a collector tap, in any combination —
    /// then [`SessionBuilder::start`] it.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The process-unique session id the collector stamps into every
    /// [`TraceContext`] — the key `dsspy doctor` groups flight events by.
    pub fn session_id(&self) -> u64 {
        self.inner.session_id
    }

    /// The telemetry handle this session reports into (disabled by default);
    /// its [`Telemetry::flight`] is the recorder the pipeline records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// A shared handle to the instance registry. Streaming consumers use it
    /// to resolve [`dsspy_events::InstanceInfo`] for ids they see on the tap
    /// while the session is still running.
    pub fn registry_handle(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// Register a data-structure instance and obtain its recording handle.
    ///
    /// This is the wrapper-world equivalent of the paper's static
    /// instrumentation pass discovering a declaration site.
    pub fn register(
        &self,
        site: AllocationSite,
        kind: DsKind,
        elem_type: impl Into<String>,
    ) -> InstanceHandle {
        self.register_with_origin(site, kind, elem_type, Origin::Auto)
    }

    /// Register an instance the engineer instrumented by hand — the paper's
    /// selective-profiler mode (§IV). Selective analysis
    /// (`AnalysisConfig { selective: true, .. }`) restricts the report to
    /// these instances.
    pub fn register_manual(
        &self,
        site: AllocationSite,
        kind: DsKind,
        elem_type: impl Into<String>,
    ) -> InstanceHandle {
        self.register_with_origin(site, kind, elem_type, Origin::Manual)
    }

    fn register_with_origin(
        &self,
        site: AllocationSite,
        kind: DsKind,
        elem_type: impl Into<String>,
        origin: Origin,
    ) -> InstanceHandle {
        let id = self
            .inner
            .registry
            .register_with_origin(site, kind, elem_type, origin);
        InstanceHandle {
            inner: Arc::clone(&self.inner),
            sender: self.sender.clone(),
            id,
            buf: Vec::with_capacity(self.batch_size),
            batch_size: self.batch_size,
        }
    }

    /// Number of instances registered so far.
    pub fn instance_count(&self) -> usize {
        self.inner.registry.len()
    }

    /// End the session: seal every instance's open chunk and return the
    /// capture, which holds the sealed bodies (see
    /// [`Profiles`](crate::Profiles)).
    ///
    /// All instrumented structures should be dropped (or explicitly flushed)
    /// before calling this; events recorded afterwards are counted in
    /// [`CollectorStats::dropped`](crate::CollectorStats::dropped) rather
    /// than silently lost. The session duration is stamped by the collector
    /// once it has stored every pre-shutdown batch.
    pub fn finish(self) -> Capture {
        self.inner.closed.store(true, Ordering::SeqCst);
        let _ = self.sender.send(Msg::Stop);
        drop(self.sender);
        let (store, mut stats, session_nanos) =
            self.join.join().expect("collector thread panicked");
        stats.dropped += self.inner.dropped.load(Ordering::Relaxed);
        self.inner
            .telemetry
            .counter("session.session_nanos")
            .add(session_nanos);
        let mut capture = Capture {
            profiles: store.seal(self.inner.registry.snapshot()),
            stats,
            session_nanos,
            collection_telemetry: None,
        };
        // An observed session stamps its capture with everything the
        // telemetry saw, so the collection-time signals survive persistence
        // and reach offline analysis (which merges them into its snapshot).
        if self.inner.telemetry.is_enabled() {
            capture.collection_telemetry = Some(self.inner.telemetry.snapshot());
        }
        // Incident auto-dumps keep the configured dump file fresh mid-run;
        // this final flush captures the session's full tail (including the
        // SessionStop event the collector just recorded).
        if let Err(err) = self.inner.telemetry.flight().flush_dump() {
            // A closed stderr loses the note; it must not panic the caller.
            let _ = writeln!(
                std::io::stderr(),
                "dsspy: final flight-recorder dump failed: {err}"
            );
        }
        capture
    }
}

/// Builder for sessions that combine telemetry and a collector tap.
/// [`SessionBuilder::start`] spawns the collector thread.
#[derive(Default)]
pub struct SessionBuilder {
    config: SessionConfig,
    telemetry: Telemetry,
    tap: Option<Box<TapFanout>>,
}

impl SessionBuilder {
    /// Use `config` instead of [`SessionConfig::default`].
    pub fn config(mut self, config: SessionConfig) -> SessionBuilder {
        self.config = config;
        self
    }

    /// Observe the session with `telemetry`. When the handle has an armed
    /// flight recorder ([`Telemetry::with_flight`]), the collector records
    /// the session's pipeline events into it and triggers its incident
    /// dumps.
    pub fn telemetry(mut self, telemetry: Telemetry) -> SessionBuilder {
        self.telemetry = telemetry;
        self
    }

    /// Feed every stored batch to `tap`'s subscribers on the collector
    /// thread. The collector only ever drives a [`TapFanout`], so every
    /// subscriber is panic-isolated; a single subscriber is a fan-out of
    /// one.
    pub fn tap(mut self, tap: Box<TapFanout>) -> SessionBuilder {
        self.tap = Some(tap);
        self
    }

    /// Spawn the collector thread and start the session. With telemetry
    /// enabled the collector reports queue depth, batch latency and busy
    /// time (see the `dsspy-telemetry` crate); a tap sees every stored batch
    /// on the collector thread before it is folded into the capture (see
    /// [`CollectorTap`](crate::CollectorTap) for the exact delivery
    /// guarantees).
    pub fn start(self) -> Session {
        let (tx, rx) = match self.config.channel_capacity {
            Some(n) => bounded(n),
            None => unbounded(),
        };
        let session_id = next_session_id();
        let clock = SessionClock::new();
        let join = spawn(
            rx,
            clock.started(),
            self.telemetry.clone(),
            session_id,
            self.tap,
        );
        Session {
            inner: Arc::new(SessionInner {
                clock,
                registry: Arc::new(Registry::new()),
                telemetry: self.telemetry,
                session_id,
                closed: AtomicBool::new(false),
                dropped: AtomicU64::new(0),
            }),
            sender: tx,
            join,
            batch_size: self.config.batch_size.max(1),
        }
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// Per-instance recording handle held by an instrumented collection.
///
/// `record` is the hot path: it stamps the event with the session's next
/// logical tick (no clock read) and appends to a local, unsynchronized
/// buffer; only every `batch_size` events does it touch the channel. The
/// handle flushes its tail on drop.
pub struct InstanceHandle {
    inner: Arc<SessionInner>,
    sender: Sender<Msg>,
    id: InstanceId,
    buf: Vec<AccessEvent>,
    batch_size: usize,
}

impl InstanceHandle {
    /// The instance this handle records for.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// Record one access event of `kind` at `target`, with the structure
    /// currently `len` elements long.
    #[inline]
    pub fn record(&mut self, kind: AccessKind, target: Target, len: u32) {
        if self.inner.closed.load(Ordering::Relaxed) {
            let prev = self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            // Cold path: the registry lookup is fine here, and publishing
            // immediately means drop pressure is visible while it happens.
            self.inner.telemetry.counter("collector.dropped").inc();
            if prev == 0 {
                // First post-shutdown drop on this session: the drop counter
                // just moved, which is an incident trigger. Later drops ride
                // the same incident — the counter shows the volume.
                self.inner.telemetry.flight().incident(
                    TraceContext::new(self.inner.session_id, 0),
                    None,
                    IncidentTrigger::DropSpike { dropped: 1 },
                );
            }
            return;
        }
        let event = AccessEvent {
            seq: self.inner.clock.next_seq(),
            kind,
            target,
            len,
            thread: current_thread_tag(),
        };
        self.buf.push(event);
        if self.buf.len() >= self.batch_size {
            self.flush();
        }
    }

    /// Ship all locally buffered events to the collector now.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(self.batch_size));
        // Stamp ship time from the telemetry clock (0 when disabled) so the
        // collector can report how long batches sit in the queue.
        let sent_nanos = self.inner.telemetry.now_nanos();
        if let Err(err) = self.sender.send(Msg::Batch(self.id, batch, sent_nanos)) {
            // Collector already gone; account the exact loss.
            let crate::collector::Msg::Batch(_, lost, _) = err.0 else {
                return;
            };
            self.inner
                .dropped
                .fetch_add(lost.len() as u64, Ordering::Relaxed);
            self.inner
                .telemetry
                .counter("collector.dropped")
                .add(lost.len() as u64);
        }
    }

    /// Number of events currently buffered locally (not yet shipped).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

impl Drop for InstanceHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for InstanceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceHandle")
            .field("id", &self.id)
            .field("buffered", &self.buf.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(line: u32) -> AllocationSite {
        AllocationSite::new("Test", "main", line)
    }

    #[test]
    fn end_to_end_single_instance() {
        let session = Session::new();
        let mut h = session.register(site(1), DsKind::List, "i32");
        for i in 0..10u32 {
            h.record(AccessKind::Insert, Target::Index(i), i + 1);
        }
        drop(h);
        let cap = session.finish();
        assert_eq!(cap.instance_count(), 1);
        let p = &cap.profiles[0];
        assert_eq!(p.len(), 10);
        assert!(p.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(p.events[9].len, 10);
        assert_eq!(cap.stats.events, 10);
        assert_eq!(cap.stats.dropped, 0);
    }

    #[test]
    fn small_batches_flush_incrementally() {
        let session = Session::builder()
            .config(SessionConfig {
                batch_size: 4,
                channel_capacity: None,
            })
            .start();
        let mut h = session.register(site(1), DsKind::List, "i32");
        for i in 0..10u32 {
            h.record(AccessKind::Insert, Target::Index(i), i + 1);
        }
        assert_eq!(h.buffered(), 2, "8 of 10 events shipped in two batches");
        drop(h);
        let cap = session.finish();
        assert_eq!(cap.event_count(), 10);
        assert_eq!(cap.stats.batches, 3);
    }

    #[test]
    fn unregistered_instances_yield_empty_profiles() {
        let session = Session::new();
        let _silent = session.register(site(1), DsKind::Array, "f64");
        let mut h = session.register(site(2), DsKind::List, "i32");
        h.record(AccessKind::Insert, Target::Index(0), 1);
        drop(h);
        drop(_silent);
        let cap = session.finish();
        assert_eq!(cap.instance_count(), 2);
        assert_eq!(cap.profiles.iter().filter(|p| !p.is_empty()).count(), 1);
    }

    #[test]
    fn events_after_finish_are_counted_dropped() {
        let session = Session::new();
        let mut h = session.register(site(1), DsKind::List, "i32");
        h.record(AccessKind::Insert, Target::Index(0), 1);
        h.flush();
        // Simulate a leaked structure that records after shutdown by closing
        // the session on another thread first.
        let inner = Arc::clone(&session.inner);
        let cap = session.finish();
        assert_eq!(cap.stats.events, 1);
        h.record(AccessKind::Read, Target::Index(0), 1);
        assert_eq!(inner.dropped.load(Ordering::Relaxed), 1);
        drop(h);
    }

    #[test]
    fn multithreaded_recording_attributes_threads() {
        let session = Session::new();
        let mut handles = Vec::new();
        for t in 0..4 {
            let mut h = session.register(site(t), DsKind::List, "u64");
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    h.record(AccessKind::Insert, Target::Index(i), i + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let cap = session.finish();
        assert_eq!(cap.event_count(), 400);
        // Each profile was driven by exactly one thread.
        for p in &cap.profiles {
            assert_eq!(p.threads().len(), 1);
            // And within a thread, sequence numbers are increasing.
            assert!(p.events.windows(2).all(|w| w[0].seq < w[1].seq));
        }
        // Different profiles saw different threads.
        let mut tags: Vec<_> = cap.profiles.iter().map(|p| p.threads()[0]).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 4);
    }

    #[test]
    fn shared_instance_across_threads() {
        // One structure accessed from several threads (via a mutex in real
        // code): simulate by moving the handle through a channel.
        let session = Session::new();
        let h = session.register(site(1), DsKind::List, "i32");
        let h = std::sync::Mutex::new(h);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for i in 0..50u32 {
                        h.lock()
                            .unwrap()
                            .record(AccessKind::Read, Target::Index(i), 100);
                    }
                });
            }
        });
        drop(h);
        let cap = session.finish();
        let p = &cap.profiles[0];
        assert_eq!(p.len(), 150);
        assert_eq!(p.threads().len(), 3);
        // One handle ships its batches in record order.
        assert!(p.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn bounded_channel_applies_backpressure_without_loss() {
        let session = Session::builder()
            .config(SessionConfig {
                batch_size: 1,
                channel_capacity: Some(2),
            })
            .start();
        let mut h = session.register(site(1), DsKind::List, "i32");
        for i in 0..1000u32 {
            h.record(AccessKind::Insert, Target::Index(i), i + 1);
        }
        drop(h);
        let cap = session.finish();
        assert_eq!(cap.event_count(), 1000);
        assert_eq!(cap.stats.dropped, 0);
    }
}
