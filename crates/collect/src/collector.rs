//! The background collector thread and the post-mortem capture it produces.
//!
//! DSspy "keeps the execution slowdown low by only recording the access
//! events at runtime and analyzing them post-mortem", running the analysis
//! module concurrently and feeding it "via asynchronous intra-process
//! communication" (§IV). The collector thread here plays that role: it takes
//! the batches from the session's hand-off queue (`pool.rs`) a burst
//! at a time, encodes every batch on arrival into its instance's v4 body
//! (about 4 bytes per event, see [`crate::store`]) and hands the emptied
//! batch back to the queue for the producers to refill, so the profiled code
//! never touches a shared log and the capture is ready to save when the
//! session ends.

use std::thread::JoinHandle;
use std::time::Instant;

use dsspy_events::{AccessEvent, InstanceId, RuntimeProfile};
use dsspy_telemetry::{
    overhead::signals, FlightEventKind, IncidentTrigger, Telemetry, TraceContext,
};
use serde::{Deserialize, Serialize};

use crate::fanout::TapFanout;
use crate::pool::{Msg, Receiver};
use crate::store::{Profiles, Store};

/// Queue depth behind a batch above which an armed flight recorder logs a
/// `QueueWatermark` incident (once per upward crossing).
pub const QUEUE_WATERMARK: u64 = 4096;

/// Observer of the collector's batch path — the subscription point for
/// streaming consumers (`dsspy-stream`'s `StreamingAnalyzer` attaches here).
/// A tap is always a subscriber of a [`TapFanout`]: the collector drives
/// only the fan-out, which delivers to each subscriber behind
/// `catch_unwind`, so a panicking tap cannot take the collector down.
///
/// The tap runs *on the collector thread*: it sees every stored batch, in
/// arrival order, before the batch is stored with its instance's events.
/// Batches queued after `Msg::Stop` — the ones counted into
/// [`CollectorStats::dropped`] — are **not** tapped, so a tap observes
/// exactly the events that end up in the session's [`Capture`].
///
/// Implementations should be quick: time spent in the tap is collector busy
/// time and is attributed to `collector.batch_handle_nanos` when telemetry
/// is enabled.
pub trait CollectorTap: Send {
    /// One stored batch: its causal coordinates (`ctx.batch_seq` is the
    /// 1-based arrival ordinal on this collector thread), the instance it
    /// belongs to, its events (per-thread chronological order), and the
    /// queue depth observed *behind* this batch — the backpressure
    /// signal.
    fn on_batch(
        &mut self,
        ctx: TraceContext,
        id: InstanceId,
        events: &[AccessEvent],
        queue_depth: usize,
    );

    /// Session shutdown, after the post-stop drain. `ctx.batch_seq` carries
    /// the sequence of the *last* stored batch (0 when the session stored
    /// none); `session_nanos` is the session duration the collector stamped
    /// on taking `Msg::Stop` (or on the last sender going), the same
    /// value the session's [`Capture`] carries.
    fn on_stop(&mut self, ctx: TraceContext, stats: &CollectorStats, session_nanos: u64);
}

/// Counters describing what the collector saw. Used by the evaluation to
/// report profiling volume alongside slowdown (Table IV).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectorStats {
    /// Total events received and stored.
    pub events: u64,
    /// Number of batches those events arrived in.
    pub batches: u64,
    /// Events dropped because they were recorded after session shutdown.
    pub dropped: u64,
}

/// Spawn the collector thread on `rx` for a session that began at `started`.
///
/// The thread hands back the store of encoded events, its counters and the
/// session duration it stamped. It accumulates events
/// until it sees [`Msg::Stop`] (or all senders are gone), then stamps the
/// session duration — it is the one writer of `session_nanos`, so the
/// collector's busy time can never exceed it. The queue is FIFO, so every
/// batch flushed before shutdown is received — and stored — before the
/// `Stop` marker. Then it closes the queue: the batches queued *after* the
/// marker were recorded after session shutdown and are only counted, into
/// [`CollectorStats::dropped`], and a later ship fails and is counted by its
/// handle. Every batch taken goes back to the queue, which frees its slot;
/// when the thread exits, by return or by panic, the queue is closed, so no
/// producer waits on it.
///
/// When `telemetry` is enabled the thread reports its own behaviour: queue
/// depth sampled at every batch receipt (and its peak — this thread is the
/// only writer of both gauges), `collector.events`/`collector.batches`
/// counters advanced per stored batch so a live scrape sees the session's
/// pulse, batch size and queue-wait histograms, per-batch handling time,
/// the total busy time that feeds the Table IV-style overhead accountant,
/// and `collector.wakeups`, one per resume from a park. The disabled path
/// costs one branch per batch. When the handle has an armed flight
/// recorder, batch receipts, drops and queue-watermark crossings are
/// recorded into it.
pub(crate) fn spawn(
    mut rx: Receiver,
    started: Instant,
    telemetry: Telemetry,
    session_id: u64,
    mut tap: Option<Box<TapFanout>>,
) -> JoinHandle<(Store, CollectorStats, u64)> {
    std::thread::Builder::new()
        .name("dsspy-collector".into())
        .spawn(move || {
            // Handles resolved once, outside the receive loop.
            let queue_depth = telemetry.gauge("collector.queue_depth");
            let queue_hwm = telemetry.gauge("collector.queue_depth_hwm");
            let batch_events = telemetry.histogram("collector.batch_events");
            let batch_wait = telemetry.histogram("collector.batch_wait_nanos");
            let batch_handle = telemetry.histogram("collector.batch_handle_nanos");
            let busy = telemetry.counter(signals::COLLECTOR_BUSY);
            let events_stored = telemetry.counter("collector.events");
            let batches_stored = telemetry.counter("collector.batches");
            let wakeups = telemetry.counter("collector.wakeups");
            let enabled = telemetry.is_enabled();
            let flight = telemetry.flight();
            // Latched so a sustained breach is one incident, not one per
            // batch; re-arms once the queue falls back under the watermark.
            let mut above_watermark = false;
            flight.record(
                TraceContext::new(session_id, 0),
                FlightEventKind::SessionStart,
            );

            let mut stored = Store::default();
            let mut stats = CollectorStats::default();
            // Phase 1: normal operation until Stop (or all senders gone).
            // `depth` is what is still queued after we took ours: the
            // backpressure signal both telemetry and the tap consume.
            let mut done = None;
            while let Some((msg, depth)) = rx.next(done.take(), &wakeups) {
                let Msg::Batch(id, batch, sent_nanos) = msg else {
                    break;
                };
                let start_nanos = if enabled {
                    queue_depth.set(depth as u64);
                    queue_hwm.set_max(depth as u64);
                    let now = telemetry.now_nanos();
                    batch_wait.record(now.saturating_sub(sent_nanos));
                    batch_events.record(batch.len() as u64);
                    now
                } else {
                    0
                };
                let ctx = TraceContext::new(session_id, stats.batches + 1);
                if flight.is_enabled() {
                    flight.record(
                        ctx,
                        FlightEventKind::BatchReceived {
                            instance: id.0,
                            events: batch.len() as u64,
                            queue_depth: depth as u64,
                        },
                    );
                    if depth as u64 > QUEUE_WATERMARK {
                        if !above_watermark {
                            above_watermark = true;
                            flight.incident(
                                ctx,
                                None,
                                IncidentTrigger::QueueWatermark {
                                    queue_depth: depth as u64,
                                    watermark: QUEUE_WATERMARK,
                                },
                            );
                        }
                    } else {
                        above_watermark = false;
                    }
                }
                if let Some(tap) = tap.as_deref_mut() {
                    tap.on_batch(ctx, id, &batch, depth);
                }
                let events = batch.len() as u64;
                stats.events += events;
                stats.batches += 1;
                stored.store(id, &batch);
                if enabled {
                    let spent = telemetry.now_nanos().saturating_sub(start_nanos);
                    batch_handle.record(spent);
                    busy.add(spent);
                    events_stored.add(events);
                    batches_stored.inc();
                }
                done = Some(batch);
            }
            let session_nanos = started.elapsed().as_nanos() as u64;
            // Phase 2: close the queue and count the post-shutdown
            // stragglers without storing them. Dropped batches are *not*
            // tapped: a tap mirrors the capture, and the capture excludes
            // them too.
            for msg in rx.close() {
                if let Msg::Batch(_, batch, _) = msg {
                    stats.dropped += batch.len() as u64;
                }
            }
            let stop_ctx = TraceContext::new(session_id, stats.batches);
            if stats.dropped > 0 {
                // The drop counter moved: that is an incident — events the
                // profiled program recorded are not in the capture.
                flight.incident(
                    stop_ctx,
                    None,
                    IncidentTrigger::DropSpike {
                        dropped: stats.dropped,
                    },
                );
            }
            if let Some(tap) = tap.as_deref_mut() {
                tap.on_stop(stop_ctx, &stats, session_nanos);
            }
            flight.record(
                stop_ctx,
                FlightEventKind::SessionStop {
                    events: stats.events,
                    batches: stats.batches,
                    dropped: stats.dropped,
                },
            );
            // The queue is fully drained; leave the gauge reflecting that,
            // and publish the post-stop drops alongside `CollectorStats`.
            queue_depth.set(0);
            telemetry.counter("collector.dropped").add(stats.dropped);
            (stored, stats, session_nanos)
        })
        .expect("failed to spawn dsspy collector thread")
}

/// The result of a finished profiling session: one [`RuntimeProfile`] per
/// registered instance (instances that were never accessed get an empty
/// profile — they still count toward the search-space denominator in §V),
/// plus collection statistics.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Per-instance profiles in registration order, held as sealed v4
    /// bodies and decoded on first read (see [`Profiles`]).
    pub profiles: Profiles,
    /// What the collector saw.
    pub stats: CollectorStats,
    /// Wall-clock duration of the session, in nanoseconds.
    pub session_nanos: u64,
    /// Telemetry recorded while the session ran (collector histograms,
    /// queue pressure, drop counts) — `Some` only for captures produced by
    /// an observed [`Session`](crate::Session) or loaded from a file that
    /// embedded one. Persistence carries it in the capture header, so
    /// offline analysis can merge collection-time signals into its own
    /// snapshot.
    pub collection_telemetry: Option<dsspy_telemetry::TelemetrySnapshot>,
}

impl Capture {
    /// Build a capture of `profiles` (generated profiles, synthetic captures
    /// in tests), encoding each one's events once into its sealed body, as
    /// a session would have. Reading `profiles` back decodes them.
    pub fn new(
        profiles: Vec<RuntimeProfile>,
        stats: CollectorStats,
        session_nanos: u64,
    ) -> Capture {
        Capture {
            profiles: profiles.into(),
            stats,
            session_nanos,
            collection_telemetry: None,
        }
    }

    /// Number of registered instances (the search-space denominator).
    pub fn instance_count(&self) -> usize {
        self.profiles.instance_count()
    }

    /// Total events across all profiles.
    pub fn event_count(&self) -> usize {
        self.profiles.event_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{channel, Sender};
    use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceInfo};

    /// A queue with room for every batch a test queues.
    fn queue() -> (Sender, Receiver) {
        channel(QUEUE_WATERMARK as usize + 16, 1)
    }

    /// Ship `events` for `id` as a handle does.
    fn ship(tx: &Sender, id: InstanceId, events: Vec<AccessEvent>) {
        tx.ship(id, events, &Telemetry::disabled()).unwrap();
    }

    fn info(id: u64) -> InstanceInfo {
        InstanceInfo::new(
            InstanceId(id),
            AllocationSite::new("C", "m", id as u32),
            DsKind::List,
            "i32",
        )
    }

    #[test]
    fn collector_thread_drains_after_stop() {
        let (tx, rx) = queue();
        let join = spawn(rx, Instant::now(), Telemetry::disabled(), 1, None);
        ship(
            &tx,
            InstanceId(0),
            vec![AccessEvent::at(0, AccessKind::Insert, 0, 1)],
        );
        tx.stop();
        // Queued before the collector exits its drain loop is not guaranteed
        // for sends *after* Stop, but sends before Stop must be stored.
        let (stored, stats, _) = join.join().unwrap();
        assert_eq!(stats.events, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stored.seal(vec![info(0)])[0].len(), 1);
    }

    #[test]
    fn batches_after_stop_are_counted_as_dropped() {
        let (tx, rx) = queue();
        // Queue Stop and then a late batch *before* the collector starts:
        // FIFO delivery then guarantees the batch is seen after the Stop
        // marker, i.e. in the post-shutdown drain.
        tx.stop();
        ship(
            &tx,
            InstanceId(9),
            vec![
                AccessEvent::at(0, AccessKind::Insert, 0, 1),
                AccessEvent::at(1, AccessKind::Insert, 1, 2),
            ],
        );
        let (stored, stats, _) = spawn(rx, Instant::now(), Telemetry::disabled(), 1, None)
            .join()
            .unwrap();
        assert_eq!(
            stored.instances_with_events(),
            0,
            "post-shutdown events must not be stored"
        );
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.events, 0);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn queue_watermark_crossing_is_one_incident() {
        // Queue the batches and Stop before the collector starts, so the
        // depth behind each of the first batches is above the watermark.
        let (tx, rx) = queue();
        let batches = QUEUE_WATERMARK + 8;
        for i in 0..batches {
            ship(
                &tx,
                InstanceId(0),
                vec![AccessEvent::at(
                    i,
                    AccessKind::Insert,
                    i as u32,
                    i as u32 + 1,
                )],
            );
        }
        tx.stop();
        let telemetry = Telemetry::enabled().with_flight(None);
        let (_, stats, _) = spawn(rx, Instant::now(), telemetry.clone(), 1, None)
            .join()
            .unwrap();
        assert_eq!(stats.batches, batches);
        let incidents = telemetry.flight().dump().incidents;
        assert_eq!(incidents.len(), 1, "{incidents:?}");
        assert_eq!(incidents[0].trigger.tag(), "queue-watermark");
        let IncidentTrigger::QueueWatermark {
            queue_depth,
            watermark,
        } = incidents[0].trigger
        else {
            unreachable!()
        };
        assert_eq!(watermark, QUEUE_WATERMARK);
        assert!(queue_depth > QUEUE_WATERMARK, "depth {queue_depth}");
    }

    #[test]
    fn collector_thread_stops_when_senders_drop() {
        let (tx, rx) = queue();
        let join = spawn(rx, Instant::now(), Telemetry::disabled(), 1, None);
        ship(
            &tx,
            InstanceId(3),
            vec![AccessEvent::at(0, AccessKind::Read, 0, 1)],
        );
        drop(tx);
        let (stored, stats, _) = join.join().unwrap();
        assert_eq!(stats.events, 1);
        let profiles = stored.seal((0..4).map(info).collect());
        let lens: Vec<usize> = profiles.iter().map(|p| p.len()).collect();
        assert_eq!(lens, [0, 0, 0, 1]);
    }

    #[test]
    fn tap_sees_stored_batches_but_not_dropped_ones() {
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Seen {
            batches: Vec<(u64, InstanceId, usize)>,
            stopped: Option<(CollectorStats, u64)>,
        }
        struct RecordingTap(Arc<Mutex<Seen>>);
        impl CollectorTap for RecordingTap {
            fn on_batch(
                &mut self,
                ctx: TraceContext,
                id: InstanceId,
                events: &[AccessEvent],
                _depth: usize,
            ) {
                assert_eq!(ctx.session, 7, "tap sees the spawning session's id");
                self.0
                    .lock()
                    .unwrap()
                    .batches
                    .push((ctx.batch_seq, id, events.len()));
            }
            fn on_stop(&mut self, ctx: TraceContext, stats: &CollectorStats, session_nanos: u64) {
                assert_eq!(
                    ctx.batch_seq, stats.batches,
                    "stop carries the last batch seq"
                );
                self.0.lock().unwrap().stopped = Some((*stats, session_nanos));
            }
        }

        let seen = Arc::new(Mutex::new(Seen::default()));
        let (tx, rx) = queue();
        // Queue everything *before* spawning: FIFO delivery then guarantees
        // the straggler is seen after Stop, i.e. in the post-shutdown drain.
        ship(
            &tx,
            InstanceId(1),
            vec![AccessEvent::at(0, AccessKind::Insert, 0, 1)],
        );
        ship(
            &tx,
            InstanceId(2),
            vec![
                AccessEvent::at(1, AccessKind::Insert, 0, 1),
                AccessEvent::at(2, AccessKind::Insert, 1, 2),
            ],
        );
        tx.stop();
        // Post-stop straggler: dropped, must not reach the tap.
        ship(
            &tx,
            InstanceId(3),
            vec![AccessEvent::at(3, AccessKind::Read, 0, 2)],
        );
        drop(tx);
        // A session that began 5 ms ago: the stamp taken at Stop covers it.
        let started = Instant::now() - std::time::Duration::from_millis(5);
        let (_, stats, session_nanos) = spawn(
            rx,
            started,
            Telemetry::disabled(),
            7,
            Some(Box::new(TapFanout::new().with_subscriber(
                "recording",
                Box::new(RecordingTap(Arc::clone(&seen))),
            ))),
        )
        .join()
        .unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(
            seen.batches,
            vec![(1, InstanceId(1), 1), (2, InstanceId(2), 2)],
            "tap sees stored batches in arrival order with 1-based seqs, and only those"
        );
        let (tap_stats, nanos) = seen.stopped.expect("on_stop fired");
        assert!(session_nanos >= 5_000_000, "stamped from the session start");
        assert_eq!(nanos, session_nanos, "the tap sees the capture's stamp");
        assert_eq!(tap_stats, stats);
        assert_eq!(stats.dropped, 1);
    }
}
