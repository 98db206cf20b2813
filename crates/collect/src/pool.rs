//! The session's hand-off queue: the one structure between the handles that
//! ship batches and the collector thread that stores them.
//!
//! One lock, taken once per ship and once per receipt, guards the queued
//! batches and the stop marker, the emptied batches the collector hands back
//! for the next ship to refill, the count of batches in flight, capped at
//! [`MAX_BATCHES_IN_FLIGHT`], and whether the collector is parked.
//!
//! A producer at the cap waits until the backlog has drained to half the
//! cap, not for the next freed slot: waking on every freed slot makes the
//! producer and the collector take turns batch by batch, a convoy in which
//! some full-scale Mandelbrot sessions took three times their usual time.
//! The wait yields a few times before it parks, and its time goes to the
//! `session.backpressure_nanos` telemetry counter.
//!
//! A collector that keeps up finds the queue empty after almost every batch
//! and parks, and waking it on every ship costs a futex wake and a context
//! switch per batch. So a ship wakes a parked collector only once
//! [`WAKE_BATCHES`] batches are queued, or when it must wait at the cap; the
//! stop marker and the last sender's drop wake it at once. A parked
//! collector resumes by itself after [`IDLE_WAIT`], so a tap lags a quiet
//! producer by at most that; after a whole `IDLE_WAIT` with nothing queued
//! it sleeps until the next ship wakes it, so an idle session costs
//! nothing. Each resume adds 1 to the `collector.wakeups` counter.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dsspy_events::{AccessEvent, InstanceId};
use dsspy_telemetry::{Counter, Telemetry};

/// The most batches a session has shipped but the collector has not yet
/// stored, unless [`SessionConfig::channel_capacity`](crate::SessionConfig)
/// sets another bound.
///
/// At the default 1024-event batch size this is 2 MiB of queued events,
/// and as much again of recycled buffers. On a 2-core host (`nproc` = 2),
/// 64 batches with a drain to 32 kept perfbench `profile` and `live` peak
/// RSS at or below an unbounded queue's while the producer ran at full
/// speed; the unbounded queue had piled up hundreds of batches behind a
/// producer that outran the collector.
pub const MAX_BATCHES_IN_FLIGHT: usize = 64;

/// Queued batches at which a ship wakes a parked collector. Swept over
/// 1–48 on a 2-core host (`nproc` = 2), suite7 under bare sessions: 1 read
/// like waking on every ship, and 16 read lowest (CHANGES.md).
pub(crate) const WAKE_BATCHES: usize = 16;

/// How long a parked collector sleeps before it looks at the queue itself.
pub(crate) const IDLE_WAIT: Duration = Duration::from_millis(1);

/// How often a producer at the cap yields before it parks.
const SPINS: usize = 16;

/// What a handle hands the collector thread.
pub(crate) enum Msg {
    /// A batch of events for one instance, in per-thread order. The last
    /// field is the telemetry-clock time the batch was shipped (0 when
    /// telemetry is disabled), so the collector can report queue wait.
    Batch(InstanceId, Vec<AccessEvent>, u64),
    /// Session shutdown: drain whatever is already queued, then stop. The
    /// collector stamps the session's wall-clock duration when it takes this
    /// marker, so every batch shipped before shutdown is stored by then.
    Stop,
}

#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Park {
    #[default]
    Awake,
    /// Asleep for at most [`IDLE_WAIT`].
    Timed,
    /// Asleep until woken: a whole `IDLE_WAIT` passed with nothing queued.
    Idle,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Msg>,
    /// Emptied batches, at most `cap` of them.
    free: Vec<Vec<AccessEvent>>,
    /// Batches shipped and not yet handed back.
    in_flight: usize,
    /// Live [`Sender`]s: the session's and one per handle.
    senders: usize,
    park: Park,
    /// Producers parked until the backlog drains.
    waiting: usize,
    /// The collector has exited: a ship fails, and nobody waits.
    disconnected: bool,
}

struct Shared {
    state: Mutex<State>,
    /// The parked collector waits here.
    ready: Condvar,
    /// Producers at the cap wait here.
    drained: Condvar,
    cap: usize,
    batch_size: usize,
}

/// A queue bounding the batches in flight at `cap` (at least 1), whose
/// buffers hold `batch_size` events: the session's end and the collector's.
pub(crate) fn channel(cap: usize, batch_size: usize) -> (Sender, Receiver) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            senders: 1,
            ..State::default()
        }),
        ready: Condvar::new(),
        drained: Condvar::new(),
        cap: cap.max(1),
        batch_size,
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wake(&self, state: &mut State) {
        if state.park != Park::Awake {
            state.park = Park::Awake;
            self.ready.notify_one();
        }
    }

    /// Keep an emptied `batch` for reuse, if it is a full-size buffer and
    /// the free list has room.
    fn keep(&self, state: &mut State, mut batch: Vec<AccessEvent>) {
        if state.free.len() < self.cap && batch.capacity() >= self.batch_size {
            batch.clear();
            state.free.push(batch);
        }
    }

    /// Wait until the backlog is down to half the cap or the collector is
    /// gone, charging the wait to `telemetry`.
    #[cold]
    fn wait_for_drain<'a>(
        &'a self,
        mut state: MutexGuard<'a, State>,
        telemetry: &Telemetry,
    ) -> MutexGuard<'a, State> {
        let start = Instant::now();
        let drained = |s: &State| s.in_flight <= self.cap / 2 || s.disconnected;
        // A parked collector drains nothing.
        self.wake(&mut state);
        for _ in 0..SPINS {
            if drained(&state) {
                break;
            }
            drop(state);
            std::thread::yield_now();
            state = self.lock();
        }
        state.waiting += 1;
        while !drained(&state) {
            state = self
                .drained
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.waiting -= 1;
        telemetry
            .counter("session.backpressure_nanos")
            .add(start.elapsed().as_nanos() as u64);
        state
    }
}

/// The producers' end: held by the session and by every handle. The last
/// one dropped wakes the collector, which then stops once the queue is
/// empty.
pub(crate) struct Sender(Arc<Shared>);

impl Sender {
    /// An empty buffer: a recycled batch when one is free, else a new one.
    pub(crate) fn buffer(&self) -> Vec<AccessEvent> {
        let free = self.0.lock().free.pop();
        free.unwrap_or_else(|| Vec::with_capacity(self.0.batch_size))
    }

    /// Queue `batch` for instance `id`, first waiting at the cap until the
    /// backlog drains to half of it. Returns the buffer to record into next
    /// (a recycled batch when one is free), or `batch` itself when the
    /// collector is gone.
    pub(crate) fn ship(
        &self,
        id: InstanceId,
        batch: Vec<AccessEvent>,
        telemetry: &Telemetry,
    ) -> Result<Vec<AccessEvent>, Vec<AccessEvent>> {
        let shared = &*self.0;
        let mut state = shared.lock();
        if state.in_flight >= shared.cap && !state.disconnected {
            state = shared.wait_for_drain(state, telemetry);
        }
        if state.disconnected {
            return Err(batch);
        }
        state.in_flight += 1;
        let sent_nanos = telemetry.now_nanos();
        state.queue.push_back(Msg::Batch(id, batch, sent_nanos));
        if state.queue.len() >= WAKE_BATCHES || state.park == Park::Idle {
            shared.wake(&mut state);
        }
        let free = state.free.pop();
        drop(state);
        Ok(free.unwrap_or_else(|| Vec::with_capacity(shared.batch_size)))
    }

    /// Keep a buffer that never shipped (a dropped handle's) for reuse.
    pub(crate) fn recycle(&self, batch: Vec<AccessEvent>) {
        self.0.keep(&mut self.0.lock(), batch);
    }

    /// Queue the stop marker and wake the collector.
    pub(crate) fn stop(&self) {
        let mut state = self.0.lock();
        state.queue.push_back(Msg::Stop);
        self.0.wake(&mut state);
    }
}

impl Clone for Sender {
    fn clone(&self) -> Sender {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl Drop for Sender {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.senders -= 1;
        if state.senders == 0 {
            self.0.wake(&mut state);
        }
    }
}

/// The collector's end. Dropping it, when the collector thread ends by
/// return or by panic, disconnects the queue, so no producer waits on a
/// collector that is gone.
pub(crate) struct Receiver(Arc<Shared>);

impl Receiver {
    /// Hand back `done`, the batch just stored, and take the next message
    /// with the number of messages queued behind it, parking while nothing
    /// is queued; `None` once nothing is queued and every sender is gone.
    /// Each resume from a park adds 1 to `wakeups`.
    pub(crate) fn next(
        &mut self,
        done: Option<Vec<AccessEvent>>,
        wakeups: &Counter,
    ) -> Option<(Msg, usize)> {
        let shared = &*self.0;
        let mut state = shared.lock();
        if let Some(batch) = done {
            shared.keep(&mut state, batch);
            state.in_flight -= 1;
            if state.waiting > 0 && state.in_flight <= shared.cap / 2 {
                shared.drained.notify_all();
            }
        }
        let mut park = Park::Timed;
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Some((msg, state.queue.len()));
            }
            if state.senders == 0 {
                return None;
            }
            state.park = park;
            let wait = if park == Park::Idle {
                Duration::MAX
            } else {
                IDLE_WAIT
            };
            let (woken, timeout) =
                (shared.ready.wait_timeout(state, wait)).unwrap_or_else(PoisonError::into_inner);
            state = woken;
            state.park = Park::Awake;
            wakeups.inc();
            if timeout.timed_out() && state.queue.is_empty() {
                park = Park::Idle;
            }
        }
    }

    /// Disconnect the queue and take what is still queued: nothing ships
    /// after this, and every producer waiting at the cap returns.
    pub(crate) fn close(&mut self) -> VecDeque<Msg> {
        let mut state = self.0.lock();
        state.disconnected = true;
        self.0.drained.notify_all();
        std::mem::take(&mut state.queue)
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::AccessKind;
    use std::time::Duration;

    const ID: InstanceId = InstanceId(0);

    fn batch() -> Vec<AccessEvent> {
        vec![AccessEvent::at(0, AccessKind::Read, 0, 1)]
    }

    fn in_flight(tx: &Sender) -> usize {
        tx.0.lock().in_flight
    }

    #[test]
    fn released_batches_are_reused() {
        let (tx, mut rx) = channel(4, 1);
        let off = Telemetry::disabled();
        let first = tx.ship(ID, batch(), &off).unwrap();
        let (Msg::Batch(_, stored, _), 0) = rx.next(None, &off.counter("w")).unwrap() else {
            panic!("the batch comes back first");
        };
        let at = stored.as_ptr();
        tx.ship(ID, first, &off).unwrap();
        rx.next(Some(stored), &off.counter("w")).unwrap();
        assert_eq!(in_flight(&tx), 1);
        let again = tx.ship(ID, batch(), &off).unwrap();
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), at, "the stored buffer comes back");
    }

    #[test]
    fn a_producer_at_the_cap_waits_for_half_the_backlog() {
        let (tx, mut rx) = channel(4, 1);
        let telemetry = Telemetry::enabled();
        for _ in 0..4 {
            tx.ship(ID, batch(), &telemetry).unwrap();
        }
        let producer = {
            let (tx, telemetry) = (tx.clone(), telemetry.clone());
            std::thread::spawn(move || tx.ship(ID, batch(), &telemetry).is_ok())
        };
        let wakeups = telemetry.counter("w");
        let mut take = |done| match rx.next(done, &wakeups) {
            Some((Msg::Batch(_, b, _), _)) => b,
            _ => panic!("a queued batch"),
        };
        let mut held = take(None);
        std::thread::sleep(Duration::from_millis(20));
        held = take(Some(held));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "3 in flight is above the low mark");
        take(Some(held));
        assert!(producer.join().unwrap());
        assert_eq!(in_flight(&tx), 3);
        let waited = telemetry.snapshot().counter("session.backpressure_nanos");
        assert!(waited.unwrap_or(0) >= 20_000_000, "{waited:?}");
    }

    #[test]
    fn a_disconnected_pool_never_parks() {
        let (tx, mut rx) = channel(1, 1);
        let off = Telemetry::disabled();
        tx.ship(ID, batch(), &off).unwrap();
        let queued = rx.close();
        assert_eq!(queued.len(), 1);
        let lost = tx.ship(ID, batch(), &off).unwrap_err();
        assert_eq!(lost.len(), 1, "the batch comes back to be counted lost");
    }

    #[test]
    fn a_collector_that_panics_disconnects_the_queue() {
        let (tx, rx) = channel(1, 1);
        let off = Telemetry::disabled();
        tx.ship(ID, batch(), &off).unwrap();
        let producer = {
            let tx = tx.clone();
            // At the cap: this waits until the collector is gone.
            std::thread::spawn(move || tx.ship(ID, batch(), &Telemetry::disabled()))
        };
        std::thread::sleep(Duration::from_millis(20));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let collector = std::thread::spawn(move || {
            let _rx = rx;
            panic!("collector blew up");
        });
        assert!(collector.join().is_err());
        std::panic::set_hook(hook);
        assert!(producer.join().unwrap().is_err(), "the waiting ship fails");
        assert!(tx.ship(ID, batch(), &off).is_err());
    }

    #[test]
    fn a_ship_wakes_a_parked_collector_only_once_a_burst_is_queued() {
        let off = Telemetry::disabled();
        let (tx, _rx) = channel(64, 1);
        tx.0.lock().park = Park::Timed;
        for _ in 0..WAKE_BATCHES - 1 {
            tx.ship(ID, batch(), &off).unwrap();
        }
        assert!(tx.0.lock().park == Park::Timed, "woken before a burst");
        tx.ship(ID, batch(), &off).unwrap();
        assert!(tx.0.lock().park == Park::Awake, "a burst wakes it");
        // A collector that slept through a whole IDLE_WAIT waits for a wake.
        let (tx, _rx) = channel(64, 1);
        tx.0.lock().park = Park::Idle;
        tx.ship(ID, batch(), &off).unwrap();
        assert!(tx.0.lock().park == Park::Awake, "the first ship wakes it");
    }

    #[test]
    fn a_parked_collector_takes_a_short_burst_by_itself() {
        let (tx, mut rx) = channel(64, 1);
        let telemetry = Telemetry::enabled();
        let wakeups = telemetry.counter("collector.wakeups");
        let collector = std::thread::spawn(move || {
            let mut done = None;
            let mut stored = 0;
            while let Some((Msg::Batch(_, b, _), _)) = rx.next(done.take(), &wakeups) {
                stored += 1;
                done = Some(b);
            }
            stored
        });
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..WAKE_BATCHES - 1 {
            tx.ship(ID, batch(), &telemetry).unwrap();
        }
        let start = Instant::now();
        while in_flight(&tx) > 0 {
            assert!(start.elapsed() < Duration::from_secs(5), "never resumed");
            std::thread::sleep(Duration::from_millis(1));
        }
        tx.stop();
        drop(tx);
        assert_eq!(collector.join().unwrap(), WAKE_BATCHES - 1);
        let resumed = telemetry.snapshot().counter("collector.wakeups");
        assert!(resumed.unwrap_or(0) > 0, "{resumed:?}");
    }
}
