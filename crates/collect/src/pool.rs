//! The session's batch pool: a bound on the batches in flight, and the
//! emptied batches the collector hands back for reuse.
//!
//! A handle ships a full buffer to the collector and keeps recording into
//! an empty one. Without a bound, a producer that outruns the collector
//! piles its batches up in the channel (32 KiB each at the default batch
//! size), and every ship allocates a fresh buffer. The pool caps the
//! batches shipped but not yet stored at [`MAX_BATCHES_IN_FLIGHT`] (or the
//! session's [`SessionConfig::channel_capacity`](crate::SessionConfig)),
//! and the collector returns each stored batch's buffer here, so shipping
//! reuses it instead of allocating.
//!
//! A producer at the cap waits until the backlog has drained to half the
//! cap, not for the next freed slot: waking on every freed slot makes the
//! producer and the collector take turns batch by batch, a convoy in which
//! some full-scale Mandelbrot sessions took three times their usual time.
//! The wait yields a few times before it parks, and its time goes to the
//! `session.backpressure_nanos` telemetry counter.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use dsspy_events::AccessEvent;
use dsspy_telemetry::Telemetry;
use parking_lot::{Condvar, Mutex};

/// The most batches a session has shipped but the collector has not yet
/// stored, unless [`SessionConfig::channel_capacity`](crate::SessionConfig)
/// sets another bound.
///
/// At the default 1024-event batch size this is 2 MiB of queued events,
/// and as much again of recycled buffers. On a 2-core host (`nproc` = 2),
/// 64 batches with a drain to 32 kept perfbench `profile` and `live` peak
/// RSS at or below the unbounded channel's while the producer ran at full
/// speed; the unbounded channel had piled up hundreds of batches behind a
/// producer that outran the collector.
pub const MAX_BATCHES_IN_FLIGHT: usize = 64;

/// How often a producer at the cap yields before it parks.
const SPINS: usize = 16;

/// Shared by a session's handles and its collector thread.
pub(crate) struct BatchPool {
    /// Batches shipped and not yet handed back. A count that publishes no
    /// data, so every access is `Relaxed`: the batches travel through the
    /// channel, and `state`'s lock orders a release against a waiting
    /// producer's check.
    in_flight: AtomicUsize,
    cap: usize,
    batch_size: usize,
    /// Set when the collector has exited: nothing will drain the backlog
    /// any more.
    disconnected: AtomicBool,
    state: Mutex<PoolState>,
    drained: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Emptied batches, at most `cap` of them.
    free: Vec<Vec<AccessEvent>>,
    /// Producers parked until the backlog drains.
    waiting: usize,
}

impl BatchPool {
    /// A pool bounding the batches in flight at `cap` (at least 1), whose
    /// buffers hold `batch_size` events.
    pub(crate) fn new(cap: usize, batch_size: usize) -> BatchPool {
        BatchPool {
            in_flight: AtomicUsize::new(0),
            cap: cap.max(1),
            batch_size,
            disconnected: AtomicBool::new(false),
            state: Mutex::new(PoolState::default()),
            drained: Condvar::new(),
        }
    }

    /// An empty buffer: a recycled batch when one is free, else a new one.
    pub(crate) fn buffer(&self) -> Vec<AccessEvent> {
        self.state
            .lock()
            .free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.batch_size))
    }

    /// Take a slot for one batch about to ship. At the cap, wait until the
    /// backlog drains to half of it (or the collector is gone), charging
    /// the wait to `telemetry`.
    pub(crate) fn reserve(&self, telemetry: &Telemetry) {
        let mut n = self.in_flight.load(Ordering::Relaxed);
        loop {
            if n >= self.cap {
                if !self.wait_for_drain(telemetry) {
                    // The collector is gone and the ship will fail; count
                    // the slot so that handing the batch back balances it.
                    self.in_flight.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                n = self.in_flight.load(Ordering::Relaxed);
                continue;
            }
            match self.in_flight.compare_exchange_weak(
                n,
                n + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => n = now,
            }
        }
    }

    /// Wait until the backlog is down to half the cap: `true` once it is,
    /// `false` when the collector is gone.
    #[cold]
    fn wait_for_drain(&self, telemetry: &Telemetry) -> bool {
        let start = Instant::now();
        let low = self.cap / 2;
        let drained = || self.in_flight.load(Ordering::Relaxed) <= low;
        let gone = || self.disconnected.load(Ordering::Relaxed);
        for _ in 0..SPINS {
            if drained() || gone() {
                break;
            }
            std::thread::yield_now();
        }
        let mut state = self.state.lock();
        if !drained() && !gone() {
            state.waiting += 1;
            while !drained() && !gone() {
                self.drained.wait(&mut state);
            }
            state.waiting -= 1;
        }
        drop(state);
        telemetry
            .counter("session.backpressure_nanos")
            .add(start.elapsed().as_nanos() as u64);
        !gone()
    }

    /// Hand back a shipped batch: the collector has stored it or dropped
    /// it, or it never reached the collector. Frees its slot, keeps its
    /// buffer for reuse, and wakes the parked producers once the backlog is
    /// down to half the cap.
    pub(crate) fn release(&self, batch: Vec<AccessEvent>) {
        let mut state = self.state.lock();
        self.keep(&mut state, batch);
        let left = self.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
        if state.waiting > 0 && left <= self.cap / 2 {
            self.drained.notify_all();
        }
    }

    /// Keep a buffer that never shipped (a dropped handle's) for reuse.
    pub(crate) fn recycle(&self, batch: Vec<AccessEvent>) {
        if batch.capacity() >= self.batch_size {
            self.keep(&mut self.state.lock(), batch);
        }
    }

    /// Empty `batch` into the free list, if it is a full-size buffer and
    /// the list has room.
    fn keep(&self, state: &mut PoolState, mut batch: Vec<AccessEvent>) {
        if state.free.len() < self.cap && batch.capacity() >= self.batch_size {
            batch.clear();
            state.free.push(batch);
        }
    }

    /// The collector has exited: wake every parked producer, and park no
    /// more.
    pub(crate) fn disconnect(&self) {
        let _state = self.state.lock();
        self.disconnected.store(true, Ordering::Relaxed);
        self.drained.notify_all();
    }

    /// Batches shipped and not yet handed back.
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for BatchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchPool")
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .field("cap", &self.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn released_batches_are_reused() {
        let pool = BatchPool::new(4, 8);
        pool.reserve(&Telemetry::disabled());
        let mut batch = pool.buffer();
        batch.push(AccessEvent::at(0, dsspy_events::AccessKind::Read, 0, 1));
        let at = batch.as_ptr();
        pool.release(batch);
        assert_eq!(pool.in_flight(), 0);
        let again = pool.buffer();
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), at, "the released buffer comes back");
    }

    #[test]
    fn a_producer_at_the_cap_waits_for_half_the_backlog() {
        let pool = Arc::new(BatchPool::new(4, 1));
        let telemetry = Telemetry::enabled();
        for _ in 0..4 {
            pool.reserve(&telemetry);
        }
        let producer = {
            let (pool, telemetry) = (Arc::clone(&pool), telemetry.clone());
            std::thread::spawn(move || pool.reserve(&telemetry))
        };
        std::thread::sleep(Duration::from_millis(20));
        pool.release(Vec::new());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "3 in flight is above the low mark");
        pool.release(Vec::new());
        producer.join().unwrap();
        assert_eq!(pool.in_flight(), 3);
        let waited = telemetry.snapshot().counter("session.backpressure_nanos");
        assert!(waited.unwrap_or(0) >= 20_000_000, "{waited:?}");
    }

    #[test]
    fn a_disconnected_pool_never_parks() {
        let pool = BatchPool::new(1, 1);
        pool.reserve(&Telemetry::disabled());
        pool.disconnect();
        pool.reserve(&Telemetry::disabled());
        assert_eq!(pool.in_flight(), 2);
        pool.release(Vec::new());
        pool.release(Vec::new());
        assert_eq!(pool.in_flight(), 0);
    }
}
