//! Event time: a Lamport clock per thread and per instance, plus the
//! session's wall-clock start.
//!
//! Every access event needs a *time stamp* (paper §IV). Here it is a
//! logical tick, and the clock the use-case thresholds that talk about
//! *runtime shares* (e.g. Long-Insert's ">30 % of runtime") measure spans
//! on, so a verdict does not move with host load.
//!
//! The tick touches no shared state. Each thread keeps its own tick in one
//! `const` thread-local, next to its [`ThreadTag`], and each
//! [`InstanceHandle`](crate::InstanceHandle) keeps the next tick of its
//! instance. An event is stamped `seq = max(thread tick, instance tick)`,
//! and both advance past it (a Lamport clock, with the instance as the
//! message between threads):
//!
//! * an instance's stamps are strictly increasing, whichever threads touch
//!   it;
//! * an event a thread records after another is stamped later, on any
//!   instance;
//! * on a session that records on one thread only, the stamps are exactly
//!   `0..events`, the order in which the events were recorded.
//!
//! Stamps of different instances recorded on different threads may be
//! equal: only one instance's stamps, or one thread's, are a total order.
//! The thread cell is scoped to a session. When a different session records
//! on the thread, the thread's tick restarts at 0 for it; the instance
//! ticks keep every instance's stamps increasing across such a switch.
//!
//! Wall time is read per session (the collector stamps the duration at
//! shutdown), never per event. [`SessionClock`] keeps the shared atomic
//! counter the stamp used to be, for probes that time it.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dsspy_events::ThreadTag;

/// A shared atomic sequence counter and a wall-clock start.
///
/// Recording no longer draws from it (see the module docs); it remains the
/// reference point for what a session-global tick costs.
#[derive(Debug)]
pub struct SessionClock {
    seq: AtomicU64,
    start: Instant,
}

impl SessionClock {
    /// Create a clock anchored at "now".
    pub fn new() -> Self {
        SessionClock {
            seq: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Draw the next number of the shared sequence: strictly increasing
    /// across all threads; relaxed ordering suffices because the value
    /// itself carries the order.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of sequence numbers drawn so far.
    pub fn seq_count(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Nanoseconds elapsed since the clock was created.
    #[inline]
    pub fn nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Default for SessionClock {
    fn default() -> Self {
        SessionClock::new()
    }
}

/// A thread's tag and its tick in the session it last recorded for. Each
/// field is a cell of its own, so a stamp reads and writes single words.
struct ThreadClock {
    /// The session the tick counts for; 0 (no session id) before the first
    /// event.
    session: Cell<u64>,
    tick: Cell<u64>,
    /// [`NO_TAG`] until the thread first needs its tag.
    tag: Cell<u32>,
}

const NO_TAG: u32 = u32::MAX;

thread_local! {
    static THREAD: ThreadClock = const {
        ThreadClock {
            session: Cell::new(0),
            tick: Cell::new(0),
            tag: Cell::new(NO_TAG),
        }
    };
}

impl ThreadClock {
    /// This thread's tag, assigned on first use.
    #[inline]
    fn tag(&self) -> ThreadTag {
        let mut tag = self.tag.get();
        if tag == NO_TAG {
            tag = Self::next_tag();
            self.tag.set(tag);
        }
        ThreadTag(tag)
    }

    #[cold]
    fn next_tag() -> u32 {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Count this thread's ticks for `session` from 0.
    #[cold]
    fn enter(&self, session: u64) {
        self.session.set(session);
        self.tick.set(0);
    }
}

/// Stamp one event of `session` that the calling thread records on an
/// instance whose next tick is `instance_tick`: returns the event's `seq`
/// and the thread's tag, and advances both ticks past the stamp.
#[inline]
pub(crate) fn stamp(session: u64, instance_tick: &mut u64) -> (u64, ThreadTag) {
    THREAD.with(|clock| {
        if clock.session.get() != session {
            clock.enter(session);
        }
        let seq = clock.tick.get().max(*instance_tick);
        clock.tick.set(seq + 1);
        *instance_tick = seq + 1;
        (seq, clock.tag())
    })
}

/// Returns the calling thread's session-independent [`ThreadTag`].
///
/// Tags are assigned on first use per OS thread from a process-global
/// counter, so the first thread to record anything is `T0` (usually the main
/// thread), matching the paper's per-thread event attribution.
#[inline]
pub fn current_thread_tag() -> ThreadTag {
    THREAD.with(ThreadClock::tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn sequence_is_strictly_increasing() {
        let clock = SessionClock::new();
        let a = clock.next_seq();
        let b = clock.next_seq();
        let c = clock.next_seq();
        assert!(a < b && b < c);
        assert_eq!(clock.seq_count(), 3);
    }

    #[test]
    fn sequence_unique_across_threads() {
        let clock = Arc::new(SessionClock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.next_seq()).collect::<Vec<u64>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for s in h.join().unwrap() {
                assert!(all.insert(s), "duplicate sequence number {s}");
            }
        }
        assert_eq!(all.len(), 8000);
    }

    #[test]
    fn nanos_is_monotonic() {
        let clock = SessionClock::new();
        let a = clock.nanos();
        let b = clock.nanos();
        assert!(b >= a);
    }

    #[test]
    fn thread_tags_stable_within_thread_distinct_across() {
        let here = current_thread_tag();
        assert_eq!(here, current_thread_tag(), "tag must be stable per thread");
        let other = std::thread::spawn(current_thread_tag).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn stamps_follow_the_later_of_thread_and_instance() {
        std::thread::spawn(|| {
            let session = u64::MAX - 1;
            let (mut a, mut b) = (0, 0);
            assert_eq!(stamp(session, &mut a).0, 0);
            assert_eq!(stamp(session, &mut a).0, 1);
            // A fresh instance on this thread starts at the thread's tick.
            assert_eq!(stamp(session, &mut b).0, 2);
            // An instance that ran ahead on another thread pulls the thread
            // tick forward.
            let mut ahead = 10;
            assert_eq!(stamp(session, &mut ahead).0, 10);
            assert_eq!(stamp(session, &mut a).0, 11);
            assert_eq!((a, ahead), (12, 11));
            // Another session restarts the thread tick; the tag stays.
            let tag = stamp(session, &mut a).1;
            let mut other = 0;
            assert_eq!(stamp(session - 1, &mut other), (0, tag));
            assert_eq!(tag, current_thread_tag());
        })
        .join()
        .unwrap();
    }
}
