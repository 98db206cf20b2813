//! Session time: a global logical clock plus the session's wall-clock start.
//!
//! Every access event needs a *time stamp* (paper §IV). The atomic sequence
//! number is that stamp: a logical tick that totally orders the session's
//! events, and the clock the use-case thresholds that talk about *runtime
//! shares* (e.g. Long-Insert's ">30 % of runtime") measure spans on, so a
//! verdict does not move with host load. Wall time is read per session
//! (the collector stamps the duration at shutdown), never per event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dsspy_events::ThreadTag;

/// Source of event timestamps for one profiling session.
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

    /// Draw the next logical timestamp. Strictly increasing across all
    /// threads of the session; relaxed ordering suffices because the value
    /// itself carries the order.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of logical timestamps drawn so far.
    pub fn seq_count(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Nanoseconds elapsed since session start.
    #[inline]
    pub fn nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The instant the session started.
    pub(crate) fn started(&self) -> Instant {
        self.start
    }
}

impl Default for SessionClock {
    fn default() -> Self {
        SessionClock::new()
    }
}

/// Returns the calling thread's session-independent [`ThreadTag`].
///
/// Tags are assigned on first use per OS thread from a process-global
/// counter, so the first thread to record anything is `T0` (usually the main
/// thread), matching the paper's per-thread event attribution.
#[inline]
pub fn current_thread_tag() -> ThreadTag {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TAG: ThreadTag = ThreadTag(NEXT.fetch_add(1, Ordering::Relaxed) as u32);
    }
    TAG.with(|t| *t)
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
}
