//! Thread-interaction analysis.
//!
//! "We want to be able to support single- and multithreaded code so we are
//! aware of access events that occur in parallel. In order to detect
//! successive access events we also capture the thread id and bind it to
//! each access event" (§IV). Beyond per-thread untangling (which the miner
//! already does), the thread dimension answers a question the classifier
//! needs: *is this instance already accessed in parallel?* Recommending
//! "parallelize the insert" for a structure that several threads already
//! hammer concurrently would be advice the engineer has already taken.
//!
//! [`crate::incremental::IncrementalAnalyzer`] maintains a [`ThreadProfile`]
//! one event at a time from its per-thread slots, counting a switch each
//! time the thread changes; [`crate::analysis::analyze`] reports it.

use dsspy_events::ThreadTag;
use serde::{Deserialize, Serialize};

/// Thread-level facts about one profile.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadProfile {
    /// Distinct threads that touched the instance.
    pub thread_count: usize,
    /// Events per thread, descending.
    pub events_per_thread: Vec<(ThreadTag, usize)>,
    /// Number of adjacent event pairs whose threads differ — high switch
    /// counts mean fine-grained interleaving (true sharing), low counts
    /// mean phase-wise handoff.
    pub switches: usize,
    /// Share of events belonging to the busiest thread, in `(0, 1]`.
    pub dominant_share: f64,
}

impl ThreadProfile {
    /// Whether the instance is effectively single-threaded (one thread, or
    /// one thread doing ≥ `share` of the traffic with phase-wise handoff).
    pub fn effectively_single_threaded(&self, share: f64) -> bool {
        self.thread_count <= 1 || (self.dominant_share >= share && self.switches <= 2)
    }

    /// Whether the instance is accessed concurrently in an interleaved way.
    pub fn is_shared_concurrently(&self) -> bool {
        self.thread_count > 1 && self.switches > 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::run::MinerConfig;
    use dsspy_events::{
        AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
    };

    fn threads_of(profile: &RuntimeProfile) -> ThreadProfile {
        analyze(profile, &MinerConfig::default()).threads
    }

    fn profile(events: Vec<AccessEvent>) -> RuntimeProfile {
        RuntimeProfile::new(
            InstanceInfo::new(
                InstanceId(0),
                AllocationSite::new("T", "m", 1),
                DsKind::List,
                "i32",
            ),
            events,
        )
    }

    fn ev(seq: u64, thread: u32) -> AccessEvent {
        let mut e = AccessEvent::at(seq, AccessKind::Read, (seq % 10) as u32, 10);
        e.thread = ThreadTag(thread);
        e
    }

    #[test]
    fn single_thread_profile() {
        let tp = threads_of(&profile((0..20).map(|s| ev(s, 0)).collect()));
        assert_eq!(tp.thread_count, 1);
        assert_eq!(tp.switches, 0);
        assert_eq!(tp.dominant_share, 1.0);
        assert!(tp.effectively_single_threaded(0.9));
        assert!(!tp.is_shared_concurrently());
    }

    #[test]
    fn interleaved_threads_are_shared() {
        let events: Vec<_> = (0..40).map(|s| ev(s, (s % 2) as u32)).collect();
        let tp = threads_of(&profile(events));
        assert_eq!(tp.thread_count, 2);
        assert_eq!(tp.switches, 39);
        assert!((tp.dominant_share - 0.5).abs() < 1e-12);
        assert!(tp.is_shared_concurrently());
        assert!(!tp.effectively_single_threaded(0.9));
    }

    #[test]
    fn phase_handoff_is_effectively_single_threaded() {
        // Thread 0 builds, thread 1 consumes: exactly one switch.
        let mut events: Vec<_> = (0..50).map(|s| ev(s, 0)).collect();
        events.extend((50..60).map(|s| ev(s, 1)));
        let tp = threads_of(&profile(events));
        assert_eq!(tp.thread_count, 2);
        assert_eq!(tp.switches, 1);
        assert!(tp.dominant_share > 0.8);
        assert!(tp.effectively_single_threaded(0.8));
        assert!(!tp.is_shared_concurrently());
    }

    #[test]
    fn empty_profile_thread_stats() {
        let tp = threads_of(&profile(vec![]));
        assert_eq!(tp.thread_count, 0);
        assert_eq!(tp.dominant_share, 0.0);
        assert!(tp.effectively_single_threaded(0.9));
    }

    #[test]
    fn events_per_thread_sorted_descending() {
        let mut events: Vec<_> = (0..30).map(|s| ev(s, 1)).collect();
        events.extend((30..40).map(|s| ev(s, 2)));
        events.extend((40..45).map(|s| ev(s, 3)));
        let tp = threads_of(&profile(events));
        let counts: Vec<usize> = tp.events_per_thread.iter().map(|(_, n)| *n).collect();
        assert_eq!(counts, vec![30, 10, 5]);
    }
}
