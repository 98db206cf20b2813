//! Runtime profiles: the chronological access history of one instance.
//!
//! A [`RuntimeProfile`] contains *all access events to a data structure
//! instance from initialization to deallocation in chronological order*
//! (paper §II-B). It is the unit the pattern miner and the use-case
//! classifier operate on, and the thing the visualizer draws (Figs. 2, 3).

use crate::event::{AccessEvent, ThreadTag};
use crate::instance::InstanceInfo;
use serde::{Deserialize, Serialize};

/// The complete, chronologically ordered access history of one instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RuntimeProfile {
    /// Which instance this is the history of.
    pub instance: InstanceInfo,
    /// All access events. A session records each instance's events in
    /// `seq` order (one handle ships its batches in record order), and
    /// [`RuntimeProfile::new`] orders what it is given by `seq`; a profile
    /// built field by field, or read back from a capture file, keeps the
    /// order it was given, and the analysis fold counts each step back in
    /// `seq` as an inversion (`out_of_order`).
    pub events: Vec<AccessEvent>,
}

impl RuntimeProfile {
    /// Build a profile from instance metadata and an event list, sorted by
    /// sequence number if it is out of order (generated and hand-built
    /// profiles; a session's capture does not pass through here).
    pub fn new(instance: InstanceInfo, mut events: Vec<AccessEvent>) -> Self {
        if !events.windows(2).all(|w| w[0].seq <= w[1].seq) {
            events.sort_by_key(|e| e.seq);
        }
        RuntimeProfile { instance, events }
    }

    /// Number of access events in the profile.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the profile contains no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Logical time covered by the profile, in ticks of `seq`.
    pub fn duration_ticks(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.seq.saturating_sub(a.seq),
            _ => 0,
        }
    }

    /// The distinct threads that accessed the instance, ascending.
    pub fn threads(&self) -> Vec<ThreadTag> {
        let mut t: Vec<ThreadTag> = self.events.iter().map(|e| e.thread).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Maximum length the structure reached during its lifetime.
    pub fn max_len(&self) -> u32 {
        self.events.iter().map(|e| e.len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AccessKind;
    use crate::instance::{AllocationSite, DsKind, InstanceId};

    fn info() -> InstanceInfo {
        InstanceInfo::new(
            InstanceId(1),
            AllocationSite::new("Test", "main", 1),
            DsKind::List,
            "i64",
        )
    }

    fn ev(seq: u64, kind: AccessKind, idx: u32, len: u32) -> AccessEvent {
        AccessEvent::at(seq, kind, idx, len)
    }

    #[test]
    fn profile_sorts_out_of_order_events() {
        let p = RuntimeProfile::new(
            info(),
            vec![
                ev(5, AccessKind::Read, 0, 3),
                ev(1, AccessKind::Insert, 0, 1),
                ev(3, AccessKind::Insert, 1, 2),
            ],
        );
        let seqs: Vec<u64> = p.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3, 5]);
    }

    #[test]
    fn already_sorted_events_left_untouched() {
        let events = vec![
            ev(1, AccessKind::Insert, 0, 1),
            ev(2, AccessKind::Insert, 1, 2),
        ];
        let p = RuntimeProfile::new(info(), events.clone());
        assert_eq!(p.events, events);
    }

    #[test]
    fn duration_and_max_len() {
        let p = RuntimeProfile::new(
            info(),
            vec![
                ev(10, AccessKind::Insert, 0, 1),
                ev(20, AccessKind::Insert, 1, 2),
                ev(95, AccessKind::Read, 0, 2),
            ],
        );
        assert_eq!(p.duration_ticks(), 85);
        assert_eq!(p.max_len(), 2);
        assert_eq!(RuntimeProfile::new(info(), vec![]).duration_ticks(), 0);
    }

    #[test]
    fn threads_are_distinct_and_ascending() {
        let mut e1 = ev(1, AccessKind::Insert, 0, 1);
        e1.thread = ThreadTag(1);
        let mut e2 = ev(2, AccessKind::Insert, 1, 2);
        e2.thread = ThreadTag(2);
        let mut e3 = ev(3, AccessKind::Read, 0, 2);
        e3.thread = ThreadTag(1);
        let p = RuntimeProfile::new(info(), vec![e1, e2, e3]);
        assert_eq!(p.threads(), vec![ThreadTag(1), ThreadTag(2)]);
    }
}
