//! Runtime profiles: the chronological access history of one instance.
//!
//! A [`RuntimeProfile`] contains *all access events to a data structure
//! instance from initialization to deallocation in chronological order*
//! (paper §II-B). It is the unit the pattern miner and the use-case
//! classifier operate on, and the thing the visualizer draws (Figs. 2, 3).

use crate::event::{AccessClass, AccessEvent, AccessKind, ThreadTag};
use crate::instance::InstanceInfo;
use serde::{Deserialize, Serialize};

/// The complete, chronologically ordered access history of one instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RuntimeProfile {
    /// Which instance this is the history of.
    pub instance: InstanceInfo,
    /// All access events, ordered by logical timestamp (`seq`).
    pub events: Vec<AccessEvent>,
}

impl RuntimeProfile {
    /// Build a profile from instance metadata and an event list.
    ///
    /// Events are sorted by sequence number if they arrive out of order
    /// (multi-threaded sessions deliver per-thread batches).
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

    /// Aggregate statistics over the profile.
    pub fn stats(&self) -> ProfileStats {
        let mut s = ProfileStats {
            total: self.events.len(),
            ..ProfileStats::default()
        };
        for e in &self.events {
            s.by_kind[e.kind as usize] += 1;
            match e.class() {
                AccessClass::Read => s.reads += 1,
                AccessClass::Write => s.writes += 1,
            }
            s.max_len = s.max_len.max(e.len);
        }
        s.duration_ticks = self.duration_ticks();
        s
    }

    /// Maximum length the structure reached during its lifetime.
    pub fn max_len(&self) -> u32 {
        self.events.iter().map(|e| e.len).max().unwrap_or(0)
    }
}

/// Aggregate event counts over one profile.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileStats {
    /// Total number of events.
    pub total: usize,
    /// Events per [`AccessKind`], indexed by discriminant.
    pub by_kind: [usize; 11],
    /// Events whose [`AccessClass`] is `Read`.
    pub reads: usize,
    /// Events whose [`AccessClass`] is `Write`.
    pub writes: usize,
    /// Largest structure length observed.
    pub max_len: u32,
    /// Logical span of the profile, in ticks of `seq`.
    pub duration_ticks: u64,
}

impl ProfileStats {
    /// Count of events of one kind.
    pub fn count(&self, kind: AccessKind) -> usize {
        self.by_kind[kind as usize]
    }

    /// Fraction of events of one kind, in `[0, 1]` (0 for empty profiles).
    pub fn share(&self, kind: AccessKind) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(kind) as f64 / self.total as f64
        }
    }

    /// Fraction of read-class events (0 for empty profiles).
    pub fn read_share(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.reads as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn stats_count_kinds_and_classes() {
        let p = RuntimeProfile::new(
            info(),
            vec![
                ev(1, AccessKind::Insert, 0, 1),
                ev(2, AccessKind::Insert, 1, 2),
                ev(3, AccessKind::Read, 0, 2),
                AccessEvent::whole(4, AccessKind::Sort, 2),
            ],
        );
        let s = p.stats();
        assert_eq!(s.total, 4);
        assert_eq!(s.count(AccessKind::Insert), 2);
        assert_eq!(s.count(AccessKind::Read), 1);
        assert_eq!(s.count(AccessKind::Sort), 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 3);
        assert!((s.read_share() - 0.25).abs() < 1e-12);
        assert!((s.share(AccessKind::Insert) - 0.5).abs() < 1e-12);
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

    #[test]
    fn empty_profile_stats_are_zero() {
        let s = RuntimeProfile::new(info(), vec![]).stats();
        assert_eq!(s.total, 0);
        assert_eq!(s.read_share(), 0.0);
        assert_eq!(s.share(AccessKind::Read), 0.0);
    }
}
