//! Profile analysis: pattern instances plus the derived metrics the
//! use-case classifier needs.
//!
//! The five parallel use cases and three sequential use cases of §III-B are
//! defined over aggregates of a profile — "insertion phases take > 30 % of
//! runtime", "> 60 % of accesses affect two different ends", "the profile
//! ends with writes that are never read" — rather than over single pattern
//! instances. [`analyze`] computes all of those aggregates in one pass over
//! the raw events, through the same [`IncrementalAnalyzer`] the streaming
//! analyzer keeps per instance.

use dsspy_events::{AccessKind, RuntimeProfile};
use serde::{Deserialize, Serialize};

use crate::incremental::IncrementalAnalyzer;
use crate::kind::PatternKind;
use crate::regularity::RegularityConfig;
use crate::run::{MinerConfig, PatternInstance};
use crate::threads::ThreadProfile;

/// Everything the classifier needs to know about one profile.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProfileAnalysis {
    /// The mined pattern instances, ordered by start time.
    pub patterns: Vec<PatternInstance>,
    /// Derived aggregates.
    pub metrics: Metrics,
    /// Thread-interaction facts (§IV's multithreaded awareness).
    pub threads: ThreadProfile,
}

/// Derived aggregates over one profile. Field names follow the use-case
/// definitions they feed (§III-B).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Total events in the profile.
    pub total_events: usize,
    /// Events per access kind, indexed by discriminant.
    pub by_kind: [usize; 11],
    /// Read-class event count (Read, Search, Copy, ForAll).
    pub reads: usize,
    /// Write-class event count.
    pub writes: usize,
    /// Largest structure length observed.
    pub max_struct_len: u32,
    /// Profile duration on the session's logical clock, in ticks of `seq`.
    pub duration_ticks: u64,

    /// Fraction of the profile's logical time spent inside insertion
    /// patterns (Long-Insert: "> 30 % of runtime"), measured in ticks of
    /// `seq`. Falls back to the event-count share when the profile spans
    /// zero ticks.
    pub insert_phase_share: f64,
    /// Length (events) of the longest insertion pattern
    /// (Long-Insert: "at least 100 consecutive access events").
    pub longest_insert_run: usize,
    /// Number of insertion pattern instances.
    pub insert_pattern_count: usize,

    /// Number of explicit search operations — `Search` events
    /// (Frequent-Search: "> 1000 search operations").
    pub search_ops: usize,
    /// Fraction of all events that sit inside Read-Forward/Read-Backward
    /// patterns (Frequent-Search: "at least 2 % of all access events").
    pub read_pattern_event_share: f64,

    /// Number of sequential read pattern instances
    /// (Frequent-Long-Read: "> 10 sequential read patterns").
    pub read_pattern_count: usize,
    /// Of those, how many covered ≥ the configured fraction of the
    /// structure (FLR: "each pattern has to read at least 50 %").
    pub long_read_pattern_count: usize,
    /// Fraction of events whose access type is Read or Search
    /// (FLR: "50 % of all access types have to be Read or Search").
    pub read_or_search_share: f64,

    /// Fraction of positional events that touched the front (index 0).
    pub front_share: f64,
    /// Fraction of positional events that touched the back (last position).
    pub back_share: f64,
    /// Whether mutations that *grow* the structure concentrate on one end
    /// and mutations that *shrink* it concentrate on the other
    /// (Implement-Queue's "two different ends").
    pub two_ended: bool,
    /// Whether all inserts and deletes share a common end
    /// (Stack-Implementation).
    pub common_end: bool,
    /// Insert-class positional events (grows).
    pub insert_ops: usize,
    /// Delete-class positional events (shrinks).
    pub delete_ops: usize,

    /// `Sort` events that occur *after* an insertion pattern ended
    /// (Sort-After-Insert).
    pub sorts_after_insert: usize,
    /// Total `Sort` events.
    pub sort_ops: usize,

    /// Number of `Resize` events (arrays only; Insert/Delete-Front).
    pub resize_ops: usize,
    /// Number of alternations between insert and delete operations —
    /// high alternation on an array is the IDF signature.
    pub insert_delete_alternations: usize,

    /// Number of trailing write-class events at the very end of the profile
    /// that are never followed by any read-class event (Write-Without-Read).
    pub trailing_unread_writes: usize,
}

/// Mine patterns and compute the derived metrics for one profile: fold
/// every event through an [`IncrementalAnalyzer`] and take its snapshot.
pub fn analyze(profile: &RuntimeProfile, config: &MinerConfig) -> ProfileAnalysis {
    let mut fold = IncrementalAnalyzer::new(config);
    for e in &profile.events {
        fold.fold(e);
    }
    fold.snapshot(&RegularityConfig::default()).0
}

/// FLR's per-pattern coverage requirement: "read at least 50 % of the data
/// structure".
pub const LONG_READ_COVERAGE: f64 = 0.5;

impl Metrics {
    /// Count of events of one kind.
    pub fn count(&self, kind: AccessKind) -> usize {
        self.by_kind[kind as usize]
    }

    /// Fraction of positional traffic on the two ends combined
    /// (Implement-Queue: "> 60 % in sum ... two different ends").
    pub fn end_traffic_share(&self) -> f64 {
        (self.front_share + self.back_share).min(1.0)
    }
}

impl ProfileAnalysis {
    /// Pattern instances of one kind.
    pub fn of_kind(&self, kind: PatternKind) -> impl Iterator<Item = &PatternInstance> {
        self.patterns.iter().filter(move |p| p.kind == kind)
    }

    /// Histogram of pattern instances per kind.
    pub fn pattern_histogram(&self) -> [(PatternKind, usize); 8] {
        let mut out = PatternKind::ALL.map(|k| (k, 0usize));
        for p in &self.patterns {
            let slot = out
                .iter_mut()
                .find(|(k, _)| *k == p.kind)
                .expect("all kinds present");
            slot.1 += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::{AccessEvent, AllocationSite, DsKind, InstanceId, InstanceInfo, Target};

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

    fn run(events: Vec<AccessEvent>) -> ProfileAnalysis {
        analyze(&profile(events), &MinerConfig::default())
    }

    /// Append i..n, then scan forward once.
    fn fill_then_scan(n: u32) -> Vec<AccessEvent> {
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..n {
            events.push(AccessEvent::at(seq, AccessKind::Insert, i, i + 1));
            seq += 1;
        }
        for i in 0..n {
            events.push(AccessEvent::at(seq, AccessKind::Read, i, n));
            seq += 1;
        }
        events
    }

    #[test]
    fn fill_then_scan_metrics() {
        let a = run(fill_then_scan(100));
        assert_eq!(a.patterns.len(), 2);
        assert_eq!(a.metrics.longest_insert_run, 100);
        assert_eq!(a.metrics.insert_pattern_count, 1);
        assert_eq!(a.metrics.read_pattern_count, 1);
        assert_eq!(a.metrics.long_read_pattern_count, 1);
        // Half the events are inserts, one tick each, so the runtime share
        // is ~0.5.
        assert!((a.metrics.insert_phase_share - 0.5).abs() < 0.02);
        assert!((a.metrics.read_or_search_share - 0.5).abs() < 1e-9);
    }

    #[test]
    fn queue_shape_is_two_ended() {
        // Enqueue at back, dequeue at front, interleaved.
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut len = 0u32;
        for _ in 0..50 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, len, len + 1));
            len += 1;
            seq += 1;
            events.push(AccessEvent::at(seq, AccessKind::Insert, len, len + 1));
            len += 1;
            seq += 1;
            len -= 1;
            events.push(AccessEvent::at(seq, AccessKind::Delete, 0, len));
            seq += 1;
        }
        let a = run(events);
        assert!(a.metrics.two_ended, "queue usage must be two-ended");
        assert!(!a.metrics.common_end);
        assert!(a.metrics.end_traffic_share() > 0.6);
    }

    #[test]
    fn stack_shape_is_common_end() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut len = 0u32;
        for _ in 0..30 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, len, len + 1));
            len += 1;
            seq += 1;
            events.push(AccessEvent::at(seq, AccessKind::Insert, len, len + 1));
            len += 1;
            seq += 1;
            len -= 1;
            events.push(AccessEvent::at(seq, AccessKind::Delete, len, len));
            seq += 1;
        }
        let a = run(events);
        assert!(a.metrics.common_end, "stack usage shares one end");
        assert!(!a.metrics.two_ended);
    }

    #[test]
    fn sort_after_insert_detected() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..150u32 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, i, i + 1));
            seq += 1;
        }
        events.push(AccessEvent::whole(seq, AccessKind::Sort, 150));
        let a = run(events);
        assert_eq!(a.metrics.sorts_after_insert, 1);
        assert_eq!(a.metrics.sort_ops, 1);
    }

    #[test]
    fn sort_before_insert_not_counted() {
        let mut events = vec![AccessEvent::whole(0, AccessKind::Sort, 0)];
        for i in 0..150u32 {
            events.push(AccessEvent::at(
                u64::from(i) + 1,
                AccessKind::Insert,
                i,
                i + 1,
            ));
        }
        let a = run(events);
        assert_eq!(a.metrics.sorts_after_insert, 0);
        assert_eq!(a.metrics.sort_ops, 1);
    }

    #[test]
    fn trailing_writes_counted() {
        let mut events = fill_then_scan(10);
        let seq0 = events.last().unwrap().seq + 1;
        // Null out all entries at end of life — never read again.
        for i in 0..10u32 {
            events.push(AccessEvent::at(
                seq0 + u64::from(i),
                AccessKind::Write,
                i,
                10,
            ));
        }
        let a = run(events);
        assert_eq!(a.metrics.trailing_unread_writes, 10);
    }

    #[test]
    fn reads_at_end_clear_trailing_writes() {
        let mut events = fill_then_scan(10);
        let seq0 = events.last().unwrap().seq + 1;
        for i in 0..10u32 {
            events.push(AccessEvent::at(
                seq0 + u64::from(i),
                AccessKind::Write,
                i,
                10,
            ));
        }
        events.push(AccessEvent::at(seq0 + 10, AccessKind::Read, 0, 10));
        let a = run(events);
        assert_eq!(a.metrics.trailing_unread_writes, 0);
    }

    #[test]
    fn search_ops_counted() {
        let mut events = Vec::new();
        for i in 0..1200u64 {
            events.push(AccessEvent {
                seq: i,
                kind: AccessKind::Search,
                target: Target::Range { start: 0, end: 50 },
                len: 100,
                thread: dsspy_events::ThreadTag::MAIN,
            });
        }
        let a = run(events);
        assert_eq!(a.metrics.search_ops, 1200);
        assert!((a.metrics.read_or_search_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alternation_counting() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut len = 0u32;
        // I D I D I D: five alternations.
        for _ in 0..3 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, 0, len + 1));
            len += 1;
            seq += 1;
            len -= 1;
            events.push(AccessEvent::at(seq, AccessKind::Delete, 0, len));
            seq += 1;
        }
        let a = run(events);
        assert_eq!(a.metrics.insert_delete_alternations, 5);
    }

    #[test]
    fn empty_profile_analysis() {
        let a = run(vec![]);
        assert!(a.patterns.is_empty());
        assert_eq!(a.metrics.total_events, 0);
        assert_eq!(a.metrics.insert_phase_share, 0.0);
        assert!(!a.metrics.two_ended);
    }

    #[test]
    fn histogram_counts_by_kind() {
        let a = run(fill_then_scan(20));
        let h = a.pattern_histogram();
        let ib = h
            .iter()
            .find(|(k, _)| *k == PatternKind::InsertBack)
            .unwrap();
        let rf = h
            .iter()
            .find(|(k, _)| *k == PatternKind::ReadForward)
            .unwrap();
        assert_eq!(ib.1, 1);
        assert_eq!(rf.1, 1);
        assert_eq!(h.iter().map(|(_, n)| n).sum::<usize>(), 2);
    }
}
