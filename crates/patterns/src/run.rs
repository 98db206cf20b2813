//! Run segmentation: locating maximal pattern instances in a profile.
//!
//! The miner ([`crate::incremental::ThreadMiner`], driven by
//! [`crate::incremental::IncrementalAnalyzer`]) untangles events by thread,
//! then splits each per-thread stream into four *tracks* — reads, writes,
//! inserts, deletes — before looking for monotone runs. Interleaved patterns of different kinds (the paper's
//! Fig. 3 shows Insert-Back and Read-Forward overlapping in time) therefore
//! do not break each other, while a positional discontinuity *within* a
//! track ends the current run and starts a new one. This is what makes a
//! cleared-and-refilled list show *repeated* Insert-Back phases instead of
//! one long one.

use dsspy_events::ThreadTag;
use serde::{Deserialize, Serialize};

use crate::kind::PatternKind;

/// Tunables for the pattern miner.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MinerConfig {
    /// Minimum number of events for a run to count as a pattern instance.
    /// The paper speaks of "adjacent" operations, i.e. more than one; the
    /// default of 3 filters incidental two-step coincidences.
    pub min_run_len: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig { min_run_len: 3 }
    }
}

/// One located pattern instance: a maximal run of one pattern type.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PatternInstance {
    /// Which of the eight pattern types this run is.
    pub kind: PatternKind,
    /// Thread whose events form the run.
    pub thread: ThreadTag,
    /// Logical timestamp of the first event.
    pub first_seq: u64,
    /// Logical timestamp of the last event.
    pub last_seq: u64,
    /// Number of events in the run.
    pub len: usize,
    /// Smallest index touched.
    pub lo: u32,
    /// Largest index touched.
    pub hi: u32,
    /// Largest structure length observed during the run.
    pub max_struct_len: u32,
}

impl PatternInstance {
    /// Fraction of the structure the run covered, in `[0, 1]`.
    ///
    /// Runs touch contiguous indices, so coverage is run length over the
    /// largest structure length seen during the run. The Frequent-Long-Read
    /// use case requires each read pattern to cover ≥ 50 % (§III-B).
    pub fn coverage(&self) -> f64 {
        if self.max_struct_len == 0 {
            return 0.0;
        }
        (self.len as f64 / f64::from(self.max_struct_len)).min(1.0)
    }

    /// Duration of the run on the session's logical clock, in ticks.
    pub fn duration_ticks(&self) -> u64 {
        self.last_seq.saturating_sub(self.first_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use dsspy_events::{
        AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
        Target,
    };

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

    fn mine(events: Vec<AccessEvent>) -> Vec<PatternInstance> {
        analyze(&profile(events), &MinerConfig::default()).patterns
    }

    /// n appends: Insert at growing back positions.
    fn appends(seq0: u64, n: u32, len0: u32) -> Vec<AccessEvent> {
        (0..n)
            .map(|i| {
                AccessEvent::at(
                    seq0 + u64::from(i),
                    AccessKind::Insert,
                    len0 + i,
                    len0 + i + 1,
                )
            })
            .collect()
    }

    #[test]
    fn forward_reads_form_read_forward() {
        let events: Vec<_> = (0..10)
            .map(|i| AccessEvent::at(i, AccessKind::Read, i as u32, 10))
            .collect();
        let pats = mine(events);
        assert_eq!(pats.len(), 1);
        let p = pats[0];
        assert_eq!(p.kind, PatternKind::ReadForward);
        assert_eq!(p.len, 10);
        assert_eq!((p.lo, p.hi), (0, 9));
        assert!((p.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backward_reads_form_read_backward() {
        let events: Vec<_> = (0..10)
            .map(|i| AccessEvent::at(i, AccessKind::Read, 9 - i as u32, 10))
            .collect();
        let pats = mine(events);
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].kind, PatternKind::ReadBackward);
    }

    #[test]
    fn writes_form_write_patterns() {
        let fwd: Vec<_> = (0..5)
            .map(|i| AccessEvent::at(i, AccessKind::Write, i as u32, 5))
            .collect();
        assert_eq!(mine(fwd)[0].kind, PatternKind::WriteForward);
        let bwd: Vec<_> = (0..5)
            .map(|i| AccessEvent::at(i, AccessKind::Write, 4 - i as u32, 5))
            .collect();
        assert_eq!(mine(bwd)[0].kind, PatternKind::WriteBackward);
    }

    #[test]
    fn appends_form_insert_back() {
        let pats = mine(appends(0, 20, 0));
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].kind, PatternKind::InsertBack);
        assert_eq!(pats[0].len, 20);
    }

    #[test]
    fn front_inserts_form_insert_front() {
        let events: Vec<_> = (0..8)
            .map(|i| AccessEvent::at(i, AccessKind::Insert, 0, i as u32 + 1))
            .collect();
        let pats = mine(events);
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].kind, PatternKind::InsertFront);
    }

    #[test]
    fn pop_like_deletes_form_delete_back() {
        // Deleting from the back of a 10-element list: indices 9,8,...
        // and post-delete len equals the index.
        let events: Vec<_> = (0..10)
            .map(|i| AccessEvent::at(i, AccessKind::Delete, 9 - i as u32, 9 - i as u32))
            .collect();
        let pats = mine(events);
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].kind, PatternKind::DeleteBack);
    }

    #[test]
    fn dequeue_like_deletes_form_delete_front() {
        let events: Vec<_> = (0..10)
            .map(|i| AccessEvent::at(i, AccessKind::Delete, 0, 9 - i as u32))
            .collect();
        let pats = mine(events);
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].kind, PatternKind::DeleteFront);
    }

    #[test]
    fn interleaved_insert_and_read_detected_separately() {
        // The Fig. 3 shape: producer appends while a reader scans forward.
        let mut events = Vec::new();
        let mut seq = 0;
        for i in 0..50u32 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, i, i + 1));
            seq += 1;
            events.push(AccessEvent::at(seq, AccessKind::Read, i, i + 1));
            seq += 1;
        }
        let pats = mine(events);
        assert_eq!(pats.len(), 2);
        let kinds: std::collections::HashSet<_> = pats.iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&PatternKind::InsertBack));
        assert!(kinds.contains(&PatternKind::ReadForward));
        for p in &pats {
            assert_eq!(p.len, 50);
        }
    }

    #[test]
    fn clear_and_refill_yields_repeated_insert_phases() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        for _cycle in 0..5 {
            for e in appends(seq, 30, 0) {
                events.push(e);
            }
            seq += 30;
            events.push(AccessEvent::whole(seq, AccessKind::Clear, 30));
            seq += 1;
        }
        let pats = mine(events);
        let inserts: Vec<_> = pats
            .iter()
            .filter(|p| p.kind == PatternKind::InsertBack)
            .collect();
        assert_eq!(inserts.len(), 5, "each refill is its own phase");
        for p in inserts {
            assert_eq!(p.len, 30);
        }
    }

    #[test]
    fn non_adjacent_reads_break_runs() {
        // Read 0,1,2 then jump to 7,8,9: two separate forward runs.
        let idxs = [0u32, 1, 2, 7, 8, 9];
        let events: Vec<_> = idxs
            .iter()
            .enumerate()
            .map(|(s, &i)| AccessEvent::at(s as u64, AccessKind::Read, i, 10))
            .collect();
        let pats = mine(events);
        assert_eq!(pats.len(), 2);
        assert!(pats
            .iter()
            .all(|p| p.kind == PatternKind::ReadForward && p.len == 3));
    }

    #[test]
    fn short_runs_are_filtered() {
        let idxs = [0u32, 1, 5, 6, 3];
        let events: Vec<_> = idxs
            .iter()
            .enumerate()
            .map(|(s, &i)| AccessEvent::at(s as u64, AccessKind::Read, i, 10))
            .collect();
        assert!(
            mine(events).is_empty(),
            "runs of 2 stay below min_run_len=3"
        );
    }

    #[test]
    fn random_access_yields_no_patterns() {
        let idxs = [5u32, 2, 9, 0, 7, 3, 8, 1];
        let events: Vec<_> = idxs
            .iter()
            .enumerate()
            .map(|(s, &i)| AccessEvent::at(s as u64, AccessKind::Read, i, 10))
            .collect();
        assert!(mine(events).is_empty());
    }

    #[test]
    fn middle_inserts_form_no_pattern() {
        // Inserting into the middle each time.
        let events: Vec<_> = (0..10)
            .map(|i| AccessEvent::at(i, AccessKind::Insert, (i as u32 + 2) / 2, i as u32 + 5))
            .collect();
        let pats = mine(events);
        assert!(
            pats.iter().all(|p| !p.kind.is_insert() || p.len < 4),
            "middle inserts must not form long insert patterns: {pats:?}"
        );
    }

    #[test]
    fn per_thread_untangling() {
        // Two threads each scanning forward; globally interleaved the
        // indices look chaotic, per-thread they are clean runs.
        let mut events = Vec::new();
        for i in 0..20u32 {
            let mut a = AccessEvent::at(u64::from(2 * i), AccessKind::Read, i, 20);
            a.thread = ThreadTag(1);
            events.push(a);
            let mut b = AccessEvent::at(u64::from(2 * i + 1), AccessKind::Read, 19 - i, 20);
            b.thread = ThreadTag(2);
            events.push(b);
        }
        let pats = mine(events);
        assert_eq!(pats.len(), 2);
        let t1 = pats.iter().find(|p| p.thread == ThreadTag(1)).unwrap();
        let t2 = pats.iter().find(|p| p.thread == ThreadTag(2)).unwrap();
        assert_eq!(t1.kind, PatternKind::ReadForward);
        assert_eq!(t2.kind, PatternKind::ReadBackward);
    }

    #[test]
    fn direction_reversal_splits_runs() {
        // 0..=9 then 8 down to 0: forward run then backward run.
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..10u32 {
            events.push(AccessEvent::at(seq, AccessKind::Read, i, 10));
            seq += 1;
        }
        for i in (0..9u32).rev() {
            events.push(AccessEvent::at(seq, AccessKind::Read, i, 10));
            seq += 1;
        }
        let pats = mine(events);
        assert_eq!(pats.len(), 2);
        assert_eq!(pats[0].kind, PatternKind::ReadForward);
        assert_eq!(pats[0].len, 10);
        assert_eq!(pats[1].kind, PatternKind::ReadBackward);
        assert_eq!(pats[1].len, 9);
    }

    #[test]
    fn compound_events_are_transparent_to_tracks() {
        // Searches sprinkled into a forward read scan do not break it.
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..10u32 {
            events.push(AccessEvent::at(seq, AccessKind::Read, i, 10));
            seq += 1;
            if i % 3 == 0 {
                events.push(AccessEvent {
                    seq,
                    kind: AccessKind::Search,
                    target: Target::Range {
                        start: 0,
                        end: i + 1,
                    },
                    len: 10,
                    thread: ThreadTag::MAIN,
                });
                seq += 1;
            }
        }
        let pats = mine(events);
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].kind, PatternKind::ReadForward);
        assert_eq!(pats[0].len, 10);
    }

    #[test]
    fn empty_profile_mines_nothing() {
        assert!(mine(vec![]).is_empty());
    }

    #[test]
    fn instances_sorted_by_first_seq() {
        let mut events = appends(0, 10, 0);
        for i in 0..10u32 {
            events.push(AccessEvent::at(100 + u64::from(i), AccessKind::Read, i, 10));
        }
        let pats = mine(events);
        assert!(pats.windows(2).all(|w| w[0].first_seq <= w[1].first_seq));
    }
}
