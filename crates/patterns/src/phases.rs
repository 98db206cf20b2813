//! Temporal phase segmentation.
//!
//! The use-case definitions of §III-B speak in terms of *phases*:
//! "insertion phases (>30 % of runtime)", "a sort pattern follows an
//! insertion pattern", "profiles often end with write patterns". This
//! module makes phases first-class: it splits a profile's timeline into
//! maximal stretches dominated by one kind of activity — the fill–scan–clear
//! loops of Fig. 3 show up as alternating phases on the timeline views.

use dsspy_events::{AccessKind, RuntimeProfile};
use serde::{Deserialize, Serialize};

/// The dominant activity of a phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Insert-dominated: the structure is growing.
    Growth,
    /// Read/search-dominated: the structure is being consumed or scanned.
    Scan,
    /// Write/delete-dominated: in-place mutation or shrinking.
    Mutation,
    /// Compound-maintenance-dominated (sort, clear, copy, resize, ...).
    Maintenance,
    /// No class reaches the dominance threshold.
    Mixed,
}

impl std::fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PhaseKind::Growth => "growth",
            PhaseKind::Scan => "scan",
            PhaseKind::Mutation => "mutation",
            PhaseKind::Maintenance => "maintenance",
            PhaseKind::Mixed => "mixed",
        })
    }
}

/// One segmented phase of a profile's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Dominant activity.
    pub kind: PhaseKind,
    /// Logical timestamp of the first event in the phase.
    pub first_seq: u64,
    /// Logical timestamp of the last event.
    pub last_seq: u64,
    /// Number of events in the phase.
    pub events: usize,
}

impl Phase {
    /// Duration on the session's logical clock, in ticks.
    pub fn duration_ticks(&self) -> u64 {
        self.last_seq.saturating_sub(self.first_seq)
    }
}

/// Window size in events for the dominance vote.
const WINDOW: usize = 32;
/// Fraction a class must reach inside a window to claim it.
const DOMINANCE: f64 = 0.6;

fn class_of(kind: AccessKind) -> PhaseKind {
    match kind {
        AccessKind::Insert => PhaseKind::Growth,
        AccessKind::Read | AccessKind::Search | AccessKind::ForAll => PhaseKind::Scan,
        AccessKind::Write | AccessKind::Delete => PhaseKind::Mutation,
        AccessKind::Clear
        | AccessKind::Sort
        | AccessKind::Reverse
        | AccessKind::Copy
        | AccessKind::Resize => PhaseKind::Maintenance,
    }
}

/// Segment a profile into phases.
///
/// The timeline is cut into 32-event windows; each window votes for the
/// class holding at least 60 % of its events (`Mixed` otherwise), and
/// adjacent windows with the same verdict merge into one phase. The tail
/// window may be shorter.
pub fn segment_phases(profile: &RuntimeProfile) -> Vec<Phase> {
    let mut out: Vec<Phase> = Vec::new();
    for chunk in profile.events.chunks(WINDOW) {
        let mut counts = [0usize; 5];
        for e in chunk {
            let idx = match class_of(e.kind) {
                PhaseKind::Growth => 0,
                PhaseKind::Scan => 1,
                PhaseKind::Mutation => 2,
                PhaseKind::Maintenance => 3,
                PhaseKind::Mixed => 4,
            };
            counts[idx] += 1;
        }
        let (best_idx, best) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .expect("non-empty counts");
        let kind = if *best as f64 >= DOMINANCE * chunk.len() as f64 {
            match best_idx {
                0 => PhaseKind::Growth,
                1 => PhaseKind::Scan,
                2 => PhaseKind::Mutation,
                _ => PhaseKind::Maintenance,
            }
        } else {
            PhaseKind::Mixed
        };
        let first = chunk.first().expect("non-empty chunk");
        let last = chunk.last().expect("non-empty chunk");
        match out.last_mut() {
            Some(prev) if prev.kind == kind => {
                prev.last_seq = last.seq;
                prev.events += chunk.len();
            }
            _ => out.push(Phase {
                kind,
                first_seq: first.seq,
                last_seq: last.seq,
                events: chunk.len(),
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::{AccessEvent, AllocationSite, DsKind, InstanceId, InstanceInfo};

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

    fn fill(events: &mut Vec<AccessEvent>, seq: &mut u64, kind: AccessKind, n: u32) {
        for i in 0..n {
            events.push(AccessEvent::at(*seq, kind, i, 100));
            *seq += 1;
        }
    }

    #[test]
    fn fill_then_scan_segments_into_two_phases() {
        let mut events = Vec::new();
        let mut seq = 0;
        fill(&mut events, &mut seq, AccessKind::Insert, 128);
        fill(&mut events, &mut seq, AccessKind::Read, 128);
        let phases = segment_phases(&profile(events));
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].kind, PhaseKind::Growth);
        assert_eq!(phases[0].events, 128);
        assert_eq!(phases[1].kind, PhaseKind::Scan);
        assert_eq!(phases[1].events, 128);
    }

    #[test]
    fn interleaved_traffic_is_mixed() {
        let mut events = Vec::new();
        for i in 0..128u64 {
            let kind = if i % 2 == 0 {
                AccessKind::Insert
            } else {
                AccessKind::Read
            };
            events.push(AccessEvent::at(i, kind, (i / 2) as u32, 100));
        }
        let phases = segment_phases(&profile(events));
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].kind, PhaseKind::Mixed);
    }

    #[test]
    fn cleanup_writes_end_in_mutation() {
        let mut events = Vec::new();
        let mut seq = 0;
        fill(&mut events, &mut seq, AccessKind::Insert, 64);
        fill(&mut events, &mut seq, AccessKind::Read, 64);
        fill(&mut events, &mut seq, AccessKind::Write, 64);
        let phases = segment_phases(&profile(events));
        assert_eq!(phases.first().unwrap().kind, PhaseKind::Growth);
        assert_eq!(phases.last().unwrap().kind, PhaseKind::Mutation);
    }

    #[test]
    fn empty_profile_has_no_phases() {
        assert!(segment_phases(&profile(vec![])).is_empty());
    }

    #[test]
    fn phase_durations_cover_the_profile() {
        let mut events = Vec::new();
        let mut seq = 0;
        fill(&mut events, &mut seq, AccessKind::Insert, 100);
        fill(&mut events, &mut seq, AccessKind::Read, 100);
        let p = profile(events);
        let phases = segment_phases(&p);
        let total: usize = phases.iter().map(|ph| ph.events).sum();
        assert_eq!(total, p.len());
        // Ordered and non-overlapping; one tick per event here.
        for w in phases.windows(2) {
            assert!(w[0].last_seq < w[1].first_seq);
        }
        let ticks: u64 = phases.iter().map(|ph| ph.duration_ticks() + 1).sum();
        assert_eq!(ticks, p.len() as u64);
    }

    #[test]
    fn maintenance_phase_from_compound_events() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        fill(&mut events, &mut seq, AccessKind::Insert, 32);
        for _ in 0..32 {
            events.push(AccessEvent::whole(seq, AccessKind::Sort, 100));
            seq += 1;
        }
        let phases = segment_phases(&profile(events));
        assert_eq!(phases.last().unwrap().kind, PhaseKind::Maintenance);
    }
}
