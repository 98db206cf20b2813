//! Property tests over the pattern miner.
//!
//! Invariants checked on random event streams:
//! * pattern instances never overlap within one (thread, track);
//! * every instance satisfies its own definition (monotone adjacent
//!   indices for read/write runs; end-anchored inserts/deletes);
//! * coverage is always within `[0, 1]`;
//! * mining is deterministic.

use dsspy_events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
    Target, ThreadTag,
};
use dsspy_patterns::{analyze, MinerConfig, PatternKind};
use proptest::prelude::*;

fn arb_positional_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::Insert),
        Just(AccessKind::Delete),
        Just(AccessKind::Search),
        Just(AccessKind::Clear),
    ]
}

/// Random event stream over a simulated list whose length evolves with the
/// operations, so `len` fields are internally consistent.
fn arb_stream() -> impl Strategy<Value = Vec<AccessEvent>> {
    proptest::collection::vec((arb_positional_kind(), any::<u32>(), 0u8..2), 0..300).prop_map(
        |ops| {
            let mut events = Vec::new();
            let mut len: u32 = 0;
            for (seq, (kind, pick, thread)) in ops.into_iter().enumerate() {
                let seq = seq as u64;
                let thread = ThreadTag(u32::from(thread));
                match kind {
                    AccessKind::Insert => {
                        let idx = pick % (len + 1);
                        len += 1;
                        events.push(AccessEvent {
                            seq,
                            kind,
                            target: Target::Index(idx),
                            len,
                            thread,
                        });
                    }
                    AccessKind::Delete => {
                        if len > 0 {
                            let idx = pick % len;
                            len -= 1;
                            events.push(AccessEvent {
                                seq,
                                kind,
                                target: Target::Index(idx),
                                len,
                                thread,
                            });
                        }
                    }
                    AccessKind::Read | AccessKind::Write => {
                        if len > 0 {
                            events.push(AccessEvent {
                                seq,
                                kind,
                                target: Target::Index(pick % len),
                                len,
                                thread,
                            });
                        }
                    }
                    AccessKind::Search => {
                        events.push(AccessEvent {
                            seq,
                            kind,
                            target: Target::Range {
                                start: 0,
                                end: pick % (len + 1),
                            },
                            len,
                            thread,
                        });
                    }
                    AccessKind::Clear => {
                        events.push(AccessEvent {
                            seq,
                            kind,
                            target: Target::Whole,
                            len,
                            thread,
                        });
                        len = 0;
                    }
                    _ => unreachable!(),
                }
            }
            events
        },
    )
}

fn profile(events: Vec<AccessEvent>) -> RuntimeProfile {
    RuntimeProfile::new(
        InstanceInfo::new(
            InstanceId(0),
            AllocationSite::new("P", "prop", 0),
            DsKind::List,
            "i32",
        ),
        events,
    )
}

/// The track a pattern kind mines from.
fn track_of(kind: PatternKind) -> u8 {
    match kind {
        PatternKind::ReadForward | PatternKind::ReadBackward => 0,
        PatternKind::WriteForward | PatternKind::WriteBackward => 1,
        PatternKind::InsertFront | PatternKind::InsertBack => 2,
        PatternKind::DeleteFront | PatternKind::DeleteBack => 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn miner_invariants(events in arb_stream()) {
        let p = profile(events);
        let config = MinerConfig::default();
        let pats = analyze(&p, &config).patterns;

        // Determinism.
        prop_assert_eq!(&pats, &analyze(&p, &config).patterns);

        for pat in &pats {
            prop_assert!(pat.len >= config.min_run_len);
            prop_assert!(pat.first_seq <= pat.last_seq);
            prop_assert!(pat.lo <= pat.hi);
            let c = pat.coverage();
            prop_assert!((0.0..=1.0).contains(&c), "coverage {c} out of range");

            // Re-derive the run's events and check the pattern's own
            // definition holds.
            let run: Vec<_> = p
                .events
                .iter()
                .filter(|e| {
                    e.thread == pat.thread
                        && e.seq >= pat.first_seq
                        && e.seq <= pat.last_seq
                        && match e.kind {
                            AccessKind::Read => track_of(pat.kind) == 0,
                            AccessKind::Write => track_of(pat.kind) == 1,
                            AccessKind::Insert => track_of(pat.kind) == 2,
                            AccessKind::Delete => track_of(pat.kind) == 3,
                            _ => false,
                        }
                })
                .collect();
            prop_assert_eq!(run.len(), pat.len, "instance spans exactly its events");
            match pat.kind {
                PatternKind::ReadForward | PatternKind::WriteForward => {
                    for w in run.windows(2) {
                        prop_assert_eq!(w[1].index().unwrap(), w[0].index().unwrap() + 1);
                    }
                }
                PatternKind::ReadBackward | PatternKind::WriteBackward => {
                    for w in run.windows(2) {
                        prop_assert_eq!(w[1].index().unwrap() + 1, w[0].index().unwrap());
                    }
                }
                PatternKind::InsertFront => {
                    for e in &run {
                        prop_assert_eq!(e.index(), Some(0));
                    }
                }
                PatternKind::InsertBack => {
                    for e in &run {
                        prop_assert_eq!(e.index(), Some(e.len - 1), "append lands at len-1");
                    }
                }
                PatternKind::DeleteFront => {
                    for e in &run {
                        prop_assert_eq!(e.index(), Some(0));
                    }
                }
                PatternKind::DeleteBack => {
                    for e in &run {
                        prop_assert_eq!(e.index(), Some(e.len), "back delete leaves index==len");
                    }
                }
            }
        }

        // Instances on the same (thread, track) never overlap in seq.
        for a in &pats {
            for b in &pats {
                if std::ptr::eq(a, b) || a.thread != b.thread || track_of(a.kind) != track_of(b.kind) {
                    continue;
                }
                let disjoint = a.last_seq < b.first_seq || b.last_seq < a.first_seq;
                prop_assert!(disjoint, "overlapping instances {a:?} and {b:?}");
            }
        }
    }

    #[test]
    fn min_run_len_monotone(events in arb_stream(), extra in 2usize..8) {
        // Raising the minimum run length can only reduce the instance count.
        let p = profile(events);
        let small = analyze(&p, &MinerConfig { min_run_len: 2 }).patterns;
        let large = analyze(&p, &MinerConfig { min_run_len: 2 + extra }).patterns;
        prop_assert!(large.len() <= small.len());
    }
}
