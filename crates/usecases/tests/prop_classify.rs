//! Property tests: the classifier is total, deterministic, and honest —
//! every emitted detection carries evidence whose value actually crosses
//! its threshold, for arbitrary (well-formed) profiles.

use dsspy_events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
    Target, ThreadTag,
};
use dsspy_patterns::{analyze, MinerConfig};
use dsspy_usecases::{classify, Thresholds, UseCaseKind};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = DsKind> {
    prop_oneof![
        Just(DsKind::List),
        Just(DsKind::Array),
        Just(DsKind::Stack),
        Just(DsKind::Queue),
        Just(DsKind::Dictionary),
        Just(DsKind::Deque),
    ]
}

/// Well-formed random op streams over a simulated list.
fn arb_events() -> impl Strategy<Value = Vec<AccessEvent>> {
    proptest::collection::vec((0u8..8, any::<u32>(), 0u8..3), 0..400).prop_map(|ops| {
        let mut events = Vec::new();
        let mut len: u32 = 0;
        for (seq, (op, pick, thread)) in ops.into_iter().enumerate() {
            let seq = seq as u64;
            let thread = ThreadTag(u32::from(thread));
            let push = |events: &mut Vec<AccessEvent>, kind, target, len| {
                events.push(AccessEvent {
                    seq,
                    kind,
                    target,
                    len,
                    thread,
                });
            };
            match op {
                0 | 1 => {
                    // Append (the most common op, weighted double).
                    len += 1;
                    push(&mut events, AccessKind::Insert, Target::Index(len - 1), len);
                }
                2 => {
                    if len > 0 {
                        push(
                            &mut events,
                            AccessKind::Read,
                            Target::Index(pick % len),
                            len,
                        );
                    }
                }
                3 => {
                    if len > 0 {
                        len -= 1;
                        push(&mut events, AccessKind::Delete, Target::Index(0), len);
                    }
                }
                4 => {
                    if len > 0 {
                        push(
                            &mut events,
                            AccessKind::Write,
                            Target::Index(pick % len),
                            len,
                        );
                    }
                }
                5 => push(
                    &mut events,
                    AccessKind::Search,
                    Target::Range {
                        start: 0,
                        end: pick % (len + 1),
                    },
                    len,
                ),
                6 => {
                    push(&mut events, AccessKind::Clear, Target::Whole, len);
                    len = 0;
                }
                _ => push(&mut events, AccessKind::Sort, Target::Whole, len),
            }
        }
        events
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn classifier_is_total_and_honest(events in arb_events(), kind in arb_kind()) {
        let info = InstanceInfo::new(
            InstanceId(0),
            AllocationSite::new("Prop", "m", 1),
            kind,
            "i64",
        );
        let profile = RuntimeProfile::new(info.clone(), events);
        let analysis = analyze(&profile, &MinerConfig::default());
        let t = Thresholds::default();
        let cases = classify(&info, &analysis, &t);

        // Determinism.
        let again = classify(&info, &analysis, &t);
        prop_assert_eq!(cases.len(), again.len());

        // At most one detection per category per instance.
        let mut seen = std::collections::HashSet::new();
        for uc in &cases {
            prop_assert!(seen.insert(uc.kind), "duplicate category {:?}", uc.kind);
            // Honesty: every evidence value crosses its threshold (with a
            // small epsilon for the float shares).
            for e in &uc.evidence {
                prop_assert!(
                    e.value >= e.threshold - 1e-9,
                    "{:?}: evidence {} below threshold",
                    uc.kind,
                    e
                );
            }
        }

        // Mutual exclusions hold.
        let ks: Vec<UseCaseKind> = cases.iter().map(|u| u.kind).collect();
        prop_assert!(
            !(ks.contains(&UseCaseKind::SortAfterInsert) && ks.contains(&UseCaseKind::LongInsert)),
            "SAI subsumes LI: {ks:?}"
        );
        prop_assert!(
            !(ks.contains(&UseCaseKind::FrequentSearch) && ks.contains(&UseCaseKind::FrequentLongRead)),
            "FS subsumes FLR: {ks:?}"
        );
        prop_assert!(
            !(ks.contains(&UseCaseKind::ImplementQueue) && ks.contains(&UseCaseKind::StackImplementation)),
            "IQ and SI are contradictory: {ks:?}"
        );

        // Kind gating: non-linear structures never get linear use cases.
        if !kind.is_linear() {
            for k in [
                UseCaseKind::LongInsert,
                UseCaseKind::SortAfterInsert,
                UseCaseKind::FrequentSearch,
                UseCaseKind::FrequentLongRead,
            ] {
                prop_assert!(!ks.contains(&k), "{kind:?} got {k:?}");
            }
        }
        if kind != DsKind::Array {
            prop_assert!(!ks.contains(&UseCaseKind::InsertDeleteFront));
        }
        if kind == DsKind::Queue {
            prop_assert!(!ks.contains(&UseCaseKind::ImplementQueue));
        }
        if kind == DsKind::Stack {
            prop_assert!(!ks.contains(&UseCaseKind::StackImplementation));
        }
    }
}
