//! Property tests for phase segmentation: phases partition the profile, in
//! order, without overlap, deterministically — for arbitrary event streams.

use dsspy_events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
    Target, ThreadTag,
};
use dsspy_patterns::segment_phases;
use proptest::prelude::*;

fn arb_events() -> impl Strategy<Value = Vec<AccessEvent>> {
    proptest::collection::vec((0u8..11, any::<u32>()), 0..500).prop_map(|ops| {
        ops.into_iter()
            .enumerate()
            .map(|(seq, (kind_raw, idx))| AccessEvent {
                seq: seq as u64 * 13,
                kind: AccessKind::from_u8(kind_raw).unwrap(),
                target: Target::Index(idx % 1000),
                len: 1000,
                thread: ThreadTag::MAIN,
            })
            .collect()
    })
}

fn profile(events: Vec<AccessEvent>) -> RuntimeProfile {
    RuntimeProfile::new(
        InstanceInfo::new(
            InstanceId(0),
            AllocationSite::new("P", "phases", 0),
            DsKind::List,
            "i32",
        ),
        events,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn phases_partition_the_profile(events in arb_events()) {
        let p = profile(events);
        let phases = segment_phases(&p);

        // Determinism.
        prop_assert_eq!(&phases, &segment_phases(&p));

        // Event counts partition exactly.
        let total: usize = phases.iter().map(|ph| ph.events).sum();
        prop_assert_eq!(total, p.len());

        if p.is_empty() {
            prop_assert!(phases.is_empty());
            return Ok(());
        }

        // Boundaries: ordered, non-overlapping, covering first..last seq.
        prop_assert_eq!(phases.first().unwrap().first_seq, p.events[0].seq);
        prop_assert_eq!(
            phases.last().unwrap().last_seq,
            p.events.last().unwrap().seq
        );
        for ph in &phases {
            prop_assert!(ph.first_seq <= ph.last_seq);
            prop_assert!(ph.events >= 1);
        }
        for w in phases.windows(2) {
            prop_assert!(w[0].last_seq < w[1].first_seq);
            // Adjacent phases have different kinds (else they would merge).
            prop_assert_ne!(w[0].kind, w[1].kind);
        }
    }
}
