//! The merge law of the one analysis fold: [`InstanceFold`]s of the pieces
//! of an event stream, merged left to right, report exactly what one fold
//! of the whole stream reports — patterns (with their order on tied
//! starts), metrics, thread profile, regularity verdict, use cases, event
//! count and advisories — at any split points.

use std::borrow::Cow;

use dsspy_core::{AnalysisConfig, InstanceFold};
use dsspy_events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, Target, ThreadTag,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// One drawn event: thread, kind, index rule, raw bits, length rule and
/// sequence step.
type Draw = (u32, usize, u8, u32, u8, u8);

fn arb_draw() -> impl Strategy<Value = Draw> {
    (0u32..3, 0usize..11, 0u8..7, any::<u32>(), 0u8..3, 0u8..5)
}

/// Events whose indices step along runs, jump along heap edges (so the
/// list-as-tree advisory fires) or anywhere, with every kind — searches
/// included, for list-as-map — and repeated or inverted sequence numbers.
fn build(draws: &[Draw]) -> Vec<AccessEvent> {
    let mut last = [0u32; 3];
    let mut seq = 10u64;
    draws
        .iter()
        .map(|&(thread, kind, rule, raw, len_rule, step)| {
            let prev = last[thread as usize];
            let index = match rule {
                0 => prev.wrapping_add(1),
                1 => prev.wrapping_sub(1),
                2 => prev.wrapping_mul(2).wrapping_add(1 + raw % 2),
                3 => prev.saturating_sub(1) / 2,
                4 => 0,
                5 => raw % 64,
                _ => raw,
            };
            last[thread as usize] = index;
            let target = match raw % 7 {
                0 => Target::Whole,
                1 => Target::Range {
                    start: index,
                    end: index.saturating_add(3),
                },
                2 if kind == 7 => Target::None,
                _ => Target::Index(index),
            };
            seq = match step {
                0 => seq,
                4 => seq.saturating_sub(3),
                s => seq + u64::from(s),
            };
            AccessEvent {
                seq,
                kind: AccessKind::ALL[kind],
                target,
                len: match len_rule {
                    0 => index.wrapping_add(1),
                    1 => index,
                    _ => raw % 256,
                },
                thread: ThreadTag(thread),
            }
        })
        .collect()
}

fn info() -> InstanceInfo {
    InstanceInfo::new(
        InstanceId(3),
        AllocationSite::new("Merge", "law", 1),
        DsKind::List,
        "i64",
    )
}

fn fold(events: &[AccessEvent], config: &AnalysisConfig) -> InstanceFold {
    let mut fold = InstanceFold::new(config);
    for e in events {
        fold.fold(e);
    }
    fold
}

/// Fold the pieces of `events` cut at `cuts` and merge them left to right;
/// the report and the inversion count must equal one straight fold's.
fn merge_law(events: &[AccessEvent], cuts: &[usize]) -> Result<(), TestCaseError> {
    // Low advisory thresholds so short streams raise advisories too.
    let mut config = AnalysisConfig::default();
    config.advisories.min_tree_hops = 2;
    config.advisories.min_searches = 2;
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (events.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(events.len());
    let mut merged = fold(&events[..cuts[0]], &config);
    for pair in cuts.windows(2) {
        let piece = &events[pair[0]..pair[1]];
        merged.merge(fold(piece, &config), || Cow::Borrowed(piece));
    }
    let straight = fold(events, &config);
    prop_assert_eq!(merged.out_of_order(), straight.out_of_order());
    let (got, want) = (
        merged.report(&info(), &config),
        straight.report(&info(), &config),
    );
    prop_assert_eq!(got.events, want.events);
    prop_assert_eq!(&got.advisories, &want.advisories);
    prop_assert_eq!(
        serde_json::to_string(&got).unwrap(),
        serde_json::to_string(&want).unwrap()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merged_instance_folds_report_like_one_fold(
        draws in proptest::collection::vec(arb_draw(), 0..300),
        cuts in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        merge_law(&build(&draws), &cuts)?;
    }
}

/// A heap walk cut between every pair of events still counts every hop.
#[test]
fn a_heap_walk_cut_everywhere_keeps_its_advisory() {
    let mut events = Vec::new();
    for round in 0..40u64 {
        let mut i = 0u32;
        while i < 127 {
            events.push(AccessEvent::at(
                events.len() as u64,
                AccessKind::Read,
                i,
                255,
            ));
            i = 2 * i + 1 + (round as u32 + i) % 2;
        }
    }
    let cuts: Vec<usize> = (1..events.len()).collect();
    merge_law(&events, &cuts).unwrap();
    let config = AnalysisConfig::default();
    let report = fold(&events, &config).report(&info(), &config);
    assert!(!report.advisories.is_empty(), "{:?}", report.advisories);
}
