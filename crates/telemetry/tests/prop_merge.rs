//! Property tests: merging per-thread metric shards is order-independent,
//! and histogram bucketing is total and consistent at the edges.

use dsspy_telemetry::{
    bucket_index, bucket_upper_bound, Telemetry, TelemetrySnapshot, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;

/// One shard: what a single worker thread might have recorded.
#[derive(Clone, Debug)]
struct Shard {
    counters: Vec<(u8, u32)>,
    gauge: Option<(u8, u32)>,
    samples: Vec<u64>,
}

fn arb_shard() -> impl Strategy<Value = Shard> {
    (
        proptest::collection::vec((0u8..5, any::<u32>()), 0..6),
        (any::<bool>(), 0u8..3, any::<u32>()),
        proptest::collection::vec(any::<u64>(), 0..40),
    )
        .prop_map(|(counters, (has_gauge, slot, value), samples)| Shard {
            counters,
            gauge: has_gauge.then_some((slot, value)),
            samples,
        })
}

// Shared names so shards overlap, which is the interesting merge case.
const COUNTER_NAMES: [&str; 5] = ["c.a", "c.b", "c.c", "c.d", "c.e"];
const GAUGE_NAMES: [&str; 3] = ["g.a", "g.b", "g.c"];

fn snapshot_of(shard: &Shard) -> TelemetrySnapshot {
    let telemetry = Telemetry::enabled();
    for (slot, value) in &shard.counters {
        telemetry
            .counter(COUNTER_NAMES[*slot as usize])
            .add(u64::from(*value));
    }
    if let Some((slot, value)) = shard.gauge {
        telemetry
            .gauge(GAUGE_NAMES[slot as usize])
            .set(u64::from(value));
    }
    let hist = telemetry.histogram("h.samples");
    for s in &shard.samples {
        hist.record(*s);
    }
    telemetry.snapshot()
}

fn merge_in_order(shards: &[TelemetrySnapshot], order: &[usize]) -> TelemetrySnapshot {
    let mut out = TelemetrySnapshot::default();
    for &i in order {
        out.merge(&shards[i]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shard_merge_is_order_independent(
        shards in proptest::collection::vec(arb_shard(), 1..6),
        seed in any::<u64>(),
    ) {
        let snaps: Vec<TelemetrySnapshot> = shards.iter().map(snapshot_of).collect();
        let forward: Vec<usize> = (0..snaps.len()).collect();
        let mut shuffled = forward.clone();
        // Deterministic Fisher-Yates from the seed.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();

        let a = merge_in_order(&snaps, &forward);
        let b = merge_in_order(&snaps, &reversed);
        let c = merge_in_order(&snaps, &shuffled);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);

        // And the merged totals equal recording everything in one registry.
        let mut expected_events = 0u64;
        for shard in &shards {
            expected_events += shard.samples.len() as u64;
        }
        let merged_count = a.histogram("h.samples").map_or(0, |h| h.count);
        prop_assert_eq!(merged_count, expected_events);
    }

    #[test]
    fn bucket_index_is_total_and_monotone(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < HISTOGRAM_BUCKETS);
        // The value respects its bucket's bounds.
        if let Some(ub) = bucket_upper_bound(i) {
            prop_assert!(v <= ub);
        }
        if i > 0 {
            let lower = bucket_upper_bound(i - 1).expect("bounded below the top");
            prop_assert!(v > lower);
        }
    }
}
