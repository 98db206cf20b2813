//! The incremental fold against a naive per-event reference.
//!
//! [`IncrementalAnalyzer`] caches the current thread's slot and derives its
//! per-kind counters from one histogram. The reference here caches nothing:
//! it looks each event's miner up in a map, counts threads and switches in
//! a plain loop, and computes every [`Metrics`] field by filtering the
//! events. Streams cover 1–8 threads in random-length bursts and a
//! round-robin case that switches thread on every event, all four target
//! shapes, full-range indices (including the `u32::MAX` and `2^31` edges)
//! and repeated or inverted sequence numbers. Snapshots are taken at random
//! prefixes while folding continues, so a snapshot must not disturb state.

use std::borrow::Cow;
use std::collections::HashMap;

use dsspy_events::{AccessClass, AccessEvent, AccessKind, Target, ThreadTag};
use dsspy_patterns::analysis::LONG_READ_COVERAGE;
use dsspy_patterns::{
    IncrementalAnalyzer, Metrics, MinerConfig, PatternInstance, PatternKind, RegularityConfig,
    RegularityVerdict, ThreadProfile,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// One drawn event: kind, target shape, index rule, raw bits, length rule
/// and sequence step.
type Draw = (usize, u8, u8, u32, u8, u8);

fn arb_draw() -> impl Strategy<Value = Draw> {
    (0usize..11, 0u8..4, 0u8..6, any::<u32>(), 0u8..3, 0u8..5)
}

/// Thread of the `k`-th event: bursts of random length over `threads`
/// threads, or (when `bursts` is empty) round robin over at least two.
fn thread_of(k: usize, threads: u32, bursts: &[(u32, usize)]) -> ThreadTag {
    if bursts.is_empty() {
        return ThreadTag(k as u32 % threads.max(2));
    }
    let period: usize = bursts.iter().map(|(_, n)| n).sum();
    let mut at = k % period;
    for &(pick, n) in bursts {
        if at < n {
            return ThreadTag(pick % threads);
        }
        at -= n;
    }
    unreachable!("k % period lands inside a burst")
}

/// Turn draws into events. Index rules step from the thread's previous
/// index (so runs form) or jump anywhere, including the top of `u32`.
fn build(draws: &[Draw], threads: u32, bursts: &[(u32, usize)]) -> Vec<AccessEvent> {
    let mut prev: HashMap<ThreadTag, u32> = HashMap::new();
    let mut seq = 1_000u64;
    let mut events = Vec::with_capacity(draws.len());
    for (k, &(kind, shape, rule, raw, len_rule, step)) in draws.iter().enumerate() {
        let thread = thread_of(k, threads, bursts);
        let last = prev.get(&thread).copied().unwrap_or(0);
        let index = match rule {
            0 => last.wrapping_add(1),
            1 => last.wrapping_sub(1),
            2 => 0,
            3 => raw,
            4 => u32::MAX - raw % 4,
            _ => (1u32 << 31) - 2 + raw % 4,
        };
        prev.insert(thread, index);
        let target = match shape {
            0 | 1 => Target::Index(index),
            2 => Target::Range {
                start: index,
                end: index.saturating_add(raw % 8),
            },
            _ if raw % 2 == 0 => Target::Whole,
            _ => Target::None,
        };
        let len = match len_rule {
            0 => index.wrapping_add(1),
            1 => index,
            _ => raw % 64,
        };
        // Mostly increasing, sometimes repeated, sometimes inverted.
        seq = match step {
            0 => seq,
            4 => seq.saturating_sub(2),
            s => seq + u64::from(s),
        };
        events.push(AccessEvent {
            seq,
            kind: AccessKind::ALL[kind],
            target,
            len,
            thread,
        });
    }
    events
}

/// Patterns with no caching: one map lookup per event, then every miner
/// flushed in ascending thread order and the list ordered by start.
fn naive_patterns(events: &[AccessEvent], min_len: usize) -> Vec<PatternInstance> {
    let mut miners: HashMap<ThreadTag, dsspy_patterns::ThreadMiner> = HashMap::new();
    let mut patterns = Vec::new();
    for (pos, e) in (0u64..).zip(events) {
        miners
            .entry(e.thread)
            .or_insert_with(|| dsspy_patterns::ThreadMiner::new(e.thread))
            .push(e, pos, min_len, &mut |p| patterns.push(p));
    }
    let mut tags: Vec<ThreadTag> = miners.keys().copied().collect();
    tags.sort_unstable();
    for tag in tags {
        miners
            .get_mut(&tag)
            .unwrap()
            .flush(min_len, &mut |p| patterns.push(p));
    }
    patterns.sort_by_key(|p| p.first_seq);
    patterns
}

fn naive_threads(events: &[AccessEvent]) -> ThreadProfile {
    let mut counts: Vec<(ThreadTag, usize)> = Vec::new();
    let mut switches = 0;
    for (k, e) in events.iter().enumerate() {
        match counts.iter_mut().find(|(t, _)| *t == e.thread) {
            Some((_, n)) => *n += 1,
            None => counts.push((e.thread, 1)),
        }
        if k > 0 && events[k - 1].thread != e.thread {
            switches += 1;
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ThreadProfile {
        thread_count: counts.len(),
        dominant_share: counts
            .first()
            .map_or(0.0, |(_, n)| *n as f64 / events.len() as f64),
        events_per_thread: counts,
        switches,
    }
}

/// Where a positional event with index `i` sits: (front, back).
fn ends(e: &AccessEvent, i: u32) -> (bool, bool) {
    let back = match e.kind {
        AccessKind::Delete => i == e.len,
        _ => e.len > 0 && i == e.len - 1,
    };
    (i == 0, back)
}

/// Every `Metrics` field, each from its own filter over the events (and
/// the pattern list for the pattern-level fields).
fn naive_metrics(events: &[AccessEvent], patterns: &[PatternInstance]) -> Metrics {
    let count = |pred: &dyn Fn(&AccessEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    let of = |k: AccessKind| count(&|e| e.kind == k);
    let total = events.len();
    let mut m = Metrics {
        total_events: total,
        reads: count(&|e| e.class() == AccessClass::Read),
        writes: count(&|e| e.class() == AccessClass::Write),
        max_struct_len: events.iter().map(|e| e.len).max().unwrap_or(0),
        duration_ticks: match (events.first(), events.last()) {
            (Some(first), Some(last)) => last.seq.saturating_sub(first.seq),
            _ => 0,
        },
        insert_ops: of(AccessKind::Insert),
        delete_ops: of(AccessKind::Delete),
        resize_ops: of(AccessKind::Resize),
        sort_ops: of(AccessKind::Sort),
        search_ops: of(AccessKind::Search),
        ..Metrics::default()
    };
    for k in AccessKind::ALL {
        m.by_kind[k as usize] = of(k);
    }
    let mutations: Vec<AccessKind> = events
        .iter()
        .map(|e| e.kind)
        .filter(|k| matches!(k, AccessKind::Insert | AccessKind::Delete))
        .collect();
    m.insert_delete_alternations = mutations.windows(2).filter(|w| w[0] != w[1]).count();
    m.trailing_unread_writes = events
        .iter()
        .rev()
        .filter(|e| !matches!(e.kind, AccessKind::Clear | AccessKind::Delete))
        .take_while(|e| e.kind == AccessKind::Write)
        .count();
    if total > 0 {
        m.read_or_search_share =
            (of(AccessKind::Read) + of(AccessKind::Search)) as f64 / total as f64;
    }

    let positional: Vec<(&AccessEvent, bool, bool)> = events
        .iter()
        .filter(|e| e.kind.is_positional())
        .filter_map(|e| {
            let (front, back) = ends(e, e.index()?);
            Some((e, front, back))
        })
        .collect();
    if !positional.is_empty() {
        let n = positional.len() as f64;
        m.front_share = positional.iter().filter(|p| p.1).count() as f64 / n;
        m.back_share = positional.iter().filter(|p| p.2).count() as f64 / n;
    }
    let end_count = |kind: AccessKind, front_only: bool| {
        positional
            .iter()
            .filter(|(e, front, back)| {
                e.kind == kind && if front_only { *front && !*back } else { *back }
            })
            .count()
    };
    let (insert_front, insert_back) = (
        end_count(AccessKind::Insert, true),
        end_count(AccessKind::Insert, false),
    );
    let (delete_front, delete_back) = (
        end_count(AccessKind::Delete, true),
        end_count(AccessKind::Delete, false),
    );
    if m.insert_ops >= 1 && m.delete_ops >= 1 {
        let ins_decided = insert_front != insert_back;
        let del_decided = delete_front != delete_back;
        if ins_decided && del_decided {
            let same = (insert_front > insert_back) == (delete_front > delete_back);
            m.two_ended = !same;
            m.common_end = same;
        } else if !ins_decided && !del_decided {
            m.common_end = insert_front + delete_front > 0;
        }
        if m.insert_ops > insert_front + insert_back || m.delete_ops > delete_front + delete_back {
            m.common_end = false;
        }
    }

    let inserts: Vec<&PatternInstance> = patterns.iter().filter(|p| p.kind.is_insert()).collect();
    let reads: Vec<&PatternInstance> = patterns.iter().filter(|p| p.kind.is_read()).collect();
    m.insert_pattern_count = inserts.len();
    m.longest_insert_run = inserts.iter().map(|p| p.len).max().unwrap_or(0);
    m.read_pattern_count = reads.len();
    m.long_read_pattern_count = reads
        .iter()
        .filter(|p| p.coverage() >= LONG_READ_COVERAGE)
        .count();
    if total > 0 {
        m.read_pattern_event_share =
            reads.iter().map(|p| p.len).sum::<usize>() as f64 / total as f64;
    }
    let insert_ticks: u64 = inserts.iter().map(|p| p.duration_ticks()).sum();
    m.insert_phase_share = if m.duration_ticks > 0 {
        (insert_ticks as f64 / m.duration_ticks as f64).min(1.0)
    } else if total > 0 {
        inserts.iter().map(|p| p.len).sum::<usize>() as f64 / total as f64
    } else {
        0.0
    };
    if let Some(end) = inserts.iter().map(|p| p.last_seq).min() {
        m.sorts_after_insert = count(&|e| e.kind == AccessKind::Sort && e.seq > end);
    }
    m
}

/// The regularity gate from per-kind counts and longest runs.
fn naive_verdict(patterns: &[PatternInstance], config: &RegularityConfig) -> RegularityVerdict {
    let kinds: Vec<PatternKind> = PatternKind::ALL
        .into_iter()
        .filter(|&k| {
            let runs: Vec<usize> = patterns
                .iter()
                .filter(|p| p.kind == k)
                .map(|p| p.len)
                .collect();
            runs.len() >= config.min_recurrences
                || runs.iter().any(|&len| len >= config.min_single_run)
        })
        .collect();
    if kinds.is_empty() {
        RegularityVerdict::Irregular
    } else {
        RegularityVerdict::Regular(kinds)
    }
}

/// The analyzer's snapshot equals the reference over the same prefix.
fn check(
    inc: &IncrementalAnalyzer,
    prefix: &[AccessEvent],
    config: &MinerConfig,
) -> Result<(), TestCaseError> {
    let regularity = RegularityConfig::default();
    let (got, verdict) = inc.snapshot(&regularity);
    let patterns = naive_patterns(prefix, config.min_run_len.max(2));
    let metrics = naive_metrics(prefix, &patterns);
    prop_assert_eq!(inc.event_count(), prefix.len());
    let inversions = prefix.windows(2).filter(|w| w[1].seq < w[0].seq).count();
    prop_assert_eq!(inc.out_of_order(), inversions as u64);
    prop_assert_eq!(&verdict, &naive_verdict(&patterns, &regularity));
    prop_assert_eq!(&got.patterns, &patterns, "prefix {}", prefix.len());
    prop_assert_eq!(
        serde_json::to_string(&got.metrics).unwrap(),
        serde_json::to_string(&metrics).unwrap(),
        "prefix {}",
        prefix.len()
    );
    prop_assert_eq!(&got.threads, &naive_threads(prefix));
    Ok(())
}

/// Fold `events`, checking a snapshot at each of `cuts` (prefix lengths)
/// and at the end.
fn fold_and_check(events: &[AccessEvent], cuts: &[usize]) -> Result<(), TestCaseError> {
    let config = MinerConfig::default();
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (events.len() + 1)).collect();
    cuts.sort_unstable();
    let mut inc = IncrementalAnalyzer::new(&config);
    let mut folded = 0;
    for cut in cuts {
        for e in &events[folded..cut] {
            inc.fold(e);
        }
        folded = cut;
        check(&inc, &events[..cut], &config)?;
    }
    for e in &events[folded..] {
        inc.fold(e);
    }
    check(&inc, events, &config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bursty_threads_match_the_naive_reference(
        draws in proptest::collection::vec(arb_draw(), 0..400),
        threads in 1u32..9,
        bursts in proptest::collection::vec((0u32..8, 1usize..40), 1..12),
        cuts in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        fold_and_check(&build(&draws, threads, &bursts), &cuts)?;
    }

    #[test]
    fn a_switch_on_every_event_matches_the_naive_reference(
        draws in proptest::collection::vec(arb_draw(), 0..400),
        threads in 2u32..9,
        cuts in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        let events = build(&draws, threads, &[]);
        prop_assert!(events.windows(2).all(|w| w[0].thread != w[1].thread));
        fold_and_check(&events, &cuts)?;
    }
}

/// Fold `events` straight through.
fn straight(events: &[AccessEvent], config: &MinerConfig) -> IncrementalAnalyzer {
    let mut inc = IncrementalAnalyzer::new(config);
    for e in events {
        inc.fold(e);
    }
    inc
}

/// The pieces of `events` cut at `cuts` (taken modulo the length + 1).
fn pieces<'a>(events: &'a [AccessEvent], cuts: &[usize]) -> Vec<&'a [AccessEvent]> {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (events.len() + 1)).collect();
    cuts.sort_unstable();
    let mut out = Vec::new();
    let mut at = 0;
    for cut in cuts {
        out.push(&events[at..cut]);
        at = cut;
    }
    out.push(&events[at..]);
    out
}

/// Two analyzers agree on everything a report reads from them.
fn same(a: &IncrementalAnalyzer, b: &IncrementalAnalyzer) -> Result<(), TestCaseError> {
    let regularity = RegularityConfig::default();
    let ((got, got_verdict), (want, want_verdict)) =
        (a.snapshot(&regularity), b.snapshot(&regularity));
    prop_assert_eq!(a.event_count(), b.event_count());
    prop_assert_eq!(a.out_of_order(), b.out_of_order());
    prop_assert_eq!(&got_verdict, &want_verdict);
    prop_assert_eq!(&got.patterns, &want.patterns);
    prop_assert_eq!(
        serde_json::to_string(&got.metrics).unwrap(),
        serde_json::to_string(&want.metrics).unwrap()
    );
    prop_assert_eq!(&got.threads, &want.threads);
    Ok(())
}

/// Fold every piece on its own and merge them left to right; the result
/// must equal the straight fold, and must keep folding like it.
fn merge_law(events: &[AccessEvent], cuts: &[usize]) -> Result<(), TestCaseError> {
    let config = MinerConfig::default();
    let want = straight(events, &config);
    let mut parts = pieces(events, cuts).into_iter();
    let first = parts.next().expect("at least one piece");
    let mut merged = straight(first, &config);
    for part in parts {
        merged.merge(straight(part, &config), || Cow::Borrowed(part));
    }
    same(&merged, &want)?;
    // Merging is also associative: the same pieces merged right to left.
    let parts = pieces(events, cuts);
    let mut right = straight(parts[parts.len() - 1], &config);
    let mut right_start = events.len() - parts[parts.len() - 1].len();
    for part in parts[..parts.len() - 1].iter().rev() {
        let mut left = straight(part, &config);
        let right_events = &events[right_start..];
        left.merge(right, || Cow::Borrowed(right_events));
        right = left;
        right_start -= part.len();
    }
    same(&right, &want)?;
    // A merged analyzer folds on exactly like the straight one.
    let (mut merged, mut want) = (merged, want);
    for e in events.iter().take(32) {
        merged.fold(e);
        want.fold(e);
    }
    same(&merged, &want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merged_folds_of_bursty_threads_equal_the_straight_fold(
        draws in proptest::collection::vec(arb_draw(), 0..400),
        threads in 1u32..9,
        bursts in proptest::collection::vec((0u32..8, 1usize..40), 1..12),
        cuts in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        merge_law(&build(&draws, threads, &bursts), &cuts)?;
    }

    #[test]
    fn merged_folds_of_a_switch_on_every_event_equal_the_straight_fold(
        draws in proptest::collection::vec(arb_draw(), 0..400),
        threads in 2u32..9,
        cuts in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        merge_law(&build(&draws, threads, &[]), &cuts)?;
    }

    #[test]
    fn merged_folds_of_runs_equal_the_straight_fold(
        runs in proptest::collection::vec((0usize..4, 0u8..3, 1u32..40, 0u32..6), 1..30),
        cuts in proptest::collection::vec(any::<usize>(), 1..8),
    ) {
        merge_law(&run_stream(&runs), &cuts)?;
    }
}

/// Long single-thread runs on every track: forward and backward scans,
/// indices alternating between two neighbours (a read track that never
/// settles), and inserts or deletes at either end, so cut points land
/// inside runs of every shape.
fn run_stream(runs: &[(usize, u8, u32, u32)]) -> Vec<AccessEvent> {
    let kinds = [
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::Insert,
        AccessKind::Delete,
    ];
    let mut events = Vec::new();
    let mut len = 8u32;
    for &(track, shape, n, start) in runs {
        for k in 0..n {
            let index = match (track, shape) {
                (0 | 1, 0) => start + k,
                (0 | 1, 1) => start + n - k,
                (0 | 1, _) => start + k % 2,
                (2, 0) => {
                    len += 1;
                    len - 1
                }
                (2, _) => {
                    len += 1;
                    0
                }
                (_, 0) => {
                    len = len.saturating_sub(1);
                    len
                }
                _ => {
                    len = len.saturating_sub(1);
                    0
                }
            };
            events.push(AccessEvent {
                seq: events.len() as u64,
                kind: kinds[track],
                target: Target::Index(index),
                len: if track == 3 { len } else { len.max(index + 1) },
                thread: ThreadTag::MAIN,
            });
        }
    }
    events
}
