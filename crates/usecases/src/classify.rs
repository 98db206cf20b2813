//! The classifier: maps a profile analysis onto use cases with evidence.

use dsspy_events::{DsKind, InstanceInfo};
use dsspy_patterns::ProfileAnalysis;
use serde::{Deserialize, Serialize};

use crate::thresholds::Thresholds;
use crate::usecase::UseCaseKind;

/// One piece of evidence behind a detection: a measured value against the
/// threshold it crossed. Rendered in reports so the engineer can see *why*
/// a location was flagged (the trust requirement of §I).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Evidence {
    /// Human-readable name of the measured quantity.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// The threshold it was compared against.
    pub threshold: f64,
}

impl std::fmt::Display for Evidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} = {:.4} (threshold {:.4})",
            self.name, self.value, self.threshold
        )
    }
}

/// A detected use case on one data-structure instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UseCase {
    /// The category.
    pub kind: UseCaseKind,
    /// The instance it fired on (carries the Table-V reporting fields:
    /// class, method, position, data-structure type).
    pub instance: InstanceInfo,
    /// Why it fired: every measured value that crossed its threshold.
    pub evidence: Vec<Evidence>,
}

impl UseCase {
    /// The recommended action for this category (§III-B).
    pub fn recommendation(&self) -> &'static str {
        self.kind.recommended_action()
    }

    /// One-line reason string assembled from the evidence.
    pub fn reason(&self) -> String {
        self.evidence
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Classify one analyzed profile into zero or more use cases.
///
/// Categories the paper defines over *linear* structures (positional access)
/// are only evaluated when the instance kind is linear; IDF additionally
/// requires an array (fixed-size copy overhead is its whole point), and the
/// list-misuse categories (IQ, SI) are not raised on structures that already
/// *are* queues/stacks.
///
/// Suppression rules keep the result set focused, mirroring the paper's
/// category counts (Table III lists each instance once per distinct reason):
/// * SAI subsumes LI — the sort makes the stronger statement;
/// * FS subsumes FLR — FLR is "Frequent-Search, but more disguised", so an
///   explicit search detection wins.
pub fn classify(
    instance: &InstanceInfo,
    analysis: &ProfileAnalysis,
    t: &Thresholds,
) -> Vec<UseCase> {
    let mut out = Vec::new();
    let m = &analysis.metrics;
    if m.total_events == 0 {
        return out;
    }
    let linear = instance.kind.is_linear();
    // Already-parallel gate: when several threads interleave on this
    // instance, the parallel recommendations are moot (the sequential
    // optimizations below still run; the early return only skips the five
    // parallel categories, which all precede them in this function).
    let already_parallel = t.skip_already_parallel && analysis.threads.is_shared_concurrently();

    // --- Sort-After-Insert (checked before LI: it subsumes it) -----------
    let mut sai = false;
    if linear
        && !already_parallel
        && m.sorts_after_insert >= 1
        && m.longest_insert_run >= t.sai_min_insert_run
        && m.insert_phase_share > t.sai_min_phase_share
    {
        sai = true;
        out.push(UseCase {
            kind: UseCaseKind::SortAfterInsert,
            instance: instance.clone(),
            evidence: vec![
                Evidence {
                    name: "sorts after insertion phase".into(),
                    value: m.sorts_after_insert as f64,
                    threshold: 1.0,
                },
                Evidence {
                    name: "longest insertion phase (events)".into(),
                    value: m.longest_insert_run as f64,
                    threshold: t.sai_min_insert_run as f64,
                },
                Evidence {
                    name: "insertion phase runtime share".into(),
                    value: m.insert_phase_share,
                    threshold: t.sai_min_phase_share,
                },
            ],
        });
    }

    // --- Long-Insert -------------------------------------------------------
    if linear
        && !already_parallel
        && !sai
        && m.longest_insert_run >= t.li_min_run_len
        && m.insert_phase_share > t.li_min_phase_share
    {
        out.push(UseCase {
            kind: UseCaseKind::LongInsert,
            instance: instance.clone(),
            evidence: vec![
                Evidence {
                    name: "longest insertion phase (events)".into(),
                    value: m.longest_insert_run as f64,
                    threshold: t.li_min_run_len as f64,
                },
                Evidence {
                    name: "insertion phase runtime share".into(),
                    value: m.insert_phase_share,
                    threshold: t.li_min_phase_share,
                },
            ],
        });
    }

    // --- Implement-Queue -----------------------------------------------------
    if matches!(
        instance.kind,
        DsKind::List | DsKind::ArrayList | DsKind::Deque
    ) && !already_parallel
        && m.two_ended
        && m.end_traffic_share() > t.iq_min_end_traffic
        && m.insert_ops + m.delete_ops >= t.iq_min_mutations
    {
        out.push(UseCase {
            kind: UseCaseKind::ImplementQueue,
            instance: instance.clone(),
            evidence: vec![
                Evidence {
                    name: "end traffic share".into(),
                    value: m.end_traffic_share(),
                    threshold: t.iq_min_end_traffic,
                },
                Evidence {
                    name: "insert+delete operations".into(),
                    value: (m.insert_ops + m.delete_ops) as f64,
                    threshold: t.iq_min_mutations as f64,
                },
            ],
        });
    }

    // --- Frequent-Search ------------------------------------------------------
    let mut fs = false;
    if linear
        && !already_parallel
        && m.search_ops > t.fs_min_search_ops
        && m.read_pattern_event_share >= t.fs_min_read_pattern_share
    {
        fs = true;
        out.push(UseCase {
            kind: UseCaseKind::FrequentSearch,
            instance: instance.clone(),
            evidence: vec![
                Evidence {
                    name: "search operations".into(),
                    value: m.search_ops as f64,
                    threshold: t.fs_min_search_ops as f64,
                },
                Evidence {
                    name: "events in read patterns (share)".into(),
                    value: m.read_pattern_event_share,
                    threshold: t.fs_min_read_pattern_share,
                },
            ],
        });
    }

    // --- Frequent-Long-Read -----------------------------------------------------
    if linear
        && !already_parallel
        && !fs
        && m.long_read_pattern_count > t.flr_min_read_patterns
        && m.read_or_search_share >= t.flr_min_read_share
    {
        out.push(UseCase {
            kind: UseCaseKind::FrequentLongRead,
            instance: instance.clone(),
            evidence: vec![
                Evidence {
                    name: "long sequential read patterns".into(),
                    value: m.long_read_pattern_count as f64,
                    threshold: t.flr_min_read_patterns as f64,
                },
                Evidence {
                    name: "Read/Search access-type share".into(),
                    value: m.read_or_search_share,
                    threshold: t.flr_min_read_share,
                },
            ],
        });
    }

    // --- Insert/Delete-Front (arrays; sequential) -------------------------------
    if instance.kind == DsKind::Array
        && m.resize_ops >= t.idf_min_resizes
        && m.insert_delete_alternations >= t.idf_min_alternations
    {
        out.push(UseCase {
            kind: UseCaseKind::InsertDeleteFront,
            instance: instance.clone(),
            evidence: vec![
                Evidence {
                    name: "array resizes".into(),
                    value: m.resize_ops as f64,
                    threshold: t.idf_min_resizes as f64,
                },
                Evidence {
                    name: "insert/delete alternations".into(),
                    value: m.insert_delete_alternations as f64,
                    threshold: t.idf_min_alternations as f64,
                },
            ],
        });
    }

    // --- Stack-Implementation (sequential) -----------------------------------------
    if matches!(instance.kind, DsKind::List | DsKind::ArrayList)
        && m.common_end
        && m.insert_ops + m.delete_ops >= t.si_min_mutations
        && m.delete_ops >= 1
    {
        out.push(UseCase {
            kind: UseCaseKind::StackImplementation,
            instance: instance.clone(),
            evidence: vec![Evidence {
                name: "insert+delete operations on a common end".into(),
                value: (m.insert_ops + m.delete_ops) as f64,
                threshold: t.si_min_mutations as f64,
            }],
        });
    }

    // --- Write-Without-Read (sequential) --------------------------------------------
    if m.trailing_unread_writes >= t.wwr_min_trailing_writes {
        out.push(UseCase {
            kind: UseCaseKind::WriteWithoutRead,
            instance: instance.clone(),
            evidence: vec![Evidence {
                name: "trailing never-read writes".into(),
                value: m.trailing_unread_writes as f64,
                threshold: t.wwr_min_trailing_writes as f64,
            }],
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::{
        AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, RuntimeProfile, Target,
        ThreadTag,
    };
    use dsspy_patterns::{analyze, MinerConfig};

    fn info(kind: DsKind) -> InstanceInfo {
        InstanceInfo::new(
            InstanceId(0),
            AllocationSite::new("Test.Class", "method", 42),
            kind,
            "i64",
        )
    }

    fn classify_events(kind: DsKind, events: Vec<AccessEvent>) -> Vec<UseCase> {
        let profile = RuntimeProfile::new(info(kind), events);
        let analysis = analyze(&profile, &MinerConfig::default());
        classify(&info(kind), &analysis, &Thresholds::default())
    }

    fn kinds(cases: &[UseCase]) -> Vec<UseCaseKind> {
        cases.iter().map(|c| c.kind).collect()
    }

    /// n appends starting at seq0 from an empty list.
    fn appends(seq0: u64, n: u32) -> Vec<AccessEvent> {
        (0..n)
            .map(|i| AccessEvent::at(seq0 + u64::from(i), AccessKind::Insert, i, i + 1))
            .collect()
    }

    #[test]
    fn long_insert_fires_on_bulk_append() {
        let cases = classify_events(DsKind::List, appends(0, 500));
        assert_eq!(kinds(&cases), vec![UseCaseKind::LongInsert]);
        assert!(cases[0].reason().contains("insertion phase"));
        assert_eq!(
            cases[0].recommendation(),
            "Parallelize the insert operation."
        );
    }

    #[test]
    fn long_insert_needs_long_runs() {
        // 99-event phase: below the 100-event threshold.
        let cases = classify_events(DsKind::List, appends(0, 99));
        assert!(kinds(&cases).is_empty());
        // Exactly 100 fires.
        let cases = classify_events(DsKind::List, appends(0, 100));
        assert_eq!(kinds(&cases), vec![UseCaseKind::LongInsert]);
    }

    #[test]
    fn long_insert_needs_runtime_share() {
        // A long insert phase buried in ten times as many reads: share too low.
        let mut events = appends(0, 120);
        let mut seq = 120u64;
        for round in 0..12 {
            for i in 0..120u32 {
                // Non-adjacent stride-2 reads: no read patterns either.
                let idx = (i * 2 + round) % 120;
                events.push(AccessEvent::at(seq, AccessKind::Read, idx, 120));
                seq += 1;
            }
        }
        let cases = classify_events(DsKind::List, events);
        assert!(
            !kinds(&cases).contains(&UseCaseKind::LongInsert),
            "insert share ~8% must not fire LI: {cases:?}"
        );
    }

    #[test]
    fn implement_queue_fires_on_two_ended_traffic() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut len = 0u32;
        for _ in 0..40 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, len, len + 1));
            len += 1;
            seq += 1;
            if len > 3 {
                len -= 1;
                events.push(AccessEvent::at(seq, AccessKind::Delete, 0, len));
                seq += 1;
            }
        }
        let cases = classify_events(DsKind::List, events);
        assert!(
            kinds(&cases).contains(&UseCaseKind::ImplementQueue),
            "{cases:?}"
        );
    }

    #[test]
    fn implement_queue_not_raised_on_actual_queue() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut len = 0u32;
        for _ in 0..40 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, len, len + 1));
            len += 1;
            seq += 1;
            len -= 1;
            events.push(AccessEvent::at(seq, AccessKind::Delete, 0, len));
            seq += 1;
        }
        let cases = classify_events(DsKind::Queue, events);
        assert!(!kinds(&cases).contains(&UseCaseKind::ImplementQueue));
    }

    #[test]
    fn sort_after_insert_subsumes_long_insert() {
        let mut events = appends(0, 200);
        events.push(AccessEvent::whole(200, AccessKind::Sort, 200));
        let cases = classify_events(DsKind::List, events);
        assert!(kinds(&cases).contains(&UseCaseKind::SortAfterInsert));
        assert!(!kinds(&cases).contains(&UseCaseKind::LongInsert));
    }

    #[test]
    fn frequent_search_fires_above_1000_searches() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        // Build a 50-element list.
        for e in appends(0, 50) {
            events.push(e);
            seq += 1;
        }
        // A few forward scans so read patterns exist (>2 % of events).
        for _ in 0..3 {
            for i in 0..50u32 {
                events.push(AccessEvent::at(seq, AccessKind::Read, i, 50));
                seq += 1;
            }
        }
        // 1100 explicit searches.
        for _ in 0..1100 {
            events.push(AccessEvent {
                seq,
                kind: AccessKind::Search,
                target: Target::Range { start: 0, end: 25 },
                len: 50,
                thread: ThreadTag::MAIN,
            });
            seq += 1;
        }
        let cases = classify_events(DsKind::List, events);
        assert!(
            kinds(&cases).contains(&UseCaseKind::FrequentSearch),
            "{cases:?}"
        );
        // FS suppresses FLR.
        assert!(!kinds(&cases).contains(&UseCaseKind::FrequentLongRead));
    }

    #[test]
    fn frequent_search_needs_read_patterns_too() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        for e in appends(0, 2000) {
            events.push(e);
            seq += 1;
        }
        for _ in 0..1100 {
            events.push(AccessEvent {
                seq,
                kind: AccessKind::Search,
                target: Target::Range { start: 0, end: 25 },
                len: 2000,
                thread: ThreadTag::MAIN,
            });
            seq += 1;
        }
        // No Read-Forward/Backward patterns at all → share 0 < 2 %.
        let cases = classify_events(DsKind::List, events);
        assert!(!kinds(&cases).contains(&UseCaseKind::FrequentSearch));
    }

    #[test]
    fn frequent_long_read_fires_on_repeated_full_scans() {
        let mut events = appends(0, 30);
        let mut seq = 30u64;
        // Twelve full forward scans, separated so each is its own pattern.
        for _ in 0..12 {
            for i in 0..30u32 {
                events.push(AccessEvent::at(seq, AccessKind::Read, i, 30));
                seq += 1;
            }
            events.push(AccessEvent::at(seq, AccessKind::Read, 15, 30));
            seq += 1;
        }
        let cases = classify_events(DsKind::List, events);
        assert!(
            kinds(&cases).contains(&UseCaseKind::FrequentLongRead),
            "{cases:?}"
        );
    }

    #[test]
    fn short_scans_do_not_fire_flr() {
        let mut events = appends(0, 100);
        let mut seq = 100u64;
        // Twelve scans covering only 20 % of the structure.
        for _ in 0..12 {
            for i in 0..20u32 {
                events.push(AccessEvent::at(seq, AccessKind::Read, i, 100));
                seq += 1;
            }
            events.push(AccessEvent::at(seq, AccessKind::Read, 50, 100));
            seq += 1;
        }
        let cases = classify_events(DsKind::List, events);
        assert!(!kinds(&cases).contains(&UseCaseKind::FrequentLongRead));
    }

    #[test]
    fn stack_implementation_on_list() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut len = 0u32;
        for _ in 0..20 {
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
        let cases = classify_events(DsKind::List, events);
        assert!(
            kinds(&cases).contains(&UseCaseKind::StackImplementation),
            "{cases:?}"
        );
        // Not two-ended, so never IQ simultaneously.
        assert!(!kinds(&cases).contains(&UseCaseKind::ImplementQueue));
    }

    #[test]
    fn stack_implementation_not_raised_on_actual_stack() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut len = 0u32;
        for _ in 0..30 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, len, len + 1));
            len += 1;
            seq += 1;
            len -= 1;
            events.push(AccessEvent::at(seq, AccessKind::Delete, len, len));
            seq += 1;
        }
        let cases = classify_events(DsKind::Stack, events);
        assert!(!kinds(&cases).contains(&UseCaseKind::StackImplementation));
    }

    #[test]
    fn idf_fires_on_churning_array() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut len = 10u32;
        for _ in 0..10 {
            len += 1;
            events.push(AccessEvent::whole(seq, AccessKind::Resize, len));
            seq += 1;
            events.push(AccessEvent::at(seq, AccessKind::Insert, 0, len));
            seq += 1;
            len -= 1;
            events.push(AccessEvent::whole(seq, AccessKind::Resize, len));
            seq += 1;
            events.push(AccessEvent::at(seq, AccessKind::Delete, 0, len));
            seq += 1;
        }
        let cases = classify_events(DsKind::Array, events);
        assert!(
            kinds(&cases).contains(&UseCaseKind::InsertDeleteFront),
            "{cases:?}"
        );
        // Same trace on a list: no IDF (lists don't pay the copy overhead).
        let mut events2 = Vec::new();
        let mut seq = 0u64;
        let mut len = 10u32;
        for _ in 0..10 {
            len += 1;
            events2.push(AccessEvent::at(seq, AccessKind::Insert, 0, len));
            seq += 1;
            len -= 1;
            events2.push(AccessEvent::at(seq, AccessKind::Delete, 0, len));
            seq += 1;
        }
        let cases2 = classify_events(DsKind::List, events2);
        assert!(!kinds(&cases2).contains(&UseCaseKind::InsertDeleteFront));
    }

    #[test]
    fn wwr_fires_on_trailing_cleanup_writes() {
        let mut events = appends(0, 10);
        let mut seq = 10u64;
        for i in 0..10u32 {
            events.push(AccessEvent::at(seq, AccessKind::Read, i, 10));
            seq += 1;
        }
        // Null out every entry at end of life.
        for i in 0..10u32 {
            events.push(AccessEvent::at(seq, AccessKind::Write, i, 10));
            seq += 1;
        }
        let cases = classify_events(DsKind::List, events);
        assert!(
            kinds(&cases).contains(&UseCaseKind::WriteWithoutRead),
            "{cases:?}"
        );
    }

    #[test]
    fn empty_profile_classifies_to_nothing() {
        assert!(classify_events(DsKind::List, vec![]).is_empty());
    }

    #[test]
    fn dictionary_never_gets_linear_use_cases() {
        // Dictionaries produce non-positional events; feed a linear-looking
        // trace anyway and verify kind-gating holds.
        let cases = classify_events(DsKind::Dictionary, appends(0, 500));
        assert!(!kinds(&cases).contains(&UseCaseKind::LongInsert));
    }

    #[test]
    fn multiple_use_cases_on_one_instance() {
        // gpdotnet's population list: long inserts *and* frequent long reads
        // on the same structure (paper Table V, use cases 2+3).
        let mut events = appends(0, 200);
        let mut seq = 200u64;
        for _ in 0..12 {
            for i in 0..200u32 {
                events.push(AccessEvent::at(seq, AccessKind::Read, i, 200));
                seq += 1;
            }
            events.push(AccessEvent::at(seq, AccessKind::Read, 100, 200));
            seq += 1;
        }
        let cases = classify_events(DsKind::List, events);
        let ks = kinds(&cases);
        assert!(ks.contains(&UseCaseKind::FrequentLongRead), "{ks:?}");
        // Insert share is ~8 % of events here, so LI must NOT fire; bump the
        // insert weight in a second trace where inserts dominate runtime.
        let mut events = appends(0, 3000);
        let mut seq = 3000u64;
        for _ in 0..12 {
            for i in 0..200u32 {
                events.push(AccessEvent::at(seq, AccessKind::Read, i, 3000));
                seq += 1;
            }
            events.push(AccessEvent::at(seq, AccessKind::Read, 100, 3000));
            seq += 1;
        }
        let cases = classify_events(DsKind::List, events);
        let ks = kinds(&cases);
        assert!(ks.contains(&UseCaseKind::LongInsert), "{ks:?}");
    }
}

#[cfg(test)]
mod thread_gate_tests {
    use super::*;
    use dsspy_events::{
        AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, RuntimeProfile, ThreadTag,
    };
    use dsspy_patterns::{analyze, MinerConfig};

    fn info() -> InstanceInfo {
        InstanceInfo::new(
            InstanceId(0),
            AllocationSite::new("T", "shared", 1),
            DsKind::List,
            "i64",
        )
    }

    /// Two threads ping-ponging append blocks on one list: already
    /// parallel. Blocks of 100 keep each thread's insert runs long enough
    /// for LI's pattern conditions, while the >2 thread switches mark the
    /// instance as concurrently shared.
    fn shared_append_profile() -> RuntimeProfile {
        let mut events = Vec::new();
        for i in 0..400u32 {
            let mut e = AccessEvent::at(u64::from(i), AccessKind::Insert, i, i + 1);
            e.thread = ThreadTag((i / 100) % 2);
            events.push(e);
        }
        RuntimeProfile::new(info(), events)
    }

    #[test]
    fn already_parallel_instances_are_not_recommended_for_parallelization() {
        let profile = shared_append_profile();
        let analysis = analyze(&profile, &MinerConfig::default());
        assert!(analysis.threads.is_shared_concurrently());

        let gated = classify(&info(), &analysis, &Thresholds::default());
        assert!(
            gated.iter().all(|u| !u.kind.is_parallel()),
            "parallel advice suppressed: {gated:?}"
        );

        let ungated = classify(
            &info(),
            &analysis,
            &Thresholds {
                skip_already_parallel: false,
                ..Thresholds::default()
            },
        );
        assert!(
            ungated.iter().any(|u| u.kind == UseCaseKind::LongInsert),
            "without the gate the LI fires: {ungated:?}"
        );
    }

    #[test]
    fn phase_handoff_across_threads_still_gets_advice() {
        // Thread 0 fills, thread 1 scans afterwards: one handoff, not
        // concurrent sharing — recommendations stay on.
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..300u32 {
            let mut e = AccessEvent::at(seq, AccessKind::Insert, i, i + 1);
            e.thread = ThreadTag(0);
            events.push(e);
            seq += 1;
        }
        for i in 0..300u32 {
            let mut e = AccessEvent::at(seq, AccessKind::Read, i, 300);
            e.thread = ThreadTag(1);
            events.push(e);
            seq += 1;
        }
        let profile = RuntimeProfile::new(info(), events);
        let analysis = analyze(&profile, &MinerConfig::default());
        assert!(!analysis.threads.is_shared_concurrently());
        let cases = classify(&info(), &analysis, &Thresholds::default());
        assert!(cases.iter().any(|u| u.kind == UseCaseKind::LongInsert));
    }
}
