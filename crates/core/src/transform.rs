//! Transformation sketches: from recommended action to concrete code.
//!
//! The paper closes with: "For now, each recommendation needs to be
//! implemented manually; however automated transformation is possible if
//! the recommended action is clearly specified" (§VIII, citing the
//! AutoFutures work \[21\]). This module is that next step in miniature: for
//! every detected use case it emits a *sketch* — the concrete before/after
//! code shape using this crate's own parallel runtime — that an engineer
//! (or a refactoring tool) can apply.

use dsspy_usecases::{UseCase, UseCaseKind};
use serde::{Deserialize, Serialize};

/// A concrete refactoring sketch for one detection.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransformSketch {
    /// Where to apply it (class/method/position of the flagged instance).
    pub location: String,
    /// The category it addresses.
    pub kind: UseCaseKind,
    /// The sequential shape DSspy believes is present.
    pub before: String,
    /// The recommended parallel/structural replacement.
    pub after: String,
    /// Preconditions the engineer must check before applying — the paper is
    /// explicit that the engineer stays in the loop (§I, "Trust").
    pub preconditions: Vec<String>,
}

impl TransformSketch {
    /// Render the sketch as markdown-ish text for reports.
    pub fn render(&self) -> String {
        let mut out = format!("## {} at {}\n\nBefore:\n```rust\n{}\n```\n\nAfter:\n```rust\n{}\n```\n\nCheck first:\n", self.kind, self.location, self.before, self.after);
        for p in &self.preconditions {
            out.push_str("- ");
            out.push_str(p);
            out.push('\n');
        }
        out
    }
}

/// Produce the transformation sketch for one detected use case.
pub fn sketch_for(uc: &UseCase) -> TransformSketch {
    let location = format!("{}", uc.instance.site);
    match uc.kind {
        UseCaseKind::LongInsert => TransformSketch {
            location,
            kind: uc.kind,
            before: "for i in 0..n {\n    list.add(make_element(i));\n}".into(),
            after: "let list = dsspy_parallel::par_for_init(n, threads, |i| make_element(i));"
                .into(),
            preconditions: vec![
                "element construction must not depend on previously inserted elements".into(),
                "insertion order must be index-determined (it is preserved)".into(),
                "make_element must be Sync (no shared mutable state)".into(),
            ],
        },
        UseCaseKind::ImplementQueue => TransformSketch {
            location,
            kind: uc.kind,
            before: "list.add(item);            // producer\nlet item = list.remove_at(0); // consumer".into(),
            after: "let queue = dsspy_parallel::BlockingQueue::bounded(capacity);\nqueue.push(item)?;            // producer(s)\nwhile let Some(item) = queue.pop() { ... } // consumer(s)".into(),
            preconditions: vec![
                "per-producer FIFO must be sufficient (global order is not preserved across producers)".into(),
                "consumers must tolerate receiving items concurrently".into(),
            ],
        },
        UseCaseKind::SortAfterInsert => TransformSketch {
            location,
            kind: uc.kind,
            before: "for x in input { list.add(x); }\nlist.sort();".into(),
            after: "let mut list = dsspy_parallel::par_map(&input, threads, |x| transform(x));\ndsspy_parallel::par_merge_sort(&mut list, threads);".into(),
            preconditions: vec![
                "the sort proves insertion order is irrelevant — double-check no reader runs between insert and sort".into(),
                "the comparison must be a total order".into(),
            ],
        },
        UseCaseKind::FrequentSearch => TransformSketch {
            location,
            kind: uc.kind,
            before: "let found = list.index_of(&needle);".into(),
            after: "let found = dsspy_parallel::par_find_first(list.raw(), threads, |v| v == &needle);\n// or: switch to a search-optimized structure (BTreeMap / sorted + binary_search)".into(),
            preconditions: vec![
                "the predicate must be side-effect free".into(),
                "if the structure is sorted or sortable, a binary search beats both options".into(),
            ],
        },
        UseCaseKind::FrequentLongRead => TransformSketch {
            location,
            kind: uc.kind,
            before: "let mut best = 0;\nfor i in 0..list.len() {\n    if better(list.get(i), list.get(best)) { best = i; }\n}".into(),
            after: "let best = dsspy_parallel::par_max_by_key(list.raw(), threads, |v| key(v));".into(),
            preconditions: vec![
                "confirm the loop is a search/reduction (DSspy sees the access pattern, not the intent)".into(),
                "the key/reduction must be associative and side-effect free".into(),
            ],
        },
        UseCaseKind::InsertDeleteFront => TransformSketch {
            location,
            kind: uc.kind,
            before: "array = resize_and_shift(array, ...); // per insert/delete".into(),
            after: "let mut list = VecDeque::new(); // or SpyDeque while profiling\nlist.push_front(x); list.pop_front();".into(),
            preconditions: vec![
                "indices held by other code into the array become invalid".into(),
            ],
        },
        UseCaseKind::StackImplementation => TransformSketch {
            location,
            kind: uc.kind,
            before: "list.add(x);\nlet top = list.remove_at(list.len() - 1);".into(),
            after: "stack.push(x);\nlet top = stack.pop();".into(),
            preconditions: vec![
                "no positional reads into the middle of the structure exist".into(),
            ],
        },
        UseCaseKind::WriteWithoutRead => TransformSketch {
            location,
            kind: uc.kind,
            before: "for i in 0..list.len() { list.set(i, Default::default()); } // end of life".into(),
            after: "drop(list); // Drop/GC handles deallocation".into(),
            preconditions: vec![
                "verify no other alias observes the zeroed state".into(),
                "security-sensitive wiping is a legitimate exception".into(),
            ],
        },
    }
}

/// Sketches for every detection of a report, in report order.
pub fn sketches(report: &crate::report::Report) -> Vec<TransformSketch> {
    report
        .all_use_cases()
        .iter()
        .map(|u| sketch_for(u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dsspy;
    use dsspy_collections::{site, SpyVec};

    #[test]
    fn every_category_has_a_sketch() {
        use dsspy_events::{AllocationSite, DsKind, InstanceId, InstanceInfo};
        for kind in UseCaseKind::ALL {
            let uc = UseCase {
                kind,
                instance: InstanceInfo::new(
                    InstanceId(0),
                    AllocationSite::new("C", "m", 1),
                    DsKind::List,
                    "i32",
                ),
                evidence: vec![],
            };
            let sketch = sketch_for(&uc);
            assert_eq!(sketch.kind, kind);
            assert!(!sketch.before.is_empty());
            assert!(!sketch.after.is_empty());
            assert!(
                !sketch.preconditions.is_empty(),
                "{kind} needs preconditions"
            );
            let rendered = sketch.render();
            assert!(rendered.contains("Before:"));
            assert!(rendered.contains("Check first:"));
        }
    }

    #[test]
    fn report_sketches_follow_detections() {
        let report = Dsspy::new().profile(|session| {
            let mut l = SpyVec::register(session, site!("hot"));
            for i in 0..500 {
                l.add(i);
            }
        });
        let s = sketches(&report);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, UseCaseKind::LongInsert);
        assert!(s[0].after.contains("par_for_init"));
        assert!(s[0].location.contains("hot"));
    }
}
