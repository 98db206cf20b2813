//! Structural misuse advisories — the §II-A code-inspection findings,
//! automated.
//!
//! During its manual inspections the study found data-structure *misuse*
//! beyond the eight use cases: "lists were used although other data
//! structures like trees or heaps would have been better suited", and "in
//! one case a list was used to act like a binary tree" (§II-A). Those
//! observations have crisp runtime signatures:
//!
//! * **List-as-tree**: consecutive positional accesses hop along implicit
//!   heap edges — from index `i` to `2i+1` or `2i+2` (downward) or from
//!   `i` to `(i-1)/2` (upward). Random access almost never does this;
//!   array-backed binary trees and binary heaps do it constantly.
//! * **List-as-map**: a list whose traffic is dominated by linear searches
//!   (`Contains`/`IndexOf`) with very few positional reads — the shape of
//!   key lookups forced through `O(n)` scans.
//!
//! Advisories are deliberately *not* [`crate::UseCaseKind`]s: the paper's
//! eight categories are its contribution and stay closed; these are the
//! "improper data structure usage" side notes, reported separately.

use dsspy_events::{AccessEvent, AccessKind, RuntimeProfile};
use serde::{Deserialize, Serialize};

/// A structural misuse advisory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Advisory {
    /// The list is traversed along implicit binary-tree edges.
    ListAsTree {
        /// Fraction of consecutive positional hops that follow heap edges.
        tree_hop_share: f64,
        /// Absolute number of heap-edge hops observed.
        tree_hops: usize,
    },
    /// The list is used as a lookup table through linear searches.
    ListAsMap {
        /// Fraction of events that are explicit searches.
        search_share: f64,
        /// Absolute number of search operations.
        searches: usize,
    },
}

impl Advisory {
    /// The recommendation text for the advisory.
    pub fn recommendation(&self) -> &'static str {
        match self {
            Advisory::ListAsTree { .. } => {
                "The access pattern walks implicit binary-tree edges (i → 2i+1 / 2i+2): \
                 use a real tree or heap (e.g. BinaryHeap/BTreeMap) instead of indexing a \
                 list; the standard library's implementations are also easier to replace \
                 with concurrent variants."
            }
            Advisory::ListAsMap { .. } => {
                "Lookups dominate and each costs a linear scan: a keyed structure \
                 (HashMap/BTreeMap) turns them into O(1)/O(log n)."
            }
        }
    }
}

/// Tunables for advisory detection.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AdvisoryConfig {
    /// Minimum fraction of hops following heap edges for list-as-tree.
    pub tree_hop_share: f64,
    /// Minimum absolute heap-edge hops.
    pub min_tree_hops: usize,
    /// Minimum fraction of events that are searches for list-as-map.
    pub map_search_share: f64,
    /// Minimum absolute searches.
    pub min_searches: usize,
}

impl Default for AdvisoryConfig {
    fn default() -> Self {
        AdvisoryConfig {
            tree_hop_share: 0.5,
            min_tree_hops: 32,
            map_search_share: 0.6,
            min_searches: 64,
        }
    }
}

/// Foldable advisory-detection state: one [`AdvisoryFold::fold`] call per
/// event maintains everything [`advisories`] needs, so the streaming
/// analyzer can raise the same advisories without retaining events.
#[derive(Clone, Debug, Default)]
pub struct AdvisoryFold {
    total: usize,
    searches: usize,
    hops: usize,
    tree_hops: usize,
    /// Index of the first and of the last traversal access.
    first: Option<u32>,
    prev: Option<u32>,
}

/// Whether a move from index `p` to index `i` follows an implicit heap edge:
/// down to a child (`2p+1`, `2p+2`) or up to the parent.
fn is_tree_hop(p: u32, i: u32) -> bool {
    // Child indices of a node past 2^31 exceed u32: compare in u64.
    let (i, p) = (u64::from(i), u64::from(p));
    let down = i == 2 * p + 1 || i == 2 * p + 2;
    let up = p > 0 && i == (p - 1) / 2;
    down || up
}

impl AdvisoryFold {
    /// Fold one event (events must arrive in profile order).
    pub fn fold(&mut self, e: &AccessEvent) {
        self.total += 1;
        if e.kind == AccessKind::Search {
            self.searches += 1;
        }
        // List-as-tree: heap-edge hop counting over traversal accesses.
        // Only in-place reads/writes participate: tree walks are traversals,
        // and counting the (linear) fill phase would dilute the signal.
        if !matches!(e.kind, AccessKind::Read | AccessKind::Write) {
            return;
        }
        let Some(i) = e.index() else { return };
        match self.prev {
            Some(p) => {
                self.hops += 1;
                self.tree_hops += usize::from(is_tree_hop(p, i));
            }
            None => self.first = Some(i),
        }
        self.prev = Some(i);
    }

    /// Merge the fold of the events right after this fold's: afterwards
    /// `self` equals the fold of both runs of events in order. The one hop
    /// that crosses the boundary is counted here.
    pub fn merge(&mut self, right: &AdvisoryFold) {
        self.total += right.total;
        self.searches += right.searches;
        self.hops += right.hops;
        self.tree_hops += right.tree_hops;
        if let (Some(p), Some(i)) = (self.prev, right.first) {
            self.hops += 1;
            self.tree_hops += usize::from(is_tree_hop(p, i));
        }
        self.first = self.first.or(right.first);
        self.prev = right.prev.or(self.prev);
    }

    /// The advisories for everything folded so far. `linear` is whether the
    /// instance is a linear structure — advisories only apply to those.
    pub fn finish(&self, linear: bool, config: &AdvisoryConfig) -> Vec<Advisory> {
        let mut out = Vec::new();
        if !linear {
            return out;
        }
        if self.hops > 0 {
            let share = self.tree_hops as f64 / self.hops as f64;
            if share >= config.tree_hop_share && self.tree_hops >= config.min_tree_hops {
                out.push(Advisory::ListAsTree {
                    tree_hop_share: share,
                    tree_hops: self.tree_hops,
                });
            }
        }
        if self.total > 0 {
            let share = self.searches as f64 / self.total as f64;
            if share >= config.map_search_share && self.searches >= config.min_searches {
                out.push(Advisory::ListAsMap {
                    search_share: share,
                    searches: self.searches,
                });
            }
        }
        out
    }
}

/// Detect misuse advisories on one profile (linear structures only).
pub fn advisories(profile: &RuntimeProfile, config: &AdvisoryConfig) -> Vec<Advisory> {
    let mut fold = AdvisoryFold::default();
    for e in &profile.events {
        fold.fold(e);
    }
    fold.finish(profile.instance.kind.is_linear(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::{
        AccessEvent, AllocationSite, DsKind, InstanceId, InstanceInfo, Target, ThreadTag,
    };

    fn profile(kind: DsKind, events: Vec<AccessEvent>) -> RuntimeProfile {
        RuntimeProfile::new(
            InstanceInfo::new(InstanceId(0), AllocationSite::new("T", "m", 1), kind, "i64"),
            events,
        )
    }

    /// Simulate a binary-heap sift-down workload on a list of `n` slots.
    fn heap_trace(n: u32, rounds: usize) -> Vec<AccessEvent> {
        let mut events = Vec::new();
        let mut seq = 0u64;
        for r in 0..rounds {
            // Walk root-to-leaf following left/right children.
            let mut i = 0u32;
            while 2 * i + 1 < n {
                events.push(AccessEvent::at(seq, AccessKind::Read, i, n));
                seq += 1;
                i = if (r + i as usize).is_multiple_of(2) {
                    2 * i + 1
                } else {
                    2 * i + 2
                };
            }
            events.push(AccessEvent::at(seq, AccessKind::Read, i, n));
            seq += 1;
        }
        events
    }

    #[test]
    fn heap_walks_raise_list_as_tree() {
        let advs = advisories(
            &profile(DsKind::List, heap_trace(255, 40)),
            &AdvisoryConfig::default(),
        );
        assert!(
            matches!(advs.first(), Some(Advisory::ListAsTree { tree_hop_share, .. }) if *tree_hop_share > 0.5),
            "{advs:?}"
        );
        assert!(advs[0].recommendation().contains("tree or heap"));
    }

    #[test]
    fn sequential_scans_do_not_raise_list_as_tree() {
        let events: Vec<_> = (0..500)
            .map(|i| AccessEvent::at(i, AccessKind::Read, i as u32 % 100, 100))
            .collect();
        let advs = advisories(&profile(DsKind::List, events), &AdvisoryConfig::default());
        assert!(advs.is_empty(), "{advs:?}");
    }

    #[test]
    fn search_dominated_lists_raise_list_as_map() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..20u32 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, i, i + 1));
            seq += 1;
        }
        for _ in 0..200 {
            events.push(AccessEvent {
                seq,
                kind: AccessKind::Search,
                target: Target::Range { start: 0, end: 10 },
                len: 20,
                thread: ThreadTag::MAIN,
            });
            seq += 1;
        }
        let advs = advisories(&profile(DsKind::List, events), &AdvisoryConfig::default());
        assert!(
            matches!(
                advs.first(),
                Some(Advisory::ListAsMap { searches: 200, .. })
            ),
            "{advs:?}"
        );
    }

    #[test]
    fn nonlinear_structures_are_skipped() {
        let advs = advisories(
            &profile(DsKind::Dictionary, heap_trace(255, 40)),
            &AdvisoryConfig::default(),
        );
        assert!(advs.is_empty());
    }

    #[test]
    fn thresholds_gate_small_samples() {
        // Only a handful of tree hops: below min_tree_hops.
        let advs = advisories(
            &profile(DsKind::List, heap_trace(15, 2)),
            &AdvisoryConfig::default(),
        );
        assert!(advs.is_empty(), "{advs:?}");
    }

    /// Fold reads at `indices` and return (hops, tree hops).
    fn hops_of(indices: &[u32]) -> (usize, usize) {
        let mut fold = AdvisoryFold::default();
        for (seq, &i) in (0u64..).zip(indices) {
            fold.fold(&AccessEvent::at(seq, AccessKind::Read, i, u32::MAX));
        }
        (fold.hops, fold.tree_hops)
    }

    #[test]
    fn heap_edges_past_2_pow_31_do_not_wrap() {
        let mid = 1u32 << 31;
        // 2 * 2^31 + 1 wraps to 1 in u32; 2 * u32::MAX + 2 wraps to 0.
        assert_eq!(hops_of(&[mid, 1]), (1, 0));
        assert_eq!(hops_of(&[mid, 2]), (1, 0));
        assert_eq!(hops_of(&[u32::MAX, 0]), (1, 0));
        assert_eq!(hops_of(&[u32::MAX, u32::MAX]), (1, 0));
        // Real edges at the boundary still count, both ways: the children
        // of 2^30 - 1 are 2^31 - 1 and 2^31.
        let parent = (mid >> 1) - 1;
        assert_eq!(hops_of(&[parent, mid - 1, parent, mid]), (3, 3));
        assert_eq!(hops_of(&[u32::MAX, u32::MAX / 2]), (1, 1));
    }

    #[test]
    fn empty_profile_yields_nothing() {
        let advs = advisories(&profile(DsKind::List, vec![]), &AdvisoryConfig::default());
        assert!(advs.is_empty());
    }
}
