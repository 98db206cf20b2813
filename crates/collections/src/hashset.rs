//! `SpyHashSet<T>` — the instrumented `HashSet<T>`.
//!
//! HashSets are 1.94 % of the study's dynamic instances (§II-A). Like
//! dictionaries they are non-linear, so events carry `Target::None`; DSspy
//! profiles them for interaction counts and the search-space denominator.

use std::collections::HashSet;
use std::hash::Hash;

use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceId, Target};

use crate::probe::Probe;

/// An instrumented hash set, the analogue of .NET `HashSet<T>`.
pub struct SpyHashSet<T> {
    data: HashSet<T>,
    probe: Probe,
}

impl<T: Eq + Hash> SpyHashSet<T> {
    /// Register a new, empty instrumented set in `session`.
    pub fn register(session: &Session, site: AllocationSite) -> Self {
        SpyHashSet {
            data: HashSet::new(),
            probe: Probe::live(session.register(site, DsKind::HashSet, Probe::elem::<T>())),
        }
    }

    /// An uninstrumented set (ghost mode).
    pub fn plain() -> Self {
        SpyHashSet {
            data: HashSet::new(),
            probe: Probe::plain(),
        }
    }

    #[inline]
    fn emit(&self, kind: AccessKind) {
        self.probe.emit(kind, Target::None, self.data.len());
    }

    /// Number of elements. No event.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the set is empty. No event.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Add an element. Emits `Insert` when new, `Write` when already present
    /// (the value is replaced in .NET semantics).
    pub fn insert(&mut self, value: T) -> bool {
        let new = self.data.insert(value);
        self.emit(if new {
            AccessKind::Insert
        } else {
            AccessKind::Write
        });
        new
    }

    /// Membership test. Emits `Search`.
    pub fn contains(&self, value: &T) -> bool {
        self.emit(AccessKind::Search);
        self.data.contains(value)
    }

    /// Remove an element. Emits `Delete` on success.
    pub fn remove(&mut self, value: &T) -> bool {
        let removed = self.data.remove(value);
        if removed {
            self.emit(AccessKind::Delete);
        }
        removed
    }

    /// Remove all elements. Emits `Clear` with the pre-clear size.
    pub fn clear(&mut self) {
        self.probe
            .emit(AccessKind::Clear, Target::Whole, self.data.len());
        self.data.clear();
    }

    /// Whole-structure traversal. Emits a single `ForAll`.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        self.probe
            .emit(AccessKind::ForAll, Target::Whole, self.data.len());
        for v in &self.data {
            f(v);
        }
    }

    /// Direct read-only view. **No events.**
    pub fn raw(&self) -> &HashSet<T> {
        &self.data
    }
}

impl<T> SpyHashSet<T> {
    /// The instance id, if instrumented.
    pub fn instance_id(&self) -> Option<InstanceId> {
        self.probe.id()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpyHashSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpyHashSet")
            .field("len", &self.data.len())
            .field("instance", &self.instance_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_semantics_and_event_kinds() {
        let session = Session::new();
        let mut s = SpyHashSet::register(&session, crate::site!());
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
        assert!(!s.contains(&2));
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        drop(s);
        let cap = session.finish();
        let kinds: Vec<AccessKind> = cap.profiles[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AccessKind::Insert,
                AccessKind::Write,
                AccessKind::Search,
                AccessKind::Search,
                AccessKind::Delete,
            ]
        );
    }

    #[test]
    fn for_each_and_clear() {
        let session = Session::new();
        let mut s = SpyHashSet::register(&session, crate::site!());
        s.insert(10);
        s.insert(20);
        let mut sum = 0;
        s.for_each(|v| sum += v);
        assert_eq!(sum, 30);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn plain_set_records_nothing() {
        let mut s = SpyHashSet::plain();
        s.insert("x");
        assert!(s.contains(&"x"));
        assert!(s.instance_id().is_none());
    }
}
