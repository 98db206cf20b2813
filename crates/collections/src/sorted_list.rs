//! `SpySortedList<K,V>` — the instrumented `SortedList<K,V>`.
//!
//! .NET's `SortedList` is a key-ordered map with positional access: keys
//! live at integer indices in sort order. That makes it *linear* enough for
//! positional events — inserts report the rank the key landed at, so a
//! stream of ascending-key inserts shows up as Insert-Back, exactly the
//! signature a misused plain list would produce after manual sorting.

use std::collections::BTreeMap;

use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceId, Target};

use crate::probe::Probe;

/// An instrumented key-ordered map with rank-positional events.
pub struct SpySortedList<K, V> {
    data: BTreeMap<K, V>,
    probe: Probe,
}

impl<K: Ord, V> SpySortedList<K, V> {
    /// Register a new, empty instrumented sorted list in `session`.
    pub fn register(session: &Session, site: AllocationSite) -> Self {
        SpySortedList {
            data: BTreeMap::new(),
            probe: Probe::live(session.register(site, DsKind::SortedList, Probe::pair::<K, V>())),
        }
    }

    /// An uninstrumented sorted list (ghost mode).
    pub fn plain() -> Self {
        SpySortedList {
            data: BTreeMap::new(),
            probe: Probe::plain(),
        }
    }

    #[inline]
    fn emit(&self, kind: AccessKind, target: Target) {
        self.probe.emit(kind, target, self.data.len());
    }

    /// Rank (index in key order) of a key, whether present or not.
    fn rank(&self, key: &K) -> u32 {
        self.data.range(..key).count() as u32
    }

    /// Number of entries. No event.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the list is empty. No event.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Insert or replace. Emits `Insert` (new key) or `Write` (overwrite) at
    /// the key's rank.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let rank = self.rank(&key);
        let old = self.data.insert(key, value);
        self.emit(
            if old.is_some() {
                AccessKind::Write
            } else {
                AccessKind::Insert
            },
            Target::Index(rank),
        );
        old
    }

    /// Look up a key. Emits `Read` at its rank on hit, `Search` on miss.
    pub fn get(&self, key: &K) -> Option<&V> {
        let rank = self.rank(key);
        let v = self.data.get(key);
        self.emit(
            if v.is_some() {
                AccessKind::Read
            } else {
                AccessKind::Search
            },
            Target::Index(rank),
        );
        v
    }

    /// Remove a key. Emits `Delete` at its rank on success.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let rank = self.rank(key);
        let v = self.data.remove(key);
        if v.is_some() {
            self.emit(AccessKind::Delete, Target::Index(rank));
        }
        v
    }

    /// The entry at key-rank `index` (like `SortedList.GetByIndex`).
    /// Emits `Read`.
    pub fn get_by_index(&self, index: usize) -> Option<(&K, &V)> {
        let entry = self.data.iter().nth(index);
        if entry.is_some() {
            self.emit(AccessKind::Read, Target::Index(index as u32));
        }
        entry
    }

    /// Remove all entries. Emits `Clear` with the pre-clear size.
    pub fn clear(&mut self) {
        self.probe
            .emit(AccessKind::Clear, Target::Whole, self.data.len());
        self.data.clear();
    }

    /// Direct read-only view. **No events.**
    pub fn raw(&self) -> &BTreeMap<K, V> {
        &self.data
    }
}

impl<K, V> SpySortedList<K, V> {
    /// The instance id, if instrumented.
    pub fn instance_id(&self) -> Option<InstanceId> {
        self.probe.id()
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for SpySortedList<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpySortedList")
            .field("len", &self.data.len())
            .field("instance", &self.instance_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_inserts_land_at_the_back() {
        let session = Session::new();
        let mut sl = SpySortedList::register(&session, crate::site!());
        for k in 0..10 {
            sl.insert(k, k * 10);
        }
        drop(sl);
        let cap = session.finish();
        for (i, e) in cap.profiles[0].events.iter().enumerate() {
            assert_eq!(e.kind, AccessKind::Insert);
            assert_eq!(e.index(), Some(i as u32), "ascending keys append");
        }
    }

    #[test]
    fn descending_inserts_land_at_the_front() {
        let session = Session::new();
        let mut sl = SpySortedList::register(&session, crate::site!());
        for k in (0..10).rev() {
            sl.insert(k, k);
        }
        drop(sl);
        let cap = session.finish();
        for e in &cap.profiles[0].events {
            assert_eq!(e.index(), Some(0), "descending keys prepend");
        }
    }

    #[test]
    fn rank_positional_reads_and_removal() {
        let session = Session::new();
        let mut sl = SpySortedList::register(&session, crate::site!());
        for k in [10, 30, 20] {
            sl.insert(k, k);
        }
        assert_eq!(sl.get(&20), Some(&20)); // rank 1
        assert_eq!(sl.get(&99), None);
        assert_eq!(sl.get_by_index(2), Some((&30, &30)));
        assert_eq!(sl.remove(&10), Some(10)); // rank 0
        assert_eq!(sl.len(), 2);
        drop(sl);
        let cap = session.finish();
        let evs = &cap.profiles[0].events;
        let read = evs.iter().find(|e| e.kind == AccessKind::Read).unwrap();
        assert_eq!(read.index(), Some(1));
        let miss = evs.iter().find(|e| e.kind == AccessKind::Search).unwrap();
        assert_eq!(miss.index(), Some(3), "miss rank is the insertion point");
        let del = evs.iter().find(|e| e.kind == AccessKind::Delete).unwrap();
        assert_eq!(del.index(), Some(0));
    }

    #[test]
    fn overwrite_is_a_write() {
        let session = Session::new();
        let mut sl = SpySortedList::register(&session, crate::site!());
        sl.insert("k", 1);
        assert_eq!(sl.insert("k", 2), Some(1));
        drop(sl);
        let cap = session.finish();
        let kinds: Vec<AccessKind> = cap.profiles[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![AccessKind::Insert, AccessKind::Write]);
    }

    #[test]
    fn plain_mode_records_nothing() {
        let mut sl = SpySortedList::plain();
        sl.insert(1, "a");
        assert_eq!(sl.get(&1), Some(&"a"));
        assert!(sl.instance_id().is_none());
    }
}
