//! `SpyMap<K,V>` — the instrumented `Dictionary<K,V>`.
//!
//! Dictionaries are the second most frequent dynamic structure in the study
//! (16.53 %, §II-A). They are not *linear* — elements have no integer
//! position — so positional access patterns do not apply; events carry
//! `Target::None`. DSspy still profiles them to count interactions, which is
//! what the occurrence study and the search-space denominator need.

use std::collections::HashMap;
use std::hash::Hash;

use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceId, Target};

use crate::probe::Probe;

/// An instrumented hash map, the analogue of .NET `Dictionary<K,V>`.
pub struct SpyMap<K, V> {
    data: HashMap<K, V>,
    probe: Probe,
}

impl<K: Eq + Hash, V> SpyMap<K, V> {
    /// Register a new, empty instrumented map in `session`.
    pub fn register(session: &Session, site: AllocationSite) -> Self {
        SpyMap {
            data: HashMap::new(),
            probe: Probe::live(session.register(site, DsKind::Dictionary, Probe::pair::<K, V>())),
        }
    }

    /// An uninstrumented map (ghost mode).
    pub fn plain() -> Self {
        SpyMap {
            data: HashMap::new(),
            probe: Probe::plain(),
        }
    }

    #[inline]
    fn emit(&self, kind: AccessKind) {
        self.probe.emit(kind, Target::None, self.data.len());
    }

    /// Number of entries. No event.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map is empty. No event.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Insert or replace. Emits `Insert` on new keys, `Write` on overwrite.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let old = self.data.insert(key, value);
        self.emit(if old.is_some() {
            AccessKind::Write
        } else {
            AccessKind::Insert
        });
        old
    }

    /// Look up a key. Emits `Read` on hit, `Search` on miss.
    pub fn get(&self, key: &K) -> Option<&V> {
        let v = self.data.get(key);
        self.emit(if v.is_some() {
            AccessKind::Read
        } else {
            AccessKind::Search
        });
        v
    }

    /// Key-presence test. Emits `Search`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.emit(AccessKind::Search);
        self.data.contains_key(key)
    }

    /// Remove a key. Emits `Delete` on success.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let v = self.data.remove(key);
        if v.is_some() {
            self.emit(AccessKind::Delete);
        }
        v
    }

    /// Remove all entries. Emits `Clear` with the pre-clear size.
    pub fn clear(&mut self) {
        self.probe
            .emit(AccessKind::Clear, Target::Whole, self.data.len());
        self.data.clear();
    }

    /// Whole-structure traversal. Emits a single `ForAll`.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        self.probe
            .emit(AccessKind::ForAll, Target::Whole, self.data.len());
        for (k, v) in &self.data {
            f(k, v);
        }
    }

    /// Direct read-only view. **No events.**
    pub fn raw(&self) -> &HashMap<K, V> {
        &self.data
    }

    /// Ship buffered events to the collector now.
    pub fn flush(&self) {
        self.probe.flush();
    }
}

impl<K, V> SpyMap<K, V> {
    /// The instance id, if instrumented.
    pub fn instance_id(&self) -> Option<InstanceId> {
        self.probe.id()
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for SpyMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpyMap")
            .field("len", &self.data.len())
            .field("instance", &self.instance_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_event_kinds() {
        let session = Session::new();
        let mut m = SpyMap::register(&session, crate::site!());
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("a", 2), Some(1));
        assert_eq!(m.get(&"a"), Some(&2));
        assert_eq!(m.get(&"z"), None);
        assert!(!m.contains_key(&"z"));
        assert_eq!(m.remove(&"a"), Some(2));
        assert_eq!(m.remove(&"a"), None);
        drop(m);
        let cap = session.finish();
        let kinds: Vec<AccessKind> = cap.profiles[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AccessKind::Insert,
                AccessKind::Write,
                AccessKind::Read,
                AccessKind::Search,
                AccessKind::Search,
                AccessKind::Delete,
            ]
        );
    }

    #[test]
    fn events_are_nonpositional() {
        let session = Session::new();
        let mut m = SpyMap::register(&session, crate::site!());
        m.insert(1, "x");
        let _ = m.get(&1);
        drop(m);
        let cap = session.finish();
        for e in &cap.profiles[0].events {
            assert_eq!(e.target, Target::None);
        }
    }

    #[test]
    fn for_each_and_clear() {
        let session = Session::new();
        let mut m = SpyMap::register(&session, crate::site!());
        m.insert(1, 10);
        m.insert(2, 20);
        let mut sum = 0;
        m.for_each(|_, v| sum += v);
        assert_eq!(sum, 30);
        m.clear();
        assert!(m.is_empty());
        drop(m);
        let cap = session.finish();
        let clear = cap.profiles[0]
            .events
            .iter()
            .find(|e| e.kind == AccessKind::Clear)
            .unwrap();
        assert_eq!(clear.len, 2);
    }

    #[test]
    fn plain_map_records_nothing() {
        let mut m = SpyMap::plain();
        m.insert("k", 1);
        assert_eq!(m.get(&"k"), Some(&1));
        assert!(m.instance_id().is_none());
    }
}
