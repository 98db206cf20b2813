//! `SpyVec<T>` — the instrumented `List<T>`.
//!
//! Lists are the headline subject of the paper: 65 % of all dynamic
//! data-structure instances in the 936 kLOC study are lists (§II-A), and
//! DSspy's automatic mode profiles exactly lists and arrays (§IV). `SpyVec`
//! exposes the `List<T>` interface-method surface and records one access
//! event per call, bound to the instance's allocation site.

use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceId, Target};

use crate::probe::Probe;

/// An instrumented growable list, the analogue of .NET `List<T>`.
///
/// All interface methods perform the real operation on the backing `Vec<T>`
/// *and* emit the corresponding access event. Length/capacity queries emit
/// nothing — they do not touch elements.
///
/// ```
/// use dsspy_collect::Session;
/// use dsspy_collections::{site, SpyVec};
///
/// let session = Session::new();
/// let mut list = SpyVec::register(&session, site!("quickstart"));
/// list.add(1);
/// list.add(2);
/// assert_eq!(*list.get(0), 1);
/// drop(list);
/// let capture = session.finish();
/// assert_eq!(capture.event_count(), 3); // two inserts + one read
/// ```
pub struct SpyVec<T> {
    data: Vec<T>,
    probe: Probe,
}

impl<T> SpyVec<T> {
    /// Register a new, empty instrumented list in `session`.
    pub fn register(session: &Session, site: AllocationSite) -> Self {
        SpyVec {
            data: Vec::new(),
            probe: Probe::live(session.register(site, DsKind::List, Probe::elem::<T>())),
        }
    }

    /// Register a *manually instrumented* list — the paper's selective
    /// profiler mode (§IV). With `Dsspy::selective()`, only these instances
    /// appear in the report.
    pub fn register_manual(session: &Session, site: AllocationSite) -> Self {
        SpyVec {
            data: Vec::new(),
            probe: Probe::live(session.register_manual(site, DsKind::List, Probe::elem::<T>())),
        }
    }

    /// Register a list pre-sized to `capacity` (like `new List<T>(10)` in
    /// the paper's Fig. 2 snippet — the capacity does not count as length).
    pub fn register_with_capacity(
        session: &Session,
        site: AllocationSite,
        capacity: usize,
    ) -> Self {
        SpyVec {
            data: Vec::with_capacity(capacity),
            probe: Probe::live(session.register(site, DsKind::List, Probe::elem::<T>())),
        }
    }

    /// An uninstrumented list (ghost mode) for slowdown baselines.
    pub fn plain() -> Self {
        SpyVec {
            data: Vec::new(),
            probe: Probe::plain(),
        }
    }

    /// Ghost-mode list with pre-allocated capacity.
    pub fn plain_with_capacity(capacity: usize) -> Self {
        SpyVec {
            data: Vec::with_capacity(capacity),
            probe: Probe::plain(),
        }
    }

    /// The instance id, if instrumented.
    pub fn instance_id(&self) -> Option<InstanceId> {
        self.probe.id()
    }

    #[inline]
    fn emit(&self, kind: AccessKind, target: Target) {
        self.probe.emit(kind, target, self.data.len());
    }

    /// Number of elements. No event: size queries are not data accesses.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the list is empty. No event.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append an element (`List.Add`). Emits `Insert` at the back.
    pub fn add(&mut self, value: T) {
        self.data.push(value);
        self.emit(
            AccessKind::Insert,
            Target::Index(self.data.len() as u32 - 1),
        );
    }

    /// Insert at `index`, shifting the tail (`List.Insert`). Emits `Insert`.
    ///
    /// # Panics
    /// If `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        self.data.insert(index, value);
        self.emit(AccessKind::Insert, Target::Index(index as u32));
    }

    /// Read the element at `index` (the indexer getter). Emits `Read`.
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn get(&self, index: usize) -> &T {
        self.emit(AccessKind::Read, Target::Index(index as u32));
        &self.data[index]
    }

    /// Read without panicking. Emits `Read` only when the index is valid.
    pub fn try_get(&self, index: usize) -> Option<&T> {
        if index < self.data.len() {
            self.emit(AccessKind::Read, Target::Index(index as u32));
            self.data.get(index)
        } else {
            None
        }
    }

    /// Overwrite the element at `index` (the indexer setter). Emits `Write`.
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn set(&mut self, index: usize, value: T) {
        self.data[index] = value;
        self.emit(AccessKind::Write, Target::Index(index as u32));
    }

    /// Remove and return the element at `index` (`List.RemoveAt`).
    /// Emits `Delete`.
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn remove_at(&mut self, index: usize) -> T {
        let v = self.data.remove(index);
        self.emit(AccessKind::Delete, Target::Index(index as u32));
        v
    }

    /// Remove all elements (`List.Clear`). Emits `Clear` over the whole
    /// structure, recorded *before* the length drops so the profile shows
    /// what was cleared.
    pub fn clear(&mut self) {
        self.probe
            .emit(AccessKind::Clear, Target::Whole, self.data.len());
        self.data.clear();
    }

    /// Copy the contents out (`List.ToArray`/`CopyTo`). Emits `Copy`.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.emit(AccessKind::Copy, Target::Whole);
        self.data.clone()
    }

    /// Reverse in place (`List.Reverse`). Emits `Reverse`.
    pub fn reverse(&mut self) {
        self.data.reverse();
        self.emit(AccessKind::Reverse, Target::Whole);
    }

    /// Sort in place (`List.Sort`). Emits `Sort`.
    pub fn sort(&mut self)
    where
        T: Ord,
    {
        self.data.sort_unstable();
        self.emit(AccessKind::Sort, Target::Whole);
    }

    /// Sort by key. Emits `Sort`.
    pub fn sort_by_key<K: Ord>(&mut self, f: impl FnMut(&T) -> K) {
        self.data.sort_unstable_by_key(f);
        self.emit(AccessKind::Sort, Target::Whole);
    }

    /// Whole-structure traversal (`List.ForEach`). Emits a single `ForAll`.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        self.emit(AccessKind::ForAll, Target::Whole);
        for v in &self.data {
            f(v);
        }
    }

    /// Linear containment test (`List.Contains`). Emits `Search` covering
    /// the scanned prefix (`[0, hit]` inclusive, or the whole list on miss).
    pub fn contains(&self, value: &T) -> bool
    where
        T: PartialEq,
    {
        match self.data.iter().position(|v| v == value) {
            Some(i) => {
                self.emit(
                    AccessKind::Search,
                    Target::Range {
                        start: 0,
                        end: i as u32 + 1,
                    },
                );
                true
            }
            None => {
                self.emit(
                    AccessKind::Search,
                    Target::Range {
                        start: 0,
                        end: self.data.len() as u32,
                    },
                );
                false
            }
        }
    }

    /// Linear search returning the first matching index (`List.IndexOf`).
    /// Emits `Search` like [`SpyVec::contains`].
    pub fn index_of(&self, value: &T) -> Option<usize>
    where
        T: PartialEq,
    {
        self.find(|v| v == value)
    }

    /// Linear search by predicate (`List.Find`/`FindIndex`). Emits `Search`.
    pub fn find(&self, pred: impl FnMut(&T) -> bool) -> Option<usize> {
        match self.data.iter().position(pred) {
            Some(i) => {
                self.emit(
                    AccessKind::Search,
                    Target::Range {
                        start: 0,
                        end: i as u32 + 1,
                    },
                );
                Some(i)
            }
            None => {
                self.emit(
                    AccessKind::Search,
                    Target::Range {
                        start: 0,
                        end: self.data.len() as u32,
                    },
                );
                None
            }
        }
    }

    /// Binary search on a sorted list (`List.BinarySearch`). Emits `Search`
    /// targeting the probe position.
    pub fn binary_search(&self, value: &T) -> Result<usize, usize>
    where
        T: Ord,
    {
        let r = self.data.binary_search(value);
        let probe = match r {
            Ok(i) | Err(i) => i,
        };
        self.emit(
            AccessKind::Search,
            Target::Index(probe.min(u32::MAX as usize) as u32),
        );
        r
    }

    /// Iterate front-to-back, emitting one `Read` per visited element —
    /// this is what produces the paper's Read-Forward patterns.
    pub fn iter(&self) -> SpyIter<'_, T> {
        SpyIter {
            list: self,
            front: 0,
            back: self.data.len(),
        }
    }

    /// Iterate back-to-front, emitting one `Read` per visited element
    /// (Read-Backward patterns, like the paper's Fig. 2 second phase).
    pub fn iter_rev(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.data.len()).rev().map(move |i| self.get(i))
    }

    /// Remove the first occurrence of `value` (`List.Remove`): a linear
    /// search followed by the removal. Emits `Search` over the scanned
    /// prefix, then `Delete` on a hit; returns whether anything was removed.
    pub fn remove(&mut self, value: &T) -> bool
    where
        T: PartialEq,
    {
        let pos = self.data.iter().position(|v| v == value);
        match pos {
            Some(i) => {
                self.emit(
                    AccessKind::Search,
                    Target::Range {
                        start: 0,
                        end: i as u32 + 1,
                    },
                );
                self.data.remove(i);
                self.emit(AccessKind::Delete, Target::Index(i as u32));
                true
            }
            None => {
                self.emit(
                    AccessKind::Search,
                    Target::Range {
                        start: 0,
                        end: self.data.len() as u32,
                    },
                );
                false
            }
        }
    }

    /// Shorten the list to `len` elements (`List.RemoveRange(len, ..)`).
    /// Emits one `Delete` per removed element, back to front.
    pub fn truncate(&mut self, len: usize) {
        while self.data.len() > len {
            self.data.pop();
            self.emit(AccessKind::Delete, Target::Index(self.data.len() as u32));
        }
    }

    /// O(1) unordered removal: replace index `index` with the last element.
    /// Emits a `Read` of the last slot, a `Write` at `index`, and the
    /// `Delete` of the vacated back slot — the exact event cost a profile
    /// shows for this idiom.
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn swap_remove(&mut self, index: usize) -> T {
        self.emit(AccessKind::Read, Target::Index(self.data.len() as u32 - 1));
        if index + 1 != self.data.len() {
            self.emit(AccessKind::Write, Target::Index(index as u32));
        }
        let v = self.data.swap_remove(index);
        self.emit(AccessKind::Delete, Target::Index(self.data.len() as u32));
        v
    }

    /// Read the first element, if any. Emits `Read` at 0 on success.
    pub fn first(&self) -> Option<&T> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.get(0))
        }
    }

    /// Read the last element, if any. Emits `Read` at the back on success.
    pub fn last(&self) -> Option<&T> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.get(self.data.len() - 1))
        }
    }

    /// Bulk append (`List.AddRange`): one `Insert` per element, the exact
    /// shape Long-Insert looks for.
    pub fn add_range(&mut self, values: impl IntoIterator<Item = T>) {
        for v in values {
            self.add(v);
        }
    }

    /// Direct read-only view of the backing storage. **No events** — this
    /// escape hatch exists for verification in tests and for handing data to
    /// parallel kernels after profiling decisions are made.
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Direct mutable view of the backing storage. **No events.**
    pub fn raw_mut(&mut self) -> &mut Vec<T> {
        &mut self.data
    }

    /// Ship any buffered events to the collector now.
    pub fn flush(&self) {
        self.probe.flush();
    }
}

impl<T> Extend<T> for SpyVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpyVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpyVec")
            .field("len", &self.data.len())
            .field("instance", &self.instance_id())
            .finish()
    }
}

/// Forward iterator over a [`SpyVec`] that records a `Read` per element.
pub struct SpyIter<'a, T> {
    list: &'a SpyVec<T>,
    front: usize,
    back: usize,
}

impl<'a, T> Iterator for SpyIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.front >= self.back {
            return None;
        }
        let i = self.front;
        self.front += 1;
        self.list.emit(AccessKind::Read, Target::Index(i as u32));
        self.list.data.get(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl<'a, T> ExactSizeIterator for SpyIter<'a, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::AccessEvent;

    fn capture_of(f: impl FnOnce(&Session)) -> Vec<AccessEvent> {
        let session = Session::new();
        f(&session);
        let cap = session.finish();
        cap.profiles.into_iter().flat_map(|p| p.events).collect()
    }

    #[test]
    fn add_and_get_behave_like_vec() {
        let session = Session::new();
        let mut l = SpyVec::register(&session, crate::site!("test"));
        l.add(10);
        l.add(20);
        l.add(30);
        assert_eq!(l.len(), 3);
        assert_eq!(*l.get(1), 20);
        l.set(1, 25);
        assert_eq!(l.raw(), &[10, 25, 30]);
        assert_eq!(l.remove_at(0), 10);
        assert_eq!(l.raw(), &[25, 30]);
    }

    #[test]
    fn figure2_snippet_event_shape() {
        // The paper's Fig. 2 source: fill 0..10 front-to-end, read reversed.
        let events = capture_of(|session| {
            let mut list = SpyVec::register_with_capacity(session, crate::site!("fig2"), 10);
            for i in 0..10 {
                list.add(i);
            }
            for i in (0..10).rev() {
                let _ = *list.get(i);
            }
        });
        assert_eq!(events.len(), 20);
        // First ten: inserts at increasing back positions.
        for (i, e) in events[..10].iter().enumerate() {
            assert_eq!(e.kind, AccessKind::Insert);
            assert_eq!(e.index(), Some(i as u32));
            assert_eq!(e.len, i as u32 + 1);
        }
        // Last ten: reads at decreasing positions, size stays 10.
        for (i, e) in events[10..].iter().enumerate() {
            assert_eq!(e.kind, AccessKind::Read);
            assert_eq!(e.index(), Some(9 - i as u32));
            assert_eq!(e.len, 10);
        }
    }

    #[test]
    fn contains_records_scanned_prefix() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            for i in 0..5 {
                l.add(i);
            }
            assert!(l.contains(&3));
            assert!(!l.contains(&99));
        });
        let searches: Vec<_> = events
            .iter()
            .filter(|e| e.kind == AccessKind::Search)
            .collect();
        assert_eq!(searches.len(), 2);
        assert_eq!(searches[0].target, Target::Range { start: 0, end: 4 });
        assert_eq!(searches[1].target, Target::Range { start: 0, end: 5 });
    }

    #[test]
    fn clear_records_presize() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            for i in 0..7 {
                l.add(i);
            }
            l.clear();
            assert!(l.is_empty());
        });
        let clear = events.iter().find(|e| e.kind == AccessKind::Clear).unwrap();
        assert_eq!(clear.len, 7, "Clear must report the pre-clear size");
    }

    #[test]
    fn iteration_emits_forward_reads() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            for i in 0..4 {
                l.add(i * 2);
            }
            let sum: i32 = l.iter().sum();
            assert_eq!(sum, 12);
        });
        let reads: Vec<_> = events
            .iter()
            .filter(|e| e.kind == AccessKind::Read)
            .map(|e| e.index().unwrap())
            .collect();
        assert_eq!(reads, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reverse_iteration_emits_backward_reads() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            for i in 0..4 {
                l.add(i);
            }
            let collected: Vec<i32> = l.iter_rev().copied().collect();
            assert_eq!(collected, vec![3, 2, 1, 0]);
        });
        let reads: Vec<_> = events
            .iter()
            .filter(|e| e.kind == AccessKind::Read)
            .map(|e| e.index().unwrap())
            .collect();
        assert_eq!(reads, vec![3, 2, 1, 0]);
    }

    #[test]
    fn sort_reverse_copy_forall_are_whole_structure() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            for i in [3, 1, 2] {
                l.add(i);
            }
            l.sort();
            assert_eq!(l.raw(), &[1, 2, 3]);
            l.reverse();
            assert_eq!(l.raw(), &[3, 2, 1]);
            let copy = l.to_vec();
            assert_eq!(copy, vec![3, 2, 1]);
            let mut n = 0;
            l.for_each(|_| n += 1);
            assert_eq!(n, 3);
        });
        for kind in [
            AccessKind::Sort,
            AccessKind::Reverse,
            AccessKind::Copy,
            AccessKind::ForAll,
        ] {
            let e = events.iter().find(|e| e.kind == kind).unwrap();
            assert_eq!(e.target, Target::Whole, "{kind} must target Whole");
        }
    }

    #[test]
    fn binary_search_emits_probe_position() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            for i in [10, 20, 30, 40] {
                l.add(i);
            }
            assert_eq!(l.binary_search(&30), Ok(2));
            assert_eq!(l.binary_search(&35), Err(3));
        });
        let searches: Vec<_> = events
            .iter()
            .filter(|e| e.kind == AccessKind::Search)
            .collect();
        assert_eq!(searches.len(), 2);
        assert_eq!(searches[0].target, Target::Index(2));
        assert_eq!(searches[1].target, Target::Index(3));
    }

    #[test]
    fn plain_mode_records_nothing_and_behaves_identically() {
        let mut l = SpyVec::plain();
        for i in 0..100 {
            l.add(i);
        }
        l.sort();
        l.reverse();
        assert_eq!(l.len(), 100);
        assert_eq!(*l.get(0), 99);
        assert!(l.contains(&50));
        assert!(l.instance_id().is_none());
    }

    #[test]
    fn try_get_out_of_bounds_emits_nothing() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            l.add(1);
            assert!(l.try_get(5).is_none());
            assert_eq!(l.try_get(0), Some(&1));
        });
        let reads = events.iter().filter(|e| e.kind == AccessKind::Read).count();
        assert_eq!(reads, 1);
    }

    #[test]
    fn extend_emits_per_element_inserts() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            l.extend(0..5);
        });
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == AccessKind::Insert)
                .count(),
            5
        );
    }

    #[test]
    fn find_and_index_of() {
        let session = Session::new();
        let mut l = SpyVec::register(&session, crate::site!());
        for i in [5, 7, 9] {
            l.add(i);
        }
        assert_eq!(l.index_of(&7), Some(1));
        assert_eq!(l.index_of(&8), None);
        assert_eq!(l.find(|v| *v > 6), Some(1));
    }
}

#[cfg(test)]
mod extended_api_tests {
    use super::*;
    use dsspy_events::AccessEvent;

    fn capture_of(f: impl FnOnce(&Session)) -> Vec<AccessEvent> {
        let session = Session::new();
        f(&session);
        session
            .finish()
            .profiles
            .into_iter()
            .flat_map(|p| p.events)
            .collect()
    }

    #[test]
    fn remove_by_value_searches_then_deletes() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            l.add_range([10, 20, 30]);
            assert!(l.remove(&20));
            assert_eq!(l.raw(), &[10, 30]);
            assert!(!l.remove(&99));
        });
        let kinds: Vec<AccessKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AccessKind::Insert,
                AccessKind::Insert,
                AccessKind::Insert,
                AccessKind::Search,
                AccessKind::Delete,
                AccessKind::Search,
            ]
        );
        // The hit's delete lands at the found index.
        assert_eq!(events[4].index(), Some(1));
    }

    #[test]
    fn truncate_deletes_back_to_front() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            l.add_range(0..5);
            l.truncate(2);
            assert_eq!(l.raw(), &[0, 1]);
            l.truncate(9); // no-op when already shorter
            assert_eq!(l.len(), 2);
        });
        let deletes: Vec<u32> = events
            .iter()
            .filter(|e| e.kind == AccessKind::Delete)
            .map(|e| e.index().unwrap())
            .collect();
        assert_eq!(deletes, vec![4, 3, 2], "back-to-front Delete-Back shape");
    }

    #[test]
    fn swap_remove_behaviour_and_events() {
        let events = capture_of(|session| {
            let mut l = SpyVec::register(session, crate::site!());
            l.add_range([1, 2, 3, 4]);
            assert_eq!(l.swap_remove(1), 2);
            assert_eq!(l.raw(), &[1, 4, 3]);
            // Removing the last element: no Write event.
            assert_eq!(l.swap_remove(2), 3);
            assert_eq!(l.raw(), &[1, 4]);
        });
        let first_removal: Vec<AccessKind> = events[4..7].iter().map(|e| e.kind).collect();
        assert_eq!(
            first_removal,
            vec![AccessKind::Read, AccessKind::Write, AccessKind::Delete]
        );
        let second_removal: Vec<AccessKind> = events[7..].iter().map(|e| e.kind).collect();
        assert_eq!(second_removal, vec![AccessKind::Read, AccessKind::Delete]);
    }

    #[test]
    fn first_and_last() {
        let session = Session::new();
        let mut l = SpyVec::register(&session, crate::site!());
        assert!(l.first().is_none());
        assert!(l.last().is_none());
        l.add_range([7, 8, 9]);
        assert_eq!(l.first(), Some(&7));
        assert_eq!(l.last(), Some(&9));
    }
}
