//! `SpyArray<T>` — the instrumented fixed-size array.
//!
//! Lists and arrays together account for more than 75 % of all data-structure
//! instances in the study (§II-A), so DSspy's automatic mode covers both.
//! Arrays are fixed size; resizing means allocating a new array and copying
//! every element across — exactly the overhead the sequential use case
//! *Insert/Delete-Front* (IDF) warns about (§III-B). `SpyArray` therefore
//! also emits an explicit `Resize` event whenever its length changes.

use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceId, Target};

use crate::probe::Probe;

/// An instrumented fixed-size array, the analogue of a C# `T[]`.
pub struct SpyArray<T> {
    data: Vec<T>,
    probe: Probe,
}

impl<T: Clone + Default> SpyArray<T> {
    /// Register a new array of `len` default-initialized elements.
    pub fn register(session: &Session, site: AllocationSite, len: usize) -> Self {
        SpyArray {
            data: vec![T::default(); len],
            probe: Probe::live(session.register(site, DsKind::Array, Probe::elem::<T>())),
        }
    }

    /// An uninstrumented array (ghost mode) for slowdown baselines.
    pub fn plain(len: usize) -> Self {
        SpyArray {
            data: vec![T::default(); len],
            probe: Probe::plain(),
        }
    }

    /// Grow or shrink the array (C# `Array.Resize`): allocate-and-copy.
    /// Emits `Resize` (with the *new* length) and a `Copy` for the element
    /// transfer — the overhead signature IDF looks for.
    pub fn resize(&mut self, new_len: usize) {
        let old_len = self.data.len();
        self.probe.emit(
            AccessKind::Copy,
            Target::Range {
                start: 0,
                end: old_len.min(new_len) as u32,
            },
            old_len,
        );
        self.data.resize(new_len, T::default());
        self.emit(AccessKind::Resize, Target::Whole);
    }

    /// Simulated element insertion at `index` (shift right, grow by one) —
    /// the costly array-as-list antipattern IDF flags. Emits `Insert` plus
    /// the implied `Resize`.
    pub fn insert_shift(&mut self, index: usize, value: T) {
        self.data.insert(index, value);
        self.emit(AccessKind::Resize, Target::Whole);
        self.emit(AccessKind::Insert, Target::Index(index as u32));
    }

    /// Simulated element deletion at `index` (shift left, shrink by one).
    /// Emits `Delete` plus the implied `Resize`.
    pub fn delete_shift(&mut self, index: usize) -> T {
        let v = self.data.remove(index);
        self.emit(AccessKind::Resize, Target::Whole);
        self.emit(AccessKind::Delete, Target::Index(index as u32));
        v
    }
}

impl<T> SpyArray<T> {
    /// Length of the array. No event.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array has zero length. No event.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The instance id, if instrumented.
    pub fn instance_id(&self) -> Option<InstanceId> {
        self.probe.id()
    }

    #[inline]
    fn emit(&self, kind: AccessKind, target: Target) {
        self.probe.emit(kind, target, self.data.len());
    }

    /// Read the element at `index`. Emits `Read`.
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn get(&self, index: usize) -> &T {
        self.emit(AccessKind::Read, Target::Index(index as u32));
        &self.data[index]
    }

    /// Overwrite the element at `index`. Emits `Write`.
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn set(&mut self, index: usize, value: T) {
        self.data[index] = value;
        self.emit(AccessKind::Write, Target::Index(index as u32));
    }

    /// Fill every slot with `value`. Emits one `Write` per slot (the
    /// initialization loops the paper's Mandelbrot use cases 2–3 flag).
    pub fn fill(&mut self, value: T)
    where
        T: Clone,
    {
        for i in 0..self.data.len() {
            self.data[i] = value.clone();
            self.emit(AccessKind::Write, Target::Index(i as u32));
        }
    }

    /// Copy the contents out (`Array.CopyTo`). Emits `Copy`.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.emit(AccessKind::Copy, Target::Whole);
        self.data.clone()
    }

    /// Iterate front-to-back, emitting one `Read` per element.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.data.len()).map(move |i| self.get(i))
    }

    /// Linear search by predicate. Emits `Search` covering the scanned
    /// prefix.
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

    /// Sort in place. Emits `Sort`.
    pub fn sort(&mut self)
    where
        T: Ord,
    {
        self.data.sort_unstable();
        self.emit(AccessKind::Sort, Target::Whole);
    }

    /// Direct read-only view. **No events.**
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Direct mutable view. **No events.**
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Ship buffered events to the collector now.
    pub fn flush(&self) {
        self.probe.flush();
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpyArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpyArray")
            .field("len", &self.data.len())
            .field("instance", &self.instance_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
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
    fn fixed_length_read_write() {
        let session = Session::new();
        let mut a: SpyArray<i64> = SpyArray::register(&session, crate::site!(), 5);
        assert_eq!(a.len(), 5);
        a.set(2, 42);
        assert_eq!(*a.get(2), 42);
        assert_eq!(*a.get(0), 0);
    }

    #[test]
    fn fill_emits_forward_writes() {
        let events = capture_of(|session| {
            let mut a: SpyArray<u8> = SpyArray::register(session, crate::site!(), 4);
            a.fill(7);
            assert_eq!(a.raw(), &[7, 7, 7, 7]);
        });
        let writes: Vec<u32> = events
            .iter()
            .filter(|e| e.kind == AccessKind::Write)
            .map(|e| e.index().unwrap())
            .collect();
        assert_eq!(writes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn resize_emits_copy_then_resize() {
        let events = capture_of(|session| {
            let mut a: SpyArray<i32> = SpyArray::register(session, crate::site!(), 3);
            a.resize(6);
            assert_eq!(a.len(), 6);
        });
        let kinds: Vec<AccessKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![AccessKind::Copy, AccessKind::Resize]);
        assert_eq!(events[0].len, 3, "copy sees the old length");
        assert_eq!(events[1].len, 6, "resize reports the new length");
    }

    #[test]
    fn insert_and_delete_shift_signature() {
        let events = capture_of(|session| {
            let mut a: SpyArray<i32> = SpyArray::register(session, crate::site!(), 2);
            a.insert_shift(0, 9);
            assert_eq!(a.raw(), &[9, 0, 0]);
            let v = a.delete_shift(0);
            assert_eq!(v, 9);
            assert_eq!(a.raw(), &[0, 0]);
        });
        let kinds: Vec<AccessKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AccessKind::Resize,
                AccessKind::Insert,
                AccessKind::Resize,
                AccessKind::Delete
            ]
        );
    }

    #[test]
    fn iteration_and_find() {
        let events = capture_of(|session| {
            let mut a: SpyArray<i32> = SpyArray::register(session, crate::site!(), 3);
            a.set(0, 1);
            a.set(1, 2);
            a.set(2, 3);
            let sum: i32 = a.iter().sum();
            assert_eq!(sum, 6);
            assert_eq!(a.find(|v| *v == 2), Some(1));
            assert_eq!(a.find(|v| *v == 99), None);
        });
        let reads = events.iter().filter(|e| e.kind == AccessKind::Read).count();
        assert_eq!(reads, 3);
        let searches: Vec<_> = events
            .iter()
            .filter(|e| e.kind == AccessKind::Search)
            .collect();
        assert_eq!(searches[0].target, Target::Range { start: 0, end: 2 });
        assert_eq!(searches[1].target, Target::Range { start: 0, end: 3 });
    }

    #[test]
    fn plain_array_records_nothing() {
        let mut a: SpyArray<f64> = SpyArray::plain(10);
        a.set(3, 1.5);
        assert_eq!(*a.get(3), 1.5);
        assert!(a.instance_id().is_none());
    }

    #[test]
    fn zero_length_array() {
        let session = Session::new();
        let a: SpyArray<i32> = SpyArray::register(&session, crate::site!(), 0);
        assert!(a.is_empty());
        assert_eq!(a.iter().count(), 0);
    }
}
