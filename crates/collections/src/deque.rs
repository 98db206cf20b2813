//! `SpyDeque<T>` — an instrumented double-ended queue.
//!
//! The *Implement-Queue* use case (§III-B) fires when reads and writes
//! concentrate on two *different* ends of a linear structure; the deque is
//! the natural wrapper for code that already does this correctly, and it
//! lets tests construct such profiles directly.

use std::collections::VecDeque;

use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceId, Target};

use crate::probe::Probe;

/// An instrumented double-ended queue.
pub struct SpyDeque<T> {
    data: VecDeque<T>,
    probe: Probe,
}

impl<T> SpyDeque<T> {
    /// Register a new, empty instrumented deque in `session`.
    pub fn register(session: &Session, site: AllocationSite) -> Self {
        SpyDeque {
            data: VecDeque::new(),
            probe: Probe::live(session.register(site, DsKind::Deque, Probe::elem::<T>())),
        }
    }

    /// An uninstrumented deque (ghost mode).
    pub fn plain() -> Self {
        SpyDeque {
            data: VecDeque::new(),
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

    /// Number of elements. No event.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the deque is empty. No event.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Insert at the front. Emits `Insert` at index 0.
    pub fn push_front(&mut self, value: T) {
        self.data.push_front(value);
        self.emit(AccessKind::Insert, Target::Index(0));
    }

    /// Insert at the back. Emits `Insert` at the last index.
    pub fn push_back(&mut self, value: T) {
        self.data.push_back(value);
        self.emit(
            AccessKind::Insert,
            Target::Index(self.data.len() as u32 - 1),
        );
    }

    /// Remove from the front. Emits `Delete` at index 0 on success.
    pub fn pop_front(&mut self) -> Option<T> {
        let v = self.data.pop_front();
        if v.is_some() {
            self.emit(AccessKind::Delete, Target::Index(0));
        }
        v
    }

    /// Remove from the back. Emits `Delete` at the (old) last index.
    pub fn pop_back(&mut self) -> Option<T> {
        let v = self.data.pop_back();
        if v.is_some() {
            self.emit(AccessKind::Delete, Target::Index(self.data.len() as u32));
        }
        v
    }

    /// Read the element at `index`. Emits `Read`.
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn get(&self, index: usize) -> &T {
        self.emit(AccessKind::Read, Target::Index(index as u32));
        &self.data[index]
    }

    /// Read the front element without removing it. Emits `Read` at 0.
    pub fn front(&self) -> Option<&T> {
        let v = self.data.front();
        if v.is_some() {
            self.emit(AccessKind::Read, Target::Index(0));
        }
        v
    }

    /// Read the back element without removing it. Emits `Read`.
    pub fn back(&self) -> Option<&T> {
        let v = self.data.back();
        if v.is_some() {
            self.emit(AccessKind::Read, Target::Index(self.data.len() as u32 - 1));
        }
        v
    }

    /// Remove all elements. Emits `Clear` with the pre-clear size.
    pub fn clear(&mut self) {
        self.probe
            .emit(AccessKind::Clear, Target::Whole, self.data.len());
        self.data.clear();
    }

    /// Ship buffered events to the collector now.
    pub fn flush(&self) {
        self.probe.flush();
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpyDeque<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpyDeque")
            .field("len", &self.data.len())
            .field("instance", &self.instance_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_via_two_ends() {
        let session = Session::new();
        let mut d = SpyDeque::register(&session, crate::site!());
        d.push_back(1);
        d.push_back(2);
        d.push_back(3);
        assert_eq!(d.pop_front(), Some(1));
        assert_eq!(d.pop_front(), Some(2));
        assert_eq!(d.len(), 1);
        drop(d);
        let cap = session.finish();
        let p = &cap.profiles[0];
        let inserts = p
            .events
            .iter()
            .filter(|e| e.kind == AccessKind::Insert)
            .count();
        let deletes = p
            .events
            .iter()
            .filter(|e| e.kind == AccessKind::Delete)
            .count();
        assert_eq!((inserts, deletes), (3, 2));
        // Deletes hit the front.
        for e in p.events.iter().filter(|e| e.kind == AccessKind::Delete) {
            assert_eq!(e.index(), Some(0));
        }
    }

    #[test]
    fn pops_on_empty_emit_nothing() {
        let session = Session::new();
        let mut d: SpyDeque<i32> = SpyDeque::register(&session, crate::site!());
        assert_eq!(d.pop_front(), None);
        assert_eq!(d.pop_back(), None);
        assert!(d.front().is_none());
        assert!(d.back().is_none());
        drop(d);
        assert_eq!(session.finish().event_count(), 0);
    }

    #[test]
    fn front_back_and_get() {
        let session = Session::new();
        let mut d = SpyDeque::register(&session, crate::site!());
        d.push_front(2);
        d.push_front(1);
        d.push_back(3);
        assert_eq!(d.front(), Some(&1));
        assert_eq!(d.back(), Some(&3));
        assert_eq!(*d.get(1), 2);
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn plain_deque_records_nothing() {
        let mut d = SpyDeque::plain();
        d.push_back('a');
        assert_eq!(d.pop_front(), Some('a'));
        assert!(d.instance_id().is_none());
    }
}
