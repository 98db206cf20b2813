//! `SpyLinkedList<T>` — the instrumented `LinkedList<T>`.
//!
//! The rarest dynamic structure of the study (0.15 %, §II-A). Linked lists
//! are linear (elements have positions) but positional access costs O(n) —
//! DSspy profiles make that visible: a `get(i)` run over a linked list
//! shows the same Read-Forward shape as over a list, and the Frequent-Search
//! recommendation ("employ a structure optimized for searches") applies
//! with extra force.

use std::collections::VecDeque;

use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceId, Target};

use crate::probe::Probe;

/// An instrumented doubly-linked list, the analogue of .NET
/// `LinkedList<T>`. (Backed by a `VecDeque` — the *interface* is what
/// DSspy profiles; the paper's events are agnostic to the backing store.)
pub struct SpyLinkedList<T> {
    data: VecDeque<T>,
    probe: Probe,
}

impl<T> SpyLinkedList<T> {
    /// Register a new, empty instrumented linked list in `session`.
    pub fn register(session: &Session, site: AllocationSite) -> Self {
        SpyLinkedList {
            data: VecDeque::new(),
            probe: Probe::live(session.register(site, DsKind::LinkedList, Probe::elem::<T>())),
        }
    }

    /// An uninstrumented linked list (ghost mode).
    pub fn plain() -> Self {
        SpyLinkedList {
            data: VecDeque::new(),
            probe: Probe::plain(),
        }
    }

    #[inline]
    fn emit(&self, kind: AccessKind, target: Target) {
        self.probe.emit(kind, target, self.data.len());
    }

    /// Number of elements. No event.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the list is empty. No event.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `AddLast`: append at the tail. Emits `Insert`.
    pub fn add_last(&mut self, value: T) {
        self.data.push_back(value);
        self.emit(
            AccessKind::Insert,
            Target::Index(self.data.len() as u32 - 1),
        );
    }

    /// `AddFirst`: prepend at the head. Emits `Insert` at 0.
    pub fn add_first(&mut self, value: T) {
        self.data.push_front(value);
        self.emit(AccessKind::Insert, Target::Index(0));
    }

    /// `RemoveFirst`. Emits `Delete` at 0 on success.
    pub fn remove_first(&mut self) -> Option<T> {
        let v = self.data.pop_front();
        if v.is_some() {
            self.emit(AccessKind::Delete, Target::Index(0));
        }
        v
    }

    /// `RemoveLast`. Emits `Delete` at the old tail index on success.
    pub fn remove_last(&mut self) -> Option<T> {
        let v = self.data.pop_back();
        if v.is_some() {
            self.emit(AccessKind::Delete, Target::Index(self.data.len() as u32));
        }
        v
    }

    /// Positional read (an O(n) walk on a real linked list). Emits `Read`.
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn get(&self, index: usize) -> &T {
        self.emit(AccessKind::Read, Target::Index(index as u32));
        &self.data[index]
    }

    /// Linear search by predicate (`Find`). Emits `Search` over the scanned
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

    /// Remove all elements. Emits `Clear` with the pre-clear size.
    pub fn clear(&mut self) {
        self.probe
            .emit(AccessKind::Clear, Target::Whole, self.data.len());
        self.data.clear();
    }

    /// The instance id, if instrumented.
    pub fn instance_id(&self) -> Option<InstanceId> {
        self.probe.id()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpyLinkedList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpyLinkedList")
            .field("len", &self.data.len())
            .field("instance", &self.instance_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_last_and_first_event_positions() {
        let session = Session::new();
        let mut ll = SpyLinkedList::register(&session, crate::site!());
        ll.add_last(2);
        ll.add_last(3);
        ll.add_first(1);
        assert_eq!(*ll.get(0), 1);
        assert_eq!(ll.len(), 3);
        drop(ll);
        let cap = session.finish();
        let evs = &cap.profiles[0].events;
        assert_eq!(evs[0].index(), Some(0));
        assert_eq!(evs[1].index(), Some(1));
        assert_eq!(evs[2].index(), Some(0), "AddFirst lands at head");
    }

    #[test]
    fn removals_from_both_ends() {
        let session = Session::new();
        let mut ll = SpyLinkedList::register(&session, crate::site!());
        for i in 0..5 {
            ll.add_last(i);
        }
        assert_eq!(ll.remove_first(), Some(0));
        assert_eq!(ll.remove_last(), Some(4));
        assert_eq!(ll.len(), 3);
        assert_eq!(ll.remove_first(), Some(1));
        let empty: SpyLinkedList<u8> = SpyLinkedList::plain();
        let mut empty = empty;
        assert_eq!(empty.remove_first(), None);
        assert_eq!(empty.remove_last(), None);
    }

    #[test]
    fn find_records_scanned_prefix() {
        let session = Session::new();
        let mut ll = SpyLinkedList::register(&session, crate::site!());
        for i in 0..6 {
            ll.add_last(i * 2);
        }
        assert_eq!(ll.find(|v| *v == 6), Some(3));
        assert_eq!(ll.find(|v| *v == 99), None);
        drop(ll);
        let cap = session.finish();
        let searches: Vec<_> = cap.profiles[0]
            .events
            .iter()
            .filter(|e| e.kind == AccessKind::Search)
            .collect();
        assert_eq!(searches[0].target, Target::Range { start: 0, end: 4 });
        assert_eq!(searches[1].target, Target::Range { start: 0, end: 6 });
    }

    #[test]
    fn clear_and_plain_mode() {
        let session = Session::new();
        let mut ll = SpyLinkedList::register(&session, crate::site!());
        ll.add_last('a');
        ll.clear();
        assert!(ll.is_empty());
        let mut plain = SpyLinkedList::plain();
        plain.add_first(1);
        assert!(plain.instance_id().is_none());
    }
}
