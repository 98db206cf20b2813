//! `SpyQueue<T>` — the instrumented `Queue<T>`.
//!
//! The *Implement-Queue* use case (IQ, §III-B) recommends migrating a
//! list-used-as-queue to a real (parallel) queue. This wrapper is that real
//! queue's instrumented sequential form: enqueue at the back, dequeue at the
//! front, so its profile shows the canonical two-different-ends shape.

use std::collections::VecDeque;

use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceId, Target};

use crate::probe::Probe;

/// An instrumented FIFO queue, the analogue of .NET `Queue<T>`.
pub struct SpyQueue<T> {
    data: VecDeque<T>,
    probe: Probe,
}

impl<T> SpyQueue<T> {
    /// Register a new, empty instrumented queue in `session`.
    pub fn register(session: &Session, site: AllocationSite) -> Self {
        SpyQueue {
            data: VecDeque::new(),
            probe: Probe::live(session.register(site, DsKind::Queue, Probe::elem::<T>())),
        }
    }

    /// An uninstrumented queue (ghost mode).
    pub fn plain() -> Self {
        SpyQueue {
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

    /// Whether the queue is empty. No event.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Add to the back (`Queue.Enqueue`). Emits `Insert` at the last index.
    pub fn enqueue(&mut self, value: T) {
        self.data.push_back(value);
        self.emit(
            AccessKind::Insert,
            Target::Index(self.data.len() as u32 - 1),
        );
    }

    /// Remove from the front (`Queue.Dequeue`). Emits `Delete` at index 0.
    pub fn dequeue(&mut self) -> Option<T> {
        let v = self.data.pop_front();
        if v.is_some() {
            self.emit(AccessKind::Delete, Target::Index(0));
        }
        v
    }

    /// Read the front without removing it (`Queue.Peek`). Emits `Read`.
    pub fn peek(&self) -> Option<&T> {
        let v = self.data.front();
        if v.is_some() {
            self.emit(AccessKind::Read, Target::Index(0));
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

impl<T: std::fmt::Debug> std::fmt::Debug for SpyQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpyQueue")
            .field("len", &self.data.len())
            .field("instance", &self.instance_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let session = Session::new();
        let mut q = SpyQueue::register(&session, crate::site!());
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.peek(), Some(&1));
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
        drop(q);
        let cap = session.finish();
        let p = &cap.profiles[0];
        // Two-different-ends shape: inserts at growing back, deletes at 0.
        for e in &p.events {
            match e.kind {
                AccessKind::Delete | AccessKind::Read => assert_eq!(e.index(), Some(0)),
                AccessKind::Insert => assert_eq!(e.index(), Some(e.len - 1)),
                other => panic!("unexpected event {other}"),
            }
        }
    }

    #[test]
    fn empty_dequeue_emits_nothing() {
        let session = Session::new();
        let mut q: SpyQueue<u8> = SpyQueue::register(&session, crate::site!());
        assert_eq!(q.dequeue(), None);
        assert!(q.peek().is_none());
        drop(q);
        assert_eq!(session.finish().event_count(), 0);
    }

    #[test]
    fn plain_queue_records_nothing() {
        let mut q = SpyQueue::plain();
        q.enqueue(5);
        assert_eq!(q.dequeue(), Some(5));
        assert!(q.instance_id().is_none());
    }
}
