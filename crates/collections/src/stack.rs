//! `SpyStack<T>` — the instrumented `Stack<T>`.
//!
//! The sequential use case *Stack-Implementation* (SI, §III-B) detects lists
//! whose inserts and deletes always hit a common end; `SpyStack` is the
//! structure such code should migrate to, and profiling it lets tests pin
//! down the SI signature from the "correct" side as well.

use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, InstanceId, Target};

use crate::probe::Probe;

/// An instrumented LIFO stack, the analogue of .NET `Stack<T>`.
pub struct SpyStack<T> {
    data: Vec<T>,
    probe: Probe,
}

impl<T> SpyStack<T> {
    /// Register a new, empty instrumented stack in `session`.
    pub fn register(session: &Session, site: AllocationSite) -> Self {
        SpyStack {
            data: Vec::new(),
            probe: Probe::live(session.register(site, DsKind::Stack, Probe::elem::<T>())),
        }
    }

    /// An uninstrumented stack (ghost mode).
    pub fn plain() -> Self {
        SpyStack {
            data: Vec::new(),
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

    /// Whether the stack is empty. No event.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Push onto the top. Emits `Insert` at the new top index.
    pub fn push(&mut self, value: T) {
        self.data.push(value);
        self.emit(
            AccessKind::Insert,
            Target::Index(self.data.len() as u32 - 1),
        );
    }

    /// Pop the top element. Emits `Delete` at the old top index on success.
    pub fn pop(&mut self) -> Option<T> {
        let v = self.data.pop();
        if v.is_some() {
            self.emit(AccessKind::Delete, Target::Index(self.data.len() as u32));
        }
        v
    }

    /// Read the top element without removing it. Emits `Read`.
    pub fn peek(&self) -> Option<&T> {
        let v = self.data.last();
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

impl<T: std::fmt::Debug> std::fmt::Debug for SpyStack<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpyStack")
            .field("len", &self.data.len())
            .field("instance", &self.instance_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order_and_common_end_signature() {
        let session = Session::new();
        let mut s = SpyStack::register(&session, crate::site!());
        s.push(1);
        s.push(2);
        assert_eq!(s.peek(), Some(&2));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
        drop(s);
        let cap = session.finish();
        let p = &cap.profiles[0];
        // Inserts and deletes both track the moving top: the SI signature is
        // that each delete's index equals the previous insert frontier.
        let kinds: Vec<_> = p.events.iter().map(|e| (e.kind, e.index())).collect();
        assert_eq!(
            kinds,
            vec![
                (AccessKind::Insert, Some(0)),
                (AccessKind::Insert, Some(1)),
                (AccessKind::Read, Some(1)),
                (AccessKind::Delete, Some(1)),
                (AccessKind::Delete, Some(0)),
            ]
        );
    }

    #[test]
    fn peek_empty_emits_nothing() {
        let session = Session::new();
        let s: SpyStack<u8> = SpyStack::register(&session, crate::site!());
        assert!(s.peek().is_none());
        drop(s);
        assert_eq!(session.finish().event_count(), 0);
    }

    #[test]
    fn plain_stack_records_nothing() {
        let mut s = SpyStack::plain();
        s.push("x");
        assert_eq!(s.pop(), Some("x"));
        assert!(s.instance_id().is_none());
    }

    #[test]
    fn clear_reports_presize() {
        let session = Session::new();
        let mut s = SpyStack::register(&session, crate::site!());
        for i in 0..4 {
            s.push(i);
        }
        s.clear();
        assert!(s.is_empty());
        drop(s);
        let cap = session.finish();
        let clear = cap.profiles[0]
            .events
            .iter()
            .find(|e| e.kind == AccessKind::Clear)
            .unwrap();
        assert_eq!(clear.len, 4);
    }
}
