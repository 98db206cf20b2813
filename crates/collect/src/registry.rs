//! The instance registry: who is being profiled.
//!
//! The paper's static-analysis pass identifies every list and array instance
//! and its declaration site before instrumenting it (§IV). In our
//! wrapper-based reproduction the equivalent step happens at construction
//! time: each `Spy*` collection registers itself here with its allocation
//! site, receives an [`InstanceId`], and all its events are bound to that id.

use dsspy_events::{AllocationSite, DsKind, InstanceId, InstanceInfo, Origin};
use parking_lot::RwLock;

/// Thread-safe registry of instrumented instances for one session.
#[derive(Debug, Default)]
pub struct Registry {
    infos: RwLock<Vec<InstanceInfo>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a new instance with its [`Origin`] (automatic, or selective
    /// profiling, §IV) and return its session-unique id. An instance's id is
    /// its position in [`Registry::snapshot`]: both are taken under one
    /// write lock.
    pub fn register_with_origin(
        &self,
        site: AllocationSite,
        kind: DsKind,
        elem_type: impl Into<String>,
        origin: Origin,
    ) -> InstanceId {
        let elem_type = elem_type.into();
        let mut infos = self.infos.write();
        let id = InstanceId(infos.len() as u64);
        let mut info = InstanceInfo::new(id, site, kind, elem_type);
        info.origin = origin;
        infos.push(info);
        id
    }

    /// Number of instances registered so far. This is the denominator of the
    /// paper's *search space reduction* metric (§V): the engineer would have
    /// to inspect every one of these without DSspy.
    pub fn len(&self) -> usize {
        self.infos.read().len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.infos.read().is_empty()
    }

    /// Snapshot of all registered instances, in registration order.
    pub fn snapshot(&self) -> Vec<InstanceInfo> {
        self.infos.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn register(r: &Registry, position: u32, kind: DsKind, elem_type: &str) -> InstanceId {
        let site = AllocationSite::new("C", "m", position);
        r.register_with_origin(site, kind, elem_type, Origin::Auto)
    }

    #[test]
    fn register_assigns_distinct_ids() {
        let r = Registry::new();
        assert!(r.is_empty());
        let a = register(&r, 1, DsKind::List, "i32");
        let b = register(&r, 2, DsKind::Array, "f64");
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        let snap = r.snapshot();
        assert_eq!(snap[0].kind, DsKind::List);
        assert_eq!(snap[1].elem_type, "f64");
    }

    #[test]
    fn snapshot_preserves_registration_order() {
        let r = Registry::new();
        for i in 0..10 {
            register(&r, i, DsKind::List, "u8");
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, info) in snap.iter().enumerate() {
            assert_eq!(info.site.position, i as u32);
        }
    }

    #[test]
    fn concurrent_registration_yields_unique_ids() {
        let r = Arc::new(Registry::new());
        let start = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for t in 0..8 {
            let r = Arc::clone(&r);
            let start = Arc::clone(&start);
            handles.push(std::thread::spawn(move || {
                start.wait();
                (0..100)
                    .map(|i| register(&r, t * 1000 + i, DsKind::List, "i32"))
                    .collect::<Vec<_>>()
            }));
        }
        let mut ids = std::collections::HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(ids.insert(id));
            }
        }
        assert_eq!(ids.len(), 800);
        assert_eq!(r.len(), 800);
        // Ids are handed out in the order instances land in the snapshot.
        for (i, info) in r.snapshot().iter().enumerate() {
            assert_eq!(info.id, InstanceId(i as u64));
        }
    }
}
