//! The one recording probe every `Spy*` collection holds.
//!
//! A probe is either live, holding the instance's
//! [`dsspy_collect::InstanceHandle`], or plain ("ghost mode"), in which case
//! every event is discarded and the collection behaves like its std
//! counterpart. This module is the only place that decides between the two
//! and the only place that names an instance's element type.
//!
//! The paper measures *slowdown during data collection* by running each
//! program twice: instrumented and plain (§V, Table IV). A plain probe
//! compiles down to the raw container operation plus one branch on `None`;
//! this is what the slowdown benchmarks compare against, and what
//! `dsspy_telemetry::OverheadReport::from_measurement` consumes as the
//! paired plain/instrumented wall-time measurement. (The single-run
//! estimator, `OverheadReport::account`, instead reads the collector
//! busy-time signal a telemetry-enabled `Session` records.)

use std::cell::RefCell;

use dsspy_collect::InstanceHandle;
use dsspy_events::instance::short_type_name;
use dsspy_events::{AccessKind, InstanceId, Target};

/// Live handle or nothing. Interior mutability lets read-only interface
/// methods (`get`, `contains`, iteration) record too.
pub(crate) struct Probe(RefCell<Option<InstanceHandle>>);

impl Probe {
    /// A probe that records into `handle`'s session.
    pub(crate) fn live(handle: InstanceHandle) -> Self {
        Probe(RefCell::new(Some(handle)))
    }

    /// A probe that records nothing (ghost mode).
    pub(crate) fn plain() -> Self {
        Probe(RefCell::new(None))
    }

    /// The instance id, if live.
    pub(crate) fn id(&self) -> Option<InstanceId> {
        self.0.borrow().as_ref().map(InstanceHandle::id)
    }

    /// Record one event if live. Forced inline: this is every interface
    /// method's per-event path, and an out-of-line copy costs the ghost-mode
    /// baseline a call per operation.
    #[inline(always)]
    pub(crate) fn emit(&self, kind: AccessKind, target: Target, len: usize) {
        if let Some(h) = self.0.borrow_mut().as_mut() {
            h.record(kind, target, len as u32);
        }
    }

    /// Ship buffered events to the collector now, if live.
    pub(crate) fn flush(&self) {
        if let Some(h) = self.0.borrow_mut().as_mut() {
            h.flush();
        }
    }

    /// The element-type name a single-parameter collection registers with,
    /// e.g. `"String"` for `SpyVec<String>`.
    pub(crate) fn elem<T>() -> String {
        short_type_name(std::any::type_name::<T>())
    }

    /// The element-type name a keyed collection registers with, e.g.
    /// `"String,u32"` for `SpyMap<String, u32>`.
    pub(crate) fn pair<K, V>() -> String {
        format!("{},{}", Self::elem::<K>(), Self::elem::<V>())
    }
}
