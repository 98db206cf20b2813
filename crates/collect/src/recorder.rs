//! Optional recording: live handles vs. the uninstrumented "ghost" mode.
//!
//! The paper measures *slowdown during data collection* by running each
//! program twice: instrumented and plain (§V, Table IV). Instrumented
//! collections are generic over a [`Recorder`] so that the plain variant
//! compiles down to the raw container operation with a branch on a constant
//! — this is what the slowdown benchmarks compare against, and what
//! `dsspy_telemetry::OverheadReport::from_measurement` consumes as the
//! paired plain/instrumented wall-time measurement. (The single-run
//! estimator, `OverheadReport::account`, instead reads the collector
//! busy-time signal a telemetry-enabled [`crate::Session`] records.)

use dsspy_events::{AccessKind, Target};

use crate::session::InstanceHandle;

/// Either a live per-instance handle or a no-op.
#[derive(Debug)]
pub enum Recorder {
    /// Events are recorded into a session.
    Live(InstanceHandle),
    /// Events are discarded; the structure behaves like its plain std
    /// counterpart. Used for slowdown baselines.
    Off,
}

impl Recorder {
    /// Record one event if live.
    #[inline]
    pub fn record(&mut self, kind: AccessKind, target: Target, len: u32) {
        if let Recorder::Live(h) = self {
            h.record(kind, target, len);
        }
    }

    /// Flush buffered events if live.
    pub fn flush(&mut self) {
        if let Recorder::Live(h) = self {
            h.flush();
        }
    }

    /// Whether events are being recorded.
    pub fn is_live(&self) -> bool {
        matches!(self, Recorder::Live(_))
    }

    /// The instance id, if live.
    pub fn id(&self) -> Option<dsspy_events::InstanceId> {
        match self {
            Recorder::Live(h) => Some(h.id()),
            Recorder::Off => None,
        }
    }
}

impl From<InstanceHandle> for Recorder {
    fn from(h: InstanceHandle) -> Self {
        Recorder::Live(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use dsspy_events::{AllocationSite, DsKind};

    #[test]
    fn off_recorder_is_a_noop() {
        let mut r = Recorder::Off;
        r.record(AccessKind::Read, Target::Index(0), 1);
        r.flush();
        assert!(!r.is_live());
        assert!(r.id().is_none());
    }

    #[test]
    fn live_recorder_forwards() {
        let session = Session::new();
        let h = session.register(AllocationSite::new("C", "m", 1), DsKind::List, "i32");
        let id = h.id();
        let mut r = Recorder::from(h);
        assert!(r.is_live());
        assert_eq!(r.id(), Some(id));
        r.record(AccessKind::Insert, Target::Index(0), 1);
        drop(r);
        let cap = session.finish();
        assert_eq!(cap.event_count(), 1);
    }
}
