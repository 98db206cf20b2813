//! Causal trace context: the identity a pipeline event carries so the
//! flight recorder can stitch one batch's journey back together.
//!
//! TASKPROF-style causal profiling reconstructs "what led to what" from
//! per-task provenance rather than from wall-clock adjacency. Our pipeline
//! is simpler — one collector thread, N tap subscribers — but the same
//! principle applies: a batch is identified by *(session, batch sequence)*,
//! and every downstream observation (tap dispatch, snapshot publication,
//! panic, drop) stamps that pair, so `dsspy doctor` can rebuild the causal
//! chain session → batch → subscriber → outcome without guessing from
//! timestamps.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Process-global session id allocator. Ids are unique within a process and
/// never 0 — [`TraceContext::session`] uses `0` for replay/synthetic
/// streams that have no live session behind them.
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh, process-unique session id (never 0).
pub fn next_session_id() -> u64 {
    NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed)
}

/// The causal coordinates of one collector-thread delivery.
///
/// Stamped by the collector when a batch is received and threaded through
/// every [`CollectorTap`](../../dsspy_collect/collector/trait.CollectorTap.html)
/// delivery, so a flight-recorder event anywhere in the fan-out can name
/// exactly which batch of which session it belongs to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceContext {
    /// The session the batch belongs to ([`next_session_id`]); `0` for
    /// replayed or synthetic streams.
    pub session: u64,
    /// 1-based sequence number of the batch on its collector thread. The
    /// `on_stop` delivery carries the sequence of the *last* batch (or `0`
    /// when the session stored none).
    pub batch_seq: u64,
}

impl TraceContext {
    /// A context for batch `batch_seq` of live session `session`.
    pub fn new(session: u64, batch_seq: u64) -> TraceContext {
        TraceContext { session, batch_seq }
    }

    /// A context for a replayed/synthetic stream (session 0).
    pub fn replay(batch_seq: u64) -> TraceContext {
        TraceContext {
            session: 0,
            batch_seq,
        }
    }
}

impl std::fmt::Display for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}#b{}", self.session, self.batch_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_ids_are_unique_and_nonzero() {
        let a = next_session_id();
        let b = next_session_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn replay_contexts_use_session_zero() {
        assert_eq!(TraceContext::replay(4).session, 0);
        assert_eq!(TraceContext::replay(4).to_string(), "s0#b4");
        assert_eq!(TraceContext::new(7, 3).to_string(), "s7#b3");
    }

    #[test]
    fn context_round_trips_through_serde() {
        let ctx = TraceContext::new(9, 42);
        let json = serde_json::to_string(&ctx).unwrap();
        let back: TraceContext = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ctx);
    }
}
