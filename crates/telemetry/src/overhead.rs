//! Overhead accounting: the profiler watching its own cost.
//!
//! The paper's Table IV reports *Profiling Slowdown* — instrumented vs.
//! plain wall time, measured with two runs. This module produces the same
//! figure two ways:
//!
//! * [`OverheadReport::from_measurement`] — the exact paired-run form, the
//!   one definition of Table IV's slowdown (`repro --table 4` takes it from
//!   here);
//! * [`OverheadReport::account`] — the single-run estimate computed directly
//!   from telemetry: the collector's on-thread busy time is the profiling
//!   work performed inside the session window, so
//!   `session / (session - accounted)` bounds the slowdown from below.
//!   Capture encode is part of that busy time: the collector encodes each
//!   batch as it arrives. Writing the encoded capture and decoding it run
//!   after the session ends (like analysis), so they are offline cost and
//!   never charged to it. A run with the
//!   accountant enabled therefore always knows roughly how much it is paying
//!   for being observed.

use serde::{Deserialize, Serialize};

use crate::snapshot::TelemetrySnapshot;

/// Counter names the accountant reads from a snapshot.
pub mod signals {
    /// Collector-thread busy time (batch handling), nanoseconds.
    pub const COLLECTOR_BUSY: &str = "collector.busy_nanos";
    /// Capture write time, nanoseconds (offline cost, not accounted).
    pub const PERSIST_ENCODE: &str = "persist.encode_nanos";
    /// Capture decode time, nanoseconds (offline cost, not accounted).
    pub const PERSIST_DECODE: &str = "persist.decode_nanos";
    /// Analysis span category (post-mortem cost, not session overhead).
    pub const ANALYSIS_CAT: &str = "analysis";
    /// Pipeline span category: whole-pass wall-clock spans (e.g. one
    /// `analyze_capture` call), as opposed to per-instance analysis CPU.
    pub const PIPELINE_CAT: &str = "pipeline";
}

/// The Table IV-style overhead figure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Wall time of the profiled session, nanoseconds (Table IV's
    /// instrumented run).
    pub session_nanos: u64,
    /// Profiling work accounted inside that session: collector busy time,
    /// nanoseconds.
    pub accounted_profiling_nanos: u64,
    /// Post-mortem analysis wall time, nanoseconds (off the profiled run's
    /// critical path; reported separately like the paper's offline phase).
    pub analysis_nanos: u64,
    /// Estimated plain-run wall time: session minus accounted profiling
    /// work.
    pub estimated_baseline_nanos: u64,
    /// The slowdown factor, instrumented / baseline. From [`Self::account`]
    /// this is a lower bound (handle-side buffering is not separable from
    /// the profiled code); from [`Self::from_measurement`] it is exact.
    pub slowdown: f64,
}

impl OverheadReport {
    /// Account a single instrumented run from its telemetry snapshot.
    pub fn account(snapshot: &TelemetrySnapshot, session_nanos: u64) -> OverheadReport {
        let accounted = snapshot.counter(signals::COLLECTOR_BUSY).unwrap_or(0);
        let analysis_nanos = snapshot
            .spans_in(signals::ANALYSIS_CAT)
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_nanos)
            .sum();
        let baseline = session_nanos.saturating_sub(accounted).max(1);
        OverheadReport {
            session_nanos,
            accounted_profiling_nanos: accounted,
            analysis_nanos,
            estimated_baseline_nanos: baseline,
            slowdown: if session_nanos == 0 {
                1.0
            } else {
                session_nanos as f64 / baseline as f64
            },
        }
    }

    /// The exact paired-run figure: plain vs. instrumented wall time.
    pub fn from_measurement(plain_nanos: u64, instrumented_nanos: u64) -> OverheadReport {
        OverheadReport {
            session_nanos: instrumented_nanos,
            accounted_profiling_nanos: instrumented_nanos.saturating_sub(plain_nanos),
            analysis_nanos: 0,
            estimated_baseline_nanos: plain_nanos.max(1),
            slowdown: if plain_nanos == 0 {
                0.0
            } else {
                instrumented_nanos as f64 / plain_nanos as f64
            },
        }
    }

    /// The fraction of the session spent on accounted profiling work.
    pub fn overhead_share(&self) -> f64 {
        if self.session_nanos == 0 {
            0.0
        } else {
            self.accounted_profiling_nanos as f64 / self.session_nanos as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CounterSnapshot;

    fn snapshot_with(counters: &[(&str, u64)]) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: counters
                .iter()
                .map(|(name, value)| CounterSnapshot {
                    name: name.to_string(),
                    value: *value,
                })
                .collect(),
            ..TelemetrySnapshot::default()
        }
    }

    #[test]
    fn accounts_collector_cost_but_not_offline_persistence() {
        // Encode and decode happen outside the session window: a decode
        // longer than the whole session must not be charged to it.
        let snap = snapshot_with(&[
            (signals::COLLECTOR_BUSY, 200),
            (signals::PERSIST_ENCODE, 50),
            (signals::PERSIST_DECODE, 5_000),
        ]);
        let o = OverheadReport::account(&snap, 1_000);
        assert_eq!(o.accounted_profiling_nanos, 200);
        assert_eq!(o.estimated_baseline_nanos, 800);
        assert!((o.slowdown - 1_000.0 / 800.0).abs() < 1e-12);
        assert!((o.overhead_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sessions_stay_finite() {
        let o = OverheadReport::account(&TelemetrySnapshot::default(), 0);
        assert_eq!(o.slowdown, 1.0);
        assert_eq!(o.overhead_share(), 0.0);
        // Accounted work exceeding the session clamps the baseline to 1ns.
        let snap = snapshot_with(&[(signals::COLLECTOR_BUSY, 10_000)]);
        let clamped = OverheadReport::account(&snap, 100);
        assert_eq!(clamped.estimated_baseline_nanos, 1);
        assert!(clamped.slowdown.is_finite());
    }

    #[test]
    fn paired_measurement_matches_table_iv_semantics() {
        // Table IV, gpdotnet-style: 100 ms plain, 4713 ms instrumented.
        let o = OverheadReport::from_measurement(100, 4_713);
        assert!((o.slowdown - 47.13).abs() < 1e-9);
        assert_eq!(OverheadReport::from_measurement(0, 10).slowdown, 0.0);
    }
}
