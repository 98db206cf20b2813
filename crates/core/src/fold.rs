//! The one per-instance analysis fold.
//!
//! Post-mortem and streaming analysis run the same code: every event of an
//! instance is folded once into an [`InstanceFold`], and
//! [`InstanceFold::report`] turns the fold into that instance's
//! [`InstanceReport`]. The streaming analyzer keeps one fold per live
//! instance, folds every event into it in order and reports from it at
//! every snapshot. [`crate::Dsspy::analyze_capture`] cuts each saved
//! profile into chunks, folds each chunk into a fresh fold on some worker
//! and merges the chunk folds left to right with [`InstanceFold::merge`].
//!
//! The merge law makes the two agree: merging the fold of `a` with the
//! fold of `b` gives the fold of `a ++ b`, for any split point (see
//! [`dsspy_patterns::incremental`] for how the state carried across a split
//! is settled). So a report does not depend on where the events were cut,
//! nor on how many workers folded them.

use std::borrow::Cow;

use dsspy_events::{AccessEvent, InstanceInfo};
use dsspy_patterns::IncrementalAnalyzer;
use dsspy_usecases::{classify, AdvisoryFold};

use crate::pipeline::AnalysisConfig;
use crate::report::InstanceReport;

/// One instance's analysis state: the pattern/metric/thread folds plus the
/// misuse-advisory fold. Memory is O(patterns); raw events are not kept.
#[derive(Clone, Debug)]
pub struct InstanceFold {
    analyzer: IncrementalAnalyzer,
    advisory: AdvisoryFold,
}

impl InstanceFold {
    /// An empty fold. Reporting it right away gives the report of a
    /// registered instance that was never touched.
    pub fn new(config: &AnalysisConfig) -> InstanceFold {
        InstanceFold {
            analyzer: IncrementalAnalyzer::new(&config.miner),
            advisory: AdvisoryFold::default(),
        }
    }

    /// Fold one event. Events must arrive in profile (sequence) order.
    pub fn fold(&mut self, e: &AccessEvent) {
        self.analyzer.fold(e);
        self.advisory.fold(e);
    }

    /// Merge `right`, the fold of the events that directly follow this
    /// fold's, into `self`: afterwards `self` is the fold of both runs of
    /// events in order. `right_events` yields the events `right` folded;
    /// it is called only when some run must be replayed (see
    /// [`IncrementalAnalyzer::merge`]). Returns the number of events
    /// replayed.
    pub fn merge<'e>(
        &mut self,
        right: InstanceFold,
        right_events: impl FnOnce() -> Cow<'e, [AccessEvent]>,
    ) -> usize {
        self.advisory.merge(&right.advisory);
        self.analyzer.merge(right.analyzer, right_events)
    }

    /// Sequence-order inversions seen so far (0 for any collector-fed
    /// stream).
    pub fn out_of_order(&self) -> u64 {
        self.analyzer.out_of_order()
    }

    /// The report of everything folded so far: snapshot the patterns and
    /// metrics, gate on regularity, classify, then add the advisories.
    pub fn report(&self, info: &InstanceInfo, config: &AnalysisConfig) -> InstanceReport {
        let (analysis, regularity) = self.analyzer.snapshot(&config.regularity);
        let use_cases = classify(info, &analysis, &config.thresholds);
        let advisories = self
            .advisory
            .finish(info.kind.is_linear(), &config.advisories);
        InstanceReport {
            instance: info.clone(),
            events: self.analyzer.event_count(),
            analysis,
            regularity,
            use_cases,
            advisories,
        }
    }
}
