//! The DSspy report: advice per instance plus aggregate quality numbers.

use dsspy_collect::CollectorStats;
use dsspy_events::InstanceInfo;
use dsspy_patterns::{ProfileAnalysis, RegularityVerdict};
use dsspy_telemetry::TelemetrySnapshot;
use dsspy_usecases::{Advisory, UseCase};
use serde::{Deserialize, Serialize};

/// Everything DSspy has to say about one data-structure instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InstanceReport {
    /// The instance (allocation site, kind, element type).
    pub instance: InstanceInfo,
    /// Number of access events captured for it.
    pub events: usize,
    /// Mined patterns and derived metrics.
    pub analysis: ProfileAnalysis,
    /// Did the profile contain recurring regularities (Table II gate)?
    pub regularity: RegularityVerdict,
    /// Detected use cases with evidence and recommended actions.
    pub use_cases: Vec<UseCase>,
    /// Structural misuse advisories (§II-A findings; not use cases).
    #[serde(default)]
    pub advisories: Vec<Advisory>,
}

impl InstanceReport {
    /// Whether DSspy flags this instance (the engineer must look at it).
    pub fn is_flagged(&self) -> bool {
        !self.use_cases.is_empty()
    }
}

/// Cost of analyzing one instance, split into the two analysis phases of
/// Fig. 4 (pattern mining vs. use-case classification).
///
/// Diagnostic only: timings vary run to run, so they are excluded from
/// serialization to keep serialized [`Report`]s byte-identical across runs
/// and thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstanceTiming {
    /// Folding every event (mining, metrics, advisories), nanoseconds: the
    /// instance's chunk folds plus the merges of their folds, summed over
    /// the workers that ran them. A CPU cost, not a wall-clock span: an
    /// instance folded on two workers at once can take half of it.
    pub mining_nanos: u64,
    /// Reporting from the fold (snapshot, regularity gate, classification,
    /// advisories), nanoseconds.
    pub classify_nanos: u64,
}

impl InstanceTiming {
    /// Total analysis time spent on this instance.
    pub fn total_nanos(&self) -> u64 {
        self.mining_nanos + self.classify_nanos
    }
}

/// Per-instance analysis costs of one `analyze_capture` pass. Not
/// serialized. The wall clock of the pass is the `analyze_capture` span and
/// its width the `analysis.threads` gauge of the run's telemetry.
#[derive(Clone, Debug, Default)]
pub struct AnalysisTimings {
    /// One entry per entry of [`Report::instances`], same order.
    pub per_instance: Vec<InstanceTiming>,
}

/// The full session report — the *Advice* output of Fig. 4.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    /// One entry per registered instance, registration order.
    pub instances: Vec<InstanceReport>,
    /// Collector statistics (events captured, batches, drops).
    pub stats: CollectorStats,
    /// Wall-clock duration of the profiled execution, nanoseconds.
    pub session_nanos: u64,
    /// How long the analysis itself took, per instance and phase. Skipped
    /// by serde so that two analyses of the same capture serialize
    /// identically no matter how many threads (or how much wall time) each
    /// one used. When the analysis ran with telemetry, the same numbers
    /// travel as `mine#i`/`classify#i` spans inside [`Report::telemetry`].
    #[serde(skip)]
    pub timings: AnalysisTimings,
    /// Self-observation snapshot of the run that produced this report:
    /// collector metrics, persistence volume, per-instance analysis spans,
    /// and the Table IV-style overhead accounting. `None` when the analysis
    /// ran without telemetry — which also keeps serialized reports
    /// byte-identical across thread counts in that default mode.
    #[serde(default)]
    pub telemetry: Option<TelemetrySnapshot>,
}

impl Report {
    /// Number of registered instances — the search-space denominator the
    /// engineer would face without DSspy (§V).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Instances DSspy flags with at least one use case.
    pub fn flagged_instance_count(&self) -> usize {
        self.instances.iter().filter(|i| i.is_flagged()).count()
    }

    /// The paper's headline metric: the fraction of instances the engineer
    /// no longer needs to look at, e.g. 0.7692 for 104 → 24 (§V).
    pub fn search_space_reduction(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        1.0 - self.flagged_instance_count() as f64 / self.instances.len() as f64
    }

    /// The reduction computed the way the paper's Table IV does: one
    /// "location to inspect" per *use case* rather than per flagged
    /// instance (e.g. gpdotnet: 37 instances, 5 use cases → 86.49 %).
    /// An instance carrying two use cases counts twice, so this can be
    /// lower than [`Report::search_space_reduction`]; it is floored at 0.
    pub fn use_case_reduction(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        (1.0 - self.all_use_cases().len() as f64 / self.instances.len() as f64).max(0.0)
    }

    /// All detected use cases across instances, in registration order.
    pub fn all_use_cases(&self) -> Vec<&UseCase> {
        self.instances
            .iter()
            .flat_map(|i| i.use_cases.iter())
            .collect()
    }

    /// All misuse advisories across instances, with the instance they refer
    /// to.
    pub fn all_advisories(&self) -> Vec<(&InstanceReport, &Advisory)> {
        self.instances
            .iter()
            .flat_map(|i| i.advisories.iter().map(move |a| (i, a)))
            .collect()
    }

    /// Render the Table-V-style use-case listing:
    ///
    /// ```text
    /// Use Case 1
    ///   Class:          GPdotNet.Engine.GPModelGlobals
    ///   Method:         GenerateTerminalSet
    ///   Position:       120
    ///   Data structure: Array<System.Double>
    ///   Use Case:       Frequent-Long-Read
    ///   Action:         ...
    /// ```
    pub fn render_use_cases(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (n, u) in self.all_use_cases().iter().enumerate() {
            let _ = writeln!(out, "Use Case {}", n + 1);
            let _ = writeln!(out, "  Class:          {}", u.instance.site.class);
            let _ = writeln!(out, "  Method:         {}", u.instance.site.method);
            let _ = writeln!(out, "  Position:       {}", u.instance.site.position);
            let _ = writeln!(out, "  Data structure: {}", u.instance.display_type());
            let _ = writeln!(out, "  Use Case:       {}", u.kind);
            let _ = writeln!(out, "  Reason:         {}", u.reason());
            let _ = writeln!(out, "  Action:         {}", u.recommendation());
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("No use cases detected.\n");
        }
        out
    }

    /// Render the misuse advisories (§II-A) as a text section.
    pub fn render_advisories(&self) -> String {
        use std::fmt::Write;
        let advisories = self.all_advisories();
        if advisories.is_empty() {
            return String::new();
        }
        let mut out = String::from("Structural advisories (improper data structure usage):\n");
        for (inst, adv) in advisories {
            let what = match adv {
                Advisory::ListAsTree {
                    tree_hop_share,
                    tree_hops,
                } => format!(
                    "list used as binary tree ({tree_hops} heap-edge hops, {:.0}% of traffic)",
                    tree_hop_share * 100.0
                ),
                Advisory::ListAsMap {
                    search_share,
                    searches,
                } => format!(
                    "list used as lookup table ({searches} linear searches, {:.0}% of events)",
                    search_share * 100.0
                ),
            };
            let _ = writeln!(out, "  {}: {}", inst.instance.site, what);
            let _ = writeln!(out, "    → {}", adv.recommendation());
        }
        out
    }

    /// One-paragraph summary with the headline numbers.
    pub fn summary(&self) -> String {
        format!(
            "{} data structure instances, {} flagged ({} use cases, {} with parallel \
             potential); search space reduction {:.2}%; {} events captured in {:.1} ms.",
            self.instance_count(),
            self.flagged_instance_count(),
            self.all_use_cases().len(),
            self.all_use_cases()
                .iter()
                .filter(|u| u.kind.is_parallel())
                .count(),
            self.search_space_reduction() * 100.0,
            self.stats.events,
            self.session_nanos as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dsspy;
    use dsspy_collections::{site, SpyVec};

    fn sample_report() -> Report {
        Dsspy::new().profile(|session| {
            let mut hot = SpyVec::register(session, site!("hot"));
            for i in 0..500 {
                hot.add(i);
            }
            let mut quiet = SpyVec::register(session, site!("quiet"));
            quiet.add(1);
            let _idle: SpyVec<i32> = SpyVec::register(session, site!("idle"));
        })
    }

    #[test]
    fn reduction_counts_unflagged_instances() {
        let r = sample_report();
        assert_eq!(r.instance_count(), 3);
        assert_eq!(r.flagged_instance_count(), 1);
        assert!((r.search_space_reduction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_table_v_fields() {
        let r = sample_report();
        let text = r.render_use_cases();
        assert!(text.contains("Use Case 1"));
        assert!(text.contains("Class:"));
        assert!(text.contains("Long-Insert"));
        assert!(text.contains("Parallelize the insert operation."));
    }

    #[test]
    fn render_empty_report() {
        let r = Dsspy::new().profile(|_| {});
        assert_eq!(r.render_use_cases(), "No use cases detected.\n");
        assert_eq!(r.search_space_reduction(), 0.0);
    }

    #[test]
    fn summary_mentions_headline_numbers() {
        let r = sample_report();
        let s = r.summary();
        assert!(s.contains("3 data structure instances"));
        assert!(s.contains("1 flagged"));
    }

    #[test]
    fn report_serializes_roundtrip() {
        let r = sample_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.instance_count(), r.instance_count());
        assert_eq!(back.flagged_instance_count(), r.flagged_instance_count());
    }
}

#[cfg(test)]
mod advisory_tests {
    use crate::pipeline::Dsspy;
    use dsspy_collections::{site, SpyVec};
    use dsspy_usecases::Advisory;

    #[test]
    fn heap_on_a_list_raises_the_tree_advisory_end_to_end() {
        let report = Dsspy::new().profile(|session| {
            // A binary max-heap hand-rolled on a list: sift-down walks.
            let mut heap = SpyVec::register(session, site!("homemade_heap"));
            for i in 0..127u64 {
                heap.add((i * 37) % 128);
            }
            for round in 0..40usize {
                let mut i = 0usize;
                loop {
                    let left = 2 * i + 1;
                    let right = 2 * i + 2;
                    if left >= heap.len() {
                        break;
                    }
                    let _ = *heap.get(i);
                    i = if right < heap.len() && (round + i).is_multiple_of(2) {
                        right
                    } else {
                        left
                    };
                }
            }
        });
        let advisories = report.all_advisories();
        assert!(
            advisories
                .iter()
                .any(|(_, a)| matches!(a, Advisory::ListAsTree { .. })),
            "{advisories:?}"
        );
        let text = report.render_advisories();
        assert!(text.contains("binary tree"), "{text}");
        assert!(text.contains("homemade_heap"));
    }

    #[test]
    fn plain_fills_raise_no_advisories() {
        let report = Dsspy::new().profile(|session| {
            let mut l = SpyVec::register(session, site!("plain"));
            for i in 0..500 {
                l.add(i);
            }
        });
        assert!(report.all_advisories().is_empty());
        assert!(report.render_advisories().is_empty());
    }
}
