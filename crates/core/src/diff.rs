//! Report diffing: compare two DSspy reports across a refactoring.
//!
//! The paper's intended workflow is iterative — detect, parallelize, run
//! again (§VIII points at integrating DSspy into the refactoring process of
//! \[22\]). A diff of the before/after reports shows whether the flagged
//! locations actually went away and whether the change introduced new ones.

use serde::{Deserialize, Serialize};

use dsspy_events::AllocationSite;
use dsspy_usecases::UseCaseKind;

use crate::report::Report;

/// One (site, category) detection key.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DetectionKey {
    /// Where the instance was declared.
    pub site: AllocationSite,
    /// Which category fired.
    pub kind: UseCaseKind,
}

/// The difference between two reports.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReportDiff {
    /// Detections present in `after` but not `before` (regressions).
    pub introduced: Vec<DetectionKey>,
    /// Detections present in `before` but not `after` (fixed).
    pub resolved: Vec<DetectionKey>,
    /// Detections present in both (still open).
    pub unchanged: Vec<DetectionKey>,
    /// Instance-count change (`after - before`).
    pub instance_delta: isize,
}

impl ReportDiff {
    /// Render a short human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} resolved, {} introduced, {} unchanged ({:+} instances)",
            self.resolved.len(),
            self.introduced.len(),
            self.unchanged.len(),
            self.instance_delta
        )
    }
}

fn keys_of(report: &Report) -> Vec<DetectionKey> {
    report
        .all_use_cases()
        .iter()
        .map(|u| DetectionKey {
            site: u.instance.site.clone(),
            kind: u.kind,
        })
        .collect()
}

/// Diff two reports by (allocation site, category) keys.
///
/// Sites are the stable identity across runs — instance ids are
/// session-local. Multiset semantics: a site firing the same category twice
/// in `before` and once in `after` yields one resolved and one unchanged.
pub fn diff_reports(before: &Report, after: &Report) -> ReportDiff {
    let before_keys = keys_of(before);
    let mut after_keys = keys_of(after);

    let mut resolved = Vec::new();
    let mut unchanged = Vec::new();
    for key in before_keys {
        if let Some(pos) = after_keys.iter().position(|k| *k == key) {
            after_keys.remove(pos);
            unchanged.push(key);
        } else {
            resolved.push(key);
        }
    }
    ReportDiff {
        introduced: after_keys,
        resolved,
        unchanged,
        instance_delta: after.instance_count() as isize - before.instance_count() as isize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dsspy;
    use dsspy_collections::{site, SpyVec};

    fn report_with_hot_list(hot: bool) -> Report {
        Dsspy::new().profile(|session| {
            let mut l = SpyVec::register(
                session,
                dsspy_events::AllocationSite::new("App", "load", 10),
            );
            let n = if hot { 500 } else { 10 };
            for i in 0..n {
                l.add(i);
            }
            let mut other = SpyVec::register(session, site!("other"));
            other.add(1);
        })
    }

    #[test]
    fn fixing_a_hot_spot_shows_as_resolved() {
        let before = report_with_hot_list(true);
        let after = report_with_hot_list(false);
        let diff = diff_reports(&before, &after);
        assert_eq!(diff.resolved.len(), 1);
        assert_eq!(diff.resolved[0].kind, UseCaseKind::LongInsert);
        assert!(diff.introduced.is_empty());
        assert!(diff.unchanged.is_empty());
        assert!(diff.summary().contains("1 resolved"));
    }

    #[test]
    fn regression_shows_as_introduced() {
        let before = report_with_hot_list(false);
        let after = report_with_hot_list(true);
        let diff = diff_reports(&before, &after);
        assert_eq!(diff.introduced.len(), 1);
    }

    #[test]
    fn identical_reports_diff_to_unchanged() {
        let a = report_with_hot_list(true);
        let b = report_with_hot_list(true);
        let diff = diff_reports(&a, &b);
        assert!(diff.resolved.is_empty());
        assert!(diff.introduced.is_empty());
        assert_eq!(diff.unchanged.len(), 1);
        assert_eq!(diff.instance_delta, 0);
    }

    #[test]
    fn instance_delta_tracks_structure_count() {
        let before = report_with_hot_list(false);
        let after = Dsspy::new().profile(|session| {
            let _a: SpyVec<i32> = SpyVec::register(session, site!("a"));
            let _b: SpyVec<i32> = SpyVec::register(session, site!("b"));
            let _c: SpyVec<i32> = SpyVec::register(session, site!("c"));
        });
        let diff = diff_reports(&before, &after);
        assert_eq!(diff.instance_delta, 1);
    }
}
