//! Pattern statistics: distribution summaries over mined instances.
//!
//! The study's exploration phase (§III-A) worked from aggregate views of
//! the mined patterns — how often each kind recurs, how long runs are, how
//! much of the structure they cover. This module computes those summaries
//! for reports and for the Table II-style "regularities per program"
//! rollups.

use serde::{Deserialize, Serialize};

use crate::kind::PatternKind;
use crate::run::PatternInstance;

/// Five-number-ish summary of a sample of usize values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Smallest value.
    pub min: usize,
    /// Largest value.
    pub max: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower of the two middles for even sizes).
    pub median: usize,
}

impl Summary {
    /// Summarize a sample (empty samples yield all zeros).
    pub fn of(mut values: Vec<usize>) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        values.sort_unstable();
        let count = values.len();
        Summary {
            count,
            min: values[0],
            max: values[count - 1],
            mean: values.iter().sum::<usize>() as f64 / count as f64,
            median: values[(count - 1) / 2],
        }
    }
}

/// Per-kind statistics over one profile's mined patterns.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PatternStats {
    /// Instance counts per kind, in [`PatternKind::ALL`] order.
    pub counts: [usize; 8],
    /// Run-length summary per kind.
    pub lengths: [Summary; 8],
    /// Mean coverage per kind, in `[0, 1]`.
    pub mean_coverage: [f64; 8],
}

impl PatternStats {
    /// Compute statistics from mined instances.
    pub fn of(patterns: &[PatternInstance]) -> PatternStats {
        let mut stats = PatternStats::default();
        for (slot, kind) in PatternKind::ALL.into_iter().enumerate() {
            let of_kind: Vec<&PatternInstance> =
                patterns.iter().filter(|p| p.kind == kind).collect();
            stats.counts[slot] = of_kind.len();
            stats.lengths[slot] = Summary::of(of_kind.iter().map(|p| p.len).collect());
            if !of_kind.is_empty() {
                stats.mean_coverage[slot] =
                    of_kind.iter().map(|p| p.coverage()).sum::<f64>() / of_kind.len() as f64;
            }
        }
        stats
    }

    /// Stats of one kind as `(count, length summary, mean coverage)`.
    pub fn kind(&self, kind: PatternKind) -> (usize, Summary, f64) {
        let slot = PatternKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("all kinds present");
        (
            self.counts[slot],
            self.lengths[slot],
            self.mean_coverage[slot],
        )
    }

    /// Total pattern instances across kinds.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Render an aligned text table (kinds with zero instances omitted).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>8} {:>8} {:>8} {:>8} {:>9}",
            "pattern", "count", "min len", "median", "mean", "max len", "coverage"
        );
        for (slot, kind) in PatternKind::ALL.into_iter().enumerate() {
            if self.counts[slot] == 0 {
                continue;
            }
            let s = self.lengths[slot];
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>8} {:>8} {:>8.1} {:>8} {:>8.0}%",
                kind.to_string(),
                self.counts[slot],
                s.min,
                s.median,
                s.mean,
                s.max,
                self.mean_coverage[slot] * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::ThreadTag;

    fn instance(kind: PatternKind, len: usize, max_struct_len: u32) -> PatternInstance {
        PatternInstance {
            kind,
            thread: ThreadTag::MAIN,
            first_seq: 0,
            last_seq: len as u64,
            len,
            lo: 0,
            hi: len as u32,
            max_struct_len,
        }
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(vec![5, 1, 9, 3]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert_eq!(s.median, 3, "lower middle for even sizes");
        assert!((s.mean - 4.5).abs() < 1e-12);
        assert_eq!(Summary::of(vec![]), Summary::default());
        let one = Summary::of(vec![7]);
        assert_eq!((one.min, one.median, one.max), (7, 7, 7));
    }

    #[test]
    fn stats_group_by_kind() {
        let patterns = vec![
            instance(PatternKind::ReadForward, 10, 10),
            instance(PatternKind::ReadForward, 20, 40),
            instance(PatternKind::InsertBack, 100, 100),
        ];
        let stats = PatternStats::of(&patterns);
        assert_eq!(stats.total(), 3);
        let (n, lens, cov) = stats.kind(PatternKind::ReadForward);
        assert_eq!(n, 2);
        assert_eq!(lens.min, 10);
        assert_eq!(lens.max, 20);
        assert!((cov - 0.75).abs() < 1e-12, "mean of 1.0 and 0.5");
        let (ib, _, _) = stats.kind(PatternKind::InsertBack);
        assert_eq!(ib, 1);
        let (none, _, _) = stats.kind(PatternKind::DeleteFront);
        assert_eq!(none, 0);
    }

    #[test]
    fn render_omits_empty_kinds() {
        let stats = PatternStats::of(&[instance(PatternKind::WriteBackward, 5, 10)]);
        let text = stats.render();
        assert!(text.contains("Write-Backward"));
        assert!(!text.contains("Read-Forward"));
    }

    #[test]
    fn empty_pattern_set() {
        let stats = PatternStats::of(&[]);
        assert_eq!(stats.total(), 0);
        assert!(stats.render().lines().count() == 1, "header only");
    }
}
