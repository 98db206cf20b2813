//! The eight access-pattern types of §III-A.

use serde::{Deserialize, Serialize};

/// One of the paper's eight access-pattern types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PatternKind {
    /// Read adjacent elements; access position increases in time.
    ReadForward,
    /// Write adjacent elements; access position increases in time.
    WriteForward,
    /// Read adjacent elements; access position decreases in time.
    ReadBackward,
    /// Write adjacent elements; access position decreases in time.
    WriteBackward,
    /// Adjacent insert operations; always start at the front.
    InsertFront,
    /// Adjacent insert operations; always start from the end.
    InsertBack,
    /// Adjacent delete operations; always start at the front.
    DeleteFront,
    /// Adjacent delete operations; always start from the end.
    DeleteBack,
}

impl PatternKind {
    /// All eight pattern types.
    pub const ALL: [PatternKind; 8] = [
        PatternKind::ReadForward,
        PatternKind::WriteForward,
        PatternKind::ReadBackward,
        PatternKind::WriteBackward,
        PatternKind::InsertFront,
        PatternKind::InsertBack,
        PatternKind::DeleteFront,
        PatternKind::DeleteBack,
    ];

    /// Whether this is one of the two sequential-read pattern types that the
    /// Frequent-Search and Frequent-Long-Read use cases count.
    pub fn is_read(self) -> bool {
        matches!(self, PatternKind::ReadForward | PatternKind::ReadBackward)
    }

    /// Whether this is an insertion pattern (Long-Insert counts these).
    pub fn is_insert(self) -> bool {
        matches!(self, PatternKind::InsertFront | PatternKind::InsertBack)
    }

    /// Whether this is a deletion pattern.
    pub fn is_delete(self) -> bool {
        matches!(self, PatternKind::DeleteFront | PatternKind::DeleteBack)
    }

    /// Whether this is a write pattern (in-place overwrites).
    pub fn is_write(self) -> bool {
        matches!(self, PatternKind::WriteForward | PatternKind::WriteBackward)
    }

    /// The short name used in tables and charts.
    pub fn short(self) -> &'static str {
        match self {
            PatternKind::ReadForward => "RF",
            PatternKind::WriteForward => "WF",
            PatternKind::ReadBackward => "RB",
            PatternKind::WriteBackward => "WB",
            PatternKind::InsertFront => "IF",
            PatternKind::InsertBack => "IB",
            PatternKind::DeleteFront => "DF",
            PatternKind::DeleteBack => "DB",
        }
    }
}

impl std::fmt::Display for PatternKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PatternKind::ReadForward => "Read-Forward",
            PatternKind::WriteForward => "Write-Forward",
            PatternKind::ReadBackward => "Read-Backward",
            PatternKind::WriteBackward => "Write-Backward",
            PatternKind::InsertFront => "Insert-Front",
            PatternKind::InsertBack => "Insert-Back",
            PatternKind::DeleteFront => "Delete-Front",
            PatternKind::DeleteBack => "Delete-Back",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_partition_the_eight_kinds() {
        let mut total = 0;
        for k in PatternKind::ALL {
            let flags = [k.is_read(), k.is_write(), k.is_insert(), k.is_delete()];
            assert_eq!(
                flags.iter().filter(|f| **f).count(),
                1,
                "{k} must belong to exactly one family"
            );
            total += 1;
        }
        assert_eq!(total, 8);
    }

    #[test]
    fn all_is_in_discriminant_order() {
        // `PatternAggregates` indexes its per-kind arrays by discriminant
        // and reports them in `ALL` order.
        for (i, k) in PatternKind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i, "{k}");
        }
    }

    #[test]
    fn short_names_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in PatternKind::ALL {
            assert!(seen.insert(k.short()));
        }
    }

    #[test]
    fn display_matches_paper_naming() {
        assert_eq!(PatternKind::ReadForward.to_string(), "Read-Forward");
        assert_eq!(PatternKind::InsertBack.to_string(), "Insert-Back");
        assert_eq!(PatternKind::DeleteFront.to_string(), "Delete-Front");
    }
}
