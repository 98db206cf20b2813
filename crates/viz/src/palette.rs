//! The validated chart palette.
//!
//! Colors follow the entity (access class / data-structure kind), never its
//! rank, and every set below passed the categorical checks (lightness band,
//! chroma floor, adjacent-pair CVD ΔE ≥ 12, contrast) against the light
//! surface `#fcfcfb`. Slots with sub-3:1 surface contrast (aqua, yellow) are
//! legal because every chart ships visible text labels and a table twin.

use dsspy_events::{AccessKind, DsKind};

/// Chart surface (light mode).
pub const SURFACE: &str = "#fcfcfb";
/// Primary text ink.
pub const TEXT_PRIMARY: &str = "#0b0b0b";
/// Secondary text ink (axis labels, captions).
pub const TEXT_SECONDARY: &str = "#52514e";
/// Neutral backdrop for the structure-length silhouette (the grey bars of
/// the paper's Figs. 2/3). Neutral by design — it is context, not a series.
pub const BACKDROP: &str = "#dededa";

/// Series color for read accesses (blue, slot 1).
pub const READ: &str = "#2a78d6";
/// Series color for in-place writes (orange, slot 8).
pub const WRITE: &str = "#eb6834";
/// Series color for inserts (aqua, slot 2 — relief rule applies).
pub const INSERT: &str = "#1baf7a";
/// Series color for deletes (violet, slot 5).
pub const DELETE: &str = "#4a3aa7";
/// Series color for compound whole-structure events (red, slot 6).
pub const COMPOUND: &str = "#e34948";

/// The fixed-order categorical palette for data-structure kinds in the
/// occurrence chart (Fig. 1): List, Dictionary, ArrayList, Stack, Queue,
/// Rest. Fixed order is the CVD-safety mechanism — never reassign on filter.
pub const KIND_SERIES: [(&str, &str); 6] = [
    ("List", "#2a78d6"),
    ("Dictionary", "#1baf7a"),
    ("ArrayList", "#eda100"),
    ("Stack", "#008300"),
    ("Queue", "#4a3aa7"),
    ("Rest", "#e34948"),
];

/// The series color for one access kind in a profile chart.
pub fn event_color(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => READ,
        AccessKind::Write => WRITE,
        AccessKind::Insert => INSERT,
        AccessKind::Delete => DELETE,
        _ => COMPOUND,
    }
}

/// The single-letter glyph for one access kind — the terminal chart's
/// primary (color-independent) identity encoding.
pub fn event_glyph(kind: AccessKind) -> char {
    match kind {
        AccessKind::Read => 'R',
        AccessKind::Write => 'W',
        AccessKind::Insert => 'I',
        AccessKind::Delete => 'D',
        AccessKind::Search => 's',
        AccessKind::Clear => 'c',
        AccessKind::Sort => 'o',
        AccessKind::Reverse => 'v',
        AccessKind::Copy => 'y',
        AccessKind::ForAll => 'f',
        AccessKind::Resize => 'z',
    }
}

/// The occurrence-chart slot (name, color) for a data-structure kind;
/// infrequent kinds fold into the fixed "Rest" slot, exactly as the paper's
/// Fig. 1 folds sub-2 % kinds.
pub fn kind_slot(kind: DsKind) -> (&'static str, &'static str) {
    match kind {
        DsKind::List => KIND_SERIES[0],
        DsKind::Dictionary => KIND_SERIES[1],
        DsKind::ArrayList => KIND_SERIES[2],
        DsKind::Stack => KIND_SERIES[3],
        DsKind::Queue => KIND_SERIES[4],
        _ => KIND_SERIES[5],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in AccessKind::ALL {
            assert!(seen.insert(event_glyph(k)), "duplicate glyph for {k}");
        }
    }

    #[test]
    fn positional_kinds_have_distinct_series_colors() {
        let colors = [
            event_color(AccessKind::Read),
            event_color(AccessKind::Write),
            event_color(AccessKind::Insert),
            event_color(AccessKind::Delete),
        ];
        let set: std::collections::HashSet<_> = colors.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn kind_slots_fold_rare_kinds_into_rest() {
        assert_eq!(kind_slot(DsKind::List).0, "List");
        assert_eq!(kind_slot(DsKind::HashSet).0, "Rest");
        assert_eq!(kind_slot(DsKind::LinkedList).0, "Rest");
        assert_eq!(kind_slot(DsKind::Array).0, "Rest");
    }

    #[test]
    fn series_hexes_are_well_formed() {
        for (_, c) in KIND_SERIES {
            assert!(c.starts_with('#') && c.len() == 7);
        }
        for k in AccessKind::ALL {
            let c = event_color(k);
            assert!(c.starts_with('#') && c.len() == 7);
        }
    }
}
