//! Runtime-profile charts — the paper's Figs. 2 and 3.
//!
//! Each access event becomes a thin bar on a chronological x-axis; the bar's
//! height is the accessed index, the grey silhouette behind it is the
//! structure length at that moment. Whole-structure events (Sort, Clear, ...)
//! span the full height.
//!
//! Two renderers share one geometry: a plain-text grid for terminals
//! (glyphs carry identity) and a standalone SVG for reports (legend with
//! visible text labels).

use dsspy_events::{AccessKind, RuntimeProfile, Target};

use crate::palette;
use crate::svg::SvgDoc;

/// Maximum number of event columns; longer profiles are downsampled by
/// taking every k-th event (the paper's charts do the same implicitly).
const MAX_COLUMNS: usize = 120;
/// Number of index rows in the text chart grid.
const TEXT_ROWS: usize = 16;

/// Pick at most [`MAX_COLUMNS`] evenly spaced event indices from `0..len`.
fn sample_indices(len: usize) -> Vec<usize> {
    if len <= MAX_COLUMNS {
        return (0..len).collect();
    }
    (0..MAX_COLUMNS).map(|c| c * len / MAX_COLUMNS).collect()
}

/// The plotted y-extent of one event: `(index, span_top)` in element units.
fn event_extent(kind: AccessKind, target: Target, len: u32, max_len: u32) -> (u32, u32) {
    match target {
        Target::Index(i) => (i, i + 1),
        Target::Range { start, end } => (start, end.max(start + 1)),
        Target::Whole => (0, len.max(1)),
        Target::None => (0, 0),
    }
    .clamp_to(max_len.max(1), kind)
}

trait ClampExt {
    fn clamp_to(self, max_len: u32, kind: AccessKind) -> (u32, u32);
}

impl ClampExt for (u32, u32) {
    fn clamp_to(self, max_len: u32, _kind: AccessKind) -> (u32, u32) {
        (self.0.min(max_len), self.1.min(max_len.max(1)))
    }
}

/// Render the profile as a text grid.
///
/// Row 0 (top) is the highest index; `░` marks the structure-length
/// silhouette, event glyphs (`R`, `W`, `I`, `D`, ...) mark accesses. A
/// legend line and a caption with the instance identity follow the grid.
pub fn profile_chart_text(profile: &RuntimeProfile) -> String {
    let cols = sample_indices(profile.len());
    let rows = TEXT_ROWS;
    let max_len = profile.max_len().max(1);
    let mut grid = vec![vec![' '; cols.len()]; rows];

    for (c, &ei) in cols.iter().enumerate() {
        let e = &profile.events[ei];
        // Silhouette: fill rows up to the structure length.
        let len_rows = (u64::from(e.len) * rows as u64).div_ceil(u64::from(max_len)) as usize;
        for row in 0..len_rows.min(rows) {
            grid[rows - 1 - row][c] = '\u{2591}'; // ░
        }
        let (lo, hi) = event_extent(e.kind, e.target, e.len, max_len);
        if hi > lo {
            let glyph = palette::event_glyph(e.kind);
            let lo_row = (u64::from(lo) * rows as u64 / u64::from(max_len)) as usize;
            let hi_row =
                ((u64::from(hi) * rows as u64).div_ceil(u64::from(max_len)) as usize).min(rows);
            for row in lo_row..hi_row.max(lo_row + 1) {
                if row < rows {
                    grid[rows - 1 - row][c] = glyph;
                }
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Runtime profile of {} ({}) — {} events, max size {}\n",
        profile.instance.site,
        profile.instance.display_type(),
        profile.len(),
        profile.max_len()
    ));
    for row in &grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(grid.first().map_or(0, |r| r.len())));
    out.push_str("> time\n");
    out.push_str(
        "legend: R read  W write  I insert  D delete  s search  c clear  o sort  \
         v reverse  y copy  f forall  z resize  \u{2591} structure length\n",
    );
    out
}

/// Render the profile as a standalone SVG chart (the Fig. 2/3 form).
pub fn profile_chart_svg(profile: &RuntimeProfile) -> String {
    const MARGIN_L: f64 = 46.0;
    const MARGIN_R: f64 = 12.0;
    const MARGIN_T: f64 = 34.0;
    const MARGIN_B: f64 = 54.0;
    const PLOT_H: f64 = 220.0;

    let cols = sample_indices(profile.len());
    let n = cols.len().max(1);
    let bar_w: f64 = (760.0 / n as f64).clamp(2.0, 14.0);
    let gap = if bar_w >= 4.0 { 2.0 } else { 0.5 };
    let plot_w = n as f64 * bar_w;
    let width = (MARGIN_L + plot_w + MARGIN_R).ceil() as u32;
    let height = (MARGIN_T + PLOT_H + MARGIN_B).ceil() as u32;
    let max_len = f64::from(profile.max_len().max(1));

    let mut doc = SvgDoc::new(width, height, palette::SURFACE);
    // Title and axis captions in text ink.
    doc.text(
        MARGIN_L,
        20.0,
        13.0,
        palette::TEXT_PRIMARY,
        "start",
        &format!(
            "Runtime profile — {} ({})",
            profile.instance.site,
            profile.instance.display_type()
        ),
    );
    // Recessive y-grid: quarter lines.
    for q in 0..=4u32 {
        let y = MARGIN_T + PLOT_H * f64::from(q) / 4.0;
        doc.line(MARGIN_L, y, MARGIN_L + plot_w, y, "#ecebe8", 1.0);
        let label = (max_len * f64::from(4 - q) / 4.0).round();
        doc.text(
            MARGIN_L - 6.0,
            y + 4.0,
            10.0,
            palette::TEXT_SECONDARY,
            "end",
            &format!("{label}"),
        );
    }

    // Bars: silhouette first (backdrop), then the event mark.
    for (c, &ei) in cols.iter().enumerate() {
        let e = &profile.events[ei];
        let x = MARGIN_L + c as f64 * bar_w;
        let w = (bar_w - gap).max(0.8);
        let len_h = PLOT_H * f64::from(e.len) / max_len;
        if len_h > 0.0 {
            doc.rect(
                x,
                MARGIN_T + PLOT_H - len_h,
                w,
                len_h,
                palette::BACKDROP,
                None,
            );
        }
        let (lo, hi) = event_extent(e.kind, e.target, e.len, profile.max_len().max(1));
        if hi > lo {
            let y_lo = PLOT_H * f64::from(lo) / max_len;
            let y_hi = PLOT_H * f64::from(hi) / max_len;
            let h = (y_hi - y_lo).max(3.0);
            doc.rect(
                x,
                MARGIN_T + PLOT_H - y_lo - h,
                w,
                h,
                palette::event_color(e.kind),
                Some(1.5),
            );
        }
    }

    // Baseline axis.
    doc.line(
        MARGIN_L,
        MARGIN_T + PLOT_H,
        MARGIN_L + plot_w,
        MARGIN_T + PLOT_H,
        palette::TEXT_SECONDARY,
        1.0,
    );
    doc.text(
        MARGIN_L + plot_w / 2.0,
        MARGIN_T + PLOT_H + 16.0,
        10.0,
        palette::TEXT_SECONDARY,
        "middle",
        &format!(
            "access events in chronological order (n = {})",
            profile.len()
        ),
    );

    // Legend: swatch + visible text label per series (relief rule).
    let legend = [
        ("read", palette::READ),
        ("write", palette::WRITE),
        ("insert", palette::INSERT),
        ("delete", palette::DELETE),
        ("compound", palette::COMPOUND),
        ("size", palette::BACKDROP),
    ];
    let mut lx = MARGIN_L;
    let ly = MARGIN_T + PLOT_H + 34.0;
    for (name, color) in legend {
        doc.rect(lx, ly - 8.0, 10.0, 10.0, color, Some(2.0));
        doc.text(lx + 14.0, ly, 10.0, palette::TEXT_PRIMARY, "start", name);
        lx += 14.0 + 7.0 * name.len() as f64 + 18.0;
    }

    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::{AccessEvent, AllocationSite, DsKind, InstanceId, InstanceInfo};

    fn fig2_profile() -> RuntimeProfile {
        // The paper's Fig. 2 snippet: fill 0..10, read back 9..0.
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..10u32 {
            events.push(AccessEvent::at(seq, AccessKind::Insert, i, i + 1));
            seq += 1;
        }
        for i in (0..10u32).rev() {
            events.push(AccessEvent::at(seq, AccessKind::Read, i, 10));
            seq += 1;
        }
        RuntimeProfile::new(
            InstanceInfo::new(
                InstanceId(0),
                AllocationSite::new("Fig2", "main", 1),
                DsKind::List,
                "i32",
            ),
            events,
        )
    }

    #[test]
    fn text_chart_contains_glyphs_and_legend() {
        let chart = profile_chart_text(&fig2_profile());
        assert!(chart.contains('I'), "insert glyphs present:\n{chart}");
        assert!(chart.contains('R'), "read glyphs present");
        assert!(chart.contains('\u{2591}'), "silhouette present");
        assert!(chart.contains("legend:"));
        assert!(chart.contains("20 events"));
    }

    #[test]
    fn text_chart_downsamples_long_profiles() {
        let mut events = Vec::new();
        for i in 0..10_000u32 {
            events.push(AccessEvent::at(u64::from(i), AccessKind::Insert, i, i + 1));
        }
        let p = RuntimeProfile::new(fig2_profile().instance, events);
        let chart = profile_chart_text(&p);
        let grid_line = chart.lines().nth(1).unwrap();
        assert_eq!(
            grid_line.chars().count(),
            MAX_COLUMNS + 1,
            "MAX_COLUMNS columns plus border: {grid_line:?}"
        );
        assert!(!chart.contains("\x1b["), "no ANSI escapes");
    }

    #[test]
    fn svg_chart_structure() {
        let svg = profile_chart_svg(&fig2_profile());
        assert!(svg.starts_with("<svg"));
        // 1 surface + 4 grid-ish + 20 backdrops + 20 marks + 6 legend swatches:
        // count rects loosely.
        let rects = svg.matches("<rect").count();
        assert!(rects >= 1 + 20 + 20 + 6, "expected many rects, got {rects}");
        assert!(svg.contains("read"), "legend labels present");
        assert!(svg.contains(palette::READ));
        assert!(svg.contains(palette::INSERT));
        assert!(svg.contains("chronological order"));
    }

    #[test]
    fn empty_profile_renders_without_panic() {
        let p = RuntimeProfile::new(fig2_profile().instance, vec![]);
        let text = profile_chart_text(&p);
        assert!(text.contains("0 events"));
        let svg = profile_chart_svg(&p);
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn whole_structure_events_span_full_height() {
        let mut events = Vec::new();
        for i in 0..5u32 {
            events.push(AccessEvent::at(u64::from(i), AccessKind::Insert, i, i + 1));
        }
        events.push(AccessEvent::whole(5, AccessKind::Sort, 5));
        let p = RuntimeProfile::new(fig2_profile().instance, events);
        let text = profile_chart_text(&p);
        // The sort column is a full column of 'o' glyphs inside the grid
        // (grid rows start with '|'); the legend/title 'o's don't count.
        let sorts: usize = text
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.matches('o').count())
            .sum();
        assert!(sorts >= TEXT_ROWS, "sort spans all rows: {text}");
    }
}
