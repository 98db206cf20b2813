//! Pattern and phase timelines: *what* the miner found, drawn over *when*.
//!
//! The profile charts (Figs. 2/3) show raw events; this view shows the
//! analysis output — each mined pattern instance as a horizontal span on
//! the sequence axis, grouped by pattern kind, with the segmented phases as
//! a band underneath. It is the visual explanation of why a use case fired.

use dsspy_events::RuntimeProfile;
use dsspy_patterns::{PatternInstance, PatternKind, Phase, PhaseKind};

use crate::palette;
use crate::svg::SvgDoc;

/// The series color for one pattern kind.
fn pattern_color(kind: PatternKind) -> &'static str {
    match kind {
        PatternKind::ReadForward | PatternKind::ReadBackward => palette::READ,
        PatternKind::WriteForward | PatternKind::WriteBackward => palette::WRITE,
        PatternKind::InsertFront | PatternKind::InsertBack => palette::INSERT,
        PatternKind::DeleteFront | PatternKind::DeleteBack => palette::DELETE,
    }
}

/// The backdrop tint for one phase kind (light neutrals; identity comes
/// from the row label, not color alone).
fn phase_color(kind: PhaseKind) -> &'static str {
    match kind {
        PhaseKind::Growth => "#d8ece3",
        PhaseKind::Scan => "#dbe7f6",
        PhaseKind::Mutation => "#f7e3d8",
        PhaseKind::Maintenance => "#f2dede",
        PhaseKind::Mixed => "#eceae5",
    }
}

/// Render the pattern/phase timeline as a text chart: one row per pattern
/// kind that occurs, spans drawn with `═`, plus a phase band.
pub fn timeline_text(
    profile: &RuntimeProfile,
    patterns: &[PatternInstance],
    phases: &[Phase],
    width: usize,
) -> String {
    let width = width.clamp(20, 240);
    let max_seq = profile.events.last().map(|e| e.seq).unwrap_or(0).max(1);
    let col = |seq: u64| ((seq as u128 * (width as u128 - 1)) / max_seq as u128) as usize;

    let mut out = format!(
        "Pattern timeline — {} ({} events, {} patterns, {} phases)\n",
        profile.instance.site,
        profile.len(),
        patterns.len(),
        phases.len()
    );
    for kind in PatternKind::ALL {
        let spans: Vec<&PatternInstance> = patterns.iter().filter(|p| p.kind == kind).collect();
        if spans.is_empty() {
            continue;
        }
        let mut row = vec![' '; width];
        for span in &spans {
            let (a, b) = (col(span.first_seq), col(span.last_seq));
            for cell in row.iter_mut().take(b + 1).skip(a) {
                *cell = '\u{2550}'; // ═
            }
        }
        out.push_str(&format!("{:<14} |", kind.to_string()));
        out.extend(row);
        out.push_str(&format!("| ×{}\n", spans.len()));
    }
    if !phases.is_empty() {
        let mut row = vec![' '; width];
        for phase in phases {
            let (a, b) = (col(phase.first_seq), col(phase.last_seq));
            let glyph = match phase.kind {
                PhaseKind::Growth => 'G',
                PhaseKind::Scan => 'S',
                PhaseKind::Mutation => 'M',
                PhaseKind::Maintenance => 'm',
                PhaseKind::Mixed => '·',
            };
            for cell in row.iter_mut().take(b + 1).skip(a) {
                *cell = glyph;
            }
        }
        out.push_str(&format!("{:<14} |", "phases"));
        out.extend(row);
        out.push_str("|\n");
        out.push_str("phase legend: G growth  S scan  M mutation  m maintenance  · mixed\n");
    }
    out
}

/// Render the timeline as SVG: phase band at the bottom, one lane per
/// pattern kind above it, a legend with text labels.
pub fn timeline_svg(
    profile: &RuntimeProfile,
    patterns: &[PatternInstance],
    phases: &[Phase],
) -> String {
    const MARGIN_L: f64 = 110.0;
    const MARGIN_R: f64 = 12.0;
    const MARGIN_T: f64 = 34.0;
    const LANE_H: f64 = 18.0;
    const PLOT_W: f64 = 680.0;

    let kinds: Vec<PatternKind> = PatternKind::ALL
        .into_iter()
        .filter(|k| patterns.iter().any(|p| p.kind == *k))
        .collect();
    let lanes = kinds.len().max(1) + usize::from(!phases.is_empty());
    let height = (MARGIN_T + lanes as f64 * (LANE_H + 6.0) + 30.0).ceil() as u32;
    let width = (MARGIN_L + PLOT_W + MARGIN_R).ceil() as u32;
    let max_seq = profile.events.last().map(|e| e.seq).unwrap_or(0).max(1) as f64;
    let x_of = |seq: u64| MARGIN_L + PLOT_W * seq as f64 / max_seq;

    let mut doc = SvgDoc::new(width, height, palette::SURFACE);
    doc.text(
        MARGIN_L,
        20.0,
        13.0,
        palette::TEXT_PRIMARY,
        "start",
        &format!("Pattern timeline — {}", profile.instance.site),
    );

    let mut y = MARGIN_T;
    for kind in &kinds {
        doc.text(
            MARGIN_L - 8.0,
            y + LANE_H - 5.0,
            10.0,
            palette::TEXT_PRIMARY,
            "end",
            &kind.to_string(),
        );
        for span in patterns.iter().filter(|p| p.kind == *kind) {
            let x0 = x_of(span.first_seq);
            let x1 = x_of(span.last_seq).max(x0 + 2.0);
            doc.rect(
                x0,
                y,
                x1 - x0,
                LANE_H - 4.0,
                pattern_color(*kind),
                Some(2.0),
            );
        }
        y += LANE_H + 6.0;
    }
    if !phases.is_empty() {
        doc.text(
            MARGIN_L - 8.0,
            y + LANE_H - 5.0,
            10.0,
            palette::TEXT_SECONDARY,
            "end",
            "phases",
        );
        for phase in phases {
            let x0 = x_of(phase.first_seq);
            let x1 = x_of(phase.last_seq).max(x0 + 2.0);
            doc.rect(x0, y, x1 - x0, LANE_H - 4.0, phase_color(phase.kind), None);
            if x1 - x0 > 40.0 {
                doc.text(
                    (x0 + x1) / 2.0,
                    y + LANE_H - 7.0,
                    8.0,
                    palette::TEXT_SECONDARY,
                    "middle",
                    &phase.kind.to_string(),
                );
            }
        }
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_patterns::{analyze, segment_phases, MinerConfig};
    use dsspy_workloads_testsupport::*;

    // A local mini trace builder to avoid a dev-dependency cycle.
    mod dsspy_workloads_testsupport {
        use dsspy_events::*;

        pub fn fill_scan_profile() -> RuntimeProfile {
            let mut events = Vec::new();
            let mut seq = 0u64;
            for _ in 0..3 {
                for i in 0..50u32 {
                    events.push(AccessEvent::at(seq, AccessKind::Insert, i, i + 1));
                    seq += 1;
                }
                for i in 0..50u32 {
                    events.push(AccessEvent::at(seq, AccessKind::Read, i, 50));
                    seq += 1;
                }
                events.push(AccessEvent::whole(seq, AccessKind::Clear, 50));
                seq += 1;
            }
            RuntimeProfile::new(
                InstanceInfo::new(
                    InstanceId(0),
                    AllocationSite::new("Viz", "timeline", 1),
                    DsKind::List,
                    "i32",
                ),
                events,
            )
        }
    }

    #[test]
    fn text_timeline_shows_lanes_and_counts() {
        let profile = fill_scan_profile();
        let analysis = analyze(&profile, &MinerConfig::default());
        let phases = segment_phases(&profile);
        let text = timeline_text(&profile, &analysis.patterns, &phases, 100);
        assert!(text.contains("Insert-Back"), "{text}");
        assert!(text.contains("Read-Forward"));
        assert!(text.contains("×3"), "three spans per kind:\n{text}");
        assert!(text.contains("phases"));
        assert!(text.contains('G') && text.contains('S'));
    }

    #[test]
    fn svg_timeline_has_lanes_and_legend_labels() {
        let profile = fill_scan_profile();
        let analysis = analyze(&profile, &MinerConfig::default());
        let phases = segment_phases(&profile);
        let svg = timeline_svg(&profile, &analysis.patterns, &phases);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("Insert-Back"));
        assert!(svg.contains("Read-Forward"));
        assert!(svg.contains(palette::INSERT));
        assert!(svg.contains(palette::READ));
    }

    #[test]
    fn empty_profile_timelines_render() {
        let profile = dsspy_events::RuntimeProfile::new(
            dsspy_events::InstanceInfo::new(
                dsspy_events::InstanceId(0),
                dsspy_events::AllocationSite::new("V", "e", 1),
                dsspy_events::DsKind::List,
                "i32",
            ),
            vec![],
        );
        let text = timeline_text(&profile, &[], &[], 80);
        assert!(text.contains("0 events"));
        let svg = timeline_svg(&profile, &[], &[]);
        assert!(svg.starts_with("<svg"));
    }
}
