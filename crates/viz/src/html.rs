//! Self-contained HTML report export.
//!
//! The paper's fourth trust pillar is visualization: DSspy "visualizes the
//! runtime profiles" alongside locations, reasons and recommendations (§I).
//! This module bundles everything into one shareable HTML file: the summary,
//! the Table-V-style use-case listing with evidence, and an embedded SVG
//! profile chart plus pattern timeline per flagged instance.
//!
//! The document is static (no scripts); charts are inline SVG so the file
//! has no external dependencies. Colors come from the validated palette and
//! all identity is carried by text labels, not color alone.

use dsspy_core::Report;
use dsspy_events::{size_series, RuntimeProfile};
use dsspy_patterns::segment_phases;

use crate::palette;
use crate::profile_chart::profile_chart_svg;
use crate::svg::escape;
use crate::timeline::timeline_svg;

/// Render a full report (plus the raw profiles for charting) into one
/// self-contained HTML document.
///
/// `profiles` must be the capture's profiles (the report alone does not
/// carry raw events); instances are matched by id. Instances without a
/// matching profile get their textual section only.
pub fn html_report(report: &Report, profiles: &[RuntimeProfile]) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str(&format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>DSspy report</title>\n<style>\n\
         body {{ font-family: system-ui, sans-serif; background: {surface}; \
                color: {ink}; max-width: 960px; margin: 2rem auto; padding: 0 1rem; }}\n\
         h1, h2, h3 {{ font-weight: 600; }}\n\
         .summary {{ color: {muted}; }}\n\
         .case {{ border: 1px solid #e4e2dd; border-radius: 8px; padding: 1rem; \
                  margin: 1rem 0; }}\n\
         .case dt {{ font-weight: 600; color: {muted}; float: left; width: 9.5rem; clear: left; }}\n\
         .case dd {{ margin-left: 10rem; }}\n\
         .action {{ background: #f3f1ec; border-radius: 6px; padding: .6rem .8rem; }}\n\
         .evidence li {{ color: {muted}; }}\n\
         figure {{ margin: 1rem 0; overflow-x: auto; }}\n\
         figcaption {{ color: {muted}; font-size: .85rem; }}\n\
         table {{ border-collapse: collapse; }}\n\
         td, th {{ padding: .25rem .75rem; border-bottom: 1px solid #e4e2dd; text-align: left; }}\n\
         </style></head><body>\n",
        surface = palette::SURFACE,
        ink = palette::TEXT_PRIMARY,
        muted = palette::TEXT_SECONDARY,
    ));

    out.push_str("<h1>DSspy report</h1>\n");
    out.push_str(&format!(
        "<p class=\"summary\">{}</p>\n",
        escape(&report.summary())
    ));

    // Instance overview table (the search space at a glance).
    out.push_str(
        "<h2>Instances</h2>\n<table><tr><th>#</th><th>Site</th><th>Type</th>\
         <th>Events</th><th>Size over time</th><th>Use cases</th></tr>\n",
    );
    for (i, inst) in report.instances.iter().enumerate() {
        let cases: Vec<String> = inst.use_cases.iter().map(|u| u.kind.to_string()).collect();
        let spark = profiles
            .iter()
            .find(|p| p.instance.id == inst.instance.id)
            .map(|p| size_series(p, 24).sparkline())
            .unwrap_or_default();
        out.push_str(&format!(
            "<tr><td>{i}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td aria-label=\"size evolution\">{}</td><td>{}</td></tr>\n",
            escape(&inst.instance.site.to_string()),
            escape(&inst.instance.display_type()),
            inst.events,
            escape(&spark),
            escape(&if cases.is_empty() {
                "—".to_string()
            } else {
                cases.join(", ")
            }),
        ));
    }
    out.push_str("</table>\n");

    // Per-use-case sections with charts.
    out.push_str("<h2>Use cases</h2>\n");
    let cases = report.all_use_cases();
    if cases.is_empty() {
        out.push_str("<p>No use cases detected.</p>\n");
    }
    for (n, uc) in cases.iter().enumerate() {
        out.push_str(&format!(
            "<div class=\"case\"><h3>Use case {}</h3>\n<dl>",
            n + 1
        ));
        out.push_str(&format!(
            "<dt>Class</dt><dd>{}</dd><dt>Method</dt><dd>{}</dd>\
             <dt>Position</dt><dd>{}</dd><dt>Data structure</dt><dd>{}</dd>\
             <dt>Use case</dt><dd>{}</dd>",
            escape(&uc.instance.site.class),
            escape(&uc.instance.site.method),
            uc.instance.site.position,
            escape(&uc.instance.display_type()),
            uc.kind,
        ));
        out.push_str("</dl>\n<ul class=\"evidence\">");
        for e in &uc.evidence {
            out.push_str(&format!("<li>{}</li>", escape(&e.to_string())));
        }
        out.push_str("</ul>\n");
        out.push_str(&format!(
            "<p class=\"action\"><strong>Recommended action:</strong> {}</p>\n",
            escape(uc.recommendation())
        ));
        out.push_str("</div>\n");
    }

    // Charts for every flagged instance (deduplicated).
    out.push_str("<h2>Profiles of flagged instances</h2>\n");
    let mut charted = std::collections::HashSet::new();
    for inst in report.instances.iter().filter(|i| i.is_flagged()) {
        if !charted.insert(inst.instance.id) {
            continue;
        }
        let Some(profile) = profiles.iter().find(|p| p.instance.id == inst.instance.id) else {
            continue;
        };
        let chart = profile_chart_svg(profile);
        let phases = segment_phases(profile);
        let timeline = timeline_svg(profile, &inst.analysis.patterns, &phases);
        out.push_str(&format!(
            "<figure>{chart}<figcaption>Runtime profile — {}</figcaption></figure>\n\
             <figure>{timeline}<figcaption>Mined patterns and phases</figcaption></figure>\n",
            escape(&profile.instance.site.to_string())
        ));
    }

    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_collect::Session;
    use dsspy_collections::{site, SpyVec};
    use dsspy_core::Dsspy;

    fn report_and_profiles() -> (Report, Vec<RuntimeProfile>) {
        let session = Session::new();
        {
            let mut hot = SpyVec::register(&session, site!("hot"));
            for i in 0..300 {
                hot.add(i);
            }
            let mut quiet = SpyVec::register(&session, site!("quiet"));
            quiet.add(1);
        }
        let capture = session.finish();
        let report = Dsspy::new().analyze_capture(&capture);
        (report, capture.profiles.into_vec())
    }

    #[test]
    fn html_contains_all_sections() {
        let (report, profiles) = report_and_profiles();
        let html = html_report(&report, &profiles);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h2>Instances</h2>"));
        assert!(html.contains("Use case 1"));
        assert!(html.contains("Long-Insert"));
        assert!(html.contains("Recommended action:"));
        assert!(html.contains("<svg"), "embedded charts");
        assert!(html.ends_with("</body></html>\n"));
    }

    #[test]
    fn html_escapes_type_names() {
        let (report, profiles) = report_and_profiles();
        let html = html_report(&report, &profiles);
        assert!(html.contains("List&lt;i32&gt;"), "generics escaped");
        assert!(
            !html.contains("List<i32>"),
            "no raw angle brackets from data"
        );
    }

    #[test]
    fn empty_report_renders() {
        let report = Dsspy::new().profile(|_| {});
        let html = html_report(&report, &[]);
        assert!(html.contains("No use cases detected."));
    }

    #[test]
    fn unflagged_instances_get_no_charts() {
        let (report, profiles) = report_and_profiles();
        let html = html_report(&report, &profiles);
        // Exactly one flagged instance → one profile chart + one timeline.
        assert_eq!(html.matches("<figure>").count(), 2, "{}", html.len());
    }
}
