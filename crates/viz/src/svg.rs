//! A minimal SVG document builder — just enough for static chart export.
//!
//! Hand-rolled on purpose: the chart surface is a substrate of this
//! reproduction, and the needs are tiny (rects, lines, text, a title).

use std::fmt::Write;

/// An SVG document under construction.
#[derive(Debug)]
pub struct SvgDoc {
    width: u32,
    height: u32,
    body: String,
}

impl SvgDoc {
    /// Start a document of the given pixel size with the chart surface
    /// background.
    pub fn new(width: u32, height: u32, surface: &str) -> SvgDoc {
        let mut doc = SvgDoc {
            width,
            height,
            body: String::new(),
        };
        doc.rect(0.0, 0.0, width as f64, height as f64, surface, None);
        doc
    }

    /// Add a filled rectangle; `rx` rounds the corners (data-end rounding).
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str, rx: Option<f64>) {
        let rx = rx.map(|r| format!(" rx=\"{r:.1}\"")).unwrap_or_default();
        let _ = write!(
            self.body,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{h:.1}\" fill=\"{fill}\"{rx}/>"
        );
    }

    /// Add a 1px-class line (grid/axis).
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        let _ = write!(
            self.body,
            "<line x1=\"{x1:.1}\" y1=\"{y1:.1}\" x2=\"{x2:.1}\" y2=\"{y2:.1}\" \
             stroke=\"{stroke}\" stroke-width=\"{width:.1}\"/>"
        );
    }

    /// Add text. `anchor` is `start`, `middle` or `end`.
    pub fn text(&mut self, x: f64, y: f64, size: f64, fill: &str, anchor: &str, content: &str) {
        let _ = write!(
            self.body,
            "<text x=\"{x:.1}\" y=\"{y:.1}\" font-size=\"{size:.1}\" fill=\"{fill}\" \
             text-anchor=\"{anchor}\" font-family=\"system-ui, sans-serif\">{}</text>",
            escape(content)
        );
    }

    /// Finish the document.
    pub fn finish(self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
             viewBox=\"0 0 {} {}\">{}</svg>",
            self.width, self.height, self.width, self.height, self.body
        )
    }
}

/// Escape the five XML-special characters.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_structure() {
        let mut doc = SvgDoc::new(100, 50, "#fcfcfb");
        doc.rect(1.0, 2.0, 3.0, 4.0, "#2a78d6", Some(2.0));
        doc.line(0.0, 0.0, 100.0, 0.0, "#dededa", 1.0);
        doc.text(5.0, 10.0, 11.0, "#0b0b0b", "start", "hello");
        let svg = doc.finish();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("viewBox=\"0 0 100 50\""));
        assert!(svg.contains("rx=\"2.0\""));
        assert!(svg.contains(">hello</text>"));
    }

    #[test]
    fn rect_count_includes_surface() {
        let mut doc = SvgDoc::new(10, 10, "#fff");
        doc.rect(0.0, 0.0, 1.0, 1.0, "#000", None);
        assert_eq!(doc.finish().matches("<rect").count(), 2);
    }

    #[test]
    fn escapes_xml_specials() {
        assert_eq!(escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
        let mut doc = SvgDoc::new(10, 10, "#fff");
        doc.text(0.0, 0.0, 10.0, "#000", "start", "List<int> & more");
        assert!(doc.finish().contains("List&lt;int&gt; &amp; more"));
    }
}
