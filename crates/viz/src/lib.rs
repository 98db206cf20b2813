//! # dsspy-viz — visualizing runtime profiles and study results
//!
//! "Visualizing data structure accesses facilitates their analysis" (paper
//! §II-B): DSspy's trust story depends on the engineer *seeing* the access
//! patterns behind every recommendation. This crate renders:
//!
//! * **Profile charts** (the paper's Figs. 2 and 3): every access event as a
//!   bar on a chronological x-axis, its target index on the y-axis, the
//!   structure length as a grey backdrop — as plain text for terminals
//!   and as standalone SVG for reports.
//! * **Occurrence charts** (Fig. 1): stacked per-program bars of data
//!   structure counts by kind.
//! * **Pattern timelines** ([`timeline`]): each mined pattern instance as a
//!   span on the sequence axis, over the segmented phases.
//! * **HTML reports** ([`html`]): one shareable file with the use-case
//!   listing and a profile chart and timeline per flagged instance.
//! * **Flight timelines** ([`flight`]): the causal event timeline, the
//!   per-subscriber lag table and the incident report `dsspy doctor`
//!   renders from a [`dsspy_telemetry::FlightDump`].
//!
//! Design notes: identity is never color-alone — the terminal chart encodes
//! the access class with letters (`R`/`W`/`I`/`D`), the SVG charts always
//! carry a legend with visible text labels, and every chart has a textual
//! table twin. The palette is colorblind-validated (blue/orange/aqua/violet;
//! the paper's original red/green pairing is the classic CVD trap and was
//! deliberately replaced).

#![warn(missing_docs)]

pub mod flight;
pub mod html;
pub mod occurrence;
pub mod palette;
pub mod profile_chart;
pub mod svg;
pub mod timeline;

pub use flight::{
    flight_incidents_text, flight_lag_text, flight_timeline_text, subscriber_lags, SubscriberLag,
};
pub use html::html_report;
pub use occurrence::{occurrence_svg, occurrence_table, OccurrenceRow};
pub use profile_chart::{profile_chart_svg, profile_chart_text};
pub use timeline::{timeline_svg, timeline_text};
