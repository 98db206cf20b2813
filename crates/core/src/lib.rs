//! # dsspy-core — the DSspy pipeline
//!
//! The paper's Fig. 4 pipeline: *Instrumentation → Execution → Profiles →
//! Pattern detection → Use case generation → Advice.* The substrates live in
//! their own crates (`dsspy-collect`, `dsspy-patterns`, `dsspy-usecases`);
//! this crate glues them into the tool a user drives:
//!
//! ```
//! use dsspy_core::Dsspy;
//! use dsspy_collections::{site, SpyVec};
//!
//! let report = Dsspy::new().profile(|session| {
//!     let mut list = SpyVec::register(session, site!("quickstart"));
//!     for i in 0..500 {
//!         list.add(i);
//!     }
//! });
//! assert_eq!(report.instance_count(), 1);
//! assert_eq!(report.flagged_instance_count(), 1); // Long-Insert fires
//! ```
//!
//! The [`Report`] carries, per instance: the mined pattern instances, the
//! derived metrics, the regularity verdict, and the detected use cases with
//! evidence and recommended actions — plus the aggregate *search space
//! reduction* number the evaluation (§V) leads with.

#![warn(missing_docs)]

pub mod diff;
pub mod evaluation;
pub mod export;
pub mod fold;
pub mod pipeline;
pub mod report;
pub mod transform;

pub use diff::{diff_reports, DetectionKey, ReportDiff};
pub use evaluation::{measure_avg_nanos, RuntimeFractions};
pub use export::{instances_csv, use_cases_csv};
pub use fold::InstanceFold;
pub use pipeline::{AnalysisConfig, Dsspy};
pub use report::{AnalysisTimings, InstanceReport, InstanceTiming, Report};
pub use transform::{sketch_for, sketches, TransformSketch};
