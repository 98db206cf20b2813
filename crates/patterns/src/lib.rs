//! # dsspy-patterns — access-pattern mining on runtime profiles
//!
//! The empirical study (paper §III-A) identified eight recurring access
//! pattern types in the runtime profiles of lists and arrays:
//!
//! * **Read-Forward** / **Write-Forward** — adjacent elements, access
//!   position increases in time;
//! * **Read-Backward** / **Write-Backward** — adjacent elements, access
//!   position decreases in time;
//! * **Insert-Front** / **Insert-Back** — adjacent insert operations that
//!   always start at the front / from the end;
//! * **Delete-Front** / **Delete-Back** — the delete counterparts.
//!
//! This crate locates those patterns programmatically: it untangles a
//! profile by thread, splits the per-thread event stream into *tracks* by
//! access kind (so that interleaved patterns — like the overlapping
//! Insert-Back and Read-Forward of the paper's Fig. 3 — are each detected
//! in full), and finds maximal monotone runs within each track. On top of
//! the raw pattern instances it computes the derived [`Metrics`] the
//! use-case classifier consumes (insert-phase runtime share, search counts,
//! per-end concentration, trailing writes, ...).

#![warn(missing_docs)]

pub mod analysis;
pub mod incremental;
pub mod kind;
pub mod phases;
pub mod regularity;
pub mod run;
pub mod threads;

pub use analysis::{analyze, Metrics, ProfileAnalysis};
pub use incremental::{IncrementalAnalyzer, MetricsFold, PatternAggregates, ThreadMiner};
pub use kind::PatternKind;
pub use phases::{segment_phases, Phase, PhaseKind};
pub use regularity::{regularity, RegularityConfig, RegularityVerdict};
pub use run::{MinerConfig, PatternInstance};
pub use threads::ThreadProfile;
