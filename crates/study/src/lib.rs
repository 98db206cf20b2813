//! # dsspy-study — the empirical study of data-structure occurrence
//!
//! Reproduces §II of the paper: a benchmark of 37 realistic programs from
//! eleven application domains, 936,356 LOC in total, scanned with regular
//! expressions for every data-structure declaration of the standard class
//! library (1,960 dynamic instances + 785 arrays).
//!
//! The original C# programs are not available, so the corpus is *modeled*:
//! every per-program instance total in `corpus::CORPUS` is taken directly
//! from the paper's Fig. 1 (the Σ annotations — they sum to exactly 1,960
//! and partition exactly into Table I's domain counts, which is how the
//! model was validated), per-kind counts are apportioned deterministically
//! against the paper's per-kind totals, and [`source_gen`] renders each
//! model as pseudo-C# source that [`scanner`] — the reproduction of the
//! paper's regex pass — actually scans. Tables I and Fig. 1 are therefore
//! regenerated through a real code path, not echoed from constants. The
//! sources are generated and scanned in memory; nothing is written to disk.

#![warn(missing_docs)]

pub mod corpus;
pub mod findings;
pub mod occurrence;
pub mod scanner;
pub mod source_gen;

pub use corpus::{build_corpus, DomainSpec, ProgramModel, DOMAINS, DS_KIND_TOTALS, TOTAL_ARRAYS};
pub use findings::{study_findings, StudyFindings};
pub use occurrence::{domain_rows, occurrence_rows, DomainRow, ProgramOccurrence};
pub use scanner::{scan_source, ScanResult};
pub use source_gen::generate_source;
