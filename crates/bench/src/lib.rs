//! # dsspy-bench — regenerating every table and figure of the paper
//!
//! One function per experiment artifact; the `repro` binary is a thin CLI
//! over them, and the Criterion benches measure the primitive costs behind
//! the numbers (collector batching, parallel-op speedups, ablations).
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table I (domain distribution) | [`tables::table1`] |
//! | Fig. 1 (occurrence chart) | [`tables::figure1_text`], [`tables::figure1_svg`] |
//! | Fig. 2 (fill/reverse-read profile) | [`tables::figure2`], [`tables::figure2_svg`] |
//! | Fig. 3 (insert/scan/clear profile) | [`tables::figure3`], [`tables::figure3_svg`] |
//! | Table II (recurring regularities) | [`tables::table2`] |
//! | Table III (66 use cases by category) | [`tables::table3`] |
//! | Table IV (slowdown/reduction/speedup) | [`tables::table4`] |
//! | Table V (gpdotnet use-case listing) | [`tables::table5`] |
//! | Table VI (sequential fractions) | [`tables::table6`] |
//! | §V per-use-case speedups | [`tables::speedups`] |

pub mod tables;
