//! # dsspy-bench — regenerating every table and figure of the paper
//!
//! One function per experiment artifact in [`tables`], and one row per
//! artifact in [`ARTIFACTS`]: how `repro` selects it, whether `repro --all`
//! includes it, which of `repro`'s flags it reads and the function that
//! renders it. The `repro` binary is a thin CLI over that table, and the
//! Criterion benches measure the primitive costs behind the numbers
//! (collector batching, parallel-op speedups, ablations).

pub mod tables;

use std::num::NonZeroUsize;

use dsspy_cli::args::Args;
use dsspy_workloads::Scale;

/// The values of `repro`'s flags, defaults filled in. An artifact reads
/// only the fields its [`Artifact::reads`] names.
#[derive(Debug)]
pub struct Settings {
    /// `--scale test|full`.
    pub scale: Scale,
    /// `--runs N`: timed repetitions per measurement.
    pub runs: NonZeroUsize,
    /// `--threads N`: analysis and parallel-variant workers.
    pub threads: usize,
    /// `--svg PATH`: where a figure writes its chart.
    pub svg: Option<String>,
}

/// One paper artifact as `repro` knows it.
#[derive(Debug)]
pub struct Artifact {
    /// The flag that selects it, with its number if it takes one:
    /// `--table 4`, `--figure 2`, `--speedups`.
    pub selector: &'static str,
    /// `None` when `repro --all` leaves it out; otherwise what `--all`
    /// prints after it (the tables stand one blank line further apart).
    pub all: Option<&'static str>,
    /// The flags it reads. `--telemetry` applies to every artifact.
    pub reads: &'static [&'static str],
    /// The text `repro` prints for it, or why it failed (`repro` exits 1).
    pub render: fn(&Settings) -> Result<String, String>,
}

impl Artifact {
    /// Whether `args` select it.
    pub fn given(&self, args: &Args) -> bool {
        match self.selector.split_once(' ') {
            Some((flag, n)) => args.parse::<u32>(flag).is_some_and(|v| v.to_string() == n),
            None => args.switch(self.selector),
        }
    }
}

/// A figure's text, followed, when `--svg PATH` is given, by its chart
/// written to `PATH`.
fn figure(s: &Settings, text: fn() -> String, chart: fn() -> String) -> Result<String, String> {
    let mut out = text();
    if let Some(path) = &s.svg {
        std::fs::write(path, chart()).map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("\n(SVG written to {path})"));
    }
    Ok(out)
}

/// An [`ARTIFACTS`] row: its fields in declaration order.
const fn row(
    selector: &'static str,
    all: Option<&'static str>,
    reads: &'static [&'static str],
    render: fn(&Settings) -> Result<String, String>,
) -> Artifact {
    Artifact {
        selector,
        all,
        reads,
        render,
    }
}

/// Every artifact `repro` regenerates, in the order it prints them: the
/// only place that says which flags an artifact reads.
#[rustfmt::skip]
pub const ARTIFACTS: &[Artifact] = &[
    //  selector      --all       reads                                render
    row("--table 1",  Some("\n"), &[],                                 |_| Ok(tables::table1())),
    row("--table 2",  Some("\n"), &["--threads"],                      |s| Ok(tables::table2(s.threads))),
    row("--table 3",  Some("\n"), &["--threads"],                      |s| Ok(tables::table3(s.threads))),
    row("--table 4",  Some("\n"), &["--scale", "--runs", "--threads"], |s| Ok(tables::table4(s.scale, s.runs, s.threads))),
    row("--table 5",  Some("\n"), &["--scale"],                        |s| Ok(tables::table5(s.scale))),
    row("--table 6",  Some("\n"), &["--scale"],                        |s| Ok(tables::table6(s.scale))),
    row("--figure 1", None,       &["--svg"],                          |s| figure(s, tables::figure1_text, tables::figure1_svg)),
    row("--figure 2", Some(""),   &["--svg"],                          |s| figure(s, tables::figure2, tables::figure2_svg)),
    row("--figure 3", Some(""),   &["--svg"],                          |s| figure(s, tables::figure3, tables::figure3_svg)),
    row("--findings", Some(""),   &[],                                 |_| Ok(dsspy_study::study_findings().render())),
    row("--speedups", Some(""),   &["--runs"],                         |s| Ok(tables::speedups(s.runs))),
    row("--ablation", None,       &[],                                 |_| Ok(tables::ablation_table())),
];
