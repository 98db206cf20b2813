//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --all                        # every table and figure, test scale
//! repro --table 4 --scale full       # Table IV at evaluation scale
//! repro --figure 1 --svg out.svg     # Fig. 1 chart as SVG
//! repro --speedups                   # §V per-use-case speedups
//! repro --all --telemetry t.json     # self-observe: one span per artifact
//! ```
//!
//! Each artifact is a row of [`dsspy_bench::ARTIFACTS`], which names the
//! flags it reads: a flag that no selected artifact reads exits 2.

use dsspy_bench::{Artifact, Settings, ARTIFACTS};
use dsspy_cli::args::{emit, note, parse_or_exit, Command};
use dsspy_parallel::default_threads;
use dsspy_telemetry::{export, Telemetry};
use dsspy_workloads::Scale;

/// `--all`, or the artifacts named one by one.
const COMMANDS: &[Command] = &[
    Command {
        words: &["--all"],
        positionals: &[],
        flags: &[
            "--scale test|full",
            "--runs N",
            "--threads N",
            "--telemetry PATH",
        ],
        help: "Tables I–VI, Figures 2–3, the study's findings and the §V speedups (the default)",
    },
    Command {
        words: &[],
        positionals: &[],
        flags: &[
            "--table N",
            "--figure N",
            "--svg PATH",
            "--scale test|full",
            "--runs N",
            "--threads N",
            "--telemetry PATH",
            "--speedups",
            "--findings",
            "--ablation",
        ],
        help: "Table N, Figure N (--svg writes its chart), the speedups, findings and ablations",
    },
];

/// Exit 1 naming what failed.
fn fail(message: impl std::fmt::Display) -> ! {
    note(format_args!("repro: {message}"));
    std::process::exit(1)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = parse_or_exit("repro", COMMANDS, argv.clone());

    // 1. The selected artifacts: those named, or every `--all` row.
    let named: Vec<_> = ARTIFACTS.iter().filter(|a| a.given(&args)).collect();
    for (flag, _) in ARTIFACTS.iter().filter_map(|a| a.selector.split_once(' ')) {
        let numbered = |a: &&Artifact| a.selector.starts_with(flag);
        if let Some(n) = args.value(flag).filter(|_| !named.iter().any(numbered)) {
            let last = ARTIFACTS.iter().filter(numbered).count();
            args.fail(format!("no {} {n} in the paper (1–{last})", &flag[2..]));
        }
    }
    let all = named.is_empty();
    if all && !args.switch("--all") {
        // No artifact named means `--all`, which takes only its row's flags.
        args = parse_or_exit("repro", COMMANDS, [vec!["--all".into()], argv].concat());
    }
    let in_all = ARTIFACTS.iter().filter(|a| a.all.is_some());
    let selected = if all { in_all.collect() } else { named };
    let settings = Settings {
        scale: match args.value("--scale") {
            None | Some("test") => Scale::Test,
            Some("full") => Scale::Full,
            Some(other) => args.fail(format!("--scale {other:?}: not test or full")),
        },
        runs: args
            .parse("--runs")
            .unwrap_or(3.try_into().expect("non-zero")),
        threads: args.parse("--threads").unwrap_or_else(default_threads),
        svg: args.value("--svg").map(String::from),
    };

    // 2. A flag is an error unless a selected artifact reads it.
    for flag in ARTIFACTS.iter().flat_map(|a| a.reads) {
        if args.value(flag).is_some() && !selected.iter().any(|a| a.reads.contains(flag)) {
            let names: Vec<_> = selected.iter().map(|a| a.selector).collect();
            let names = names.join(", ");
            args.fail(format!("no selected artifact ({names}) reads {flag}"));
        }
    }

    // 3. Each artifact under its own telemetry span, so the export shows
    // where a full `repro --all` spends its time; 4. printed as it is done.
    let telemetry_path = args.value("--telemetry");
    let telemetry = telemetry_path.map_or_else(Telemetry::disabled, |_| Telemetry::enabled());
    for artifact in selected {
        let _span = telemetry.span_lazy("repro", || artifact.selector.replace(['-', ' '], ""));
        let text = (artifact.render)(&settings).unwrap_or_else(|e| fail(e));
        let gap = artifact.all.filter(|_| all).unwrap_or("");
        if !emit("repro", &format!("{text}{gap}")) {
            return;
        }
    }

    if let Some(path) = telemetry_path {
        let json = export::to_json(&telemetry.snapshot());
        std::fs::write(path, json).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        note(format_args!("(telemetry written to {path})"));
    }
}
