//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --all                        # every table and figure, test scale
//! repro --table 4 --scale full       # Table IV at evaluation scale
//! repro --figure 1 --svg out.svg     # Fig. 1 chart as SVG
//! repro --speedups                   # §V per-use-case speedups
//! repro --all --telemetry t.json     # self-observe: one span per artifact
//! ```

use dsspy_bench::tables;
use dsspy_cli::args::{parse_env, Command};
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

/// Write `contents` to `path`, or exit 1 naming the path and the error.
fn write(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("repro: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_env("repro", COMMANDS);
    let scale = match args.value("--scale") {
        None | Some("test") => Scale::Test,
        Some("full") => Scale::Full,
        Some(other) => args.fail(format!("--scale {other:?}: not test or full")),
    };
    let runs = args.parse("--runs").unwrap_or(3);
    let threads = args.parse("--threads").unwrap_or_else(default_threads);
    let numbered = |flag: &str, what: &str, last: u32| {
        let n = args.parse(flag)?;
        if !(1..=last).contains(&n) {
            args.fail(format!("no {what} {n} in the paper (1–{last})"));
        }
        Some(n)
    };
    let table = numbered("--table", "table", 6);
    let figure = numbered("--figure", "figure", 3);
    let svg = args.value("--svg");
    if svg.is_some() && figure.is_none() {
        args.fail("--svg writes a figure's chart: add --figure N");
    }
    let [speedups, findings, ablation] =
        ["--speedups", "--findings", "--ablation"].map(|f| args.switch(f));
    let all = args.switch("--all")
        || !(table.is_some() || figure.is_some() || speedups || findings || ablation);

    // With --telemetry, each reproduced artifact runs under its own span so
    // the export shows where a full `repro --all` spends its time.
    let telemetry_path = args.value("--telemetry");
    let telemetry = if telemetry_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let print_table = |n: u32| {
        let _span = telemetry.span_lazy("repro", || format!("table{n}"));
        match n {
            1 => println!("{}", tables::table1()),
            2 => println!("{}", tables::table2_with_threads(threads)),
            3 => println!("{}", tables::table3_with_threads(threads)),
            4 => println!("{}", tables::table4(scale, runs, threads)),
            5 => println!("{}", tables::table5(scale)),
            _ => println!("{}", tables::table6(scale)),
        }
    };

    if let Some(n) = figure {
        let _span = telemetry.span_lazy("repro", || format!("figure{n}"));
        let (text, chart) = match n {
            1 => (tables::figure1_text(), tables::figure1_svg()),
            2 => (tables::figure2(), tables::figure2_svg()),
            _ => (tables::figure3(), tables::figure3_svg()),
        };
        println!("{text}");
        if let Some(path) = svg {
            write(path, chart);
            println!("(SVG written to {path})");
        }
    }

    if let Some(n) = table {
        print_table(n);
    }

    if all {
        for n in 1..=6 {
            print_table(n);
            println!();
        }
        {
            let _span = telemetry.span("repro", "figures");
            println!("{}", tables::figure2());
            println!("{}", tables::figure3());
        }
    }
    if all || findings {
        let _span = telemetry.span("repro", "findings");
        println!("{}", dsspy_study::study_findings().render());
    }
    if all || speedups {
        let _span = telemetry.span("repro", "speedups");
        println!("{}", tables::speedups(runs));
    }
    if ablation {
        let _span = telemetry.span("repro", "ablation");
        println!("{}", tables::ablation_table());
    }

    if let Some(path) = telemetry_path {
        write(path, export::to_json(&telemetry.snapshot()));
        eprintln!("(telemetry written to {path})");
    }
}
