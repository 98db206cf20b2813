//! The `dsspy` binary: analyze, chart, diff and sketch saved captures.

use std::num::NonZeroU64;
use std::path::Path;

use dsspy_cli::args::{emit, note, parse_or_exit, Command};
use dsspy_cli::{
    cmd_analyze, cmd_chart, cmd_csv, cmd_demo, cmd_diff, cmd_doctor, cmd_report, cmd_sketch,
    cmd_telemetry, cmd_telemetry_serve, cmd_telemetry_serve_live, cmd_timeline, cmd_watch,
    cmd_watch_follow, CliError, TelemetryFormat,
};

/// Every command `dsspy` takes, one row per mode.
const COMMANDS: &[Command] = &[
    Command {
        words: &["analyze"],
        positionals: &["<capture>"],
        flags: &["--threads N", "--telemetry PATH", "--json", "--selective"],
        help: "use cases and advisories (--json: the full report); --threads 0 = one per core",
    },
    Command {
        words: &["chart"],
        positionals: &["<capture>"],
        flags: &["--instance N", "--svg PATH"],
        help: "one instance's Fig. 2/3 profile chart",
    },
    Command {
        words: &["timeline"],
        positionals: &["<capture>"],
        flags: &["--instance N", "--svg PATH"],
        help: "one instance's mined patterns and phases over time",
    },
    Command {
        words: &["diff"],
        positionals: &["<before>", "<after>"],
        flags: &["--threads N"],
        help: "the verdicts a change resolved, introduced and kept",
    },
    Command {
        words: &["sketch"],
        positionals: &["<capture>"],
        flags: &[],
        help: "a transformation sketch per detected use case",
    },
    Command {
        words: &["report"],
        positionals: &["<capture>"],
        flags: &["--out <report.html>", "--threads N", "--telemetry PATH"],
        help: "a self-contained HTML report with embedded charts",
    },
    Command {
        words: &["csv"],
        positionals: &["<capture>", "<instances|usecases>"],
        flags: &[],
        help: "instances or use cases as CSV",
    },
    Command {
        words: &["telemetry"],
        positionals: &["<capture>"],
        flags: &[
            "--threads N",
            "--format summary|json|prometheus|trace",
            "--check",
        ],
        help: "self-observe an analysis; --check validates the Prometheus exposition",
    },
    Command {
        words: &["telemetry", "serve"],
        positionals: &["<capture>"],
        flags: &[
            "--addr HOST:PORT",
            "--requests N",
            "--threads N",
            "--self-check",
        ],
        help: "serve that exposition at /metrics for --requests scrapes (default: forever)",
    },
    Command {
        words: &["telemetry", "serve", "--live"],
        positionals: &["<capture>"],
        flags: &[
            "--addr HOST:PORT",
            "--requests N",
            "--threads N",
            "--flight-recorder PATH",
            "--self-check",
        ],
        help: "re-collect the capture in real time; each scrape sees the running session",
    },
    Command {
        words: &["demo"],
        positionals: &["<out.dsspycap>"],
        flags: &["--workload NAME", "--flight-recorder PATH"],
        help: "record a suite7 workload into a capture (default WordWheelSolver)",
    },
    Command {
        words: &["demo", "--live"],
        positionals: &["<out.dsspycap>"],
        flags: &[
            "--workload NAME",
            "--flight-recorder PATH",
            "--inject-panic",
        ],
        help: "the same, streamed through the analyzer; --inject-panic adds a faulty subscriber",
    },
    Command {
        words: &["watch"],
        positionals: &["<capture>"],
        flags: &["--batch N", "--every N", "--frames N"],
        help: "replay a capture through the streaming analyzer; a frame every --every batches",
    },
    Command {
        words: &["watch", "--follow"],
        positionals: &[],
        flags: &[
            "--workload NAME",
            "--batch N",
            "--every N",
            "--frames N",
            "--flight-recorder PATH",
        ],
        help: "follow a suite7 workload's live session the same way",
    },
    Command {
        words: &["doctor"],
        positionals: &["<flight-dump.json|capture>"],
        flags: &["--events N", "--trace PATH"],
        help: "a flight dump's (or re-collected capture's) timeline and incidents; exit 1 on any",
    },
];

fn main() {
    let args = parse_or_exit("dsspy", COMMANDS, std::env::args().skip(1).collect());
    let capture = || Path::new(args.positional(0));
    let threads = || args.parse("--threads").unwrap_or(0);
    let result = match args.command.words {
        ["analyze"] => cmd_analyze(
            capture(),
            args.switch("--json"),
            args.switch("--selective"),
            threads(),
            args.value("--telemetry").map(Path::new),
        ),
        ["chart"] => cmd_chart(
            capture(),
            args.parse("--instance").unwrap_or(0),
            args.value("--svg").map(Path::new),
        ),
        ["timeline"] => cmd_timeline(
            capture(),
            args.parse("--instance").unwrap_or(0),
            args.value("--svg").map(Path::new),
        ),
        ["diff"] => cmd_diff(capture(), Path::new(args.positional(1)), threads()),
        ["sketch"] => cmd_sketch(capture()),
        ["report"] => cmd_report(
            capture(),
            Path::new(args.value("--out").expect("a required flag")),
            threads(),
            args.value("--telemetry").map(Path::new),
        ),
        ["csv"] => {
            let what = args.positional(1).parse().unwrap_or_else(|e| args.fail(e));
            cmd_csv(capture(), what)
        }
        ["telemetry"] => cmd_telemetry(
            capture(),
            threads(),
            args.parse("--format").unwrap_or(TelemetryFormat::Summary),
            args.switch("--check"),
        ),
        ["telemetry", "serve", live @ ..] => {
            let addr = args.value("--addr").unwrap_or("127.0.0.1:9464");
            let requests = args.parse("--requests").map(NonZeroU64::get);
            let self_check = args.switch("--self-check");
            match live {
                [] => cmd_telemetry_serve(capture(), threads(), addr, requests, self_check),
                _ => cmd_telemetry_serve_live(
                    capture(),
                    threads(),
                    addr,
                    requests,
                    self_check,
                    args.value("--flight-recorder").map(Path::new),
                ),
            }
        }
        ["demo", ..] => cmd_demo(
            capture(),
            args.value("--workload"),
            args.switch("--live"),
            args.value("--flight-recorder").map(Path::new),
            args.switch("--inject-panic"),
        ),
        ["watch", follow @ ..] => {
            let batch = args
                .parse("--batch")
                .unwrap_or(512.try_into().expect("non-zero"));
            let every = args
                .parse("--every")
                .unwrap_or(4.try_into().expect("non-zero"));
            let frames = args.parse("--frames").unwrap_or(12);
            match follow {
                [] => cmd_watch(capture(), batch, every, frames),
                _ => cmd_watch_follow(
                    args.value("--workload"),
                    batch,
                    every,
                    frames,
                    args.value("--flight-recorder").map(Path::new),
                ),
            }
        }
        ["doctor"] => {
            let events = args.parse("--events").unwrap_or(48);
            match cmd_doctor(capture(), events, args.value("--trace").map(Path::new)) {
                Ok((out, incidents)) => {
                    emit("dsspy", &out);
                    std::process::exit(if incidents > 0 { 1 } else { 0 });
                }
                Err(e) => Err(e),
            }
        }
        words => unreachable!("no dispatch for the row {words:?}"),
    };
    match result {
        Ok(out) => {
            emit("dsspy", &out);
        }
        // A value outside its choices is caught before any work, like a
        // malformed number: usage and exit 2.
        Err(CliError::Usage(e)) => args.fail(e),
        Err(e) => {
            note(format_args!("dsspy: {e}"));
            std::process::exit(1);
        }
    }
}
