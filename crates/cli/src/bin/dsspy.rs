//! The `dsspy` binary: analyze, chart, diff and sketch saved captures.

use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

use dsspy_cli::{
    cmd_analyze, cmd_chart, cmd_csv, cmd_demo, cmd_diff, cmd_doctor, cmd_report, cmd_sketch,
    cmd_telemetry, cmd_telemetry_serve, cmd_telemetry_serve_live, cmd_timeline, cmd_watch,
    cmd_watch_follow, CliError,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  dsspy analyze  <capture> [--json] [--selective] [--threads N] [--telemetry PATH]\n  \
         dsspy chart    <capture> [--instance N] [--svg PATH]\n  \
         dsspy timeline <capture> [--instance N] [--svg PATH]\n  \
         dsspy diff     <before> <after> [--threads N]\n  \
         dsspy sketch   <capture>\n  \
         dsspy report   <capture> --out <report.html> [--threads N] [--telemetry PATH]\n  \
         dsspy csv      <capture> <instances|usecases>\n  \
         dsspy telemetry <capture> [--threads N] [--format summary|json|prometheus|trace] [--check]\n  \
         dsspy telemetry serve <capture> [--live] [--addr HOST:PORT] [--requests N] [--self-check] [--threads N] [--flight-recorder PATH]\n  \
         dsspy demo     <out.dsspycap> [--workload NAME] [--live] [--flight-recorder PATH] [--inject-panic]\n  \
         dsspy watch    <capture> [--batch N] [--every N] [--frames N]\n  \
         dsspy watch    --follow [--workload NAME] [--batch N] [--every N] [--frames N] [--flight-recorder PATH]\n  \
         dsspy doctor   <flight-dump.json|capture> [--events N] [--trace PATH]\n\
         \n--threads: analysis workers (0 = one per core, 1 = sequential)\n\
         --telemetry PATH: self-observe the run; write the snapshot to PATH as JSON\n\
         --live: stream the demo session through the collector tap while it runs\n\
         --flight-recorder PATH: arm a causal flight recorder on the live session;\n\
         \u{20}      incidents (subscriber panic, drops, queue watermark) auto-dump to PATH\n\
         --inject-panic: (demo --live) add a deliberately faulty fan-out subscriber\n\
         watch: --batch events per replayed batch, --every snapshot cadence in batches,\n\
         \u{20}       --frames max frames printed;\n\
         \u{20}       --follow runs a suite7 workload live and follows its fan-out tap\n\
         serve: --addr listen address (port 0 = ephemeral), --requests scrapes before exit\n\
         \u{20}      (default: forever), --self-check scrape yourself and validate;\n\
         \u{20}      --live re-collects the capture in real time and serves a fresh\n\
         \u{20}      snapshot of the running session per scrape\n\
         doctor: reads a flight dump (or re-collects a capture under a fresh\n\
         \u{20}       recorder), prints the causal timeline, per-subscriber lag and\n\
         \u{20}       incident report; exits 1 if any incident was recorded.\n\
         \u{20}       --events N timeline tail length, --trace PATH Chrome trace_event JSON"
    );
    std::process::exit(2)
}

/// The flags each command takes: its value flags (`--flag VALUE`), then its
/// flags that stand alone. `telemetry serve` is a command of its own.
const FLAGS: &[(&str, &[&str], &[&str])] = &[
    (
        "analyze",
        &["--threads", "--telemetry"],
        &["--json", "--selective"],
    ),
    ("chart", &["--instance", "--svg"], &[]),
    ("timeline", &["--instance", "--svg"], &[]),
    ("diff", &["--threads"], &[]),
    ("sketch", &[], &[]),
    ("report", &["--out", "--threads", "--telemetry"], &[]),
    ("csv", &[], &[]),
    ("telemetry", &["--threads", "--format"], &["--check"]),
    (
        "telemetry serve",
        &["--addr", "--requests", "--threads", "--flight-recorder"],
        &["--live", "--self-check"],
    ),
    (
        "demo",
        &["--workload", "--flight-recorder"],
        &["--live", "--inject-panic"],
    ),
    (
        "watch",
        &[
            "--batch",
            "--every",
            "--frames",
            "--workload",
            "--flight-recorder",
        ],
        &["--follow"],
    ),
    ("doctor", &["--events", "--trace"], &[]),
];

/// The positional arguments after the command: everything that is neither
/// a flag nor the value of one of the command's value flags (see
/// [`FLAGS`]). An unknown command prints usage and exits 2; so does a
/// `--flag` the command does not take, naming the flag and the command.
fn positionals(args: &[String]) -> Vec<&String> {
    let command = match args {
        [telemetry, serve, ..] if telemetry == "telemetry" && serve == "serve" => "telemetry serve",
        [command, ..] => command.as_str(),
        [] => usage(),
    };
    let Some(&(_, values, bools)) = FLAGS.iter().find(|(name, ..)| *name == command) else {
        usage()
    };
    let mut out = Vec::new();
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if values.contains(&arg.as_str()) {
            rest.next();
        } else if arg.starts_with("--") {
            if !bools.contains(&arg.as_str()) {
                eprintln!("dsspy: {command} does not take {arg}");
                usage()
            }
        } else {
            out.push(arg);
        }
    }
    out
}

/// The numeric value of flag `name` (`raw`, as found on the command line):
/// `None` when the flag is absent; usage and exit 2 when it does not parse.
fn number(name: &str, raw: Option<String>) -> Option<usize> {
    let raw = raw?;
    match raw.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("dsspy: {name} expects a non-negative integer, got {raw:?}");
            usage()
        }
    }
}

/// Write `out` and a newline to stdout. A reader that stops early
/// (`dsspy analyze c.dsspycap --json | head`) closes the pipe; that ends
/// the output quietly instead of panicking. Any other write failure is an
/// error: exit 1.
fn emit(out: &str) {
    let mut stdout = std::io::stdout().lock();
    let written = stdout.write_all(format!("{out}\n").as_bytes());
    if let Err(e) = written.and_then(|()| stdout.flush()) {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("dsspy: cannot write output: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };

    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let positional = positionals(&args);

    let num = |name: &str| number(name, value(name));
    let instance = num("--instance").unwrap_or(0);
    let threads = num("--threads").unwrap_or(0);
    let svg: Option<PathBuf> = value("--svg").map(PathBuf::from);
    let telemetry_out: Option<PathBuf> = value("--telemetry").map(PathBuf::from);
    let flight_recorder: Option<PathBuf> = value("--flight-recorder").map(PathBuf::from);

    let result = match command.as_str() {
        "analyze" => {
            let Some(path) = positional.first() else {
                usage()
            };
            cmd_analyze(
                Path::new(path),
                flag("--json"),
                flag("--selective"),
                threads,
                telemetry_out.as_deref(),
            )
        }
        "chart" => {
            let Some(path) = positional.first() else {
                usage()
            };
            cmd_chart(Path::new(path), instance, svg.as_deref())
        }
        "timeline" => {
            let Some(path) = positional.first() else {
                usage()
            };
            cmd_timeline(Path::new(path), instance, svg.as_deref())
        }
        "diff" => {
            let (Some(before), Some(after)) = (positional.first(), positional.get(1)) else {
                usage()
            };
            cmd_diff(Path::new(before), Path::new(after), threads)
        }
        "sketch" => {
            let Some(path) = positional.first() else {
                usage()
            };
            cmd_sketch(Path::new(path))
        }
        "csv" => {
            let (Some(path), Some(what)) = (positional.first(), positional.get(1)) else {
                usage()
            };
            what.parse().and_then(|what| cmd_csv(Path::new(path), what))
        }
        "report" => {
            let Some(path) = positional.first() else {
                usage()
            };
            let Some(out) = value("--out") else { usage() };
            cmd_report(
                Path::new(path),
                Path::new(&out),
                threads,
                telemetry_out.as_deref(),
            )
        }
        "telemetry" => {
            if positional.first().map(|s| s.as_str()) == Some("serve") {
                let Some(path) = positional.get(1) else {
                    usage()
                };
                let addr = value("--addr").unwrap_or_else(|| "127.0.0.1:9464".to_string());
                let requests = num("--requests").map(|n| n as u64);
                if flag("--live") {
                    cmd_telemetry_serve_live(
                        Path::new(path),
                        threads,
                        &addr,
                        requests,
                        flag("--self-check"),
                        flight_recorder.as_deref(),
                    )
                } else {
                    cmd_telemetry_serve(
                        Path::new(path),
                        threads,
                        &addr,
                        requests,
                        flag("--self-check"),
                    )
                }
            } else {
                let Some(path) = positional.first() else {
                    usage()
                };
                let format = value("--format").unwrap_or_else(|| "summary".to_string());
                format.parse().and_then(|format| {
                    cmd_telemetry(Path::new(path), threads, format, flag("--check"))
                })
            }
        }
        "demo" => {
            let Some(out) = positional.first() else {
                usage()
            };
            cmd_demo(
                Path::new(out),
                value("--workload").as_deref(),
                flag("--live"),
                flight_recorder.as_deref(),
                flag("--inject-panic"),
            )
        }
        "doctor" => {
            let Some(path) = positional.first() else {
                usage()
            };
            let events = num("--events").unwrap_or(48);
            let trace: Option<PathBuf> = value("--trace").map(PathBuf::from);
            match cmd_doctor(Path::new(path), events, trace.as_deref()) {
                Ok((out, incidents)) => {
                    emit(&out);
                    std::process::exit(if incidents > 0 { 1 } else { 0 });
                }
                Err(e) => {
                    eprintln!("dsspy: {e}");
                    std::process::exit(1);
                }
            }
        }
        "watch" => {
            let batch = num("--batch").unwrap_or(512);
            let every = num("--every").unwrap_or(4) as u64;
            let frames = num("--frames").unwrap_or(12);
            if flag("--follow") {
                cmd_watch_follow(
                    value("--workload").as_deref(),
                    batch,
                    every,
                    frames,
                    flight_recorder.as_deref(),
                )
            } else {
                let Some(path) = positional.first() else {
                    usage()
                };
                cmd_watch(Path::new(path), batch, every, frames)
            }
        }
        _ => usage(),
    };

    match result {
        Ok(out) => emit(&out),
        Err(e) => {
            eprintln!("dsspy: {e}");
            // A value outside its choices is caught before any work, like a
            // malformed number: usage and exit 2.
            if matches!(e, CliError::Usage(_)) {
                usage()
            }
            std::process::exit(1);
        }
    }
}
