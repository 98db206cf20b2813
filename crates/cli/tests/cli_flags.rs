//! The `dsspy` binary parses its arguments strictly against its command
//! table: a malformed numeric value, a flag the command's mode does not
//! take, a missing or extra positional or a value outside its choices
//! prints usage naming the argument and the command, and exits 2 instead of
//! silently falling back to a default or failing after the work.

use std::path::PathBuf;
use std::process::{Command, Output};

use dsspy_cli::cmd_demo;

fn dsspy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsspy"))
        .args(args)
        .output()
        .expect("run dsspy")
}

/// A fresh demo capture; `name` keeps concurrently running tests apart.
fn demo_capture(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsspy-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    cmd_demo(&path, None, false, None, false).expect("demo capture");
    path
}

fn assert_usage_exit(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(flag), "names the bad flag: {stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn malformed_threads_exits_2_with_usage() {
    let capture = demo_capture("threads.dsspycap");
    let capture = capture.to_str().expect("utf-8 temp path");
    assert_usage_exit(
        &dsspy(&["analyze", capture, "--threads", "abc"]),
        "--threads",
    );
    // The well-formed value still runs.
    let ok = dsspy(&["analyze", capture, "--threads", "2"]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}

#[test]
fn malformed_watch_flags_exit_2_before_any_work() {
    assert_usage_exit(&dsspy(&["watch", "--follow", "--frames", "x"]), "--frames");
    for flag in ["--batch", "--every"] {
        assert_usage_exit(&dsspy(&["watch", "--follow", flag, "-1"]), flag);
    }
    assert_usage_exit(
        &dsspy(&["telemetry", "serve", "c.dsspycap", "--requests", "1.5"]),
        "--requests",
    );
    assert_usage_exit(&dsspy(&["doctor", "f.json", "--events", ""]), "--events");
    assert_usage_exit(
        &dsspy(&["chart", "c.dsspycap", "--instance", "two"]),
        "--instance",
    );
}

#[test]
fn zero_counts_exit_2_before_any_work() {
    for flag in ["--batch", "--every"] {
        assert_usage_exit(&dsspy(&["watch", "c.dsspycap", flag, "0"]), flag);
        assert_usage_exit(&dsspy(&["watch", "--follow", flag, "0"]), flag);
    }
}

#[test]
fn unknown_flags_exit_2_before_any_work() {
    // A misspelt flag is rejected wherever it stands; before the capture,
    // its value must not be taken for the capture path.
    assert_usage_exit(
        &dsspy(&["analyze", "c.dsspycap", "--thread", "2"]),
        "--thread",
    );
    assert_usage_exit(
        &dsspy(&["analyze", "--thread", "2", "c.dsspycap"]),
        "--thread",
    );
    assert_usage_exit(&dsspy(&["watch", "--follow", "--window", "8"]), "--window");
    // Another command's flag is rejected too, naming the command.
    assert_usage_exit(
        &dsspy(&["sketch", "c.dsspycap", "--json"]),
        "sketch does not take --json",
    );
}

#[test]
fn bad_enumerated_values_exit_2_before_any_work() {
    // The capture does not exist: a value checked after loading it would
    // exit 1 with "cannot read capture" instead.
    let missing = "missing.dsspycap";
    assert_usage_exit(&dsspy(&["csv", missing, "nope"]), "\"nope\"");
    assert_usage_exit(
        &dsspy(&["telemetry", missing, "--format", "nope"]),
        "\"nope\"",
    );
    let out = std::env::temp_dir().join(format!("dsspy-flags-{}-x.dsspycap", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    assert_usage_exit(&dsspy(&["demo", out, "--workload", "Nope"]), "\"Nope\"");
    assert!(!std::path::Path::new(out).exists(), "demo recorded nothing");
    assert_usage_exit(
        &dsspy(&["watch", "--follow", "--workload", "Nope"]),
        "\"Nope\"",
    );
    // Valid choices still run.
    let capture = demo_capture("choices.dsspycap");
    let capture = capture.to_str().expect("utf-8 temp path");
    for args in [
        vec!["csv", capture, "usecases"],
        vec!["telemetry", capture, "--format", "json"],
    ] {
        let ok = dsspy(&args);
        assert!(
            ok.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&ok.stderr)
        );
    }
}

#[test]
fn arguments_a_mode_does_not_declare_exit_2_before_any_work() {
    // The capture does not exist: an argument checked after loading it
    // would exit 1 with "cannot read capture" instead.
    let missing = "missing.dsspycap";
    for (args, names) in [
        // A flag only another mode of the command takes.
        (
            &["demo", "x.dsspycap", "--inject-panic"][..],
            "dsspy demo does not take --inject-panic",
        ),
        (
            &["watch", missing, "--workload", "Mandelbrot"],
            "dsspy watch does not take --workload",
        ),
        (
            &["telemetry", "serve", missing, "--flight-recorder", "f.json"],
            "dsspy telemetry serve does not take --flight-recorder",
        ),
        // An extra or a missing positional.
        (
            &["analyze", missing, "extra"],
            "dsspy analyze: unexpected argument \"extra\"",
        ),
        (
            &["watch", "--follow", missing],
            "dsspy watch --follow: unexpected argument",
        ),
        (&["diff", missing], "dsspy diff: missing <after>"),
        (
            &["report", missing],
            "dsspy report: missing --out <report.html>",
        ),
        // A scrape bound that would serve nothing, a flag given twice, a
        // value flag with no value.
        (
            &[
                "telemetry",
                "serve",
                missing,
                "--requests",
                "0",
                "--self-check",
            ],
            "dsspy telemetry serve: --requests \"0\"",
        ),
        (
            &["analyze", missing, "--threads", "1", "--threads", "2"],
            "--threads given twice",
        ),
        (
            &["analyze", missing, "--threads"],
            "dsspy analyze: --threads needs a value N",
        ),
    ] {
        let out = dsspy(args);
        assert_usage_exit(&out, names);
        assert!(out.stdout.is_empty(), "{args:?} did work");
    }
    assert!(
        !std::path::Path::new("x.dsspycap").exists(),
        "demo recorded nothing"
    );
}

#[test]
fn failed_reads_and_listens_name_the_operation() {
    let out = dsspy(&["doctor", "missing.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot read missing.json: "), "{stderr}");

    // 192.0.2.1 (TEST-NET-1) is on no local interface: the bind fails
    // without a name lookup.
    let capture = demo_capture("listen.dsspycap");
    let capture = capture.to_str().expect("utf-8 temp path");
    let out = dsspy(&["telemetry", "serve", capture, "--addr", "192.0.2.1:9464"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot listen on 192.0.2.1:9464: "),
        "{stderr}"
    );
    assert!(!stderr.contains("cannot write"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_failed_save_is_reported_as_a_write_failure() {
    let out = dsspy(&["demo", "/dev/full"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write capture"), "{stderr}");
    assert!(!stderr.contains("cannot read capture"), "{stderr}");
}

#[test]
fn diff_output_does_not_depend_on_threads() {
    let dir = std::env::temp_dir().join(format!("dsspy-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let before = dir.join("diff-before.dsspycap");
    let after = dir.join("diff-after.dsspycap");
    cmd_demo(&before, Some("WordWheelSolver"), false, None, false).expect("demo capture");
    cmd_demo(&after, Some("Mandelbrot"), false, None, false).expect("demo capture");
    let (before, after) = (before.to_str().unwrap(), after.to_str().unwrap());
    let run = |threads: &str| {
        let out = dsspy(&["diff", before, after, "--threads", threads]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let one = run("1");
    assert!(!one.is_empty());
    assert_eq!(one, run("2"), "diff --threads 1 and 2 differ");
}
