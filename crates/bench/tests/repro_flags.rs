//! `repro` checks every artifact request before it runs one: a request it
//! would drop or repeat, a flag no selected artifact reads and a zero
//! count print usage and exit 2 with nothing reproduced; a chart or
//! telemetry file it cannot write exits 1 naming the path; a reader that
//! closes the pipe ends the run quietly; and a closed stderr keeps the exit
//! code.

use std::io::Read;
use std::process::{Command, Output, Stdio};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn requests_it_would_drop_or_repeat_exit_2_before_any_artifact() {
    let svg = std::env::temp_dir().join(format!("repro-flags-{}.svg", std::process::id()));
    let svg = svg.to_str().expect("utf-8 temp path");
    for (args, names) in [
        (&["--table", "1", "--svg", svg][..], "--svg"),
        (&["--figure", "1", "--table", "9"], "no table 9"),
        (&["--figure", "4"], "no figure 4"),
        (
            &["--all", "--table", "4"],
            "repro --all does not take --table",
        ),
        (
            &["--all", "--ablation"],
            "repro --all does not take --ablation",
        ),
        (&["--scale", "huge"], "--scale \"huge\""),
        (&["--runs", "x"], "--runs \"x\""),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} reproduced something");
    }
    assert!(!std::path::Path::new(svg).exists(), "no SVG written");
}

#[test]
fn a_flag_no_selected_artifact_reads_exits_2_before_any_artifact() {
    for (args, names) in [
        (
            &["--table", "1", "--runs", "9"][..],
            "(--table 1) reads --runs",
        ),
        (
            &["--table", "1", "--scale", "full"],
            "(--table 1) reads --scale",
        ),
        (
            &["--table", "6", "--threads", "2"],
            "(--table 6) reads --threads",
        ),
        (
            &["--figure", "2", "--scale", "full"],
            "(--figure 2) reads --scale",
        ),
        (
            &["--speedups", "--threads", "2"],
            "(--speedups) reads --threads",
        ),
        (&["--findings", "--runs", "3"], "(--findings) reads --runs"),
        (
            &["--table", "1", "--findings", "--threads", "2"],
            "(--table 1, --findings) reads --threads",
        ),
        (&["--runs", "0"], "--runs \"0\""),
        // No artifact named means `--all`, which writes no chart.
        (&["--svg", "x.svg"], "repro --all does not take --svg"),
        (&["--speedups", "--runs", "0"], "--runs \"0\""),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} reproduced something");
    }
}

#[test]
fn a_closed_pipe_ends_the_run_quietly() {
    let telemetry = std::env::temp_dir().join(format!("repro-pipe-{}.json", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--all", "--telemetry", telemetry.to_str().expect("utf-8")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run repro");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 1];
    stdout.read_exact(&mut first).expect("first byte");
    drop(stdout);

    let out = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "stderr must stay quiet: {stderr}");
    // The run stopped at the failed write: the telemetry export that
    // follows the last artifact never happened.
    assert!(!telemetry.exists(), "repro ran on after the pipe closed");
}

#[test]
fn a_closed_stderr_keeps_the_exit_code() {
    // The read end is gone before repro starts, so its usage message meets
    // a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--table", "1", "--svg", "x.svg"])
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("run repro");
    assert_eq!(status.code(), Some(2), "usage error, not a panic");
}

#[test]
fn a_failed_svg_write_exits_1_naming_the_path() {
    let out = repro(&["--figure", "1", "--svg", "/nonexistent-dir/fig1.svg"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot write /nonexistent-dir/fig1.svg: "),
        "{stderr}"
    );
}

#[test]
fn a_figure_with_its_svg_still_runs() {
    let svg = std::env::temp_dir().join(format!("repro-fig1-{}.svg", std::process::id()));
    let out = repro(&[
        "--figure",
        "1",
        "--svg",
        svg.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chart = std::fs::read_to_string(&svg).expect("SVG written");
    assert!(chart.starts_with("<svg"), "{chart}");
    std::fs::remove_file(&svg).expect("remove SVG");
}
