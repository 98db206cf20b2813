//! `repro` checks every artifact request before it runs one: a request it
//! would drop or repeat prints usage and exits 2 with nothing reproduced,
//! and a chart or telemetry file it cannot write exits 1 naming the path.

use std::process::{Command, Output};

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
