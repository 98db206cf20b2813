//! A reader that closes the pipe early (`dsspy analyze ... | head -c 1`)
//! ends `dsspy`'s output quietly: exit 0, no panic, nothing on stderr. A
//! closed stderr keeps the exit code of the error it could not print.

use std::io::Read;
use std::process::{Command, Stdio};

use dsspy_cli::cmd_demo;

#[test]
fn analyze_json_into_a_closed_pipe_exits_quietly() {
    let dir = std::env::temp_dir().join(format!("dsspy-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // Gpdotnet's report (~97 KB of JSON) overflows the pipe buffer, so the
    // writer is still writing when the reader goes away.
    let capture = dir.join("gpdotnet.dsspycap");
    cmd_demo(&capture, Some("Gpdotnet"), false, None, false).expect("demo capture");

    let mut child = Command::new(env!("CARGO_BIN_EXE_dsspy"))
        .arg("analyze")
        .arg(&capture)
        .arg("--json")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run dsspy");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 1];
    stdout.read_exact(&mut first).expect("first byte");
    assert_eq!(&first, b"{");
    drop(stdout);

    let out = child.wait_with_output().expect("wait for dsspy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "stderr must stay quiet: {stderr}");
}

#[test]
fn a_closed_stderr_keeps_the_exit_code() {
    for (args, code) in [
        (&["analyze"][..], 2),
        (&["analyze", "missing.dsspycap"][..], 1),
    ] {
        // The read end is gone before dsspy starts, so its error message
        // meets a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_dsspy"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .expect("run dsspy");
        assert_eq!(status.code(), Some(code), "dsspy {args:?}");
    }
}
