//! A capture whose rows do not decode behind a matching checksum — only a
//! forged file can be like that — passes the load-time checksum check, so
//! the failure surfaces where the rows are decoded: in the analysis fold or
//! in the first read of the profiles. Every command that reads the file
//! must still exit 1 naming the instance, never 101 from a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

use dsspy_cli::cmd_demo;

fn dsspy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsspy"))
        .args(args)
        .output()
        .expect("run dsspy")
}

fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn u64_at(buf: &[u8], at: usize) -> usize {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize
}

/// The chunk checksum of the capture codec: `s1 + 2·s2` over the rows read
/// as little-endian 32-bit words, the last one zero-padded.
fn checksum(rows: &[u8]) -> u32 {
    let (mut s1, mut s2) = (0u32, 0u32);
    for word in rows.chunks(4) {
        let mut padded = [0u8; 4];
        padded[..word.len()].copy_from_slice(word);
        s1 = s1.wrapping_add(u32::from_le_bytes(padded));
        s2 = s2.wrapping_add(s1);
    }
    s1.wrapping_add(s2.wrapping_mul(2))
}

/// A demo capture whose first non-empty body has bit 7 of its first row
/// head set (reserved, so the row does not decode) under a rewritten frame
/// checksum that matches the changed rows; with the index of that body.
fn forged_capture(dir: &std::path::Path) -> (PathBuf, usize) {
    let path = dir.join("forged.dsspycap");
    cmd_demo(&path, None, false, None, false).expect("demo capture");
    let mut buf = std::fs::read(&path).expect("read capture");
    let (mut at, mut body) = (20 + u64_at(&buf, 12), 0);
    while u64_at(&buf, at) == 0 {
        at += 8;
        body += 1;
    }
    // The body's first chunk: count, byte length and checksum, then rows.
    let frame = at + 8;
    let rows = frame + 12..frame + 12 + u32_at(&buf, frame + 4) as usize;
    assert_eq!(
        buf[rows.start] & 0x80,
        0,
        "a written row head keeps bit 7 clear"
    );
    buf[rows.start] |= 0x80;
    let sum = checksum(&buf[rows]);
    buf[frame + 8..frame + 12].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &buf).expect("write forged capture");
    (path, body)
}

#[test]
fn every_command_on_a_forged_capture_exits_1_naming_the_instance() {
    let dir = std::env::temp_dir().join(format!("dsspy-forged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (path, body) = forged_capture(&dir);
    let cap = path.to_str().expect("utf-8 temp path");
    let html = dir.join("report.html");
    let html = html.to_str().expect("utf-8 temp path");
    // A session's instance ids are their registration positions.
    let instance = format!("instance ds#{body}:");
    let commands: [&[&str]; 8] = [
        &["analyze", cap],
        &["analyze", cap, "--json"],
        &["report", cap, "--out", html],
        &["chart", cap],
        &["timeline", cap, "--instance", "0"],
        &["csv", cap, "usecases"],
        &["watch", cap, "--batch", "256", "--frames", "4"],
        &["doctor", cap],
    ];
    for args in commands {
        let out = dsspy(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&instance),
            "{args:?} names {instance}: {stderr}"
        );
        assert!(stderr.contains("reserved bit 7"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
