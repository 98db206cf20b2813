//! The provenance stamp printed with every result: host, toolchain, source
//! revision, load, seed and thread counts.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

use crate::Args;

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unavailable".into())
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// First line of a command's stdout; the command is waited for.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

/// FNV-1a over the path and bytes of every file under `roots`, in path
/// order: names the source the benchmark was built from when no git
/// revision is available.
fn source_digest(roots: &[&str]) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            files.push(dir.to_path_buf());
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

pub fn stamp(args: &Args, threads: usize, passes: usize, load_start: String) -> Value {
    let s = |v: String| Value::Str(v);
    Value::Map(vec![
        ("workload".into(), s(args.workload.name().into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("passes".into(), Value::U64(passes as u64)),
        ("nproc".into(), Value::U64(threads as u64)),
        ("analysis_threads".into(), Value::U64(threads as u64)),
        ("decode_threads".into(), Value::U64(threads as u64)),
        (
            "rustc".into(),
            s(first_line("rustc", &["-V"]).unwrap_or_else(|| "unavailable".into())),
        ),
        (
            "git_sha".into(),
            // Only this checkout's own repository: an enclosing one would
            // name the wrong source.
            s(Path::new(".git")
                .exists()
                .then(|| first_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unavailable".into())),
        ),
        (
            "source_digest".into(),
            s(source_digest(&[
                "Cargo.toml",
                "Cargo.lock",
                "crates",
                "vendor",
                "perfbench/src",
            ])),
        ),
        ("loadavg_start".into(), s(load_start)),
        ("loadavg_end".into(), s(loadavg())),
    ])
}
