//! A capture loaded from a file costs about 4 bytes per event in memory,
//! as a session's does: load keeps the file's sealed chunks after checking
//! their checksums, and analysis folds them without decoding the capture.
//! This file holds one test, so the process's peak resident memory
//! (`VmHWM`) is its own.

#![cfg(target_os = "linux")]

use dsspy::collect::{load_capture_with, save_capture, ReadOptions, Session, SessionConfig};
use dsspy::core::Dsspy;
use dsspy::events::{AccessKind, AllocationSite, DsKind, Target};

/// Peak resident memory of this process so far, in bytes.
fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("VmHWM in kB");
    kb * 1024
}

#[test]
fn loading_and_analyzing_a_saved_capture_costs_under_8_bytes_per_event() {
    const INSTANCES: u32 = 8;
    const EVENTS: u64 = 4 << 20;
    let before = vm_hwm_bytes();
    let dir = std::env::temp_dir().join(format!("dsspy-load-footprint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("footprint.dsspycap");
    {
        // Recorded as in `capture_footprint`: a bounded channel keeps the
        // batches in flight small, so recording peaks near the sealed bytes.
        let session = Session::builder()
            .config(SessionConfig {
                batch_size: 1024,
                channel_capacity: Some(16),
            })
            .start();
        let mut handles: Vec<_> = (0..INSTANCES)
            .map(|i| {
                let site = AllocationSite::new("Footprint", "load", i);
                session.register(site, DsKind::List, "u64")
            })
            .collect();
        for k in 0..EVENTS {
            let handle = &mut handles[(k / 4096 % u64::from(INSTANCES)) as usize];
            let index = (k % 1000) as u32;
            handle.record(AccessKind::Read, Target::Index(index), 1000);
        }
        drop(handles);
        save_capture(&session.finish(), &path).expect("save capture");
    }
    let opts = ReadOptions {
        threads: 0,
        ..ReadOptions::default()
    };
    let capture = load_capture_with(&path, &opts).expect("load capture");
    assert_eq!(capture.event_count() as u64, EVENTS);
    let report = Dsspy::new().analyze_capture(&capture);
    assert_eq!(report.instances.len(), INSTANCES as usize);
    let grown = vm_hwm_bytes().saturating_sub(before);
    std::fs::remove_dir_all(&dir).ok();
    let per_event = grown as f64 / EVENTS as f64;
    // The peak covers recording and load alike. Decoded at load, the
    // events alone would take 32 bytes each.
    assert!(
        per_event < 8.0,
        "peak resident memory grew {grown} bytes, {per_event:.2} per event"
    );
}
