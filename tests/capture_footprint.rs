//! A session's capture costs about 4 bytes per event in memory: the
//! collector encodes each batch on arrival, and analysis folds the sealed
//! chunks without decoding the capture. This file holds one test, so the
//! process's peak resident memory (`VmHWM`) is its own.

#![cfg(target_os = "linux")]

use dsspy::collect::{Session, SessionConfig};
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
fn recording_and_analyzing_a_session_costs_under_8_bytes_per_event() {
    const INSTANCES: u32 = 8;
    const EVENTS: u64 = 4 << 20;
    let before = vm_hwm_bytes();
    // A bounded channel keeps the batches in flight to a few hundred
    // kilobytes, so the peak measures the store, not a backlog.
    let session = Session::builder()
        .config(SessionConfig {
            batch_size: 1024,
            channel_capacity: Some(16),
        })
        .start();
    let mut handles: Vec<_> = (0..INSTANCES)
        .map(|i| {
            let site = AllocationSite::new("Footprint", "fill", i);
            session.register(site, DsKind::List, "u64")
        })
        .collect();
    for k in 0..EVENTS {
        let handle = &mut handles[(k / 4096 % u64::from(INSTANCES)) as usize];
        let index = (k % 1000) as u32;
        handle.record(AccessKind::Read, Target::Index(index), 1000);
    }
    drop(handles);
    let capture = session.finish();
    assert_eq!(capture.event_count() as u64, EVENTS);
    let report = Dsspy::new().analyze_capture(&capture);
    assert_eq!(report.instances.len(), INSTANCES as usize);
    let grown = vm_hwm_bytes().saturating_sub(before);
    let per_event = grown as f64 / EVENTS as f64;
    // Decoded, the events alone would take 32 bytes each.
    assert!(
        per_event < 8.0,
        "peak resident memory grew {grown} bytes, {per_event:.2} per event"
    );
}
