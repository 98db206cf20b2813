//! Benches for the post-mortem support machinery: capture persistence
//! (write, read — framing and checksums — and read plus the row decode of
//! the first access to the profiles) and phase segmentation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsspy_collect::persist::{read_capture_with, write_capture, ReadOptions};
use dsspy_collect::Session;
use dsspy_events::{AccessKind, AllocationSite, DsKind, Target};
use dsspy_patterns::segment_phases;
use dsspy_workloads::traces::TraceBuilder;

fn capture_with(events_per_instance: u32, instances: u32) -> dsspy_collect::Capture {
    let session = Session::new();
    for i in 0..instances {
        let mut h = session.register(
            AllocationSite::new("Bench", "persist", i),
            DsKind::List,
            "u64",
        );
        for e in 0..events_per_instance {
            h.record(AccessKind::Insert, Target::Index(e), e + 1);
        }
    }
    session.finish()
}

fn bench_persist(c: &mut Criterion) {
    let capture = capture_with(10_000, 8);
    let mut encoded = Vec::new();
    write_capture(&capture, &mut encoded).unwrap();

    let mut group = c.benchmark_group("persist");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("write", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            write_capture(&capture, &mut buf).unwrap();
            std::hint::black_box(buf.len())
        })
    });
    let read = || read_capture_with(encoded.as_slice(), &ReadOptions::default()).unwrap();
    group.bench_function("read", |b| {
        b.iter(|| std::hint::black_box(read().event_count()))
    });
    group.bench_function("decode", |b| {
        b.iter(|| std::hint::black_box(read().profiles.decode().unwrap().len()))
    });
    group.finish();
}

fn bench_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/segment_phases");
    for size in [1_000u32, 100_000] {
        let mut b = TraceBuilder::new();
        for _ in 0..5 {
            b.append_phase(size / 10, 50);
            b.scan_forward(10);
            b.clear(50);
        }
        let profile = b.build(dsspy_workloads::traces::synth_instance(
            "bench",
            0,
            dsspy_events::DsKind::List,
        ));
        group.throughput(Throughput::Elements(profile.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(profile.len()),
            &profile,
            |bch, p| bch.iter(|| std::hint::black_box(segment_phases(p).len())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_persist, bench_phases);
criterion_main!(benches);
