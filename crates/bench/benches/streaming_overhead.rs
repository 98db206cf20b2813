//! Streaming-cost benches: the price of analyzing while collecting.
//!
//! The acceptance bar for `dsspy-stream` is that the *tap-disabled* path —
//! a plain session with no tap installed — costs exactly what it did before
//! the tap API existed: `tap_disabled` here must track the collector bench's
//! `instrumented_spyvec_fill` within noise. `tap_enabled` then shows what a
//! live `StreamingAnalyzer` adds on the collector thread (the producer side
//! is untouched either way: handles never see the tap).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dsspy_collect::Session;
use dsspy_collections::{site, SpyVec};
use dsspy_core::Dsspy;
use dsspy_events::{AccessEvent, AccessKind};
use dsspy_stream::{StreamConfig, StreamingAnalyzer};

fn fill(session: &Session, n: u64) -> u64 {
    let mut v = SpyVec::register_with_capacity(session, site!("bench"), n as usize);
    for i in 0..n {
        v.add(i);
    }
    drop(v);
    n
}

fn bench_collector_thread(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream/session");
    let n = 10_000u64;
    group.throughput(Throughput::Elements(n));

    group.bench_function("tap_disabled", |b| {
        b.iter(|| {
            let session = Session::new();
            fill(&session, n);
            std::hint::black_box(session.finish().event_count())
        })
    });

    group.bench_function("tap_enabled", |b| {
        b.iter(|| {
            let streaming =
                StreamingAnalyzer::new(Dsspy::new().with_threads(1), StreamConfig::default());
            let session = streaming.attach(Vec::new());
            fill(&session, n);
            let count = session.finish().event_count();
            std::hint::black_box((count, streaming.stats().snapshots))
        })
    });
    group.finish();
}

fn bench_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream/fold");
    let n = 10_000u64;
    group.throughput(Throughput::Elements(n));

    // The incremental fold in isolation: one instance, one big pre-built
    // batch, no channel or collector thread in the way.
    group.bench_function("fold_batch", |b| {
        let events: Vec<AccessEvent> = (0..n)
            .map(|i| AccessEvent::at(i, AccessKind::Insert, i as u32, i as u32 + 1))
            .collect();
        b.iter(|| {
            let streaming =
                StreamingAnalyzer::new(Dsspy::new().with_threads(1), StreamConfig::default());
            streaming.register_instance(dsspy_events::InstanceInfo::new(
                dsspy_events::InstanceId(1),
                dsspy_events::AllocationSite::new("Bench", "fold", 1),
                dsspy_events::DsKind::List,
                "u64",
            ));
            streaming.fold_batch(dsspy_events::InstanceId(1), &events, 0);
            std::hint::black_box(streaming.stats().events)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_collector_thread, bench_fold);
criterion_main!(benches);
