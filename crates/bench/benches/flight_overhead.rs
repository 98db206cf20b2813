//! Flight-recorder cost benches: what causal tracing adds to collection.
//!
//! The acceptance bar: the *recorder-disabled* path — a plain session built
//! through `Session::builder()` with the default disabled telemetry handle,
//! whose flight recorder is therefore disabled too — must track the plain
//! collector throughput (`telemetry/session/disabled`) within noise, since
//! the disabled recorder is one branch on a pointer-sized option per edge.
//!
//! The recorder lives inside a [`Telemetry`] handle
//! ([`Telemetry::with_flight`]), so `recorder_enabled` also enables
//! telemetry: compare it with `telemetry/session/enabled`, not with
//! `recorder_disabled`, to read the ring's own price on the collector
//! thread (a mutex push per batch receipt). `recorder_enabled_fanout` shows
//! the full live price, with the streaming analyzer attached and its tap
//! dispatch edges recorded too.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dsspy_collect::Session;
use dsspy_collections::{site, SpyVec};
use dsspy_core::Dsspy;
use dsspy_stream::{StreamConfig, StreamingAnalyzer};
use dsspy_telemetry::Telemetry;

fn fill(session: &Session, n: u64) -> u64 {
    let mut v = SpyVec::register_with_capacity(session, site!("bench"), n as usize);
    for i in 0..n {
        v.add(i);
    }
    drop(v);
    n
}

fn bench_flight(c: &mut Criterion) {
    let mut group = c.benchmark_group("flight/session");
    let n = 10_000u64;
    group.throughput(Throughput::Elements(n));

    // Pin: identical to telemetry/session/disabled — the recorder's
    // disabled handle must not move collector throughput.
    group.bench_function("recorder_disabled", |b| {
        b.iter(|| {
            let session = Session::builder().start();
            fill(&session, n);
            std::hint::black_box(session.finish().event_count())
        })
    });

    // The ring on an enabled handle: every batch receipt recorded, no tap
    // installed.
    group.bench_function("recorder_enabled", |b| {
        b.iter(|| {
            let telemetry = Telemetry::enabled().with_flight(None);
            let session = Session::builder().telemetry(telemetry.clone()).start();
            fill(&session, n);
            let count = session.finish().event_count();
            std::hint::black_box((count, telemetry.flight().dump().events.len()))
        })
    });

    // The full live picture: ring + streaming analyzer behind a fan-out,
    // every dispatch edge recorded.
    group.bench_function("recorder_enabled_fanout", |b| {
        b.iter(|| {
            let telemetry = Telemetry::enabled().with_flight(None);
            let streaming = StreamingAnalyzer::with_telemetry(
                Dsspy::new().with_threads(1),
                StreamConfig::default(),
                telemetry.clone(),
            );
            let session = streaming.attach(Vec::new());
            fill(&session, n);
            let count = session.finish().event_count();
            std::hint::black_box((count, telemetry.flight().dump().events.len()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_flight);
criterion_main!(benches);
