//! Telemetry-cost benches: the price of the profiler watching itself.
//!
//! The cardinal rule of `dsspy-telemetry` is zero cost when disabled: an
//! unobserved session (the default) must record events at the same rate as
//! before the telemetry layer existed. These benches pin that down —
//! `disabled` vs. `enabled` sessions over the same fill workload, plus the
//! raw per-operation cost of the metric primitives themselves.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dsspy_collect::Session;
use dsspy_collections::{site, SpyVec};
use dsspy_telemetry::Telemetry;

fn fill_session(telemetry: Telemetry, n: u64) -> u64 {
    let session = Session::builder().telemetry(telemetry).start();
    let mut v = SpyVec::register_with_capacity(&session, site!("bench"), n as usize);
    for i in 0..n {
        v.add(i);
    }
    drop(v);
    session.finish().event_count() as u64
}

fn bench_session_observation(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/session");
    let n = 10_000u64;
    group.throughput(Throughput::Elements(n));

    // The acceptance bar: this must track `instrumented_spyvec_fill` in the
    // collector bench within noise (< 2%).
    group.bench_function("disabled", |b| {
        b.iter(|| std::hint::black_box(fill_session(Telemetry::disabled(), n)))
    });

    group.bench_function("enabled", |b| {
        b.iter(|| std::hint::black_box(fill_session(Telemetry::enabled(), n)))
    });
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/primitives");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));

    let disabled = Telemetry::disabled();
    let enabled = Telemetry::enabled();

    group.bench_function("counter_disabled", |b| {
        let counter = disabled.counter("bench.counter");
        b.iter(|| {
            for _ in 0..n {
                counter.inc();
            }
        })
    });
    group.bench_function("counter_enabled", |b| {
        let counter = enabled.counter("bench.counter");
        b.iter(|| {
            for _ in 0..n {
                counter.inc();
            }
        })
    });
    group.bench_function("histogram_disabled", |b| {
        let hist = disabled.histogram("bench.hist");
        b.iter(|| {
            for i in 0..n {
                hist.record(i);
            }
        })
    });
    group.bench_function("histogram_enabled", |b| {
        let hist = enabled.histogram("bench.hist");
        b.iter(|| {
            for i in 0..n {
                hist.record(i);
            }
        })
    });
    // One iteration opens 1 000 spans, not the group's 100 000 elements:
    // the throughput counts the spans actually opened.
    let spans = 1_000u64;
    group.throughput(Throughput::Elements(spans));
    group.bench_function("span_disabled", |b| {
        b.iter(|| {
            for i in 0..spans {
                drop(disabled.span_lazy("bench", || format!("span#{i}")));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_session_observation, bench_primitives);
criterion_main!(benches);
