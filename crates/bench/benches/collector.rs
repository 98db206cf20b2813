//! Collection-overhead benches: the "slowdown during data collection"
//! quantity of Table IV, isolated. Compares ghost-mode collections against
//! instrumented ones and sweeps the handle batch size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsspy_collect::{Session, SessionConfig};
use dsspy_collections::{site, SpyVec};

fn bench_record_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("collector/record");
    let n = 10_000u64;
    group.throughput(Throughput::Elements(n));

    group.bench_function("plain_spyvec_fill", |b| {
        b.iter(|| {
            let mut v = SpyVec::plain_with_capacity(n as usize);
            for i in 0..n {
                v.add(i);
            }
            std::hint::black_box(v.len())
        })
    });

    group.bench_function("instrumented_spyvec_fill", |b| {
        b.iter(|| {
            let session = Session::new();
            let mut v = SpyVec::register_with_capacity(&session, site!("bench"), n as usize);
            for i in 0..n {
                v.add(i);
            }
            drop(v);
            std::hint::black_box(session.finish().event_count())
        })
    });

    group.bench_function("raw_vec_fill", |b| {
        b.iter(|| {
            let mut v = Vec::with_capacity(n as usize);
            for i in 0..n {
                v.push(i);
            }
            std::hint::black_box(v.len())
        })
    });
    group.finish();
}

fn bench_batch_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("collector/batch_size");
    let n = 10_000u64;
    group.throughput(Throughput::Elements(n));
    for batch in [16usize, 128, 1024, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                let session = Session::builder()
                    .config(SessionConfig {
                        batch_size: batch,
                        channel_capacity: None,
                    })
                    .start();
                let mut v = SpyVec::register_with_capacity(&session, site!("bench"), n as usize);
                for i in 0..n {
                    v.add(i);
                }
                drop(v);
                std::hint::black_box(session.finish().event_count())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_record_overhead, bench_batch_size);
criterion_main!(benches);
