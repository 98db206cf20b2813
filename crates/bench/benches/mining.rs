//! Post-mortem analysis throughput: the pattern/metric fold alone, then
//! the fold plus use-case classification, over profiles of increasing size. This is the phase the
//! paper runs "within several minutes" on whole programs (§I).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsspy_patterns::{analyze, MinerConfig};
use dsspy_usecases::{classify, Thresholds};
use dsspy_workloads::traces::TraceBuilder;

fn profile_of(events: u32) -> dsspy_events::RuntimeProfile {
    // A realistic mix: fill, repeated scans, searches, clears.
    let mut b = TraceBuilder::new();
    let chunk = (events / 10).max(10);
    b.append_phase(chunk, 50);
    for _ in 0..4 {
        b.scan_forward(10);
        b.random_reads(chunk / 2, 10);
        b.searches(chunk / 4, 10);
    }
    b.clear(50);
    b.append_phase(chunk, 50);
    b.scan_backward(10);
    b.build(dsspy_workloads::traces::synth_instance(
        "bench",
        0,
        dsspy_events::DsKind::List,
    ))
}

fn bench_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/analyze");
    for size in [1_000u32, 10_000, 100_000] {
        let profile = profile_of(size);
        group.throughput(Throughput::Elements(profile.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(profile.len()),
            &profile,
            |b, p| {
                b.iter(|| std::hint::black_box(analyze(p, &MinerConfig::default()).patterns.len()))
            },
        );
    }
    group.finish();
}

fn bench_full_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/analyze_and_classify");
    for size in [1_000u32, 10_000, 100_000] {
        let profile = profile_of(size);
        group.throughput(Throughput::Elements(profile.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(profile.len()),
            &profile,
            |b, p| {
                b.iter(|| {
                    let analysis = analyze(p, &MinerConfig::default());
                    std::hint::black_box(
                        classify(&p.instance, &analysis, &Thresholds::default()).len(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mining, bench_full_analysis);
criterion_main!(benches);
