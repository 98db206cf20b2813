//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * miner `min_run_len` — how much does the run filter cost/save?
//! * classifier thresholds — detection cost across strict/default/lenient
//!   settings (the paper tuned its thresholds on the 23-program set);
//! * collector channel mode — unbounded (paper's design) vs bounded;
//! * thread interleaving in the analysis fold — the fold caches the current
//!   thread's slot, so its cost should not depend on how often the thread
//!   changes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsspy_collect::{Session, SessionConfig};
use dsspy_collections::{site, SpyVec};
use dsspy_events::ThreadTag;
use dsspy_patterns::{analyze, IncrementalAnalyzer, MinerConfig};
use dsspy_usecases::{classify, Thresholds};
use dsspy_workloads::traces::TraceBuilder;

fn mixed_profile() -> dsspy_events::RuntimeProfile {
    let mut b = TraceBuilder::new();
    b.append_phase(2_000, 50);
    for _ in 0..12 {
        b.scan_forward(10);
        b.random_reads(500, 10);
    }
    b.searches(1_500, 10);
    b.build(dsspy_workloads::traces::synth_instance(
        "ablate",
        0,
        dsspy_events::DsKind::List,
    ))
}

fn bench_min_run_len(c: &mut Criterion) {
    let profile = mixed_profile();
    let mut group = c.benchmark_group("ablation/min_run_len");
    for min_run_len in [2usize, 3, 8, 32] {
        group.bench_with_input(
            BenchmarkId::from_parameter(min_run_len),
            &min_run_len,
            |b, &m| {
                let config = MinerConfig { min_run_len: m };
                b.iter(|| std::hint::black_box(analyze(&profile, &config).patterns.len()))
            },
        );
    }
    group.finish();
}

fn bench_threshold_settings(c: &mut Criterion) {
    let profile = mixed_profile();
    let analysis = analyze(&profile, &MinerConfig::default());
    let strict = Thresholds {
        li_min_run_len: 1_000,
        fs_min_search_ops: 10_000,
        flr_min_read_patterns: 50,
        ..Thresholds::default()
    };
    let lenient = Thresholds {
        li_min_run_len: 10,
        li_min_phase_share: 0.05,
        fs_min_search_ops: 10,
        flr_min_read_patterns: 2,
        flr_min_coverage: 0.1,
        ..Thresholds::default()
    };
    let mut group = c.benchmark_group("ablation/thresholds");
    for (name, t) in [
        ("default", Thresholds::default()),
        ("strict", strict),
        ("lenient", lenient),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &t, |b, t| {
            b.iter(|| std::hint::black_box(classify(&profile.instance, &analysis, t).len()))
        });
    }
    group.finish();
}

fn bench_channel_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/collector_channel");
    let n = 50_000u64;
    for (name, capacity) in [("unbounded", None), ("bounded_1k", Some(1_024usize))] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &capacity, |b, &cap| {
            b.iter(|| {
                let session = Session::builder()
                    .config(SessionConfig {
                        batch_size: 1_024,
                        channel_capacity: cap,
                    })
                    .start();
                let mut v = SpyVec::register_with_capacity(&session, site!("ablate"), n as usize);
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

fn bench_fold_threads(c: &mut Criterion) {
    let events = mixed_profile().events;
    let mut group = c.benchmark_group("ablation/fold_threads");
    group.throughput(Throughput::Elements(events.len() as u64));
    // Event k runs on thread (k / burst) % threads.
    for (name, threads, burst) in [
        ("one_thread", 1, 1),
        ("two_switch_every_event", 2, 1),
        ("eight_bursts_of_64", 8, 64),
    ] {
        let mut events = events.clone();
        for (k, e) in events.iter_mut().enumerate() {
            e.thread = ThreadTag((k / burst % threads) as u32);
        }
        group.bench_with_input(BenchmarkId::from_parameter(name), &events, |b, events| {
            b.iter(|| {
                let mut fold = IncrementalAnalyzer::new(&MinerConfig::default());
                for e in events {
                    fold.fold(e);
                }
                std::hint::black_box(fold.event_count())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_min_run_len,
    bench_threshold_settings,
    bench_channel_mode,
    bench_fold_threads
);
criterion_main!(benches);
