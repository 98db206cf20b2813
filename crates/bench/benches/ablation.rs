//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * miner `min_run_len` — how much does the run filter cost/save?
//! * classifier thresholds — detection cost across strict/default/lenient
//!   settings (the paper tuned its thresholds on the 23-program set);
//! * collector channel mode — unbounded (paper's design) vs bounded;
//! * thread interleaving in the analysis fold — the fold caches the current
//!   thread's slot, so its cost should not depend on how often the thread
//!   changes;
//! * chunked folds and their merge — analysis folds `CHUNK_EVENTS`-event
//!   units apart and merges them; a merge replays a track only while the
//!   track's state still depends on the events before the unit, so the
//!   worst case (a read track that never re-syncs) costs at most one more
//!   pass of the miner over the unit.

use std::borrow::Cow;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsspy_collect::{Session, SessionConfig};
use dsspy_collections::{site, SpyVec};
use dsspy_core::{AnalysisConfig, InstanceFold};
use dsspy_events::encode::CHUNK_EVENTS;
use dsspy_events::{AccessEvent, AccessKind, ThreadTag};
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
    for (name, capacity) in [("default_cap", None), ("cap_1k", Some(1_024usize))] {
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

/// Fold `events` straight through one [`InstanceFold`].
fn straight_fold(events: &[AccessEvent], config: &AnalysisConfig) -> InstanceFold {
    let mut fold = InstanceFold::new(config);
    for e in events {
        fold.fold(e);
    }
    fold
}

/// Fold `events` the way analysis does: `CHUNK_EVENTS`-event units folded
/// on `threads` workers, then merged left to right. Returns the fold and
/// the events the merges replayed.
fn chunked_fold(
    events: &[AccessEvent],
    config: &AnalysisConfig,
    threads: usize,
) -> (InstanceFold, usize) {
    let units: Vec<&[AccessEvent]> = events.chunks(CHUNK_EVENTS).collect();
    let folds = dsspy_parallel::par_map_weighted(
        &units,
        threads,
        |unit| unit.len(),
        || (),
        |_, unit| straight_fold(unit, config),
    );
    let mut folds = folds.into_iter().zip(&units);
    let (mut fold, _) = folds.next().expect("at least one unit");
    let mut replayed = 0;
    for (next, unit) in folds {
        replayed += fold.merge(next, || Cow::Borrowed(*unit));
    }
    (fold, replayed)
}

fn bench_merge(c: &mut Criterion) {
    let n = 4 * CHUNK_EVENTS + 1;
    let read = |k: usize, index: u32, thread: u32| AccessEvent {
        thread: ThreadTag(thread),
        ..AccessEvent::at(k as u64, AccessKind::Read, index, 1 << 20)
    };
    let streams: [(&str, Vec<AccessEvent>); 3] = [
        // The common case: one long forward scan across every boundary.
        ("scan", (0..n).map(|k| read(k, k as u32, 0)).collect()),
        // 9, 4, 5, 4, 5, ...: read pairs whose cut depends on where the
        // stream started. Every unit boundary falls inside a pair, so no
        // track ever re-syncs and every merge replays its whole unit.
        (
            "never_syncing",
            (0..n)
                .map(|k| read(k, if k == 0 { 9 } else { 4 + (k % 2 == 0) as u32 }, 0))
                .collect(),
        ),
        // A thread switch on every event, eight threads round robin, each
        // scanning its own range.
        (
            "switch_every_event",
            (0..n)
                .map(|k| read(k, (k / 8) as u32, (k % 8) as u32))
                .collect(),
        ),
    ];
    let config = AnalysisConfig::default();
    let mut group = c.benchmark_group("ablation/merge");
    group.throughput(Throughput::Elements(n as u64));
    for (name, events) in &streams {
        let report = |fold: &InstanceFold| {
            let info =
                dsspy_workloads::traces::synth_instance("merge", 0, dsspy_events::DsKind::List);
            format!("{:?}", fold.report(&info, &config))
        };
        let want = report(&straight_fold(events, &config));
        for threads in [1, 2] {
            assert_eq!(
                report(&chunked_fold(events, &config, threads).0),
                want,
                "{name}"
            );
        }
        group.bench_with_input(BenchmarkId::new("straight", name), events, |b, events| {
            b.iter(|| straight_fold(events, &config).out_of_order())
        });
        for threads in [1, 2] {
            group.bench_with_input(
                BenchmarkId::new(format!("chunked_w{threads}"), name),
                events,
                |b, events| b.iter(|| chunked_fold(events, &config, threads).1),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_min_run_len,
    bench_threshold_settings,
    bench_channel_mode,
    bench_fold_threads,
    bench_merge
);
criterion_main!(benches);
