//! Outside-in layer probes for the traced run: microloops over the
//! collector's public hot-path calls, and direct calls into the analysis
//! crates on the captures set-up wrote. Every rate divides by an event
//! count read back from the data the probe processed, and the probe checks
//! that count against what it fed in.

use std::hint::black_box;

use dsspy_collect::{load_capture_with, Capture, Session, SessionClock, SessionConfig};
use dsspy_core::Dsspy;
use dsspy_events::{AccessKind, AllocationSite, DsKind, Target};
use dsspy_patterns::{analyze, regularity};
use dsspy_stream::{SnapshotPolicy, StreamConfig, StreamingAnalyzer};
use dsspy_telemetry::{Telemetry, TelemetrySnapshot};
use dsspy_usecases::{advisories, classify};
use dsspy_workloads::{Mode, Scale};

use crate::bench::Bench;
use crate::metrics::median;

/// Repetitions of each microloop; the median is reported.
const REPS: usize = 3;
const RECORD_EVENTS: u64 = 1 << 21;
const CLOCK_CALLS: u64 = 1 << 22;
const SEQ_CALLS: u64 = 1 << 24;
const FLUSH_BATCH: u64 = 1024;
const FLUSHES: u64 = 1024;

/// Nanoseconds per call of the producer hot-path pieces.
pub struct Microloops {
    pub record_ns: f64,
    pub clock_ns: f64,
    pub seq_ns: f64,
    pub flush_ns_per_event: f64,
}

fn site(line: u32) -> AllocationSite {
    AllocationSite::new("perfbench", "microloop", line)
}

pub fn microloops(b: &mut Bench) -> Microloops {
    let mut record = Vec::new();
    let mut clock = Vec::new();
    let mut seq = Vec::new();
    let mut flush = Vec::new();
    for _ in 0..REPS {
        // InstanceHandle::record into a bare session, including the batch
        // ships every 1024 events.
        let session = Session::new();
        let mut h = session.register(site(1), DsKind::List, "u64");
        let ((), ns) = b.tracer.time("probe.record", RECORD_EVENTS, || {
            for i in 0..RECORD_EVENTS {
                h.record(AccessKind::Insert, Target::Index(i as u32), i as u32 + 1);
            }
        });
        drop(h);
        let stored = session.finish().stats.events;
        b.ensure(stored == RECORD_EVENTS, || {
            format!("record loop stored {stored} of {RECORD_EVENTS} events")
        });
        record.push(ns as f64 / RECORD_EVENTS as f64);

        let c = SessionClock::new();
        let ((calls, _), ns) = b.tracer.time("probe.clock", CLOCK_CALLS, || {
            let (mut calls, mut acc) = (0u64, 0u64);
            for _ in 0..CLOCK_CALLS {
                acc = acc.wrapping_add(black_box(&c).nanos());
                calls += 1;
            }
            (calls, black_box(acc))
        });
        b.ensure(calls == CLOCK_CALLS, || {
            format!("clock loop made {calls} calls")
        });
        clock.push(ns as f64 / CLOCK_CALLS as f64);

        let c = SessionClock::new();
        let ((), ns) = b.tracer.time("probe.seq", SEQ_CALLS, || {
            for _ in 0..SEQ_CALLS {
                black_box(black_box(&c).next_seq());
            }
        });
        let issued = c.seq_count();
        b.ensure(issued == SEQ_CALLS, || {
            format!("seq loop issued {issued} numbers")
        });
        seq.push(ns as f64 / SEQ_CALLS as f64);

        // InstanceHandle::flush of full 1024-event buffers; the batch size
        // sits one above so `record` never ships on its own.
        let session = Session::builder()
            .config(SessionConfig {
                batch_size: FLUSH_BATCH as usize + 1,
                channel_capacity: None,
            })
            .start();
        let mut h = session.register(site(2), DsKind::List, "u64");
        let (flush_ns, _) = b.tracer.time("probe.flush", FLUSHES * FLUSH_BATCH, || {
            let mut flush_ns = 0u64;
            for _ in 0..FLUSHES {
                for i in 0..FLUSH_BATCH {
                    h.record(
                        AccessKind::Read,
                        Target::Index(i as u32),
                        FLUSH_BATCH as u32,
                    );
                }
                let t = std::time::Instant::now();
                h.flush();
                flush_ns += t.elapsed().as_nanos() as u64;
            }
            flush_ns
        });
        drop(h);
        let stats = session.finish().stats;
        b.ensure(
            stats.events == FLUSHES * FLUSH_BATCH && stats.batches == FLUSHES,
            || {
                format!(
                    "flush loop stored {} events in {} batches",
                    stats.events, stats.batches
                )
            },
        );
        flush.push(flush_ns as f64 / stats.events.max(1) as f64);
    }
    Microloops {
        record_ns: median(&record),
        clock_ns: median(&clock),
        seq_ns: median(&seq),
        flush_ns_per_event: median(&flush),
    }
}

/// The event-dense programs under a bare session with telemetry enabled
/// and disabled, alternating. The enabled sessions' snapshots carry the
/// collector thread's own (program-reported) timings.
pub struct TelemetryProbe {
    /// Per dense program: median enabled and disabled session time, ns.
    pub enabled_ns: Vec<(usize, f64)>,
    pub disabled_ns: Vec<(usize, f64)>,
    pub events: u64,
    pub collector: TelemetrySnapshot,
}

pub fn telemetry_probe(b: &mut Bench) -> TelemetryProbe {
    const TELEMETRY_REPS: usize = 2;
    let dense: Vec<usize> = (0..b.programs.len())
        .filter(|&i| b.programs[i].dense)
        .collect();
    let mut collector = TelemetrySnapshot::default();
    let (mut enabled_ns, mut disabled_ns, mut events) = (Vec::new(), Vec::new(), 0);
    for &i in &dense {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for rep in 0..TELEMETRY_REPS {
            for enabled in [rep % 2 == 0, rep % 2 == 1] {
                let telemetry = if enabled {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                };
                let name = if enabled {
                    "probe.bare_enabled"
                } else {
                    "probe.bare_disabled"
                };
                let p = &b.programs[i];
                let (capture, ns) = b.tracer.time(name, 0, || {
                    let session = Session::builder().telemetry(telemetry.clone()).start();
                    p.workload.run(Scale::Full, Mode::Instrumented(&session));
                    session.finish()
                });
                let dropped = capture.stats.dropped;
                b.ensure(dropped == 0, || {
                    format!("bare session dropped {dropped} events")
                });
                if enabled {
                    collector.merge(&telemetry.snapshot());
                    on.push(ns as f64);
                    if rep == 0 {
                        events += capture.stats.events;
                    }
                } else {
                    off.push(ns as f64);
                }
            }
        }
        enabled_ns.push((i, median(&on)));
        disabled_ns.push((i, median(&off)));
    }
    TelemetryProbe {
        enabled_ns,
        disabled_ns,
        events,
        collector,
    }
}

/// Direct calls into `dsspy-patterns`, `dsspy-usecases` and `dsspy-core`
/// on every capture; times in ns summed over the seven captures.
#[derive(Default)]
pub struct AnalysisProbe {
    pub events: u64,
    pub mine_ns: u64,
    pub regularity_ns: u64,
    pub classify_ns: u64,
    pub advisories_ns: u64,
    pub analyze_t1_ns: u64,
    pub analyze_tn_ns: u64,
    pub json_ns: u64,
    /// Share of the largest instance in the per-instance time of the
    /// capture that takes longest to analyze.
    pub max_instance_share: f64,
}

fn load(b: &mut Bench, i: usize) -> Option<Capture> {
    let fx = &b.fixtures[i];
    let (loaded, _) = b
        .tracer
        .time("decode", fx.events, || load_capture_with(&fx.path, &b.read));
    match loaded {
        Ok(capture) => {
            let (got, want) = (capture.event_count() as u64, fx.events);
            b.ensure(got == want, || {
                format!("capture holds {got} events, set-up wrote {want}")
            });
            Some(capture)
        }
        Err(e) => {
            let what = format!("probe cannot load {}: {e}", fx.path.display());
            b.ensure(false, || what);
            None
        }
    }
}

pub fn analysis_probe(b: &mut Bench) -> AnalysisProbe {
    let mut out = AnalysisProbe::default();
    let mut slowest_total = 0u64;
    let sequential = Dsspy {
        analysis: dsspy_core::AnalysisConfig {
            threads: 1,
            ..b.dsspy.analysis
        },
        ..b.dsspy
    };
    for i in 0..b.programs.len() {
        let Some(capture) = load(b, i) else { continue };
        let events = capture.event_count() as u64;
        let config = b.dsspy.analysis;
        let t = &b.tracer;
        let (analyses, ns) = t.time("patterns.analyze", events, || {
            capture
                .profiles
                .iter()
                .map(|p| analyze(p, &config.miner))
                .collect::<Vec<_>>()
        });
        out.mine_ns += ns;
        let (verdicts, ns) = t.time("patterns.regularity", events, || {
            analyses
                .iter()
                .map(|a| regularity(a, &config.regularity))
                .collect::<Vec<_>>()
        });
        out.regularity_ns += ns;
        let (cases, ns) = t.time("usecases.classify", events, || {
            capture
                .profiles
                .iter()
                .zip(&analyses)
                .map(|(p, a)| classify(&p.instance, a, &config.thresholds).len())
                .sum::<usize>()
        });
        out.classify_ns += ns;
        let (_, ns) = t.time("usecases.advisories", events, || {
            capture
                .profiles
                .iter()
                .map(|p| advisories(p, &config.advisories))
                .collect::<Vec<_>>()
        });
        out.advisories_ns += ns;
        let (t1, ns) = t.time("core.analyze_t1", events, || {
            sequential.analyze_capture(&capture)
        });
        out.analyze_t1_ns += ns;
        let (tn, ns) = t.time("core.analyze_tn", events, || {
            b.dsspy.analyze_capture(&capture)
        });
        out.analyze_tn_ns += ns;
        let (json, ns) = t.time("core.report_json", events, || {
            serde_json::to_string_pretty(&tn)
        });
        out.json_ns += ns;
        black_box(verdicts);
        out.events += events;

        let expected = b.programs[i].expected;
        let agree = black_box(json).is_ok()
            && cases == t1.all_use_cases().len()
            && crate::oracle::check_detection(expected, &t1).is_ok()
            && crate::oracle::check_detection(expected, &tn).is_ok();
        let name = b.programs[i].name;
        b.ensure(agree, || {
            format!("direct calls and analyze_capture disagree on {name}")
        });
        let per_instance: Vec<u64> = tn
            .timings
            .per_instance
            .iter()
            .map(|t| t.total_nanos())
            .collect();
        let total: u64 = per_instance.iter().sum();
        if total > slowest_total {
            slowest_total = total;
            let largest = per_instance.iter().copied().max().unwrap_or(0);
            out.max_instance_share = largest as f64 / total as f64;
        }
    }
    out
}

/// `StreamingAnalyzer::fold_batch` replay of the dense programs' captures
/// in 1024-event batches with snapshots switched off, then one
/// `StreamingAnalyzer::report`.
#[derive(Default)]
pub struct StreamProbe {
    pub events: u64,
    pub fold_ns: u64,
    pub report_ns: u64,
}

pub fn stream_probe(b: &mut Bench) -> StreamProbe {
    let mut out = StreamProbe::default();
    let config = StreamConfig {
        snapshots: SnapshotPolicy {
            every_batches: u64::MAX,
            ..SnapshotPolicy::default()
        },
        ..StreamConfig::default()
    };
    for i in 0..b.programs.len() {
        if !b.programs[i].dense {
            continue;
        }
        let Some(capture) = load(b, i) else { continue };
        let analyzer = StreamingAnalyzer::new(b.dsspy, config);
        for p in &capture.profiles {
            analyzer.register_instance(p.instance.clone());
        }
        let events = capture.event_count() as u64;
        let t = &b.tracer;
        let ((), ns) = t.time("stream.fold", events, || {
            for p in &capture.profiles {
                for chunk in p.events.chunks(1024) {
                    analyzer.fold_batch(p.instance.id, chunk, 0);
                }
            }
        });
        out.fold_ns += ns;
        let (report, ns) = t.time("stream.report", events, || analyzer.report());
        out.report_ns += ns;
        black_box(report);
        let folded = analyzer.stats().events;
        b.ensure(folded == events, || {
            format!("stream folded {folded} of {events} events")
        });
        out.events += folded;
    }
    out
}
