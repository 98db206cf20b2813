//! Integration: event time is a logical clock.
//!
//! Every access event carries one timestamp, the Lamport tick `seq` (the
//! later of its thread's tick and its instance's, see
//! `dsspy_collect::clock`), and no wall-clock reading. Recording a program
//! twice therefore yields the same events and the same report, however
//! loaded the host is, and the runtime-share verdicts (Long-Insert's
//! "> 30 % of runtime") cannot move with CPU contention or with how the
//! scheduler interleaves threads. On one thread the stamps are the order
//! the events were recorded in, `0..events`. The margin test pins how far
//! the two Table V Long-Insert sites sit above the 0.30 threshold, so a
//! workload edit that erodes it fails here instead of silently dropping a
//! Table IV row.

use std::sync::{Barrier, Mutex};

use dsspy::collect::{Capture, Session};
use dsspy::collections::{site, SpyVec};
use dsspy::core::{Dsspy, Report};
use dsspy::events::{AccessKind, AllocationSite, DsKind, Target};
use dsspy::usecases::UseCaseKind;
use dsspy_workloads::programs::gpdotnet::GpDotNet;
use dsspy_workloads::{suite7, Mode, Scale, Workload};

fn record(w: &dyn Workload, scale: Scale) -> (Capture, Report) {
    let session = Session::new();
    std::hint::black_box(w.run(scale, Mode::Instrumented(&session)));
    let capture = session.finish();
    let report = Dsspy::new().with_threads(1).analyze_capture(&capture);
    (capture, report)
}

#[test]
fn recording_a_program_twice_yields_identical_events_and_reports() {
    for w in suite7() {
        let name = w.spec().name;
        let (cap_a, rep_a) = record(w.as_ref(), Scale::Test);
        let (cap_b, rep_b) = record(w.as_ref(), Scale::Test);
        assert_eq!(cap_a.profiles.len(), cap_b.profiles.len(), "{name}");
        for (a, b) in cap_a.profiles.iter().zip(&cap_b.profiles) {
            assert_eq!(a.instance, b.instance, "{name}");
            assert!(
                a.events == b.events,
                "{name}: events of {} differ between two recordings",
                a.instance.site
            );
        }
        assert_eq!(
            serde_json::to_string(&rep_a.instances).unwrap(),
            serde_json::to_string(&rep_b.instances).unwrap(),
            "{name}: report differs between two recordings"
        );
    }
}

#[test]
fn gpdotnet_long_insert_sites_keep_their_margin() {
    for scale in [Scale::Test, Scale::Full] {
        let (_, report) = record(&GpDotNet, scale);
        for (method, line) in [(".ctor", 14), ("FitnessProportionateSelection", 68)] {
            let site = format!("CHPopulation.{method}:{line} at {scale:?}");
            let inst = report
                .instances
                .iter()
                .find(|r| {
                    r.instance.site.class == "GPdotNet.Engine.CHPopulation"
                        && r.instance.site.method == method
                        && r.instance.site.position == line
                })
                .unwrap_or_else(|| panic!("{site} was not profiled"));
            assert!(
                inst.use_cases
                    .iter()
                    .any(|u| u.kind == UseCaseKind::LongInsert),
                "{site} lost its Long-Insert verdict"
            );
            let share = inst.analysis.metrics.insert_phase_share;
            assert!(
                share >= 0.31,
                "{site}: insertion-phase share {share:.4} is within 0.01 of Long-Insert's \
                 0.30 threshold"
            );
        }
    }
}

#[test]
fn single_threaded_sessions_are_stamped_zero_to_events() {
    for w in suite7() {
        let name = w.spec().name;
        let (capture, _) = record(w.as_ref(), Scale::Test);
        let mut threads: Vec<_> = capture.profiles.iter().flat_map(|p| p.threads()).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 1, "{name} records on one thread");
        let mut stamps: Vec<u64> = capture
            .profiles
            .iter()
            .flat_map(|p| p.events.iter().map(|e| e.seq))
            .collect();
        stamps.sort_unstable();
        assert!(
            stamps.iter().copied().eq(0..capture.event_count() as u64),
            "{name}: the stamps are not exactly 0..{}",
            capture.event_count()
        );
    }
}

/// Each instance's site method and use cases, in report order.
fn verdicts(report: &Report) -> Vec<(&str, Vec<UseCaseKind>)> {
    report
        .instances
        .iter()
        .map(|r| {
            let kinds = r.use_cases.iter().map(|u| u.kind).collect();
            (r.instance.site.method.as_str(), kinds)
        })
        .collect()
}

#[test]
fn lockstep_threads_and_a_shared_list_get_fixed_verdicts() {
    const THREADS: usize = 4;
    let run = || {
        Dsspy::new().with_threads(1).profile(|session| {
            let shared = Mutex::new(SpyVec::register(session, site!("shared")));
            let barrier = Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let mut own = SpyVec::register(session, site!("own"));
                    let (shared, barrier) = (&shared, &barrier);
                    scope.spawn(move || {
                        // Round r: thread r fills its list while the other
                        // threads wait, so the fills come one after another.
                        for round in 0..THREADS {
                            barrier.wait();
                            if round == t {
                                for i in 0..300 {
                                    own.add(i);
                                }
                            }
                            barrier.wait();
                        }
                        // Then every thread reads its list at once, and all
                        // of them queue on the shared list.
                        let total: i64 = own.iter().sum();
                        assert_eq!(total, 299 * 150);
                        for i in 0..6 {
                            shared.lock().unwrap().add(i);
                        }
                    });
                }
            });
        })
    };
    // Each list's phases are spans of its own thread's ticks: the other
    // threads' fills and reads neither stretch nor shrink them. (Under one
    // session-wide counter they did, and from run to run between one and
    // all four lists lost their Long-Insert.)
    let mut want = vec![("shared", vec![])];
    want.extend(std::iter::repeat_n(
        ("own", vec![UseCaseKind::LongInsert]),
        THREADS,
    ));
    for round in 0..10 {
        let report = run();
        assert_eq!(verdicts(&report), want, "round {round}");
        let shared = &report.instances[0];
        assert_eq!(shared.analysis.metrics.total_events, 6 * THREADS);
        assert!(shared.analysis.threads.thread_count >= 2);
        for own in &report.instances[1..] {
            let m = &own.analysis.metrics;
            assert_eq!(m.total_events, 600, "round {round}");
            assert_eq!(m.duration_ticks, 599, "round {round}");
        }
    }
}

#[test]
fn sessions_alternating_on_one_thread_keep_each_instance_increasing() {
    let (a, b) = (Session::new(), Session::new());
    let site = |line| AllocationSite::new("Alternate", "main", line);
    let mut handles = [
        a.register(site(1), DsKind::List, "u32"),
        b.register(site(2), DsKind::List, "u32"),
        a.register(site(3), DsKind::List, "u32"),
        b.register(site(4), DsKind::List, "u32"),
    ];
    for round in 0..50u32 {
        // Each switch of session restarts this thread's tick for the
        // session it switches to.
        for (h, n) in handles.iter_mut().zip([3, 5, 1, 2]) {
            for i in 0..n {
                h.record(AccessKind::Insert, Target::Index(round * n + i), i + 1);
            }
        }
    }
    drop(handles);
    for capture in [a.finish(), b.finish()] {
        assert_eq!(capture.instance_count(), 2);
        for p in capture.profiles.iter() {
            assert!(!p.events.is_empty());
            assert!(
                p.events.windows(2).all(|w| w[0].seq < w[1].seq),
                "{}: stamps not strictly increasing",
                p.instance.site
            );
        }
    }
}
