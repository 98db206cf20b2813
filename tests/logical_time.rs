//! Integration: event time is the session's logical clock.
//!
//! Every access event carries one timestamp, the session-global tick `seq`,
//! and no wall-clock reading. Recording a program twice therefore yields the
//! same events and the same report, however loaded the host is, and the
//! runtime-share verdicts (Long-Insert's "> 30 % of runtime") cannot move
//! with CPU contention. The margin test pins how far the two Table V
//! Long-Insert sites sit above the 0.30 threshold, so a workload edit that
//! erodes it fails here instead of silently dropping a Table IV row.

use dsspy::collect::{Capture, Session};
use dsspy::core::{Dsspy, Report};
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
