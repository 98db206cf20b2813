//! The analysis pipeline: capture → patterns → use cases → report.
//!
//! Each instance's analysis (fold every event once into an
//! [`InstanceFold`], then snapshot → regularity gate → classify →
//! advisories) is independent of every other instance's, so the pipeline
//! dogfoods its own substrate: [`Dsspy::analyze_capture`] fans the
//! per-instance work out over [`dsspy_parallel::par_map`], which preserves
//! registration order — the resulting [`Report`] is byte-for-byte identical
//! no matter how many worker threads ran it.

use std::time::Instant;

use dsspy_collect::{Capture, Session, SessionConfig};
use dsspy_events::{InstanceInfo, Origin, RuntimeProfile};
use dsspy_patterns::{MinerConfig, RegularityConfig};
use dsspy_telemetry::{overhead::signals, OverheadReport, Telemetry};
use dsspy_usecases::{AdvisoryConfig, Thresholds};
use serde::{Deserialize, Serialize};

use crate::fold::InstanceFold;
use crate::report::{AnalysisTimings, InstanceReport, InstanceTiming, Report};

/// Configuration of the post-mortem analysis phases.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Pattern-miner tunables.
    pub miner: MinerConfig,
    /// Use-case thresholds (§III-B defaults).
    pub thresholds: Thresholds,
    /// Regularity-gate tunables (Table II).
    pub regularity: RegularityConfig,
    /// Selective-profiler mode (§IV): analyze only manually instrumented
    /// instances (`Session::register_manual` / `SpyVec::register_manual`).
    #[serde(default)]
    pub selective: bool,
    /// Misuse-advisory tunables (§II-A structural findings).
    #[serde(default = "AdvisoryConfig::default")]
    pub advisories: AdvisoryConfig,
    /// Worker threads for the per-instance analysis fan-out: `0` (the
    /// default) resolves to [`dsspy_parallel::default_threads`]; `1` runs
    /// the plain sequential loop on the calling thread.
    #[serde(default)]
    pub threads: usize,
}

impl AnalysisConfig {
    /// The worker count the analysis will actually use: an explicit
    /// `threads` setting, or one worker per core for `0`.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => dsspy_parallel::default_threads(),
            n => n,
        }
    }

    /// Whether an instance is analyzed and reported: every instance, or in
    /// selective mode only the manually instrumented ones.
    pub fn includes(&self, info: &InstanceInfo) -> bool {
        !self.selective || info.origin == Origin::Manual
    }
}

/// The DSspy tool: one value bundling session and analysis configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dsspy {
    /// Runtime-collection tunables.
    pub session: SessionConfig,
    /// Post-mortem analysis tunables.
    pub analysis: AnalysisConfig,
}

impl Dsspy {
    /// A DSspy instance with all defaults (the paper's thresholds).
    pub fn new() -> Dsspy {
        Dsspy::default()
    }

    /// Replace the use-case thresholds.
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Dsspy {
        self.analysis.thresholds = thresholds;
        self
    }

    /// Enable selective-profiler mode: only manually instrumented instances
    /// are analyzed and reported (§IV).
    pub fn selective(mut self) -> Dsspy {
        self.analysis.selective = true;
        self
    }

    /// Set the analysis worker-thread count (`0` = one per core, `1` =
    /// sequential). The report is identical for every value; only the wall
    /// clock changes.
    pub fn with_threads(mut self, threads: usize) -> Dsspy {
        self.analysis.threads = threads;
        self
    }

    /// Run `program` under a profiling session and analyze what it did.
    ///
    /// This is the full Fig. 4 pipeline in one call: the closure plays the
    /// instrumented program (create `Spy*` structures against the provided
    /// session and exercise them), and the returned [`Report`] is the
    /// *Advice* end of the pipeline.
    pub fn profile(&self, program: impl FnOnce(&Session)) -> Report {
        self.profile_with(program, &Telemetry::disabled())
    }

    /// [`Dsspy::profile`] under observation: the session's collector
    /// reports into `telemetry`, the analysis records per-instance spans,
    /// and the resulting report embeds the snapshot with Table IV-style
    /// overhead accounting. When `telemetry` carries an armed flight
    /// recorder ([`Telemetry::with_flight`]), every batch receipt, drop and
    /// queue-pressure crossing of the run lands in its causal ring; read it
    /// back with [`Telemetry::flight`] after this returns.
    pub fn profile_with(&self, program: impl FnOnce(&Session), telemetry: &Telemetry) -> Report {
        let session = Session::builder()
            .config(self.session)
            .telemetry(telemetry.clone())
            .start();
        program(&session);
        let capture = session.finish();
        self.analyze_capture_with(&capture, telemetry)
    }

    /// Post-mortem analysis of an existing capture (e.g. one loaded from
    /// disk or produced by a long-running session managed by the caller).
    ///
    /// Instances are analyzed independently on
    /// [`AnalysisConfig::resolved_threads`] workers; results are
    /// reassembled in registration order, so the report does not depend on
    /// the thread count.
    pub fn analyze_capture(&self, capture: &Capture) -> Report {
        self.analyze_capture_with(capture, &Telemetry::disabled())
    }

    /// [`Dsspy::analyze_capture`] under observation.
    ///
    /// Each instance's fold and report phases are recorded as
    /// `mine#i` / `classify#i` spans (category `analysis`, attributed to the
    /// worker thread that ran them — worker utilization and load imbalance
    /// of the fan-out fall out of those), the whole pass as an
    /// `analyze_capture` span (category `pipeline`). The report embeds the
    /// snapshot, with [`OverheadReport::account`] run against the capture's
    /// session duration. With a disabled handle this is exactly
    /// [`Dsspy::analyze_capture`]: no spans, no snapshot, `telemetry: None`.
    pub fn analyze_capture_with(&self, capture: &Capture, telemetry: &Telemetry) -> Report {
        let started = Instant::now();
        let pass_start_nanos = telemetry.now_nanos();
        let profiles: Vec<(usize, &RuntimeProfile)> = capture
            .profiles
            .iter()
            .filter(|profile| self.analysis.includes(&profile.instance))
            .enumerate()
            .collect();
        let threads = self.analysis.resolved_threads();
        telemetry.gauge("analysis.threads").set(threads as u64);
        telemetry
            .counter("analysis.instances")
            .add(profiles.len() as u64);
        let analyze_indexed =
            |&(idx, profile): &(usize, &RuntimeProfile)| self.analyze_one(idx, profile, telemetry);
        let analyzed = if threads <= 1 {
            profiles.iter().map(analyze_indexed).collect()
        } else {
            dsspy_parallel::par_map(&profiles, threads, analyze_indexed)
        };
        let mut instances = Vec::with_capacity(analyzed.len());
        let mut per_instance = Vec::with_capacity(analyzed.len());
        for (report, timing) in analyzed {
            instances.push(report);
            per_instance.push(timing);
        }
        let mut report = Report {
            instances,
            stats: capture.stats,
            session_nanos: capture.session_nanos,
            timings: AnalysisTimings {
                per_instance,
                wall_nanos: started.elapsed().as_nanos() as u64,
                threads,
            },
            telemetry: None,
        };
        if telemetry.is_enabled() {
            // Recorded directly (not as a guard) so the workers' per-
            // instance spans stay at depth 0 — the wall-clock span of the
            // pass lives in its own category.
            telemetry.record_span(
                signals::PIPELINE_CAT,
                "analyze_capture",
                pass_start_nanos,
                telemetry.now_nanos().saturating_sub(pass_start_nanos),
            );
            let mut snapshot = telemetry.snapshot();
            snapshot.overhead = Some(OverheadReport::account(&snapshot, capture.session_nanos));
            report.telemetry = Some(snapshot);
        }
        report
    }

    /// The per-instance unit of work: fold every event once, then report
    /// from the fold — with each phase timed (and recorded as `mine#idx` /
    /// `classify#idx` spans when observed).
    fn analyze_one(
        &self,
        idx: usize,
        profile: &RuntimeProfile,
        telemetry: &Telemetry,
    ) -> (InstanceReport, InstanceTiming) {
        let mining = Instant::now();
        let span = telemetry.span_lazy(signals::ANALYSIS_CAT, || format!("mine#{idx}"));
        let mut fold = InstanceFold::new(&self.analysis);
        for e in &profile.events {
            fold.fold(e);
        }
        drop(span);
        let mining_nanos = mining.elapsed().as_nanos() as u64;

        let classify_started = Instant::now();
        let span = telemetry.span_lazy(signals::ANALYSIS_CAT, || format!("classify#{idx}"));
        let report = fold.report(&profile.instance, &self.analysis);
        drop(span);
        let classify_nanos = classify_started.elapsed().as_nanos() as u64;

        (
            report,
            InstanceTiming {
                mining_nanos,
                classify_nanos,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_collections::{site, SpyQueue, SpyVec};
    use dsspy_usecases::UseCaseKind;

    #[test]
    fn pipeline_detects_long_insert_end_to_end() {
        let report = Dsspy::new().profile(|session| {
            let mut list = SpyVec::register(session, site!("fill"));
            for i in 0..500 {
                list.add(i);
            }
        });
        assert_eq!(report.instance_count(), 1);
        let cases = report.all_use_cases();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].kind, UseCaseKind::LongInsert);
    }

    #[test]
    fn untouched_instances_stay_unflagged() {
        let report = Dsspy::new().profile(|session| {
            let _idle: SpyVec<i32> = SpyVec::register(session, site!("idle"));
            let mut hot = SpyVec::register(session, site!("hot"));
            for i in 0..500 {
                hot.add(i);
            }
        });
        assert_eq!(report.instance_count(), 2);
        assert_eq!(report.flagged_instance_count(), 1);
        assert!((report.search_space_reduction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn queue_usage_on_a_list_flagged_iq_but_not_on_a_queue() {
        let report = Dsspy::new().profile(|session| {
            // Misuse: a list as a queue.
            let mut list = SpyVec::register(session, site!("list_as_queue"));
            for i in 0..100 {
                list.add(i);
                if list.len() > 2 {
                    list.remove_at(0);
                }
            }
            // Proper queue: same traffic shape.
            let mut q = SpyQueue::register(session, site!("real_queue"));
            for i in 0..100 {
                q.enqueue(i);
                if q.len() > 2 {
                    q.dequeue();
                }
            }
        });
        let iq: Vec<_> = report
            .all_use_cases()
            .into_iter()
            .filter(|u| u.kind == UseCaseKind::ImplementQueue)
            .collect();
        assert_eq!(iq.len(), 1);
        assert_eq!(iq[0].instance.site.method, "list_as_queue");
    }

    #[test]
    fn profile_with_an_armed_recorder_records_a_clean_flight_chain() {
        use dsspy_telemetry::FlightEventKind;
        let telemetry = Telemetry::enabled().with_flight(None);
        let report = Dsspy::new().profile_with(
            |session| {
                let mut list = SpyVec::register(session, site!("observed"));
                for i in 0..300 {
                    list.add(i);
                }
            },
            &telemetry,
        );
        assert_eq!(report.instance_count(), 1);
        let dump = telemetry.flight().dump();
        assert!(dump.incidents.is_empty(), "{:?}", dump.incidents);
        let sessions = dump.sessions();
        assert_eq!(sessions.len(), 1, "{sessions:?}");
        assert!(dump
            .events
            .iter()
            .any(|e| matches!(e.kind, FlightEventKind::BatchReceived { .. })));
        assert!(matches!(
            dump.events.last().map(|e| &e.kind),
            Some(FlightEventKind::SessionStop { .. })
        ));
    }

    #[test]
    fn analyze_capture_is_reusable() {
        let session = Session::new();
        {
            let mut list = SpyVec::register(&session, site!("x"));
            for i in 0..200 {
                list.add(i);
            }
        }
        let capture = session.finish();
        let dsspy = Dsspy::new();
        let r1 = dsspy.analyze_capture(&capture);
        let r2 = dsspy.analyze_capture(&capture);
        assert_eq!(r1.flagged_instance_count(), r2.flagged_instance_count());
        assert_eq!(r1.all_use_cases().len(), r2.all_use_cases().len());
    }
}

#[cfg(test)]
mod selective_tests {
    use super::*;
    use dsspy_collections::{site, SpyVec};

    #[test]
    fn selective_mode_reports_only_manual_instances() {
        let drive = |dsspy: Dsspy| {
            dsspy.profile(|session| {
                let mut auto = SpyVec::register(session, site!("auto_hot"));
                for i in 0..500 {
                    auto.add(i);
                }
                let mut manual = SpyVec::register_manual(session, site!("manual_hot"));
                for i in 0..500 {
                    manual.add(i);
                }
            })
        };
        let full = drive(Dsspy::new());
        assert_eq!(full.instance_count(), 2);
        assert_eq!(full.all_use_cases().len(), 2);

        let selective = drive(Dsspy::new().selective());
        assert_eq!(selective.instance_count(), 1);
        let cases = selective.all_use_cases();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].instance.site.method, "manual_hot");
    }
}
