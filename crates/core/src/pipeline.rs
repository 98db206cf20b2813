//! The analysis pipeline: capture → patterns → use cases → report.
//!
//! Analysis is chunk-parallel. A capture holds each instance's sealed body,
//! whatever it came from, and every chunk of an analyzed instance's body
//! (at most [`CHUNK_EVENTS`](dsspy_events::encode::CHUNK_EVENTS) events) is
//! one *unit*; an instance with no events gets one empty unit. The units of
//! all instances, in order, are split into
//! [`AnalysisConfig::resolved_threads`] contiguous runs of near-equal event
//! count ([`dsspy_parallel::par_map_weighted`], the way capture decode
//! splits chunks), and each worker folds each of its units into a fresh
//! [`InstanceFold`]. Each instance's unit folds are then merged left to
//! right ([`InstanceFold::merge`]) and reported (snapshot → regularity gate
//! → classify → advisories). One instance that holds most of the events is
//! thus spread over every core, where a per-instance fan-out would leave
//! all but one idle.
//!
//! The units and the merge order are the same at every width, including 1,
//! so the [`Report`] is byte-for-byte identical no matter how many workers
//! ran it; the merge law (the merged fold of `a` and `b` is the fold of
//! `a ++ b`) makes it equal to one straight fold of each instance, which is
//! what the streaming analyzer computes.
//!
//! [`Dsspy::try_analyze_capture_with`] is that one fold. Each chunk is
//! decoded into a worker-local buffer right before it is folded, so no
//! profile is ever built.

use std::borrow::Cow;
use std::time::Instant;

use dsspy_collect::{Capture, PersistError, Session, SessionConfig};
use dsspy_events::encode::{Chunk, DecodeError};
use dsspy_events::{AccessEvent, InstanceInfo, Origin};
use dsspy_patterns::{MinerConfig, RegularityConfig};
use dsspy_telemetry::{overhead::signals, OverheadReport, Telemetry};
use dsspy_usecases::{AdvisoryConfig, Thresholds};
use serde::{Deserialize, Serialize};

use crate::fold::InstanceFold;
use crate::report::{AnalysisTimings, InstanceTiming, Report};

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
    /// Worker threads that fold the analysis units: `0` (the default)
    /// resolves to [`dsspy_parallel::default_threads`]; `1` folds every
    /// unit on the calling thread.
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

    /// Post-mortem analysis of an existing capture (e.g. one produced by a
    /// long-running session managed by the caller).
    ///
    /// Each instance's events are folded in chunks on
    /// [`AnalysisConfig::resolved_threads`] workers and the chunk folds
    /// merged in order (see the module docs), so the report does not depend
    /// on the thread count. Panics where
    /// [`Dsspy::try_analyze_capture_with`] returns an error: a session's own
    /// chunks always decode, and so does a loaded file's unless it was
    /// forged to match its checksums.
    pub fn analyze_capture(&self, capture: &Capture) -> Report {
        self.analyze_capture_with(capture, &Telemetry::disabled())
    }

    /// [`Dsspy::analyze_capture`] under observation (see
    /// [`Dsspy::try_analyze_capture_with`]).
    pub fn analyze_capture_with(&self, capture: &Capture, telemetry: &Telemetry) -> Report {
        self.try_analyze_capture_with(capture, telemetry)
            .expect("a capture's chunks decode")
    }

    /// The analysis of `capture`, or the first chunk that fails to decode,
    /// in instance order, whatever the thread count. Each worker decodes
    /// each of its chunks into a buffer of its own, checking the chunk's
    /// checksum in the same pass, and folds it there, so memory stays at
    /// the encoded bytes plus one chunk buffer per worker. A merge that
    /// must replay a chunk decodes it again. Bodies of instances the
    /// selective filter leaves out are not decoded.
    ///
    /// Each unit's fold is recorded as a `mine#i` span (category
    /// `analysis`, `i` the instance's index in the report, attributed to the
    /// worker thread that folded it — worker utilization and load balance
    /// fall out of those); an instance of more than one unit adds one more
    /// `mine#i` span for merging its unit folds, and its report step is a
    /// `classify#i` span. The whole pass is an `analyze_capture` span
    /// (category `pipeline`); counters `analysis.units` and
    /// `analysis.replayed_events` count the units and the events merges
    /// replayed, `persist.bodies_decoded` the analyzed bodies, and the
    /// chunk decode time, summed over workers, adds to
    /// `persist.decode_nanos`. The report embeds the snapshot, with
    /// [`OverheadReport::account`] run against the capture's session
    /// duration. With a disabled handle there are no spans, no snapshot and
    /// `telemetry: None`.
    pub fn try_analyze_capture_with(
        &self,
        capture: &Capture,
        telemetry: &Telemetry,
    ) -> Result<Report, PersistError> {
        let pass_start_nanos = telemetry.now_nanos();
        let instances = capture.profiles.instances();
        let bodies = capture.profiles.bodies();
        let included: Vec<usize> = (0..bodies.len())
            .filter(|&body| self.analysis.includes(&instances[body]))
            .collect();
        let units: Vec<Unit<'_>> = included
            .iter()
            .enumerate()
            .flat_map(|(instance, &body)| {
                let chunks = bodies[body].chunks().iter().map(Some);
                // An instance with no events still gets one (empty) unit.
                let empty = bodies[body].is_empty().then_some(None);
                chunks.chain(empty).map(move |chunk| Unit {
                    instance,
                    body,
                    chunk,
                })
            })
            .collect();
        telemetry
            .counter("persist.bodies_decoded")
            .add(included.len() as u64);
        let folded = self
            .fold_units(&units, telemetry)
            .map_err(|(body, e)| PersistError::bad_body(&instances[body], e))?;
        let infos = included.iter().map(|&i| &instances[i]).collect();
        Ok(self.assemble(capture, infos, &units, folded, pass_start_nanos, telemetry))
    }

    /// Fold `units` on [`AnalysisConfig::resolved_threads`] workers, each
    /// decoding a chunk into a buffer of its own before folding it. The
    /// first unit that fails to decode, in unit order, is the error, with
    /// its body.
    fn fold_units(
        &self,
        units: &[Unit<'_>],
        telemetry: &Telemetry,
    ) -> Result<Vec<Folded>, (usize, DecodeError)> {
        let folded = dsspy_parallel::par_map_weighted(
            units,
            self.analysis.resolved_threads(),
            |unit| unit.chunk.map_or(0, Chunk::len),
            Vec::new,
            |buffer, unit| {
                let decoding = Instant::now();
                unit.decode_into(buffer)?;
                let decode_nanos = decoding.elapsed().as_nanos() as u64;
                Ok((
                    self.fold_unit(unit.instance, buffer, telemetry),
                    decode_nanos,
                ))
            },
        );
        let mut folds = Vec::with_capacity(units.len());
        let mut decode_nanos = 0;
        for result in folded {
            let (fold, nanos) = result?;
            folds.push(fold);
            decode_nanos += nanos;
        }
        telemetry.counter(signals::PERSIST_DECODE).add(decode_nanos);
        Ok(folds)
    }

    /// Fold one unit's events into a fresh fold, timed (and recorded as a
    /// `mine#instance` span when observed).
    fn fold_unit(&self, instance: usize, events: &[AccessEvent], telemetry: &Telemetry) -> Folded {
        let folding = Instant::now();
        let span = telemetry.span_lazy(signals::ANALYSIS_CAT, || format!("mine#{instance}"));
        let mut fold = InstanceFold::new(&self.analysis);
        for e in events {
            fold.fold(e);
        }
        drop(span);
        Folded {
            fold,
            nanos: folding.elapsed().as_nanos() as u64,
        }
    }

    /// Merge each instance's unit folds left to right, report every
    /// analyzed instance of `infos`, and assemble the [`Report`]. `units`
    /// and `folded` are in the same order; a merge that replays a unit
    /// decodes its chunk again.
    fn assemble(
        &self,
        capture: &Capture,
        infos: Vec<&InstanceInfo>,
        units: &[Unit<'_>],
        folded: Vec<Folded>,
        pass_start_nanos: u64,
        telemetry: &Telemetry,
    ) -> Report {
        let threads = self.analysis.resolved_threads();
        telemetry.gauge("analysis.threads").set(threads as u64);
        telemetry
            .counter("analysis.instances")
            .add(infos.len() as u64);
        telemetry.counter("analysis.units").add(units.len() as u64);
        let mut instances = Vec::with_capacity(infos.len());
        let mut per_instance = Vec::with_capacity(infos.len());
        let mut replayed = 0;
        let mut folded = units.iter().zip(folded).peekable();
        for (idx, info) in infos.iter().enumerate() {
            let (_, first) = folded.next().expect("every instance has a unit");
            let mut fold = first.fold;
            let mut mining_nanos = first.nanos;
            if folded.peek().is_some_and(|(unit, _)| unit.instance == idx) {
                let merging = Instant::now();
                let span = telemetry.span_lazy(signals::ANALYSIS_CAT, || format!("mine#{idx}"));
                while let Some((unit, next)) = folded.next_if(|(unit, _)| unit.instance == idx) {
                    mining_nanos += next.nanos;
                    replayed += fold.merge(next.fold, || {
                        let mut events = Vec::new();
                        unit.decode_into(&mut events)
                            .expect("a chunk that decoded once decodes again");
                        Cow::Owned(events)
                    });
                }
                drop(span);
                mining_nanos += merging.elapsed().as_nanos() as u64;
            }

            let classify_started = Instant::now();
            let span = telemetry.span_lazy(signals::ANALYSIS_CAT, || format!("classify#{idx}"));
            instances.push(fold.report(info, &self.analysis));
            drop(span);
            per_instance.push(InstanceTiming {
                mining_nanos,
                classify_nanos: classify_started.elapsed().as_nanos() as u64,
            });
        }
        let mut report = Report {
            instances,
            stats: capture.stats,
            session_nanos: capture.session_nanos,
            timings: AnalysisTimings { per_instance },
            telemetry: None,
        };
        if telemetry.is_enabled() {
            telemetry
                .counter("analysis.replayed_events")
                .add(replayed as u64);
            // Recorded directly (not as a guard) so the workers' per-
            // unit spans stay at depth 0 — the wall-clock span of the
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
}

/// One unit of fold work: one chunk of body `body`, whose instance is the
/// analyzed instance `instance`, or `None` for an instance with no events.
struct Unit<'a> {
    instance: usize,
    body: usize,
    chunk: Option<&'a Chunk<'a>>,
}

impl Unit<'_> {
    /// Decode the unit's events into `out`, replacing what it held; on
    /// error, the unit's body with the error.
    fn decode_into(&self, out: &mut Vec<AccessEvent>) -> Result<(), (usize, DecodeError)> {
        out.clear();
        match self.chunk {
            Some(chunk) => chunk.decode_into(out).map_err(|e| (self.body, e)),
            None => Ok(()),
        }
    }
}

/// A unit's fold and how long folding it took.
struct Folded {
    fold: InstanceFold,
    nanos: u64,
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
