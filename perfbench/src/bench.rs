//! The benchmark's state, its set-up, and one pass of each workload.
//!
//! Every pass is a closed loop on one producer thread: each program runs
//! to completion (plain, then under DSspy) before the next one starts.
//! DSspy adds its own collector thread; analysis and capture decode run on
//! an explicit `nproc` workers.

use std::path::PathBuf;

use dsspy_collect::{
    load_capture_with, save_capture, CaptureRecorder, ReadOptions, Session, TapFanout,
};
use dsspy_core::Dsspy;
use dsspy_stream::{StreamConfig, StreamingAnalyzer, TelemetrySampler};
use dsspy_telemetry::{Telemetry, TelemetrySnapshot};
use dsspy_workloads::{suite7, Mode, Scale, Workload};

use crate::metrics::label;
use crate::oracle::{self, Detection, Tally};
use crate::trace::Tracer;

/// The event-dense programs the `live` workload runs (≈10.3M of a pass's
/// ≈11.0M events).
pub const DENSE: [&str; 4] = ["Algorithmia", "Astrogrep", "Mandelbrot", "WordWheelSolver"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Profile,
    Analyze,
    Live,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Profile, Kind::Analyze, Kind::Live];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Profile => "profile",
            Kind::Analyze => "analyze",
            Kind::Live => "live",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Plain runs per program and pass; the fastest counts. The four dense
    /// programs run plain in ≈0.1 s in total, so `live` takes three samples
    /// where the others take one.
    fn plain_runs(self) -> usize {
        if self == Kind::Live {
            3
        } else {
            1
        }
    }
}

pub struct Program {
    pub name: &'static str,
    pub label: String,
    pub workload: Box<dyn Workload>,
    pub expected: Detection,
    pub dense: bool,
}

/// A program's capture as written during set-up.
pub struct Fixture {
    pub path: PathBuf,
    pub events: u64,
    pub bytes: u64,
}

/// One program within a pass. Times are nanoseconds; fields a workload
/// does not measure stay 0.
#[derive(Default)]
pub struct Run {
    pub program: usize,
    pub plain_ns: u64,
    /// The DSspy stage: bare collection (`profile`), decode + analyze + JSON
    /// (`analyze`), or the live session up to its final verdict (`live`).
    pub stage_ns: u64,
    /// `profile`: `Session::finish`. `live`: program return → final verdict.
    pub tail_ns: u64,
    pub decode_ns: u64,
    /// Events the stage processed, read from its capture.
    pub events: u64,
    pub batches: u64,
    pub snapshots: u64,
    /// The live rig's telemetry at the end of the session.
    pub telemetry: Option<TelemetrySnapshot>,
}

pub struct Pass {
    pub kind: Kind,
    pub traced: bool,
    pub runs: Vec<Run>,
}

/// Each program's fastest time across `passes`, summed over the programs,
/// in seconds. Interference on a shared host only ever slows a run, so the
/// fastest of a program's samples is its least disturbed one.
pub fn fastest_s<'a>(passes: impl IntoIterator<Item = &'a Pass>, f: impl Fn(&Run) -> u64) -> f64 {
    let mut best: Vec<Option<u64>> = Vec::new();
    for run in passes.into_iter().flat_map(|p| &p.runs) {
        if best.len() <= run.program {
            best.resize(run.program + 1, None);
        }
        let t = f(run);
        best[run.program] = Some(best[run.program].map_or(t, |b| b.min(t)));
    }
    best.into_iter().flatten().sum::<u64>() as f64 / 1e9
}

impl Pass {
    pub fn sum(&self, f: impl Fn(&Run) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }

    pub fn stage_s(&self) -> f64 {
        self.sum(|r| r.stage_ns) as f64 / 1e9
    }

    pub fn plain_s(&self) -> f64 {
        self.sum(|r| r.plain_ns) as f64 / 1e9
    }
}

pub struct Bench {
    pub programs: Vec<Program>,
    pub fixtures: Vec<Fixture>,
    /// Analysis on `nproc` workers, set explicitly so no environment
    /// variable can change it.
    pub dsspy: Dsspy,
    pub read: ReadOptions,
    pub dir: PathBuf,
    pub tracer: Tracer,
    pub tally: Tally,
    /// Broken benchmark invariants (event counts a probe divides by, …).
    pub errors: Vec<String>,
    rng: u64,
}

impl Bench {
    pub fn new(threads: usize, dir: PathBuf, seed: u64, traced: bool) -> Bench {
        let programs = suite7()
            .into_iter()
            .map(|workload| {
                let name = workload.spec().name;
                Program {
                    name,
                    label: label(name),
                    expected: oracle::expected(name)
                        .unwrap_or_else(|| panic!("{name} has no Table IV row")),
                    dense: DENSE.contains(&name),
                    workload,
                }
            })
            .collect();
        Bench {
            programs,
            fixtures: Vec::new(),
            dsspy: Dsspy::new().with_threads(threads),
            read: ReadOptions {
                threads,
                telemetry: Telemetry::disabled(),
            },
            dir,
            tracer: Tracer::new(traced),
            tally: Tally::default(),
            errors: Vec::new(),
            rng: seed,
        }
    }

    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: benchmark invariant broken: {what}");
            self.errors.push(what);
        }
    }

    /// splitmix64: the seed's stream of program-order permutations.
    fn next_random(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The programs of one `kind` pass, in a seed-determined order.
    fn order(&mut self, kind: Kind) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.programs.len())
            .filter(|&i| kind != Kind::Live || self.programs[i].dense)
            .collect();
        for i in (1..order.len()).rev() {
            let j = (self.next_random() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// Record every program once under a bare session and write its capture
    /// (the `analyze` workload's input; the traced run's probes read them
    /// too). The plain run first warms the program up. Returns the time
    /// spent in `save_capture`.
    pub fn setup(&mut self) -> Result<u64, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let tracer = &self.tracer;
        let mut fixtures = Vec::with_capacity(self.programs.len());
        let mut encode_ns = 0;
        let (result, _) = tracer.time("setup", 0, || {
            for p in &self.programs {
                let path = self.dir.join(format!("{}.dsspycap", p.label));
                tracer
                    .time(&format!("program.{}", p.label), 0, || {
                        tracer.time("plain", 0, || p.workload.run(Scale::Full, Mode::Plain));
                        let (capture, _) = tracer.time("collect", 0, || {
                            let session = Session::new();
                            p.workload.run(Scale::Full, Mode::Instrumented(&session));
                            session.finish()
                        });
                        let events = capture.stats.events;
                        let (saved, ns) =
                            tracer.time("encode", events, || save_capture(&capture, &path));
                        saved.map_err(|e| format!("saving {}: {e}", path.display()))?;
                        encode_ns += ns;
                        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                        fixtures.push(Fixture {
                            path,
                            events,
                            bytes,
                        });
                        Ok::<(), String>(())
                    })
                    .0?;
            }
            Ok::<(), String>(())
        });
        result?;
        self.fixtures = fixtures;
        Ok(encode_ns)
    }

    pub fn pass(&mut self, kind: Kind) -> Pass {
        let order = self.order(kind);
        let traced = self.tracer.is_enabled();
        let tracer = &self.tracer;
        let (runs, _) = tracer.time(&format!("pass.{}", kind.name()), 0, || {
            order
                .iter()
                .map(|&i| {
                    let p = &self.programs[i];
                    tracer
                        .time(&format!("program.{}", p.label), 0, || {
                            let plain: Vec<(u64, u64)> = (0..kind.plain_runs())
                                .map(|_| {
                                    tracer.time("plain", 0, || {
                                        p.workload.run(Scale::Full, Mode::Plain)
                                    })
                                })
                                .collect();
                            let checksum = plain[0].0;
                            let plain_ns = plain.iter().map(|r| r.1).min().unwrap_or(0);
                            let (mut run, outcome) = match kind {
                                Kind::Profile => self.profile_run(p, checksum),
                                Kind::Analyze => self.analyze_run(i),
                                Kind::Live => self.live_run(p, checksum),
                            };
                            run.program = i;
                            run.plain_ns = plain_ns;
                            (run, outcome)
                        })
                        .0
                })
                .collect::<Vec<_>>()
        });
        let runs = runs
            .into_iter()
            .map(|(run, outcome)| {
                let op = format!("{} {}", kind.name(), self.programs[run.program].name);
                self.tally.record(&op, outcome);
                run
            })
            .collect();
        Pass { kind, traced, runs }
    }

    /// `profile`: a bare session (no tap, telemetry and flight recorder
    /// off), timed from session start until `finish` returns the capture.
    fn profile_run(&self, p: &Program, plain: u64) -> (Run, Result<(), String>) {
        let tracer = &self.tracer;
        let ((checksum, capture, tail_ns), stage_ns) = tracer.time("collect", 0, || {
            let session = Session::new();
            let checksum = p.workload.run(Scale::Full, Mode::Instrumented(&session));
            let (capture, tail_ns) = tracer.time("finish", 0, || session.finish());
            (checksum, capture, tail_ns)
        });
        let events = capture.stats.events;
        let (report, _) = tracer.time("check", events, || self.dsspy.analyze_capture(&capture));
        let outcome =
            oracle::check_profile(p.expected, plain, checksum, capture.stats.dropped, &report);
        let run = Run {
            stage_ns,
            tail_ns,
            events,
            batches: capture.stats.batches,
            ..Run::default()
        };
        (run, outcome)
    }

    /// `analyze`: what `dsspy analyze --json` does with one capture.
    fn analyze_run(&self, i: usize) -> (Run, Result<(), String>) {
        let tracer = &self.tracer;
        let (p, fx) = (&self.programs[i], &self.fixtures[i]);
        let mut run = Run::default();
        let (outcome, stage_ns) = tracer.time("stage", fx.events, || {
            let (loaded, decode_ns) = tracer.time("decode", fx.events, || {
                load_capture_with(&fx.path, &self.read)
            });
            run.decode_ns = decode_ns;
            let capture = loaded.map_err(|e| format!("load {}: {e}", fx.path.display()))?;
            run.events = capture.event_count() as u64;
            let (report, _) = tracer.time("analyze", run.events, || {
                self.dsspy.analyze_capture(&capture)
            });
            let (json, _) =
                tracer.time("json", run.events, || serde_json::to_string_pretty(&report));
            std::hint::black_box(json.map_err(|e| e.to_string())?);
            oracle::check_detection(p.expected, &report)
        });
        run.stage_ns = stage_ns;
        (run, outcome)
    }

    /// `live`: the production live rig (`TapFanout` feeding the streaming
    /// analyzer, telemetry sampler and capture recorder, telemetry on),
    /// timed from session start until the final streamed verdict exists.
    fn live_run(&self, p: &Program, plain: u64) -> (Run, Result<(), String>) {
        let tracer = &self.tracer;
        let telemetry = Telemetry::enabled();
        let ((checksum, capture, streamed, rig, tail_ns), stage_ns) =
            tracer.time("live", 0, || {
                let streaming = StreamingAnalyzer::with_telemetry(
                    self.dsspy,
                    StreamConfig::default(),
                    telemetry.clone(),
                );
                let sampler = TelemetrySampler::new(&telemetry);
                let recorder = CaptureRecorder::new();
                let fanout = TapFanout::with_telemetry(telemetry.clone())
                    .with_subscriber("analyzer", streaming.tap())
                    .with_subscriber("sampler", sampler.tap())
                    .with_subscriber("recorder", recorder.tap());
                let session = Session::builder()
                    .config(self.dsspy.session)
                    .telemetry(telemetry.clone())
                    .tap(Box::new(fanout))
                    .start();
                streaming.bind_registry(session.registry_handle());
                let checksum = p.workload.run(Scale::Full, Mode::Instrumented(&session));
                let ((capture, streamed), tail_ns) = tracer.time("verdict", 0, || {
                    let capture = session.finish();
                    (capture, streaming.latest_report())
                });
                // Handed out so their memory is released outside the timing.
                (
                    checksum,
                    capture,
                    streamed,
                    (streaming, sampler, recorder),
                    tail_ns,
                )
            });
        let snapshots = rig.0.stats().snapshots;
        drop(rig);
        let events = capture.stats.events;
        let (post, _) = tracer.time("check", events, || self.dsspy.analyze_capture(&capture));
        let snapshot = telemetry.snapshot();
        let panics = snapshot.counter("stream.tap.panics").unwrap_or(0);
        let outcome = if checksum != plain {
            Err(format!(
                "instrumented checksum {checksum:#x} != plain {plain:#x}"
            ))
        } else {
            oracle::check_live(streamed.as_deref(), &post, panics, capture.stats.dropped)
        };
        let run = Run {
            stage_ns,
            tail_ns,
            events,
            batches: capture.stats.batches,
            snapshots,
            telemetry: Some(snapshot),
            ..Run::default()
        };
        (run, outcome)
    }
}

impl Drop for Bench {
    /// Remove the captures set-up wrote (≈331 MB), also on an early error.
    fn drop(&mut self) {
        for fx in &self.fixtures {
            let _ = std::fs::remove_file(&fx.path);
        }
    }
}
