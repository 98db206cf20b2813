//! DSspy benchmark: `profile`, `analyze` and `live` workloads.
//!
//! ```text
//! perfbench --workload profile|analyze|live --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run sets up three times, then repeats passes of the
//! workload for `S` seconds and prints the end-to-end metrics: each
//! program's fastest time over the passes, summed. With `--trace 1` it alternates untraced and traced passes for
//! `S` seconds, runs one traced pass of each other workload and the layer
//! probes, and prints the per-layer metrics; the spans go to
//! `.bench_build/perfbench/trace-<workload>-<seed>.json`. The last stdout
//! line is always the result object; the line before it is the run's
//! provenance. See `perfbench/README.md`.

mod bench;
mod metrics;
mod oracle;
mod probes;
mod provenance;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use serde_json::Value;

use bench::{Bench, Kind, Pass};
use metrics::{histogram_quantile, median, Metrics};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload profile|analyze|live --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = PathBuf::from(".bench_build/perfbench");
    let load_start = provenance::loadavg();
    let mut b = Bench::new(threads, dir.clone(), args.seed, args.trace);
    let (metrics, passes) = if args.trace {
        traced(&mut b, args)?
    } else {
        untraced(&mut b, args)?
    };
    let stamp = provenance::stamp(args, threads, passes, load_start);
    if args.trace {
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        trace::write(&path, &b.tracer.spans(), &stamp)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let metrics = metrics.to_json()?;
    let result = Value::Map(vec![
        (
            "correct".into(),
            Value::Bool(b.tally.failed == 0 && b.errors.is_empty()),
        ),
        ("attempted".into(), Value::U64(b.tally.attempted)),
        ("failed".into(), Value::U64(b.tally.failed)),
        ("metrics".into(), metrics),
    ]);
    let line = |v: &Value| serde_json::to_string(v).map_err(|e| e.to_string());
    println!("{}", line(&Value::Map(vec![("provenance".into(), stamp)]))?);
    println!("{}", line(&result)?);
    Ok(())
}

/// Run passes of `kind` until `seconds` have passed (at least
/// [`MIN_PASSES`]), logging each to stderr.
fn measure(b: &mut Bench, kind: Kind, seconds: u64, mut each: impl FnMut(&mut Bench)) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds as f64 {
        each(b);
        let pass = b.pass(kind);
        let detail: Vec<String> = pass
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{}={}/{}",
                    b.programs[r.program].label, r.plain_ns, r.stage_ns
                )
            })
            .collect();
        eprintln!(
            "perfbench: {} pass {}{}: plain {:.4} s, stage {:.4} s | {}",
            kind.name(),
            passes.len() + 1,
            if pass.traced { " (traced)" } else { "" },
            pass.plain_s(),
            pass.stage_s(),
            detail.join(" "),
        );
        passes.push(pass);
    }
    passes
}

fn untraced(b: &mut Bench, args: &Args) -> Result<(Metrics, usize), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        b.setup()?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let passes = measure(b, args.workload, args.seconds, |_| {});
    let stage = bench::fastest_s(&passes, |r| r.stage_ns);
    let plain = bench::fastest_s(&passes, |r| r.plain_ns);
    let mut m = Metrics::end_to_end();
    m.set("setup_s", median(&setups));
    m.set("pass_s", stage);
    m.set("plain_s", plain);
    m.set("slowdown", stage / plain);
    m.set("peak_rss_mb", provenance::peak_rss_mb()?);
    Ok((m, passes.len()))
}

fn traced(b: &mut Bench, args: &Args) -> Result<(Metrics, usize), String> {
    let encode_ns = b.setup()?;
    // Alternate untraced and traced passes of the workload itself: their
    // difference is the tracing overhead.
    let mut traced_next = false;
    let passes = measure(b, args.workload, args.seconds, |b| {
        b.tracer.set_enabled(traced_next);
        traced_next = !traced_next;
    });
    let measured = passes.len();
    b.tracer.set_enabled(true);
    let mut all = passes;
    for kind in Kind::ALL.into_iter().filter(|&k| k != args.workload) {
        all.push(b.pass(kind));
    }
    let micro = probes::microloops(b);
    let telemetry = probes::telemetry_probe(b);
    let analysis = probes::analysis_probe(b);
    let stream = probes::stream_probe(b);

    let mut m = Metrics::new(metrics::per_layer());
    let of = |kind: Kind| all.iter().filter(move |p| p.kind == kind);
    let med = |kind: Kind, f: &dyn Fn(&Pass) -> f64| median(&of(kind).map(f).collect::<Vec<_>>());

    // Tracing overhead on this run's own workload, by the estimator
    // `pass_s` uses.
    let own = |traced: bool| {
        bench::fastest_s(of(args.workload).filter(|p| p.traced == traced), |r| {
            r.stage_ns
        })
    };
    m.set("trace.overhead_pct", (own(true) / own(false) - 1.0) * 100.0);

    // collect: producer hot path, bare sessions, Table IV rows.
    m.set("collect.record_ns", micro.record_ns);
    m.set("collect.clock_ns", micro.clock_ns);
    m.set("collect.seq_ns", micro.seq_ns);
    m.set("collect.flush_ns_per_event", micro.flush_ns_per_event);
    m.set(
        "collect.finish_ms",
        med(Kind::Profile, &|p| p.sum(|r| r.tail_ns) as f64 / 1e6),
    );
    m.set(
        "collect.overhead_ns_per_event",
        med(Kind::Profile, &|p| {
            (p.sum(|r| r.stage_ns) as f64 - p.sum(|r| r.plain_ns) as f64)
                / p.sum(|r| r.events) as f64
        }),
    );
    let counts: Vec<(u64, u64)> = of(Kind::Profile)
        .map(|p| (p.sum(|r| r.events), p.sum(|r| r.batches)))
        .collect();
    let repeat = counts.windows(2).all(|w| w[0] == w[1]);
    b.ensure(repeat, || {
        format!("collect.events/batches differ between passes: {counts:?}")
    });
    m.set("collect.events", counts[0].0 as f64);
    m.set("collect.batches", counts[0].1 as f64);
    for (i, p) in b.programs.iter().enumerate() {
        let runs: Vec<_> = of(Kind::Profile)
            .flat_map(|pass| pass.runs.iter().filter(|r| r.program == i))
            .collect();
        let slowdown: Vec<f64> = runs
            .iter()
            .map(|r| r.stage_ns as f64 / r.plain_ns as f64)
            .collect();
        let collect: Vec<f64> = runs.iter().map(|r| r.stage_ns as f64 / 1e6).collect();
        m.set(&format!("table4.{}.slowdown", p.label), median(&slowdown));
        m.set(&format!("table4.{}.collect_ms", p.label), median(&collect));
    }

    // Collector thread, program-reported (telemetry-enabled bare sessions).
    let c = &telemetry.collector;
    let (Some(handle), Some(wait)) = (
        c.histogram("collector.batch_handle_nanos"),
        c.histogram("collector.batch_wait_nanos"),
    ) else {
        return Err("telemetry-enabled sessions reported no collector histograms".into());
    };
    m.set(
        "collect.store_ns_per_event",
        handle.sum as f64 / telemetry.events as f64,
    );
    m.set(
        "collect.queue_wait_us_p50",
        histogram_quantile(wait, 0.50) / 1e3,
    );
    m.set(
        "collect.queue_wait_us_p99",
        histogram_quantile(wait, 0.99) / 1e3,
    );
    m.set(
        "collect.queue_depth_hwm",
        c.gauge("collector.queue_depth_hwm").unwrap_or(0) as f64,
    );
    let sum = |v: &[(usize, f64)]| v.iter().map(|(_, ns)| ns).sum::<f64>();
    m.set(
        "telemetry.enabled_ns_per_event",
        (sum(&telemetry.enabled_ns) - sum(&telemetry.disabled_ns)) / telemetry.events as f64,
    );

    // persist: decode inside the analyze passes, encode during set-up.
    let bytes: u64 = b.fixtures.iter().map(|f| f.bytes).sum();
    let events: u64 = b.fixtures.iter().map(|f| f.events).sum();
    let decode_ms = med(Kind::Analyze, &|p| p.sum(|r| r.decode_ns) as f64 / 1e6);
    m.set("persist.decode_ms", decode_ms);
    m.set(
        "persist.decode_mb_s",
        bytes as f64 / 1e6 / (decode_ms / 1e3),
    );
    m.set(
        "persist.encode_mb_s",
        bytes as f64 / 1e6 / (encode_ns as f64 / 1e9),
    );
    m.set("persist.bytes_per_event", bytes as f64 / events as f64);

    // patterns, usecases, core: direct calls.
    let a = &analysis;
    m.set(
        "patterns.mine_ns_per_event",
        a.mine_ns as f64 / a.events as f64,
    );
    m.set("patterns.regularity_us", a.regularity_ns as f64 / 1e3);
    m.set("usecases.classify_us", a.classify_ns as f64 / 1e3);
    m.set(
        "usecases.advisories_ns_per_event",
        a.advisories_ns as f64 / a.events as f64,
    );
    m.set("core.analyze_ms_t1", a.analyze_t1_ns as f64 / 1e6);
    m.set("core.analyze_ms_tn", a.analyze_tn_ns as f64 / 1e6);
    m.set(
        "core.par_speedup",
        a.analyze_t1_ns as f64 / a.analyze_tn_ns as f64,
    );
    m.set("core.max_instance_share", a.max_instance_share);
    m.set("core.report_json_ms", a.json_ns as f64 / 1e6);

    // stream and fan-out.
    m.set(
        "stream.fold_ns_per_event",
        stream.fold_ns as f64 / stream.events as f64,
    );
    m.set("stream.snapshot_ms", stream.report_ns as f64 / 1e6);
    m.set(
        "stream.snapshots",
        med(Kind::Live, &|p| p.sum(|r| r.snapshots) as f64),
    );
    m.set(
        "stream.final_lag_ms",
        med(Kind::Live, &|p| p.sum(|r| r.tail_ns) as f64 / 1e6),
    );
    let live_ns: f64 = telemetry
        .enabled_ns
        .iter()
        .map(|&(i, _)| {
            let v: Vec<f64> = of(Kind::Live)
                .flat_map(|p| p.runs.iter().filter(|r| r.program == i))
                .map(|r| r.stage_ns as f64)
                .collect();
            median(&v)
        })
        .sum();
    m.set(
        "stream.tap_ns_per_event",
        (live_ns - sum(&telemetry.enabled_ns)) / telemetry.events as f64,
    );
    let mut live_tel = dsspy_telemetry::TelemetrySnapshot::default();
    for run in of(Kind::Live).flat_map(|p| &p.runs) {
        if let Some(t) = &run.telemetry {
            live_tel.merge(t);
        }
    }
    for sub in ["analyzer", "sampler", "recorder"] {
        let nanos = live_tel
            .histogram(&format!("stream.tap.{sub}.dispatch_nanos"))
            .map_or(0, |h| h.sum);
        let events = live_tel
            .counter(&format!("stream.tap.{sub}.events"))
            .unwrap_or(0);
        b.ensure(events > 0, || {
            format!("fan-out subscriber {sub} saw no events")
        });
        m.set(
            &format!("fanout.{sub}.dispatch_ns_per_event"),
            nanos as f64 / events.max(1) as f64,
        );
    }

    // The trace itself: span count, and how much of the traced analyze
    // stage the decode/analyze/json spans cover by self time.
    let spans = b.tracer.spans();
    let selfs = trace::self_times(&spans);
    let (mut covered, mut stage) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let parent = s.parent.map(|p| spans[p].name.as_str());
        if s.name == "stage" {
            stage += s.dur_ns();
        } else if parent == Some("stage") {
            covered += self_ns;
        }
    }
    m.set("trace.spans", spans.len() as f64);
    m.set(
        "trace.analyze_span_coverage",
        covered as f64 / stage.max(1) as f64,
    );
    Ok((m, measured))
}
