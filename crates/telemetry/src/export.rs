//! Snapshot exporters: human summary, JSON, Prometheus text format, and
//! Chrome `trace_event` JSON (loadable in `chrome://tracing` / Perfetto for
//! flamegraph viewing).

use std::fmt::Write as _;

use serde::Value;

use crate::metrics::bucket_upper_bound;
use crate::snapshot::TelemetrySnapshot;

/// Render a metric name in Prometheus form: `dsspy_` prefix, every
/// non-alphanumeric character folded to `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("dsspy_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Export counters, gauges, and histograms in the Prometheus text exposition
/// format (version 0.0.4): `# TYPE` comments, cumulative histogram buckets
/// with a final `+Inf`, and `_sum`/`_count` series.
pub fn prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let mut name = prom_name(&c.name);
        if !name.ends_with("_total") {
            name.push_str("_total");
        }
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for g in &snapshot.gauges {
        let name = prom_name(&g.name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", g.value);
    }
    for h in &snapshot.histograms {
        let name = prom_name(&h.name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        // Keep the exposition compact: past the highest non-empty bucket,
        // every bound would repeat the cumulative count +Inf reports anyway.
        let last = h.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, bucket) in h.buckets.iter().enumerate().take(last + 1) {
            cumulative += bucket;
            if let Some(ub) = bucket_upper_bound(i) {
                let _ = writeln!(out, "{name}_bucket{{le=\"{ub}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

/// Export the snapshot as pretty-printed JSON.
pub fn to_json(snapshot: &TelemetrySnapshot) -> String {
    serde_json::to_string_pretty(snapshot).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Export spans as Chrome `trace_event` JSON: one complete (`"ph": "X"`)
/// event per span, with the telemetry thread ordinal as the track id.
/// Timestamps are microseconds, as the format requires.
pub fn chrome_trace(snapshot: &TelemetrySnapshot) -> String {
    let events: Vec<Value> = snapshot
        .spans
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("name".to_string(), Value::Str(s.name.clone())),
                ("cat".to_string(), Value::Str(s.cat.clone())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::F64(s.start_nanos as f64 / 1e3)),
                ("dur".to_string(), Value::F64(s.dur_nanos as f64 / 1e3)),
                ("pid".to_string(), Value::U64(1)),
                ("tid".to_string(), Value::U64(u64::from(s.thread))),
                (
                    "args".to_string(),
                    Value::Map(vec![("depth".to_string(), Value::U64(u64::from(s.depth)))]),
                ),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Export a flight-recorder dump as Chrome `trace_event` JSON: dispatch and
/// stop deliveries become complete (`"ph": "X"`) events on one track per
/// subscriber, everything else becomes a thread-scoped instant (`"ph": "i"`)
/// event on the collector track (tid 0). Timestamps are microseconds, as
/// the format requires; incident-backed events carry `"incident": 1` in
/// their args so Perfetto queries can isolate them.
pub fn flight_chrome_trace(dump: &crate::flight::FlightDump) -> String {
    use crate::flight::FlightEventKind;

    let tracks: Vec<&str> = dump.subscribers();
    let tid_of = |subscriber: Option<&str>| -> u64 {
        subscriber
            .and_then(|label| tracks.iter().position(|t| *t == label))
            .map_or(0, |i| i as u64 + 1)
    };
    let incident_seqs: Vec<u64> = dump.incidents.iter().map(|i| i.seq).collect();
    let events: Vec<Value> = dump
        .events
        .iter()
        .map(|e| {
            let mut args = vec![
                ("session".to_string(), Value::U64(e.ctx.session)),
                ("batch_seq".to_string(), Value::U64(e.ctx.batch_seq)),
                ("seq".to_string(), Value::U64(e.seq)),
            ];
            if incident_seqs.contains(&e.seq) {
                args.push(("incident".to_string(), Value::U64(1)));
            }
            let mut fields = vec![
                (
                    "name".to_string(),
                    Value::Str(format!("{} {}", e.kind.tag(), e.ctx)),
                ),
                ("cat".to_string(), Value::Str("flight".to_string())),
                ("pid".to_string(), Value::U64(1)),
                (
                    "tid".to_string(),
                    Value::U64(tid_of(e.subscriber.as_deref())),
                ),
            ];
            match &e.kind {
                FlightEventKind::TapDispatch { dur_nanos, .. }
                | FlightEventKind::StopDelivered { dur_nanos } => {
                    let start = e.nanos.saturating_sub(*dur_nanos);
                    fields.push(("ph".to_string(), Value::Str("X".to_string())));
                    fields.push(("ts".to_string(), Value::F64(start as f64 / 1e3)));
                    fields.push(("dur".to_string(), Value::F64(*dur_nanos as f64 / 1e3)));
                }
                _ => {
                    fields.push(("ph".to_string(), Value::Str("i".to_string())));
                    fields.push(("s".to_string(), Value::Str("t".to_string())));
                    fields.push(("ts".to_string(), Value::F64(e.nanos as f64 / 1e3)));
                }
            }
            fields.push(("args".to_string(), Value::Map(args)));
            Value::Map(fields)
        })
        .collect();
    let doc = Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// Render a human-readable summary of the snapshot.
pub fn summary(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::from("telemetry snapshot\n");
    if let Some(o) = &snapshot.overhead {
        let _ = writeln!(
            out,
            "  overhead: session {} | profiling work {} ({:.2}% of session) | \
             est. slowdown {:.4}x | analysis {}",
            fmt_nanos(o.session_nanos),
            fmt_nanos(o.accounted_profiling_nanos),
            o.overhead_share() * 100.0,
            o.slowdown,
            fmt_nanos(o.analysis_nanos),
        );
    }
    if !snapshot.counters.is_empty() {
        out.push_str("  counters:\n");
        for c in &snapshot.counters {
            let _ = writeln!(out, "    {:<36} {}", c.name, c.value);
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("  gauges:\n");
        for g in &snapshot.gauges {
            let _ = writeln!(out, "    {:<36} {}", g.name, g.value);
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("  histograms:\n");
        for h in &snapshot.histograms {
            // Only `*_nanos` histograms hold durations; the others hold
            // plain quantities (`collector.batch_events` counts events).
            let fmt = |v: u64| {
                if h.name.ends_with("_nanos") {
                    fmt_nanos(v)
                } else {
                    v.to_string()
                }
            };
            let _ = writeln!(
                out,
                "    {:<36} n={} mean={} min={} max={}",
                h.name,
                h.count,
                fmt(h.mean() as u64),
                fmt(h.min),
                fmt(h.max),
            );
        }
    }
    if !snapshot.spans.is_empty() {
        // Aggregate spans per (cat, depth-0 name prefix) to keep the listing
        // bounded: the per-instance spans of a large analysis would swamp a
        // flat dump.
        let mut cats: Vec<(&str, u64, usize)> = Vec::new();
        for s in &snapshot.spans {
            match cats.iter_mut().find(|(c, _, _)| *c == s.cat) {
                Some((_, nanos, n)) => {
                    if s.depth == 0 {
                        *nanos += s.dur_nanos;
                    }
                    *n += 1;
                }
                None => cats.push((&s.cat, if s.depth == 0 { s.dur_nanos } else { 0 }, 1)),
            }
        }
        out.push_str("  spans (per category, top-level time):\n");
        for (cat, nanos, n) in cats {
            let _ = writeln!(out, "    {cat:<36} {} across {n} span(s)", fmt_nanos(nanos));
        }
        let workers = snapshot.worker_busy_nanos("analysis");
        if workers.len() > 1 {
            let _ = writeln!(
                out,
                "  analysis workers: {} | load imbalance {:.2} (max/mean)",
                workers.len(),
                snapshot.load_imbalance("analysis"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ManualClock, Telemetry};

    fn sample() -> TelemetrySnapshot {
        let (hand, source) = ManualClock::new();
        let telemetry = Telemetry::with_clock(source);
        telemetry.counter("collector.events").add(42);
        telemetry.gauge("collector.queue_depth").set(3);
        let h = telemetry.histogram("collector.batch_wait_nanos");
        h.record(0);
        h.record(100);
        h.record(5_000);
        {
            let _s = telemetry.span("analysis", "analyze_capture");
            hand.advance(1_000);
        }
        telemetry.snapshot()
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus(&sample());
        assert!(text.contains("# TYPE dsspy_collector_events_total counter"));
        assert!(text.contains("dsspy_collector_events_total 42"));
        assert!(text.contains("# TYPE dsspy_collector_queue_depth gauge"));
        assert!(text.contains("# TYPE dsspy_collector_batch_wait_nanos histogram"));
        assert!(text.contains("dsspy_collector_batch_wait_nanos_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("dsspy_collector_batch_wait_nanos_sum 5100"));
        assert!(text.contains("dsspy_collector_batch_wait_nanos_count 3"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last || line.contains("le=\"0\""), "{line}");
            last = v;
        }
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let trace = chrome_trace(&sample());
        let value: Value = serde_json::from_str(&trace).unwrap();
        let events = value["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["ph"].as_str(), Some("X"));
        assert_eq!(events[0]["dur"].as_f64(), Some(1.0)); // 1000ns = 1µs
        assert_eq!(events[0]["name"].as_str(), Some("analyze_capture"));
    }

    #[test]
    fn flight_chrome_trace_tracks_subscribers_and_marks_incidents() {
        use crate::flight::{FlightEventKind, IncidentTrigger};
        use crate::trace::TraceContext;

        let f = crate::Telemetry::enabled().with_flight(None).flight();
        let ctx = TraceContext::new(1, 1);
        f.record(
            ctx,
            FlightEventKind::BatchReceived {
                instance: 0,
                events: 8,
                queue_depth: 0,
            },
        );
        f.record_for(
            ctx,
            Some("analyzer"),
            FlightEventKind::TapDispatch {
                events: 8,
                dur_nanos: 2_000,
            },
        );
        f.incident(
            ctx,
            Some("bomb"),
            IncidentTrigger::SubscriberPanic {
                payload: "boom".into(),
            },
        );
        let trace = flight_chrome_trace(&f.dump());
        let value: Value = serde_json::from_str(&trace).unwrap();
        let events = value["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 3);
        // The batch receipt is an instant on the collector track.
        assert_eq!(events[0]["ph"].as_str(), Some("i"));
        assert_eq!(events[0]["tid"].as_u64(), Some(0));
        // The dispatch is a complete event on the analyzer's own track.
        assert_eq!(events[1]["ph"].as_str(), Some("X"));
        assert_eq!(events[1]["dur"].as_f64(), Some(2.0));
        assert_eq!(events[1]["tid"].as_u64(), Some(1));
        // The panic is incident-flagged.
        assert_eq!(events[2]["args"]["incident"].as_u64(), Some(1));
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let json = to_json(&snap);
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn summary_prints_non_time_histograms_without_time_units() {
        let telemetry = Telemetry::enabled();
        let h = telemetry.histogram("collector.batch_events");
        h.record(12);
        h.record(1_024);
        let text = summary(&telemetry.snapshot());
        let line = text
            .lines()
            .find(|l| l.contains("collector.batch_events"))
            .expect("histogram line");
        assert!(line.contains("min=12 max=1024"), "{line}");
        assert!(!line.contains("ns") && !line.contains("µs"), "{line}");
        // Duration histograms keep their units.
        assert!(summary(&sample()).contains("max=5.00µs"));
    }

    #[test]
    fn summary_mentions_all_sections() {
        let text = summary(&sample());
        assert!(text.contains("counters:"));
        assert!(text.contains("collector.events"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("histograms:"));
        assert!(text.contains("spans"));
    }
}
