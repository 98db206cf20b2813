//! Metric names, units, and the statistics the benchmark reports with.
//!
//! Every metric the benchmark can print is declared here, and only declared
//! metrics can be set: a test checks these declarations against
//! `BENCHMARK.json`, and a run that leaves a declared metric unset fails
//! instead of printing a partial result.

use dsspy_telemetry::metrics::{bucket_upper_bound, HistogramSnapshot};
use serde_json::Value;

/// End-to-end metrics, printed with `--trace 0` by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("plain_s", "s"),
    ("slowdown", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1` by every workload, apart from
/// the per-program Table IV rows ([`per_layer`] adds those).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("collect.record_ns", "ns"),
    ("collect.clock_ns", "ns"),
    ("collect.seq_ns", "ns"),
    ("collect.flush_ns_per_event", "ns"),
    ("collect.finish_ms", "ms"),
    ("collect.overhead_ns_per_event", "ns"),
    ("collect.events", "count"),
    ("collect.batches", "count"),
    ("collect.store_ns_per_event", "ns"),
    ("collect.queue_wait_us_p50", "us"),
    ("collect.queue_wait_us_p99", "us"),
    ("collect.queue_depth_hwm", "count"),
    ("telemetry.enabled_ns_per_event", "ns"),
    ("persist.decode_ms", "ms"),
    ("persist.decode_mb_s", "MB/s"),
    ("persist.encode_mb_s", "MB/s"),
    ("persist.bytes_per_event", "B"),
    ("patterns.mine_ns_per_event", "ns"),
    ("patterns.regularity_us", "us"),
    ("usecases.classify_us", "us"),
    ("usecases.advisories_ns_per_event", "ns"),
    ("core.analyze_ms_t1", "ms"),
    ("core.analyze_ms_tn", "ms"),
    ("core.par_speedup", "x"),
    ("core.max_instance_share", "share"),
    ("core.report_json_ms", "ms"),
    ("stream.fold_ns_per_event", "ns"),
    ("stream.snapshot_ms", "ms"),
    ("stream.snapshots", "count"),
    ("stream.final_lag_ms", "ms"),
    ("stream.tap_ns_per_event", "ns"),
    ("fanout.analyzer.dispatch_ns_per_event", "ns"),
    ("fanout.sampler.dispatch_ns_per_event", "ns"),
    ("fanout.recorder.dispatch_ns_per_event", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.analyze_span_coverage", "share"),
];

/// A program name as a metric-name component: anything outside
/// `[A-Za-z0-9_.-]` becomes `_` ("CPU Benchmarks" → "CPU_Benchmarks").
pub fn label(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Every per-layer metric: [`PER_LAYER`] plus `table4.<program>.slowdown`
/// and `table4.<program>.collect_ms` for each of the seven programs.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for w in dsspy_workloads::suite7() {
        let l = label(w.spec().name);
        all.push((format!("table4.{l}.slowdown"), "x"));
        all.push((format!("table4.{l}.collect_ms"), "ms"));
    }
    all
}

/// The metric set one run must fill, in print order.
pub struct Metrics {
    declared: Vec<(String, &'static str)>,
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(declared: Vec<(String, &'static str)>) -> Metrics {
        let values = vec![None; declared.len()];
        Metrics { declared, values }
    }

    pub fn end_to_end() -> Metrics {
        Metrics::new(
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect(),
        )
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
    }

    /// The `metrics` object of the result line, or the first metric that is
    /// unset or not a finite number.
    pub fn to_json(&self) -> Result<Value, String> {
        let mut entries = Vec::with_capacity(self.declared.len());
        for ((name, unit), value) in self.declared.iter().zip(&self.values) {
            match value {
                Some(v) if v.is_finite() => entries.push((
                    name.clone(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(*v)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )),
                Some(v) => return Err(format!("metric {name} is {v}")),
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        Ok(Value::Map(entries))
    }
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of a telemetry histogram, interpolated linearly inside
/// the power-of-two bucket it falls in and clamped to the observed range.
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q * h.count as f64).ceil().max(1.0);
    let mut below = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (below + n) as f64 >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let hi = bucket_upper_bound(i).map_or(h.max as f64, |b| b as f64);
            let v = lo + (hi - lo) * (rank - below as f64) / n as f64;
            return v.clamp(h.min as f64, h.max as f64);
        }
        below += n;
    }
    h.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
        v.sort();
        v
    }

    #[test]
    fn every_emitted_name_is_valid_and_listed_in_benchmark_json() {
        let doc = benchmark_json();
        let declared_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let declared_layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        for (name, _) in declared_e2e.iter().chain(&declared_layer) {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        assert_eq!(sorted(declared_e2e), sorted(listed(&doc, "end_to_end")));
        assert_eq!(sorted(declared_layer), sorted(listed(&doc, "per_layer")));
    }

    #[test]
    fn unset_or_undeclared_metrics_are_refused() {
        let mut m = Metrics::new(vec![("a".into(), "s"), ("b".into(), "ms")]);
        m.set("a", 1.5);
        assert!(m.to_json().unwrap_err().contains('b'));
        m.set("b", f64::NAN);
        assert!(m.to_json().is_err());
        m.set("b", 2.0);
        assert!(m.to_json().is_ok());
        let undeclared = std::panic::catch_unwind(move || m.set("c", 1.0));
        assert!(undeclared.is_err());
    }

    #[test]
    fn histogram_quantiles_stay_inside_the_observed_range() {
        let t = dsspy_telemetry::Telemetry::enabled();
        let h = t.histogram("h");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = t.snapshot();
        let h = snap.histogram("h").unwrap();
        let p50 = histogram_quantile(h, 0.5);
        let p99 = histogram_quantile(h, 0.99);
        assert!((256.0..=1000.0).contains(&p50), "{p50}");
        assert!(p99 >= p50 && p99 <= 1000.0, "{p99}");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
