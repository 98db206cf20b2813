//! The per-artifact regeneration functions.

use std::fmt::Write;
use std::time::Instant;

use dsspy_collect::Session;
use dsspy_collections::SpyVec;
use dsspy_core::{measure_avg_nanos, Dsspy};
use dsspy_events::AllocationSite;
use dsspy_parallel::{
    default_threads, par_find_all, par_for_init, par_map, par_max_by_key, par_merge_sort,
};
use dsspy_patterns::{analyze, regularity, MinerConfig, RegularityConfig};
use dsspy_study::{domain_rows, occurrence_rows};
use dsspy_telemetry::OverheadReport;
use dsspy_usecases::{classify, Thresholds};
use dsspy_viz::{
    occurrence_svg, occurrence_table, profile_chart_svg, profile_chart_text, OccurrenceRow,
};
use dsspy_workloads::traces::figure3_profile;
use dsspy_workloads::{suite15, suite23, suite7, Mode, Scale, Workload};

/// Table I — distribution of benchmark programs across domains.
pub fn table1() -> String {
    let rows = occurrence_rows();
    let domains = domain_rows(&rows);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I — Empirical study: distribution of benchmark programs across domains"
    );
    let _ = writeln!(
        out,
        "{:<40} {:>6} {:>11} {:>9}",
        "Application Domain", "#Prog", "#Instances", "LOC"
    );
    let mut progs = 0;
    let mut instances = 0;
    let mut loc = 0;
    for d in &domains {
        let _ = writeln!(
            out,
            "{:<40} {:>6} {:>11} {:>9}",
            d.name, d.programs, d.instances, d.loc
        );
        progs += d.programs;
        instances += d.instances;
        loc += d.loc;
    }
    let _ = writeln!(out, "{:<40} {:>6} {:>11} {:>9}", "Σ", progs, instances, loc);
    let _ = writeln!(
        out,
        "\n(paper: 37 programs, 1,960 dynamic instances, 936,356 LOC; plus {} arrays)",
        rows.iter().map(|r| r.arrays).sum::<usize>()
    );
    out
}

/// The Fig. 1 data as viz rows.
fn figure1_rows() -> Vec<OccurrenceRow> {
    occurrence_rows()
        .into_iter()
        .map(|r| OccurrenceRow::from_kind_counts(r.name, r.domain, &r.by_kind))
        .collect()
}

/// Fig. 1 — data-structure occurrence per program, as a text table.
pub fn figure1_text() -> String {
    let mut out = String::from("Figure 1 — Data structure occurrence by program\n");
    out.push_str(&occurrence_table(&figure1_rows()));
    out
}

/// Fig. 1 — the stacked-bar chart as SVG.
pub fn figure1_svg() -> String {
    occurrence_svg(&figure1_rows())
}

/// Run the paper's Fig. 2 snippet and return its runtime profile.
///
/// ```csharp
/// List<int> list = new List<int>(10);
/// for (int i = 0; i < 10; i++) list.Add(i);
/// for (int i = 9; i >= 0; i--) Debug.Write(list[i]);
/// ```
fn figure2_profile() -> dsspy_events::RuntimeProfile {
    let session = Session::new();
    {
        let mut list =
            SpyVec::register_with_capacity(&session, AllocationSite::new("Fig2", "Main", 1), 10);
        for i in 0..10 {
            list.add(i);
        }
        for i in (0..10).rev() {
            let _ = *list.get(i);
        }
    }
    let capture = session.finish();
    capture.profiles.into_iter().next().expect("one instance")
}

/// Fig. 2 — the fill-then-reverse-read profile chart (terminal form).
pub fn figure2() -> String {
    let mut out = String::from("Figure 2 — Runtime profile of the paper's list snippet\n");
    out.push_str(&profile_chart_text(&figure2_profile()));
    out
}

/// Fig. 2 as SVG.
pub fn figure2_svg() -> String {
    profile_chart_svg(&figure2_profile())
}

/// Fig. 3 — repeated Insert-Back + Read-Forward + Clear cycles.
pub fn figure3() -> String {
    let profile = figure3_profile(6, 40);
    let mut out =
        String::from("Figure 3 — Index-sequential inserts and reads (fill/scan/clear cycles)\n");
    out.push_str(&profile_chart_text(&profile));
    let analysis = analyze(&profile, &MinerConfig::default());
    let _ = writeln!(out, "mined patterns:");
    for p in &analysis.patterns {
        let _ = writeln!(
            out,
            "  {:<14} events {:>4}  indices [{}, {}]  coverage {:.0}%",
            p.kind.to_string(),
            p.len,
            p.lo,
            p.hi,
            p.coverage() * 100.0
        );
    }
    out
}

/// Fig. 3 as SVG.
pub fn figure3_svg() -> String {
    profile_chart_svg(&figure3_profile(6, 40))
}

/// Table II — recurring regularities in the 15-program corpus.
pub fn table2() -> String {
    table2_with_threads(default_threads())
}

/// [`table2`] with an explicit analysis-worker count: the per-program
/// generate-and-mine batches run on `threads` workers (`par_map` keeps row
/// order, so the rendered table is identical for every count).
pub fn table2_with_threads(threads: usize) -> String {
    let mut out = String::from(
        "Table II — Access pattern predominance: recurring regularities in 15 programs\n",
    );
    let _ = writeln!(
        out,
        "{:<20} {:<12} {:>7} {:>12} {:>10}",
        "Application", "Domain", "LOC", "Regularities", "Par. Cases"
    );
    let mut total_r = 0;
    let mut total_u = 0;
    let rows = par_map(&suite15::TABLE2_ROWS, threads.max(1), |program| {
        let profiles = suite15::generate(program);
        let mut regular = 0usize;
        let mut cases = 0usize;
        for p in &profiles {
            let analysis = analyze(p, &MinerConfig::default());
            if regularity(&analysis, &RegularityConfig::default()).is_regular() {
                regular += 1;
            }
            cases += classify(&p.instance, &analysis, &Thresholds::default())
                .iter()
                .filter(|u| u.kind.is_parallel())
                .count();
        }
        (regular, cases)
    });
    for (program, (regular, cases)) in suite15::TABLE2_ROWS.iter().zip(rows) {
        let _ = writeln!(
            out,
            "{:<20} {:<12} {:>7} {:>12} {:>10}",
            program.name, program.domain, program.loc, regular, cases
        );
        total_r += regular;
        total_u += cases;
    }
    let _ = writeln!(
        out,
        "{:<20} {:<12} {:>7} {:>12} {:>10}",
        "Σ", "", "", total_r, total_u
    );
    let _ = writeln!(
        out,
        "\n(paper: Σ 81 recurring regularities, Σ 41 parallel use cases)"
    );
    out
}

/// Table III — 66 use cases in the evaluation corpus, by category.
pub fn table3() -> String {
    table3_with_threads(default_threads())
}

/// [`table3`] with an explicit analysis-worker count (see
/// [`table2_with_threads`]).
pub fn table3_with_threads(threads: usize) -> String {
    let mut out = String::from("Table III — use cases by category\n");
    let _ = writeln!(
        out,
        "{:<20} {:>5} {:>5} {:>6} {:>5} {:>6} {:>6}",
        "Application", "# LI", "# IQ", "# SAI", "# FS", "# FLR", "Σ"
    );
    let mut totals = [0usize; 5];
    let rows = par_map(&suite23::TABLE3_ROWS, threads.max(1), |row| {
        let profiles = suite23::generate(row);
        let mut got = [0usize; 5];
        for p in &profiles {
            let analysis = analyze(p, &MinerConfig::default());
            for uc in classify(&p.instance, &analysis, &Thresholds::default()) {
                if let Some(col) = suite23::CATEGORY_ORDER.iter().position(|k| *k == uc.kind) {
                    got[col] += 1;
                }
            }
        }
        got
    });
    for (row, got) in suite23::TABLE3_ROWS.iter().zip(rows) {
        let _ = writeln!(
            out,
            "{:<20} {:>5} {:>5} {:>6} {:>5} {:>6} {:>6}",
            row.name,
            got[0],
            got[1],
            got[2],
            got[3],
            got[4],
            got.iter().sum::<usize>()
        );
        for (i, g) in got.iter().enumerate() {
            totals[i] += g;
        }
    }
    let _ = writeln!(
        out,
        "{:<20} {:>5} {:>5} {:>6} {:>5} {:>6} {:>6}",
        "Σ",
        totals[0],
        totals[1],
        totals[2],
        totals[3],
        totals[4],
        totals.iter().sum::<usize>()
    );
    let _ = writeln!(out, "\n(paper: LI 49, IQ 3, SAI 1, FS 3, FLR 10 — Σ 66)");
    out
}

/// One Table IV row as measured on this machine.
#[derive(Clone, Debug)]
pub struct EvaluationRow {
    /// Program name.
    pub name: String,
    /// Paper-reported LOC of the original program.
    pub loc: usize,
    /// Average plain runtime, seconds.
    pub runtime_s: f64,
    /// Average instrumented runtime, seconds.
    pub profiling_s: f64,
    /// Slowdown factor.
    pub slowdown: f64,
    /// Registered data-structure instances.
    pub instances: usize,
    /// Detected use cases.
    pub use_cases: usize,
    /// Use-case-based search-space reduction (the paper's metric).
    pub reduction: f64,
    /// Parallel (recommendation-following) speedup over plain, as measured
    /// on this host's cores.
    pub speedup: f64,
    /// Amdahl-projected speedup on the paper's 8-core machine, from the
    /// workload's measured sequential fraction (None if Table VI does not
    /// cover it).
    pub projected_8core: Option<f64>,
}

/// Run the full Table IV evaluation: every workload measured plain,
/// instrumented and parallel, `runs` times each.
pub fn evaluate(scale: Scale, runs: usize, threads: usize) -> Vec<EvaluationRow> {
    suite7()
        .iter()
        .map(|w| evaluate_one(w.as_ref(), scale, runs, threads))
        .collect()
}

fn evaluate_one(w: &dyn Workload, scale: Scale, runs: usize, threads: usize) -> EvaluationRow {
    let spec = w.spec();
    let plain = measure_avg_nanos(runs, || {
        std::hint::black_box(w.run(scale, Mode::Plain));
    });
    // The analysis fan-out dogfoods the same thread budget the parallel
    // workload variants get.
    let dsspy = Dsspy::new().with_threads(threads);
    // Instrumented runs time session start → workload → `finish()`: the
    // paper's "data collection" phase. Analysis and the previous run's
    // capture teardown stay outside the clock.
    let runs = runs.max(1);
    let mut collect_nanos = 0u128;
    let mut capture = None;
    for _ in 0..runs {
        drop(capture.take());
        let started = Instant::now();
        let session = Session::builder().config(dsspy.session).start();
        std::hint::black_box(w.run(scale, Mode::Instrumented(&session)));
        capture = Some(session.finish());
        collect_nanos += started.elapsed().as_nanos();
    }
    let instrumented = (collect_nanos / runs as u128) as u64;
    let report = dsspy.analyze_capture(&capture.expect("at least one run"));
    let parallel = measure_avg_nanos(runs, || {
        std::hint::black_box(w.run(scale, Mode::Parallel(threads)));
    });
    let projected_8core = w.fractions(scale).map(|f| f.amdahl_bound(8));
    EvaluationRow {
        name: spec.name.to_string(),
        loc: spec.paper_loc,
        runtime_s: plain as f64 / 1e9,
        profiling_s: instrumented as f64 / 1e9,
        slowdown: OverheadReport::from_measurement(plain, instrumented).slowdown,
        instances: report.instance_count(),
        use_cases: report.all_use_cases().len(),
        reduction: report.use_case_reduction(),
        speedup: plain as f64 / parallel.max(1) as f64,
        projected_8core,
    }
}

/// Table IV — the full evaluation, formatted.
pub fn table4(scale: Scale, runs: usize, threads: usize) -> String {
    let rows = evaluate(scale, runs, threads);
    let mut out =
        String::from("Table IV — Evaluation of DSspy: slowdown, search-space reduction, speedup\n");
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>10} {:>10} {:>9} {:>5} {:>6} {:>10} {:>8} {:>8}",
        "Name",
        "LOC",
        "Runtime s",
        "Profil. s",
        "Slowdown",
        "#DS",
        "Cases",
        "Reduction",
        "Speedup",
        "Proj(8)"
    );
    let mut sum_instances = 0;
    let mut sum_cases = 0;
    let mut slowdowns = Vec::new();
    let mut speedups = Vec::new();
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>10.4} {:>10.4} {:>9.2} {:>5} {:>6} {:>9.2}% {:>8.2} {:>8}",
            r.name,
            r.loc,
            r.runtime_s,
            r.profiling_s,
            r.slowdown,
            r.instances,
            r.use_cases,
            r.reduction * 100.0,
            r.speedup,
            r.projected_8core
                .map(|p| format!("{p:.2}"))
                .unwrap_or_else(|| "-".into())
        );
        sum_instances += r.instances;
        sum_cases += r.use_cases;
        slowdowns.push(r.slowdown);
        speedups.push(r.speedup);
    }
    let avg_slow = slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64;
    let avg_speed = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let total_reduction = 1.0 - sum_cases as f64 / sum_instances.max(1) as f64;
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>10} {:>10} {:>9.2} {:>5} {:>6} {:>9.2}% {:>8.2} {:>8}",
        "Σ / avg",
        "",
        "",
        "",
        avg_slow,
        sum_instances,
        sum_cases,
        total_reduction * 100.0,
        avg_speed,
        ""
    );
    let _ = writeln!(
        out,
        "\n(paper: avg slowdown 47.13, 104 instances → 24 use cases = 76.92% reduction, avg speedup 2.13)"
    );
    out
}

/// Table V — the DSspy use-case listing for gpdotnet.
pub fn table5(scale: Scale) -> String {
    let report = Dsspy::new().profile(|session| {
        dsspy_workloads::programs::gpdotnet::GpDotNet.run(scale, Mode::Instrumented(session));
    });
    let mut out = String::from("Table V — Example DSspy use cases for gpdotnet\n\n");
    // Only the flagged instances, Table V style.
    out.push_str(&report.render_use_cases());
    out
}

/// Table VI — sequential vs parallelizable runtime fractions.
pub fn table6(scale: Scale) -> String {
    let mut out =
        String::from("Table VI — Comparison of sequential and parallel runtime fractions\n");
    let _ = writeln!(
        out,
        "{:<16} {:>14} {:>16} {:>12} {:>12}",
        "Name", "Sequential ms", "Parallelizable ms", "Seq. Frac.", "Amdahl(8)"
    );
    for w in suite7() {
        if let Some(f) = w.fractions(scale) {
            let _ = writeln!(
                out,
                "{:<16} {:>14.2} {:>16.2} {:>11.2}% {:>12.2}",
                w.spec().name,
                f.sequential_nanos as f64 / 1e6,
                f.parallelizable_nanos as f64 / 1e6,
                f.sequential_fraction() * 100.0,
                f.amdahl_bound(8)
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(paper: CPU Benchmarks 94.29%, Gpdotnet 3.89%, Mandelbrot 9.09%, WordWheelSolver 28.21%)"
    );
    out
}

/// §V per-use-case speedups: the recommended actions measured directly.
pub fn speedups(runs: usize) -> String {
    let threads = default_threads();
    let mut out = format!("§V per-use-case speedups ({threads} threads)\n");
    let n = 100_000usize;

    // Algorithmia use case two: priority-queue max-search on 100k elements
    // (paper: 2.30).
    let data: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B9) % 1_000_003)
        .collect();
    let seq = measure_avg_nanos(runs, || {
        let mut best = 0usize;
        for (i, v) in data.iter().enumerate() {
            if *v > data[best] {
                best = i;
            }
        }
        std::hint::black_box(best);
    });
    let par = measure_avg_nanos(runs, || {
        std::hint::black_box(par_max_by_key(&data, threads, |v| *v));
    });
    let _ = writeln!(
        out,
        "priority-queue linear max-search, {n} elems: {:.2}x (paper 2.30)",
        seq as f64 / par.max(1) as f64
    );

    // Long-Insert: parallel initialization (paper: 1.35 / 1.77).
    let seq = measure_avg_nanos(runs, || {
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.001).sin()).collect();
        std::hint::black_box(&v);
    });
    let par = measure_avg_nanos(runs, || {
        let v = par_for_init(n, threads, |i| (i as f64 * 0.001).sin());
        std::hint::black_box(&v);
    });
    let _ = writeln!(
        out,
        "list initialization, {n} elems: {:.2}x (paper 1.35–1.77)",
        seq as f64 / par.max(1) as f64
    );

    // Frequent-Search: chunked parallel search (paper FS/FLR actions).
    let seq = measure_avg_nanos(runs, || {
        let hits: Vec<usize> = data
            .iter()
            .enumerate()
            .filter(|(_, v)| **v % 1009 == 0)
            .map(|(i, _)| i)
            .collect();
        std::hint::black_box(hits.len());
    });
    let par = measure_avg_nanos(runs, || {
        let hits = par_find_all(&data, threads, |v| *v % 1009 == 0);
        std::hint::black_box(hits.len());
    });
    let _ = writeln!(
        out,
        "chunked parallel search, {n} elems: {:.2}x",
        seq as f64 / par.max(1) as f64
    );

    // Sort-After-Insert: parallel merge sort.
    let seq = measure_avg_nanos(runs, || {
        let mut d = data.clone();
        d.sort_unstable();
        std::hint::black_box(d.len());
    });
    let par = measure_avg_nanos(runs, || {
        let mut d = data.clone();
        par_merge_sort(&mut d, threads);
        std::hint::black_box(d.len());
    });
    let _ = writeln!(
        out,
        "sort after bulk insert, {n} elems: {:.2}x",
        seq as f64 / par.max(1) as f64
    );
    out
}

/// Ablation study: sweep the main classifier thresholds over the Table III
/// corpus (the set the paper tuned on) and report precision/recall/F1 per
/// grid point. The paper's defaults should sit on the perfect frontier —
/// the corpus was calibrated against them — and the table shows how fast
/// quality decays as the knobs move.
pub fn ablation_table() -> String {
    use dsspy_usecases::{best_by_f1, sweep_grid, LabeledProfile};

    // Label the Table III corpus with its generated ground truth.
    let mut corpus = Vec::new();
    for row in &suite23::TABLE3_ROWS {
        let profiles = suite23::generate(row);
        let mut expected_stream = Vec::new();
        for (col, &count) in row.cases.iter().enumerate() {
            for _ in 0..count {
                expected_stream.push(suite23::CATEGORY_ORDER[col]);
            }
        }
        for (i, profile) in profiles.into_iter().enumerate() {
            let expected = expected_stream.get(i).map(|k| vec![*k]).unwrap_or_default();
            corpus.push(LabeledProfile { profile, expected });
        }
    }

    let points = sweep_grid(&corpus, &MinerConfig::default());
    let mut out =
        String::from("Ablation — classifier thresholds vs. detection quality (Table III corpus)\n");
    let _ = writeln!(
        out,
        "{:<44} {:>9} {:>7} {:>7}",
        "setting", "precision", "recall", "F1"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:<44} {:>8.3} {:>7.3} {:>7.3}",
            p.label,
            p.quality.precision(),
            p.quality.recall(),
            p.quality.f1()
        );
    }
    if let Some(best) = best_by_f1(&points) {
        let _ = writeln!(
            out,
            "\nbest: {} (F1 {:.3}); paper defaults: li_run=100 li_share=0.3 flr_pats=10",
            best.label,
            best.quality.f1()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_paper_totals() {
        let t = table1();
        assert!(t.contains("1960"), "{t}");
        assert!(t.contains("Data structures & algorithms library"));
    }

    #[test]
    fn figure1_totals_match() {
        let t = figure1_text();
        assert!(t.contains("dotspatial"));
        let svg = figure1_svg();
        assert!(svg.contains("List (Σ: 1275)"), "list total in legend");
    }

    #[test]
    fn figure2_shape() {
        let t = figure2();
        assert!(t.contains("20 events"));
        assert!(t.contains('I') && t.contains('R'));
        assert!(figure2_svg().starts_with("<svg"));
    }

    #[test]
    fn figure3_mines_both_patterns() {
        let t = figure3();
        assert!(t.contains("Insert-Back"));
        assert!(t.contains("Read-Forward"));
        assert!(figure3_svg().starts_with("<svg"));
    }

    #[test]
    fn table2_and_table3_reach_paper_totals() {
        let t2 = table2();
        assert!(t2.contains("81"), "{t2}");
        assert!(t2.contains("41"), "{t2}");
        let t3 = table3();
        assert!(t3.lines().last().is_some());
        assert!(t3.contains("49"), "{t3}");
        assert!(t3.contains("66"), "{t3}");
    }

    #[test]
    fn table4_runs_at_test_scale() {
        let t = table4(Scale::Test, 1, 2);
        assert!(t.contains("Mandelbrot"));
        assert!(t.contains("104"), "104 instances total: {t}");
        assert!(t.contains("24"), "24 use cases total: {t}");
        assert!(t.contains("76.92%"), "the headline reduction: {t}");
    }

    #[test]
    fn table5_matches_paper_listing() {
        let t = table5(Scale::Test);
        assert!(t.contains("Use Case 5"), "five use cases: {t}");
        assert!(!t.contains("Use Case 6"));
        assert!(t.contains("GenerateTerminalSet"));
        assert!(t.contains("FitnessProportionateSelection"));
        assert!(t.contains("Frequent-Long-Read"));
        assert!(t.contains("Long-Insert"));
    }

    #[test]
    fn speedups_prints_four_positive_ratios() {
        let t = speedups(1);
        let ratios: Vec<f64> = t
            .lines()
            .skip(1)
            .map(|row| {
                let (_, rest) = row.split_once(": ").expect("a ratio after the label");
                let (ratio, _) = rest.split_once('x').expect("a ratio ending in x");
                ratio.parse().expect("a number")
            })
            .collect();
        assert_eq!(ratios.len(), 4, "{t}");
        assert!(ratios.iter().all(|r| r.is_finite() && *r > 0.0), "{t}");
    }

    #[test]
    fn table6_lists_the_four_programs() {
        let t = table6(Scale::Test);
        for name in [
            "CPU Benchmarks",
            "Gpdotnet",
            "Mandelbrot",
            "WordWheelSolver",
        ] {
            assert!(t.contains(name), "{t}");
        }
    }
}
