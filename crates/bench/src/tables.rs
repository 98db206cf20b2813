//! The per-artifact regeneration functions.

use std::fmt::{Display, Write};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

use dsspy_collect::{Capture, CollectorStats, Session};
use dsspy_collections::SpyVec;
use dsspy_core::{measure_avg_nanos, Dsspy, Report};
use dsspy_events::{AllocationSite, RuntimeProfile};
use dsspy_parallel::{
    default_threads, par_find_all, par_for_init, par_map, par_max_by_key, par_merge_sort,
};
use dsspy_patterns::{analyze, MinerConfig};
use dsspy_study::{domain_rows, occurrence_rows};
use dsspy_telemetry::OverheadReport;
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
    for d in &domains {
        let _ = writeln!(
            out,
            "{:<40} {:>6} {:>11} {:>9}",
            d.name, d.programs, d.instances, d.loc
        );
    }
    let progs: usize = domains.iter().map(|d| d.programs).sum();
    let instances: usize = domains.iter().map(|d| d.instances).sum();
    let loc: usize = domains.iter().map(|d| d.loc).sum();
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

/// The paper's own pipeline over generated profiles: one capture,
/// analyzed on the calling thread ([`table2`] and [`table3`] fan out over
/// programs instead).
fn analyze_profiles(profiles: Vec<RuntimeProfile>) -> Report {
    let capture = Capture::new(profiles, CollectorStats::default(), 0);
    Dsspy::new().with_threads(1).analyze_capture(&capture)
}

/// Table II — recurring regularities in the 15-program corpus. The
/// per-program generate-and-analyze batches run on `threads` workers
/// (`par_map` keeps row order, so the table is identical for every count).
pub fn table2(threads: usize) -> String {
    let mut out = String::from(
        "Table II — Access pattern predominance: recurring regularities in 15 programs\n",
    );
    let _ = writeln!(
        out,
        "{:<20} {:<12} {:>7} {:>12} {:>10}",
        "Application", "Domain", "LOC", "Regularities", "Par. Cases"
    );
    let rows = par_map(&suite15::TABLE2_ROWS, threads.max(1), |program| {
        let (mut regular, mut cases) = (0, 0);
        for i in analyze_profiles(suite15::generate(program)).instances {
            regular += usize::from(i.regularity.is_regular());
            cases += i.use_cases.iter().filter(|u| u.kind.is_parallel()).count();
        }
        (regular, cases)
    });
    let mut total_r = 0;
    let mut total_u = 0;
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

/// Table III — 66 use cases in the evaluation corpus, by category, on
/// `threads` workers (see [`table2`]).
pub fn table3(threads: usize) -> String {
    let mut out = String::from("Table III — use cases by category\n");
    let mut line = |name: &str, cells: [&dyn Display; 6]| {
        let [li, iq, sai, fs, flr, sum] = cells;
        let _ = writeln!(
            out,
            "{name:<20} {li:>5} {iq:>5} {sai:>6} {fs:>5} {flr:>6} {sum:>6}"
        );
    };
    line(
        "Application",
        [&"# LI", &"# IQ", &"# SAI", &"# FS", &"# FLR", &"Σ"],
    );
    let mut counts = |name, got: &[usize; 5]| {
        let [li, iq, sai, fs, flr] = got;
        line(name, [li, iq, sai, fs, flr, &got.iter().sum::<usize>()]);
    };
    let rows = par_map(&suite23::TABLE3_ROWS, threads.max(1), |row| {
        let mut got = [0usize; 5];
        for uc in analyze_profiles(suite23::generate(row)).all_use_cases() {
            if let Some(col) = suite23::CATEGORY_ORDER.iter().position(|k| *k == uc.kind) {
                got[col] += 1;
            }
        }
        got
    });
    let mut totals = [0usize; 5];
    for (row, got) in suite23::TABLE3_ROWS.iter().zip(rows) {
        counts(row.name, &got);
        for (i, g) in got.iter().enumerate() {
            totals[i] += g;
        }
    }
    counts("Σ", &totals);
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
pub fn evaluate(scale: Scale, runs: NonZeroUsize, threads: usize) -> Vec<EvaluationRow> {
    suite7()
        .iter()
        .map(|w| evaluate_one(w.as_ref(), scale, runs, threads))
        .collect()
}

fn evaluate_one(
    w: &dyn Workload,
    scale: Scale,
    runs: NonZeroUsize,
    threads: usize,
) -> EvaluationRow {
    let spec = w.spec();
    let runs = runs.get();
    let plain = measure_avg_nanos(runs, || {
        black_box(w.run(scale, Mode::Plain));
    });
    // The analysis fan-out dogfoods the same thread budget the parallel
    // workload variants get.
    let dsspy = Dsspy::new().with_threads(threads);
    // Instrumented runs time session start → workload → `finish()`: the
    // paper's "data collection" phase. Analysis and the previous run's
    // capture teardown stay outside the clock.
    let mut collect_nanos = 0u128;
    let mut capture = None;
    for _ in 0..runs {
        drop(capture.take());
        let started = Instant::now();
        let session = Session::builder().config(dsspy.session).start();
        black_box(w.run(scale, Mode::Instrumented(&session)));
        capture = Some(session.finish());
        collect_nanos += started.elapsed().as_nanos();
    }
    let instrumented = (collect_nanos / runs as u128) as u64;
    let report = dsspy.analyze_capture(&capture.expect("at least one run"));
    let parallel = measure_avg_nanos(runs, || {
        black_box(w.run(scale, Mode::Parallel(threads)));
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
pub fn table4(scale: Scale, runs: NonZeroUsize, threads: usize) -> String {
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
    }
    let avg = |f: fn(&EvaluationRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let (avg_slow, avg_speed) = (avg(|r| r.slowdown), avg(|r| r.speedup));
    let sum_instances: usize = rows.iter().map(|r| r.instances).sum();
    let sum_cases: usize = rows.iter().map(|r| r.use_cases).sum();
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

/// §V per-use-case speedups: the recommended actions measured directly,
/// each kernel sequentially and on every core, `runs` times each.
pub fn speedups(runs: NonZeroUsize) -> String {
    let threads = default_threads();
    let n = 100_000usize;
    let data: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B9) % 1_000_003)
        .collect();
    let sin = |i: usize| (i as f64 * 0.001).sin();
    let hit = |v: &u64| v.is_multiple_of(1009);
    let sorted = |sort: &dyn Fn(&mut [u64])| {
        let mut d = data.clone();
        sort(&mut d);
        black_box(d).len()
    };
    // Label, the paper's figure, the sequential and the parallel kernel,
    // each passing what it built through `black_box` so it is not elided:
    // Algorithmia's priority-queue max-search (use case two), Long-Insert's
    // parallel initialization, the chunked search of the Frequent-Search
    // actions and Sort-After-Insert's parallel merge sort.
    type Kernel<'a> = &'a dyn Fn() -> usize;
    let kernels: [(&str, &str, Kernel, Kernel); 4] = [
        (
            "priority-queue linear max-search",
            " (paper 2.30)",
            &|| {
                data.iter()
                    .enumerate()
                    .fold(0, |m, (i, v)| if *v > data[m] { i } else { m })
            },
            &|| par_max_by_key(&data, threads, |v| *v).unwrap_or(0),
        ),
        (
            "list initialization",
            " (paper 1.35–1.77)",
            &|| black_box((0..n).map(sin).collect::<Vec<f64>>()).len(),
            &|| black_box(par_for_init(n, threads, sin)).len(),
        ),
        (
            "chunked parallel search",
            "",
            &|| {
                let hits = data.iter().enumerate().filter(|(_, v)| hit(v));
                black_box(hits.map(|(i, _)| i).collect::<Vec<usize>>()).len()
            },
            &|| black_box(par_find_all(&data, threads, hit)).len(),
        ),
        (
            "sort after bulk insert",
            "",
            &|| sorted(&|d| d.sort_unstable()),
            &|| sorted(&|d| par_merge_sort(d, threads)),
        ),
    ];
    let mut out = format!("§V per-use-case speedups ({threads} threads)\n");
    let time = |kernel: Kernel| {
        measure_avg_nanos(runs.get(), || {
            black_box(kernel());
        })
    };
    for (label, paper, sequential, parallel) in kernels {
        let ratio = time(sequential) as f64 / time(parallel).max(1) as f64;
        let ratio = significant(ratio);
        let _ = writeln!(out, "{label}, {n} elems: {ratio}x{paper}");
    }
    out
}

/// `x` with two decimals, or with as many more as it takes to show two
/// significant digits, so a small positive ratio never prints as zero.
fn significant(x: f64) -> String {
    let decimals = if x > 0.0 && x < 0.1 {
        (1 - x.log10().floor() as i32).clamp(2, 12) as usize
    } else {
        2
    };
    format!("{x:.decimals$}")
}

/// Ablation study: sweep the main classifier thresholds over the Table III
/// corpus (the set the paper tuned on) and report precision/recall/F1 per
/// grid point. The paper's defaults should sit on the perfect frontier —
/// the corpus was calibrated against them — and the table shows how fast
/// quality decays as the knobs move.
pub fn ablation_table() -> String {
    use dsspy_usecases::{best_by_f1, sweep_grid, LabeledProfile};

    // Label the Table III corpus with its generated ground truth: one
    // profile per assigned use case, in column order, then the noise.
    let mut corpus = Vec::new();
    for row in &suite23::TABLE3_ROWS {
        let cases = row.cases.iter().zip(suite23::CATEGORY_ORDER);
        let mut kinds = cases.flat_map(|(&n, kind)| std::iter::repeat_n(kind, n));
        for profile in suite23::generate(row) {
            let expected = kinds.next().into_iter().collect();
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
        let t2 = table2(2);
        assert!(t2.contains("81"), "{t2}");
        assert!(t2.contains("41"), "{t2}");
        let t3 = table3(2);
        assert!(t3.lines().last().is_some());
        assert!(t3.contains("49"), "{t3}");
        assert!(t3.contains("66"), "{t3}");
    }

    #[test]
    fn table4_runs_at_test_scale() {
        let t = table4(Scale::Test, NonZeroUsize::MIN, 2);
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
        let t = speedups(NonZeroUsize::MIN);
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
    fn small_ratios_keep_two_significant_digits() {
        let printed: Vec<String> = [2.304, 0.96, 0.1, 0.04, 0.0461, 0.004, 0.00012]
            .map(significant)
            .into();
        let want = [
            "2.30", "0.96", "0.10", "0.040", "0.046", "0.0040", "0.00012",
        ];
        assert_eq!(printed, want);
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
