//! Integration: the paper's headline quantitative claims, regenerated
//! through the public regeneration functions (the same code the `repro`
//! binary runs).

use std::num::NonZeroUsize;

use dsspy_bench::tables;
use dsspy_workloads::{Mode, Scale};

#[test]
fn table1_and_figure1_reach_the_study_totals() {
    let t1 = tables::table1();
    assert!(t1.contains("1960"), "{t1}");
    assert!(t1.contains("936356") || t1.contains("936,356"), "{t1}");
    let f1 = tables::figure1_svg();
    assert!(f1.contains("List (Σ: 1275)"));
    assert!(f1.contains("Dictionary (Σ: 324)"));
}

#[test]
fn figure2_reproduces_the_papers_snippet_profile() {
    let f2 = tables::figure2();
    // Ten inserts then ten reverse reads on a pre-sized list.
    assert!(f2.contains("20 events"));
    assert!(f2.contains("max size 10"));
}

#[test]
fn figure3_contains_overlapping_patterns() {
    let f3 = tables::figure3();
    assert!(f3.contains("Insert-Back"));
    assert!(f3.contains("Read-Forward"));
}

#[test]
fn table2_totals_81_regularities_41_use_cases() {
    let t2 = tables::table2(2);
    let total_line = t2.lines().rev().find(|l| l.starts_with('Σ')).unwrap();
    assert!(total_line.contains("81"), "{total_line}");
    assert!(total_line.contains("41"), "{total_line}");
}

#[test]
fn table3_totals_match_category_counts() {
    let t3 = tables::table3(2);
    let total_line = t3.lines().rev().find(|l| l.starts_with('Σ')).unwrap();
    for expect in ["49", "3", "1", "10", "66"] {
        assert!(total_line.contains(expect), "{total_line}");
    }
}

#[test]
fn table4_search_space_reduction_is_the_papers() {
    let rows = tables::evaluate(Scale::Test, NonZeroUsize::MIN, 2);
    let instances: usize = rows.iter().map(|r| r.instances).sum();
    let cases: usize = rows.iter().map(|r| r.use_cases).sum();
    assert_eq!(instances, 104, "Table IV instance total");
    assert_eq!(cases, 24, "Table IV use-case total");
    let reduction = 1.0 - cases as f64 / instances as f64;
    assert!((reduction - 0.7692).abs() < 1e-3, "{reduction}");
    // Per-program reductions match the paper's column.
    let expect = [
        ("Algorithmia", 0.7500),
        ("Astrogrep", 0.9048),
        ("Contentfinder", 0.8182),
        ("CPU Benchmarks", 0.2857),
        ("Gpdotnet", 0.8649),
        ("Mandelbrot", 0.4286),
        ("WordWheelSolver", 0.6000),
    ];
    for (name, red) in expect {
        let row = rows.iter().find(|r| r.name == name).unwrap();
        assert!(
            (row.reduction - red).abs() < 0.005,
            "{name}: got {:.4}, paper {red:.4}",
            row.reduction
        );
    }
}

#[test]
fn table5_lists_exactly_the_papers_five_use_cases() {
    let t5 = tables::table5(Scale::Test);
    assert!(t5.contains("Use Case 5") && !t5.contains("Use Case 6"));
    for field in [
        "GPdotNet.Engine.GPModelGlobals",
        "GenerateTerminalSet",
        "GPdotNet.Engine.CHPopulation",
        ".ctor",
        "FitnessProportionateSelection",
    ] {
        assert!(t5.contains(field), "missing {field}:\n{t5}");
    }
}

#[test]
fn table6_orders_programs_by_parallel_potential() {
    // The shape claim: CPU Benchmarks is sequential-bound, gpdotnet is not,
    // and that ordering explains the speedup ordering (§V).
    let cpu = dsspy_workloads::programs::cpu_benchmarks::CpuBenchmarks;
    let gp = dsspy_workloads::programs::gpdotnet::GpDotNet;
    use dsspy_workloads::Workload;
    let f_cpu = cpu.fractions(Scale::Test).unwrap();
    let f_gp = gp.fractions(Scale::Test).unwrap();
    assert!(
        f_cpu.sequential_fraction() > f_gp.sequential_fraction() + 0.2,
        "cpu {:.2} vs gp {:.2}",
        f_cpu.sequential_fraction(),
        f_gp.sequential_fraction()
    );
}

#[test]
fn all_seven_workloads_are_deterministic_across_modes() {
    for w in dsspy_workloads::suite7() {
        let a = w.run(Scale::Test, Mode::Plain);
        let b = w.run(Scale::Test, Mode::Plain);
        assert_eq!(a, b, "{} plain must be deterministic", w.spec().name);
        let p = w.run(Scale::Test, Mode::Parallel(3));
        assert_eq!(a, p, "{} parallel must agree", w.spec().name);
    }
}
