//! Integration: the full artifact chain for a real workload — profile
//! gpdotnet, persist the capture, reload it, analyze, and emit every output
//! format (text, JSON, CSV, HTML, SVG charts) without loss.

use dsspy::collect::{load_capture_with, save_capture, ReadOptions, Session};
use dsspy::core::{instances_csv, use_cases_csv, Dsspy};
use dsspy::viz::{html_report, profile_chart_svg, timeline_svg};
use dsspy_workloads::programs::gpdotnet::GpDotNet;
use dsspy_workloads::{Mode, Scale, Workload};

#[test]
fn gpdotnet_artifact_chain() {
    // 1. Profile and persist.
    let session = Session::new();
    let _ = GpDotNet.run(Scale::Test, Mode::Instrumented(&session));
    let capture = session.finish();
    let dir = std::env::temp_dir().join(format!("dsspy-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cap_path = dir.join("gpdotnet.dsspycap");
    save_capture(&capture, &cap_path).unwrap();

    // 2. Reload and analyze: the verdicts are identical to the in-memory
    //    ones (the persistence layer is transparent to analysis).
    let reloaded = load_capture_with(&cap_path, &ReadOptions::default()).unwrap();
    let direct = Dsspy::new().analyze_capture(&capture);
    let via_disk = Dsspy::new().analyze_capture(&reloaded);
    assert_eq!(direct.instance_count(), via_disk.instance_count());
    assert_eq!(direct.all_use_cases().len(), via_disk.all_use_cases().len());
    assert_eq!(via_disk.all_use_cases().len(), 5, "the Table V listing");

    // 3. Every export format renders and carries the headline facts.
    let json = serde_json::to_string(&via_disk).unwrap();
    assert!(json.contains("FitnessProportionateSelection"));

    let inst_csv = instances_csv(&via_disk);
    assert_eq!(inst_csv.lines().count(), 38, "header + 37 instances");
    let case_csv = use_cases_csv(&via_disk);
    assert_eq!(case_csv.lines().count(), 6, "header + 5 use cases");

    let html = html_report(&via_disk, &reloaded.profiles);
    assert!(html.contains("GenerateTerminalSet"));
    assert!(
        html.matches("<figure>").count() >= 6,
        "charts per flagged instance"
    );
    std::fs::write(dir.join("report.html"), &html).unwrap();

    // 4. Charts for the population instance specifically.
    let population = reloaded
        .profiles
        .iter()
        .find(|p| p.instance.site.method == ".ctor")
        .expect("population profile");
    let chart = profile_chart_svg(population);
    assert!(chart.contains("<svg"));
    let analysis = dsspy::patterns::analyze(population, &dsspy::patterns::MinerConfig::default());
    let phases = dsspy::patterns::segment_phases(population);
    assert!(
        analysis.patterns.len() >= 24,
        "12 generations × (insert + reads)"
    );
    let tl = timeline_svg(population, &analysis.patterns, &phases);
    assert!(tl.contains("Insert-Back"));

    std::fs::remove_dir_all(&dir).ok();
}
