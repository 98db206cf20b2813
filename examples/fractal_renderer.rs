//! The paper's Mandelbrot evaluation as a walkthrough: profile the
//! sequential renderer, print the DSspy report and the profile chart of its
//! hottest structure, then run the recommendation-following parallel
//! version and compare (paper: 3.00x total, §V).
//!
//! ```sh
//! cargo run --release --example fractal_renderer
//! ```

use std::time::Instant;

use dsspy::collect::Session;
use dsspy::core::Dsspy;
use dsspy::parallel::default_threads;
use dsspy::viz::profile_chart_text;
use dsspy::workloads::programs::mandelbrot::Mandelbrot;
use dsspy::workloads::{Mode, Scale, Workload};

fn main() {
    let w = Mandelbrot;

    // --- 1. Profile the sequential renderer -------------------------------
    let dsspy = Dsspy::new();
    let mut checksum = 0;
    let report = dsspy.profile(|session| {
        checksum = w.run(Scale::Test, Mode::Instrumented(session));
    });
    println!("{}\n", report.summary());
    println!("{}", report.render_use_cases());

    // Chart the image list (the Long-Insert the paper's use case four hit).
    if let Some(instance) = report
        .instances
        .iter()
        .find(|i| i.instance.site.method == "CreateImage")
    {
        println!(
            "(the CreateImage list saw {} events across {} patterns)",
            instance.events,
            instance.analysis.patterns.len()
        );
    }

    // Re-capture raw events for the chart (profiles live in the capture).
    let session = Session::new();
    let _ = w.run(Scale::Test, Mode::Instrumented(&session));
    let capture = session.finish();
    if let Some(profile) = capture
        .profiles
        .iter()
        .find(|p| p.instance.site.method == "InitAxes")
    {
        println!("{}", profile_chart_text(profile));
    }

    // --- 2. Sequential vs recommendation-following parallel ---------------
    let threads = default_threads();
    let t0 = Instant::now();
    let seq = w.run(Scale::Full, Mode::Plain);
    let sequential = t0.elapsed();
    let t1 = Instant::now();
    let par = w.run(Scale::Full, Mode::Parallel(threads));
    let parallel = t1.elapsed();
    assert_eq!(seq, par, "parallel render must be pixel-identical");
    println!(
        "full-scale render: sequential {sequential:?}, parallel({threads}) {parallel:?} — speedup {:.2}x (paper: 3.00x)",
        sequential.as_secs_f64() / parallel.as_secs_f64()
    );
}
