//! The correctness oracle: what makes an operation fail.
//!
//! An operation is one program run (`profile`), one capture (`analyze`) or
//! one live session (`live`). Every check here runs outside the timed
//! region.

use dsspy_core::Report;

/// The detection columns of one Table IV row: registered data-structure
/// instances (#DS) and detected use cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detection {
    pub instances: usize,
    pub use_cases: usize,
}

/// Table IV's #DS / use-case columns at full scale, in the paper's row
/// order. Kept here, independent of the workloads crate, so a change there
/// cannot move the oracle along with the result.
pub const TABLE_IV: [(&str, Detection); 7] = [
    ("Algorithmia", det(16, 4)),
    ("Astrogrep", det(21, 2)),
    ("Contentfinder", det(11, 2)),
    ("CPU Benchmarks", det(7, 5)),
    ("Gpdotnet", det(37, 5)),
    ("Mandelbrot", det(7, 4)),
    ("WordWheelSolver", det(5, 2)),
];

const fn det(instances: usize, use_cases: usize) -> Detection {
    Detection {
        instances,
        use_cases,
    }
}

/// The Table IV row of a program, by its spec name.
pub fn expected(name: &str) -> Option<Detection> {
    TABLE_IV.iter().find(|(n, _)| *n == name).map(|(_, d)| *d)
}

pub fn detection_of(report: &Report) -> Detection {
    det(report.instance_count(), report.all_use_cases().len())
}

pub fn check_detection(expected: Detection, report: &Report) -> Result<(), String> {
    let got = detection_of(report);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "detection {}/{} differs from Table IV {}/{}",
            got.instances, got.use_cases, expected.instances, expected.use_cases
        ))
    }
}

/// A `profile` operation: the instrumented run computed what the plain run
/// computed, lost no event, and DSspy found the Table IV row.
pub fn check_profile(
    expected: Detection,
    plain_checksum: u64,
    instrumented_checksum: u64,
    dropped: u64,
    report: &Report,
) -> Result<(), String> {
    if plain_checksum != instrumented_checksum {
        return Err(format!(
            "instrumented checksum {instrumented_checksum:#x} != plain {plain_checksum:#x}"
        ));
    }
    if dropped > 0 {
        return Err(format!("{dropped} events dropped"));
    }
    check_detection(expected, report)
}

/// A `live` operation: the final streamed verdicts serialize byte for byte
/// like the post-mortem analysis of the session's capture, no subscriber
/// was poisoned and no event was dropped.
pub fn check_live(
    streamed: Option<&Report>,
    post: &Report,
    panics: u64,
    dropped: u64,
) -> Result<(), String> {
    if panics > 0 {
        return Err(format!("{panics} subscriber(s) poisoned"));
    }
    if dropped > 0 {
        return Err(format!("{dropped} events dropped"));
    }
    let streamed = streamed.ok_or("session ended without a streamed verdict")?;
    let json = |r: &Report| serde_json::to_string(&r.instances).map_err(|e| e.to_string());
    if json(streamed)? != json(post)? {
        return Err("streamed verdicts differ from post-mortem analysis".into());
    }
    Ok(())
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; a failure is reported on stderr.
    pub fn record(&mut self, op: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {op}: {why}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_collect::Session;
    use dsspy_core::Dsspy;
    use dsspy_workloads::programs::wordwheel::WordWheelSolver;
    use dsspy_workloads::{Mode, Scale, Workload};

    /// A real small run: plain checksum, instrumented checksum, capture.
    fn small_run() -> (u64, u64, dsspy_collect::Capture) {
        let plain = WordWheelSolver.run(Scale::Test, Mode::Plain);
        let session = Session::new();
        let instrumented = WordWheelSolver.run(Scale::Test, Mode::Instrumented(&session));
        (plain, instrumented, session.finish())
    }

    fn without_one_use_case(report: &Report) -> Report {
        let mut broken = report.clone();
        let victim = broken
            .instances
            .iter_mut()
            .find(|i| !i.use_cases.is_empty())
            .expect("the workload has at least one use case");
        victim.use_cases.pop();
        broken
    }

    #[test]
    fn table_iv_totals_are_the_papers() {
        let instances: usize = TABLE_IV.iter().map(|(_, d)| d.instances).sum();
        let cases: usize = TABLE_IV.iter().map(|(_, d)| d.use_cases).sum();
        assert_eq!((instances, cases), (104, 24));
    }

    #[test]
    fn injected_profile_mismatches_count_as_failed_operations() {
        let (plain, instrumented, capture) = small_run();
        let report = Dsspy::new().with_threads(1).analyze_capture(&capture);
        let want = detection_of(&report);
        let dropped = capture.stats.dropped;

        let mut tally = Tally::default();
        tally.record(
            "clean",
            check_profile(want, plain, instrumented, dropped, &report),
        );
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let broken = without_one_use_case(&report);
        tally.record(
            "one use case removed",
            check_profile(want, plain, instrumented, dropped, &broken),
        );
        tally.record(
            "checksum mismatch",
            check_profile(want, plain, instrumented ^ 1, dropped, &report),
        );
        tally.record(
            "dropped events",
            check_profile(want, plain, instrumented, 1, &report),
        );
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }

    #[test]
    fn injected_live_mismatches_count_as_failed_operations() {
        let (_, _, capture) = small_run();
        let post = Dsspy::new().with_threads(1).analyze_capture(&capture);
        let broken = without_one_use_case(&post);

        let mut tally = Tally::default();
        tally.record("clean", check_live(Some(&post), &post, 0, 0));
        tally.record("diverged", check_live(Some(&broken), &post, 0, 0));
        tally.record("poisoned", check_live(Some(&post), &post, 1, 0));
        tally.record("no verdict", check_live(None, &post, 0, 0));
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }

    #[test]
    fn detection_mismatch_fails_an_analyze_operation() {
        let (_, _, capture) = small_run();
        let report = Dsspy::new().with_threads(1).analyze_capture(&capture);
        let want = detection_of(&report);
        assert!(check_detection(want, &report).is_ok());
        assert!(check_detection(want, &without_one_use_case(&report)).is_err());
    }
}
