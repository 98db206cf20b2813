//! Measurement helpers for the evaluation (paper §V, Tables IV and VI):
//! averaged timings and sequential-fraction bookkeeping. The paired-run
//! slowdown factor is `dsspy_telemetry::OverheadReport::from_measurement`.

use serde::{Deserialize, Serialize};

/// Average wall-clock nanoseconds of `runs` executions of `f`.
///
/// The paper "wrote a tool that runs all instrumented versions ten times and
/// computes their average execution times" — this is that tool.
pub fn measure_avg_nanos(runs: usize, mut f: impl FnMut()) -> u64 {
    let runs = runs.max(1);
    let start = std::time::Instant::now();
    for _ in 0..runs {
        f();
    }
    (start.elapsed().as_nanos() / runs as u128) as u64
}

/// Sequential-fraction bookkeeping for Table VI: how much of a program's
/// runtime is inherently sequential vs. parallelizable.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RuntimeFractions {
    /// Runtime of the parts that must stay sequential, nanoseconds.
    pub sequential_nanos: u64,
    /// Runtime of the parts that can be parallelized, nanoseconds.
    pub parallelizable_nanos: u64,
}

impl RuntimeFractions {
    /// The sequential fraction (Table VI's last column): the higher it is,
    /// the lower the parallel potential (Amdahl).
    pub fn sequential_fraction(&self) -> f64 {
        let total = self.sequential_nanos + self.parallelizable_nanos;
        if total == 0 {
            return 0.0;
        }
        self.sequential_nanos as f64 / total as f64
    }

    /// Amdahl's-law speedup bound for `threads` workers.
    pub fn amdahl_bound(&self, threads: usize) -> f64 {
        let s = self.sequential_fraction();
        if threads == 0 {
            return 1.0;
        }
        1.0 / (s + (1.0 - s) / threads as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_amdahl() {
        // Table VI, CPU Benchmarks: 7600 ms sequential, 460 ms parallel.
        let f = RuntimeFractions {
            sequential_nanos: 7_600,
            parallelizable_nanos: 460,
        };
        assert!((f.sequential_fraction() - 0.9429).abs() < 1e-3);
        // With a 94 % sequential fraction even 8 cores cap out near 1.06.
        assert!(f.amdahl_bound(8) < 1.1);
        // gpdotnet: 7000 vs 173000 → 3.89 % sequential, big headroom.
        let g = RuntimeFractions {
            sequential_nanos: 7_000,
            parallelizable_nanos: 173_000,
        };
        assert!((g.sequential_fraction() - 0.0389).abs() < 1e-3);
        assert!(g.amdahl_bound(8) > 5.0);
    }

    #[test]
    fn measure_avg_runs_the_closure() {
        let mut count = 0;
        let nanos = measure_avg_nanos(5, || count += 1);
        assert_eq!(count, 5);
        // Can't assert much about time, but it must be finite and small-ish.
        assert!(nanos < 1_000_000_000);
    }

    #[test]
    fn zero_runs_clamped_to_one() {
        let mut count = 0;
        measure_avg_nanos(0, || count += 1);
        assert_eq!(count, 1);
    }
}
