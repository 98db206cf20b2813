//! Chunked data-parallel primitives over slices.
//!
//! These are the executable forms of the Long-Insert recommendation
//! ("parallelize the insert operation") and of the array-initialization
//! cases the paper's Mandelbrot evaluation parallelizes: each worker owns a
//! contiguous chunk, so there is no synchronization on the hot path and the
//! results are bit-identical to the sequential versions.

use crate::{chunk_ranges, concat, fan_out};

/// Parallel map: apply `f` to every element, preserving order.
///
/// Equivalent to `input.iter().map(f).collect()`: [`par_map_weighted`]
/// with every element weighing the same, so each of the `threads` scoped
/// workers maps a contiguous run of near-equal length.
///
/// ```
/// let doubled = dsspy_parallel::par_map(&[1, 2, 3], 2, |v| v * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map<T: Sync, U: Send>(
    input: &[T],
    threads: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    par_map_weighted(input, threads, |_| 1, || (), |(), item| f(item))
}

/// Parallel map over runs of near-equal weight, with per-worker scratch.
///
/// `input` is cut into at most `threads` contiguous runs: each run ends
/// where the running total of `weight` passes the next `k / threads` share
/// of the whole, so a few heavy items do not leave workers idle the way an
/// even split by count would. Each run is mapped on its own scoped worker,
/// which first builds its scratch value with `init` and hands it to every
/// call of `f`. The result is in input order; with one thread (or one item)
/// everything runs on the calling thread with one scratch value.
///
/// ```
/// let sizes = [5, 1, 1, 1, 1, 1];
/// let out = dsspy_parallel::par_map_weighted(&sizes, 2, |&w| w, || 0, |calls, &w| {
///     *calls += 1;
///     w * 10
/// });
/// assert_eq!(out, vec![50, 10, 10, 10, 10, 10]);
/// ```
pub fn par_map_weighted<T: Sync, S, U: Send>(
    input: &[T],
    threads: usize,
    weight: impl Fn(&T) -> usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> U + Sync,
) -> Vec<U> {
    let threads = threads.clamp(1, input.len().max(1));
    let total: usize = input.iter().map(&weight).sum();
    let mut runs = Vec::with_capacity(threads);
    let (mut rest, mut seen) = (input, 0);
    for k in 1..threads {
        let goal = total * k / threads;
        let mut cut = 0;
        while cut < rest.len() && seen < goal {
            seen += weight(&rest[cut]);
            cut += 1;
        }
        let (run, tail) = rest.split_at(cut);
        runs.push(run);
        rest = tail;
    }
    runs.push(rest);
    let parts = fan_out(runs, |run| {
        let mut scratch = init();
        run.iter()
            .map(|item| f(&mut scratch, item))
            .collect::<Vec<U>>()
    });
    concat(parts)
}

/// Parallel initialization: build a `Vec` of `len` elements where element
/// `i` is `f(i)`. This is the "parallelize the insert" transformation for
/// the common fill loop `for i in 0..n { list.add(f(i)) }` — order is
/// preserved, so it is only valid where the paper's recommendation applies
/// (index-determined values).
pub fn par_for_init<U: Send>(len: usize, threads: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let parts = fan_out(chunk_ranges(len, threads.max(1)), |(a, b)| {
        (a..b).map(&f).collect::<Vec<U>>()
    });
    concat(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let input: Vec<i64> = (0..10_000).collect();
        let seq: Vec<i64> = input.iter().map(|v| v * v).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(par_map(&input, threads, |v| v * v), seq);
        }
    }

    #[test]
    fn par_map_empty_and_tiny() {
        let empty: Vec<i32> = vec![];
        assert!(par_map(&empty, 8, |v| *v).is_empty());
        assert_eq!(par_map(&[7], 8, |v| v + 1), vec![8]);
    }

    #[test]
    fn par_map_weighted_keeps_order_and_splits_by_weight() {
        let input: Vec<usize> = (0..500).map(|i| (i * 7919) % 97).collect();
        let seq: Vec<usize> = input.iter().map(|v| v + 1).collect();
        for threads in [0, 1, 2, 3, 8, 1000] {
            let out = par_map_weighted(
                &input,
                threads,
                |&w| w,
                Vec::new,
                |seen: &mut Vec<usize>, &v| {
                    seen.push(v);
                    v + 1
                },
            );
            assert_eq!(out, seq, "{threads} threads");
        }
        // One heavy item first: the second worker takes all the rest.
        let workers = par_map_weighted(
            &[10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            2,
            |&w| w,
            || std::thread::current().id(),
            |id, _| *id,
        );
        assert_ne!(workers[0], workers[1]);
        assert!(workers[1..].iter().all(|id| *id == workers[1]));
        assert!(par_map_weighted(&[] as &[usize], 4, |&w| w, || (), |_, &v| v).is_empty());
    }

    #[test]
    fn par_for_init_matches_sequential() {
        let seq: Vec<usize> = (0..5000).map(|i| i * 3 + 1).collect();
        for threads in [1, 4, 16] {
            assert_eq!(par_for_init(5000, threads, |i| i * 3 + 1), seq);
        }
    }

    #[test]
    fn par_map_with_more_threads_than_items() {
        let input = [1, 2, 3];
        assert_eq!(par_map(&input, 64, |v| v * 10), vec![10, 20, 30]);
    }
}
