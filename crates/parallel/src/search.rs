//! Parallel search kernels — the Frequent-Search / Frequent-Long-Read
//! recommended action: "parallelize the search operation in a way that
//! splits the list into smaller chunks and search them in parallel"
//! (paper §III-B).

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{chunk_ranges, concat, fan_out};

/// Find the index of the *first* element matching `pred`, searching chunks
/// in parallel with cooperative early exit: once a worker finds a match, all
/// workers at higher indices than the best-so-far stop scanning.
///
/// Returns the same index a sequential `iter().position(pred)` would.
pub fn par_find_first<T: Sync>(
    input: &[T],
    threads: usize,
    pred: impl Fn(&T) -> bool + Sync,
) -> Option<usize> {
    // Best (smallest) match index found so far; MAX means "none".
    let best = AtomicUsize::new(usize::MAX);
    fan_out(chunk_ranges(input.len(), threads.max(1)), |(a, b)| {
        for (off, v) in input[a..b].iter().enumerate() {
            // A chunk whose start is already past the best match can never
            // improve the answer; checking every 1024 items bounds the
            // wasted work.
            if off % 1024 == 0 && best.load(Ordering::Relaxed) <= a {
                return;
            }
            if pred(v) {
                best.fetch_min(a + off, Ordering::Relaxed);
                return;
            }
        }
    });
    match best.into_inner() {
        usize::MAX => None,
        i => Some(i),
    }
}

/// Find the indices of *all* matching elements, in ascending order.
pub fn par_find_all<T: Sync>(
    input: &[T],
    threads: usize,
    pred: impl Fn(&T) -> bool + Sync,
) -> Vec<usize> {
    let parts = fan_out(chunk_ranges(input.len(), threads.max(1)), |(a, b)| {
        input[a..b]
            .iter()
            .enumerate()
            .filter(|(_, v)| pred(v))
            .map(|(off, _)| a + off)
            .collect::<Vec<usize>>()
    });
    concat(parts)
}

/// Find the index of the element with the maximum key, chunked in parallel.
///
/// Ties resolve to the smallest index, exactly like a sequential scan that
/// only replaces on a strictly greater key. This is the parallel form of the
/// priority-queue-on-a-list search that yielded the paper's 2.30 speedup on
/// Algorithmia (§V, use case two).
pub fn par_max_by_key<T: Sync, K: Ord + Send>(
    input: &[T],
    threads: usize,
    key: impl Fn(&T) -> K + Sync,
) -> Option<usize> {
    // The first of two equal keys wins, in a chunk and across chunks, which
    // come back in index order.
    let first_max = |best: (usize, K), next: (usize, K)| if best.1 >= next.1 { best } else { next };
    let parts = fan_out(chunk_ranges(input.len(), threads.max(1)), |(a, b)| {
        input[a..b]
            .iter()
            .enumerate()
            .map(|(off, v)| (a + off, key(v)))
            .reduce(first_max)
    });
    parts
        .into_iter()
        .flatten()
        .reduce(first_max)
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_first_matches_sequential() {
        let input: Vec<i64> = (0..100_000).map(|i| (i * 7919) % 1000).collect();
        for needle in [0i64, 500, 999] {
            let expect = input.iter().position(|v| *v == needle);
            for threads in [1, 2, 8] {
                assert_eq!(par_find_first(&input, threads, |v| *v == needle), expect);
            }
        }
    }

    #[test]
    fn find_first_no_match() {
        let input: Vec<i32> = (0..10_000).collect();
        assert_eq!(par_find_first(&input, 8, |v| *v < 0), None);
    }

    #[test]
    fn find_first_returns_smallest_index_among_duplicates() {
        let mut input = vec![0u8; 50_000];
        input[123] = 1;
        input[40_000] = 1;
        assert_eq!(par_find_first(&input, 8, |v| *v == 1), Some(123));
    }

    #[test]
    fn find_first_on_empty() {
        let input: Vec<i32> = vec![];
        assert_eq!(par_find_first(&input, 8, |_| true), None);
    }

    #[test]
    fn find_all_matches_sequential() {
        let input: Vec<u32> = (0..50_000).collect();
        let expect: Vec<usize> = input
            .iter()
            .enumerate()
            .filter(|(_, v)| **v % 97 == 0)
            .map(|(i, _)| i)
            .collect();
        for threads in [1, 3, 8] {
            assert_eq!(par_find_all(&input, threads, |v| *v % 97 == 0), expect);
        }
    }

    #[test]
    fn max_by_key_matches_sequential_with_ties() {
        // Many ties: the earliest max index must win, as in a sequential
        // strictly-greater scan.
        let input: Vec<u32> = (0..10_000).map(|i| (i * 31) % 100).collect();
        let seq = {
            let mut best: Option<(usize, u32)> = None;
            for (i, v) in input.iter().enumerate() {
                match best {
                    Some((_, bv)) if bv >= *v => {}
                    _ => best = Some((i, *v)),
                }
            }
            best.map(|(i, _)| i)
        };
        for threads in [1, 2, 5, 8] {
            assert_eq!(par_max_by_key(&input, threads, |v| *v), seq);
        }
    }

    #[test]
    fn max_by_key_on_empty_and_single() {
        let empty: Vec<i32> = vec![];
        assert_eq!(par_max_by_key(&empty, 8, |v| *v), None);
        assert_eq!(par_max_by_key(&[42], 8, |v| *v), Some(0));
    }
}
