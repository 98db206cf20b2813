//! Parallel merge sort — the Sort-After-Insert recommended action.
//!
//! When a sort follows a long insertion phase, insertion order is irrelevant
//! (paper §III-B, SAI): the insert can be parallelized and the sort itself
//! can run in parallel. This module provides a chunked merge sort: each
//! worker sorts a contiguous chunk with the (pattern-defeating, O(n log n))
//! std unstable sort, then adjacent chunks are merged pairwise in parallel
//! rounds. std's stable sort merges a pair: it finds the two sorted runs and
//! merges them in linear time.

use crate::{chunk_ranges, fan_out};

/// Sort `data` ascending using up to `threads` workers.
///
/// Produces exactly the same result as `data.sort_unstable()`; equal
/// elements may be reordered (unstable), which matches the paper's setting
/// where order after a bulk insert is explicitly irrelevant.
pub fn par_merge_sort<T: Ord + Send + Clone>(data: &mut [T], threads: usize) {
    par_merge_sort_by_key(data, threads, |v| v.clone());
}

/// Sort by a key function, ascending.
pub fn par_merge_sort_by_key<T: Send, K: Ord>(
    data: &mut [T],
    threads: usize,
    key: impl Fn(&T) -> K + Sync,
) {
    // The end of every sorted run; the last is `data.len()`.
    let mut ends: Vec<usize> = chunk_ranges(data.len(), threads.max(1))
        .into_iter()
        .map(|(_, end)| end)
        .collect();
    fan_out(split_at_ends(data, &ends), |run| {
        run.sort_unstable_by_key(&key)
    });
    while ends.len() > 1 {
        // Each region is a pair of adjacent runs; an odd last run is a
        // region of its own, already sorted.
        ends = ends.chunks(2).map(|pair| pair[pair.len() - 1]).collect();
        fan_out(split_at_ends(data, &ends), |region| {
            region.sort_by_key(&key)
        });
    }
}

/// Cut `data` into the regions that end at each of `ends` (ascending, the
/// last being `data.len()`).
fn split_at_ends<'a, T>(mut data: &'a mut [T], ends: &[usize]) -> Vec<&'a mut [T]> {
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let (region, rest) = std::mem::take(&mut data).split_at_mut(end - start);
            (data, start) = (rest, end);
            region
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn sorts_like_std() {
        let mut rng = xorshift(0x9E3779B97F4A7C15);
        for len in [0usize, 1, 2, 10, 1000, 4097, 65_536] {
            let data: Vec<u64> = (0..len).map(|_| rng() % 10_000).collect();
            for threads in [1usize, 2, 3, 8] {
                let mut a = data.clone();
                let mut b = data.clone();
                par_merge_sort(&mut a, threads);
                b.sort_unstable();
                assert_eq!(a, b, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn sort_by_key_descending_trick() {
        let mut data: Vec<i64> = (0..10_000).map(|i| (i * 31) % 1000).collect();
        let mut expect = data.clone();
        expect.sort_unstable_by_key(|v| std::cmp::Reverse(*v));
        par_merge_sort_by_key(&mut data, 8, |v| std::cmp::Reverse(*v));
        assert_eq!(data, expect);
    }

    #[test]
    fn already_sorted_and_reverse_sorted() {
        let mut asc: Vec<u32> = (0..10_000).collect();
        let expect = asc.clone();
        par_merge_sort(&mut asc, 8);
        assert_eq!(asc, expect);

        let mut desc: Vec<u32> = (0..10_000).rev().collect();
        par_merge_sort(&mut desc, 8);
        assert_eq!(desc, expect);
    }

    #[test]
    fn all_equal_elements() {
        let mut data = vec![7u8; 5000];
        par_merge_sort(&mut data, 8);
        assert!(data.iter().all(|v| *v == 7));
        assert_eq!(data.len(), 5000);
    }

    #[test]
    fn odd_thread_counts() {
        let mut rng = xorshift(42);
        let data: Vec<u64> = (0..9_999).map(|_| rng()).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        for threads in [3usize, 5, 7, 13] {
            let mut a = data.clone();
            par_merge_sort(&mut a, threads);
            assert_eq!(a, expect, "threads={threads}");
        }
    }
}
