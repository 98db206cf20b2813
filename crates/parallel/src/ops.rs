//! Chunked data-parallel primitives over slices.
//!
//! These are the executable forms of the Long-Insert recommendation
//! ("parallelize the insert operation") and of the array-initialization
//! cases the paper's Mandelbrot evaluation parallelizes: each worker owns a
//! contiguous chunk, so there is no synchronization on the hot path and the
//! results are bit-identical to the sequential versions.

use crate::chunk_ranges;

/// Parallel map: apply `f` to every element, preserving order.
///
/// Equivalent to `input.iter().map(f).collect()`, computed on `threads`
/// scoped workers over contiguous chunks.
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
    let ranges = chunk_ranges(input.len(), threads);
    if ranges.len() <= 1 {
        return input.iter().map(f).collect();
    }
    let mut parts: Vec<Vec<U>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(a, b)| {
                let f = &f;
                s.spawn(move || input[a..b].iter().map(f).collect::<Vec<U>>())
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("par_map worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(input.len());
    for p in parts {
        out.extend(p);
    }
    out
}

/// Parallel initialization: build a `Vec` of `len` elements where element
/// `i` is `f(i)`. This is the "parallelize the insert" transformation for
/// the common fill loop `for i in 0..n { list.add(f(i)) }` — order is
/// preserved, so it is only valid where the paper's recommendation applies
/// (index-determined values).
pub fn par_for_init<U: Send>(len: usize, threads: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let ranges = chunk_ranges(len, threads);
    if ranges.len() <= 1 {
        return (0..len).map(f).collect();
    }
    let mut parts: Vec<Vec<U>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(a, b)| {
                let f = &f;
                s.spawn(move || (a..b).map(f).collect::<Vec<U>>())
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("par_for_init worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for p in parts {
        out.extend(p);
    }
    out
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
