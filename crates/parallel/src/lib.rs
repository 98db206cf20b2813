//! # dsspy-parallel — the parallel runtime behind the recommended actions
//!
//! DSspy's recommendations (paper §III-B) tell the engineer to *parallelize
//! the insert operation*, *employ a parallel queue*, or *split the list into
//! smaller chunks and search them in parallel*. The paper's evaluation
//! executes those transformations with .NET's Task Parallel Library; this
//! crate is our equivalent substrate, built from scratch on scoped threads
//! and `parking_lot` so the reproduction does not lean on an external
//! data-parallelism framework:
//!
//! * [`ops`] — chunked `par_map` / `par_for_init` over slices (the
//!   Long-Insert and array-initialization actions);
//! * [`search`] — parallel `find_first` (early exit), `find_all`,
//!   `max_by_key` (the Frequent-Search / Frequent-Long-Read actions, incl.
//!   the priority-queue-on-a-list search of the paper's Algorithmia case);
//! * [`sort`] — parallel merge sort (the Sort-After-Insert action);
//! * [`queue`] — a blocking MPMC queue (the Implement-Queue action), and
//!   [`pipeline`]'s producer/consumer pattern over it.
//!
//! All entry points take an explicit thread count so benches can sweep it;
//! [`default_threads`] mirrors the machine's available parallelism (the
//! paper used an 8-core AMD FX 8120).
//!
//! Every slice kernel cuts its input into at most `threads` parts (one for
//! a count of `0` or `1`) and hands them to one private helper, `fan_out`:
//! zero or one part runs on the calling thread, more run one scoped worker
//! each, and the results come back in part order. A worker that panics has
//! its panic resumed on the caller with the worker's own payload. Only
//! [`produce_consume`] keeps its own scope, since its producer runs on the
//! caller while the consumers drain.

#![warn(missing_docs)]

pub mod ops;
pub mod pipeline;
pub mod queue;
pub mod search;
pub mod sort;

pub use ops::{par_for_init, par_map, par_map_weighted};
pub use pipeline::produce_consume;
pub use queue::BlockingQueue;
pub use search::{par_find_all, par_find_first, par_max_by_key};
pub use sort::{par_merge_sort, par_merge_sort_by_key};

/// The number of worker threads to use when the caller does not care:
/// the machine's available parallelism, with a fallback of 4.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Split `len` items into at most `threads` contiguous chunk ranges of
/// near-equal size. Returns `(start, end)` pairs covering `0..len` exactly.
pub fn chunk_ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    if len == 0 || threads == 0 {
        return Vec::new();
    }
    let threads = threads.min(len);
    let base = len / threads;
    let extra = len % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Run `work` on every part and return the results in part order.
///
/// Zero or one part runs on the calling thread; otherwise each part gets its
/// own scoped worker. A worker's panic is resumed on the caller with the
/// worker's own payload (the first in part order, if several panic).
fn fan_out<P: Send, U: Send>(parts: Vec<P>, work: impl Fn(P) -> U + Sync) -> Vec<U> {
    if parts.len() <= 1 {
        return parts.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| s.spawn(move || work(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// The parts' items in part order, in one allocation.
fn concat<U>(parts: Vec<Vec<U>>) -> Vec<U> {
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 100, 101, 1024] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, threads);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert!(ranges.len() <= threads);
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges.last().unwrap().1, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                }
                // Near-equal: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|(a, b)| b - a).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} threads={threads}: {sizes:?}");
            }
        }
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn zero_threads_yields_no_ranges() {
        assert!(chunk_ranges(10, 0).is_empty());
    }
}
