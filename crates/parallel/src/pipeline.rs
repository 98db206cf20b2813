//! A producer/consumer pipeline over a blocking queue.
//!
//! The Implement-Queue recommendation ("employ a parallel queue as data
//! container", §III-B) usually lands in producer/consumer code; this module
//! provides that pattern: a producer feeding a pool of consumers through a
//! bounded [`BlockingQueue`], with clean shutdown propagation. It also
//! mirrors the pipeline-parallelism line of related work the paper
//! positions itself against (§VI).

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::queue::BlockingQueue;

/// Closes its queue when the last of its `holders` drops it, whether that
/// holder returns or unwinds.
struct CloseWhenLast<'a, T> {
    queue: &'a BlockingQueue<T>,
    holders: &'a AtomicUsize,
}

impl<T> Drop for CloseWhenLast<'_, T> {
    fn drop(&mut self) {
        if self.holders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.queue.close();
        }
    }
}

/// Run a two-stage pipeline: `produce` feeds items through a bounded queue
/// to `workers` consumers applying `consume`; returns all consumer outputs
/// (unordered across workers).
///
/// `produce` runs on the calling thread. The queue is closed when the
/// producer returns or unwinds, so consumers blocked in `pop` drain and
/// stop, and when the last consumer returns or unwinds, so a producer
/// blocked on a full queue goes on (its later items are dropped). A panic
/// is then resumed on the caller with its own payload: the producer's if
/// it panicked, otherwise the first consumer's in spawn order.
pub fn produce_consume<T, U, I>(
    workers: usize,
    capacity: usize,
    produce: impl FnOnce(&mut dyn FnMut(T)) -> I,
    consume: impl Fn(T) -> U + Sync,
) -> (I, Vec<U>)
where
    T: Send,
    U: Send,
    I: Send,
{
    let queue: BlockingQueue<T> = BlockingQueue::bounded(capacity.max(1));
    let workers = workers.max(1);
    let (producers, consumers) = (AtomicUsize::new(1), AtomicUsize::new(workers));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (queue, consumers, consume) = (&queue, &consumers, &consume);
                s.spawn(move || {
                    let _close = CloseWhenLast {
                        queue,
                        holders: consumers,
                    };
                    let mut out = Vec::new();
                    while let Some(item) = queue.pop() {
                        out.push(consume(item));
                    }
                    out
                })
            })
            .collect();
        let produced = {
            // An unwinding producer closes the queue here too; the scope
            // then waits for the consumers and resumes its payload.
            let _close = CloseWhenLast {
                queue: &queue,
                holders: &producers,
            };
            let mut push = |item: T| {
                let _ = queue.push(item);
            };
            produce(&mut push)
        };
        let mut outputs = Vec::new();
        for h in handles {
            outputs.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        (produced, outputs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produce_consume_processes_everything() {
        let (produced, mut outputs) = produce_consume(
            4,
            16,
            |push| {
                for i in 0..1_000u32 {
                    push(i);
                }
                1_000usize
            },
            |v| u64::from(v) * 2,
        );
        assert_eq!(produced, 1_000);
        assert_eq!(outputs.len(), 1_000);
        outputs.sort_unstable();
        for (i, v) in outputs.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn produce_consume_with_zero_items() {
        let ((), outputs) = produce_consume(2, 4, |_push| {}, |v: u32| v);
        assert!(outputs.is_empty());
    }
}
