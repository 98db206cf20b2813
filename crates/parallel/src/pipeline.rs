//! A producer/consumer pipeline over a blocking queue.
//!
//! The Implement-Queue recommendation ("employ a parallel queue as data
//! container", §III-B) usually lands in producer/consumer code; this module
//! provides that pattern: a producer feeding a pool of consumers through a
//! bounded [`BlockingQueue`], with clean shutdown propagation. It also
//! mirrors the pipeline-parallelism line of related work the paper
//! positions itself against (§VI).

use crate::queue::BlockingQueue;

/// Run a two-stage pipeline: `produce` feeds items through a bounded queue
/// to `workers` consumers applying `consume`; returns all consumer outputs
/// (unordered across workers).
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
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let queue = queue.clone();
                let consume = &consume;
                s.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(item) = queue.pop() {
                        out.push(consume(item));
                    }
                    out
                })
            })
            .collect();
        let mut push = |item: T| {
            let _ = queue.push(item);
        };
        let produced = produce(&mut push);
        queue.close();
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
