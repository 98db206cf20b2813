//! A blocking MPMC queue — the Implement-Queue recommended action.
//!
//! When DSspy sees list traffic concentrated on two different ends it tells
//! the engineer to "employ a parallel queue as data container" (§III-B).
//! [`BlockingQueue`] is that container: multi-producer, multi-consumer,
//! FIFO, optionally bounded, with blocking `pop` and a close signal for
//! clean pipeline shutdown. Built on `parking_lot` Mutex + Condvar.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

struct Inner<T> {
    queue: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: Option<usize>,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A thread-safe FIFO queue with blocking operations.
///
/// Cloning the handle shares the same queue.
///
/// ```
/// use dsspy_parallel::BlockingQueue;
///
/// let q = BlockingQueue::unbounded();
/// q.push("job").unwrap();
/// q.close();
/// assert_eq!(q.pop(), Some("job"));
/// assert_eq!(q.pop(), None); // closed and drained
/// ```
pub struct BlockingQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for BlockingQueue<T> {
    fn clone(&self) -> Self {
        BlockingQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for BlockingQueue<T> {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl<T> BlockingQueue<T> {
    /// An unbounded queue.
    pub fn unbounded() -> Self {
        Self::build(None)
    }

    /// A queue that blocks producers once `capacity` items are waiting.
    pub fn bounded(capacity: usize) -> Self {
        Self::build(Some(capacity.max(1)))
    }

    fn build(capacity: Option<usize>) -> Self {
        BlockingQueue {
            inner: Arc::new(Inner {
                queue: Mutex::new(State {
                    items: VecDeque::new(),
                    closed: false,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity,
            }),
        }
    }

    /// Enqueue an item, blocking while a bounded queue is full.
    ///
    /// Returns `Err(item)` if the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.inner.queue.lock();
        if let Some(cap) = self.inner.capacity {
            while state.items.len() >= cap && !state.closed {
                self.inner.not_full.wait(&mut state);
            }
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue an item, blocking while the queue is empty.
    ///
    /// Returns `None` once the queue is closed *and* drained — the pipeline
    /// termination signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.inner.queue.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.inner.not_empty.wait(&mut state);
        }
    }

    /// Close the queue: producers start failing, consumers drain what is
    /// left and then receive `None`.
    pub fn close(&self) {
        let mut state = self.inner.queue.lock();
        state.closed = true;
        drop(state);
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().items.len()
    }

    /// Whether no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fifo_single_thread() {
        let q = BlockingQueue::unbounded();
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_none() {
        let q = BlockingQueue::unbounded();
        q.push(10).unwrap();
        q.close();
        assert_eq!(q.push(11), Err(11));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        let q: BlockingQueue<usize> = BlockingQueue::bounded(64);
        let producers = 4;
        let consumers = 4;
        let per_producer = 2_500;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    q.push(p * per_producer + i).unwrap();
                }
            }));
        }
        let mut consumer_handles = Vec::new();
        for _ in 0..consumers {
            let q = q.clone();
            consumer_handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all = HashSet::new();
        for h in consumer_handles {
            for v in h.join().unwrap() {
                assert!(all.insert(v), "duplicate delivery of {v}");
            }
        }
        assert_eq!(all.len(), producers * per_producer);
    }

    #[test]
    fn per_producer_order_is_preserved() {
        let q: BlockingQueue<(u8, u32)> = BlockingQueue::unbounded();
        let qa = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                qa.push((0, i)).unwrap();
            }
        });
        producer.join().unwrap();
        q.close();
        let mut last = None;
        while let Some((_, i)) = q.pop() {
            if let Some(prev) = last {
                assert!(i > prev, "FIFO violated: {i} after {prev}");
            }
            last = Some(i);
        }
        assert_eq!(last, Some(9_999));
    }

    #[test]
    fn bounded_queue_blocks_producer_until_consumed() {
        let q: BlockingQueue<u32> = BlockingQueue::bounded(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let qp = q.clone();
        let producer = std::thread::spawn(move || {
            qp.push(3).unwrap(); // blocks until a pop happens
            "pushed"
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 2, "producer must be blocked at capacity");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(producer.join().unwrap(), "pushed");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_unblocks_waiting_consumer() {
        let q: BlockingQueue<u32> = BlockingQueue::unbounded();
        let qc = q.clone();
        let consumer = std::thread::spawn(move || qc.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
