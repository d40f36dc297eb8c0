//! Bounded FIFO admission queue.
//!
//! Admission control is the first resilience layer: a batch of 10,000
//! scenarios must not balloon resident memory or hide an overload — excess
//! work is *refused*, visibly, with a typed [`Rejection`]. The queue is a
//! mutex-and-condvar structure (std only): one bounded FIFO, blocking
//! consumers, and a close signal that drains cleanly.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::job::Rejection;
use crate::recover;

struct Fifo<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC FIFO with explicit rejection.
pub struct AdmissionQueue<T> {
    fifo: Mutex<Fifo<T>>,
    capacity: usize,
    available: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            fifo: Mutex::new(Fifo {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity,
            available: Condvar::new(),
        }
    }

    /// Attempts to admit an item. Never blocks: a full queue or a closed
    /// runtime answers with a typed [`Rejection`] instead.
    pub fn try_push(&self, item: T) -> Result<(), Rejection> {
        let mut fifo = recover(self.fifo.lock());
        if fifo.closed {
            return Err(Rejection::ShuttingDown);
        }
        if fifo.items.len() >= self.capacity {
            return Err(Rejection::QueueFull {
                capacity: self.capacity,
            });
        }
        fifo.items.push_back(item);
        drop(fifo);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained, which yields `None` — the consumer's signal to exit.
    pub fn pop(&self) -> Option<T> {
        let mut fifo = recover(self.fifo.lock());
        loop {
            if let Some(item) = fifo.items.pop_front() {
                return Some(item);
            }
            if fifo.closed {
                return None;
            }
            fifo = recover(self.available.wait(fifo));
        }
    }

    /// Closes the queue: future pushes are rejected with
    /// [`Rejection::ShuttingDown`], and consumers drain what remains then
    /// see `None`.
    pub fn close(&self) {
        recover(self.fifo.lock()).closed = true;
        self.available.notify_all();
    }

    /// Closes the queue and removes everything still waiting, in pop order.
    /// Used by the executor's shutdown to turn queued work into cancelled
    /// outcomes without running it.
    pub fn drain(&self) -> Vec<T> {
        let mut fifo = recover(self.fifo.lock());
        fifo.closed = true;
        let drained = fifo.items.drain(..).collect();
        drop(fifo);
        self.available.notify_all();
        drained
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        recover(self.fifo.lock()).items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let q = AdmissionQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn overflow_is_rejected_with_the_capacity() {
        let q = AdmissionQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(Rejection::QueueFull { capacity: 2 }));
        // Draining one slot readmits.
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_rejects_pushes_and_drains_consumers() {
        let q = AdmissionQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(Rejection::ShuttingDown));
        assert_eq!(q.pop(), Some(1), "closing still drains queued work");
        assert_eq!(q.pop(), None, "drained + closed = consumer exit signal");
    }

    #[test]
    fn drain_returns_everything_in_pop_order() {
        let q = AdmissionQueue::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        assert_eq!(q.drain(), vec!["a", "b"]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_on_close() {
        let q = AdmissionQueue::new(4);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let first = q.pop();
                let second = q.pop();
                (first, second)
            });
            q.try_push(42).unwrap();
            // Give the consumer a chance to block on the second pop, then
            // close; it must wake and observe None.
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            let (first, second) = consumer.join().expect("consumer panicked");
            assert_eq!(first, Some(42));
            assert_eq!(second, None);
        });
    }
}
