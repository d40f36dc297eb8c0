//! Bounded two-lane admission queue.
//!
//! Admission control is the first resilience layer: a batch of 10,000
//! scenarios must not balloon resident memory or hide an overload — excess
//! work is *refused*, visibly, with a typed [`Rejection`]. The queue is a
//! mutex-and-condvar structure (std only): two FIFO lanes sharing one
//! capacity, blocking consumers, and a close signal that drains cleanly.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::job::{Priority, Rejection};
use crate::recover;

struct Lanes<T> {
    high: VecDeque<T>,
    normal: VecDeque<T>,
    closed: bool,
}

impl<T> Lanes<T> {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }
}

/// A bounded MPMC queue with a high-priority lane and explicit rejection.
pub struct AdmissionQueue<T> {
    lanes: Mutex<Lanes<T>>,
    capacity: usize,
    available: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` items across both lanes.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            lanes: Mutex::new(Lanes {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                closed: false,
            }),
            capacity,
            available: Condvar::new(),
        }
    }

    /// Attempts to admit an item. Never blocks: a full queue or a closed
    /// runtime answers with a typed [`Rejection`] instead.
    pub fn try_push(&self, item: T, priority: Priority) -> Result<(), Rejection> {
        let mut lanes = recover(self.lanes.lock());
        if lanes.closed {
            return Err(Rejection::ShuttingDown);
        }
        if lanes.len() >= self.capacity {
            return Err(Rejection::QueueFull {
                capacity: self.capacity,
            });
        }
        match priority {
            Priority::High => lanes.high.push_back(item),
            Priority::Normal => lanes.normal.push_back(item),
        }
        drop(lanes);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (high lane first) or the queue is
    /// closed *and* drained, which yields `None` — the consumer's signal to
    /// exit.
    pub fn pop(&self) -> Option<T> {
        let mut lanes = recover(self.lanes.lock());
        loop {
            if let Some(item) = lanes.high.pop_front() {
                return Some(item);
            }
            if let Some(item) = lanes.normal.pop_front() {
                return Some(item);
            }
            if lanes.closed {
                return None;
            }
            lanes = recover(self.available.wait(lanes));
        }
    }

    /// Closes the queue: future pushes are rejected with
    /// [`Rejection::ShuttingDown`], and consumers drain what remains then
    /// see `None`.
    pub fn close(&self) {
        recover(self.lanes.lock()).closed = true;
        self.available.notify_all();
    }

    /// Closes the queue and removes everything still waiting, in pop order.
    /// Used by the executor's shutdown to turn queued work into cancelled
    /// outcomes without running it.
    pub fn drain(&self) -> Vec<T> {
        let mut lanes = recover(self.lanes.lock());
        lanes.closed = true;
        let mut drained: Vec<T> = lanes.high.drain(..).collect();
        drained.extend(lanes.normal.drain(..));
        drop(lanes);
        self.available.notify_all();
        drained
    }

    /// Items currently queued (both lanes).
    pub fn len(&self) -> usize {
        recover(self.lanes.lock()).len()
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
    fn fifo_within_a_lane() {
        let q = AdmissionQueue::new(8);
        q.try_push(1, Priority::Normal).unwrap();
        q.try_push(2, Priority::Normal).unwrap();
        q.try_push(3, Priority::Normal).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn high_lane_preempts_normal_lane() {
        let q = AdmissionQueue::new(8);
        q.try_push("n1", Priority::Normal).unwrap();
        q.try_push("h1", Priority::High).unwrap();
        q.try_push("n2", Priority::Normal).unwrap();
        q.try_push("h2", Priority::High).unwrap();
        assert_eq!(q.pop(), Some("h1"));
        assert_eq!(q.pop(), Some("h2"));
        assert_eq!(q.pop(), Some("n1"));
        assert_eq!(q.pop(), Some("n2"));
    }

    #[test]
    fn overflow_is_rejected_with_the_capacity() {
        let q = AdmissionQueue::new(2);
        q.try_push(1, Priority::Normal).unwrap();
        q.try_push(2, Priority::High).unwrap();
        assert_eq!(
            q.try_push(3, Priority::Normal),
            Err(Rejection::QueueFull { capacity: 2 })
        );
        // Draining one slot readmits.
        assert_eq!(q.pop(), Some(2));
        assert!(q.try_push(3, Priority::Normal).is_ok());
    }

    #[test]
    fn close_rejects_pushes_and_drains_consumers() {
        let q = AdmissionQueue::new(4);
        q.try_push(1, Priority::Normal).unwrap();
        q.close();
        assert_eq!(
            q.try_push(2, Priority::Normal),
            Err(Rejection::ShuttingDown)
        );
        assert_eq!(q.pop(), Some(1), "closing still drains queued work");
        assert_eq!(q.pop(), None, "drained + closed = consumer exit signal");
    }

    #[test]
    fn drain_returns_everything_in_pop_order() {
        let q = AdmissionQueue::new(8);
        q.try_push("n", Priority::Normal).unwrap();
        q.try_push("h", Priority::High).unwrap();
        assert_eq!(q.drain(), vec!["h", "n"]);
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
            q.try_push(42, Priority::Normal).unwrap();
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
