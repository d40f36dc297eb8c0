//! The update-aggregation pipeline (Section IV-B, Figure 11).
//!
//! Each routing unit holds a small register array. When an update enters,
//! it is compared against the buffered updates (hash-partitioned register
//! columns in hardware; a bounded associative window here): if one targets
//! the same destination vertex, the two are reduced in place — the paper's
//! "pre-execute the Reduce ... in the routing time" — and one NoC packet is
//! eliminated. Otherwise the update occupies a free register, or, when the
//! array is full, the oldest update is evicted to the output to make room
//! (FIFO order, the systolic read of Figure 11(b)).
//!
//! With zero registers the structure degenerates to a pass-through FIFO,
//! which is the "0 registers" point of Figure 18(a).

use scalagraph_graph::VertexId;
use std::collections::VecDeque;

/// A pending vertex update: destination and partially-reduced value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingUpdate<P> {
    /// Destination vertex.
    pub dst: VertexId,
    /// Accumulated value.
    pub value: P,
}

/// Outcome of offering an update to the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Coalesced with a buffered update to the same vertex; no new packet.
    Merged,
    /// Stored in a free register.
    Buffered,
    /// Stored after evicting the oldest update to the output queue.
    Evicted,
}

/// Register array + output queue of one routing unit.
///
/// Stored as one FIFO in arrival order: the oldest `len − registers`
/// entries (when there are more than `registers`) are the output queue,
/// the rest are the registers. The split needs no bookkeeping because an
/// eviction only happens with every register full and a drain takes the
/// output queue first, so the output queue is non-empty only while the
/// registers are full. With at least one register every resident
/// destination is unique (a repeat merges instead), so one scan of the
/// FIFO finds the merge partner.
///
/// # Example
///
/// ```
/// use scalagraph::aggregate::AggregationBuffer;
///
/// let mut agg: AggregationBuffer<u32> = AggregationBuffer::new(4);
/// agg.push(7, 5, |a, b| a.min(b));
/// agg.push(7, 3, |a, b| a.min(b)); // merged
/// assert_eq!(agg.merges(), 1);
/// let u = agg.drain_one().unwrap();
/// assert_eq!((u.dst, u.value), (7, 3));
/// ```
#[derive(Debug, Clone)]
pub struct AggregationBuffer<P> {
    fifo: VecDeque<PendingUpdate<P>>,
    capacity: usize,
    merges: u64,
}

impl<P: Copy> AggregationBuffer<P> {
    /// Creates a buffer with `registers` coalescing registers (0 = FIFO).
    pub fn new(registers: usize) -> Self {
        AggregationBuffer {
            fifo: VecDeque::with_capacity(registers),
            capacity: registers,
            merges: 0,
        }
    }

    /// Reduces `value` into a resident update for `dst`, if there is one.
    /// With zero registers the structure is a pure FIFO and never merges.
    #[inline]
    fn merge<F>(&mut self, dst: VertexId, value: P, reduce: F) -> bool
    where
        F: Fn(P, P) -> P,
    {
        if self.capacity == 0 {
            return false;
        }
        match self.fifo.iter_mut().find(|u| u.dst == dst) {
            Some(hit) => {
                hit.value = reduce(hit.value, value);
                self.merges += 1;
                true
            }
            None => false,
        }
    }

    /// Appends a new update: into a free register, or evicting the oldest
    /// register into the output queue when all are full.
    #[inline]
    fn append(&mut self, dst: VertexId, value: P) -> PushOutcome {
        let outcome = if self.fifo.len() < self.capacity {
            PushOutcome::Buffered
        } else {
            PushOutcome::Evicted
        };
        self.fifo.push_back(PendingUpdate { dst, value });
        outcome
    }

    /// Bounded variant of [`push`](Self::push) for use as a router queue:
    /// refuses (returning `None`, update not consumed) when accepting the
    /// update would grow the eviction output queue beyond `max_output` —
    /// the back-pressure signal of a full link buffer. A merge never needs
    /// space and is always accepted.
    pub fn try_push<F>(
        &mut self,
        dst: VertexId,
        value: P,
        max_output: usize,
        reduce: F,
    ) -> Option<PushOutcome>
    where
        F: Fn(P, P) -> P,
    {
        if self.merge(dst, value, reduce) {
            return Some(PushOutcome::Merged);
        }
        // Full registers and an output queue at its bound: accepting
        // would evict past `max_output`.
        if self.fifo.len() >= self.capacity.saturating_add(max_output) {
            return None;
        }
        Some(self.append(dst, value))
    }

    /// Offers an update; `reduce` combines two values for the same vertex.
    /// With at least one register, the associative match covers every
    /// resident update (registers and the not-yet-drained output queue) —
    /// the compare-any-stage behaviour of Figure 11. With zero registers
    /// the structure is a pure FIFO and never merges.
    pub fn push<F>(&mut self, dst: VertexId, value: P, reduce: F) -> PushOutcome
    where
        F: Fn(P, P) -> P,
    {
        if self.merge(dst, value, reduce) {
            return PushOutcome::Merged;
        }
        self.append(dst, value)
    }

    /// Takes one update from the output queue; when the output is empty,
    /// releases the oldest buffered register instead (the systolic read).
    /// Returns `None` only when the structure is completely empty.
    pub fn drain_one(&mut self) -> Option<PendingUpdate<P>> {
        self.fifo.pop_front()
    }

    /// The update [`drain_one`](Self::drain_one) would return, without
    /// removing it.
    pub fn peek_next(&self) -> Option<&PendingUpdate<P>> {
        self.fifo.front()
    }

    /// Updates waiting in the eviction output queue (not the registers).
    pub fn output_len(&self) -> usize {
        self.fifo.len().saturating_sub(self.capacity)
    }

    /// Total updates held (registers + output queue).
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the structure holds no updates at all.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Number of coalescing events so far.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Number of coalescing registers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn min(a: u32, b: u32) -> u32 {
        a.min(b)
    }

    #[test]
    fn zero_registers_is_fifo() {
        let mut agg: AggregationBuffer<u32> = AggregationBuffer::new(0);
        assert_eq!(agg.push(1, 10, min), PushOutcome::Evicted);
        assert_eq!(agg.push(1, 5, min), PushOutcome::Evicted);
        // No merging: both updates pass through unchanged, in order.
        assert_eq!(agg.merges(), 0);
        assert_eq!(agg.drain_one().unwrap().value, 10);
        assert_eq!(agg.drain_one().unwrap().value, 5);
    }

    #[test]
    fn merge_reduces_in_place() {
        let mut agg: AggregationBuffer<u32> = AggregationBuffer::new(4);
        assert_eq!(agg.push(3, 9, min), PushOutcome::Buffered);
        assert_eq!(agg.push(3, 4, min), PushOutcome::Merged);
        assert_eq!(agg.push(3, 7, min), PushOutcome::Merged);
        assert_eq!(agg.merges(), 2);
        assert_eq!(agg.len(), 1);
        let u = agg.drain_one().unwrap();
        assert_eq!((u.dst, u.value), (3, 4));
    }

    #[test]
    fn eviction_preserves_fifo_order() {
        let mut agg: AggregationBuffer<u32> = AggregationBuffer::new(2);
        agg.push(1, 1, min);
        agg.push(2, 2, min);
        assert_eq!(agg.push(3, 3, min), PushOutcome::Evicted);
        assert_eq!(agg.push(4, 4, min), PushOutcome::Evicted);
        let order: Vec<u32> = std::iter::from_fn(|| agg.drain_one().map(|u| u.dst)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn sum_semantics_conserve_total() {
        let add = |a: u32, b: u32| a + b;
        let mut agg: AggregationBuffer<u32> = AggregationBuffer::new(3);
        let mut injected = 0u32;
        for i in 0..100u32 {
            let dst = i % 7;
            agg.push(dst, i, add);
            injected += i;
        }
        let mut drained = 0u32;
        while let Some(u) = agg.drain_one() {
            drained += u.value;
        }
        assert_eq!(drained, injected, "aggregation must conserve the sum");
    }

    #[test]
    fn more_registers_more_merges() {
        // Same update stream; bigger windows coalesce at least as much.
        // Destinations repeat at distance 8, so windows >= 8 merge heavily
        // while a FIFO (0 registers) cannot.
        let stream: Vec<VertexId> = (0..400u32).map(|i| i % 8).collect();
        let mut last = 0;
        for regs in [0usize, 4, 8, 16] {
            let mut agg: AggregationBuffer<u32> = AggregationBuffer::new(regs);
            for (i, &d) in stream.iter().enumerate() {
                agg.push(d, i as u32, min);
                if i % 3 == 0 {
                    let _ = agg.drain_one();
                }
            }
            assert!(
                agg.merges() >= last,
                "{regs} registers merged {} < previous {last}",
                agg.merges()
            );
            last = agg.merges();
        }
        assert!(last > 0);
    }

    #[test]
    fn drain_empties_registers_too() {
        let mut agg: AggregationBuffer<u32> = AggregationBuffer::new(8);
        agg.push(1, 1, min);
        agg.push(2, 2, min);
        assert_eq!(agg.output_len(), 0);
        assert!(agg.drain_one().is_some());
        assert!(agg.drain_one().is_some());
        assert!(agg.drain_one().is_none());
        assert!(agg.is_empty());
    }
}
