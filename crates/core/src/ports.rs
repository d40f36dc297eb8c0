//! The queue state of every PE in flat, fixed-capacity slabs.
//!
//! Each PE has five router output ports (the update-aggregation registers
//! of Section IV-B plus the link queue behind them) and one GU input
//! queue. Each queue class is one slab, sized once when the engine starts:
//! queue `q` owns slots `q * cap .. (q + 1) * cap` of the slab's data
//! array, and a separate array says how many are live. So the steady
//! state allocates nothing, and the per-cycle length reads (the
//! dispatcher's capacity check, the idle tests, the routers' free space)
//! touch one compact array.
//!
//! A slab also counts the entries it holds in all, so "is every queue
//! empty?" is one compare.

use crate::aggregate::PushOutcome;
use scalagraph_graph::VertexId;

/// Output directions of a routing unit. `EJECT` feeds the local SPD.
pub(crate) const EJECT: usize = 0;
pub(crate) const NORTH: usize = 1;
pub(crate) const SOUTH: usize = 2;
pub(crate) const WEST: usize = 3;
pub(crate) const EAST: usize = 4;
pub(crate) const NUM_DIRS: usize = 5;
/// The four mesh directions, in the order a router serves them.
pub(crate) const MESH_DIRS: [usize; 4] = [NORTH, SOUTH, WEST, EAST];

/// A partially-reduced vertex update in flight: value, earliest injection
/// cycle (for latency accounting) and the routing header — the home PE of
/// the update's destination, so no router re-derives it. 12 bytes for the
/// 4-byte properties of every provided algorithm, 16 with the destination
/// in a port [`Slot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Flit<P> {
    pub(crate) value: P,
    /// A cycle number. Every simulated cycle is at most
    /// [`CYCLE_SAFETY_CAP`](crate::CYCLE_SAFETY_CAP), which fits in 32 bits.
    pub(crate) inject: u32,
    pub(crate) home: u32,
}

impl<P: Copy> Flit<P> {
    /// Folds `b` into `a`, two flits for the same destination (hence the
    /// same home).
    #[inline]
    pub(crate) fn merge(a: Self, b: Self, reduce: impl Fn(P, P) -> P) -> Self {
        Flit {
            value: reduce(a.value, b.value),
            inject: a.inject.min(b.inject),
            home: a.home,
        }
    }
}

/// One resident update of a port: the destination beside its flit, so a
/// hop reads and writes one 16-byte slot and a port's oldest updates share
/// a cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot<P> {
    dst: VertexId,
    flit: Flit<P>,
}

// Four slots of a 4-byte property fill one 64-byte line.
const _: () = assert!(std::mem::size_of::<Slot<u32>>() == 16);

/// How full one port is: its residents, and the slots a routing pass has
/// reserved for flits that land when every router has decided.
#[derive(Debug, Clone, Copy, Default)]
struct Fill {
    len: u32,
    reserved: u32,
}

/// The router output ports of every PE, `NUM_DIRS` per PE: port
/// `node * NUM_DIRS + dir`.
///
/// Each port behaves exactly as an
/// [`AggregationBuffer`](crate::aggregate::AggregationBuffer) driven
/// through `try_push` with the router queue as its output bound: one FIFO
/// in arrival order whose capacity is `registers + queue`. A push first
/// scans every resident update for its destination and folds into the
/// match (never with zero registers); otherwise it appends, or is refused
/// at capacity. A drain takes the oldest and shifts the rest down, so the
/// head stays at slot 0; ports hold under two updates on average, and a
/// ring buffer measured no faster (DESIGN.md, "Performance engineering").
#[derive(Debug, Clone)]
pub(crate) struct PortSlab<P> {
    registers: usize,
    cap: usize,
    fill: Vec<Fill>,
    slots: Vec<Slot<P>>,
    /// Merges per PE (all five ports).
    merges: Vec<u64>,
    /// Updates held across all ports.
    held: usize,
}

impl<P: Copy> PortSlab<P> {
    /// Ports for `pes` PEs, each with `registers` aggregation registers and
    /// room for `queue` more updates; `fill` initialises the unused slots.
    pub(crate) fn new(pes: usize, registers: usize, queue: usize, fill: P) -> Self {
        let cap = registers + queue;
        let blank = Slot {
            dst: 0,
            flit: Flit {
                value: fill,
                inject: 0,
                home: 0,
            },
        };
        PortSlab {
            registers,
            cap,
            fill: vec![Fill::default(); pes * NUM_DIRS],
            slots: vec![blank; pes * NUM_DIRS * cap],
            merges: vec![0; pes],
            held: 0,
        }
    }

    /// Updates held in `port`.
    #[inline]
    pub(crate) fn len(&self, port: usize) -> usize {
        self.fill[port].len as usize
    }

    /// Updates held in `node`'s five ports.
    pub(crate) fn held_by(&self, node: usize) -> usize {
        (node * NUM_DIRS..(node + 1) * NUM_DIRS)
            .map(|port| self.len(port))
            .sum()
    }

    /// Whether every port of every PE is empty.
    #[inline]
    pub(crate) fn all_empty(&self) -> bool {
        self.held == 0
    }

    /// The `i`-th oldest update of `port`: what the `i + 1`-th drain
    /// would return.
    #[inline]
    pub(crate) fn peek_at(&self, port: usize, i: usize) -> Option<(VertexId, Flit<P>)> {
        if i >= self.len(port) {
            return None;
        }
        let slot = self.slots[port * self.cap + i];
        Some((slot.dst, slot.flit))
    }

    /// Drops the `k` oldest updates of `port`, which holds at least `k`:
    /// `k` drains in one shift.
    #[inline]
    pub(crate) fn drain_front(&mut self, port: usize, k: usize) {
        let len = self.len(port);
        debug_assert!(k <= len, "drain past the port's length");
        if k == 0 {
            return;
        }
        let head = port * self.cap;
        if len > k {
            self.slots.copy_within(head + k..head + len, head);
        }
        self.fill[port].len -= k as u32;
        self.held -= k;
    }

    /// Takes the oldest update out of `port`.
    #[inline]
    pub(crate) fn pop(&mut self, port: usize) -> Option<(VertexId, Flit<P>)> {
        let out = self.peek_at(port, 0)?;
        self.drain_front(port, 1);
        Some(out)
    }

    /// Offers an update to `port`: folds it into a resident update for the
    /// same destination, else appends it, else refuses it (`None`, the
    /// update not consumed) because the port is full.
    #[inline]
    pub(crate) fn try_push(
        &mut self,
        port: usize,
        dst: VertexId,
        flit: Flit<P>,
        reduce: impl Fn(P, P) -> P,
    ) -> Option<PushOutcome> {
        let len = self.len(port);
        let head = port * self.cap;
        if self.registers > 0 {
            // With a register every resident destination is unique (a
            // repeat merges instead), so the first match is the only one.
            let resident = &mut self.slots[head..head + len];
            if let Some(hit) = resident.iter_mut().find(|s| s.dst == dst) {
                hit.flit = Flit::merge(hit.flit, flit, reduce);
                self.merges[port / NUM_DIRS] += 1;
                return Some(PushOutcome::Merged);
            }
        }
        if len >= self.cap {
            return None;
        }
        self.slots[head + len] = Slot { dst, flit };
        self.fill[port].len += 1;
        self.held += 1;
        Some(if len < self.registers {
            PushOutcome::Buffered
        } else {
            PushOutcome::Evicted
        })
    }

    /// Reserves a slot of `port` for a flit that lands after the routing
    /// pass, unless its residents and reservations fill it.
    #[inline]
    pub(crate) fn try_reserve(&mut self, port: usize) -> bool {
        let fill = &mut self.fill[port];
        if (fill.len + fill.reserved) as usize >= self.cap {
            return false;
        }
        fill.reserved += 1;
        true
    }

    /// Lands a flit in a slot [`try_reserve`](Self::try_reserve) reserved:
    /// [`try_push`](Self::try_push), which cannot refuse it. The port's
    /// reservations end with its first landing, as the pass has decided.
    #[inline]
    pub(crate) fn land(
        &mut self,
        port: usize,
        dst: VertexId,
        flit: Flit<P>,
        reduce: impl Fn(P, P) -> P,
    ) {
        self.fill[port].reserved = 0;
        let landed = self.try_push(port, dst, flit, reduce);
        debug_assert!(landed.is_some(), "a reserved slot accepts");
    }

    /// Merges performed in `node`'s five ports.
    pub(crate) fn merges(&self, node: usize) -> u64 {
        self.merges[node]
    }

    /// Merges performed in every port.
    pub(crate) fn total_merges(&self) -> u64 {
        self.merges.iter().sum()
    }
}

/// Head and length of one ring in a [`RingSlab`].
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    head: u32,
    len: u32,
}

/// Bounded FIFO queues of `cap` entries each, one ring per queue, in one
/// slab (the GU input queues: one per PE).
#[derive(Debug, Clone)]
pub(crate) struct RingSlab<T> {
    cap: usize,
    rings: Vec<Ring>,
    slots: Vec<T>,
    /// Entries held across all queues.
    held: usize,
}

impl<T: Copy> RingSlab<T> {
    /// `queues` empty rings of `cap` entries; `fill` initialises the slots.
    pub(crate) fn new(queues: usize, cap: usize, fill: T) -> Self {
        RingSlab {
            cap,
            rings: vec![Ring::default(); queues],
            slots: vec![fill; queues * cap],
            held: 0,
        }
    }

    /// Entries held in queue `q`.
    #[inline]
    pub(crate) fn len(&self, q: usize) -> usize {
        self.rings[q].len as usize
    }

    /// Whether queue `q` is at capacity.
    #[inline]
    pub(crate) fn is_full(&self, q: usize) -> bool {
        self.len(q) >= self.cap
    }

    /// Whether every queue is empty.
    #[inline]
    pub(crate) fn all_empty(&self) -> bool {
        self.held == 0
    }

    /// Appends to queue `q`, which must not be full.
    #[inline]
    pub(crate) fn push_back(&mut self, q: usize, item: T) {
        let ring = &mut self.rings[q];
        debug_assert!((ring.len as usize) < self.cap, "push into a full ring");
        let mut at = (ring.head + ring.len) as usize;
        if at >= self.cap {
            at -= self.cap;
        }
        self.slots[q * self.cap + at] = item;
        ring.len += 1;
        self.held += 1;
    }

    /// The oldest entry of queue `q`.
    #[inline]
    pub(crate) fn front(&self, q: usize) -> Option<T> {
        let ring = self.rings[q];
        (ring.len > 0).then(|| self.slots[q * self.cap + ring.head as usize])
    }

    /// Removes the oldest entry of queue `q`.
    #[inline]
    pub(crate) fn pop_front(&mut self, q: usize) -> Option<T> {
        let item = self.front(q)?;
        let ring = &mut self.rings[q];
        ring.head += 1;
        if ring.head as usize == self.cap {
            ring.head = 0;
        }
        ring.len -= 1;
        self.held -= 1;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregationBuffer;
    use scalagraph_graph::SplitMix64;
    use std::collections::VecDeque;

    fn add(a: f32, b: f32) -> f32 {
        a + b
    }

    /// Bit-level equality, so a different merge order shows.
    fn same(a: Option<(VertexId, Flit<f32>)>, b: Option<(VertexId, Flit<f32>)>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some((da, fa)), Some((db, fb))) => {
                da == db
                    && fa.value.to_bits() == fb.value.to_bits()
                    && fa.inject == fb.inject
                    && fa.home == fb.home
            }
            _ => false,
        }
    }

    /// Every port of a small slab against its own `AggregationBuffer`
    /// driven through `try_push` with the router queue as its output
    /// bound: 1,000 seeded sequences of pushes, drains and peeks, with an
    /// `f32` sum as the reduce so merge order shows in the bits.
    #[test]
    fn ports_match_aggregation_buffers_step_for_step() {
        for case in 0..1_000u64 {
            let mut rng = SplitMix64::stream(0x5107, case, 0);
            let registers = rng.below(21) as usize;
            let queue = rng.range(1, 9) as usize;
            let pes = rng.range(1, 3) as usize;
            let ports = pes * NUM_DIRS;
            let mut slab = PortSlab::new(pes, registers, queue, 0.0f32);
            let mut bufs: Vec<AggregationBuffer<Flit<f32>>> = (0..ports)
                .map(|_| AggregationBuffer::new(registers))
                .collect();
            // Few destinations, so merges are frequent.
            let dsts = rng.range(1, 2 * registers as u64 + 4);
            let mut merges = 0u64;
            for step in 0..rng.range(1, 300) {
                let port = rng.below(ports as u64) as usize;
                let buf = &mut bufs[port];
                let ctx = format!("case {case} step {step} port {port}");
                match rng.below(10) {
                    0..=5 => {
                        let dst = rng.below(dsts) as VertexId;
                        let flit = Flit {
                            value: rng.next_f64() as f32 * 1e3,
                            inject: rng.below(1 << 20) as u32,
                            home: dst % 7,
                        };
                        let want = buf.try_push(dst, flit, queue, |a, b| Flit::merge(a, b, add));
                        let got = slab.try_push(port, dst, flit, add);
                        assert_eq!(got, want, "{ctx}");
                        merges += u64::from(want == Some(PushOutcome::Merged));
                    }
                    6..=7 => {
                        let want = buf.drain_one().map(|u| (u.dst, u.value));
                        assert!(same(slab.pop(port), want), "{ctx}");
                    }
                    8 => {
                        // A link's drain: peek the oldest k, then drop them.
                        let k = (rng.below(4) as usize).min(buf.len());
                        for i in 0..k {
                            let want = buf.drain_one().map(|u| (u.dst, u.value));
                            assert!(same(slab.peek_at(port, i), want), "{ctx}");
                        }
                        slab.drain_front(port, k);
                    }
                    _ => {
                        let want = buf.peek_next().map(|u| (u.dst, u.value));
                        assert!(same(slab.peek_at(port, 0), want), "{ctx}");
                    }
                }
                assert_eq!(slab.len(port), buf.len(), "{ctx}");
            }
            let total: usize = bufs.iter().map(AggregationBuffer::len).sum();
            assert_eq!(slab.all_empty(), total == 0, "case {case}");
            assert_eq!(slab.total_merges(), merges, "case {case}");
            for (port, buf) in bufs.iter_mut().enumerate() {
                while let Some(u) = buf.drain_one() {
                    assert!(same(slab.pop(port), Some((u.dst, u.value))), "case {case}");
                }
                assert!(slab.pop(port).is_none(), "case {case}");
            }
            assert!(slab.all_empty(), "case {case}");
        }
    }

    #[test]
    fn zero_registers_never_merge_and_refuse_at_the_queue_bound() {
        let mut slab = PortSlab::new(1, 0, 2, 0u32);
        let flit = |value| Flit {
            value,
            inject: 0,
            home: 0,
        };
        let min = |a: u32, b: u32| a.min(b);
        assert_eq!(
            slab.try_push(3, 9, flit(5), min),
            Some(PushOutcome::Evicted)
        );
        assert_eq!(
            slab.try_push(3, 9, flit(1), min),
            Some(PushOutcome::Evicted)
        );
        assert_eq!(slab.try_push(3, 9, flit(0), min), None);
        assert_eq!(slab.total_merges(), 0);
        assert_eq!(slab.pop(3).map(|(_, f)| f.value), Some(5));
        assert_eq!(slab.pop(3).map(|(_, f)| f.value), Some(1));
        assert!(slab.all_empty());
    }

    #[test]
    fn rings_match_a_bounded_fifo() {
        for case in 0..200u64 {
            let mut rng = SplitMix64::stream(0x6e, case, 0);
            let cap = rng.range(1, 20) as usize;
            let queues = rng.range(1, 5) as usize;
            let mut slab = RingSlab::new(queues, cap, 0u64);
            let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); queues];
            for step in 0..500u64 {
                let q = rng.below(queues as u64) as usize;
                if rng.chance(55) {
                    assert_eq!(slab.is_full(q), model[q].len() == cap);
                    if !slab.is_full(q) {
                        slab.push_back(q, step);
                        model[q].push_back(step);
                    }
                } else {
                    assert_eq!(slab.pop_front(q), model[q].pop_front(), "case {case}");
                }
                assert_eq!(slab.front(q), model[q].front().copied());
                assert_eq!(slab.len(q), model[q].len());
                assert_eq!(slab.all_empty(), model.iter().all(VecDeque::is_empty));
            }
        }
    }
}
