//! Cycle-level crossbar switch with virtual output queues (VOQ).
//!
//! This is the centralized interconnect of Figure 3(b): every input holds
//! one virtual queue per output, and per cycle each output port grants one
//! input via round-robin arbitration. The O(N²) hardware cost of this
//! structure is modelled in `scalagraph-hwmodel`; this module models its
//! *behaviour* (it is behaviourally ideal — single-cycle any-to-any — which
//! is exactly why existing accelerators use it, Section II-B).
//!
//! The multi-stage variant models GraphPulse/Chronos-style port
//! multiplexing: `mux` inputs share one physical crossbar port, so a group
//! of inputs can collectively advance only one packet per cycle.

use crate::stats::NocStats;
use std::collections::VecDeque;

/// Crossbar flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossbarKind {
    /// Every input has a dedicated port (radix = number of inputs).
    Full,
    /// `mux` inputs share one physical port (radix = inputs / mux), the
    /// hardware-reduction technique of GraphPulse (MICRO'20) and Chronos
    /// (ASPLOS'20).
    MultiStage {
        /// Inputs multiplexed onto one physical port.
        mux: usize,
    },
}

/// A packet traversing the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XbarPacket {
    /// Output port (memory partition) index.
    pub dst: usize,
    /// Opaque payload.
    pub payload: u64,
    /// Injection cycle for latency accounting.
    pub inject_cycle: u64,
}

/// A clocked crossbar with per-input VOQs.
///
/// # Example
///
/// ```
/// use scalagraph_noc::{Crossbar, CrossbarKind};
///
/// let mut xbar = Crossbar::new(4, 4, CrossbarKind::Full);
/// xbar.try_inject(0, 3, 7);
/// xbar.step();
/// assert_eq!(xbar.pop_delivered(3).unwrap().payload, 7);
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    inputs: usize,
    outputs: usize,
    kind: CrossbarKind,
    // voq[input][output]
    voq: Vec<Vec<VecDeque<XbarPacket>>>,
    delivered: Vec<VecDeque<XbarPacket>>,
    // Round-robin pointer per output.
    rr: Vec<usize>,
    // Round-robin pointer per mux group (multi-stage only).
    group_rr: Vec<usize>,
    voq_capacity: usize,
    stats: NocStats,
    now: u64,
}

impl Crossbar {
    /// Creates an `inputs × outputs` crossbar.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero, or if `MultiStage { mux: 0 }`.
    pub fn new(inputs: usize, outputs: usize, kind: CrossbarKind) -> Self {
        assert!(inputs > 0 && outputs > 0, "crossbar must be non-empty");
        if let CrossbarKind::MultiStage { mux } = kind {
            assert!(mux > 0, "mux factor must be positive");
        }
        let groups = match kind {
            CrossbarKind::Full => inputs,
            CrossbarKind::MultiStage { mux } => inputs.div_ceil(mux),
        };
        Crossbar {
            inputs,
            outputs,
            kind,
            voq: vec![vec![VecDeque::new(); outputs]; inputs],
            delivered: vec![VecDeque::new(); outputs],
            rr: vec![0; outputs],
            group_rr: vec![0; groups],
            voq_capacity: 4,
            stats: NocStats::default(),
            now: 0,
        }
    }

    /// The crossbar flavor.
    pub fn kind(&self) -> CrossbarKind {
        self.kind
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Enqueues a packet from `input` to `output`. Returns `false` if the
    /// VOQ is full.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` is out of range.
    pub fn try_inject(&mut self, input: usize, output: usize, payload: u64) -> bool {
        assert!(input < self.inputs, "input out of range");
        assert!(output < self.outputs, "output out of range");
        let q = &mut self.voq[input][output];
        if q.len() >= self.voq_capacity {
            return false;
        }
        q.push_back(XbarPacket {
            dst: output,
            payload,
            inject_cycle: self.now,
        });
        self.stats.packets_injected += 1;
        true
    }

    /// Whether `input` has room for another packet to `output`.
    pub fn can_inject(&self, input: usize, output: usize) -> bool {
        self.voq[input][output].len() < self.voq_capacity
    }

    fn group_of(&self, input: usize) -> usize {
        match self.kind {
            CrossbarKind::Full => input,
            CrossbarKind::MultiStage { mux } => input / mux,
        }
    }

    fn group_members(&self, group: usize) -> std::ops::Range<usize> {
        match self.kind {
            CrossbarKind::Full => group..group + 1,
            CrossbarKind::MultiStage { mux } => {
                let start = group * mux;
                start..(start + mux).min(self.inputs)
            }
        }
    }

    /// Advances by one cycle: each output grants one *physical port*
    /// (input, or mux group) round-robin; in the multi-stage flavor a group
    /// additionally advances only one packet per cycle across all outputs.
    pub fn step(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        let groups = self.group_rr.len();
        // In multi-stage mode a group may win at most one output this cycle.
        let mut group_used = vec![false; groups];

        for out in 0..self.outputs {
            let start = self.rr[out];
            let mut winner: Option<usize> = None; // input index
            let mut contenders = 0usize;
            for k in 0..groups {
                let g = (start + k) % groups;
                // Within the group, pick round-robin among members with a
                // non-empty VOQ for this output.
                let members: Vec<usize> = self.group_members(g).collect();
                let gstart = self.group_rr[g];
                let mut member_hit = None;
                for j in 0..members.len() {
                    let input = members[(gstart + j) % members.len()];
                    if !self.voq[input][out].is_empty() {
                        member_hit = Some(input);
                        break;
                    }
                }
                if let Some(input) = member_hit {
                    contenders += 1;
                    if winner.is_none()
                        && !(matches!(self.kind, CrossbarKind::MultiStage { .. }) && group_used[g])
                    {
                        winner = Some(input);
                        group_used[g] = true;
                        self.group_rr[g] = (input - members[0] + 1) % members.len();
                    }
                }
            }
            if let Some(input) = winner {
                let Some(pkt) = self.voq[input][out].pop_front() else {
                    debug_assert!(false, "winner must hold a queued packet");
                    continue;
                };
                self.stats.flit_hops += 1;
                self.stats.packets_delivered += 1;
                self.stats.total_latency_cycles += self.now - pkt.inject_cycle;
                self.delivered[out].push_back(pkt);
                self.rr[out] = (self.group_of(input) + 1) % groups;
                if contenders > 1 {
                    self.stats.conflict_cycles += (contenders - 1) as u64;
                }
            }
        }
    }

    /// Pops the next packet delivered at `output`.
    pub fn pop_delivered(&mut self, output: usize) -> Option<XbarPacket> {
        self.delivered[output].pop_front()
    }

    /// Whether all VOQs are drained (unconsumed deliveries ignored).
    pub fn in_flight_empty(&self) -> bool {
        self.voq
            .iter()
            .all(|per_in| per_in.iter().all(VecDeque::is_empty))
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_packet_one_cycle() {
        let mut x = Crossbar::new(2, 2, CrossbarKind::Full);
        assert!(x.try_inject(0, 1, 42));
        x.step();
        let p = x.pop_delivered(1).unwrap();
        assert_eq!(p.payload, 42);
        assert_eq!(x.stats().avg_latency(), 1.0);
    }

    #[test]
    fn parallel_transfers_in_one_cycle() {
        // Distinct outputs transfer simultaneously: the crossbar's defining
        // property.
        let mut x = Crossbar::new(4, 4, CrossbarKind::Full);
        for i in 0..4 {
            x.try_inject(i, i, i as u64);
        }
        x.step();
        for i in 0..4 {
            assert_eq!(x.pop_delivered(i).unwrap().payload, i as u64);
        }
    }

    #[test]
    fn output_conflict_serializes_fairly() {
        let mut x = Crossbar::new(3, 1, CrossbarKind::Full);
        for i in 0..3 {
            x.try_inject(i, 0, i as u64);
        }
        let mut order = Vec::new();
        for _ in 0..3 {
            x.step();
            order.push(x.pop_delivered(0).unwrap().payload);
        }
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert!(x.stats().conflict_cycles > 0);
    }

    #[test]
    fn round_robin_rotates_across_cycles() {
        let mut x = Crossbar::new(2, 1, CrossbarKind::Full);
        // Keep both inputs saturated; deliveries must alternate.
        let mut got = Vec::new();
        for _ in 0..6 {
            let _ = x.try_inject(0, 0, 100);
            let _ = x.try_inject(1, 0, 200);
            x.step();
            got.push(x.pop_delivered(0).unwrap().payload);
        }
        let alternations = got.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(alternations >= 4, "round robin must alternate: {got:?}");
    }

    #[test]
    fn voq_backpressure() {
        let mut x = Crossbar::new(1, 2, CrossbarKind::Full);
        for _ in 0..4 {
            assert!(x.try_inject(0, 0, 0));
        }
        assert!(!x.try_inject(0, 0, 0));
        assert!(x.can_inject(0, 1), "other VOQ unaffected");
    }

    #[test]
    fn multistage_group_advances_one_per_cycle() {
        // 4 inputs muxed 2:1 -> 2 physical ports. All four inputs target
        // distinct outputs; only 2 packets may move per cycle.
        let mut x = Crossbar::new(4, 4, CrossbarKind::MultiStage { mux: 2 });
        for i in 0..4 {
            x.try_inject(i, i, i as u64);
        }
        x.step();
        let first: usize = (0..4).filter_map(|o| x.pop_delivered(o)).count();
        assert_eq!(first, 2, "one packet per mux group per cycle");
        x.step();
        let second: usize = (0..4).filter_map(|o| x.pop_delivered(o)).count();
        assert_eq!(second, 2);
    }

    #[test]
    fn multistage_drains_everything() {
        let mut x = Crossbar::new(8, 8, CrossbarKind::MultiStage { mux: 4 });
        let mut injected = 0u64;
        for i in 0..8 {
            for o in 0..3 {
                if x.try_inject(i, o, injected) {
                    injected += 1;
                }
            }
        }
        for _ in 0..100 {
            x.step();
        }
        assert!(x.in_flight_empty());
        assert_eq!(x.stats().packets_delivered, injected);
    }

    #[test]
    #[should_panic(expected = "output out of range")]
    fn inject_validates_ports() {
        let mut x = Crossbar::new(2, 2, CrossbarKind::Full);
        let _ = x.try_inject(0, 5, 0);
    }
}
