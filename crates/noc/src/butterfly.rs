//! Cycle-level multistage interconnection network (butterfly/omega).
//!
//! Benes and its relatives route N inputs to N outputs through
//! O(N log N) 2×2 switches — the middle ground between the crossbar's
//! O(N²) and the mesh's O(N) that Figure 8 evaluates for frequency. This
//! module provides the *behavioural* counterpart: an online
//! destination-tag-routed butterfly with `log2(N)` stages of N/2 switches,
//! each output port forwarding one packet per cycle with round-robin
//! arbitration and bounded per-switch input queues.
//!
//! Online destination-tag routing makes this an *omega-equivalent*
//! blocking network: unlike an offline-configured Benes it cannot realize
//! every permutation without conflicts, which is precisely the practical
//! behaviour of such NoCs in accelerators (packets contend at shared
//! internal links). The paper leaves "determining or even designing the
//! most appropriate NoC" as future work; the `ext_noc` experiment uses
//! this model alongside the mesh and crossbar to explore that question.

use crate::stats::NocStats;
use std::collections::VecDeque;

/// A packet traversing the butterfly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BflyPacket {
    /// Destination output port.
    pub dst: usize,
    /// Opaque payload.
    pub payload: u64,
    /// Injection cycle, for latency accounting.
    pub inject_cycle: u64,
}

/// One 2×2 switch: two input queues, round-robin priority.
#[derive(Debug, Clone, Default)]
struct Switch {
    inputs: [VecDeque<BflyPacket>; 2],
    rr: usize,
}

/// A cycle-stepped butterfly network with `ports` inputs/outputs (a power
/// of two) and `log2(ports)` stages.
///
/// # Example
///
/// ```
/// use scalagraph_noc::butterfly::{Butterfly, BflyPacket};
///
/// let mut net = Butterfly::new(8);
/// net.try_inject(0, BflyPacket { dst: 5, payload: 9, inject_cycle: 0 });
/// for _ in 0..10 {
///     net.step();
/// }
/// assert_eq!(net.pop_delivered(5).unwrap().payload, 9);
/// ```
#[derive(Debug, Clone)]
pub struct Butterfly {
    ports: usize,
    stages: usize,
    /// `switches[stage][i]` for `i < ports / 2`.
    switches: Vec<Vec<Switch>>,
    delivered: Vec<VecDeque<BflyPacket>>,
    queue_capacity: usize,
    stats: NocStats,
    now: u64,
}

impl Butterfly {
    /// Creates a butterfly with `ports` inputs/outputs.
    ///
    /// # Panics
    ///
    /// Panics unless `ports` is a power of two and at least 2.
    pub fn new(ports: usize) -> Self {
        assert!(
            ports >= 2 && ports.is_power_of_two(),
            "ports must be a power of two >= 2"
        );
        let stages = ports.trailing_zeros() as usize;
        Butterfly {
            ports,
            stages,
            switches: vec![vec![Switch::default(); ports / 2]; stages],
            delivered: vec![VecDeque::new(); ports],
            queue_capacity: 4,
            stats: NocStats::default(),
            now: 0,
        }
    }

    /// Number of input/output ports.
    pub fn num_ports(&self) -> usize {
        self.ports
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// In a butterfly, the switch in `stage` that a packet occupying wire
    /// `wire` enters, and which of its two inputs it lands on.
    fn wire_to_switch(&self, stage: usize, wire: usize) -> (usize, usize) {
        // Stage s pairs wires differing in bit (stages - 1 - s).
        let bit = self.stages - 1 - stage;
        let mask = 1usize << bit;
        let low = wire & !mask;
        // Index switches by the wire with the pairing bit dropped.
        let idx = ((low >> (bit + 1)) << bit) | (low & (mask - 1));
        (idx, (wire >> bit) & 1)
    }

    /// Output wire a packet leaves switch `stage` on, given its destination.
    fn out_wire(&self, stage: usize, in_wire: usize, dst: usize) -> usize {
        let bit = self.stages - 1 - stage;
        let mask = 1usize << bit;
        // Destination-tag routing: set this wire bit to the destination's.
        (in_wire & !mask) | (dst & mask)
    }

    /// Injects `packet` on input `port`. Returns `false` when the first
    /// stage's queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `port` or `packet.dst` is out of range.
    pub fn try_inject(&mut self, port: usize, packet: BflyPacket) -> bool {
        assert!(port < self.ports, "input port out of range");
        assert!(packet.dst < self.ports, "destination out of range");
        let (idx, side) = self.wire_to_switch(0, port);
        let q = &mut self.switches[0][idx].inputs[side];
        if q.len() >= self.queue_capacity {
            return false;
        }
        q.push_back(packet);
        self.stats.packets_injected += 1;
        true
    }

    /// Whether input `port` can accept a packet this cycle.
    pub fn can_inject(&self, port: usize) -> bool {
        let (idx, side) = self.wire_to_switch(0, port);
        self.switches[0][idx].inputs[side].len() < self.queue_capacity
    }

    /// Advances one cycle: each switch forwards at most one packet per
    /// output wire, chosen round-robin between its two inputs.
    pub fn step(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        // Process stages from last to first so a packet advances one stage
        // per cycle (moving into just-freed space is allowed; moving twice
        // is not, because later stages were already processed).
        for stage in (0..self.stages).rev() {
            for idx in 0..self.ports / 2 {
                // Determine, per output wire of this switch, the winning
                // input.
                let bit = self.stages - 1 - stage;
                let mask = 1usize << bit;
                let low_wire = {
                    // Reconstruct the two wires this switch connects.
                    let high = idx >> bit;
                    let low = idx & (mask - 1);
                    (high << (bit + 1)) | low
                };
                let wires = [low_wire, low_wire | mask];
                for &out_wire in &wires {
                    let start = self.switches[stage][idx].rr;
                    let mut winner: Option<usize> = None;
                    let mut contenders = 0;
                    for k in 0..2 {
                        let side = (start + k) % 2;
                        let in_wire = wires[side];
                        if let Some(pkt) = self.switches[stage][idx].inputs[side].front() {
                            if self.out_wire(stage, in_wire, pkt.dst) == out_wire {
                                contenders += 1;
                                if winner.is_none() {
                                    winner = Some(side);
                                }
                            }
                        }
                    }
                    let Some(side) = winner else { continue };
                    if contenders > 1 {
                        self.stats.conflict_cycles += 1;
                    }
                    // Check downstream space.
                    if stage + 1 < self.stages {
                        let (nidx, nside) = self.wire_to_switch(stage + 1, out_wire);
                        if self.switches[stage + 1][nidx].inputs[nside].len() >= self.queue_capacity
                        {
                            self.stats.conflict_cycles += 1;
                            continue;
                        }
                        let Some(pkt) = self.switches[stage][idx].inputs[side].pop_front() else {
                            debug_assert!(false, "winner must hold a queued packet");
                            continue;
                        };
                        self.switches[stage][idx].rr = (side + 1) % 2;
                        self.stats.flit_hops += 1;
                        self.switches[stage + 1][nidx].inputs[nside].push_back(pkt);
                    } else {
                        let Some(pkt) = self.switches[stage][idx].inputs[side].pop_front() else {
                            debug_assert!(false, "winner must hold a queued packet");
                            continue;
                        };
                        self.switches[stage][idx].rr = (side + 1) % 2;
                        self.stats.flit_hops += 1;
                        self.stats.packets_delivered += 1;
                        self.stats.total_latency_cycles += self.now - pkt.inject_cycle;
                        debug_assert_eq!(out_wire, pkt.dst);
                        self.delivered[out_wire].push_back(pkt);
                    }
                }
            }
        }
    }

    /// Pops the next packet delivered at output `port`.
    pub fn pop_delivered(&mut self, port: usize) -> Option<BflyPacket> {
        self.delivered[port].pop_front()
    }

    /// Whether all internal queues are empty.
    pub fn in_flight_empty(&self) -> bool {
        self.switches
            .iter()
            .all(|st| st.iter().all(|s| s.inputs.iter().all(VecDeque::is_empty)))
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(net: &mut Butterfly, expect: u64, max_cycles: usize) -> Vec<u64> {
        let mut got = Vec::new();
        for _ in 0..max_cycles {
            net.step();
            for p in 0..net.num_ports() {
                while let Some(pkt) = net.pop_delivered(p) {
                    assert_eq!(pkt.dst, p, "misrouted packet");
                    got.push(pkt.payload);
                }
            }
            if got.len() as u64 == expect && net.in_flight_empty() {
                break;
            }
        }
        got.sort_unstable();
        got
    }

    #[test]
    fn single_packet_takes_log_n_cycles() {
        let mut net = Butterfly::new(16);
        net.try_inject(
            3,
            BflyPacket {
                dst: 12,
                payload: 7,
                inject_cycle: 0,
            },
        );
        let got = drain_all(&mut net, 1, 20);
        assert_eq!(got, vec![7]);
        assert_eq!(net.stats().avg_latency(), 4.0, "16 ports = 4 stages");
        assert_eq!(net.stats().avg_hops(), 4.0);
    }

    #[test]
    fn identity_permutation_is_conflict_free() {
        let mut net = Butterfly::new(8);
        for p in 0..8 {
            net.try_inject(
                p,
                BflyPacket {
                    dst: p,
                    payload: p as u64,
                    inject_cycle: 0,
                },
            );
        }
        let got = drain_all(&mut net, 8, 20);
        assert_eq!(got, (0..8).collect::<Vec<u64>>());
        assert_eq!(net.stats().conflict_cycles, 0, "identity must not conflict");
    }

    #[test]
    fn all_to_one_serializes_but_delivers() {
        let mut net = Butterfly::new(8);
        let mut pending: Vec<(usize, BflyPacket)> = (0..8)
            .map(|p| {
                (
                    p,
                    BflyPacket {
                        dst: 0,
                        payload: p as u64,
                        inject_cycle: 0,
                    },
                )
            })
            .collect();
        let mut got = Vec::new();
        for _ in 0..200 {
            pending.retain(|&(p, pkt)| !net.try_inject(p, pkt));
            net.step();
            while let Some(pkt) = net.pop_delivered(0) {
                got.push(pkt.payload);
            }
            if pending.is_empty() && net.in_flight_empty() {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<u64>>());
        assert!(net.stats().conflict_cycles > 0);
    }

    #[test]
    fn random_traffic_exactly_once() {
        let mut net = Butterfly::new(32);
        let mut to_send: Vec<(usize, BflyPacket)> = (0..300u64)
            .map(|i| {
                (
                    (i as usize * 7 + 3) % 32,
                    BflyPacket {
                        dst: (i as usize * 13 + 5) % 32,
                        payload: i,
                        inject_cycle: 0,
                    },
                )
            })
            .collect();
        let mut got = Vec::new();
        for _ in 0..2000 {
            to_send.retain(|&(p, pkt)| !net.try_inject(p, pkt));
            net.step();
            for p in 0..32 {
                while let Some(pkt) = net.pop_delivered(p) {
                    assert_eq!(pkt.dst, p);
                    got.push(pkt.payload);
                }
            }
            if to_send.is_empty() && net.in_flight_empty() {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn back_pressure_on_injection() {
        let mut net = Butterfly::new(4);
        let pkt = BflyPacket {
            dst: 3,
            payload: 0,
            inject_cycle: 0,
        };
        for _ in 0..4 {
            assert!(net.try_inject(0, pkt));
        }
        assert!(!net.try_inject(0, pkt), "queue of 4 must be full");
        assert!(!net.can_inject(0));
        assert!(net.can_inject(2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Butterfly::new(12);
    }
}
