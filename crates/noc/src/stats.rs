//! Traffic statistics shared by the interconnect simulators.

/// Cumulative counters for an interconnect simulation.
///
/// "On-chip communications" in the paper (Figures 6, 17, 18) is "the total
/// amount of traffic injected into the on-chip network" — link traversals —
/// which is [`NocStats::flit_hops`] here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Packets accepted into the network.
    pub packets_injected: u64,
    /// Packets handed to their destination's ejection queue.
    pub packets_delivered: u64,
    /// Total link traversals (one per packet per hop, ejection included).
    pub flit_hops: u64,
    /// Sum over delivered packets of (delivery cycle − injection cycle).
    pub total_latency_cycles: u64,
    /// Cycles in which a head-of-queue packet lost arbitration or was
    /// blocked by back-pressure (a routing conflict in the paper's terms).
    pub conflict_cycles: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl NocStats {
    /// Mean packet latency in cycles over delivered packets.
    pub fn avg_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.packets_delivered as f64
        }
    }

    /// Mean hops per delivered packet.
    pub fn avg_hops(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.flit_hops as f64 / self.packets_delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_guard_division_by_zero() {
        let s = NocStats::default();
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
    }

    #[test]
    fn averages_compute() {
        let s = NocStats {
            packets_delivered: 4,
            total_latency_cycles: 20,
            flit_hops: 12,
            ..Default::default()
        };
        assert_eq!(s.avg_latency(), 5.0);
        assert_eq!(s.avg_hops(), 3.0);
    }
}
