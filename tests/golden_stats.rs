//! Simulated statistics pinned across versions.
//!
//! The bit-identity suites compare execution modes of one build with each
//! other; the corpus pins verdicts. Neither notices a change that moves
//! every mode the same way — a host-side optimisation of the router that
//! shifts one arbitration tie, say. This test runs a small fixed matrix of
//! configurations and compares the complete [`SimStats`], the frontier
//! trace and a hash of the final property bits with constants recorded
//! from an earlier build (the `golden` module at the end), on both the
//! event-driven core and the dense reference.
//!
//! The matrix covers the paths the hot loop specialises: row-oriented
//! mapping at 512 PEs on U280 memory with pipelined BFS; a three-column
//! mesh (96 PEs) with zero aggregation registers, HBM latency 128 with
//! jitter 3 and serial PageRank; source-oriented mapping with 4 registers
//! and CC; destination-oriented mapping with SSSP; a sliced run; and BFS
//! under a link delay plus in-range payload corruption, the only path that
//! re-routes a flit whose destination changed in flight.
//!
//! A deliberate change to the machine model re-records the constants; a
//! host-side optimisation must leave them untouched.

use scalagraph_suite::algo::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use scalagraph_suite::algo::Algorithm;
use scalagraph_suite::graph::{generators, Csr, Dataset, EdgeList};
use scalagraph_suite::mem::HbmConfig;
use scalagraph_suite::scalagraph::{
    try_run_on, Fault, FaultKind, FaultPlan, LinkDir, Mapping, MemoryPreset, ScalaGraphConfig,
    SimResult, SimStats,
};

/// Property types whose raw bits feed the result hash.
trait Bits {
    fn bits(self) -> u32;
}

impl Bits for u32 {
    fn bits(self) -> u32 {
        self
    }
}

impl Bits for f32 {
    fn bits(self) -> u32 {
        self.to_bits()
    }
}

/// FNV-1a over the little-endian bytes of every property.
fn property_hash<P: Bits + Copy>(props: &[P]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in props {
        for b in p.bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one run leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: SimStats,
    frontier_sizes: Vec<usize>,
    property_hash: u64,
}

fn observe<P: Bits + Copy>(result: SimResult<P>) -> Observed {
    Observed {
        stats: result.stats,
        frontier_sizes: result.frontier_sizes,
        property_hash: property_hash(&result.properties),
    }
}

/// Runs `algo` on the event-driven core and in the dense reference,
/// asserts the two agree, and returns the shared outcome.
fn run_both<A: Algorithm>(algo: &A, graph: &Csr, cfg: &ScalaGraphConfig) -> Observed
where
    A::Prop: Bits,
{
    let mut ev = cfg.clone();
    ev.fast_forward = true;
    let mut dense = cfg.clone();
    dense.fast_forward = false;
    let a = observe(try_run_on(algo, graph, ev).expect("event-core run converges"));
    let b = observe(try_run_on(algo, graph, dense).expect("dense run converges"));
    assert_eq!(a, b, "event-core and dense runs diverged");
    a
}

fn rmat(vertices: usize, edges: usize, seed: u64) -> Csr {
    Csr::from_edges(vertices, &generators::rmat(vertices, edges, seed))
}

fn edge_list(vertices: usize, edges: usize, seed: u64) -> EdgeList {
    let mut list = EdgeList::new(vertices);
    for e in generators::rmat(vertices, edges, seed) {
        list.push(e);
    }
    list
}

/// Row-oriented mapping at 512 PEs, U280 memory, pipelined BFS.
#[test]
fn rom_512_u280_pipelined_bfs() {
    let g = rmat(2048, 12_000, 101);
    let cfg = ScalaGraphConfig::with_pes(512);
    let observed = run_both(&Bfs::from_root(Dataset::pick_root(&g)), &g, &cfg);
    assert_eq!(observed, golden::rom_512_u280_pipelined_bfs());
}

/// Three columns, no aggregation registers, slow jittery memory, serial
/// PageRank.
#[test]
fn three_columns_fifo_jitter_pagerank() {
    let g = rmat(600, 4_000, 102);
    let mut cfg = ScalaGraphConfig::with_pes(96);
    cfg.aggregation_registers = 0;
    cfg.inter_phase_pipelining = false;
    let mut hbm = HbmConfig::u280_stack(cfg.effective_clock_mhz() * 1e6);
    hbm.latency_cycles = 128;
    hbm.latency_jitter = 3;
    cfg.memory = MemoryPreset::Custom(hbm);
    let observed = run_both(&PageRank::new(3), &g, &cfg);
    assert_eq!(observed, golden::three_columns_fifo_jitter_pagerank());
}

/// Source-oriented mapping with 4 aggregation registers, CC.
#[test]
fn som_four_registers_cc() {
    let mut list = edge_list(800, 3_000, 103);
    list.symmetrize();
    let g = Csr::from_edge_list(&list);
    let mut cfg = ScalaGraphConfig::with_pes(64);
    cfg.mapping = Mapping::SourceOriented;
    cfg.aggregation_registers = 4;
    let observed = run_both(&ConnectedComponents::new(), &g, &cfg);
    assert_eq!(observed, golden::som_four_registers_cc());
}

/// Destination-oriented mapping, SSSP on a weighted graph.
#[test]
fn dom_sssp() {
    let mut list = edge_list(700, 5_000, 104);
    list.randomize_weights(63, 7);
    let g = Csr::from_edge_list(&list);
    let mut cfg = ScalaGraphConfig::with_pes(64);
    cfg.mapping = Mapping::DestinationOriented;
    let observed = run_both(&Sssp::from_root(Dataset::pick_root(&g)), &g, &cfg);
    assert_eq!(observed, golden::dom_sssp());
}

/// A graph four times the scratchpad capacity: four slices per iteration.
#[test]
fn sliced_bfs() {
    let g = rmat(1024, 6_000, 105);
    let mut cfg = ScalaGraphConfig::with_pes(64);
    cfg.spd_capacity_vertices = 256;
    let observed = run_both(&Bfs::from_root(Dataset::pick_root(&g)), &g, &cfg);
    assert_eq!(observed.stats.slices, 4);
    assert_eq!(observed, golden::sliced_bfs());
}

/// BFS with one slow link and one link corrupting destinations in range.
#[test]
fn faulty_links_bfs() {
    let g = rmat(512, 4_000, 106);
    let mut cfg = ScalaGraphConfig::with_pes(64);
    cfg.fault_plan = Some(
        FaultPlan::seeded(31)
            .with(Fault::new(FaultKind::LinkDelay {
                node: 9,
                dir: LinkDir::South,
                cycles: 5,
            }))
            .with(Fault::new(FaultKind::CorruptPayload {
                node: 7,
                dir: LinkDir::South,
                one_in: 3,
                out_of_range: false,
            })),
    );
    let observed = run_both(&Bfs::from_root(Dataset::pick_root(&g)), &g, &cfg);
    assert!(observed.stats.flits_delayed > 0 && observed.stats.updates_corrupted > 0);
    assert_eq!(observed, golden::faulty_links_bfs());
}

/// The recorded outcomes.
mod golden {
    use super::{Observed, SimStats};

    pub fn rom_512_u280_pipelined_bfs() -> Observed {
        Observed {
            stats: SimStats {
                cycles: 1412,
                scatter_cycles: 1412,
                apply_cycles: 17,
                iterations: 5,
                traversed_edges: 11645,
                updates_produced: 11645,
                updates_injected: 9902,
                updates_delivered: 10063,
                agg_merges: 1582,
                noc_hops: 47941,
                noc_conflicts: 0,
                routing_latency_sum: 47174,
                routing_latency_count: 10063,
                gu_busy_cycles: 11645,
                pe_cycle_budget: 722944,
                offchip_bytes_read: 130048,
                offchip_bytes_written: 9728,
                offchip_reads: 2032,
                slices: 1,
                inter_phase_used: true,
                activations: 1221,
                epref_lines: 1817,
                epref_piggybacks: 416,
                vpref_lines: 215,
                dispatch_starved_row_cycles: 41751,
                applies: 2273,
                flits_dropped: 0,
                flits_delayed: 0,
                updates_corrupted: 0,
                hbm_stalls_injected: 0,
            },
            frontier_sizes: vec![1, 314, 788, 112, 7],
            property_hash: 15881600198707639705,
        }
    }

    pub fn three_columns_fifo_jitter_pagerank() -> Observed {
        Observed {
            stats: SimStats {
                cycles: 2537,
                scatter_cycles: 2516,
                apply_cycles: 21,
                iterations: 3,
                traversed_edges: 12000,
                updates_produced: 12000,
                updates_injected: 10827,
                updates_delivered: 12000,
                agg_merges: 0,
                noc_hops: 64230,
                noc_conflicts: 39317,
                routing_latency_sum: 262821,
                routing_latency_count: 12000,
                gu_busy_cycles: 12000,
                pe_cycle_budget: 243552,
                offchip_bytes_read: 78016,
                offchip_bytes_written: 9600,
                offchip_reads: 1219,
                slices: 1,
                inter_phase_used: false,
                activations: 1800,
                epref_lines: 949,
                epref_piggybacks: 1796,
                vpref_lines: 270,
                dispatch_starved_row_cycles: 71370,
                applies: 1800,
                flits_dropped: 0,
                flits_delayed: 0,
                updates_corrupted: 0,
                hbm_stalls_injected: 0,
            },
            frontier_sizes: vec![600, 600, 600],
            property_hash: 2992782500204487044,
        }
    }

    pub fn som_four_registers_cc() -> Observed {
        Observed {
            stats: SimStats {
                cycles: 1742,
                scatter_cycles: 1742,
                apply_cycles: 42,
                iterations: 4,
                traversed_edges: 11202,
                updates_produced: 11202,
                updates_injected: 10870,
                updates_delivered: 8959,
                agg_merges: 2243,
                noc_hops: 100986,
                noc_conflicts: 5328,
                routing_latency_sum: 148276,
                routing_latency_count: 8959,
                gu_busy_cycles: 11202,
                pe_cycle_budget: 111488,
                offchip_bytes_read: 108736,
                offchip_bytes_written: 7488,
                offchip_reads: 1699,
                slices: 1,
                inter_phase_used: true,
                activations: 945,
                epref_lines: 1478,
                epref_piggybacks: 629,
                vpref_lines: 221,
                dispatch_starved_row_cycles: 47820,
                applies: 1519,
                flits_dropped: 0,
                flits_delayed: 0,
                updates_corrupted: 0,
                hbm_stalls_injected: 0,
            },
            frontier_sizes: vec![800, 519, 393, 33],
            property_hash: 18258297413707219167,
        }
    }

    pub fn dom_sssp() -> Observed {
        Observed {
            stats: SimStats {
                cycles: 2749,
                scatter_cycles: 2749,
                apply_cycles: 1124,
                iterations: 11,
                traversed_edges: 10794,
                updates_produced: 10794,
                updates_injected: 0,
                updates_delivered: 10794,
                agg_merges: 0,
                noc_hops: 70623,
                noc_conflicts: 0,
                routing_latency_sum: 0,
                routing_latency_count: 10794,
                gu_busy_cycles: 10794,
                pe_cycle_budget: 175936,
                offchip_bytes_read: 146112,
                offchip_bytes_written: 8896,
                offchip_reads: 2283,
                slices: 1,
                inter_phase_used: true,
                activations: 1121,
                epref_lines: 2014,
                epref_piggybacks: 140,
                vpref_lines: 269,
                dispatch_starved_row_cycles: 64328,
                applies: 2168,
                flits_dropped: 0,
                flits_delayed: 0,
                updates_corrupted: 0,
                hbm_stalls_injected: 0,
            },
            frontier_sizes: vec![1, 176, 357, 277, 150, 92, 55, 8, 2, 3, 1],
            property_hash: 15701858719117782160,
        }
    }

    pub fn sliced_bfs() -> Observed {
        Observed {
            stats: SimStats {
                cycles: 2612,
                scatter_cycles: 2556,
                apply_cycles: 56,
                iterations: 5,
                traversed_edges: 5843,
                updates_produced: 5843,
                updates_injected: 4943,
                updates_delivered: 4827,
                agg_merges: 1016,
                noc_hops: 23244,
                noc_conflicts: 0,
                routing_latency_sum: 22780,
                routing_latency_count: 4827,
                gu_busy_cycles: 5843,
                pe_cycle_budget: 167168,
                offchip_bytes_read: 108864,
                offchip_bytes_written: 5120,
                offchip_reads: 1701,
                slices: 4,
                inter_phase_used: false,
                activations: 653,
                epref_lines: 1463,
                epref_piggybacks: 544,
                vpref_lines: 238,
                dispatch_starved_row_cycles: 79837,
                applies: 1248,
                flits_dropped: 0,
                flits_delayed: 0,
                updates_corrupted: 0,
                hbm_stalls_injected: 0,
            },
            frontier_sizes: vec![1, 183, 399, 67, 4],
            property_hash: 9989073354657931573,
        }
    }

    pub fn faulty_links_bfs() -> Observed {
        Observed {
            stats: SimStats {
                cycles: 1120,
                scatter_cycles: 1120,
                apply_cycles: 26,
                iterations: 5,
                traversed_edges: 3907,
                updates_produced: 3907,
                updates_injected: 3291,
                updates_delivered: 3254,
                agg_merges: 653,
                noc_hops: 15789,
                noc_conflicts: 0,
                routing_latency_sum: 16403,
                routing_latency_count: 3254,
                gu_busy_cycles: 3907,
                pe_cycle_budget: 71680,
                offchip_bytes_read: 44160,
                offchip_bytes_written: 2752,
                offchip_reads: 690,
                slices: 1,
                inter_phase_used: true,
                activations: 352,
                epref_lines: 609,
                epref_piggybacks: 89,
                vpref_lines: 81,
                dispatch_starved_row_cycles: 33282,
                applies: 696,
                flits_dropped: 0,
                flits_delayed: 119,
                updates_corrupted: 63,
                hbm_stalls_injected: 0,
            },
            frontier_sizes: vec![1, 143, 192, 15, 2],
            property_hash: 5683973959014956083,
        }
    }
}
