//! Property-based tests on the invariants the whole stack rests on: CSR
//! structure, re-layout permutations, NoC delivery, aggregation
//! conservation laws, algorithm lattices, and simulator/reference
//! equivalence under randomized graphs and configurations. Cases come from
//! the seeded runner in `common`.

mod common;

use common::{check, int, vec, SplitMix64};

use scalagraph_suite::algo::algorithms::{Bfs, ConnectedComponents, Sssp, UNREACHED};
use scalagraph_suite::algo::ReferenceEngine;
use scalagraph_suite::graph::{relayout, Csr, Edge, EdgeList};
use scalagraph_suite::noc::{Mesh, MeshConfig, Packet};
use scalagraph_suite::scalagraph::aggregate::{AggregationBuffer, PendingUpdate, PushOutcome};
use scalagraph_suite::scalagraph::{run_on, Mapping, ScalaGraphConfig};

/// A random graph: 2..max_v vertices, 1..max_e weighted edges.
fn arb_graph(rng: &mut SplitMix64, max_v: usize, max_e: usize) -> Csr {
    let v = int(rng, 2..max_v);
    let n = v as u32;
    let edges = vec(rng, 1..max_e, |rng| {
        Edge::weighted(int(rng, 0..n), int(rng, 0..n), int(rng, 0u32..256))
    });
    Csr::from_edges(v, &edges)
}

#[test]
fn csr_roundtrips_through_edge_iterator() {
    check(24, |rng| {
        let g = arb_graph(rng, 80, 400);

        let edges: Vec<Edge> = g.edges().collect();
        let g2 = Csr::from_edges(g.num_vertices(), &edges);
        assert_eq!(g, g2);
    });
}

#[test]
fn csr_offsets_are_consistent() {
    check(24, |rng| {
        let g = arb_graph(rng, 80, 400);

        let mut total = 0usize;
        for v in g.vertices() {
            assert_eq!(g.neighbors(v).len(), g.out_degree(v));
            total += g.out_degree(v);
        }
        assert_eq!(total, g.num_edges());
        let ind: u32 = g.in_degrees().iter().sum();
        assert_eq!(ind as usize, g.num_edges());
    });
}

#[test]
fn relayout_is_adjacency_preserving() {
    check(24, |rng| {
        let g = arb_graph(rng, 60, 300);
        let lanes = int(rng, 1usize..20);

        let mut after = g.clone();
        relayout::degree_aware_relayout(&mut after, lanes, |v| (v as usize) % lanes);
        for v in g.vertices() {
            let mut a = g.neighbors(v).to_vec();
            let mut b = after.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    });
}

#[test]
fn mesh_delivers_exactly_once() {
    check(24, |rng| {
        let rows = int(rng, 1usize..5);
        let cols = int(rng, 1usize..5);
        let routes = vec(rng, 1..40, |rng| {
            (int(rng, 0usize..25), int(rng, 0usize..25))
        });

        let n = rows * cols;
        let mut mesh = Mesh::new(MeshConfig::new(rows, cols));
        let mut to_send: Vec<(usize, Packet)> = routes
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| {
                (
                    s % n,
                    Packet {
                        dst: d % n,
                        payload: i as u64,
                        inject_cycle: 0,
                    },
                )
            })
            .collect();
        let total = to_send.len() as u64;
        let mut got = Vec::new();
        for _ in 0..10_000 {
            let mut rest = Vec::new();
            for (src, pkt) in to_send.drain(..) {
                if !mesh.try_inject(src, pkt) {
                    rest.push((src, pkt));
                }
            }
            to_send = rest;
            mesh.step();
            for node in 0..n {
                while let Some(p) = mesh.pop_delivered(node) {
                    assert_eq!(p.dst, node);
                    got.push(p.payload);
                }
            }
            if to_send.is_empty() && mesh.in_flight_empty() {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got.len() as u64, total);
        for (i, &p) in got.iter().enumerate() {
            assert_eq!(p, i as u64);
        }
    });
}

#[test]
fn aggregation_conserves_sums() {
    check(24, |rng| {
        let regs = int(rng, 0usize..20);
        let stream = vec(rng, 1..200, |rng| {
            (int(rng, 0u32..32), int(rng, 1u64..1000))
        });

        let mut agg: AggregationBuffer<u64> = AggregationBuffer::new(regs);
        let mut injected = 0u64;
        for &(dst, val) in &stream {
            agg.push(dst, val, |a, b| a + b);
            injected += val;
        }
        let mut drained = 0u64;
        while let Some(u) = agg.drain_one() {
            drained += u.value;
        }
        assert_eq!(drained, injected);
    });
}

#[test]
fn aggregation_min_never_invents_values() {
    check(24, |rng| {
        let regs = int(rng, 0usize..20);
        let stream = vec(rng, 1..100, |rng| {
            (int(rng, 0u32..16), int(rng, 0u32..1000))
        });

        let mut agg: AggregationBuffer<u32> = AggregationBuffer::new(regs);
        for &(dst, val) in &stream {
            agg.push(dst, val, |a, b| a.min(b));
        }
        while let Some(u) = agg.drain_one() {
            assert!(
                stream.iter().any(|&(d, v)| d == u.dst && v >= u.value),
                "drained ({}, {}) has no witness",
                u.dst,
                u.value
            );
            assert!(
                stream
                    .iter()
                    .filter(|&&(d, _)| d == u.dst)
                    .map(|&(_, v)| v)
                    .min()
                    .unwrap()
                    <= u.value
            );
        }
    });
}

/// The aggregation buffer as two chained queues — registers and the
/// eviction output queue — the form the single-FIFO buffer replaced. Kept
/// as the reference model the FIFO must match step for step.
struct TwoQueueBuffer {
    registers: std::collections::VecDeque<PendingUpdate<u64>>,
    output: std::collections::VecDeque<PendingUpdate<u64>>,
    capacity: usize,
    merges: u64,
}

impl TwoQueueBuffer {
    fn new(capacity: usize) -> Self {
        TwoQueueBuffer {
            registers: Default::default(),
            output: Default::default(),
            capacity,
            merges: 0,
        }
    }

    fn merge(&mut self, dst: u32, value: u64, reduce: fn(u64, u64) -> u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let hit = self
            .registers
            .iter_mut()
            .chain(self.output.iter_mut())
            .find(|u| u.dst == dst);
        match hit {
            Some(hit) => {
                hit.value = reduce(hit.value, value);
                self.merges += 1;
                true
            }
            None => false,
        }
    }

    fn try_push(
        &mut self,
        dst: u32,
        value: u64,
        max_output: usize,
        reduce: fn(u64, u64) -> u64,
    ) -> Option<PushOutcome> {
        if self.merge(dst, value, reduce) {
            return Some(PushOutcome::Merged);
        }
        let will_evict = self.capacity == 0 || self.registers.len() >= self.capacity;
        if will_evict && self.output.len() >= max_output {
            return None;
        }
        Some(self.push(dst, value, reduce))
    }

    fn push(&mut self, dst: u32, value: u64, reduce: fn(u64, u64) -> u64) -> PushOutcome {
        if self.merge(dst, value, reduce) {
            return PushOutcome::Merged;
        }
        let update = PendingUpdate { dst, value };
        if self.capacity == 0 {
            self.output.push_back(update);
            return PushOutcome::Evicted;
        }
        if self.registers.len() < self.capacity {
            self.registers.push_back(update);
            return PushOutcome::Buffered;
        }
        if let Some(oldest) = self.registers.pop_front() {
            self.output.push_back(oldest);
        }
        self.registers.push_back(update);
        PushOutcome::Evicted
    }

    fn drain_one(&mut self) -> Option<PendingUpdate<u64>> {
        self.output
            .pop_front()
            .or_else(|| self.registers.pop_front())
    }

    fn peek_next(&self) -> Option<&PendingUpdate<u64>> {
        self.output.front().or_else(|| self.registers.front())
    }

    fn len(&self) -> usize {
        self.registers.len() + self.output.len()
    }
}

/// The single-FIFO aggregation buffer is observationally the two-queue
/// buffer: under random interleavings of every operation, each outcome,
/// each drained update and the occupancy counters agree after every step.
/// The reduction is deliberately non-commutative, so merging into the
/// wrong resident update — or with the arguments swapped — shows.
#[test]
fn aggregation_fifo_matches_two_queue_model() {
    check(64, |rng| {
        let regs = int(rng, 0usize..21);
        let dsts = int(rng, 1u32..40);
        let reduce: fn(u64, u64) -> u64 = |a, b| a.wrapping_mul(31).wrapping_add(b);
        let mut fifo: AggregationBuffer<u64> = AggregationBuffer::new(regs);
        let mut model = TwoQueueBuffer::new(regs);
        for step in 0..int(rng, 1usize..400) {
            match int(rng, 0u32..4) {
                0 => {
                    let (dst, value) = (int(rng, 0..dsts), rng.next_u64());
                    let got = fifo.push(dst, value, reduce);
                    assert_eq!(got, model.push(dst, value, reduce), "push, step {step}");
                }
                1 => {
                    let (dst, value) = (int(rng, 0..dsts), rng.next_u64());
                    let bound = int(rng, 0usize..17);
                    let got = fifo.try_push(dst, value, bound, reduce);
                    let want = model.try_push(dst, value, bound, reduce);
                    assert_eq!(got, want, "try_push(bound {bound}), step {step}");
                }
                2 => assert_eq!(fifo.drain_one(), model.drain_one(), "drain, step {step}"),
                _ => assert_eq!(fifo.peek_next(), model.peek_next(), "peek, step {step}"),
            }
            assert_eq!(fifo.len(), model.len(), "len, step {step}");
            assert_eq!(
                fifo.output_len(),
                model.output.len(),
                "output_len, step {step}"
            );
            assert_eq!(fifo.merges(), model.merges, "merges, step {step}");
            assert_eq!(fifo.is_empty(), model.len() == 0, "is_empty, step {step}");
        }
    });
}

#[test]
fn bfs_levels_satisfy_edge_relaxation() {
    check(24, |rng| {
        let g = arb_graph(rng, 60, 300);

        let run = ReferenceEngine::new().run(&Bfs::from_root(0), &g);
        for e in g.edges() {
            let (ls, ld) = (
                run.properties[e.src as usize],
                run.properties[e.dst as usize],
            );
            if ls != UNREACHED {
                assert!(
                    ld <= ls + 1,
                    "edge ({},{}) violates BFS: {} -> {}",
                    e.src,
                    e.dst,
                    ls,
                    ld
                );
            }
        }
        assert_eq!(run.properties[0], 0);
    });
}

#[test]
fn sssp_distances_satisfy_triangle_inequality() {
    check(24, |rng| {
        let g = arb_graph(rng, 50, 250);

        let run = ReferenceEngine::new().run(&Sssp::from_root(0), &g);
        for v in g.vertices() {
            for (i, &dst) in g.neighbors(v).iter().enumerate() {
                let w = g.edge_weights(v).map(|ws| ws[i]).unwrap_or(0);
                let (ds, dd) = (run.properties[v as usize], run.properties[dst as usize]);
                if ds != UNREACHED {
                    assert!(dd <= ds.saturating_add(w));
                }
            }
        }
    });
}

#[test]
fn cc_labels_are_class_consistent() {
    check(24, |rng| {
        let g = arb_graph(rng, 40, 200);

        let mut list = EdgeList::new(g.num_vertices());
        for e in g.edges() {
            list.push(e);
        }
        list.symmetrize();
        let sym = Csr::from_edge_list(&list);
        let run = ReferenceEngine::new().run(&ConnectedComponents::new(), &sym);
        // Neighbors share a label, and each label is the minimum id of its
        // class (so it names a real vertex inside the class).
        for e in sym.edges() {
            assert_eq!(
                run.properties[e.src as usize],
                run.properties[e.dst as usize]
            );
        }
        for (v, &label) in run.properties.iter().enumerate() {
            assert!(label as usize <= v);
            assert_eq!(run.properties[label as usize], label);
        }
    });
}

#[test]
fn simulator_equals_reference_on_random_graphs_and_configs() {
    check(24, |rng| {
        let g = arb_graph(rng, 60, 400);
        let pes_pow = int(rng, 0u32..3);
        let mapping_idx = int(rng, 0usize..3);
        let regs = int(rng, 0usize..20);
        let width = int(rng, 1usize..17);
        let pipe = rng.chance(50);

        let algo = Bfs::from_root(0);
        let golden = ReferenceEngine::new().run(&algo, &g);
        let mut cfg = ScalaGraphConfig::with_pes(32 << pes_pow);
        cfg.mapping = Mapping::ALL[mapping_idx];
        cfg.aggregation_registers = regs;
        cfg.max_scheduled_vertices = width;
        cfg.inter_phase_pipelining = pipe;
        let sim = run_on(&algo, &g, cfg);
        assert_eq!(sim.properties, golden.properties);
    });
}

#[test]
fn sliced_simulator_equals_reference() {
    check(24, |rng| {
        let g = arb_graph(rng, 60, 300);
        let capacity = int(rng, 5usize..40);

        let algo = Bfs::from_root(0);
        let golden = ReferenceEngine::new().run(&algo, &g);
        let mut cfg = ScalaGraphConfig::with_pes(32);
        cfg.spd_capacity_vertices = capacity;
        let sim = run_on(&algo, &g, cfg);
        assert_eq!(sim.properties, golden.properties);
    });
}

#[test]
fn fast_forward_is_bit_identical_on_random_configs() {
    check(24, |rng| {
        let g = arb_graph(rng, 60, 400);
        let pes_pow = int(rng, 0u32..3);
        let mapping_idx = int(rng, 0usize..3);
        let regs = int(rng, 0usize..20);
        let width = int(rng, 1usize..17);
        let pipe = rng.chance(50);
        let latency = int(rng, 4u32..256);

        use scalagraph_suite::mem::HbmConfig;
        use scalagraph_suite::scalagraph::MemoryPreset;
        let algo = Bfs::from_root(0);
        let mut cfg = ScalaGraphConfig::with_pes(32 << pes_pow);
        cfg.mapping = Mapping::ALL[mapping_idx];
        cfg.aggregation_registers = regs;
        cfg.max_scheduled_vertices = width;
        cfg.inter_phase_pipelining = pipe;
        // Randomized memory latency so the idle windows fast-forward skips
        // vary from none to hundreds of cycles.
        let mut hbm = HbmConfig::u280(cfg.effective_clock_mhz() * 1e6);
        hbm.latency_cycles = latency;
        cfg.memory = MemoryPreset::Custom(hbm);
        cfg.fast_forward = false;
        let slow = run_on(&algo, &g, cfg.clone());
        cfg.fast_forward = true;
        let fast = run_on(&algo, &g, cfg);
        assert_eq!(&fast.properties, &slow.properties);
        assert_eq!(&fast.frontier_sizes, &slow.frontier_sizes);
        assert_eq!(fast.stats, slow.stats);
    });
}

#[test]
fn event_driven_is_bit_identical_including_telemetry() {
    check(24, |rng| {
        let g = arb_graph(rng, 60, 400);
        let pes_pow = int(rng, 0u32..3);
        let mapping_idx = int(rng, 0usize..3);
        let regs = int(rng, 0usize..20);
        let width = int(rng, 1usize..17);
        let pipe = rng.chance(50);
        let window = int(rng, 16u64..200);

        use scalagraph_suite::scalagraph::Simulator;
        use scalagraph_suite::telemetry::Recorder;
        let algo = Bfs::from_root(0);
        let mut cfg = ScalaGraphConfig::with_pes(32 << pes_pow);
        cfg.mapping = Mapping::ALL[mapping_idx];
        cfg.aggregation_registers = regs;
        cfg.max_scheduled_vertices = width;
        cfg.inter_phase_pipelining = pipe;
        let run = |event: bool| {
            let mut c = cfg.clone();
            c.fast_forward = event;
            let mut rec = Recorder::new(window);
            let r = Simulator::try_new(&algo, &g, c)
                .and_then(|mut s| s.try_run_with(&mut rec))
                .expect("run converges");
            (r, rec)
        };
        let (dense, rec_s) = run(false);
        let (event, rec_e) = run(true);
        assert_eq!(&event.properties, &dense.properties);
        assert_eq!(&event.frontier_sizes, &dense.frontier_sizes);
        assert_eq!(event.stats, dense.stats);
        // The recorded telemetry stream — every window row, every span —
        // must be bit-identical too; only the event-core diagnostic rows
        // are mode-specific.
        assert_eq!(rec_e.tile_windows(), rec_s.tile_windows());
        assert_eq!(rec_e.hbm_windows(), rec_s.hbm_windows());
        assert_eq!(rec_e.link_windows(), rec_s.link_windows());
        assert_eq!(rec_e.spans(), rec_s.spans());
        assert_eq!(rec_e.summary(), rec_s.summary());
        assert_eq!(rec_s.event_core_totals(), (0, 0));
        // Event-core accounting closes: every unit on every cycle is
        // either dispatched or skipped.
        let (dispatched, skipped) = rec_e.event_core_totals();
        let p = &cfg.placement;
        let units = (p.tiles * p.rows_per_tile + 4 * p.num_pes()) as u64;
        assert_eq!(dispatched + skipped, units * event.stats.cycles);
    });
}

#[test]
fn event_driven_cancellation_yields_a_prefix_telemetry_stream() {
    check(24, |rng| {
        let g = arb_graph(rng, 60, 300);
        let window = int(rng, 16u64..128);
        let frac = int(rng, 2u64..5);

        use scalagraph_suite::scalagraph::{SimError, Simulator};
        use scalagraph_suite::telemetry::Recorder;
        let algo = Bfs::from_root(0);
        let mut cfg = ScalaGraphConfig::with_pes(32);
        cfg.fast_forward = true;
        let mut full_rec = Recorder::new(window);
        let full = Simulator::try_new(&algo, &g, cfg.clone())
            .and_then(|mut s| s.try_run_with(&mut full_rec))
            .expect("full run converges");
        if full.stats.cycles <= frac {
            // Degenerate run too short to interrupt mid-flight.
            return;
        }
        let limit = (full.stats.cycles / frac).max(1);
        cfg.cycle_limit = Some(limit);
        let mut part_rec = Recorder::new(window);
        match Simulator::try_new(&algo, &g, cfg).and_then(|mut s| s.try_run_with(&mut part_rec)) {
            Err(SimError::DeadlineExceeded { cycle, partial }) => {
                assert_eq!(cycle, limit);
                assert_eq!(partial.cycles, limit);
            }
            other => panic!("expected DeadlineExceeded, got {:?}", other),
        }
        // Up to the interruption the machines are the same machine, so
        // every fully-completed window of the interrupted run must appear
        // verbatim in the full run's stream: a strict prefix, with at most
        // one trailing partial window beyond it.
        let complete = limit / window;
        let prefix = |rows: &[scalagraph_suite::telemetry::EventWindowRow]| {
            rows.iter()
                .take_while(|r| r.window < complete)
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(
            prefix(part_rec.event_windows()),
            prefix(full_rec.event_windows())
        );
        assert!(part_rec
            .event_windows()
            .iter()
            .all(|r| r.window <= complete));
        let tile_prefix = |rows: &[scalagraph_suite::telemetry::TileWindowRow]| {
            rows.iter()
                .take_while(|r| r.window < complete)
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(
            tile_prefix(part_rec.tile_windows()),
            tile_prefix(full_rec.tile_windows())
        );
    });
}

use scalagraph_suite::noc::{BflyPacket, Butterfly, Crossbar, CrossbarKind};

#[test]
fn torus_delivers_exactly_once() {
    check(16, |rng| {
        let rows = int(rng, 2usize..5);
        let cols = int(rng, 2usize..5);
        let routes = vec(rng, 1..40, |rng| {
            (int(rng, 0usize..25), int(rng, 0usize..25))
        });

        let n = rows * cols;
        let mut mesh = Mesh::new(MeshConfig::torus(rows, cols));
        let mut to_send: Vec<(usize, Packet)> = routes
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| {
                (
                    s % n,
                    Packet {
                        dst: d % n,
                        payload: i as u64,
                        inject_cycle: 0,
                    },
                )
            })
            .collect();
        let total = to_send.len() as u64;
        let mut got = Vec::new();
        for _ in 0..20_000 {
            let mut rest = Vec::new();
            for (src, pkt) in to_send.drain(..) {
                if !mesh.try_inject(src, pkt) {
                    rest.push((src, pkt));
                }
            }
            to_send = rest;
            mesh.step();
            for node in 0..n {
                while let Some(p) = mesh.pop_delivered(node) {
                    assert_eq!(p.dst, node);
                    got.push(p.payload);
                }
            }
            if to_send.is_empty() && mesh.in_flight_empty() {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(
            got.len() as u64,
            total,
            "torus dropped or duplicated packets"
        );
    });
}

#[test]
fn butterfly_delivers_exactly_once() {
    check(16, |rng| {
        let log_ports = int(rng, 1u32..5);
        let routes = vec(rng, 1..50, |rng| {
            (int(rng, 0usize..16), int(rng, 0usize..16))
        });

        let ports = 1usize << log_ports;
        let mut net = Butterfly::new(ports);
        let mut to_send: Vec<(usize, BflyPacket)> = routes
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| {
                (
                    s % ports,
                    BflyPacket {
                        dst: d % ports,
                        payload: i as u64,
                        inject_cycle: 0,
                    },
                )
            })
            .collect();
        let total = to_send.len() as u64;
        let mut got = Vec::new();
        for _ in 0..20_000 {
            let mut rest = Vec::new();
            for (src, pkt) in to_send.drain(..) {
                if !net.try_inject(src, pkt) {
                    rest.push((src, pkt));
                }
            }
            to_send = rest;
            net.step();
            for port in 0..ports {
                while let Some(p) = net.pop_delivered(port) {
                    assert_eq!(p.dst, port);
                    got.push(p.payload);
                }
            }
            if to_send.is_empty() && net.in_flight_empty() {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(
            got.len() as u64,
            total,
            "butterfly dropped or duplicated packets"
        );
    });
}

#[test]
fn crossbar_delivers_exactly_once_in_both_flavors() {
    check(16, |rng| {
        let inputs = int(rng, 1usize..9);
        let outputs = int(rng, 1usize..9);
        let mux = int(rng, 1usize..4);
        let routes = vec(rng, 1..40, |rng| (int(rng, 0usize..8), int(rng, 0usize..8)));

        for kind in [CrossbarKind::Full, CrossbarKind::MultiStage { mux }] {
            let mut xbar = Crossbar::new(inputs, outputs, kind);
            let mut to_send: Vec<(usize, usize, u64)> = routes
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| (s % inputs, d % outputs, i as u64))
                .collect();
            let total = to_send.len();
            let mut got = Vec::new();
            for _ in 0..20_000 {
                to_send.retain(|&(s, d, p)| !xbar.try_inject(s, d, p));
                xbar.step();
                for out in 0..outputs {
                    while let Some(p) = xbar.pop_delivered(out) {
                        assert_eq!(p.dst, out);
                        got.push(p.payload);
                    }
                }
                if to_send.is_empty() && xbar.in_flight_empty() {
                    break;
                }
            }
            got.sort_unstable();
            assert_eq!(got.len(), total, "{:?} dropped or duplicated packets", kind);
            got.clear();
        }
    });
}

#[test]
fn hbm_conserves_requests() {
    check(16, |rng| {
        let jitter = int(rng, 0u32..16);
        let requests = vec(rng, 1..60, |rng| int(rng, 0usize..4));

        use scalagraph_suite::mem::{Hbm, HbmConfig, MemRequest};
        let mut hbm = Hbm::new(
            HbmConfig {
                channels: 4,
                bytes_per_cycle_per_channel: 40.0,
                latency_cycles: 6,
                queue_depth: 5,
                latency_jitter: 0,
            }
            .with_jitter(jitter),
        );
        let total = requests.len() as u64;
        let mut pending: Vec<(usize, u64)> = requests
            .iter()
            .enumerate()
            .map(|(i, &ch)| (ch, i as u64))
            .collect();
        let mut done = 0u64;
        for _ in 0..20_000 {
            pending.retain(|&(ch, tag)| !hbm.try_request(ch, MemRequest::read(tag, 64)));
            hbm.step();
            for ch in 0..4 {
                while hbm.pop_ready(ch).is_some() {
                    done += 1;
                }
            }
            if pending.is_empty() && hbm.is_idle() {
                break;
            }
        }
        assert_eq!(done, total, "memory dropped or duplicated requests");
        assert_eq!(hbm.stats().reads, total);
    });
}

// Conformance harness: any sampled scenario must survive JSON
// serialize -> deserialize -> rerun with bit-identical oracle reports.
// The sampler maps every u64 onto a well-formed scenario, so the seed
// space IS the scenario space.
#[test]
fn conformance_scenarios_survive_round_trip_and_rerun() {
    check(16, |rng| {
        let seed = rng.next_u64();

        use scalagraph_suite::conformance::{run_scenario, sample_scenario, Scenario, SplitMix64};
        let scenario = sample_scenario(&mut SplitMix64::new(seed), 0);
        let text = scenario.to_json_string();
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(&back, &scenario);
        assert_eq!(
            back.to_json_string(),
            text,
            "canonical form must be a fixpoint"
        );
        let original = run_scenario(&scenario).unwrap();
        let replayed = run_scenario(&back).unwrap();
        assert_eq!(
            original, replayed,
            "deserialized scenario must rerun identically"
        );
    });
}
