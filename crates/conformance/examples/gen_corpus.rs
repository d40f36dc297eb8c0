//! Regenerates the checked-in `corpus/` scenarios in canonical form.
//!
//! ```text
//! cargo run -p scalagraph-conformance --example gen_corpus
//! ```
//!
//! Each scenario here is a regression pin or a known-interesting case; the
//! tier-1 `tests/conformance.rs` suite replays every file this writes. Run
//! this after changing the scenario JSON schema so the corpus stays in the
//! canonical byte-for-byte serialization.

use scalagraph::fault::LinkDir;
use scalagraph::Mapping;
use scalagraph_conformance::{
    AlgoSpec, ConfigSpec, Expectation, Family, FaultKindSpec, FaultSpec, GraphSource, GraphSpec,
    MemorySpec, ModeMatrix, MutationSpec, Scenario,
};

fn unit_graph(family: Family) -> GraphSpec {
    GraphSpec {
        family,
        symmetrize: false,
        max_weight: 0,
        weight_seed: 0,
        source: GraphSource::Generate,
    }
}

fn corpus() -> Vec<Scenario> {
    vec![
        // Regression: a pipelined wave that consumes a non-empty frontier
        // but produces zero apply work (BFS from a zero-out-degree star
        // leaf) must still count as an iteration, exactly as the reference
        // engine counts it. `strict_frontier` forces the strict comparison
        // even though pipelining is on: with a single wave there is nothing
        // for the overlap to legally reorder.
        Scenario {
            name: "regression-star-leaf-iteration".into(),
            graph: unit_graph(Family::Star { vertices: 64 }),
            algo: AlgoSpec::Bfs { root: 5 },
            config: ConfigSpec::small(),
            fault_seed: 0,
            faults: Vec::new(),
            modes: ModeMatrix::full(),
            expect: Expectation::Converge,
            strict_frontier: Some(true),
            synthetic_bug: false,
            mutations: None,
        },
        // Regression: same final-wave undercount on the other edge case —
        // a path's trailing vertex has no out-edges, so the last wave of a
        // pipelined run used to go uncounted (N-1 instead of N). On a path
        // every frontier is a single vertex, so the pipelined evolution
        // must match the reference exactly.
        Scenario {
            name: "regression-path-trailing-iteration".into(),
            graph: unit_graph(Family::Path { vertices: 12 }),
            algo: AlgoSpec::Bfs { root: 0 },
            config: ConfigSpec::small(),
            fault_seed: 0,
            faults: Vec::new(),
            modes: ModeMatrix::full(),
            expect: Expectation::Converge,
            strict_frontier: Some(true),
            synthetic_bug: false,
            mutations: None,
        },
        // A permanently pinned HBM pseudo-channel must wedge the run, the
        // watchdog must blame a unit of the faulted tile, and the stepped
        // and fast-forward modes must produce the identical diagnosis.
        // The pin fires at cycle 20, once requests are in flight on the
        // channel — a pin at cycle 0 lands on an empty channel and traps
        // nothing — and the graph is big enough that tile 0's channel 0
        // is on the critical path by then.
        Scenario {
            name: "wedge-hbm-stall-watchdog".into(),
            graph: unit_graph(Family::Uniform {
                vertices: 400,
                edges: 3_000,
                seed: 4,
            }),
            algo: AlgoSpec::Bfs { root: 0 },
            config: ConfigSpec {
                watchdog_stall_cycles: 2_000,
                ..ConfigSpec::small()
            },
            fault_seed: 1,
            faults: vec![FaultSpec {
                kind: FaultKindSpec::HbmStall {
                    tile: 0,
                    channel: 0,
                    cycles: 0, // forever
                },
                from: 20,
                until: 21,
            }],
            modes: ModeMatrix {
                fast_forward: true,
                recording: true,
                graphdyns: false,
                gunrock: false,
            },
            expect: Expectation::Wedge {
                suspect_contains: "tile 0".into(),
            },
            strict_frontier: None,
            synthetic_bug: false,
            mutations: None,
        },
        // Timing-only faults (a delayed router port, a transient HBM
        // stall) must be absorbed without changing any result, on a
        // weighted R-MAT graph under the destination-oriented mapping.
        Scenario {
            name: "converge-sssp-faulty-delay".into(),
            graph: GraphSpec {
                family: Family::Rmat {
                    vertices: 128,
                    edges: 512,
                    seed: 11,
                },
                symmetrize: false,
                max_weight: 32,
                weight_seed: 5,
                source: GraphSource::Generate,
            },
            algo: AlgoSpec::Sssp { root: 7 },
            config: ConfigSpec {
                pes: 64,
                mapping: Mapping::DestinationOriented,
                ..ConfigSpec::small()
            },
            fault_seed: 13,
            faults: vec![
                FaultSpec {
                    kind: FaultKindSpec::LinkDelay {
                        node: 9,
                        dir: LinkDir::East,
                        cycles: 4,
                    },
                    from: 0,
                    until: 5_000,
                },
                FaultSpec {
                    kind: FaultKindSpec::HbmStall {
                        tile: 1,
                        channel: 1,
                        cycles: 16,
                    },
                    from: 100,
                    until: 400,
                },
            ],
            modes: ModeMatrix::full(),
            expect: Expectation::Converge,
            strict_frontier: None,
            synthetic_bug: false,
            mutations: None,
        },
        // Float-valued properties across every engine: PageRank on a dense
        // uniform graph, with a non-default aggregation depth and a custom
        // HBM latency/jitter point.
        Scenario {
            name: "converge-pagerank-dense".into(),
            graph: unit_graph(Family::Uniform {
                vertices: 100,
                edges: 900,
                seed: 21,
            }),
            algo: AlgoSpec::PageRank { iters: 4 },
            config: ConfigSpec {
                aggregation_registers: 4,
                memory: MemorySpec::Custom {
                    latency_cycles: 24,
                    jitter: 2,
                },
                ..ConfigSpec::small()
            },
            fault_seed: 0,
            faults: Vec::new(),
            modes: ModeMatrix::full(),
            expect: Expectation::Converge,
            strict_frontier: None,
            synthetic_bug: false,
            mutations: None,
        },
        // Busy-dominated pipelined BFS: a dense heavy-tailed graph keeps
        // the scatter machine saturated, so the event-driven core spends
        // the run in sparse stepping rather than whole-device jumps — the
        // regime where per-unit skip bookkeeping could plausibly drift.
        // The core must stay bit-identical to the dense reference.
        Scenario {
            name: "converge-event-driven-busy-bfs".into(),
            graph: unit_graph(Family::Rmat {
                vertices: 600,
                edges: 8_000,
                seed: 41,
            }),
            algo: AlgoSpec::Bfs { root: 1 },
            config: ConfigSpec {
                pes: 64,
                aggregation_registers: 8,
                ..ConfigSpec::small()
            },
            fault_seed: 0,
            faults: Vec::new(),
            modes: ModeMatrix::sim_only(),
            expect: Expectation::Converge,
            strict_frontier: None,
            synthetic_bug: false,
            mutations: None,
        },
        // An HBM pseudo-channel pinned forever mid-run: the dense
        // reference, the event-driven core and the recording run must all
        // trip the watchdog with the identical cycle, stall count and
        // suspect. The core replays the watchdog in closed form across its
        // idle skips, so any drift in that accounting moves the firing
        // cycle.
        Scenario {
            name: "wedge-event-driven-hbm-stall".into(),
            graph: unit_graph(Family::Uniform {
                vertices: 300,
                edges: 2_400,
                seed: 29,
            }),
            algo: AlgoSpec::Bfs { root: 2 },
            config: ConfigSpec {
                watchdog_stall_cycles: 1_500,
                ..ConfigSpec::small()
            },
            fault_seed: 3,
            faults: vec![FaultSpec {
                kind: FaultKindSpec::HbmStall {
                    tile: 0,
                    channel: 1,
                    cycles: 0, // forever
                },
                from: 40,
                until: 41,
            }],
            modes: ModeMatrix {
                fast_forward: true,
                recording: true,
                graphdyns: false,
                gunrock: false,
            },
            expect: Expectation::Wedge {
                suspect_contains: "tile 0".into(),
            },
            strict_frontier: None,
            synthetic_bug: false,
            mutations: None,
        },
        // Churn-heavy dynamic BFS: four batches each rewiring ~5% of the
        // edges (plus vertex additions and isolations) on a sparse uniform
        // graph. Every batch's incremental BFS repair and spliced CSR must
        // stay bit-identical to a full recompute/rebuild, and every mutated
        // snapshot must still agree across the declared engines. Isolating
        // vertices near the root exercises reachability-loss repair, the
        // hard direction for rooted algorithms.
        Scenario {
            name: "dynamic-churn-bfs-repair".into(),
            graph: unit_graph(Family::Uniform {
                vertices: 256,
                edges: 1_024,
                seed: 61,
            }),
            algo: AlgoSpec::Bfs { root: 3 },
            config: ConfigSpec::small(),
            fault_seed: 0,
            faults: Vec::new(),
            modes: ModeMatrix::sim_only(),
            expect: Expectation::Converge,
            strict_frontier: None,
            synthetic_bug: false,
            mutations: Some(MutationSpec {
                batches: 4,
                insert_edges: 24,
                remove_edges: 24,
                add_vertices: 2,
                isolate_vertices: 1,
                seed: 611,
            }),
        },
        // Delta-PageRank divergence pin: a heavy-tailed R-MAT graph where
        // removing and inserting edges around hubs shifts mass through
        // multi-hop fan-outs. The delta path recomputes only the affected
        // frontier per iteration yet must reproduce the full-recompute
        // trace to the bit at every one of the 4 iterations of every
        // batch — the scenario that catches any under-approximation of the
        // affected set (degree changes redistribute 1/deg shares even when
        // a vertex keeps its rank).
        Scenario {
            name: "dynamic-delta-pagerank-divergence".into(),
            graph: unit_graph(Family::Rmat {
                vertices: 128,
                edges: 512,
                seed: 23,
            }),
            algo: AlgoSpec::PageRank { iters: 4 },
            config: ConfigSpec::small(),
            fault_seed: 0,
            faults: Vec::new(),
            modes: ModeMatrix::sim_only(),
            expect: Expectation::Converge,
            strict_frontier: None,
            synthetic_bug: false,
            mutations: Some(MutationSpec {
                batches: 3,
                insert_edges: 12,
                remove_edges: 12,
                add_vertices: 0,
                isolate_vertices: 1,
                seed: 233,
            }),
        },
    ]
}

fn main() {
    let dir = format!("{}/../../corpus", env!("CARGO_MANIFEST_DIR"));
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for s in corpus() {
        let path = format!("{dir}/{}.json", s.name);
        std::fs::write(&path, s.to_json_string()).expect("write scenario");
        println!("wrote {path}");
    }
}
