//! Robustness: structured errors, the progress watchdog, and the seeded
//! fault-injection subsystem.
//!
//! Three classes of guarantee are pinned down here:
//!
//! 1. With no fault plan attached, `try_run` is bit-identical to the
//!    legacy `run` path on every algorithm.
//! 2. A machine wedged by an injected fault (pinned HBM channel,
//!    zero-credit link) is diagnosed by the watchdog in bounded time with
//!    a non-empty stall snapshot — never a hang, never a panic.
//! 3. Corrupt inputs — graph files and update payloads — surface as typed
//!    errors.

use scalagraph_suite::algo::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use scalagraph_suite::algo::{Algorithm, ReferenceEngine};
use scalagraph_suite::graph::{generators, io, Csr, EdgeList};
use scalagraph_suite::scalagraph::{
    run_on, try_run_on, Fault, FaultKind, FaultPlan, LinkDir, ScalaGraphConfig, SimError,
    StalledUnit,
};

fn test_graph(seed: u64) -> Csr {
    Csr::from_edges(400, &generators::uniform(400, 3000, seed))
}

fn assert_try_matches_run<A: Algorithm>(algo: &A, graph: &Csr)
where
    A::Prop: std::fmt::Debug + PartialEq,
{
    let cfg = ScalaGraphConfig::with_pes(32);
    let via_run = run_on(algo, graph, cfg.clone());
    let via_try = try_run_on(algo, graph, cfg).expect("fault-free run must succeed");
    assert_eq!(via_try.properties, via_run.properties);
    assert_eq!(via_try.frontier_sizes, via_run.frontier_sizes);
    assert_eq!(via_try.stats, via_run.stats);
}

#[test]
fn try_run_is_bit_identical_to_run_without_faults() {
    let g = test_graph(1);
    assert_try_matches_run(&Bfs::from_root(0), &g);
    assert_try_matches_run(&PageRank::new(3), &g);

    let mut list = EdgeList::new(g.num_vertices());
    for e in g.edges() {
        list.push(e);
    }
    list.randomize_weights(255, 7);
    assert_try_matches_run(&Sssp::from_root(0), &Csr::from_edge_list(&list));

    let mut sym = EdgeList::new(g.num_vertices());
    for e in g.edges() {
        sym.push(e);
    }
    sym.symmetrize();
    assert_try_matches_run(&ConnectedComponents::new(), &Csr::from_edge_list(&sym));
}

#[test]
fn try_run_still_matches_the_reference_engine() {
    let g = test_graph(2);
    let algo = Bfs::from_root(0);
    let golden = ReferenceEngine::new().run(&algo, &g);
    let sim = try_run_on(&algo, &g, ScalaGraphConfig::with_pes(32)).unwrap();
    assert_eq!(sim.properties, golden.properties);
}

#[test]
fn invalid_config_is_a_structured_error_not_a_panic() {
    let g = test_graph(3);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.gu_queue_capacity = 0;
    let err = try_run_on(&Bfs::from_root(0), &g, cfg).unwrap_err();
    assert!(matches!(err, SimError::ConfigInvalid { .. }), "{err}");
    assert!(err.snapshot().is_none());
}

#[test]
fn permanently_pinned_hbm_channel_trips_the_watchdog() {
    let g = test_graph(4);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.watchdog_stall_cycles = 2_000;
    cfg.fault_plan = Some(
        FaultPlan::seeded(11).with(
            Fault::new(FaultKind::HbmStall {
                tile: 0,
                channel: 0,
                cycles: u64::MAX,
            })
            .window(20, 21),
        ),
    );
    let err = try_run_on(&Bfs::from_root(0), &g, cfg).unwrap_err();
    assert!(
        matches!(
            err,
            SimError::DeadlockDetected { .. } | SimError::WatchdogStall { .. }
        ),
        "{err}"
    );
    let snapshot = err.snapshot().expect("stall errors carry a snapshot");
    assert!(!snapshot.is_empty(), "snapshot must name the stuck state");
    assert!(snapshot.stalled_for >= 2_000);
    assert!(
        snapshot
            .tiles
            .iter()
            .any(|t| t.hbm_channels.iter().any(|c| c.stalled)),
        "the pinned channel must appear in the snapshot:\n{snapshot}"
    );
    assert!(
        matches!(
            snapshot.suspect,
            StalledUnit::HbmChannel { tile: 0, .. } | StalledUnit::Prefetcher { tile: 0 }
        ),
        "suspect should point at tile 0's memory path, got {}",
        snapshot.suspect
    );
}

#[test]
fn zero_credit_link_wedges_and_is_diagnosed_in_bounded_time() {
    let g = test_graph(5);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.watchdog_stall_cycles = 2_000;
    // with_pes(32) is a single-column mesh and row-oriented mapping keeps
    // all update traffic inside the destination's tile: downing tile 0's
    // mid-tile south link (node 7 -> 8) cuts every update headed from its
    // upper to its lower rows.
    cfg.fault_plan = Some(FaultPlan::seeded(13).with(Fault::new(FaultKind::LinkDown {
        node: 7,
        dir: LinkDir::South,
    })));
    let err = try_run_on(&Bfs::from_root(0), &g, cfg).unwrap_err();
    assert!(
        matches!(
            err,
            SimError::DeadlockDetected { .. } | SimError::WatchdogStall { .. }
        ),
        "{err}"
    );
    let snapshot = err.snapshot().expect("stall errors carry a snapshot");
    assert!(!snapshot.is_empty());
    assert!(!matches!(snapshot.suspect, StalledUnit::Unknown));
    // Bounded time: the watchdog fired, the safety cap did not.
    assert!(
        snapshot.cycle < 1_000_000,
        "diagnosed at cycle {}",
        snapshot.cycle
    );
}

#[test]
fn out_of_range_payload_corruption_is_unrecoverable() {
    let g = test_graph(6);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.fault_plan = Some(
        FaultPlan::seeded(17)
            .with(Fault::new(FaultKind::CorruptPayload {
                node: 7,
                dir: LinkDir::South,
                one_in: 1,
                out_of_range: true,
            }))
            .with(Fault::new(FaultKind::CorruptPayload {
                node: 8,
                dir: LinkDir::North,
                one_in: 1,
                out_of_range: true,
            })),
    );
    let err = try_run_on(&Bfs::from_root(0), &g, cfg).unwrap_err();
    assert!(matches!(err, SimError::FaultUnrecoverable { .. }), "{err}");
    assert!(err.to_string().contains("vertex"), "{err}");
}

#[test]
fn in_range_corruption_completes_with_well_formed_results() {
    let g = test_graph(7);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.fault_plan = Some(
        FaultPlan::seeded(19).with(Fault::new(FaultKind::CorruptPayload {
            node: 7,
            dir: LinkDir::South,
            one_in: 4,
            out_of_range: false,
        })),
    );
    // Silent data corruption: the run finishes and the output is shaped
    // correctly, even though the values may be wrong.
    let sim = try_run_on(&Bfs::from_root(0), &g, cfg).expect("in-range corruption must not wedge");
    assert_eq!(sim.properties.len(), g.num_vertices());
    assert!(sim.stats.updates_corrupted > 0);
}

#[test]
fn delayed_flits_still_converge_to_the_reference_answer() {
    let g = test_graph(8);
    let algo = Bfs::from_root(0);
    let golden = ReferenceEngine::new().run(&algo, &g);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.fault_plan = Some(FaultPlan::seeded(23).with(Fault::new(FaultKind::LinkDelay {
        node: 7,
        dir: LinkDir::South,
        cycles: 7,
    })));
    let sim = try_run_on(&algo, &g, cfg).expect("a slow link must not wedge the machine");
    // Delay reorders but never loses updates; BFS levels are a min-fixpoint
    // so the final properties are unchanged.
    assert_eq!(sim.properties, golden.properties);
    assert!(sim.stats.flits_delayed > 0);
}

#[test]
fn dropped_flits_never_panic() {
    let g = test_graph(9);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.watchdog_stall_cycles = 10_000;
    cfg.fault_plan = Some(
        FaultPlan::seeded(29).with(
            Fault::new(FaultKind::LinkDrop {
                node: 7,
                dir: LinkDir::South,
                one_in: 3,
            })
            .window(0, 400),
        ),
    );
    // Lost updates may leave vertices unreached or stall the frontier; both
    // a completed run and a structured stall report are acceptable — a
    // panic or a hang is not.
    match try_run_on(&Bfs::from_root(0), &g, cfg) {
        Ok(sim) => {
            assert_eq!(sim.properties.len(), g.num_vertices());
            assert!(sim.stats.flits_dropped > 0);
        }
        Err(e) => {
            assert!(e.snapshot().is_some(), "{e}");
        }
    }
}

/// Runs `cfg` with fast-forward off and on and asserts the outcomes are
/// bit-identical — same properties, frontier trace, and stats on success,
/// same error cycle and stall diagnosis on failure.
fn assert_fast_forward_identical(graph: &Csr, cfg: &ScalaGraphConfig) {
    let mut off = cfg.clone();
    off.fast_forward = false;
    let mut on = cfg.clone();
    on.fast_forward = true;
    let algo = Bfs::from_root(0);
    match (try_run_on(&algo, graph, off), try_run_on(&algo, graph, on)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.properties, b.properties);
            assert_eq!(a.frontier_sizes, b.frontier_sizes);
            assert_eq!(a.stats, b.stats);
        }
        (Err(a), Err(b)) => {
            let (sa, sb) = (a.snapshot(), b.snapshot());
            assert_eq!(
                sa.map(|s| (s.cycle, s.stalled_for)),
                sb.map(|s| (s.cycle, s.stalled_for)),
                "off: {a}\non: {b}"
            );
        }
        (a, b) => panic!(
            "fast-forward changed the outcome: off={:?} on={:?}",
            a.map(|r| r.stats),
            b.map(|r| r.stats)
        ),
    }
}

#[test]
fn fast_forward_is_bit_identical_under_recoverable_faults() {
    let g = test_graph(8);
    // Slow link: delays stretch the idle windows fast-forward skips over.
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.fault_plan = Some(FaultPlan::seeded(23).with(Fault::new(FaultKind::LinkDelay {
        node: 7,
        dir: LinkDir::South,
        cycles: 7,
    })));
    assert_fast_forward_identical(&g, &cfg);

    // Transient HBM stalls: the injector's fire cycles must be hit exactly
    // even when the engine is skipping quiescent stretches.
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.fault_plan = Some(
        FaultPlan::seeded(37).with(
            Fault::new(FaultKind::HbmStall {
                tile: 0,
                channel: 1,
                cycles: 300,
            })
            .window(50, 2_000),
        ),
    );
    assert_fast_forward_identical(&g, &cfg);
}

#[test]
fn fast_forward_trips_the_watchdog_identically() {
    let g = test_graph(4);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.watchdog_stall_cycles = 2_000;
    cfg.fault_plan = Some(
        FaultPlan::seeded(11).with(
            Fault::new(FaultKind::HbmStall {
                tile: 0,
                channel: 0,
                cycles: u64::MAX,
            })
            .window(20, 21),
        ),
    );
    assert_fast_forward_identical(&g, &cfg);
}

/// With the watchdog off nothing diagnoses a wedge, so the event core's
/// idle skip has no watchdog cycle to stop at: it must still land on the
/// cycle limit with the dense reference's error and partial counters.
#[test]
fn a_wedge_with_the_watchdog_off_ends_identically_on_both_loops() {
    let g = test_graph(4);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.watchdog_stall_cycles = 0;
    cfg.cycle_limit = Some(20_000);
    cfg.fault_plan = Some(
        FaultPlan::seeded(11).with(
            Fault::new(FaultKind::HbmStall {
                tile: 0,
                channel: 0,
                cycles: u64::MAX,
            })
            .window(20, 21),
        ),
    );
    let run = |fast_forward: bool| {
        let mut c = cfg.clone();
        c.fast_forward = fast_forward;
        try_run_on(&Bfs::from_root(0), &g, c)
    };
    match (run(false), run(true)) {
        (
            Err(SimError::DeadlineExceeded {
                cycle: dense_cycle,
                partial: dense,
            }),
            Err(SimError::DeadlineExceeded {
                cycle: core_cycle,
                partial: core,
            }),
        ) => {
            assert_eq!(dense_cycle, 20_000, "the wedge runs to the limit");
            assert_eq!(core_cycle, dense_cycle);
            assert_eq!(core, dense, "partial counters diverge");
        }
        (a, b) => panic!(
            "expected two DeadlineExceeded errors, got dense={:?} core={:?}",
            a.map(|r| r.stats),
            b.map(|r| r.stats)
        ),
    }
}

#[test]
fn corrupt_graph_files_error_instead_of_panicking() {
    let dir = std::env::temp_dir().join("scalagraph_robustness_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = |name: &str| dir.join(format!("{}_{}", std::process::id(), name));

    // Truncated edge list: a data line with a single field.
    let p = tmp("truncated.txt");
    std::fs::write(&p, "0 1\n1 2\n3\n").unwrap();
    assert!(io::read_edge_list(&p, None).is_err());
    std::fs::remove_file(&p).unwrap();

    // Endpoint outside the declared vertex count.
    let p = tmp("oob.txt");
    std::fs::write(&p, "0 1\n9 2\n").unwrap();
    assert!(io::read_edge_list(&p, Some(5)).is_err());
    std::fs::remove_file(&p).unwrap();
}
