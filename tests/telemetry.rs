//! Telemetry subsystem guarantees, pinned across the crate boundary:
//!
//! 1. Attaching a [`Recorder`] or a [`StageClock`] never perturbs the
//!    simulation — results and every performance counter are bit-identical
//!    to the null-collector path, with and without fault injection, and a
//!    clocked run still fast-forwards.
//! 2. The Chrome trace export is well-formed JSON with balanced begin/end
//!    span pairs on every track, so ui.perfetto.dev loads it.
//! 3. The CSV and heatmap exports are structurally sound, and the summary
//!    is consistent with the simulator's own counters.

use scalagraph_suite::algo::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use scalagraph_suite::algo::Algorithm;
use scalagraph_suite::conformance::json::{self, Json};
use scalagraph_suite::graph::{generators, Csr};
use scalagraph_suite::scalagraph::{
    Fault, FaultKind, FaultPlan, LinkDir, ScalaGraphConfig, SimResult, Simulator,
};
use scalagraph_suite::telemetry::{InstantKind, Recorder, Stage, StageClock};
use std::collections::HashMap;

fn test_graph(seed: u64) -> Csr {
    Csr::from_edges(600, &generators::power_law(600, 5000, 0.8, seed))
}

fn run_both<A: Algorithm>(
    algo: &A,
    graph: &Csr,
    cfg: ScalaGraphConfig,
    window: u64,
) -> (SimResult<A::Prop>, SimResult<A::Prop>, Recorder) {
    let plain = Simulator::try_new(algo, graph, cfg.clone())
        .and_then(|mut s| s.try_run())
        .expect("plain run must succeed");
    let mut rec = Recorder::new(window);
    let traced = Simulator::try_new(algo, graph, cfg)
        .and_then(|mut s| s.try_run_with(&mut rec))
        .expect("recorded run must succeed");
    (plain, traced, rec)
}

#[test]
fn recorder_is_bit_identical_to_null_collector() {
    let g = test_graph(1);
    let cfg = ScalaGraphConfig::with_pes(32);
    macro_rules! check {
        ($algo:expr) => {
            let (plain, traced, _) = run_both(&$algo, &g, cfg.clone(), 128);
            assert_eq!(plain.properties, traced.properties);
            assert_eq!(plain.frontier_sizes, traced.frontier_sizes);
            assert_eq!(plain.stats, traced.stats);
        };
    }
    check!(Bfs::from_root(0));
    check!(Sssp::from_root(0));
    check!(ConnectedComponents::new());
    check!(PageRank::new(3));
}

/// Runs `algo` with the stage clock attached and checks it against the
/// null-collector run: same results, same counters, the same simulated
/// cycles (so fast-forward jumped as far), and every stepped cycle timed.
fn assert_clock_is_invisible<A: Algorithm>(algo: &A, graph: &Csr, cfg: ScalaGraphConfig) {
    let plain = Simulator::try_new(algo, graph, cfg.clone())
        .and_then(|mut s| s.try_run())
        .expect("plain run must succeed");
    let mut clock = StageClock::new();
    let clocked = Simulator::try_new(algo, graph, cfg.clone())
        .and_then(|mut s| s.try_run_with(&mut clock))
        .expect("clocked run must succeed");
    assert_eq!(plain.properties, clocked.properties);
    assert_eq!(plain.frontier_sizes, clocked.frontier_sizes);
    assert_eq!(plain.stats, clocked.stats);
    assert_eq!(plain.stats.cycles, clocked.stats.cycles);
    let stepped = clock.stepped_cycles();
    assert!(stepped > 0 && stepped <= clocked.stats.cycles);
    if cfg.fast_forward {
        assert!(
            stepped < clocked.stats.cycles,
            "fast-forward skipped nothing: {stepped} of {} cycles stepped",
            clocked.stats.cycles
        );
    } else {
        assert_eq!(
            stepped, clocked.stats.cycles,
            "the dense reference steps every cycle"
        );
    }
    for stage in [
        Stage::Dispatch,
        Stage::RouteDecide,
        Stage::RouteLand,
        Stage::Gu,
        Stage::Spd,
    ] {
        assert_eq!(
            clock.entries(stage),
            stepped,
            "{stage:?} is entered once per stepped cycle"
        );
    }
    assert!(clock.ns(Stage::RouteDecide) > 0);
    assert!(clock.total_ns() > 0);
}

#[test]
fn stage_clock_is_bit_identical_to_null_collector() {
    let g = test_graph(1);
    // Serial phases leave idle stretches for fast-forward to skip.
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.inter_phase_pipelining = false;
    assert_clock_is_invisible(&Bfs::from_root(0), &g, cfg.clone());
    assert_clock_is_invisible(&Sssp::from_root(0), &g, cfg.clone());
    assert_clock_is_invisible(&ConnectedComponents::new(), &g, cfg.clone());
    assert_clock_is_invisible(&PageRank::new(3), &g, cfg.clone());
    // The dense reference, which steps every cycle.
    cfg.fast_forward = false;
    assert_clock_is_invisible(&Bfs::from_root(0), &g, cfg.clone());
    assert_clock_is_invisible(&PageRank::new(3), &g, cfg);
    // Fault injection: a stalled HBM channel, dropped and delayed flits.
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.inter_phase_pipelining = false;
    cfg.fault_plan = Some(
        FaultPlan::seeded(31)
            .with(
                Fault::new(FaultKind::HbmStall {
                    tile: 0,
                    channel: 1,
                    cycles: 40,
                })
                .window(10, 11),
            )
            .with(
                Fault::new(FaultKind::LinkDrop {
                    node: 3,
                    dir: LinkDir::South,
                    one_in: 5,
                })
                .window(0, 300),
            )
            .with(
                Fault::new(FaultKind::LinkDelay {
                    node: 5,
                    dir: LinkDir::South,
                    cycles: 7,
                })
                .window(0, 400),
            ),
    );
    assert_clock_is_invisible(&Bfs::from_root(0), &test_graph(2), cfg);
}

#[test]
fn recorder_is_bit_identical_under_fault_injection_and_records_instants() {
    let g = test_graph(2);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.fault_plan = Some(
        FaultPlan::seeded(31)
            .with(
                Fault::new(FaultKind::HbmStall {
                    tile: 0,
                    channel: 1,
                    cycles: 40,
                })
                .window(10, 11),
            )
            .with(
                Fault::new(FaultKind::LinkDrop {
                    node: 3,
                    dir: LinkDir::South,
                    one_in: 5,
                })
                .window(0, 300),
            ),
    );
    let (plain, traced, rec) = run_both(&Bfs::from_root(0), &g, cfg, 64);
    assert_eq!(plain.properties, traced.properties);
    assert_eq!(plain.stats, traced.stats);
    let stalls = rec
        .events()
        .iter()
        .filter(|(_, k)| matches!(k, InstantKind::HbmStallInjected { .. }))
        .count() as u64;
    let drops = rec
        .events()
        .iter()
        .filter(|(_, k)| matches!(k, InstantKind::FlitDropped { .. }))
        .count() as u64;
    assert_eq!(stalls, plain.stats.hbm_stalls_injected);
    assert_eq!(drops, plain.stats.flits_dropped);
}

/// Parses a Chrome trace and checks that on every track each end event
/// closes an earlier begin and no begin is left open — Perfetto rejects
/// traces that violate this. Returns the parsed trace and its span count.
fn balanced_spans(text: &str) -> (Json, usize) {
    let trace = json::parse(text).expect("trace must be valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("trace has a traceEvents array");
    let mut depth: HashMap<u64, i64> = HashMap::new();
    let mut begins = 0;
    for event in events {
        let step = match event.get("ph").and_then(Json::as_str) {
            Some("B") => {
                begins += 1;
                1
            }
            Some("E") => -1,
            _ => continue,
        };
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .expect("span events carry a tid");
        let d = depth.entry(tid).or_insert(0);
        *d += step;
        assert!(*d >= 0, "end before begin on track {tid}");
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "unbalanced spans: {depth:?}"
    );
    (trace, begins)
}

#[test]
fn chrome_trace_is_valid_json_with_balanced_spans() {
    let g = test_graph(3);
    let (_, _, rec) = run_both(&PageRank::new(3), &g, ScalaGraphConfig::with_pes(32), 128);
    let mut buf = Vec::new();
    rec.write_chrome_trace(&mut buf).expect("in-memory write");
    let text = String::from_utf8(buf).expect("trace must be UTF-8");
    let (trace, begins) = balanced_spans(&text);
    assert!(trace.get("displayTimeUnit").is_some());
    assert!(begins > 0, "trace must contain span events");
}

#[test]
fn csv_and_heatmap_exports_are_well_formed() {
    let g = test_graph(4);
    let (_, _, rec) = run_both(&Bfs::from_root(0), &g, ScalaGraphConfig::with_pes(32), 128);

    let mut csv = Vec::new();
    rec.write_windows_csv(&mut csv).expect("in-memory write");
    let csv = String::from_utf8(csv).expect("CSV must be UTF-8");
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("kind,window,subject,metric,value"));
    let mut rows = 0;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 5, "malformed row: {line}");
        assert!(
            matches!(fields[0], "tile" | "hbm" | "link"),
            "unknown kind in: {line}"
        );
        fields[1].parse::<u64>().expect("window must be numeric");
        fields[4].parse::<u64>().expect("value must be numeric");
        rows += 1;
    }
    assert!(rows > 0, "CSV must contain data rows");

    let mut heat = Vec::new();
    rec.write_link_heatmap(&mut heat).expect("in-memory write");
    let heat = String::from_utf8(heat).expect("heatmap must be UTF-8");
    let heat = json::parse(&heat).expect("heatmap must be valid JSON");
    for key in ["window_cycles", "cols", "rows"] {
        assert!(heat.get(key).is_some(), "heatmap missing {key}");
    }
    let links = heat
        .get("links")
        .and_then(Json::as_array)
        .expect("heatmap has a links array");
    assert!(!links.is_empty(), "heatmap must contain links");
    assert!(
        links.iter().all(|l| l.get("utilization").is_some()),
        "heatmap link missing its utilization"
    );
}

#[test]
fn wedged_run_still_exports_a_balanced_trace_with_the_watchdog_event() {
    let g = test_graph(6);
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.watchdog_stall_cycles = 1_500;
    cfg.fault_plan = Some(
        FaultPlan::seeded(37).with(
            Fault::new(FaultKind::HbmStall {
                tile: 0,
                channel: 0,
                cycles: u64::MAX,
            })
            .window(20, 21),
        ),
    );
    let mut rec = Recorder::new(128);
    let err = Simulator::try_new(&Bfs::from_root(0), &g, cfg)
        .and_then(|mut s| s.try_run_with(&mut rec))
        .expect_err("pinned channel must wedge the run");
    assert!(err.snapshot().is_some());
    assert!(
        rec.events()
            .iter()
            .any(|(_, k)| matches!(k, InstantKind::WatchdogStall { .. })),
        "the watchdog firing must appear on the event track"
    );
    let mut buf = Vec::new();
    rec.write_chrome_trace(&mut buf).expect("in-memory write");
    let text = String::from_utf8(buf).expect("trace must be UTF-8");
    // Balanced on every track: the error-path flush must close open spans.
    let (_, begins) = balanced_spans(&text);
    assert!(begins > 0);
}

#[test]
fn fast_forward_with_a_recorder_attached_is_bit_identical() {
    let g = test_graph(7);
    // A latency-heavy serial configuration: long quiescent stretches, so
    // fast-forward actually engages and must still stop on every window
    // boundary the recorder samples.
    let mut cfg = ScalaGraphConfig::with_pes(32);
    cfg.inter_phase_pipelining = false;
    for window in [64, 1000] {
        let mut off = cfg.clone();
        off.fast_forward = false;
        let mut on = cfg.clone();
        on.fast_forward = true;
        let (plain_off, traced_off, rec_off) = run_both(&Bfs::from_root(0), &g, off, window);
        let (plain_on, traced_on, rec_on) = run_both(&Bfs::from_root(0), &g, on, window);
        assert_eq!(plain_off.stats, plain_on.stats, "window={window}");
        assert_eq!(traced_off.properties, traced_on.properties);
        assert_eq!(traced_off.frontier_sizes, traced_on.frontier_sizes);
        assert_eq!(traced_off.stats, traced_on.stats);
        // The sampled timelines must agree window for window, not just in
        // aggregate: fast-forward may never jump across a sample boundary.
        let (a, b) = (rec_off.summary(), rec_on.summary());
        assert_eq!(a.windows, b.windows, "window={window}");
        assert_eq!(a.run_cycles, b.run_cycles);
        assert_eq!(a.total_link_traversals, b.total_link_traversals);
        let mut csv_off = Vec::new();
        let mut csv_on = Vec::new();
        rec_off.write_windows_csv(&mut csv_off).expect("write");
        rec_on.write_windows_csv(&mut csv_on).expect("write");
        assert_eq!(csv_off, csv_on, "per-window CSV diverged (window={window})");
    }
}

#[test]
fn summary_is_consistent_with_simulator_counters() {
    let g = test_graph(5);
    let (plain, _, rec) = run_both(&PageRank::new(3), &g, ScalaGraphConfig::with_pes(32), 200);
    let s = rec.summary();
    assert_eq!(s.run_cycles, plain.stats.cycles);
    assert_eq!(s.window_cycles, 200);
    assert_eq!(s.total_link_traversals, plain.stats.noc_hops);
    assert_eq!(s.offchip_bytes, plain.stats.offchip_bytes());
    assert!(s.windows >= s.run_cycles / 200);
    assert!(s.routing_latency_p50 <= s.routing_latency_p95);
    assert!(s.routing_latency_p95 <= s.routing_latency_max);
    assert!(s.scatter_only_cycles + s.apply_only_cycles + s.overlap_cycles <= s.run_cycles);
    let peak = s.peak_link.expect("a PageRank run must exercise links");
    assert!(peak.traversals > 0);
    assert!(s.peak_link_utilization > 0.0);
}
