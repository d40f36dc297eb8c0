//! `bench_hotloop` — end-to-end timing of the simulator's stepping loop.
//!
//! Runs a fixed BFS matrix twice: in the dense reference (every unit
//! visited on every cycle, no idle skip) and on the event-driven core the
//! runtime uses. The matrix is an HBM-latency sensitivity sweep on a
//! 4,096-vertex R-MAT graph at 512 PEs with serial phases, the same graph
//! on the U280 preset pipelined, and one busy configuration: Pokec at
//! 1/256 scale, 512 PEs, U280, pipelined. Asserts both legs produce
//! bit-identical metrics, then writes `BENCH_hotloop.json` reporting
//! simulated-cycles/sec and wall-clock of each leg, the speedup, and — per
//! configuration — the busy-cycle fraction (the share of unit-visits the
//! event core actually executed) plus single-threaded dense vs event-core
//! cycles/sec.
//!
//! ```text
//! bench_hotloop [--out <path>] [--check <path>] [--threads <n>]
//!   --out <path>     where to write the JSON        [BENCH_hotloop.json]
//!   --check <path>   compare against a previously written JSON and exit
//!                    nonzero if event-core cycles/sec regressed >20%, or
//!                    if any configuration's simulated cycles or traversed
//!                    edges differ from the pinned ones
//!   --threads <n>    worker threads for both legs   [all cores]
//! ```

use scalagraph::telemetry::Recorder;
use scalagraph::{MemoryPreset, ScalaGraphConfig, Simulator};
use scalagraph_algo::algorithms::Bfs;
use scalagraph_bench::runners::{try_run_scalagraph, Metrics};
use scalagraph_bench::sweep::{default_threads, parallel_map_with};
use scalagraph_bench::workloads::{prepare, PreparedGraph, Workload};
use scalagraph_graph::{generators, Csr, Dataset};
use scalagraph_mem::HbmConfig;
use std::time::Instant;

/// Fixed R-MAT input of the latency sweep.
const RMAT_VERTICES: usize = 4096;
const RMAT_EDGES: usize = 16384;
const RMAT_SEED: u64 = 42;

/// Fixed busy input: Pokec at 1/`PK_SCALE` of paper size.
const PK_SCALE: u64 = 256;
const PK_SEED: u64 = 42;

/// The sweep: HBM load-to-use latency sensitivity at 512 PEs with serial
/// phases — the paper-style experiment where idle-cycle skipping matters,
/// because deeper memory pipelines mean longer quiescent waits.
const LATENCIES: &[u32] = &[64, 128, 256, 384, 512];

/// Repetitions for the single-threaded per-config timings.
const PER_CONFIG_REPS: u32 = 8;

/// The two inputs, indexed by [`Case::graph`].
fn inputs() -> [PreparedGraph; 2] {
    let graph = Csr::from_edges(
        RMAT_VERTICES,
        &generators::rmat(RMAT_VERTICES, RMAT_EDGES, RMAT_SEED),
    );
    let root = Dataset::pick_root(&graph);
    [
        PreparedGraph { graph, root },
        prepare(Dataset::Pokec, Workload::Bfs, PK_SCALE, PK_SEED),
    ]
}

/// One configuration of the matrix.
struct Case {
    label: String,
    /// Index into [`inputs`].
    graph: usize,
    cfg: ScalaGraphConfig,
}

/// The matrix, in the dense reference (`fast_forward` off) or on the
/// event-driven core.
fn cases(fast_forward: bool) -> Vec<Case> {
    let case = |label: String, graph: usize, mut cfg: ScalaGraphConfig| {
        cfg.fast_forward = fast_forward;
        Case { label, graph, cfg }
    };
    let mut out = Vec::new();
    for &lat in LATENCIES {
        let mut cfg = ScalaGraphConfig::with_pes(512);
        cfg.inter_phase_pipelining = false;
        let mut hbm = HbmConfig::u280(cfg.effective_clock_mhz() * 1e6);
        hbm.latency_cycles = lat;
        cfg.memory = MemoryPreset::Custom(hbm);
        out.push(case(format!("lat{lat}"), 0, cfg));
    }
    // Busy, pipelined configurations, where whole-device skips cannot help
    // and the event core can only skip individual idle units.
    let busy = ScalaGraphConfig::with_pes(512);
    out.push(case("u280-pipelined".to_string(), 0, busy.clone()));
    out.push(case(format!("pk{PK_SCALE}-u280-pipelined"), 1, busy));
    out
}

struct LegTiming {
    wall_seconds: f64,
    total_cycles: u64,
    records: Vec<(String, Metrics)>,
}

fn timed_leg(threads: usize, inputs: &[PreparedGraph], fast_forward: bool) -> LegTiming {
    let start = Instant::now();
    let records = parallel_map_with(threads, cases(fast_forward), |c| {
        let m = try_run_scalagraph(&inputs[c.graph], Workload::Bfs, c.cfg)
            .unwrap_or_else(|e| panic!("{} failed: {e}", c.label));
        (c.label, m)
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    let total_cycles = records.iter().map(|(_, m)| m.cycles).sum();
    LegTiming {
        wall_seconds,
        total_cycles,
        records,
    }
}

fn cycles_per_sec(t: &LegTiming) -> f64 {
    t.total_cycles as f64 / t.wall_seconds.max(1e-9)
}

/// Single-threaded cycles/sec of one configuration, best practice warm:
/// one untimed run, then `PER_CONFIG_REPS` timed ones.
fn config_cycles_per_sec(prep: &PreparedGraph, cfg: &ScalaGraphConfig) -> f64 {
    let algo = Bfs::from_root(prep.root);
    let run = || {
        Simulator::try_new(&algo, &prep.graph, cfg.clone())
            .and_then(|mut s| s.try_run())
            .expect("bench config must converge")
    };
    let cycles = run().stats.cycles;
    let start = Instant::now();
    for _ in 0..PER_CONFIG_REPS {
        let _ = run();
    }
    let per_run = start.elapsed().as_secs_f64() / f64::from(PER_CONFIG_REPS);
    cycles as f64 / per_run.max(1e-9)
}

/// Busy-cycle fraction of one configuration: the share of unit-visits the
/// event core executed rather than proved idle, from an untimed recorded
/// run.
fn config_busy_fraction(prep: &PreparedGraph, cfg: &ScalaGraphConfig) -> f64 {
    let algo = Bfs::from_root(prep.root);
    let mut rec = Recorder::new(1000);
    Simulator::try_new(&algo, &prep.graph, cfg.clone())
        .and_then(|mut s| s.try_run_with(&mut rec))
        .expect("bench config must converge");
    rec.event_busy_fraction()
        .expect("event-core run records busy windows")
}

/// The number after `"key":` in `text`, a flat object of a previous
/// report. Hand-rolled because the JSON is ours and flat.
fn read_field<T: std::str::FromStr>(text: &str, key: &str) -> Option<T> {
    let num = text.split(&format!("\"{key}\":")).nth(1)?;
    num.trim_start()
        .split(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .next()?
        .parse()
        .ok()
}

/// The flat object of a previous report that starts after the first
/// `opener`.
fn read_object<'a>(text: &'a str, opener: &str) -> Option<&'a str> {
    let start = text.find(opener)? + opener.len();
    text[start..].split('}').next()
}

/// Extracts the pinned `(cycles, traversed_edges)` of configuration
/// `label` from a previous report.
fn read_config_counts(text: &str, label: &str) -> Option<(u64, u64)> {
    let obj = read_object(text, &format!("\"label\": \"{label}\""))?;
    Some((
        read_field(obj, "cycles")?,
        read_field(obj, "traversed_edges")?,
    ))
}

fn main() {
    let mut out_path = "BENCH_hotloop.json".to_string();
    let mut check_path: Option<String> = None;
    let mut threads = default_threads();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--out" => out_path = value("--out"),
            "--check" => check_path = Some(value("--check")),
            "--threads" => {
                threads = value("--threads")
                    .parse()
                    .expect("--threads needs a positive integer");
                assert!(threads > 0, "--threads needs a positive integer");
            }
            other => panic!("unknown flag `{other}`"),
        }
    }

    let inputs = inputs();
    let [rmat, pk] = &inputs;
    let workload = format!(
        "BFS on R-MAT |V|={} |E|={} seed={RMAT_SEED} and Pokec/{PK_SCALE} |V|={} |E|={} seed={PK_SEED}",
        rmat.graph.num_vertices(),
        rmat.graph.num_edges(),
        pk.graph.num_vertices(),
        pk.graph.num_edges(),
    );
    println!("workload: {workload}, {} configs", cases(true).len());

    // Warm-up pass so no timed leg pays first-touch costs.
    let _ = timed_leg(threads, &inputs, true);

    let dense = timed_leg(threads, &inputs, false);
    let event = timed_leg(threads, &inputs, true);

    // The whole point: skipping idle units must not change a single result.
    assert_eq!(dense.records.len(), event.records.len());
    for ((label, dm), (_, em)) in dense.records.iter().zip(&event.records) {
        assert_eq!(dm, em, "event-core metrics diverged for {label}");
    }

    // Per-config single-threaded comparison: where does skipping idle
    // units pay?
    let mut config_lines = Vec::new();
    for ((dense_case, event_case), (label, m)) in
        cases(false).iter().zip(cases(true)).zip(&event.records)
    {
        let prep = &inputs[event_case.graph];
        let busy = config_busy_fraction(prep, &event_case.cfg);
        let dense_cps = config_cycles_per_sec(prep, &dense_case.cfg);
        let event_cps = config_cycles_per_sec(prep, &event_case.cfg);
        println!(
            "  {label:>20}: busy {:5.1}%  dense {dense_cps:>12.0} c/s  event {event_cps:>12.0} c/s  ({:.2}x)",
            busy * 100.0,
            event_cps / dense_cps.max(1e-9),
        );
        config_lines.push(format!(
            "    {{ \"label\": \"{label}\", \"cycles\": {}, \"traversed_edges\": {}, \
             \"busy_fraction\": {busy:.4}, \"dense_cycles_per_sec\": {dense_cps:.0}, \
             \"event_cycles_per_sec\": {event_cps:.0} }}",
            m.cycles, m.traversed_edges
        ));
    }

    let speedup = dense.wall_seconds / event.wall_seconds.max(1e-9);
    println!(
        "dense reference : {:8.1} ms  {:>12.0} cycles/s  ({threads} threads)",
        dense.wall_seconds * 1e3,
        cycles_per_sec(&dense)
    );
    println!(
        "event core      : {:8.1} ms  {:>12.0} cycles/s  ({threads} threads)",
        event.wall_seconds * 1e3,
        cycles_per_sec(&event)
    );
    println!("speedup: {speedup:.2}x over the dense reference (bit-identical results)");

    let json = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \
         \"configs\": [\n{cfgs}\n  ],\n  \
         \"dense\": {{ \"fast_forward\": false, \"threads\": {threads}, \
         \"wall_ms\": {dw:.2}, \"cycles_per_sec\": {dc:.0} }},\n  \
         \"event_core\": {{ \"fast_forward\": true, \"threads\": {threads}, \
         \"wall_ms\": {ew:.2}, \"cycles_per_sec\": {ec:.0} }},\n  \
         \"speedup\": {speedup:.3},\n  \"bit_identical\": true\n}}\n",
        cfgs = config_lines.join(",\n"),
        dw = dense.wall_seconds * 1e3,
        dc = cycles_per_sec(&dense),
        ew = event.wall_seconds * 1e3,
        ec = cycles_per_sec(&event),
    );
    std::fs::write(&out_path, json).expect("could not write report");
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let mut failed = false;
        let old: f64 = read_object(&text, "\"event_core\"")
            .and_then(|obj| read_field(obj, "cycles_per_sec"))
            .unwrap_or_else(|| panic!("no event_core cycles_per_sec in {path}"));
        let new = cycles_per_sec(&event);
        let ratio = new / old;
        println!(
            "regression check [event_core] vs {path}: {old:.0} -> {new:.0} cycles/s ({ratio:.2}x)"
        );
        if ratio < 0.8 {
            eprintln!("error: event-core cycles/sec regressed more than 20% vs {path}");
            failed = true;
        }
        // The model is pinned as well as the speed: a faster simulator
        // that simulates a different machine is a regression too.
        for (label, m) in &event.records {
            let now = (m.cycles, m.traversed_edges);
            match read_config_counts(&text, label) {
                Some(pinned) if pinned == now => {
                    println!("model check [{label}]: {} cycles, {} edges", now.0, now.1);
                }
                pinned => {
                    eprintln!(
                        "error: {label} simulated (cycles, traversed edges) = {now:?}, {path} pins {pinned:?}"
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
