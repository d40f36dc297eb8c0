//! `bench_hotloop` — end-to-end timing of the hot-loop optimisations.
//!
//! Runs a fixed R-MAT workload through an HBM-latency sensitivity sweep
//! three times: sequentially with fast-forward off (the pre-optimisation
//! baseline), on the thread pool with idle-cycle fast-forward, and on the
//! thread pool with the event-driven stepping core. Asserts all three
//! sweeps produce bit-identical metrics, then writes `BENCH_hotloop.json`
//! reporting simulated-cycles/sec, sweep wall-clock, the end-to-end
//! speedups, and — per configuration — the busy-cycle fraction (the share
//! of unit-visits the event core actually executed) plus single-threaded
//! fast-forward vs event-driven cycles/sec. Busy-dominated configurations
//! are exactly where whole-device fast-forward stops helping and per-unit
//! skipping has to carry the win.
//!
//! ```text
//! bench_hotloop [--out <path>] [--check <path>] [--threads <n>]
//!   --out <path>     where to write the JSON        [BENCH_hotloop.json]
//!   --check <path>   compare against a previously written JSON and exit
//!                    nonzero if optimized or event-driven cycles/sec
//!                    regressed >20%, or if any configuration's simulated
//!                    cycles or traversed edges differ from the pinned ones
//!   --threads <n>    worker threads for the parallel sweeps [all cores]
//! ```

use scalagraph::telemetry::Recorder;
use scalagraph::{MemoryPreset, ScalaGraphConfig, Simulator};
use scalagraph_algo::algorithms::Bfs;
use scalagraph_bench::runners::{sweep_scalagraph_with, SweepRecord};
use scalagraph_bench::sweep::default_threads;
use scalagraph_bench::workloads::{PreparedGraph, Workload};
use scalagraph_graph::{generators, Csr, Dataset};
use scalagraph_mem::HbmConfig;
use std::time::Instant;

/// Fixed workload: every run of this binary simulates exactly this graph.
const RMAT_VERTICES: usize = 4096;
const RMAT_EDGES: usize = 16384;
const RMAT_SEED: u64 = 42;

/// The sweep: HBM load-to-use latency sensitivity at 512 PEs with serial
/// phases — the paper-style experiment where idle-cycle fast-forward
/// matters, because deeper memory pipelines mean longer quiescent waits.
const LATENCIES: &[u32] = &[64, 128, 256, 384, 512];

/// Repetitions for the single-threaded per-config timings.
const PER_CONFIG_REPS: u32 = 8;

fn workload() -> PreparedGraph {
    let graph = Csr::from_edges(
        RMAT_VERTICES,
        &generators::rmat(RMAT_VERTICES, RMAT_EDGES, RMAT_SEED),
    );
    let root = Dataset::pick_root(&graph);
    PreparedGraph { graph, root }
}

/// The three execution modes under comparison.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Sequential stepping, no skipping: the pre-optimisation baseline.
    Stepped,
    /// Whole-device idle-cycle fast-forward.
    FastForward,
    /// Per-unit activity calendar: step only units with scheduled work.
    EventDriven,
}

fn configs(mode: Mode) -> Vec<(String, ScalaGraphConfig)> {
    let apply = |cfg: &mut ScalaGraphConfig| {
        cfg.fast_forward = mode != Mode::Stepped;
        cfg.event_driven = mode == Mode::EventDriven;
    };
    let mut out = Vec::new();
    for &lat in LATENCIES {
        let mut cfg = ScalaGraphConfig::with_pes(512);
        cfg.inter_phase_pipelining = false;
        let mut hbm = HbmConfig::u280(cfg.effective_clock_mhz() * 1e6);
        hbm.latency_cycles = lat;
        cfg.memory = MemoryPreset::Custom(hbm);
        apply(&mut cfg);
        out.push((format!("lat{lat}"), cfg));
    }
    // One busy, pipelined configuration so the sweep also covers the case
    // whole-device fast-forward cannot help; the event core still skips
    // individual idle units there.
    let mut cfg = ScalaGraphConfig::with_pes(512);
    apply(&mut cfg);
    out.push(("u280-pipelined".to_string(), cfg));
    out
}

struct SweepTiming {
    wall_seconds: f64,
    total_cycles: u64,
    records: Vec<SweepRecord>,
}

fn timed_sweep(threads: usize, prep: &PreparedGraph, mode: Mode) -> SweepTiming {
    let start = Instant::now();
    let records = sweep_scalagraph_with(threads, prep, Workload::Bfs, configs(mode));
    let wall_seconds = start.elapsed().as_secs_f64();
    let total_cycles = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|m| m.cycles)
        .sum();
    SweepTiming {
        wall_seconds,
        total_cycles,
        records,
    }
}

fn cycles_per_sec(t: &SweepTiming) -> f64 {
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
/// event-driven core executed rather than proved idle, from an untimed
/// recorded run.
fn config_busy_fraction(prep: &PreparedGraph, cfg: &ScalaGraphConfig) -> f64 {
    let algo = Bfs::from_root(prep.root);
    let mut rec = Recorder::new(1000);
    Simulator::try_new(&algo, &prep.graph, cfg.clone())
        .and_then(|mut s| s.try_run_with(&mut rec))
        .expect("bench config must converge");
    rec.event_busy_fraction()
        .expect("event-driven run records busy windows")
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
/// `opener`. (Not `split(opener).nth(1)`: the `event_driven` section holds
/// an `"event_driven"` key of its own, which would end the slice early.)
fn read_object<'a>(text: &'a str, opener: &str) -> Option<&'a str> {
    let start = text.find(opener)? + opener.len();
    text[start..].split('}').next()
}

/// Extracts `"cycles_per_sec"` from the `section` object of a previous
/// report.
fn read_section_cps(text: &str, section: &str) -> Option<f64> {
    read_field(
        read_object(text, &format!("\"{section}\""))?,
        "cycles_per_sec",
    )
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

    let prep = workload();
    println!(
        "workload: BFS on R-MAT |V|={} |E|={} (seed {}), {} configs",
        prep.graph.num_vertices(),
        prep.graph.num_edges(),
        RMAT_SEED,
        configs(Mode::FastForward).len()
    );

    // Warm-up pass so no timed sweep pays first-touch costs.
    let _ = timed_sweep(1, &prep, Mode::EventDriven);

    let baseline = timed_sweep(1, &prep, Mode::Stepped);
    let optimized = timed_sweep(threads, &prep, Mode::FastForward);
    let event = timed_sweep(threads, &prep, Mode::EventDriven);

    // The whole point: the optimisations must not change a single result.
    assert_eq!(baseline.records.len(), optimized.records.len());
    assert_eq!(baseline.records.len(), event.records.len());
    for ((b, o), ev) in baseline
        .records
        .iter()
        .zip(&optimized.records)
        .zip(&event.records)
    {
        assert_eq!(b.label, o.label);
        assert_eq!(b.label, ev.label);
        let bm = b.outcome.as_ref().expect("baseline config failed");
        let om = o.outcome.as_ref().expect("optimized config failed");
        let em = ev.outcome.as_ref().expect("event-driven config failed");
        assert_eq!(bm, om, "fast-forward metrics diverged for {}", b.label);
        assert_eq!(bm, em, "event-driven metrics diverged for {}", b.label);
    }

    // Per-config single-threaded comparison: where does per-unit skipping
    // pay beyond the whole-device jump?
    let mut per_config = Vec::new();
    for ((label, ff_cfg), (_, ev_cfg)) in configs(Mode::FastForward)
        .into_iter()
        .zip(configs(Mode::EventDriven))
    {
        let busy = config_busy_fraction(&prep, &ev_cfg);
        let ff_cps = config_cycles_per_sec(&prep, &ff_cfg);
        let ev_cps = config_cycles_per_sec(&prep, &ev_cfg);
        println!(
            "  {label:>14}: busy {:5.1}%  ff {ff_cps:>12.0} c/s  event {ev_cps:>12.0} c/s  ({:.2}x)",
            busy * 100.0,
            ev_cps / ff_cps.max(1e-9),
        );
        per_config.push((label, busy, ff_cps, ev_cps));
    }

    let speedup = baseline.wall_seconds / optimized.wall_seconds.max(1e-9);
    let event_speedup = optimized.wall_seconds / event.wall_seconds.max(1e-9);
    println!(
        "baseline (seq, stepped)  : {:8.1} ms  {:>12.0} cycles/s",
        baseline.wall_seconds * 1e3,
        cycles_per_sec(&baseline)
    );
    println!(
        "optimized (par, ff)      : {:8.1} ms  {:>12.0} cycles/s  ({threads} threads)",
        optimized.wall_seconds * 1e3,
        cycles_per_sec(&optimized)
    );
    println!(
        "event-driven (par, cal)  : {:8.1} ms  {:>12.0} cycles/s  ({threads} threads)",
        event.wall_seconds * 1e3,
        cycles_per_sec(&event)
    );
    println!("end-to-end sweep speedup: {speedup:.2}x over stepped, {event_speedup:.2}x over fast-forward (bit-identical results)");

    let mut config_lines = Vec::new();
    for (r, (label, busy, ff_cps, ev_cps)) in event.records.iter().zip(&per_config) {
        assert_eq!(&r.label, label);
        let m = r.outcome.as_ref().expect("event-driven config failed");
        config_lines.push(format!(
            "    {{ \"label\": \"{}\", \"cycles\": {}, \"traversed_edges\": {}, \
             \"busy_fraction\": {:.4}, \"ff_cycles_per_sec\": {:.0}, \
             \"event_cycles_per_sec\": {:.0} }}",
            r.label, m.cycles, m.traversed_edges, busy, ff_cps, ev_cps
        ));
    }
    let json = format!(
        "{{\n  \"workload\": \"BFS on R-MAT |V|={v} |E|={e} seed={s}\",\n  \
         \"configs\": [\n{cfgs}\n  ],\n  \
         \"baseline\": {{ \"fast_forward\": false, \"threads\": 1, \
         \"wall_ms\": {bw:.2}, \"cycles_per_sec\": {bc:.0} }},\n  \
         \"optimized\": {{ \"fast_forward\": true, \"threads\": {t}, \
         \"wall_ms\": {ow:.2}, \"cycles_per_sec\": {oc:.0} }},\n  \
         \"event_driven\": {{ \"event_driven\": true, \"threads\": {t}, \
         \"wall_ms\": {ew:.2}, \"cycles_per_sec\": {ec:.0} }},\n  \
         \"speedup\": {sp:.3},\n  \"event_speedup\": {esp:.3},\n  \
         \"bit_identical\": true\n}}\n",
        v = RMAT_VERTICES,
        e = RMAT_EDGES,
        s = RMAT_SEED,
        cfgs = config_lines.join(",\n"),
        bw = baseline.wall_seconds * 1e3,
        bc = cycles_per_sec(&baseline),
        t = threads,
        ow = optimized.wall_seconds * 1e3,
        oc = cycles_per_sec(&optimized),
        ew = event.wall_seconds * 1e3,
        ec = cycles_per_sec(&event),
        sp = speedup,
        esp = event_speedup,
    );
    std::fs::write(&out_path, json).expect("could not write report");
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let mut failed = false;
        let checks = [
            (
                "optimized",
                read_section_cps(&text, "optimized"),
                cycles_per_sec(&optimized),
            ),
            (
                "event_driven",
                read_section_cps(&text, "event_driven"),
                cycles_per_sec(&event),
            ),
        ];
        for (section, old, new) in checks {
            let old = old.unwrap_or_else(|| panic!("no {section} cycles_per_sec in {path}"));
            let ratio = new / old;
            println!(
                "regression check [{section}] vs {path}: {old:.0} -> {new:.0} cycles/s ({ratio:.2}x)"
            );
            if ratio < 0.8 {
                eprintln!("error: {section} cycles/sec regressed more than 20% vs {path}");
                failed = true;
            }
        }
        // The model is pinned as well as the speed: a faster simulator
        // that simulates a different machine is a regression too.
        for r in &event.records {
            let m = r.outcome.as_ref().expect("event-driven config failed");
            let now = (m.cycles, m.traversed_edges);
            match read_config_counts(&text, &r.label) {
                Some(pinned) if pinned == now => {
                    println!(
                        "model check [{}]: {} cycles, {} edges",
                        r.label, now.0, now.1
                    );
                }
                pinned => {
                    eprintln!(
                        "error: {} simulated (cycles, traversed edges) = {now:?}, {path} pins {pinned:?}",
                        r.label
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
