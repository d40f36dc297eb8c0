//! `scalagraph-sim` — command-line driver for the ScalaGraph simulator.
//!
//! Runs one of the paper's algorithms on a dataset stand-in, a SNAP-format
//! edge-list file, or a packed CSR container, on a configurable
//! accelerator, and prints the performance counters.
//!
//! ```text
//! scalagraph-sim fuzz [--budget <n>] [--seed <n>] [--out <dir>]
//!   differential fuzz campaign over random conformance scenarios;
//!   deterministic per (budget, seed). Minimized repros are written to
//!   --out as corpus-ready JSON. Exits non-zero if any scenario diverges.
//!
//! scalagraph-sim replay [--packed] <scenario.json> [...]
//!   replay checked-in conformance scenarios through the differential
//!   oracle and print each report. Exits non-zero on any mismatch.
//!   --packed  additionally round-trip each scenario's graph through the
//!             packed on-disk container and assert the replayed report is
//!             bit-identical to the in-memory run.
//!
//! scalagraph-sim graph pack --graph <PK|LJ|OR|RM|TW|FL> --out <path>
//!                           [--scale <n>] [--seed <n>] [--weighted]
//!                           [--block-size <n>]
//!   generate a dataset stand-in (in parallel) and write it as a packed
//!   delta+varint CSR container; prints the raw/packed sizes and ratio.
//!
//! scalagraph-sim graph info <path>
//!   decode a packed CSR container and print its header.
//!
//! scalagraph-sim batch [options] <scenario.json | dir> [...]
//!   run conformance scenarios on the runtime's worker pool (directories
//!   expand to their *.json files, sorted). Prints one outcome record per
//!   job plus the runtime ledger. A job is run as asked or refused with a
//!   typed outcome, never retried or shrunk. Exits 0 when the ledger
//!   balances, 1 on an unbalanced ledger or --strict violation, 2 on
//!   usage errors.
//!   --workers <n>             worker threads                    [4]
//!   --queue-cap <n>           admission queue capacity          [256]
//!   --deadline-ms <ms>        per-job wall-clock deadline       [none]
//!   --global-deadline-ms <ms> whole-batch wall-clock ceiling    [none]
//!   --max-cycles <n>          per-job simulated-cycle budget    [none]
//!   --graph-cache-bytes <n>   graph-cache byte budget, 0=none; a job
//!                             whose estimated graph exceeds it fails
//!                             over budget, unbuilt     [2147483648]
//!   --inject-panic <name>     panic the worker on this scenario (test hook)
//!   --strict                  exit 1 unless every job completed
//!
//! scalagraph-sim [options]
//!   --algo <bfs|sssp|cc|pagerank>   algorithm            [bfs]
//!   --graph <PK|LJ|OR|RM|TW|FL>     dataset stand-in     [PK]
//!   --file <path>                   edge-list file instead of a stand-in
//!   --csr <path>                    packed CSR container (`graph pack`)
//!                                   instead of a stand-in
//!   --scale <divisor>               stand-in down-scale  [2048]
//!   --pes <n>                       PE count (multiple of 32) [512]
//!   --mapping <som|dom|rom>         workload mapping     [rom]
//!   --agg <n>                       aggregation registers [16]
//!   --sched <n>                     degree-aware width 1..=16 [16]
//!   --no-pipeline                   disable inter-phase pipelining
//!   --iters <n>                     PageRank iterations  [5]
//!   --seed <n>                      generator seed       [42]
//!   --watchdog <cycles>             stall watchdog threshold, 0 disables [25000]
//!   --threads <n>                   worker threads for parallel sweeps
//!                                   (sets SCALAGRAPH_THREADS) [all cores]
//!   --no-fast-forward               dense reference: step every unit on
//!                                   every cycle (results are identical)
//!   --baseline                      also run the GraphDynS-128 baseline
//!   --metrics-window <cycles>       telemetry sampling window [1000]
//!   --trace-out <path>              write a Chrome trace-event JSON
//!                                   (open in ui.perfetto.dev or chrome://tracing)
//!   --metrics-csv <path>            write per-window time-series CSV
//!   --heatmap-out <path>            write mesh-link utilization heatmap JSON
//! ```
//!
//! Passing any of the four telemetry flags attaches a recorder to the run
//! (results are bit-identical either way) and prints a telemetry summary
//! after the counters. Invalid configurations and wedged runs exit with a
//! structured error (and, for stalls, the watchdog's diagnostic snapshot)
//! instead of a panic backtrace; requested trace files are still written
//! so the timeline of a wedged run can be inspected.

use scalagraph_suite::algo::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use scalagraph_suite::algo::Algorithm;
use scalagraph_suite::baselines::{GraphDyns, GraphDynsConfig};
use scalagraph_suite::conformance::{self, GraphSource, Scenario};
use scalagraph_suite::graph::{io, packed, Csr, Dataset, EdgeList, PackedCsr};
use scalagraph_suite::runtime::{
    BatchRuntime, GraphCache, JobSpec, JobStatus, RuntimeConfig, DEFAULT_GRAPH_CACHE_BYTES,
};
use scalagraph_suite::scalagraph::{Mapping, ScalaGraphConfig, SimResult, Simulator};
use scalagraph_suite::telemetry::Recorder;
use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;

/// Flags that take no value.
const SWITCHES: &[&str] = &["no-pipeline", "baseline", "no-fast-forward"];
/// Flags that take a value.
const OPTIONS: &[&str] = &[
    "algo",
    "graph",
    "file",
    "csr",
    "scale",
    "pes",
    "mapping",
    "agg",
    "sched",
    "iters",
    "seed",
    "watchdog",
    "threads",
    "metrics-window",
    "trace-out",
    "metrics-csv",
    "heatmap-out",
];

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!(
        "{}",
        include_str!("scalagraph-sim.rs")
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with("//!"))
            .map(|l| l.trim_start_matches("//! ").trim_start_matches("//!"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    exit(2)
}

fn parse_args() -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let key = match a.strip_prefix("--") {
            Some(k) => k.to_string(),
            None => usage_and_exit(&format!("unexpected argument `{a}`")),
        };
        if SWITCHES.contains(&key.as_str()) {
            map.insert(key, "true".into());
        } else if OPTIONS.contains(&key.as_str()) {
            let v = args
                .next()
                .unwrap_or_else(|| usage_and_exit(&format!("--{key} needs a value")));
            map.insert(key, v);
        } else {
            usage_and_exit(&format!("unknown flag `--{key}`"));
        }
    }
    map
}

/// The value of `--flag`, or `default` when absent; a value that does not
/// parse is a usage error, never a silent fallback to the default.
fn number<T: std::str::FromStr>(args: &HashMap<String, String>, flag: &str, default: T) -> T {
    args.get(flag).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| usage_and_exit(&format!("--{flag} needs a number, got `{v}`")))
    })
}

fn load_graph(args: &HashMap<String, String>, weighted: bool, symmetric: bool) -> Csr {
    let seed: u64 = number(args, "seed", 42);
    let scale: u64 = number(args, "scale", 2048);
    let mut list: EdgeList = if let Some(path) = args.get("csr") {
        let g = PackedCsr::open(path)
            .and_then(|p| p.to_csr())
            .unwrap_or_else(|e| usage_and_exit(&format!("{e}")));
        if !weighted && !symmetric {
            return g;
        }
        let mut l = EdgeList::new(g.num_vertices());
        for e in g.edges() {
            l.push(e);
        }
        l
    } else if let Some(path) = args.get("file") {
        io::read_edge_list(path, None).unwrap_or_else(|e| usage_and_exit(&format!("{e}")))
    } else {
        let name = args.get("graph").map(String::as_str).unwrap_or("PK");
        let dataset = Dataset::ALL
            .iter()
            .find(|d| d.spec().abbrev.eq_ignore_ascii_case(name))
            .copied()
            .unwrap_or_else(|| usage_and_exit(&format!("unknown dataset `{name}`")));
        dataset
            .try_edge_list(scale, seed)
            .unwrap_or_else(|e| usage_and_exit(&format!("--scale {scale}: {e}")))
    };
    if symmetric {
        list.symmetrize();
    }
    if weighted {
        list.randomize_weights(255, seed.wrapping_add(1));
    }
    Csr::from_edge_list(&list)
}

fn build_config(args: &HashMap<String, String>) -> ScalaGraphConfig {
    let pes: usize = number(args, "pes", 512);
    if pes == 0 || !pes.is_multiple_of(32) {
        usage_and_exit(&format!(
            "--pes must be a positive multiple of 32, got {pes}"
        ));
    }
    let mut cfg = ScalaGraphConfig::with_pes(pes);
    if let Some(m) = args.get("mapping") {
        cfg.mapping = match m.to_ascii_lowercase().as_str() {
            "som" => Mapping::SourceOriented,
            "dom" => Mapping::DestinationOriented,
            "rom" => Mapping::RowOriented,
            other => usage_and_exit(&format!("unknown mapping `{other}`")),
        };
    }
    cfg.aggregation_registers = number(args, "agg", cfg.aggregation_registers);
    cfg.max_scheduled_vertices = number(args, "sched", cfg.max_scheduled_vertices);
    if args.contains_key("no-pipeline") {
        cfg.inter_phase_pipelining = false;
    }
    cfg.watchdog_stall_cycles = number(args, "watchdog", cfg.watchdog_stall_cycles);
    // Results are bit-identical either way, so --no-fast-forward exists for
    // A/B timing, not correctness.
    cfg.fast_forward = !args.contains_key("no-fast-forward");
    cfg
}

fn report<P>(label: &str, result: &SimResult<P>, clock_mhz: f64) {
    let s = result.stats;
    println!("\n[{label}] @ {clock_mhz:.0} MHz");
    println!("  iterations        : {}", s.iterations);
    println!("  cycles            : {}", s.cycles);
    println!("  time              : {:.3} ms", s.seconds(clock_mhz) * 1e3);
    println!("  traversed edges   : {}", s.traversed_edges);
    println!("  throughput        : {:.3} GTEPS", s.gteps(clock_mhz));
    println!("  PE utilization    : {:.1}%", s.pe_utilization() * 100.0);
    println!("  NoC hops          : {}", s.noc_hops);
    println!(
        "  routing latency   : {:.1} cycles",
        s.avg_routing_latency()
    );
    println!("  aggregation merges: {}", s.agg_merges);
    println!(
        "  off-chip traffic  : {:.2} MB",
        s.offchip_bytes() as f64 / 1e6
    );
    println!("  slices            : {}", s.slices);
    println!("  pipelining engaged: {}", s.inter_phase_used);
}

/// Telemetry options distilled from the command line; `None` when no
/// telemetry flag was passed (the run then uses the zero-cost null
/// collector).
struct TelemetryOpts {
    window: u64,
    trace_out: Option<String>,
    csv_out: Option<String>,
    heatmap_out: Option<String>,
}

fn telemetry_opts(args: &HashMap<String, String>) -> Option<TelemetryOpts> {
    let wanted = ["metrics-window", "trace-out", "metrics-csv", "heatmap-out"]
        .iter()
        .any(|k| args.contains_key(*k));
    if !wanted {
        return None;
    }
    let window = number(args, "metrics-window", 1000);
    if window == 0 {
        usage_and_exit("--metrics-window must be at least 1 cycle");
    }
    Some(TelemetryOpts {
        window,
        trace_out: args.get("trace-out").cloned(),
        csv_out: args.get("metrics-csv").cloned(),
        heatmap_out: args.get("heatmap-out").cloned(),
    })
}

/// Writes the requested export files. Called on success and on failure
/// alike — a timeline of a wedged run is exactly when you want the trace.
fn write_exports(opts: &TelemetryOpts, rec: &Recorder) {
    fn emit(what: &str, path: &Option<String>, write: impl Fn(&str) -> std::io::Result<()>) {
        if let Some(path) = path {
            match write(path) {
                Ok(()) => println!("  wrote {what} to {path}"),
                Err(e) => eprintln!("warning: could not write {what} to {path}: {e}"),
            }
        }
    }
    emit("chrome trace", &opts.trace_out, |p| {
        rec.export_chrome_trace(p)
    });
    emit("window CSV", &opts.csv_out, |p| rec.export_windows_csv(p));
    emit("link heatmap", &opts.heatmap_out, |p| {
        rec.export_link_heatmap(p)
    });
}

fn run_all<A: Algorithm>(
    algo: &A,
    graph: &Csr,
    cfg: ScalaGraphConfig,
    args: &HashMap<String, String>,
) {
    let clock = cfg.effective_clock_mhz();
    let pes = cfg.placement.num_pes();
    let tel = telemetry_opts(args);
    let mut recorder = tel.as_ref().map(|t| Recorder::new(t.window));
    let outcome =
        Simulator::try_new(algo, graph, cfg).and_then(|mut sim| match recorder.as_mut() {
            Some(rec) => sim.try_run_with(rec),
            None => sim.try_run(),
        });
    if let (Some(t), Some(rec)) = (&tel, &recorder) {
        write_exports(t, rec);
    }
    let result = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        if let Some(snapshot) = e.snapshot() {
            eprintln!("\n{snapshot}");
        }
        exit(1)
    });
    report(&format!("ScalaGraph-{pes} {}", algo.name()), &result, clock);
    if let Some(rec) = &recorder {
        println!("\n{}", rec.summary());
    }
    if args.contains_key("baseline") {
        let gd_cfg = GraphDynsConfig::graphdyns_128();
        let gd_clock = gd_cfg.effective_clock_mhz();
        let gd = GraphDyns::new(gd_cfg).run(algo, graph);
        report(&format!("GraphDynS-128 {}", algo.name()), &gd, gd_clock);
    }
}

/// `scalagraph-sim fuzz`: a deterministic differential fuzz campaign.
fn cmd_fuzz(rest: &[String]) -> ! {
    let mut budget = 100usize;
    let mut seed = 42u64;
    let mut out_dir: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_and_exit(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--budget" => {
                budget = value("--budget")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--budget needs a non-negative integer"))
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--seed needs an integer"))
            }
            "--out" => out_dir = Some(value("--out")),
            other => usage_and_exit(&format!("unknown fuzz flag `{other}`")),
        }
    }
    let report = conformance::fuzz(budget, seed);
    print!("{}", report.render());
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: could not create {dir}: {e}");
            exit(2);
        }
        for f in &report.failures {
            let path = format!("{dir}/{}.json", f.minimized.name);
            match std::fs::write(&path, f.minimized.to_json_string()) {
                Ok(()) => println!("wrote minimized repro to {path}"),
                Err(e) => eprintln!("warning: could not write {path}: {e}"),
            }
        }
    }
    exit(if report.failures.is_empty() && report.rejected == 0 {
        0
    } else {
        1
    })
}

/// `scalagraph-sim replay`: replay conformance scenarios from JSON files.
fn cmd_replay(rest: &[String]) -> ! {
    let mut packed_check = false;
    let mut paths: Vec<&String> = Vec::new();
    for a in rest {
        match a.as_str() {
            "--packed" => packed_check = true,
            other if other.starts_with("--") => {
                usage_and_exit(&format!("unknown replay flag `{other}`"))
            }
            _ => paths.push(a),
        }
    }
    if paths.is_empty() {
        usage_and_exit("replay needs at least one scenario file");
    }
    let mut failed = false;
    for path in paths {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: could not read {path}: {e}");
            exit(2)
        });
        let scenario = Scenario::from_json_str(&text).unwrap_or_else(|e| {
            eprintln!("error: {path} is not a valid scenario: {e}");
            exit(2)
        });
        if let Some(m) = scenario.mutations {
            println!(
                "dynamic: {} mutation batch(es) (+{}e -{}e +{}v iso {}v per batch, seed {}); \
                 every batch checked incremental vs full recompute",
                m.batches,
                m.insert_edges,
                m.remove_edges,
                m.add_vertices,
                m.isolate_vertices,
                m.seed
            );
        }
        match conformance::run_scenario(&scenario) {
            Ok(report) => {
                print!("{}", report.render());
                failed |= !report.passed();
                if packed_check {
                    match replay_on_packed_backing(&scenario, &report.render()) {
                        Ok(()) => println!("packed backing: bit-identical report"),
                        Err(e) => {
                            eprintln!("error: packed replay of `{}`: {e}", scenario.name);
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("error: scenario `{}` is malformed: {e}", scenario.name);
                failed = true;
            }
        }
    }
    exit(if failed { 1 } else { 0 })
}

/// Re-runs `scenario` with its graph packed to a temporary on-disk
/// container and read back through `PackedCsr::read_csr`, asserting the
/// replayed report is byte-identical to `baseline`.
fn replay_on_packed_backing(scenario: &Scenario, baseline: &str) -> Result<(), String> {
    let graph = scenario.graph.build()?;
    let tmp = std::env::temp_dir().join(format!(
        "scalagraph-replay-{}-{}.sgpk",
        std::process::id(),
        scenario.name
    ));
    packed::write_packed(&graph, &tmp, packed::DEFAULT_BLOCK_SIZE).map_err(|e| e.to_string())?;
    let mut on_packed = scenario.clone();
    on_packed.graph.source = GraphSource::PackedFile {
        path: tmp.to_string_lossy().into_owned(),
    };
    let outcome = conformance::run_scenario(&on_packed);
    let _ = std::fs::remove_file(&tmp);
    let report = outcome.map_err(|e| e.to_string())?;
    if report.render() != baseline {
        return Err("report diverged from the in-memory backing".into());
    }
    Ok(())
}

/// `scalagraph-sim graph`: pack datasets into the on-disk container and
/// inspect existing containers.
fn cmd_graph(rest: &[String]) -> ! {
    match rest.first().map(String::as_str) {
        Some("pack") => cmd_graph_pack(&rest[1..]),
        Some("info") => cmd_graph_info(&rest[1..]),
        _ => usage_and_exit("graph needs a verb: pack | info"),
    }
}

fn cmd_graph_pack(rest: &[String]) -> ! {
    let mut name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut scale = 2048u64;
    let mut seed = 42u64;
    let mut weighted = false;
    let mut block_size = packed::DEFAULT_BLOCK_SIZE;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_and_exit(&format!("{flag} needs a value")))
        };
        let parse_u64 = |flag: &str, v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage_and_exit(&format!("{flag} needs a non-negative integer")))
        };
        match a.as_str() {
            "--graph" => name = Some(value("--graph")),
            "--out" => out = Some(value("--out")),
            "--scale" => scale = parse_u64("--scale", value("--scale")),
            "--seed" => seed = parse_u64("--seed", value("--seed")),
            "--weighted" => weighted = true,
            "--block-size" => {
                block_size = parse_u64("--block-size", value("--block-size")).max(1) as u32
            }
            other => usage_and_exit(&format!("unknown graph pack flag `{other}`")),
        }
    }
    let name = name.unwrap_or_else(|| usage_and_exit("graph pack needs --graph <abbrev>"));
    let out = out.unwrap_or_else(|| usage_and_exit("graph pack needs --out <path>"));
    let dataset = Dataset::ALL
        .iter()
        .find(|d| d.spec().abbrev.eq_ignore_ascii_case(&name))
        .copied()
        .unwrap_or_else(|| usage_and_exit(&format!("unknown dataset `{name}`")));
    let graph = if weighted {
        dataset.try_generate_weighted(scale, seed)
    } else {
        dataset.try_generate(scale, seed)
    }
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    let raw = graph.storage_bytes();
    let written = packed::write_packed(&graph, &out, block_size).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    println!(
        "packed {dataset} scale {scale} seed {seed}: |V|={} |E|={}{}",
        graph.num_vertices(),
        graph.num_edges(),
        if weighted { " (weighted)" } else { "" }
    );
    println!(
        "  raw CSR {raw} B -> packed {written} B ({:.1}% , {:.2} B/edge) -> {out}",
        written as f64 / raw as f64 * 100.0,
        written as f64 / graph.num_edges().max(1) as f64
    );
    exit(0)
}

fn cmd_graph_info(rest: &[String]) -> ! {
    let [path] = rest else {
        usage_and_exit("graph info needs exactly one container path");
    };
    let g = PackedCsr::open(path).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    if let Err(e) = g.to_csr() {
        eprintln!("error: {e}");
        exit(1)
    }
    println!("packed CSR container {path}");
    println!("  vertices     : {}", g.num_vertices());
    println!("  edges        : {}", g.num_edges());
    println!("  weighted     : {}", g.is_weighted());
    println!("  block size   : {}", g.block_size());
    println!("  blocks       : {}", g.num_blocks());
    println!("  container    : {} B", g.container_bytes());
    println!(
        "  bytes/edge   : {:.2}",
        g.container_bytes() as f64 / g.num_edges().max(1) as f64
    );
    exit(0)
}

/// `scalagraph-sim batch`: run scenarios on the runtime's worker pool.
fn cmd_batch(rest: &[String]) -> ! {
    let mut config = RuntimeConfig::default();
    let mut strict = false;
    let mut graph_cache_bytes = DEFAULT_GRAPH_CACHE_BYTES;
    let mut inject_panic: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_and_exit(&format!("{flag} needs a value")))
        };
        let parse_u64 = |flag: &str, v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage_and_exit(&format!("{flag} needs a non-negative integer")))
        };
        match a.as_str() {
            "--workers" => {
                config.workers = parse_u64("--workers", value("--workers")).max(1) as usize
            }
            "--queue-cap" => {
                config.queue_capacity =
                    parse_u64("--queue-cap", value("--queue-cap")).max(1) as usize
            }
            "--deadline-ms" => {
                config.default_deadline = Some(std::time::Duration::from_millis(parse_u64(
                    "--deadline-ms",
                    value("--deadline-ms"),
                )))
            }
            "--global-deadline-ms" => {
                config.global_deadline = Some(std::time::Duration::from_millis(parse_u64(
                    "--global-deadline-ms",
                    value("--global-deadline-ms"),
                )))
            }
            "--max-cycles" => {
                config.max_cycles = Some(parse_u64("--max-cycles", value("--max-cycles")))
            }
            "--graph-cache-bytes" => {
                graph_cache_bytes = parse_u64("--graph-cache-bytes", value("--graph-cache-bytes"))
            }
            "--inject-panic" => inject_panic = Some(value("--inject-panic")),
            "--strict" => strict = true,
            other if other.starts_with("--") => {
                usage_and_exit(&format!("unknown batch flag `{other}`"))
            }
            path => inputs.push(path.to_string()),
        }
    }
    if inputs.is_empty() {
        usage_and_exit("batch needs at least one scenario file or directory");
    }

    // Expand directories to their sorted *.json files.
    let mut paths: Vec<String> = Vec::new();
    for input in &inputs {
        if std::fs::metadata(input)
            .map(|m| m.is_dir())
            .unwrap_or(false)
        {
            let mut found: Vec<String> = std::fs::read_dir(input)
                .map(|entries| {
                    entries
                        .filter_map(Result::ok)
                        .map(|e| e.path().to_string_lossy().into_owned())
                        .filter(|p| p.ends_with(".json"))
                        .collect()
                })
                .unwrap_or_else(|e| {
                    eprintln!("error: could not read directory {input}: {e}");
                    exit(2)
                });
            found.sort();
            if found.is_empty() {
                eprintln!("error: directory {input} contains no .json scenarios");
                exit(2);
            }
            paths.extend(found);
        } else {
            paths.push(input.clone());
        }
    }

    let specs: Vec<JobSpec> = paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: could not read {path}: {e}");
                exit(2)
            });
            let scenario = Scenario::from_json_str(&text).unwrap_or_else(|e| {
                eprintln!("error: {path} is not a valid scenario: {e}");
                exit(2)
            });
            let mut spec = JobSpec::new(scenario);
            if inject_panic.as_deref() == Some(spec.scenario.name.as_str()) {
                spec.inject_panic = true;
            }
            spec
        })
        .collect();

    println!(
        "batch: {} jobs, {} workers, queue capacity {}",
        specs.len(),
        config.workers,
        config.queue_capacity
    );
    let runtime = BatchRuntime::with_graph_cache(
        config,
        Arc::new(GraphCache::with_byte_budget(64, graph_cache_bytes)),
    );
    let report = runtime.run(specs);
    for outcome in &report.outcomes {
        println!("{outcome}");
    }
    println!("\n{}", report.render());
    let cache = runtime.graph_cache().stats();
    println!(
        "graph cache: {} builds, {} hits / {} fetches, {} evictions, ~{} KiB resident",
        cache.builds,
        cache.hits,
        cache.hits + cache.misses,
        cache.evictions,
        cache.resident_bytes / 1024
    );

    let balanced = report.balanced();
    let leak_free = report.workers_joined == report.workers_spawned;
    if !balanced {
        eprintln!("error: ledger is unbalanced");
    }
    if !leak_free {
        eprintln!("error: worker threads leaked");
    }
    let strict_ok = !strict
        || report
            .outcomes
            .iter()
            .all(|o| matches!(o.status, JobStatus::Completed { .. }));
    if strict && !strict_ok {
        eprintln!("error: --strict set and not every job completed");
    }
    exit(if balanced && leak_free && strict_ok {
        0
    } else {
        1
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(&raw[1..]),
        Some("replay") => cmd_replay(&raw[1..]),
        Some("batch") => cmd_batch(&raw[1..]),
        Some("graph") => cmd_graph(&raw[1..]),
        _ => {}
    }
    let args = parse_args();
    if let Some(t) = args.get("threads") {
        match t.parse::<usize>() {
            Ok(n) if n > 0 => std::env::set_var("SCALAGRAPH_THREADS", n.to_string()),
            _ => usage_and_exit(&format!("--threads needs a positive integer, got `{t}`")),
        }
    }
    let algo_name = args.get("algo").map(String::as_str).unwrap_or("bfs");
    let iters: usize = number(&args, "iters", 5);
    // Every flag is read, and the configuration checked, before any graph
    // is generated or loaded.
    let cfg = build_config(&args);
    if let Err(e) = cfg.validate() {
        eprintln!("error: {e}");
        exit(1)
    }

    match algo_name.to_ascii_lowercase().as_str() {
        "bfs" => {
            let graph = load_graph(&args, false, false);
            let root = Dataset::pick_root(&graph);
            println!(
                "BFS from hub {root} on |V|={} |E|={}",
                graph.num_vertices(),
                graph.num_edges()
            );
            run_all(&Bfs::from_root(root), &graph, cfg, &args);
        }
        "sssp" => {
            let graph = load_graph(&args, true, false);
            let root = Dataset::pick_root(&graph);
            println!(
                "SSSP from hub {root} on |V|={} |E|={}",
                graph.num_vertices(),
                graph.num_edges()
            );
            run_all(&Sssp::from_root(root), &graph, cfg, &args);
        }
        "cc" => {
            let graph = load_graph(&args, false, true);
            println!(
                "CC on symmetrized |V|={} |E|={}",
                graph.num_vertices(),
                graph.num_edges()
            );
            run_all(&ConnectedComponents::new(), &graph, cfg, &args);
        }
        "pagerank" | "pr" => {
            let graph = load_graph(&args, false, false);
            println!(
                "PageRank({iters}) on |V|={} |E|={}",
                graph.num_vertices(),
                graph.num_edges()
            );
            run_all(&PageRank::new(iters), &graph, cfg, &args);
        }
        other => usage_and_exit(&format!("unknown algorithm `{other}`")),
    }
}
