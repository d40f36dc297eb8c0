//! `bench_datasets` — paper-scale dataset generation, packing, and
//! zero-copy loading.
//!
//! Exercises the full dataset pipeline this repo uses to stand in for the
//! paper's Table III graphs, at real sizes:
//!
//! 1. **Generation**: serial reference vs chunk-parallel generator for a
//!    ladder of presets up to the full LiveJournal stand-in (68.9M edges),
//!    asserting nothing — the unit suites prove bit-identity — but timing
//!    both paths in the same process so the speedup ratio is fair on a
//!    noisy host.
//! 2. **Packing**: delta+varint container size vs the resident CSR, per
//!    preset (the <60% acceptance line lives here).
//! 3. **Cold-open**: `PackedCsr::read_csr` of the largest preset (header,
//!    checksum and index checks, then the checked decode into a `Csr`: the
//!    call every cache miss on a packed-file scenario makes) against
//!    regenerating the same graph from its spec (serial generation + CSR
//!    build), measured in one run.
//!
//! All regression gates on timings are *ratios* (gen speedup, pack ratio,
//! cold-open speedup), so a slower or faster host does not trip them. The
//! gen speedup also depends on how many threads the parallel legs use
//! ([`default_threads`], set by `SCALAGRAPH_THREADS`), so the report
//! records that count and a run on another count fails by name.
//!
//! ```text
//! bench_datasets [--out <path>] [--check <path>]
//!   --out <path>     where to write the JSON        [BENCH_datasets.json]
//!   --check <path>   gate against a previous report: exit 1 if the thread
//!                    count differs from the report's, the worst pack
//!                    ratio exceeds 1.10x the report's, or the
//!                    gen/cold-open speedups fall below half of its values
//! ```

use scalagraph_bench::{Checker, Gate, Rule};
use scalagraph_graph::{default_threads, packed, Csr, Dataset, PackedCsr, PackedShape};
use std::time::Instant;

const SEED: u64 = 42;

/// Generation/packing ladder: `(dataset, scale)` where the preset is the
/// paper graph at `1/scale`. The *largest* entry (by edges) doubles as the
/// cold-open subject and runs FIRST, on a fresh heap: multi-hundred-MB
/// alloc/free churn from earlier presets costs the later ones their huge
/// pages, and at LiveJournal scale the sampler's 65 MB working set then
/// pays a TLB walk per access — a 1.4x slowdown that has nothing to do
/// with the code under test. Full LiveJournal is the deliberate top:
/// among the paper's six datasets it sits in the middle (Pokec and
/// Flickr below it, Orkut/RMAT24/Twitter above), so it is the honest
/// "mid-scale" graph that still regenerates slowly enough for the
/// cold-open comparison to mean something.
const PRESETS: &[(Dataset, u64)] = &[
    (Dataset::LiveJournal, 1),
    (Dataset::Pokec, 1),
    (Dataset::Rmat24, 64),
    (Dataset::Pokec, 8),
];

struct PresetResult {
    label: String,
    vertices: usize,
    edges: usize,
    serial_gen_s: f64,
    parallel_gen_s: f64,
    gen_speedup: f64,
    raw_csr_bytes: u64,
    packed_bytes: u64,
    pack_ratio: f64,
    bytes_per_edge: f64,
    /// Serial generation + CSR build: what a cache miss on this spec costs
    /// without a packed file.
    regen_s: f64,
}

fn label_of(dataset: Dataset, scale: u64) -> String {
    format!("{dataset}/{scale}")
}

/// Generation timing reps per preset (aligned with [`PRESETS`]). The host
/// this runs on can drift >2x in effective speed on minute timescales,
/// which is the length of one large-preset generation leg — a single
/// parallel/serial pair can land in different regimes and report a
/// nonsense ratio in either direction. Alternating the legs and taking
/// the min of each side makes both numbers converge to the fast-regime
/// cost, so their ratio measures the code, not the weather. The parallel
/// sampler is the more contention-sensitive side (its win is overlapped
/// cache misses, which a saturated memory bus re-serializes), so the
/// largest preset gets an extra rep to find a quiet window.
const GEN_REPS: &[u32] = &[3, 2, 2, 2];

/// Times one preset through generation (alternating parallel/serial legs,
/// min of each — see [`GEN_REPS`]; each list is dropped before the next
/// leg so no leg pays another's resident footprint) and packing.
fn run_preset(dataset: Dataset, scale: u64, reps: u32) -> PresetResult {
    let label = label_of(dataset, scale);

    let mut parallel_gen_s = f64::MAX;
    let mut serial_gen_s = f64::MAX;
    let mut vertices = 0;
    let mut edges = 0;
    let mut kept = None;
    for _ in 0..reps {
        let start = Instant::now();
        let parallel = dataset.edge_list(scale, SEED);
        parallel_gen_s = parallel_gen_s.min(start.elapsed().as_secs_f64());
        (vertices, edges) = (parallel.num_vertices(), parallel.len());
        drop(parallel);

        let start = Instant::now();
        let serial = dataset.edge_list_serial(scale, SEED);
        serial_gen_s = serial_gen_s.min(start.elapsed().as_secs_f64());
        kept = Some(serial);
    }
    let serial = kept.expect("every preset has at least one rep");

    let start = Instant::now();
    let graph = Csr::from_edge_list(&serial);
    let build_s = start.elapsed().as_secs_f64();
    drop(serial);

    let raw_csr_bytes = graph.storage_bytes();
    let container = packed::pack_to_vec(&graph, packed::DEFAULT_BLOCK_SIZE);
    let packed_bytes = container.len() as u64;

    let result = PresetResult {
        label,
        vertices,
        edges,
        serial_gen_s,
        parallel_gen_s,
        gen_speedup: serial_gen_s / parallel_gen_s.max(1e-9),
        raw_csr_bytes,
        packed_bytes,
        pack_ratio: packed_bytes as f64 / raw_csr_bytes as f64,
        bytes_per_edge: packed_bytes as f64 / edges.max(1) as f64,
        regen_s: serial_gen_s + build_s,
    };
    println!(
        "  {:>6}: |V|={:>9} |E|={:>9}  gen serial {:7.2}s / parallel {:7.2}s ({:.2}x)  \
         pack {:5.1}% of CSR ({:.2} B/edge)",
        result.label,
        vertices,
        edges,
        serial_gen_s,
        parallel_gen_s,
        result.gen_speedup,
        result.pack_ratio * 100.0,
        result.bytes_per_edge,
    );
    result
}

struct ColdOpen {
    read_csr_ms: f64,
    speedup: f64,
}

/// Cold-open of the largest preset: write the container, then time
/// `PackedCsr::read_csr` (min of three, after one warm-up so the page
/// cache — not the disk — is the backing, which is the steady state a cache
/// daemon sees) against the in-run regeneration cost of the same spec.
fn run_cold_open(dataset: Dataset, scale: u64, regen_s: f64) -> ColdOpen {
    let graph = dataset.generate(scale, SEED);
    let shape = PackedShape {
        num_vertices: graph.num_vertices(),
        weighted: graph.is_weighted(),
    };
    let edges = graph.num_edges();
    let path = std::env::temp_dir().join(format!("scalagraph-bench-{}.sgpk", std::process::id()));
    packed::write_packed(&graph, &path, packed::DEFAULT_BLOCK_SIZE).expect("write container");
    drop(graph);

    let timed_read = || {
        let start = Instant::now();
        let csr = PackedCsr::read_csr(&path, shape).expect("container decodes");
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(csr.num_edges(), edges);
        secs
    };
    let _ = timed_read(); // warm the page cache
    let read_s = (0..3).map(|_| timed_read()).fold(f64::MAX, f64::min);
    std::fs::remove_file(&path).expect("remove temp container");

    let cold = ColdOpen {
        read_csr_ms: read_s * 1e3,
        speedup: regen_s / read_s.max(1e-9),
    };
    println!(
        "  cold-open {}: read_csr {:.0} ms vs regen {:.1}s -> {:.0}x",
        label_of(dataset, scale),
        cold.read_csr_ms,
        regen_s,
        cold.speedup,
    );
    cold
}

fn main() {
    let checker = Checker::from_args("BENCH_datasets.json", |_, _| false);

    println!("dataset ladder ({} presets):", PRESETS.len());
    let results: Vec<PresetResult> = PRESETS
        .iter()
        .zip(GEN_REPS)
        .map(|(&(dataset, scale), &reps)| run_preset(dataset, scale, reps))
        .collect();

    let (largest_idx, largest) = results
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.edges)
        .expect("preset ladder is not empty");

    let (cold_dataset, cold_scale) = PRESETS[largest_idx];
    let cold = run_cold_open(cold_dataset, cold_scale, largest.regen_s);

    let preset_lines: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{ \"label\": \"{}\", \"vertices\": {}, \"edges\": {}, \
                 \"serial_gen_s\": {:.3}, \"parallel_gen_s\": {:.3}, \"gen_speedup\": {:.3}, \
                 \"raw_csr_bytes\": {}, \"packed_bytes\": {}, \"pack_ratio\": {:.4}, \
                 \"bytes_per_edge\": {:.3} }}",
                r.label,
                r.vertices,
                r.edges,
                r.serial_gen_s,
                r.parallel_gen_s,
                r.gen_speedup,
                r.raw_csr_bytes,
                r.packed_bytes,
                r.pack_ratio,
                r.bytes_per_edge,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"presets\": [\n{presets}\n  ],\n  \
         \"largest_preset\": \"{lp}\",\n  \
         \"largest_gen_speedup\": {lgs},\n  \
         \"worst_pack_ratio\": {wpr},\n  \
         \"cold_open\": {{ \"preset\": \"{lp}\", \"regen_s\": {rg:.3}, \
         \"read_csr_ms\": {rc:.1} }},\n  \
         \"cold_open_speedup\": {cos}\n}}\n",
        threads = default_threads(),
        presets = preset_lines.join(",\n"),
        lp = largest.label,
        lgs = largest.gen_speedup,
        wpr = results.iter().map(|r| r.pack_ratio).fold(0.0, f64::max),
        rg = largest.regen_s,
        rc = cold.read_csr_ms,
        cos = cold.speedup,
    );
    // Every timing gate is a ratio, so host speed cancels out of the
    // comparison; the speedups hold only at the baseline's thread count.
    let gates = [
        Gate::at("threads", Rule::Equal),
        Gate::at("worst_pack_ratio", Rule::AtMost(1.10)),
        Gate::at("largest_gen_speedup", Rule::AtLeast(0.5)),
        Gate::at("cold_open_speedup", Rule::AtLeast(0.5)),
    ];
    checker.finish(&json, &gates);
}
