//! `bench_dynamic` — incremental mutation path vs full recompute.
//!
//! Drives a seeded mutation schedule over a fixed uniform graph at three
//! churn levels (measured largest first) and, per batch, times two legs in
//! strict alternation, keeping the min-of-N of each:
//!
//! * **incremental** — [`DynamicCsr::apply`] splices the batch into the
//!   canonical CSR (the laid-out view is derived only when read), then
//!   `repair_rooted` (BFS) / `delta_pagerank` reprocesses only the
//!   affected region;
//! * **recompute** — from-scratch rebuild of the canonical CSR from the
//!   mutated edge set (`rebuild_canonical`) plus a full reference run
//!   (BFS) / full trace (PageRank) — the static ingestion pipeline a
//!   mutation would otherwise rerun. Each leg builds the one CSR the
//!   engines read.
//!
//! Both legs are asserted bit-identical before any timing is trusted.
//! This host's wall clock drifts heavily, so the report and its gates are
//! **ratio-only**: the in-run incremental-over-recompute speedup at the
//! ≤1% churn presets must be ≥ 2x (`GATE_MIN_SPEEDUP`); absolute times are
//! published for context but never gated. `--check` compares ratios
//! against a previous report, again never wall-clock. The report is
//! written before it is gated, so a failing run still leaves it behind.
//!
//! ```text
//! bench_dynamic [--out <path>] [--check <path>] [--reps <n>]
//!   --out <path>     where to write the JSON        [BENCH_dynamic.json]
//!   --check <path>   also require: the smallest gated speedup >= half the
//!                    previous report's (ratio-to-ratio, noise-tolerant)
//!   --reps <n>       timed reps per leg (min-of-N)  [5]
//! ```

use scalagraph_algo::algorithms::{Bfs, PageRank};
use scalagraph_algo::dynamic::{delta_pagerank, repair_rooted, trace_pagerank, PageRankTrace};
use scalagraph_algo::ReferenceEngine;
use scalagraph_bench::{Checker, Gate, Rule};
use scalagraph_conformance::json::Json;
use scalagraph_conformance::{materialize_batch, MutationSpec};
use scalagraph_graph::mutate::DynamicCsr;
use scalagraph_graph::{generators, Csr};
use std::time::Instant;

/// BFS-repair course graph: dense enough (avg degree 4) that a removed
/// edge rarely orphans a large subtree, the regime batched repair targets.
const BFS_VERTICES: usize = 16_384;
const BFS_EDGES: usize = 65_536;
/// Delta-PageRank course graph: sparse (avg degree 1.5) so the affected
/// frontier's one-hop-per-iteration growth stays well sublinear in |V|.
const PR_VERTICES: usize = 65_536;
const PR_EDGES: usize = 98_304;
const GRAPH_SEED: u64 = 42;
const BATCHES: u32 = 4;
const PAGERANK_ITERS: usize = 3;
const GATE_MIN_SPEEDUP: f64 = 2.0;
/// Presets at or below this churn fraction are gated.
const GATE_MAX_CHURN: f64 = 0.01;

/// Churn presets, largest first so the heavy preset absorbs warm-up drift.
struct Preset {
    name: &'static str,
    /// Per-batch insert/remove counts as a fraction of the course's edge
    /// count (churn = 2x this).
    half_churn: f64,
}

const PRESETS: &[Preset] = &[
    Preset {
        name: "churn-5pct",
        half_churn: 0.0244,
    },
    Preset {
        name: "churn-1pct",
        half_churn: 0.0049,
    },
    Preset {
        name: "churn-0.5pct",
        half_churn: 0.0024,
    },
];

fn base_graph(vertices: usize, edges: usize) -> Csr {
    Csr::from_edges(vertices, &generators::uniform(vertices, edges, GRAPH_SEED))
}

fn spec_for(preset: &Preset, edges: usize) -> MutationSpec {
    let ops = (preset.half_churn * edges as f64) as u32;
    MutationSpec {
        batches: BATCHES,
        insert_edges: ops,
        remove_edges: ops,
        add_vertices: 0,
        isolate_vertices: 0,
        seed: GRAPH_SEED,
    }
}

/// min-of-N over strictly alternating legs; returns (incremental, full)
/// best seconds. `inc` and `full` must be pure (state handed in fresh).
fn alternate<FI: FnMut() -> f64, FF: FnMut() -> f64>(
    reps: u32,
    mut inc: FI,
    mut full: FF,
) -> (f64, f64) {
    let (mut bi, mut bf) = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        bi = bi.min(inc());
        bf = bf.min(full());
    }
    (bi, bf)
}

struct BatchTiming {
    batch: u32,
    affected: usize,
    incremental_s: f64,
    recompute_s: f64,
}

fn speedup(t: &BatchTiming) -> f64 {
    t.recompute_s / t.incremental_s.max(1e-12)
}

/// BFS course: advance the schedule batch by batch, timing repair vs full
/// reference recompute at each step and asserting bit-identity.
fn bfs_course(preset: &Preset, reps: u32) -> Vec<BatchTiming> {
    let spec = spec_for(preset, BFS_EDGES);
    let bfs = Bfs::from_root(0);
    let reference = ReferenceEngine::new();
    let mut state = DynamicCsr::new(base_graph(BFS_VERTICES, BFS_EDGES));
    let mut props = reference.run(&bfs, state.canonical()).properties;
    let mut out = Vec::new();
    for k in 1..=BATCHES {
        let old_canonical = state.canonical().clone();
        let batch = materialize_batch(&spec, 0, &old_canonical, k);
        let mut advanced = state.clone();
        let delta = advanced.apply(&batch).expect("bench batch applies");

        let repaired = repair_rooted(&bfs, &old_canonical, &props, advanced.canonical(), &delta);
        let full = reference.run(&bfs, advanced.canonical()).properties;
        assert_eq!(repaired.properties, full, "repair must be bit-identical");

        let (incremental_s, recompute_s) = alternate(
            reps,
            || {
                let mut d = state.clone();
                let t = Instant::now();
                let delta = d.apply(&batch).expect("bench batch applies");
                let run = repair_rooted(&bfs, &old_canonical, &props, d.canonical(), &delta);
                let dt = t.elapsed().as_secs_f64();
                assert!(run.properties.len() == d.num_vertices());
                dt
            },
            || {
                let t = Instant::now();
                let canonical = advanced.rebuild_canonical();
                let run = reference.run(&bfs, &canonical);
                let dt = t.elapsed().as_secs_f64();
                assert!(run.properties.len() == canonical.num_vertices());
                dt
            },
        );
        out.push(BatchTiming {
            batch: k,
            affected: repaired.affected_vertices,
            incremental_s,
            recompute_s,
        });
        state = advanced;
        props = full;
    }
    out
}

/// PageRank course: delta reprocessing vs a full fresh trace.
fn pagerank_course(preset: &Preset, reps: u32) -> Vec<BatchTiming> {
    let spec = spec_for(preset, PR_EDGES);
    let pr = PageRank::new(PAGERANK_ITERS);
    let mut state = DynamicCsr::new(base_graph(PR_VERTICES, PR_EDGES));
    let mut trace = trace_pagerank(&pr, state.canonical());
    let mut out = Vec::new();
    for k in 1..=BATCHES {
        let old_canonical = state.canonical().clone();
        let batch = materialize_batch(&spec, 0, &old_canonical, k);
        let mut advanced = state.clone();
        let delta = advanced.apply(&batch).expect("bench batch applies");

        let (delta_trace, stats) =
            delta_pagerank(&pr, &trace, &old_canonical, advanced.canonical(), &delta);
        let full: PageRankTrace = trace_pagerank(&pr, advanced.canonical());
        assert!(!stats.full_fallback, "delta path must stay incremental");
        assert_eq!(
            delta_trace.ranks, full.ranks,
            "delta trace must be bit-identical"
        );

        let (incremental_s, recompute_s) = alternate(
            reps,
            || {
                let mut d = state.clone();
                let t = Instant::now();
                let delta = d.apply(&batch).expect("bench batch applies");
                let (dt_trace, _) =
                    delta_pagerank(&pr, &trace, &old_canonical, d.canonical(), &delta);
                let dt = t.elapsed().as_secs_f64();
                assert!(dt_trace.final_ranks().len() == d.num_vertices());
                dt
            },
            || {
                let t = Instant::now();
                let canonical = advanced.rebuild_canonical();
                let full = trace_pagerank(&pr, &canonical);
                let dt = t.elapsed().as_secs_f64();
                assert!(full.final_ranks().len() == canonical.num_vertices());
                dt
            },
        );
        out.push(BatchTiming {
            batch: k,
            affected: stats.affected_final,
            incremental_s,
            recompute_s,
        });
        state = advanced;
        trace = full;
    }
    out
}

/// Geometric mean of the per-batch speedups: the gate statistic. A single
/// adversarial batch (a removal that orphans a big subtree forces a
/// near-full repair) should not veto a preset the incremental path wins
/// on average; the per-batch ratios are still published for inspection.
fn gm_speedup(timings: &[BatchTiming]) -> f64 {
    let log_sum: f64 = timings.iter().map(|t| speedup(t).max(1e-12).ln()).sum();
    (log_sum / timings.len() as f64).exp()
}

fn churn_fraction(preset: &Preset) -> f64 {
    2.0 * preset.half_churn
}

fn batch_json(timings: &[BatchTiming]) -> String {
    let lines: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "        {{ \"batch\": {}, \"affected\": {}, \"incremental_us\": {:.1}, \
                 \"recompute_us\": {:.1}, \"speedup\": {:.2} }}",
                t.batch,
                t.affected,
                t.incremental_s * 1e6,
                t.recompute_s * 1e6,
                speedup(t)
            )
        })
        .collect();
    lines.join(",\n")
}

/// The smallest `gm_speedup` of the gated presets, as a report records
/// them: the one figure both dynamic gates bound.
fn min_gated_speedup(report: &Json) -> Option<f64> {
    let mut gated = Vec::new();
    for preset in report.get("presets")?.as_array()? {
        if preset.get("gated")?.as_bool()? {
            for leg in ["bfs_repair", "delta_pagerank"] {
                gated.push(preset.get(leg)?.get("gm_speedup")?.as_f64()?);
            }
        }
    }
    gated.into_iter().reduce(f64::min)
}

fn main() {
    let mut reps: u32 = 5;
    let checker = Checker::from_args("BENCH_dynamic.json", |flag, value| {
        if flag == "--reps" {
            reps = value.parse().expect("--reps needs an integer");
            assert!(reps > 0, "--reps needs a positive integer");
        }
        flag == "--reps"
    });

    println!(
        "workloads: bfs-repair uniform |V|={BFS_VERTICES} |E|={BFS_EDGES}, \
         delta-pagerank uniform |V|={PR_VERTICES} |E|={PR_EDGES} (seed {GRAPH_SEED}), \
         {BATCHES} batches/preset, min-of-{reps} alternating legs"
    );

    let mut sections = Vec::new();
    for preset in PRESETS {
        let churn = churn_fraction(preset);
        let gated = churn <= GATE_MAX_CHURN;
        let bfs = bfs_course(preset, reps);
        let pagerank = pagerank_course(preset, reps);
        let (bfs_gm, pr_gm) = (gm_speedup(&bfs), gm_speedup(&pagerank));
        println!(
            "  {:>13} (churn {:.2}%{}): bfs-repair {:.1}x, delta-pagerank {:.1}x (geo mean)",
            preset.name,
            churn * 100.0,
            if gated { ", gated" } else { "" },
            bfs_gm,
            pr_gm,
        );
        let mut section = format!(
            "    {{\n      \"preset\": \"{}\", \"churn_fraction\": {churn:.4}, \"gated\": {gated},\n",
            preset.name
        );
        section.push_str(&format!(
            "      \"bfs_repair\": {{ \"gm_speedup\": {bfs_gm}, \"batches\": [\n{}\n      ] }},\n",
            batch_json(&bfs)
        ));
        section.push_str(&format!(
            "      \"delta_pagerank\": {{ \"gm_speedup\": {pr_gm}, \"batches\": [\n{}\n      ] }}\n    }}",
            batch_json(&pagerank)
        ));
        sections.push(section);
    }

    let mut json = format!(
        "{{\n  \"workload\": \"uniform bfs |V|={BFS_VERTICES} |E|={BFS_EDGES}, pagerank |V|={PR_VERTICES} |E|={PR_EDGES}, seed={GRAPH_SEED}\",\n"
    );
    json.push_str(&format!(
        "  \"batches_per_preset\": {BATCHES},\n  \"reps\": {reps},\n"
    ));
    json.push_str(&format!(
        "  \"gate\": {{ \"min_speedup\": {GATE_MIN_SPEEDUP}, \"max_churn\": {GATE_MAX_CHURN} }},\n"
    ));
    json.push_str(&format!(
        "  \"presets\": [\n{}\n  ]\n}}\n",
        sections.join(",\n")
    ));
    // Ratio-to-ratio only: the gated speedups must clear the in-run
    // floor, and may not collapse to less than half of what the baseline
    // published.
    let gates = [
        Gate::new(
            "min gated gm_speedup (in run)",
            Rule::Floor(GATE_MIN_SPEEDUP),
            min_gated_speedup,
        ),
        Gate::new(
            "min gated gm_speedup (vs baseline)",
            Rule::AtLeast(0.5),
            min_gated_speedup,
        ),
    ];
    checker.finish(&json, &gates);
}
