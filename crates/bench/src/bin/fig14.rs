//! Figures 14 and 15 from one sweep: throughput (GTEPS) of
//! ScalaGraph-128/512 against GraphDynS-128/512 and Gunrock (V100) on
//! BFS/SSSP/CC/PageRank over the five Table III graphs, then the energy
//! of the same runs normalized to Gunrock (lower is better).
//!
//! Figure 14 paper shape: ScalaGraph-512 ≈ 3.2× Gunrock, ≈ 4.6×
//! GraphDynS-128, ≈ 2.2× GraphDynS-512; ScalaGraph-128 ≈ 1.2×
//! GraphDynS-128. BFS shows the smallest speedups (frontier starvation),
//! PageRank the largest.
//!
//! Figure 15 paper shape: ScalaGraph-512 uses ~7.1× less energy than
//! Gunrock, and ~3.3× / ~2.8× less than GraphDynS-128 / GraphDynS-512;
//! ScalaGraph-128 saves only ~1.3× over GraphDynS-128 (mesh overhead eats
//! the gain at small parallelism).
//!
//! The 20 (workload, dataset) cells are independent simulations and run in
//! parallel across cores. The energy model needs only each run's modelled
//! seconds, so Figure 15 prices the runs that Figure 14 already made.

use scalagraph::ScalaGraphConfig;
use scalagraph_baselines::{GraphDynsConfig, GunrockModel};
use scalagraph_bench::runners::{run_graphdyns, run_gunrock, run_scalagraph, Metrics};
use scalagraph_bench::sweep::parallel_map;
use scalagraph_bench::workloads::{prepare, Workload};
use scalagraph_bench::{f2, print_table, ratio, scale_or};
use scalagraph_graph::Dataset;
use scalagraph_hwmodel::{EnergyModel, SystemKind};

struct Cell {
    workload: Workload,
    dataset: Dataset,
    gunrock: Metrics,
    gd128: Metrics,
    gd512: Metrics,
    sg128: Metrics,
    sg512: Metrics,
}

fn main() {
    let scale = scale_or(512);
    println!("Figure 14 — overall throughput (GTEPS); graphs at 1/{scale} paper scale");

    let cells: Vec<(Workload, Dataset)> = Workload::ALL
        .iter()
        .flat_map(|&w| Dataset::EVALUATION.iter().map(move |&d| (w, d)))
        .collect();

    let results: Vec<Cell> = parallel_map(cells, |(workload, dataset)| {
        let prep = prepare(dataset, workload, scale, 42);
        Cell {
            workload,
            dataset,
            gunrock: run_gunrock(
                &prep,
                workload,
                GunrockModel::v100_for_paper_graph(
                    dataset.spec().paper_vertices,
                    dataset.spec().paper_edges,
                ),
            ),
            gd128: run_graphdyns(&prep, workload, GraphDynsConfig::graphdyns_128()),
            gd512: run_graphdyns(&prep, workload, GraphDynsConfig::graphdyns_512()),
            sg128: run_scalagraph(&prep, workload, ScalaGraphConfig::scalagraph_128()),
            sg512: run_scalagraph(&prep, workload, ScalaGraphConfig::scalagraph_512()),
        }
    });

    let mut rows = Vec::new();
    let mut speedup_sums = [0.0f64; 4];
    let count = results.len() as f64;
    for c in &results {
        speedup_sums[0] += c.sg512.gteps / c.gunrock.gteps;
        speedup_sums[1] += c.sg512.gteps / c.gd128.gteps;
        speedup_sums[2] += c.sg512.gteps / c.gd512.gteps;
        speedup_sums[3] += c.sg128.gteps / c.gd128.gteps;
        rows.push(vec![
            c.workload.to_string(),
            c.dataset.to_string(),
            f2(c.gunrock.gteps),
            f2(c.gd128.gteps),
            f2(c.gd512.gteps),
            f2(c.sg128.gteps),
            f2(c.sg512.gteps),
            ratio(c.sg512.gteps / c.gunrock.gteps),
            ratio(c.sg512.gteps / c.gd512.gteps),
        ]);
    }

    print_table(
        "Throughput (GTEPS)",
        &[
            "algo",
            "graph",
            "Gunrock",
            "GD-128",
            "GD-512",
            "SG-128",
            "SG-512",
            "SG512/Gun",
            "SG512/GD512",
        ],
        &rows,
    );

    println!("\nMean of per-cell speedups (paper targets in parentheses):");
    println!(
        "  ScalaGraph-512 vs Gunrock      : {} (3.2x)",
        ratio(speedup_sums[0] / count)
    );
    println!(
        "  ScalaGraph-512 vs GraphDynS-128: {} (4.6x)",
        ratio(speedup_sums[1] / count)
    );
    println!(
        "  ScalaGraph-512 vs GraphDynS-512: {} (2.2x)",
        ratio(speedup_sums[2] / count)
    );
    println!(
        "  ScalaGraph-128 vs GraphDynS-128: {} (1.2x)",
        ratio(speedup_sums[3] / count)
    );

    println!("Figure 15 — energy normalized to Gunrock; graphs at 1/{scale}");
    let em = EnergyModel::u280();
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 4];
    for c in &results {
        let e_gun = em.energy_joules(SystemKind::GunrockV100, 0, c.gunrock.seconds);
        let e = [
            em.energy_joules(SystemKind::GraphDyns, 128, c.gd128.seconds) / e_gun,
            em.energy_joules(SystemKind::GraphDyns, 512, c.gd512.seconds) / e_gun,
            em.energy_joules(SystemKind::ScalaGraph, 128, c.sg128.seconds) / e_gun,
            em.energy_joules(SystemKind::ScalaGraph, 512, c.sg512.seconds) / e_gun,
        ];
        for (s, v) in sums.iter_mut().zip(e) {
            *s += v;
        }
        let mut row = vec![c.workload.to_string(), c.dataset.to_string()];
        row.extend(e.iter().map(|v| format!("{v:.3}")));
        rows.push(row);
    }
    print_table(
        "Energy normalized to Gunrock (= 1.0)",
        &["algo", "graph", "GD-128", "GD-512", "SG-128", "SG-512"],
        &rows,
    );
    let m = |i: usize| sums[i] / count;
    println!("\nMeans (paper targets in parentheses):");
    println!(
        "  Gunrock / ScalaGraph-512      : {} (7.1x)",
        ratio(1.0 / m(3))
    );
    println!(
        "  GraphDynS-128 / ScalaGraph-512: {} (3.3x)",
        ratio(m(0) / m(3))
    );
    println!(
        "  GraphDynS-512 / ScalaGraph-512: {} (2.8x)",
        ratio(m(1) / m(3))
    );
    println!(
        "  GraphDynS-128 / ScalaGraph-128: {} (1.3x)",
        ratio(m(0) / m(2))
    );
}
