//! Dynamic-scenario execution: seeded mutation schedules, with full
//! recompute as the golden reference for every batch.
//!
//! A scenario with a [`MutationSpec`] runs as a *sequence* of graph
//! snapshots. For each batch the oracle:
//!
//! 1. materializes the batch from the seeded substream
//!    ([`materialize_batch`] is a pure function of spec + graph state, so
//!    replays are exact),
//! 2. applies it through [`DynamicCsr`] and differentially checks the
//!    incremental CSR maintenance against a from-scratch rebuild (both the
//!    canonical adjacency and the Section IV-C degree-aware layout must be
//!    bit-identical),
//! 3. runs the full engine/mode comparison matrix on the mutated snapshot
//!    (stepped, fast-forward, recording, baselines — exactly
//!    what a static scenario runs), and
//! 4. advances the incremental algorithm state (BFS/SSSP/CC/widest-path
//!    repair or delta-PageRank) and checks it **bit-exactly** against the
//!    reference engine's full recompute on the mutated graph.
//!
//! Any divergence becomes a [`Mismatch`] whose field is prefixed with
//! `batch[k].`, so a failing replay names the exact batch that broke.

use crate::oracle::{engines, run_static_on, Mismatch, Outcome, Props, Report};
use crate::scenario::{AlgoSpec, MutationSpec, Scenario};
use scalagraph_algo::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp, WidestPath};
use scalagraph_algo::dynamic::{delta_pagerank, repair_rooted, trace_pagerank, PageRankTrace};
use scalagraph_algo::{Algorithm, ReferenceEngine};
use scalagraph_graph::mutate::{DynamicCsr, MutationBatch, MutationDelta};
use scalagraph_graph::{Csr, Edge, SplitMix64};

/// Materializes mutation batch `batch_index` (1-based) of a schedule
/// against the current graph state.
///
/// Deterministic: draws come from a per-batch SplitMix64 substream of
/// `spec.seed`, and every draw is resolved against `graph` (the snapshot
/// *before* this batch), so identical (spec, graph) always yield the same
/// batch. Op order is: vertex adds, edge removals (drawn as flat edge
/// indices, so removal pressure follows the degree distribution), vertex
/// isolations, then edge insertions (which may target the just-added
/// vertices). Inserted edges carry a weight in `1..=max_weight` when the
/// scenario's graph is weighted, and 0 otherwise.
pub fn materialize_batch(
    spec: &MutationSpec,
    max_weight: u32,
    graph: &Csr,
    batch_index: u32,
) -> MutationBatch {
    let mut rng = SplitMix64::new(
        spec.seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(batch_index) + 1)),
    );
    let old_n = graph.num_vertices() as u64;
    let mut batch = MutationBatch::new();
    for _ in 0..spec.add_vertices {
        batch.add_vertex();
    }
    for _ in 0..spec.remove_edges {
        if graph.num_edges() == 0 {
            break;
        }
        let idx = rng.below(graph.num_edges() as u64) as usize;
        // Map the flat edge index back to its source vertex. A duplicate
        // draw (or a parallel copy of an earlier draw) makes the removal a
        // no-op, so the realized removal count can undershoot the spec.
        let src = graph.offsets().partition_point(|&o| o <= idx as u64) - 1;
        batch.remove_edge(src as u32, graph.neighbor_at(idx));
    }
    for _ in 0..spec.isolate_vertices {
        batch.isolate_vertex(rng.below(old_n) as u32);
    }
    let grown_n = old_n + u64::from(spec.add_vertices);
    for _ in 0..spec.insert_edges {
        let src = rng.below(grown_n) as u32;
        let dst = rng.below(grown_n) as u32;
        let weight = if max_weight > 0 {
            rng.range(1, u64::from(max_weight)) as u32
        } else {
            0
        };
        batch.insert_edge(Edge::weighted(src, dst, weight));
    }
    batch
}

/// The incremental algorithm state carried across batches.
enum Tracker {
    /// Converged `u32` lattice properties (BFS/SSSP/CC/widest-path).
    Rooted(Vec<u32>),
    /// Per-iteration rank trace (PageRank).
    PageRank(PageRankTrace),
}

fn init_tracker(s: &Scenario, graph: &Csr) -> Tracker {
    let engine = ReferenceEngine::new();
    match s.algo {
        AlgoSpec::Bfs { root } => {
            Tracker::Rooted(engine.run(&Bfs::from_root(root), graph).properties)
        }
        AlgoSpec::Sssp { root } => {
            Tracker::Rooted(engine.run(&Sssp::from_root(root), graph).properties)
        }
        AlgoSpec::Cc => Tracker::Rooted(engine.run(&ConnectedComponents::new(), graph).properties),
        AlgoSpec::WidestPath { root } => {
            Tracker::Rooted(engine.run(&WidestPath::from_root(root), graph).properties)
        }
        AlgoSpec::PageRank { iters } => {
            Tracker::PageRank(trace_pagerank(&PageRank::new(iters), graph))
        }
    }
}

/// The reference engine's final properties inside a batch report.
fn golden_props(report: &Report) -> Result<&Props, String> {
    for o in &report.observations {
        if o.engine == engines::REFERENCE {
            if let Outcome::Converged(d) = &o.outcome {
                return Ok(&d.props);
            }
        }
    }
    Err("dynamic batch report carries no reference observation".into())
}

fn push_first_divergence<T: Copy, K: Eq + std::fmt::Debug>(
    mismatches: &mut Vec<Mismatch>,
    batch: u32,
    ours: &[T],
    golden: &[T],
    key: impl Fn(T) -> K,
) {
    if ours.len() != golden.len() {
        mismatches.push(Mismatch {
            field: format!("batch[{batch}].incremental.properties.len"),
            left_engine: "incremental".into(),
            right_engine: engines::REFERENCE.into(),
            left: ours.len().to_string(),
            right: golden.len().to_string(),
        });
        return;
    }
    for (i, (&a, &b)) in ours.iter().zip(golden).enumerate() {
        let (ka, kb) = (key(a), key(b));
        if ka != kb {
            mismatches.push(Mismatch {
                field: format!("batch[{batch}].incremental.properties[{i}]"),
                left_engine: "incremental".into(),
                right_engine: engines::REFERENCE.into(),
                left: format!("{ka:?}"),
                right: format!("{kb:?}"),
            });
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn advance_rooted<A: Algorithm<Prop = u32>>(
    algo: &A,
    props: &mut Vec<u32>,
    old_graph: &Csr,
    new_graph: &Csr,
    delta: &MutationDelta,
    golden: &Props,
    batch: u32,
    mismatches: &mut Vec<Mismatch>,
) {
    let repaired = repair_rooted(algo, old_graph, props, new_graph, delta);
    if let Props::Ints(g) = golden {
        push_first_divergence(mismatches, batch, &repaired.properties, g, |x| x);
    }
    *props = repaired.properties;
}

fn csr_digest(g: &Csr) -> String {
    format!(
        "{}v/{}e weighted={}",
        g.num_vertices(),
        g.num_edges(),
        g.is_weighted()
    )
}

/// Runs a scenario's mutation schedule `spec`. Called by
/// [`run_scenario`](crate::oracle::run_scenario) once the scenario has
/// passed [`Scenario::validate`].
pub(crate) fn run_dynamic_scenario(s: &Scenario, spec: MutationSpec) -> Result<Report, String> {
    let base = s.graph.build()?;
    let mut dynamic = DynamicCsr::new(base);

    // Batch 0: the unmutated snapshot, through the full matrix. This also
    // surfaces root-range/config errors before any mutation runs.
    let mut report = run_static_on(s, dynamic.canonical())?;
    let mut tracker = init_tracker(s, dynamic.canonical());

    for k in 1..=spec.batches {
        let old_graph = dynamic.canonical().clone();
        let batch = materialize_batch(&spec, s.graph.max_weight, dynamic.canonical(), k);
        let delta = dynamic
            .apply(&batch)
            .map_err(|e| format!("scenario `{}` batch {k}: {e}", s.name))?;

        // Storage check: incremental CSR maintenance vs from-scratch
        // rebuild, for both the canonical and the degree-aware view.
        let (rebuilt_canonical, rebuilt_laidout) = dynamic.rebuild_reference();
        if &rebuilt_canonical != dynamic.canonical() {
            report.mismatches.push(Mismatch {
                field: format!("batch[{k}].csr.canonical"),
                left_engine: "incremental".into(),
                right_engine: "rebuild".into(),
                left: csr_digest(dynamic.canonical()),
                right: csr_digest(&rebuilt_canonical),
            });
        }
        if &rebuilt_laidout != dynamic.laidout() {
            report.mismatches.push(Mismatch {
                field: format!("batch[{k}].csr.laidout"),
                left_engine: "incremental".into(),
                right_engine: "rebuild".into(),
                left: csr_digest(dynamic.laidout()),
                right: csr_digest(&rebuilt_laidout),
            });
        }

        // Full matrix on the mutated snapshot: every engine/mode recomputes
        // from scratch and is diffed exactly as in a static scenario.
        let batch_report = run_static_on(s, dynamic.canonical())?;
        let golden = golden_props(&batch_report)?;

        // Incremental algorithms vs the golden full recompute: bit-exact.
        match &mut tracker {
            Tracker::Rooted(props) => match s.algo {
                AlgoSpec::Bfs { root } => advance_rooted(
                    &Bfs::from_root(root),
                    props,
                    &old_graph,
                    dynamic.canonical(),
                    &delta,
                    golden,
                    k,
                    &mut report.mismatches,
                ),
                AlgoSpec::Sssp { root } => advance_rooted(
                    &Sssp::from_root(root),
                    props,
                    &old_graph,
                    dynamic.canonical(),
                    &delta,
                    golden,
                    k,
                    &mut report.mismatches,
                ),
                AlgoSpec::Cc => advance_rooted(
                    &ConnectedComponents::new(),
                    props,
                    &old_graph,
                    dynamic.canonical(),
                    &delta,
                    golden,
                    k,
                    &mut report.mismatches,
                ),
                AlgoSpec::WidestPath { root } => advance_rooted(
                    &WidestPath::from_root(root),
                    props,
                    &old_graph,
                    dynamic.canonical(),
                    &delta,
                    golden,
                    k,
                    &mut report.mismatches,
                ),
                AlgoSpec::PageRank { .. } => {}
            },
            Tracker::PageRank(trace) => {
                if let AlgoSpec::PageRank { iters } = s.algo {
                    let pr = PageRank::new(iters);
                    let (new_trace, _stats) =
                        delta_pagerank(&pr, trace, &old_graph, dynamic.canonical(), &delta);
                    if let Props::Floats(g) = golden {
                        push_first_divergence(
                            &mut report.mismatches,
                            k,
                            new_trace.final_ranks(),
                            g,
                            f32::to_bits,
                        );
                    }
                    *trace = new_trace;
                }
            }
        }

        // Fold the batch's own engine-vs-engine divergences in, named by
        // batch, and let the last batch's observations stand as the
        // report's observations.
        report
            .mismatches
            .extend(batch_report.mismatches.iter().map(|m| Mismatch {
                field: format!("batch[{k}].{}", m.field),
                ..m.clone()
            }));
        report.observations = batch_report.observations;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ConfigSpec, Expectation, Family, GraphSource, GraphSpec, ModeMatrix};

    fn dynamic_scenario(algo: AlgoSpec, spec: MutationSpec) -> Scenario {
        Scenario {
            name: "dyn-test".into(),
            graph: GraphSpec {
                family: Family::Uniform {
                    vertices: 48,
                    edges: 192,
                    seed: 9,
                },
                symmetrize: false,
                max_weight: if matches!(algo, AlgoSpec::Sssp { .. }) {
                    16
                } else {
                    0
                },
                weight_seed: 5,
                source: GraphSource::Generate,
            },
            algo,
            config: ConfigSpec::small(),
            fault_seed: 0,
            faults: Vec::new(),
            modes: ModeMatrix::sim_only(),
            expect: Expectation::Converge,
            strict_frontier: None,
            synthetic_bug: false,
            mutations: Some(spec),
        }
    }

    fn churn() -> MutationSpec {
        MutationSpec {
            batches: 3,
            insert_edges: 6,
            remove_edges: 6,
            add_vertices: 1,
            isolate_vertices: 1,
            seed: 77,
        }
    }

    #[test]
    fn materialize_is_deterministic_and_respects_counts() {
        let g = GraphSpec {
            family: Family::Uniform {
                vertices: 32,
                edges: 128,
                seed: 1,
            },
            symmetrize: false,
            max_weight: 8,
            weight_seed: 0,
            source: GraphSource::Generate,
        }
        .build()
        .unwrap();
        let spec = churn();
        let a = materialize_batch(&spec, 8, &g, 1);
        let b = materialize_batch(&spec, 8, &g, 1);
        assert_eq!(a, b, "same (spec, graph, index) must replay identically");
        let c = materialize_batch(&spec, 8, &g, 2);
        assert_ne!(a, c, "different batch indices draw different substreams");
        assert_eq!(a.len(), 6 + 6 + 1 + 1);
    }

    #[test]
    fn dynamic_bfs_scenario_passes_end_to_end() {
        let s = dynamic_scenario(AlgoSpec::Bfs { root: 0 }, churn());
        let report = crate::oracle::run_scenario(&s).unwrap();
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn dynamic_sssp_scenario_passes_end_to_end() {
        let s = dynamic_scenario(AlgoSpec::Sssp { root: 3 }, churn());
        let report = crate::oracle::run_scenario(&s).unwrap();
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn dynamic_pagerank_scenario_passes_end_to_end() {
        let s = dynamic_scenario(AlgoSpec::PageRank { iters: 4 }, churn());
        let report = crate::oracle::run_scenario(&s).unwrap();
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn dynamic_scenario_with_wedge_expectation_is_rejected() {
        let mut s = dynamic_scenario(AlgoSpec::Bfs { root: 0 }, churn());
        s.expect = Expectation::Wedge {
            suspect_contains: "tile".into(),
        };
        assert!(s.validate().is_err());
        assert!(crate::oracle::run_scenario(&s).is_err());
    }

    #[test]
    fn dynamic_scenario_with_zero_batches_is_rejected() {
        let mut spec = churn();
        spec.batches = 0;
        let s = dynamic_scenario(AlgoSpec::Bfs { root: 0 }, spec);
        assert!(s.validate().is_err());
        assert!(crate::oracle::run_scenario(&s).is_err());
    }

    #[test]
    fn schedules_change_the_fingerprint() {
        let a = dynamic_scenario(AlgoSpec::Bfs { root: 0 }, churn());
        let mut b = a.clone();
        b.mutations = Some(MutationSpec {
            seed: 78,
            ..churn()
        });
        let mut c = a.clone();
        c.mutations = None;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(b.fingerprint(), c.fingerprint());
    }
}
