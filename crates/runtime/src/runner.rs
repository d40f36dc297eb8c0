//! One attempt of one scenario under runtime control.
//!
//! The runner is the bridge between the executor and the simulator: it
//! checks and builds the scenario exactly the way the conformance oracle
//! does ([`Scenario::validate`], then [`Scenario::run_config`]), then runs
//! the ScalaGraph engine *cancellably* — threading the worker's
//! [`CancelToken`] and any configured cycle ceiling into the hot loop.

use scalagraph::{CancelToken, SimError, Simulator};
use scalagraph_algo::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp, WidestPath};
use scalagraph_algo::Algorithm;
use scalagraph_conformance::materialize_batch;
use scalagraph_conformance::scenario::AlgoSpec;
use scalagraph_conformance::{MutationSpec, Scenario};
use scalagraph_graph::mutate::DynamicCsr;
use scalagraph_graph::Csr;

use crate::job::JobMetrics;

/// Per-attempt knobs layered on top of the scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttemptOverrides {
    /// Deterministic simulated-cycle ceiling; the engine ends the run
    /// with `SimError::DeadlineExceeded` on exactly this cycle. Merged
    /// (min) with any ceiling the config already has.
    pub cycle_limit: Option<u64>,
}

/// Why an attempt did not complete.
#[derive(Debug)]
pub enum AttemptError {
    /// The scenario itself is unusable: it fails [`Scenario::validate`],
    /// or its graph or mutation schedule cannot be built.
    Malformed(String),
    /// The simulation surfaced a typed error — including cooperative
    /// `Cancelled` / `DeadlineExceeded` terminations.
    Sim(SimError),
}

/// Runs one attempt of `scenario` on `graph`, polling `token` every
/// simulated cycle. The scenario is validated first, so a malformed one is
/// refused before any work. The graph must be the one `scenario.graph`
/// builds — the caller owns that invariant (a
/// [`GraphCache`](crate::GraphCache) keyed by `GraphSpec` provides it by
/// construction). The simulator never mutates its input graph, so one
/// immutable CSR can back any number of concurrent attempts.
///
/// # Errors
///
/// [`AttemptError::Malformed`] for unusable scenarios,
/// [`AttemptError::Sim`] for every in-simulation termination (faults,
/// wedges, cancellation, deadlines).
pub fn run_attempt_on(
    scenario: &Scenario,
    graph: &Csr,
    overrides: AttemptOverrides,
    token: &CancelToken,
) -> Result<JobMetrics, AttemptError> {
    scenario.validate().map_err(AttemptError::Malformed)?;
    // A mutation schedule runs the simulation against the final mutated
    // snapshot. The cached base graph stays shared and immutable: the
    // schedule is replayed onto a private copy per attempt, while the
    // scenario fingerprint (which covers the schedule) keeps the daemon's
    // memoization distinct across schedules sharing one base graph.
    let mutated;
    let graph = match scenario.mutations {
        Some(spec) => {
            mutated = mutated_snapshot(scenario, spec, graph).map_err(AttemptError::Malformed)?;
            &mutated
        }
        None => graph,
    };
    match scenario.algo {
        AlgoSpec::Bfs { root } => {
            run_typed(scenario, graph, &Bfs::from_root(root), overrides, token)
        }
        AlgoSpec::Sssp { root } => {
            run_typed(scenario, graph, &Sssp::from_root(root), overrides, token)
        }
        AlgoSpec::Cc => run_typed(
            scenario,
            graph,
            &ConnectedComponents::new(),
            overrides,
            token,
        ),
        AlgoSpec::PageRank { iters } => {
            run_typed(scenario, graph, &PageRank::new(iters), overrides, token)
        }
        AlgoSpec::WidestPath { root } => run_typed(
            scenario,
            graph,
            &WidestPath::from_root(root),
            overrides,
            token,
        ),
    }
}

/// Replays the scenario's full mutation schedule `spec` onto a copy of
/// `base` and returns the final canonical snapshot, moved out of the
/// `DynamicCsr` with neither a copy nor a re-layout. Batches are
/// materialized from the seeded [`MutationSpec`] exactly the way the
/// conformance dynamic oracle does, so runtime jobs and oracle replays
/// agree on the graph every schedule produces.
fn mutated_snapshot(scenario: &Scenario, spec: MutationSpec, base: &Csr) -> Result<Csr, String> {
    let mut dynamic = DynamicCsr::new(base.clone());
    for batch_index in 1..=spec.batches {
        let batch = materialize_batch(
            &spec,
            scenario.graph.max_weight,
            dynamic.canonical(),
            batch_index,
        );
        dynamic
            .apply(&batch)
            .map_err(|e| format!("mutation batch {batch_index}: {e}"))?;
    }
    Ok(dynamic.into_canonical())
}

fn run_typed<A: Algorithm>(
    scenario: &Scenario,
    graph: &Csr,
    algo: &A,
    overrides: AttemptOverrides,
    token: &CancelToken,
) -> Result<JobMetrics, AttemptError> {
    let mut cfg = scenario.run_config().map_err(AttemptError::Malformed)?;
    cfg.fast_forward = scenario.modes.fast_forward;
    if let Some(limit) = overrides.cycle_limit {
        cfg.cycle_limit = Some(cfg.cycle_limit.map_or(limit, |own| own.min(limit)));
    }
    let result = Simulator::try_new(algo, graph, cfg)
        .and_then(|mut sim| sim.try_run_cancellable(token))
        .map_err(AttemptError::Sim)?;
    Ok(JobMetrics {
        iterations: result.stats.iterations,
        cycles: result.stats.cycles,
        traversed_edges: result.stats.traversed_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        crate::test_support::healthy("runner-test")
    }

    fn run_attempt(
        s: &Scenario,
        overrides: AttemptOverrides,
        token: &CancelToken,
    ) -> Result<JobMetrics, AttemptError> {
        let graph = s.graph.build().map_err(AttemptError::Malformed)?;
        run_attempt_on(s, &graph, overrides, token)
    }

    #[test]
    fn a_healthy_scenario_completes_with_metrics() {
        let token = CancelToken::new();
        let metrics = run_attempt(&scenario(), AttemptOverrides::default(), &token)
            .expect("scenario converges");
        assert!(metrics.iterations > 0);
        assert!(metrics.cycles > 0);
        assert!(metrics.traversed_edges > 0);
    }

    #[test]
    fn out_of_range_roots_are_malformed_not_sim_errors() {
        let mut s = scenario();
        s.algo = AlgoSpec::Bfs { root: 10_000 };
        let token = CancelToken::new();
        match run_attempt(&s, AttemptOverrides::default(), &token) {
            Err(AttemptError::Malformed(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn zero_iteration_pagerank_is_malformed() {
        let mut s = scenario();
        s.algo = AlgoSpec::PageRank { iters: 0 };
        let token = CancelToken::new();
        assert!(matches!(
            run_attempt(&s, AttemptOverrides::default(), &token),
            Err(AttemptError::Malformed(_))
        ));
    }

    #[test]
    fn an_empty_fault_window_is_malformed_not_a_sim_error() {
        let mut s = crate::test_support::wedge("empty-window");
        s.faults[0] = s.faults[0].window(10, 5);
        let token = CancelToken::new();
        match run_attempt(&s, AttemptOverrides::default(), &token) {
            Err(AttemptError::Malformed(msg)) => assert!(msg.contains("is empty"), "{msg}"),
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn cycle_limit_override_surfaces_deadline_exceeded() {
        let token = CancelToken::new();
        let overrides = AttemptOverrides {
            cycle_limit: Some(5),
        };
        match run_attempt(&scenario(), overrides, &token) {
            Err(AttemptError::Sim(SimError::DeadlineExceeded { cycle, partial })) => {
                assert_eq!(cycle, 5);
                assert_eq!(partial.cycles, 5);
            }
            other => panic!("expected deadline, got {other:?}"),
        }
    }

    #[test]
    fn a_pre_cancelled_token_stops_the_attempt_immediately() {
        let token = CancelToken::new();
        token.cancel();
        match run_attempt(&scenario(), AttemptOverrides::default(), &token) {
            Err(AttemptError::Sim(SimError::Cancelled { cycle, .. })) => {
                assert!(cycle >= 1, "token polled on the first stepped cycle");
            }
            other => panic!("expected cancelled, got {other:?}"),
        }
    }

    #[test]
    fn a_mutation_schedule_runs_on_the_mutated_snapshot() {
        let mut s = scenario();
        s.mutations = Some(MutationSpec {
            batches: 3,
            insert_edges: 8,
            remove_edges: 8,
            add_vertices: 1,
            isolate_vertices: 1,
            seed: 1234,
        });
        let token = CancelToken::new();
        let metrics =
            run_attempt(&s, AttemptOverrides::default(), &token).expect("dynamic scenario runs");
        assert!(metrics.iterations > 0);
        assert!(metrics.traversed_edges > 0);

        // The same base CSR passed through run_attempt_on must produce the
        // same metrics: the schedule is replayed per attempt, never applied
        // to the shared cached graph.
        let base = s.graph.build().expect("base graph builds");
        let via_cache_path = run_attempt_on(&s, &base, AttemptOverrides::default(), &token)
            .expect("cached-graph path runs");
        assert_eq!(metrics, via_cache_path);
        assert_eq!(base.num_vertices(), 64, "base graph left untouched");

        // And the run genuinely saw a different graph than the static one.
        let static_metrics = run_attempt(&scenario(), AttemptOverrides::default(), &token)
            .expect("static scenario runs");
        assert_ne!(
            metrics.traversed_edges, static_metrics.traversed_edges,
            "mutated snapshot must change the traversal workload"
        );
    }

    #[test]
    fn schedules_share_a_cached_base_graph_but_not_a_fingerprint() {
        let spec = |seed: u64| {
            let mut s = scenario();
            s.mutations = Some(MutationSpec {
                batches: 2,
                insert_edges: 4,
                remove_edges: 4,
                add_vertices: 0,
                isolate_vertices: 0,
                seed,
            });
            s
        };
        let (a, b) = (spec(1), spec(2));
        // Same GraphSpec: a GraphCache keyed by it hands both scenarios one
        // shared CSR. Memoization stays sound because the scenario
        // fingerprint covers the schedule.
        assert_eq!(a.graph, b.graph);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), scenario().fingerprint());

        let base = a.graph.build().expect("shared graph builds");
        let token = CancelToken::new();
        let ra = run_attempt_on(&a, &base, AttemptOverrides::default(), &token)
            .expect("schedule A runs");
        let rb = run_attempt_on(&b, &base, AttemptOverrides::default(), &token)
            .expect("schedule B runs");
        assert_ne!(
            ra.traversed_edges, rb.traversed_edges,
            "different schedules must diverge on the same base graph"
        );
    }

    #[test]
    fn an_empty_mutation_schedule_is_malformed() {
        let mut s = scenario();
        s.mutations = Some(MutationSpec {
            batches: 0,
            insert_edges: 1,
            remove_edges: 0,
            add_vertices: 0,
            isolate_vertices: 0,
            seed: 1,
        });
        let token = CancelToken::new();
        match run_attempt(&s, AttemptOverrides::default(), &token) {
            Err(AttemptError::Malformed(msg)) => assert!(msg.contains("at least 1 batch"), "{msg}"),
            other => panic!("expected malformed, got {other:?}"),
        }
    }
}
