//! System runners: execute a workload on ScalaGraph, GraphDynS, or the
//! Gunrock model and return a uniform metrics record.

use crate::workloads::{PreparedGraph, Workload, PAGERANK_ITERATIONS};
use scalagraph::{ScalaGraphConfig, SimError, SimStats, Simulator};
use scalagraph_algo::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use scalagraph_algo::Algorithm;
use scalagraph_baselines::{GraphDyns, GraphDynsConfig, GunrockModel};
use scalagraph_graph::Csr;

/// Uniform per-run metrics across systems.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    /// Modelled wall-clock seconds.
    pub seconds: f64,
    /// Throughput in GTEPS.
    pub gteps: f64,
    /// Edges traversed.
    pub traversed_edges: u64,
    /// Simulated cycles (0 for the GPU model).
    pub cycles: u64,
    /// NoC link traversals (0 for the GPU model).
    pub noc_hops: u64,
    /// Off-chip bytes moved.
    pub offchip_bytes: u64,
    /// Mean PE utilization (0 for the GPU model).
    pub pe_utilization: f64,
    /// Mean NoC routing latency in cycles.
    pub avg_routing_latency: f64,
    /// Updates coalesced by aggregation pipelines.
    pub agg_merges: u64,
    /// Iterations executed.
    pub iterations: u64,
}

/// Dispatches `workload` to the right concrete algorithm and calls `f`.
pub fn with_algorithm<R>(
    workload: Workload,
    prep: &PreparedGraph,
    mut f: impl FnMut(&dyn ErasedRunner) -> R,
) -> R {
    match workload {
        Workload::Bfs => f(&AlgoRunner {
            algo: Bfs::from_root(prep.root),
        }),
        Workload::Sssp => f(&AlgoRunner {
            algo: Sssp::from_root(prep.root),
        }),
        Workload::Cc => f(&AlgoRunner {
            algo: ConnectedComponents::new(),
        }),
        Workload::PageRank => f(&AlgoRunner {
            algo: PageRank::new(PAGERANK_ITERATIONS),
        }),
    }
}

/// Object-safe adapter so runners need not be generic over the property
/// type at every call site.
pub trait ErasedRunner {
    /// Runs on the ScalaGraph simulator.
    fn scalagraph(&self, graph: &Csr, cfg: ScalaGraphConfig) -> Metrics;
    /// Fallible ScalaGraph run: invalid configurations, watchdog-detected
    /// deadlocks, and unrecoverable injected faults come back as a
    /// [`SimError`] instead of a panic.
    fn try_scalagraph(&self, graph: &Csr, cfg: ScalaGraphConfig) -> Result<Metrics, SimError>;
    /// Runs on the GraphDynS baseline.
    fn graphdyns(&self, graph: &Csr, cfg: GraphDynsConfig) -> Metrics;
    /// Runs on the Gunrock GPU model.
    fn gunrock(&self, graph: &Csr, model: GunrockModel) -> Metrics;
}

/// Metrics of a cycle-level run (ScalaGraph or GraphDynS) clocked at
/// `clock` MHz.
fn sim_metrics(s: SimStats, clock: f64) -> Metrics {
    Metrics {
        seconds: s.seconds(clock),
        gteps: s.gteps(clock),
        traversed_edges: s.traversed_edges,
        cycles: s.cycles,
        noc_hops: s.noc_hops,
        offchip_bytes: s.offchip_bytes(),
        pe_utilization: s.pe_utilization(),
        avg_routing_latency: s.avg_routing_latency(),
        agg_merges: s.agg_merges,
        iterations: s.iterations,
    }
}

struct AlgoRunner<A> {
    algo: A,
}

impl<A: Algorithm> ErasedRunner for AlgoRunner<A> {
    fn scalagraph(&self, graph: &Csr, cfg: ScalaGraphConfig) -> Metrics {
        match self.try_scalagraph(graph, cfg) {
            Ok(m) => m,
            Err(e) => panic!("scalagraph run failed: {e}"),
        }
    }

    fn try_scalagraph(&self, graph: &Csr, cfg: ScalaGraphConfig) -> Result<Metrics, SimError> {
        let clock = cfg.effective_clock_mhz();
        let result = Simulator::try_new(&self.algo, graph, cfg)?.try_run()?;
        Ok(sim_metrics(result.stats, clock))
    }

    fn graphdyns(&self, graph: &Csr, cfg: GraphDynsConfig) -> Metrics {
        let clock = cfg.effective_clock_mhz();
        sim_metrics(GraphDyns::new(cfg).run(&self.algo, graph).stats, clock)
    }

    fn gunrock(&self, graph: &Csr, model: GunrockModel) -> Metrics {
        let run = model.run(&self.algo, graph);
        Metrics {
            seconds: run.seconds,
            gteps: run.gteps(),
            traversed_edges: run.traversed_edges,
            offchip_bytes: run.bytes,
            iterations: run.iterations as u64,
            ..Metrics::default()
        }
    }
}

/// Convenience: run `workload` on ScalaGraph with `cfg`.
pub fn run_scalagraph(prep: &PreparedGraph, workload: Workload, cfg: ScalaGraphConfig) -> Metrics {
    with_algorithm(workload, prep, |r| r.scalagraph(&prep.graph, cfg.clone()))
}

/// Fallible [`run_scalagraph`]: every failure mode comes back as a
/// [`SimError`].
///
/// # Errors
///
/// Returns [`SimError`] when the configuration is invalid or the run
/// cannot complete (deadlock, watchdog stall, unrecoverable fault).
pub fn try_run_scalagraph(
    prep: &PreparedGraph,
    workload: Workload,
    cfg: ScalaGraphConfig,
) -> Result<Metrics, SimError> {
    with_algorithm(workload, prep, |r| {
        r.try_scalagraph(&prep.graph, cfg.clone())
    })
}

/// Convenience: run `workload` on the GraphDynS baseline with `cfg`.
pub fn run_graphdyns(prep: &PreparedGraph, workload: Workload, cfg: GraphDynsConfig) -> Metrics {
    with_algorithm(workload, prep, |r| r.graphdyns(&prep.graph, cfg))
}

/// Convenience: run `workload` on the Gunrock model.
pub fn run_gunrock(prep: &PreparedGraph, workload: Workload, model: GunrockModel) -> Metrics {
    with_algorithm(workload, prep, |r| r.gunrock(&prep.graph, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::prepare;
    use scalagraph_graph::Dataset;

    #[test]
    fn all_three_runners_produce_metrics() {
        let prep = prepare(Dataset::Pokec, Workload::Bfs, 16384, 1);
        let sg = run_scalagraph(&prep, Workload::Bfs, ScalaGraphConfig::with_pes(32));
        let gd = run_graphdyns(&prep, Workload::Bfs, GraphDynsConfig::with_pes(32));
        let gu = run_gunrock(&prep, Workload::Bfs, GunrockModel::v100());
        assert!(sg.gteps > 0.0 && gd.gteps > 0.0 && gu.gteps > 0.0);
        // All traverse the same number of edges.
        assert_eq!(sg.traversed_edges, gd.traversed_edges);
        assert_eq!(sg.traversed_edges, gu.traversed_edges);
    }
}
