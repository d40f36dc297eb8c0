//! Batch runs: a finite client of the [`Executor`].
//!
//! [`BatchRuntime::run`] starts an executor, submits every spec (admission
//! rejections are recorded inline), and collects one [`JobOutcome`] per
//! accepted spec. A global deadline stops the wait and shuts the executor
//! down, which cancels running jobs and drains the queue into cancelled
//! outcomes. The ledger invariant `submitted == completed + failed +
//! cancelled + rejected` is checked by [`BatchReport::balanced`].

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Instant;

use scalagraph_telemetry::{ServiceCounters, ServiceMetrics};

use crate::executor::{Executor, RuntimeConfig};
use crate::graphcache::GraphCache;
use crate::job::{JobOutcome, JobSpec, JobStatus};

/// What one batch run produced.
#[derive(Debug)]
pub struct BatchReport {
    /// One outcome per submitted spec, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Final service counters.
    pub counters: ServiceCounters,
    /// Wall-clock duration of the whole batch in milliseconds.
    pub wall_ms: u64,
    /// Worker threads spawned.
    pub workers_spawned: usize,
    /// Worker threads that exited cleanly (leak check: must equal
    /// `workers_spawned`).
    pub workers_joined: usize,
}

impl BatchReport {
    /// The ledger invariant: every submitted job landed in exactly one
    /// terminal bucket, and each has its outcome.
    pub fn balanced(&self) -> bool {
        self.counters.balanced() && self.outcomes.len() as u64 == self.counters.submitted
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "{}\nworkers: {}/{} joined  wall: {} ms",
            self.counters, self.workers_joined, self.workers_spawned, self.wall_ms
        )
    }
}

/// Runs whole batches on a fresh executor each. See the module docs.
pub struct BatchRuntime {
    config: RuntimeConfig,
    graphs: Arc<GraphCache>,
}

impl BatchRuntime {
    /// A runtime with the given knobs and a private graph cache.
    pub fn new(config: RuntimeConfig) -> Self {
        BatchRuntime::with_graph_cache(config, Arc::new(GraphCache::with_default_capacity()))
    }

    /// A runtime resolving graphs through `graphs`, which may outlive it;
    /// its byte budget is the one jobs are refused against.
    pub fn with_graph_cache(config: RuntimeConfig, graphs: Arc<GraphCache>) -> Self {
        BatchRuntime { config, graphs }
    }

    /// The graph cache this runtime resolves scenarios through.
    pub fn graph_cache(&self) -> &Arc<GraphCache> {
        &self.graphs
    }

    /// Runs a whole batch and reports every outcome.
    pub fn run(&self, specs: Vec<JobSpec>) -> BatchReport {
        let started = Instant::now();
        let metrics = Arc::new(ServiceMetrics::new());
        let executor = Executor::start(self.config, Arc::clone(&metrics), Arc::clone(&self.graphs));

        let (tx, rx) = channel();
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; specs.len()];
        let mut pending = 0usize;
        // A fresh executor numbers submissions from 0: job id = spec index.
        for (job, spec) in specs.into_iter().enumerate() {
            let name = spec.scenario.name.clone();
            match executor.submit(spec, tx.clone()) {
                Ok(_) => pending += 1,
                Err(rejection) => {
                    outcomes[job] = Some(JobOutcome {
                        job,
                        name,
                        status: JobStatus::Rejected { rejection },
                        wall_ms: 0,
                    })
                }
            }
        }
        drop(tx);

        let mut global = self.config.global_deadline.map(|d| started + d);
        let mut workers_joined = None;
        while pending > 0 {
            let next = match global {
                Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match next {
                Ok(outcome) => {
                    pending -= 1;
                    let job = outcome.job;
                    outcomes[job] = Some(outcome);
                }
                Err(RecvTimeoutError::Timeout) => {
                    global = None;
                    workers_joined = Some(executor.shutdown());
                }
                // Every reply sender is gone with outcomes still pending:
                // a job was lost, which the report shows as unbalanced.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let workers_joined = workers_joined.unwrap_or_else(|| executor.shutdown());

        BatchReport {
            outcomes: outcomes.into_iter().flatten().collect(),
            counters: metrics.snapshot(),
            wall_ms: started.elapsed().as_millis() as u64,
            workers_spawned: executor.workers(),
            workers_joined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{FailureReason, JobMetrics, Rejection};
    use crate::test_support::{healthy, wedge};
    use scalagraph_conformance::scenario::{AlgoSpec, Family};
    use scalagraph_conformance::MutationSpec;
    use std::time::Duration;

    fn run_with(cfg: RuntimeConfig, specs: Vec<JobSpec>) -> BatchReport {
        BatchRuntime::new(cfg).run(specs)
    }

    #[test]
    fn a_healthy_batch_completes_and_balances() {
        let specs: Vec<JobSpec> = (0..6)
            .map(|i| JobSpec::new(healthy(&format!("job-{i}"))))
            .collect();
        let report = run_with(
            RuntimeConfig {
                workers: 3,
                ..RuntimeConfig::default()
            },
            specs,
        );
        assert!(report.balanced(), "{}", report.render());
        assert_eq!(report.counters.completed, 6);
        assert_eq!(report.workers_joined, report.workers_spawned);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.job, i, "outcomes in submission order");
            assert!(
                matches!(outcome.status, JobStatus::Completed { metrics: JobMetrics { cycles, .. } } if cycles > 0),
                "{outcome}"
            );
        }
    }

    #[test]
    fn queue_overflow_is_rejected_not_dropped() {
        // One worker, capacity 1, and jobs that take real time: with 8
        // submissions some must be rejected, and the ledger still balances.
        let specs: Vec<JobSpec> = (0..8)
            .map(|i| JobSpec::new(healthy(&format!("burst-{i}"))))
            .collect();
        let report = run_with(
            RuntimeConfig {
                workers: 1,
                queue_capacity: 1,
                ..RuntimeConfig::default()
            },
            specs,
        );
        assert!(report.balanced(), "{}", report.render());
        assert!(
            report.counters.rejected > 0,
            "capacity 1 must reject part of an 8-job burst: {}",
            report.render()
        );
        assert_eq!(
            report.counters.completed + report.counters.rejected,
            8,
            "{}",
            report.render()
        );
        for outcome in &report.outcomes {
            if let JobStatus::Rejected { rejection } = &outcome.status {
                assert!(
                    matches!(rejection, Rejection::QueueFull { capacity: 1 }),
                    "{outcome}"
                );
            }
        }
    }

    #[test]
    fn a_wedged_job_is_deadline_killed_while_others_complete() {
        let specs = vec![
            JobSpec::new(healthy("ok-1")),
            JobSpec::new(wedge("wedged")),
            JobSpec::new(healthy("ok-2")),
        ];
        let report = run_with(
            RuntimeConfig {
                workers: 3,
                default_deadline: Some(Duration::from_millis(500)),
                ..RuntimeConfig::default()
            },
            specs,
        );
        assert!(report.balanced(), "{}", report.render());
        assert_eq!(report.counters.completed, 2, "{}", report.render());
        assert_eq!(report.counters.deadline_kills, 1, "{}", report.render());
        let wedged = &report.outcomes[1];
        assert!(
            matches!(wedged.status, JobStatus::DeadlineExceeded { at_cycle: Some(c) } if c >= 1),
            "{wedged}"
        );
    }

    #[test]
    fn a_panicking_job_is_contained_and_the_pool_keeps_serving() {
        let mut bomb = JobSpec::new(healthy("bomb"));
        bomb.inject_panic = true;
        let specs = vec![
            bomb,
            JobSpec::new(healthy("after-1")),
            JobSpec::new(healthy("after-2")),
        ];
        let report = run_with(
            RuntimeConfig {
                workers: 1, // the panicking worker must survive to run the rest
                ..RuntimeConfig::default()
            },
            specs,
        );
        assert!(report.balanced(), "{}", report.render());
        assert_eq!(report.counters.panics_contained, 1);
        assert_eq!(report.counters.completed, 2);
        assert_eq!(
            report.workers_joined, report.workers_spawned,
            "no leaked workers"
        );
        assert!(
            matches!(
                &report.outcomes[0].status,
                JobStatus::Failed { reason: FailureReason::Panicked { message } }
                    if message.contains("injected")
            ),
            "{}",
            report.outcomes[0]
        );
    }

    #[test]
    fn a_job_over_the_cache_byte_budget_is_refused_unbuilt() {
        let mut big = healthy("big");
        big.graph.family = Family::Uniform {
            vertices: 4096,
            edges: 32_768,
            seed: 1,
        };
        let runtime = BatchRuntime::with_graph_cache(
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
            Arc::new(GraphCache::with_byte_budget(8, 30_000)),
        );
        let report = runtime.run(vec![JobSpec::new(big), JobSpec::new(healthy("small"))]);
        assert!(report.balanced(), "{}", report.render());
        assert_eq!(report.counters.failed, 1, "{}", report.render());
        assert_eq!(report.counters.completed, 1, "{}", report.render());
        assert_eq!(
            report.outcomes[0].status,
            JobStatus::Failed {
                reason: FailureReason::OverBudget {
                    estimated: 4096 * 16 + 32_768 * 8,
                    budget: 30_000,
                }
            }
        );
        assert!(report.outcomes[0].to_string().contains("over budget"));
        assert_eq!(
            runtime.graph_cache().stats().builds,
            1,
            "only the small graph"
        );
    }

    #[test]
    fn a_mutation_schedule_counts_toward_the_byte_budget() {
        // Base graph 64 x 16 + 256 x 8 = 3,072 B; the schedule grows it by
        // 4 x 2,000 edges and materializes 4,003-op batches.
        let mut scheduled = healthy("scheduled");
        scheduled.graph.family = Family::Uniform {
            vertices: 64,
            edges: 256,
            seed: 8,
        };
        scheduled.mutations = Some(MutationSpec {
            batches: 4,
            insert_edges: 2_000,
            remove_edges: 2_000,
            add_vertices: 1,
            isolate_vertices: 2,
            seed: 1,
        });
        let runtime = BatchRuntime::with_graph_cache(
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
            Arc::new(GraphCache::with_byte_budget(8, 30_000)),
        );
        let report = runtime.run(vec![
            JobSpec::new(scheduled),
            JobSpec::new(healthy("small")),
        ]);
        assert!(report.balanced(), "{}", report.render());
        assert_eq!(
            report.outcomes[0].status,
            JobStatus::Failed {
                reason: FailureReason::OverBudget {
                    estimated: (64 + 4) * 16 + (256 + 4 * 2_000) * 8 + 4_003 * 16,
                    budget: 30_000,
                }
            }
        );
        assert_eq!(report.counters.completed, 1, "{}", report.render());
        assert_eq!(
            runtime.graph_cache().stats().builds,
            1,
            "only the static graph"
        );
    }

    #[test]
    fn a_cycle_budget_lands_as_a_deadline_kill_at_that_exact_cycle() {
        let report = run_with(
            RuntimeConfig {
                workers: 1,
                max_cycles: Some(7),
                ..RuntimeConfig::default()
            },
            vec![JobSpec::new(healthy("capped"))],
        );
        assert!(report.balanced(), "{}", report.render());
        assert!(matches!(
            report.outcomes[0].status,
            JobStatus::DeadlineExceeded { at_cycle: Some(7) }
        ));
        assert_eq!(report.counters.deadline_kills, 1);
    }

    #[test]
    fn a_global_deadline_cancels_running_and_queued_work() {
        // One worker grinds a wedge with no deadline; the rest sit
        // in the queue. The global deadline must cancel the runner and
        // drain the queue into cancelled outcomes.
        let mut specs = vec![JobSpec::new(wedge("runner"))];
        for i in 0..3 {
            specs.push(JobSpec::new(healthy(&format!("queued-{i}"))));
        }
        let report = run_with(
            RuntimeConfig {
                workers: 1,
                global_deadline: Some(Duration::from_millis(100)),
                ..RuntimeConfig::default()
            },
            specs,
        );
        assert!(report.balanced(), "{}", report.render());
        assert_eq!(report.workers_joined, report.workers_spawned);
        assert_eq!(
            report.counters.cancelled,
            4,
            "runner + all queued work cancelled: {}",
            report.render()
        );
        assert!(matches!(
            report.outcomes[0].status,
            JobStatus::Cancelled { at_cycle: Some(_) }
        ));
        for queued in &report.outcomes[1..] {
            assert!(
                matches!(queued.status, JobStatus::Cancelled { at_cycle: None }),
                "{queued}"
            );
        }
    }

    #[test]
    fn a_corpus_over_three_families_builds_exactly_three_graphs() {
        // Thirty scenarios cycling over three graph families: the shared
        // cache must build three graphs, not thirty, and its hit/miss
        // counters must account for every fetch.
        let specs: Vec<JobSpec> = (0..30)
            .map(|i| {
                let mut s = healthy(&format!("fam-{i}"));
                s.graph.family = match i % 3 {
                    0 => Family::Uniform {
                        vertices: 64,
                        edges: 256,
                        seed: 7,
                    },
                    1 => Family::Path { vertices: 64 },
                    _ => Family::Star { vertices: 64 },
                };
                JobSpec::new(s)
            })
            .collect();
        let runtime = BatchRuntime::new(RuntimeConfig {
            workers: 4,
            ..RuntimeConfig::default()
        });
        let report = runtime.run(specs);
        assert!(report.balanced(), "{}", report.render());
        assert_eq!(report.counters.completed, 30);
        let stats = runtime.graph_cache().stats();
        assert_eq!(stats.builds, 3, "three families, three builds: {stats:?}");
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 27);
    }

    #[test]
    fn a_shared_cache_survives_across_batches() {
        let cache = Arc::new(GraphCache::with_default_capacity());
        for _ in 0..2 {
            let runtime =
                BatchRuntime::with_graph_cache(RuntimeConfig::default(), Arc::clone(&cache));
            let report = runtime.run(vec![JobSpec::new(healthy("cross-batch"))]);
            assert!(report.balanced(), "{}", report.render());
        }
        let stats = cache.stats();
        assert_eq!(stats.builds, 1, "second batch reuses the first's graph");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn malformed_scenarios_fail_with_the_defect_named() {
        let mut s = healthy("malformed");
        s.algo = AlgoSpec::PageRank { iters: 0 };
        let report = run_with(RuntimeConfig::default(), vec![JobSpec::new(s)]);
        assert!(report.balanced(), "{}", report.render());
        assert_eq!(report.counters.failed, 1);
        assert!(
            matches!(
                &report.outcomes[0].status,
                JobStatus::Failed { reason: FailureReason::Malformed { message } }
                    if message.contains("iteration")
            ),
            "{}",
            report.outcomes[0]
        );
    }

    #[test]
    fn invalid_scenarios_are_refused_before_their_graph_is_built() {
        let mut bad_root = healthy("bad-root");
        bad_root.algo = AlgoSpec::Bfs { root: 10_000 };
        let mut empty_window = wedge("empty-window");
        empty_window.faults[0] = empty_window.faults[0].window(10, 5);
        let runtime = BatchRuntime::new(RuntimeConfig::default());
        let report = runtime.run(vec![JobSpec::new(bad_root), JobSpec::new(empty_window)]);
        assert!(report.balanced(), "{}", report.render());
        assert_eq!(report.counters.failed, 2, "{}", report.render());
        for outcome in &report.outcomes {
            assert!(
                outcome.to_string().contains("malformed scenario"),
                "{outcome}"
            );
        }
        assert_eq!(runtime.graph_cache().stats().builds, 0);
    }

    #[test]
    fn a_graph_too_large_to_hold_fails_malformed_without_a_budget() {
        let mut huge = healthy("huge");
        huge.graph.family = Family::Uniform {
            vertices: 64,
            edges: 1 << 58,
            seed: 1,
        };
        let runtime = BatchRuntime::with_graph_cache(
            RuntimeConfig::default(),
            Arc::new(GraphCache::with_byte_budget(8, 0)),
        );
        let report = runtime.run(vec![JobSpec::new(huge)]);
        assert!(report.balanced(), "{}", report.render());
        assert!(
            report.outcomes[0]
                .to_string()
                .contains("malformed scenario: cannot hold"),
            "{}",
            report.outcomes[0]
        );
    }
}
