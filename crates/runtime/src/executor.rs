//! The executor: the workspace's one worker pool.
//!
//! Batch runs ([`BatchRuntime`](crate::BatchRuntime)) and the serve daemon
//! both run their jobs here. The executor lives until
//! [`Executor::shutdown`]; callers [`submit`](Executor::submit) jobs and
//! receive each job's one [`JobOutcome`] on the channel they passed in.
//!
//! * admission control refuses what the bounded FIFO queue cannot hold
//!   with a typed [`Rejection`], answered inline by `submit`;
//! * a supervisor thread expires the configured per-job wall-clock
//!   deadline into the simulator's cooperative [`CancelToken`];
//! * a worker takes each job through drain, validate, budget, fetch: a
//!   job whose scenario fails
//!   [`Scenario::validate`](scalagraph_conformance::Scenario::validate) is
//!   refused as [`FailureReason::Malformed`], and one whose
//!   [`estimated_graph_bytes`] exceed the graph cache's byte budget as
//!   [`FailureReason::OverBudget`], both before any graph is built — a
//!   typed refusal, never a smaller graph than the one asked for;
//! * graphs come from the shared [`GraphCache`], one build per spec;
//! * each job runs under one `catch_unwind`, graph build included, so a
//!   panicking job is one `Failed(Panicked)` outcome and its worker keeps
//!   serving;
//! * shutdown cancels in-flight jobs and drains the queue into
//!   `Cancelled { at_cycle: None }` outcomes.
//!
//! The ledger: every submitted job lands in exactly one terminal bucket,
//! `submitted == completed + failed + cancelled + rejected`, counted in the
//! shared [`ServiceMetrics`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scalagraph::{CancelToken, SimError};
use scalagraph_telemetry::ServiceMetrics;

use crate::graphcache::{estimated_graph_bytes, GraphCache};
use crate::job::{FailureReason, JobId, JobOutcome, JobSpec, JobStatus, Rejection};
use crate::queue::AdmissionQueue;
use crate::recover;
use crate::runner::{run_attempt_on, AttemptError, AttemptOverrides};

/// How often the supervisor checks deadlines and, while draining, cancels
/// running jobs.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Knobs of the executor (and of a batch run on it).
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Wall-clock deadline of every job's simulation; `None` for none.
    pub default_deadline: Option<Duration>,
    /// Wall-clock ceiling on a whole [`BatchRuntime::run`](crate::BatchRuntime::run):
    /// when it expires, the batch stops waiting and shuts the executor
    /// down. The executor itself ignores it.
    pub global_deadline: Option<Duration>,
    /// Simulated-cycle ceiling: a job still running at this cycle ends
    /// `DeadlineExceeded` on exactly that cycle, in any execution mode.
    pub max_cycles: Option<u64>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            queue_capacity: 256,
            default_deadline: None,
            global_deadline: None,
            max_cycles: None,
        }
    }
}

/// A job admitted to the queue, waiting for a worker.
struct Queued {
    id: JobId,
    spec: JobSpec,
    admitted: Instant,
    reply: Sender<JobOutcome>,
}

/// Supervisor-visible state of a job a worker is running.
struct Active {
    started: Instant,
    token: CancelToken,
}

/// What the workers and the supervisor share.
struct Pool {
    config: RuntimeConfig,
    queue: AdmissionQueue<Queued>,
    graphs: Arc<GraphCache>,
    metrics: Arc<ServiceMetrics>,
    active: Mutex<HashMap<JobId, Active>>,
    /// Set by [`Executor::shutdown`]: cancel everything running.
    draining: AtomicBool,
    /// Set once every worker has joined: the supervisor exits.
    joined: AtomicBool,
}

/// The worker pool. Start with [`Executor::start`], feed with
/// [`Executor::submit`], end with [`Executor::shutdown`].
pub struct Executor {
    pool: Arc<Pool>,
    next_id: AtomicUsize,
    spawned: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl Executor {
    /// Spawns the workers and the deadline supervisor.
    pub fn start(
        config: RuntimeConfig,
        metrics: Arc<ServiceMetrics>,
        graphs: Arc<GraphCache>,
    ) -> Self {
        let pool = Arc::new(Pool {
            config,
            queue: AdmissionQueue::new(config.queue_capacity.max(1)),
            graphs,
            metrics,
            active: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            joined: AtomicBool::new(false),
        });
        let spawned = config.workers.max(1);
        let workers = (0..spawned)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    while let Some(job) = pool.queue.pop() {
                        pool.metrics.queue_left();
                        pool.run(job);
                    }
                })
            })
            .collect();
        let supervisor = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let deadline = pool.config.default_deadline;
                while !pool.joined.load(Ordering::Acquire) {
                    let draining = pool.draining.load(Ordering::Acquire);
                    for job in recover(pool.active.lock()).values() {
                        if draining {
                            job.token.cancel();
                        } else if deadline.is_some_and(|d| job.started.elapsed() >= d) {
                            job.token.expire();
                        }
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
            })
        };
        Executor {
            pool,
            next_id: AtomicUsize::new(0),
            spawned,
            workers: Mutex::new(workers),
            supervisor: Mutex::new(Some(supervisor)),
        }
    }

    /// Worker threads spawned.
    pub fn workers(&self) -> usize {
        self.spawned
    }

    /// The graph cache jobs resolve their graphs through.
    pub fn graph_cache(&self) -> &Arc<GraphCache> {
        &self.pool.graphs
    }

    /// Submits one job; its [`JobOutcome`] arrives on `reply`. Ids count
    /// submissions, accepted or not, from 0 in call order.
    ///
    /// # Errors
    ///
    /// The [`Rejection`] when admission control refuses the job (queue
    /// full, or shutting down). The ledger counts it as rejected and
    /// nothing arrives on `reply`.
    pub fn submit(&self, spec: JobSpec, reply: Sender<JobOutcome>) -> Result<JobId, Rejection> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let metrics = &self.pool.metrics;
        metrics.job_submitted();
        let job = Queued {
            id,
            spec,
            admitted: Instant::now(),
            reply,
        };
        // The gauge rises before the job becomes visible: a worker that
        // pops it decrements at once, and entering after the push would
        // let the depth underflow under a fast consumer.
        metrics.queue_entered();
        self.pool.queue.try_push(job).inspect_err(|&rejection| {
            metrics.queue_left();
            count(metrics, &JobStatus::Rejected { rejection });
        })?;
        Ok(id)
    }

    /// Stops the pool: refuses new work, turns everything still queued
    /// into `Cancelled { at_cycle: None }` outcomes, cancels running jobs
    /// cooperatively, and joins every thread. Returns the workers that
    /// joined in this call; a second call finds nothing left and returns 0.
    pub fn shutdown(&self) -> usize {
        let pool = &self.pool;
        pool.draining.store(true, Ordering::Release);
        for job in pool.queue.drain() {
            pool.metrics.queue_left();
            pool.finish(job, JobStatus::Cancelled { at_cycle: None });
        }
        // The supervisor cancels running jobs until every worker is back.
        let workers: Vec<JoinHandle<()>> = recover(self.workers.lock()).drain(..).collect();
        let joined = workers.into_iter().filter_map(|w| w.join().ok()).count();
        pool.joined.store(true, Ordering::Release);
        if let Some(supervisor) = recover(self.supervisor.lock()).take() {
            let _ = supervisor.join();
        }
        joined
    }
}

impl Pool {
    /// Runs one job to its terminal status on the calling worker and
    /// replies.
    fn run(&self, job: Queued) {
        self.metrics.worker_busy();
        let status = self.status(job.id, &job.spec);
        self.metrics.worker_idle();
        self.finish(job, status);
    }

    /// Counts a terminal status in the ledger and sends the outcome.
    fn finish(&self, job: Queued, status: JobStatus) {
        count(&self.metrics, &status);
        let _ = job.reply.send(JobOutcome {
            job: job.id,
            name: job.spec.scenario.name,
            status,
            wall_ms: job.admitted.elapsed().as_millis() as u64,
        });
    }

    fn status(&self, id: JobId, spec: &JobSpec) -> JobStatus {
        // A drain that began after this job was popped cancels it before
        // any work is spent.
        if self.draining.load(Ordering::Acquire) {
            return JobStatus::Cancelled { at_cycle: None };
        }
        if let Err(message) = spec.scenario.validate() {
            return failed(FailureReason::Malformed { message });
        }
        let budget = self.graphs.byte_budget();
        let estimated = estimated_graph_bytes(&spec.scenario.graph);
        if estimated > budget {
            return failed(FailureReason::OverBudget { estimated, budget });
        }
        // One panic boundary around the whole job, graph build included.
        let status = catch_unwind(AssertUnwindSafe(|| self.attempt(id, spec)));
        recover(self.active.lock()).remove(&id);
        status.unwrap_or_else(|payload| {
            self.metrics.panic_contained();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            failed(FailureReason::Panicked { message })
        })
    }

    /// Fetches the job's graph and simulates it. The deadline clock starts
    /// with the simulation, after the fetch.
    fn attempt(&self, id: JobId, spec: &JobSpec) -> JobStatus {
        let graph = match self.graphs.fetch(&spec.scenario.graph) {
            Ok(fetched) => fetched.graph,
            Err(message) => return failed(FailureReason::Malformed { message }),
        };
        let token = CancelToken::new();
        recover(self.active.lock()).insert(
            id,
            Active {
                started: Instant::now(),
                token: token.clone(),
            },
        );
        if spec.inject_panic {
            panic!("injected test panic");
        }
        let overrides = AttemptOverrides {
            cycle_limit: self.config.max_cycles,
        };
        match run_attempt_on(&spec.scenario, &graph, overrides, &token) {
            Ok(metrics) => JobStatus::Completed { metrics },
            Err(AttemptError::Malformed(message)) => failed(FailureReason::Malformed { message }),
            Err(AttemptError::Sim(SimError::Cancelled { cycle, .. })) => JobStatus::Cancelled {
                at_cycle: Some(cycle),
            },
            Err(AttemptError::Sim(SimError::DeadlineExceeded { cycle, .. })) => {
                JobStatus::DeadlineExceeded {
                    at_cycle: Some(cycle),
                }
            }
            Err(AttemptError::Sim(e)) => failed(FailureReason::Sim {
                variant: e.variant().to_string(),
                message: e.to_string(),
            }),
        }
    }
}

fn failed(reason: FailureReason) -> JobStatus {
    JobStatus::Failed { reason }
}

/// Bumps the ledger bucket of a terminal status.
fn count(metrics: &ServiceMetrics, status: &JobStatus) {
    match status {
        JobStatus::Completed { .. } => metrics.job_completed(),
        JobStatus::Failed { .. } => metrics.job_failed(),
        JobStatus::Cancelled { .. } => metrics.job_cancelled(),
        JobStatus::DeadlineExceeded { .. } => {
            metrics.deadline_kill();
            metrics.job_cancelled();
        }
        JobStatus::Rejected { .. } => metrics.job_rejected(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{healthy, wedge};
    use std::sync::mpsc::{channel, Receiver};

    fn start(config: RuntimeConfig) -> (Executor, Arc<ServiceMetrics>) {
        let metrics = Arc::new(ServiceMetrics::new());
        let executor = Executor::start(
            config,
            Arc::clone(&metrics),
            Arc::new(GraphCache::with_default_capacity()),
        );
        (executor, metrics)
    }

    fn submit(executor: &Executor, spec: JobSpec) -> Result<Receiver<JobOutcome>, Rejection> {
        let (tx, rx) = channel();
        executor.submit(spec, tx).map(|_| rx)
    }

    #[test]
    fn queue_overflow_is_a_typed_rejection_and_still_balances() {
        let (executor, metrics) = start(RuntimeConfig {
            workers: 1,
            queue_capacity: 1,
            ..RuntimeConfig::default()
        });
        let mut receivers = Vec::new();
        let mut rejected = 0u64;
        for i in 0..12 {
            match submit(&executor, JobSpec::new(healthy(&format!("burst-{i}")))) {
                Ok(rx) => receivers.push(rx),
                Err(rejection) => {
                    assert_eq!(rejection, Rejection::QueueFull { capacity: 1 });
                    rejected += 1;
                }
            }
        }
        for rx in receivers {
            let outcome = rx.recv().expect("an admitted job replies");
            assert!(matches!(outcome.status, JobStatus::Completed { .. }));
        }
        assert_eq!(executor.shutdown(), 1);
        let counters = metrics.snapshot();
        assert!(counters.balanced(), "{counters}");
        assert_eq!(counters.rejected, rejected);
        assert!(rejected > 0, "capacity 1 under a 12-burst must reject");
    }

    #[test]
    fn shutdown_mid_drain_closes_the_ledger() {
        // One worker grinding a wedge; several jobs queued behind it. The
        // drain must cancel the runner, refuse the queued work, and leave
        // a balanced ledger.
        let (executor, metrics) = start(RuntimeConfig {
            workers: 1,
            queue_capacity: 64,
            ..RuntimeConfig::default()
        });
        let wedge_rx = submit(&executor, JobSpec::new(wedge("wedge"))).expect("admitted");
        let queued: Vec<_> = (0..5)
            .map(|i| submit(&executor, JobSpec::new(healthy(&format!("queued-{i}")))))
            .collect::<Result<_, _>>()
            .expect("admitted");
        // Let the wedge actually start spinning before draining.
        let waited = Instant::now();
        while metrics.snapshot().workers_busy == 0 {
            assert!(
                waited.elapsed() < Duration::from_secs(10),
                "wedge never started"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        executor.shutdown();

        let wedge = wedge_rx.recv().expect("wedge reply");
        assert!(
            matches!(wedge.status, JobStatus::Cancelled { at_cycle: Some(_) }),
            "wedge cancelled cooperatively: {wedge}"
        );
        for rx in queued {
            let outcome = rx.recv().expect("queued reply");
            assert_eq!(outcome.status, JobStatus::Cancelled { at_cycle: None });
        }
        let counters = metrics.snapshot();
        assert!(counters.balanced(), "ledger closes mid-drain: {counters}");
        assert_eq!(counters.cancelled, 6, "{counters}");
        assert_eq!(counters.submitted, 6);
        assert_eq!(counters.workers_busy, 0);
        assert_eq!(executor.shutdown(), 0, "a second shutdown joins nothing");
    }

    #[test]
    fn submissions_after_shutdown_start_are_rejected() {
        let (executor, metrics) = start(RuntimeConfig::default());
        executor.shutdown();
        assert_eq!(
            submit(&executor, JobSpec::new(healthy("late"))).err(),
            Some(Rejection::ShuttingDown)
        );
        let counters = metrics.snapshot();
        assert!(counters.balanced(), "{counters}");
        assert_eq!(counters.rejected, 1);
    }

    #[test]
    fn ids_count_submissions_in_call_order() {
        let (executor, _) = start(RuntimeConfig::default());
        let (tx, rx) = channel();
        let first = executor.submit(JobSpec::new(healthy("a")), tx.clone());
        let second = executor.submit(JobSpec::new(healthy("b")), tx);
        assert_eq!((first, second), (Ok(0), Ok(1)));
        let mut names: Vec<(JobId, String)> = rx.iter().take(2).map(|o| (o.job, o.name)).collect();
        names.sort();
        assert_eq!(names, vec![(0, "a".to_string()), (1, "b".to_string())]);
        executor.shutdown();
    }
}
