//! Job vocabulary: what enters the runtime and what comes out.
//!
//! A [`JobSpec`] wraps one conformance [`Scenario`] with scheduling
//! metadata (priority lane, per-job wall-clock deadline). Every submitted
//! job produces exactly one [`JobOutcome`] whose [`JobStatus`] lands in
//! exactly one ledger bucket — completed, failed, cancelled, or rejected —
//! so `submitted == completed + failed + cancelled + rejected` always
//! balances.

use std::time::Duration;

use scalagraph_conformance::Scenario;

/// Executor-assigned job identifier: submissions counted from 0, so in a
/// batch it is the index of the spec and outcomes correlate with inputs
/// positionally.
pub type JobId = usize;

/// Admission lane. High-priority jobs are popped before normal ones but
/// share the same bounded capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// FIFO behind any high-priority work.
    #[default]
    Normal,
    /// Popped ahead of the normal lane (FIFO within the lane).
    High,
}

/// One unit of work for the executor.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The scenario to simulate.
    pub scenario: Scenario,
    /// Admission lane.
    pub priority: Priority,
    /// Per-job wall-clock deadline; `None` uses the runtime default.
    pub deadline: Option<Duration>,
    /// Test-only hook: the worker panics instead of running the scenario,
    /// exercising panic isolation end to end.
    #[doc(hidden)]
    pub inject_panic: bool,
}

impl JobSpec {
    /// A normal-priority job with the runtime's default deadline.
    pub fn new(scenario: Scenario) -> Self {
        JobSpec {
            scenario,
            priority: Priority::Normal,
            deadline: None,
            inject_panic: false,
        }
    }

    /// Sets the admission lane.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a per-job wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why admission control turned a job away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded admission queue was at capacity.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The runtime is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejection::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

/// Why a job ended in the failed bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// The simulation surfaced a [`SimError`](scalagraph::SimError).
    Sim {
        /// Variant name (`WatchdogStall`, `FaultUnrecoverable`, ...).
        variant: String,
        /// Rendered error message.
        message: String,
    },
    /// The scenario could not be built (bad graph spec, root out of
    /// range, invalid configuration).
    Malformed {
        /// What was wrong.
        message: String,
    },
    /// The worker caught a panic while running this job. The pool keeps
    /// serving other jobs.
    Panicked {
        /// Rendered panic payload.
        message: String,
    },
    /// The job's estimated graph exceeds the graph cache's byte budget;
    /// refused before anything was built.
    OverBudget {
        /// Estimated demand (bytes).
        estimated: u64,
        /// The configured ceiling (bytes).
        budget: u64,
    },
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::Sim { variant, message } => write!(f, "{variant}: {message}"),
            FailureReason::Malformed { message } => write!(f, "malformed scenario: {message}"),
            FailureReason::Panicked { message } => write!(f, "worker panicked: {message}"),
            FailureReason::OverBudget { estimated, budget } => write!(
                f,
                "over budget: estimated {estimated} bytes exceeds ceiling {budget} bytes"
            ),
        }
    }
}

/// Headline counters of a completed simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobMetrics {
    /// Iterations until convergence.
    pub iterations: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Edges traversed.
    pub traversed_edges: u64,
}

/// Terminal state of a job. Exactly one per submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// The simulation converged.
    Completed {
        /// Headline counters.
        metrics: JobMetrics,
    },
    /// The job ended in an error (ledger bucket: failed).
    Failed {
        /// What went wrong.
        reason: FailureReason,
    },
    /// Cooperative cancellation landed before completion (ledger bucket:
    /// cancelled).
    Cancelled {
        /// Simulated cycle the engine observed the signal on, when the
        /// simulation was already running.
        at_cycle: Option<u64>,
    },
    /// A wall-clock deadline expired (ledger bucket: cancelled; counted as
    /// a deadline kill).
    DeadlineExceeded {
        /// Simulated cycle the engine observed the expiry on, when the
        /// simulation was already running.
        at_cycle: Option<u64>,
    },
    /// Admission control refused the job (ledger bucket: rejected).
    Rejected {
        /// Why.
        rejection: Rejection,
    },
}

impl JobStatus {
    /// Short machine-readable label (stable; used by the CLI records).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Completed { .. } => "completed",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Cancelled { .. } => "cancelled",
            JobStatus::DeadlineExceeded { .. } => "deadline-exceeded",
            JobStatus::Rejected { .. } => "rejected",
        }
    }
}

/// The record the executor emits for each submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Runtime-assigned id (submission index).
    pub job: JobId,
    /// Scenario name.
    pub name: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Wall-clock milliseconds from admission to terminal state.
    pub wall_ms: u64,
}

impl std::fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {:>4} {:<32} {:<18} wall_ms={}",
            self.job,
            self.name,
            self.status.label(),
            self.wall_ms
        )?;
        match &self.status {
            JobStatus::Failed { reason } => write!(f, " ({reason})"),
            JobStatus::Rejected { rejection } => write!(f, " ({rejection})"),
            JobStatus::Cancelled { at_cycle: Some(c) }
            | JobStatus::DeadlineExceeded { at_cycle: Some(c) } => write!(f, " (at cycle {c})"),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_labels_are_stable() {
        assert_eq!(
            JobStatus::Completed {
                metrics: JobMetrics::default()
            }
            .label(),
            "completed"
        );
        assert_eq!(
            JobStatus::Rejected {
                rejection: Rejection::QueueFull { capacity: 4 }
            }
            .label(),
            "rejected"
        );
        assert_eq!(
            JobStatus::DeadlineExceeded { at_cycle: None }.label(),
            "deadline-exceeded"
        );
    }

    #[test]
    fn outcome_rendering_names_the_cause() {
        let outcome = JobOutcome {
            job: 3,
            name: "wedge".into(),
            status: JobStatus::Failed {
                reason: FailureReason::Panicked {
                    message: "boom".into(),
                },
            },
            wall_ms: 12,
        };
        let line = outcome.to_string();
        assert!(line.contains("failed"), "{line}");
        assert!(line.contains("worker panicked: boom"), "{line}");
    }
}
