//! Service-level metrics for job execution.
//!
//! The rest of this crate watches a *single* simulation from the inside.
//! This module watches a *fleet* of simulations from the outside: how many
//! jobs were admitted, rejected, killed by a deadline, contained after a
//! panic. A [`ServiceMetrics`] is a bag of atomic counters an executor's
//! workers bump from many threads without coordination;
//! [`ServiceCounters`] is a plain snapshot for reporting.
//!
//! The counters are deliberately monotonic (except the queue-depth and
//! busy-worker gauges):
//! a balanced ledger — `submitted == completed + failed + cancelled +
//! rejected` — is the batch runtime's core invariant, and monotonic
//! counters make the check meaningful at any observation point after the
//! run drains.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters an executor bumps while it runs.
///
/// All methods take `&self`; relaxed ordering everywhere since the counters
/// are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    deadline_kills: AtomicU64,
    panics_contained: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    workers_busy: AtomicU64,
    // Serve-side counters: a long-lived daemon watches its wire traffic
    // with the same metrics bag its executor already bumps. Cache hits are
    // counted by the caches themselves.
    connections: AtomicU64,
    requests_ok: AtomicU64,
    requests_error: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

macro_rules! bump {
    ($($(#[$doc:meta])* $name:ident => $field:ident),+ $(,)?) => {$(
        $(#[$doc])*
        pub fn $name(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }
    )+};
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    bump! {
        /// A job entered the runtime (before admission control).
        job_submitted => submitted,
        /// Admission control turned a job away (queue full or shutdown).
        job_rejected => rejected,
        /// A job finished with a usable result.
        job_completed => completed,
        /// A job ended in an error outcome (sim error, panic, malformed
        /// spec, over budget).
        job_failed => failed,
        /// A job was cancelled (explicitly or by a deadline) before
        /// completing.
        job_cancelled => cancelled,
        /// A deadline expiry was the cancellation cause. Subset of
        /// [`ServiceMetrics::job_cancelled`].
        deadline_kill => deadline_kills,
        /// A worker caught a panic and converted it into a structured
        /// outcome.
        panic_contained => panics_contained,
        /// A client connection accepted by the serve listener got its
        /// handler thread.
        conn_opened => connections,
        /// A request was answered with a protocol-level success.
        request_ok => requests_ok,
        /// A request was answered with a typed error response.
        request_error => requests_error,
    }

    /// Adds request bytes read off the wire.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds response bytes written to the wire.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a job entering the admission queue.
    ///
    /// Callers must bump this *before* the job becomes visible to a
    /// consumer, so no consumer's [`queue_left`](Self::queue_left) can
    /// observe the gauge before its matching increment.
    pub fn queue_entered(&self) {
        let depth = self
            .queue_depth
            .fetch_add(1, Ordering::Relaxed)
            .saturating_add(1);
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a job leaving the admission queue. Saturates at zero: a
    /// stray decrement degrades the gauge instead of wrapping it to
    /// `u64::MAX`.
    pub fn queue_left(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Records a worker starting a job it popped.
    pub fn worker_busy(&self) {
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker done with its job, before the job's reply is sent.
    /// Saturates at zero like [`queue_left`](Self::queue_left).
    pub fn worker_idle(&self) {
        let _ = self
            .workers_busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// A point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> ServiceCounters {
        ServiceCounters {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_kills: self.deadline_kills.load(Ordering::Relaxed),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            workers_busy: self.workers_busy.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_error: self.requests_error.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Plain snapshot of a [`ServiceMetrics`] (all counts observed together).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Jobs submitted to the runtime.
    pub submitted: u64,
    /// Jobs turned away by admission control.
    pub rejected: u64,
    /// Jobs that completed with a result.
    pub completed: u64,
    /// Jobs that ended in an error outcome.
    pub failed: u64,
    /// Jobs cancelled before completion (includes deadline kills).
    pub cancelled: u64,
    /// Cancellations caused by a deadline expiry.
    pub deadline_kills: u64,
    /// Panics caught and contained by workers.
    pub panics_contained: u64,
    /// Jobs sitting in the admission queue right now.
    pub queue_depth: u64,
    /// High-water mark of the admission queue.
    pub queue_peak: u64,
    /// Jobs a worker is running right now.
    pub workers_busy: u64,
    /// Client connections accepted by the serve listener and given a
    /// handler thread.
    pub connections: u64,
    /// Requests answered with a protocol-level success.
    pub requests_ok: u64,
    /// Requests answered with a typed error response.
    pub requests_error: u64,
    /// Request bytes read off the wire.
    pub bytes_in: u64,
    /// Response bytes written to the wire.
    pub bytes_out: u64,
}

impl ServiceCounters {
    /// Whether every submitted job is accounted for by exactly one terminal
    /// bucket. Batch runs and the daemon check this after draining.
    pub fn balanced(&self) -> bool {
        self.submitted == self.completed + self.failed + self.cancelled + self.rejected
    }
}

impl std::fmt::Display for ServiceCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "jobs: {} submitted = {} completed + {} failed + {} cancelled + {} rejected ({})",
            self.submitted,
            self.completed,
            self.failed,
            self.cancelled,
            self.rejected,
            if self.balanced() {
                "balanced"
            } else {
                "UNBALANCED"
            }
        )?;
        write!(
            f,
            "resilience: {} deadline kills, {} panics contained, queue peak {}",
            self.deadline_kills, self.panics_contained, self.queue_peak
        )?;
        // The serve line only appears once the metrics have actually seen
        // wire traffic, so batch-mode output is unchanged.
        if self.connections > 0 || self.requests_ok + self.requests_error > 0 {
            write!(
                f,
                "\nserve: {} conns, {} ok + {} error responses, {} B in / {} B out",
                self.connections,
                self.requests_ok,
                self.requests_error,
                self.bytes_in,
                self.bytes_out
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = ServiceMetrics::new();
        for _ in 0..5 {
            m.job_submitted();
        }
        m.job_completed();
        m.job_completed();
        m.job_failed();
        m.job_cancelled();
        m.deadline_kill();
        m.job_rejected();
        m.panic_contained();
        let c = m.snapshot();
        assert_eq!(c.submitted, 5);
        assert_eq!(c.completed, 2);
        assert_eq!(c.failed, 1);
        assert_eq!(c.cancelled, 1);
        assert_eq!(c.rejected, 1);
        assert_eq!(c.deadline_kills, 1);
        assert!(c.balanced(), "{c}");
    }

    #[test]
    fn queue_gauge_tracks_depth_and_peak() {
        let m = ServiceMetrics::new();
        m.queue_entered();
        m.queue_entered();
        m.queue_entered();
        m.queue_left();
        let c = m.snapshot();
        assert_eq!(c.queue_depth, 2);
        assert_eq!(c.queue_peak, 3);
    }

    #[test]
    fn busy_gauge_tracks_running_jobs_and_saturates() {
        let m = ServiceMetrics::new();
        m.worker_busy();
        m.worker_busy();
        m.worker_idle();
        assert_eq!(m.snapshot().workers_busy, 1);
        m.worker_idle();
        m.worker_idle(); // stray decrement: must not wrap
        assert_eq!(m.snapshot().workers_busy, 0);
    }

    #[test]
    fn queue_gauge_saturates_at_zero_instead_of_wrapping() {
        let m = ServiceMetrics::new();
        m.queue_left(); // stray decrement: must not wrap to u64::MAX
        assert_eq!(m.snapshot().queue_depth, 0);
        m.queue_entered(); // ...and must not overflow-panic afterwards
        let c = m.snapshot();
        assert_eq!(c.queue_depth, 1);
        assert_eq!(c.queue_peak, 1);
    }

    #[test]
    fn serve_counters_accumulate_and_render_only_when_used() {
        let m = ServiceMetrics::new();
        assert!(
            !format!("{}", m.snapshot()).contains("serve:"),
            "idle metrics must not grow a serve line"
        );
        m.conn_opened();
        m.request_ok();
        m.request_ok();
        m.request_error();
        m.add_bytes_in(120);
        m.add_bytes_out(480);
        let c = m.snapshot();
        assert_eq!(c.connections, 1);
        assert_eq!(c.requests_ok, 2);
        assert_eq!(c.requests_error, 1);
        assert_eq!((c.bytes_in, c.bytes_out), (120, 480));
        let line = format!("{c}");
        assert!(line.contains("serve: 1 conns"), "{line}");
        assert!(line.contains("120 B in / 480 B out"), "{line}");
    }

    #[test]
    fn unbalanced_ledger_is_detected() {
        let m = ServiceMetrics::new();
        m.job_submitted();
        m.job_submitted();
        m.job_completed();
        let c = m.snapshot();
        assert!(!c.balanced());
        assert!(format!("{c}").contains("UNBALANCED"));
    }

    #[test]
    fn metrics_are_shareable_across_threads() {
        let m = std::sync::Arc::new(ServiceMetrics::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.job_submitted();
                        m.job_completed();
                    }
                });
            }
        });
        let c = m.snapshot();
        assert_eq!(c.submitted, 4000);
        assert_eq!(c.completed, 4000);
        assert!(c.balanced());
    }
}
