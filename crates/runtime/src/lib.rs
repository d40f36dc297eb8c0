//! The execution runtime for simulation-as-a-service.
//!
//! This crate runs conformance
//! [`Scenario`](scalagraph_conformance::Scenario)s *at scale*: hundreds of
//! jobs, bounded resources, and hostile inputs (wedges, panics, oversized
//! graphs) that must never take the service down with them. It has one
//! worker pool, the [`Executor`], which both the batch runner and the
//! serve daemon use. A job the pool cannot run as asked is refused with a
//! typed outcome; it is never retried under another seed or shrunk to fit.
//!
//! | layer | module | guarantee |
//! |-------|--------|-----------|
//! | admission control | [`queue`] | one bounded FIFO, typed [`Rejection`](job::Rejection) instead of unbounded growth |
//! | deadlines & cancellation | [`executor`] + [`runner`] | the configured wall-clock deadline expires a [`CancelToken`](scalagraph::CancelToken) polled in the simulator hot loop |
//! | byte budget | [`executor`] + [`graphcache`] | a job whose estimated graph exceeds the cache's byte budget fails `OverBudget` before anything is built |
//! | panic isolation | [`executor`] | one `catch_unwind` around the whole job, graph build included; a panicking job is one failed outcome |
//! | shared graphs | [`graphcache`] | one [`GraphCache`] build per distinct spec, LRU-bounded |
//! | single flight | [`flightcache`] | one [`FlightCache`] under the graph cache and the serve memo: one producer per key, and a producer that fails or panics hands the key to the next caller |
//! | batches | [`batch`] | submit N jobs, collect N outcomes, check the ledger |
//!
//! The load-bearing invariant is the **ledger**: every submitted job lands
//! in exactly one terminal bucket, so
//! `submitted == completed + failed + cancelled + rejected` after every
//! batch ([`BatchReport::balanced`]) and at every daemon shutdown.
//!
//! ```
//! use scalagraph_runtime::{BatchRuntime, JobSpec, RuntimeConfig};
//! # use scalagraph_conformance::scenario::{AlgoSpec, ConfigSpec, Expectation, Family, ModeMatrix};
//! # use scalagraph_conformance::{GraphSource, GraphSpec, Scenario};
//! # let scenario = Scenario {
//! #     name: "doc".into(),
//! #     graph: GraphSpec {
//! #         family: Family::Uniform { vertices: 64, edges: 256, seed: 7 },
//! #         symmetrize: false,
//! #         max_weight: 0,
//! #         weight_seed: 0,
//! #         source: GraphSource::Generate,
//! #     },
//! #     algo: AlgoSpec::Bfs { root: 0 },
//! #     config: ConfigSpec::small(),
//! #     fault_seed: 0,
//! #     faults: Vec::new(),
//! #     modes: ModeMatrix::sim_only(),
//! #     expect: Expectation::Converge,
//! #     strict_frontier: None,
//! #     synthetic_bug: false,
//! #     mutations: None,
//! # };
//! let runtime = BatchRuntime::new(RuntimeConfig::default());
//! let report = runtime.run(vec![JobSpec::new(scenario)]);
//! assert!(report.balanced());
//! assert_eq!(report.counters.completed, 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod executor;
pub mod flightcache;
pub mod graphcache;
pub mod job;
pub mod queue;
pub mod runner;

pub use batch::{BatchReport, BatchRuntime};
pub use executor::{Executor, RuntimeConfig};
pub use flightcache::{Flight, FlightCache, FlightGuard, FlightStats};
pub use graphcache::{
    estimated_graph_bytes, estimated_scenario_bytes, Fetched, GraphCache, GraphCacheStats,
    DEFAULT_GRAPH_CACHE_BYTES,
};
pub use job::{FailureReason, JobId, JobMetrics, JobOutcome, JobSpec, JobStatus, Rejection};
pub use queue::AdmissionQueue;
pub use runner::{run_attempt_on, AttemptError, AttemptOverrides};

use std::sync::{LockResult, MutexGuard};

/// The guard of a poisoned lock: a thread that panicked while holding it
/// must not wedge the pool, so the others keep serving.
fn recover<T>(lock: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    lock.unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
pub(crate) mod test_support {
    use scalagraph::fault::{Fault, FaultKind};
    use scalagraph_conformance::scenario::{AlgoSpec, ConfigSpec, Expectation, Family, ModeMatrix};
    use scalagraph_conformance::{GraphSource, GraphSpec, Scenario};

    /// A small scenario that converges in milliseconds.
    pub fn healthy(name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            graph: GraphSpec {
                family: Family::Uniform {
                    vertices: 64,
                    edges: 256,
                    seed: 7,
                },
                symmetrize: false,
                max_weight: 0,
                weight_seed: 0,
                source: GraphSource::Generate,
            },
            algo: AlgoSpec::Bfs { root: 0 },
            config: ConfigSpec::small(),
            fault_seed: 0,
            faults: Vec::new(),
            modes: ModeMatrix::sim_only(),
            expect: Expectation::Converge,
            strict_frontier: None,
            synthetic_bug: false,
            mutations: None,
        }
    }

    /// A scenario that can never converge: the watchdog is disabled and a
    /// permanent HBM stall (the corpus wedge scenario's fault) freezes all
    /// progress, so only an external deadline or cancellation can end it.
    pub fn wedge(name: &str) -> Scenario {
        let mut s = healthy(name);
        s.graph.family = Family::Uniform {
            vertices: 400,
            edges: 3000,
            seed: 4,
        };
        s.config.watchdog_stall_cycles = 0;
        s.modes.fast_forward = false;
        s.faults = vec![Fault::new(FaultKind::HbmStall {
            tile: 0,
            channel: 0,
            cycles: u64::MAX, // pins the channel forever once applied
        })
        .window(20, 21)];
        s.fault_seed = 1;
        s.expect = Expectation::Wedge {
            suspect_contains: String::new(),
        };
        s
    }
}
