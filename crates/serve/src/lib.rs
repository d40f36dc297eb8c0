//! Simulation-as-a-service: a long-lived daemon in front of the ScalaGraph
//! simulator.
//!
//! The runtime ([`scalagraph_runtime`]) runs scenarios on its one worker
//! pool; this crate keeps that pool running for many concurrent clients,
//! without redoing work:
//!
//! | layer | module | what it adds |
//! |-------|--------|--------------|
//! | transport | [`server`] + [`http`] | one port speaking HTTP/1.1, one request per connection; a first line that is not an HTTP request line is refused at once |
//! | protocol | [`protocol`] | strict scenario parsing with typed error responses — malformed input never drops a connection or panics the daemon |
//! | memoization | [`memo`] | completed results replayed byte-for-byte for identical requests, checked before admission; the memo is the runtime's single-flight [`FlightCache`](scalagraph_runtime::FlightCache) |
//! | execution | [`scalagraph_runtime::Executor`] | the runtime's worker pool behind its bounded FIFO admission queue |
//! | graph sharing | [`scalagraph_runtime::GraphCache`] | one CSR build per distinct graph spec for the daemon's lifetime, on the same `FlightCache`, within a 2 GiB byte budget by default |
//!
//! The runtime's ledger invariant
//! (`submitted == completed + failed + cancelled + rejected`) holds for
//! the daemon too and is re-checked at shutdown, *including* a shutdown
//! that lands mid-drain with jobs queued and simulations in flight.
//!
//! Two binaries ship with the crate: `scalagraph-serve` (the daemon) and
//! `loadgen` (a corpus-replaying load generator that writes
//! `BENCH_serve.json`).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod http;
pub mod memo;
pub mod protocol;
pub mod server;

pub use memo::{memo_key, Memo, MemoCache, MemoGuard, MemoStats};
pub use protocol::ErrorReply;
pub use server::{render_metrics_text, ServeConfig, Server};

#[cfg(test)]
pub(crate) mod test_support {
    use scalagraph::fault::{Fault, FaultKind};
    use scalagraph_conformance::scenario::{AlgoSpec, ConfigSpec, Expectation, Family, ModeMatrix};
    use scalagraph_conformance::{GraphSource, GraphSpec, Scenario};

    /// A small scenario that converges quickly; the standard fixture for
    /// serve-side unit tests.
    pub fn healthy_scenario(name: &str) -> Scenario {
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

    /// A scenario that can never converge: the watchdog is off and an HBM
    /// channel is pinned forever, so only a deadline or a cancellation can
    /// end it.
    pub fn wedge_scenario(name: &str) -> Scenario {
        let mut s = healthy_scenario(name);
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
            cycles: u64::MAX,
        })
        .window(20, 21)];
        s.fault_seed = 1;
        s
    }
}
