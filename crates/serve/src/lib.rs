//! Simulation-as-a-service: a long-lived daemon in front of the ScalaGraph
//! simulator.
//!
//! The runtime ([`scalagraph_runtime`]) runs scenarios on its one worker
//! pool; this crate keeps that pool running for many concurrent clients,
//! without redoing work:
//!
//! | layer | module | what it adds |
//! |-------|--------|--------------|
//! | transports | [`server`] + [`http`] | one port speaking line-delimited JSON *and* HTTP/1.1, sniffed per connection |
//! | protocol | [`protocol`] | strict parsing with typed error responses — malformed input never drops a connection or panics the daemon |
//! | memoization | [`memo`] | completed results replayed byte-for-byte for identical requests, checked before admission; the memo is the runtime's single-flight [`FlightCache`](scalagraph_runtime::FlightCache) |
//! | execution | [`scalagraph_runtime::Executor`] | the runtime's worker pool behind its bounded two-lane admission queue |
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
pub use protocol::{Control, ErrorReply, Request};
pub use server::{render_metrics_text, ServeConfig, Server};

#[cfg(test)]
pub(crate) mod test_support {
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
}
