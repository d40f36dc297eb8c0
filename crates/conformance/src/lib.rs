//! Differential conformance harness for the ScalaGraph reproduction.
//!
//! The simulator's correctness story rests on redundancy: the same
//! algorithm on the same graph must agree across the sequential reference
//! engine, the cycle-accurate ScalaGraph simulation in each of its
//! execution modes (stepped, fast-forward, recording), and the GraphDynS /
//! Gunrock baseline models. This crate turns that redundancy into an
//! executable oracle:
//!
//! - [`scenario`] — a serializable [`Scenario`](scenario::Scenario) pinning
//!   graph generator + seed, algorithm, accelerator configuration, fault
//!   schedule (the engine's own [`Fault`](scalagraph::fault::Fault)s), and
//!   the engine/mode matrix; JSON round-trips bit-exactly so scenarios can
//!   live in a checked-in `corpus/`, and
//!   [`Scenario::validate`](scenario::Scenario::validate) is the one rule
//!   set every front end checks before running one.
//! - [`oracle`] — runs one scenario across every declared combination and
//!   diffs final properties, iteration counts, traversed-edge totals, full
//!   [`SimStats`](scalagraph::SimStats) and telemetry summaries, reporting
//!   the first diverging field as a structured
//!   [`Mismatch`](oracle::Mismatch).
//! - [`dynamic`] — seeded mutation schedules: scenarios carrying a
//!   [`MutationSpec`](scenario::MutationSpec) run as a sequence of mutated
//!   snapshots, with incremental CSR maintenance and incremental
//!   BFS/SSSP/CC/widest-path/PageRank checked bit-exactly against full
//!   recompute after every batch.
//! - [`fuzz`] — a deterministic, budget-bounded sampler over weighted
//!   scenario generators (`fuzz(budget, seed)` is a pure function).
//! - [`shrink`] — minimizes any divergence to the smallest scenario with
//!   the same first-mismatch signature, ready to check into the corpus.
//!
//! The CLI front ends are `scalagraph-sim fuzz --budget N --seed S` and
//! `scalagraph-sim replay scenario.json`.
//!
//! No external dependencies: JSON ([`json`]) and the fuzzer's RNG are
//! self-contained so the corpus and fuzz streams can never drift under a
//! dependency bump.

#![warn(missing_docs)]
// Harness code feeds batch runs: recoverable failures must surface as
// Result, never unwind (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dynamic;
pub mod fuzz;
pub mod json;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use dynamic::materialize_batch;
pub use fuzz::{fuzz, fuzz_dynamic, sample_scenario, FuzzFailure, FuzzReport};
pub use oracle::{run_scenario, Mismatch, Observation, Outcome, Report};
pub use scalagraph_graph::SplitMix64;
pub use scenario::{
    AlgoSpec, ConfigSpec, Expectation, Family, GraphSource, GraphSpec, MemorySpec, ModeMatrix,
    MutationSpec, Scenario,
};
pub use shrink::{shrink, signature, ShrinkOutcome, Signature};
