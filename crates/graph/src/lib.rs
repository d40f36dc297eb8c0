//! Graph storage, generators, and layout transformations for the ScalaGraph
//! reproduction.
//!
//! This crate provides every graph-side substrate the ScalaGraph accelerator
//! (HPCA 2022) depends on:
//!
//! * [`Csr`] — compressed-sparse-row storage, the on-device format used by
//!   the paper (Section III-B: "The compressed sparse row (CSR) format is
//!   used for space-saving").
//! * [`EdgeList`] — the interchange format produced by the generators and
//!   consumed by the CSR builder.
//! * [`generators`] — seedable synthetic graph generators (R-MAT, power-law
//!   configuration model, uniform, and a set of structured test graphs).
//! * [`io`] — SNAP-style text edge lists, for running the real datasets
//!   where available.
//! * [`mutate`] — batched graph mutations ([`mutate::MutationBatch`]) applied
//!   against CSR storage incrementally, rebuilding only touched vertices;
//!   the Section IV-C degree-aware laid-out view is derived on demand.
//! * [`datasets`] — presets matching the paper's evaluation datasets
//!   (Table I / Table III) at a configurable down-scaling factor, generated
//!   chunk-parallel with bit-identical serial/parallel output.
//! * [`packed`] — the delta+varint compressed on-disk CSR container and
//!   its one reader, which maps a file and decodes it straight into a
//!   [`Csr`], so paper-scale graphs load instead of regenerating.
//! * [`partition`] — Graphicionado-style vertex-interval slicing used when a
//!   graph's vertex properties do not fit on-chip (Section III-A).
//! * [`relayout`] — the degree-aware edge re-layout of Section IV-C: edges of
//!   each vertex are re-ordered so that an edge's position inside a 64-byte
//!   line equals the PE column its destination vertex hashes to.
//! * [`stats`] — degree-distribution and traversal statistics.
//! * [`transform`] — vertex relabelings (random, degree, BFS order) for
//!   order-sensitivity studies.
//! * [`SplitMix64`] — the seeded stream the generators, the fuzzer and the
//!   mutation schedules draw from, and [`run_chunks`], the ordered parallel
//!   map behind dataset generation and the bench sweeps.
//!
//! # Example
//!
//! ```
//! use scalagraph_graph::{generators, Csr};
//!
//! let edges = generators::rmat(1 << 10, 8 * (1 << 10), 42);
//! let graph = Csr::from_edges(1 << 10, &edges);
//! assert_eq!(graph.num_vertices(), 1 << 10);
//! let avg = graph.num_edges() as f64 / graph.num_vertices() as f64;
//! assert!(avg > 1.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csr;
pub mod datasets;
pub mod edgelist;
pub mod error;
pub mod generators;
pub mod io;
pub mod mutate;
pub mod packed;
mod pargen;
pub mod partition;
pub mod relayout;
mod rng;
pub mod stats;
pub mod transform;

pub use csr::{Csr, CsrBuilder};
pub use datasets::{Dataset, DatasetSpec};
pub use edgelist::{Edge, EdgeList};
pub use error::GraphError;
pub use packed::{PackedCsr, PackedShape};
pub use pargen::{default_threads, run_chunks};
pub use partition::{Partitioner, VertexInterval};
pub use rng::SplitMix64;
pub use stats::DegreeStats;

/// Identifier of a vertex. The paper represents each edge in 4 bytes, which
/// bounds vertex identifiers to 32 bits; we adopt the same width.
pub type VertexId = u32;

/// Edge weight used by weighted algorithms (SSSP). The paper associates each
/// edge with "a random integer between 0 and 255" (Section V-A).
pub type Weight = u32;

/// Number of bytes in one off-chip memory access line (one HBM beat). Both
/// the paper's motivation (Section II-A) and the degree-aware scheduler
/// (Section IV-C) are phrased in terms of 64-byte lines.
pub const LINE_BYTES: usize = 64;

/// Number of bytes used to encode one edge in the CSR neighbor array
/// (Section I: "each edge represented in 4 bytes").
pub const EDGE_BYTES: usize = 4;

/// Number of edges per 64-byte line: 16. This equals the PE-row width of the
/// accelerator, which is what makes one line dispatchable to one row of PEs
/// in a single cycle.
pub const EDGES_PER_LINE: usize = LINE_BYTES / EDGE_BYTES;
