//! Cycle-accurate simulator of **ScalaGraph**, the scalable graph
//! accelerator with a distributed on-chip memory hierarchy (HPCA 2022).
//!
//! ScalaGraph replaces the centralized crossbar of earlier graph
//! accelerators — whose hardware cost grows as O(N²) in the PE count —
//! with per-PE scratchpad slices connected by a 2D-mesh NoC (O(N)),
//! plus four co-designs that claw back the efficiency a crossbar provides
//! for free:
//!
//! 1. **Row-oriented mapping** ([`Mapping::RowOriented`]) places each edge
//!    workload in the destination's column so all update routing is
//!    intra-column (Section IV-A).
//! 2. **Update aggregation** ([`aggregate::AggregationBuffer`]) coalesces
//!    same-destination updates inside the routers (Section IV-B).
//! 3. **Degree-aware scheduling** dispatches several low-degree vertices
//!    per cycle so short adjacency lists cannot starve a PE row (Section
//!    IV-C).
//! 4. **Inter-phase pipelining** overlaps the Apply phase with the next
//!    iteration's Scatter for monotonic algorithms (Section IV-D).
//!
//! # Quickstart
//!
//! Prefer [`Simulator::try_run`] in batch settings: it returns a
//! [`SimError`] (with a stall diagnosis from the progress watchdog) instead
//! of panicking, so one wedged configuration cannot kill a sweep. See the
//! [`error`] and [`fault`] modules for the error taxonomy and the seeded
//! fault-injection subsystem.
//!
//! ```
//! use scalagraph::{ScalaGraphConfig, Simulator};
//! use scalagraph_algo::algorithms::PageRank;
//! use scalagraph_graph::{generators, Csr};
//!
//! let graph = Csr::from_edges(1000, &generators::power_law(1000, 8000, 0.8, 42));
//! let config = ScalaGraphConfig::with_pes(64);
//! let clock = config.effective_clock_mhz();
//! let result = Simulator::new(&PageRank::new(3), &graph, config).run();
//! println!("{} cycles, {:.2} GTEPS", result.stats.cycles, result.stats.gteps(clock));
//! ```

// Hot-path code must stay panic-free: recoverable failures are SimError.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod cancel;
pub mod config;
pub mod device;
pub mod error;
pub mod fault;
pub mod mapping;
pub mod placement;
mod ports;
pub mod sim;
pub mod slab;
pub mod stats;

pub use cancel::{CancelSignal, CancelToken};
pub use config::{MemoryPreset, ScalaGraphConfig};
pub use device::DeviceGraph;
pub use error::{
    dir_name, HbmChannelSnapshot, NodeSnapshot, SimError, StallSnapshot, StalledUnit, TileSnapshot,
};
pub use fault::{Fault, FaultKind, FaultPlan, LinkDir};
pub use mapping::{CommunicationEstimate, Mapping};
pub use placement::Placement;
pub use sim::{run_on, try_run_on, Simulator, CYCLE_SAFETY_CAP};
pub use stats::{SimResult, SimStats};

/// Time-resolved telemetry: the [`telemetry::Collector`] hook trait the
/// engine emits into, the recording [`telemetry::Recorder`], and its
/// Chrome-trace/CSV/heatmap exporters. Re-exported so downstream crates
/// need no direct dependency on `scalagraph-telemetry`.
pub use scalagraph_telemetry as telemetry;
