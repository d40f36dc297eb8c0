//! Cycle-level on-chip interconnect simulators (mesh, crossbar, Benes).
//!
//! Implemented in the modules below; see crate docs in each.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod butterfly;
pub mod crossbar;
pub mod mesh;
pub mod stats;

pub use butterfly::{BflyPacket, Butterfly};
pub use crossbar::{Crossbar, CrossbarKind};
pub use mesh::{Mesh, MeshConfig, Packet};
pub use stats::NocStats;
