//! Time-resolved telemetry for the ScalaGraph simulator.
//!
//! The end-of-run aggregates in `SimStats` answer *how much* — this crate
//! answers *when* and *where*: when the mesh saturates, which links and HBM
//! pseudo-channels run hot, where inter-phase pipelining actually overlaps.
//!
//! The design splits into three pieces:
//!
//! * [`Collector`] — the hook trait the simulation engine emits into. Its
//!   associated `ENABLED` constant lets the engine guard every emission
//!   point with a compile-time `if C::ENABLED` branch, so a run with the
//!   default [`NullCollector`] monomorphizes to exactly the un-instrumented
//!   machine: bit-identical results, no measurable overhead.
//! * [`Recorder`] — the full-fat collector: windowed time-series of
//!   per-tile and per-HBM-channel activity, per-mesh-link traversal counts,
//!   a span timeline of phases/iterations/slices, instantaneous fault and
//!   watchdog events, and a routing-latency histogram.
//! * [`export`] — serializers for the captured data: Chrome trace-event
//!   JSON (loadable in `ui.perfetto.dev` or `chrome://tracing`), a
//!   per-window CSV, and a mesh-link heatmap JSON keyed by
//!   `(x, y, direction, window)`.
//! * [`StageClock`] — a collector that times the engine's stages
//!   ([`Stage`]) on the host, for per-stage cost tables.
//!
//! # Example
//!
//! ```
//! use scalagraph_telemetry::{Recorder, Topology};
//!
//! let mut rec = Recorder::new(256);
//! // The engine drives the collector; here we stand in for it.
//! use scalagraph_telemetry::{Collector, SpanName};
//! rec.on_run_start(Topology { tiles: 1, rows_per_tile: 2, cols: 2, channels_per_tile: 1, clock_mhz: 250.0 });
//! rec.span_begin(0, SpanName::Iteration(0));
//! rec.link_traversal(0, 4, 3);
//! rec.routing_latency(5);
//! rec.span_end(900, SpanName::Iteration(0));
//! rec.on_run_end(1000);
//! let summary = rec.summary();
//! assert_eq!(summary.run_cycles, 1000);
//! let mut json = Vec::new();
//! rec.write_chrome_trace(&mut json).unwrap();
//! assert!(String::from_utf8(json).unwrap().contains("traceEvents"));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod recorder;
pub mod service;
pub mod stages;

pub use recorder::{
    EventWindowRow, HbmWindowRow, LinkWindowRow, PeakLink, Recorder, TelemetrySummary,
    TileWindowRow,
};
pub use service::{ServiceCounters, ServiceMetrics};
pub use stages::{Stage, StageClock};

/// Router output-port direction indices, matching the engine's encoding:
/// 0 = eject (local scratchpad), 1..=4 the four mesh directions.
pub const DIR_EJECT: usize = 0;
/// Towards the row above.
pub const DIR_NORTH: usize = 1;
/// Towards the row below.
pub const DIR_SOUTH: usize = 2;
/// Towards the column to the left.
pub const DIR_WEST: usize = 3;
/// Towards the column to the right.
pub const DIR_EAST: usize = 4;

/// Human-readable names for the direction indices above.
pub const DIR_NAMES: [&str; 5] = ["eject", "north", "south", "west", "east"];

/// Geometry of the machine being observed, given to the collector at run
/// start so it can size its per-tile/per-link/per-channel storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Number of tiles (each with a private HBM stack).
    pub tiles: usize,
    /// PE rows per tile.
    pub rows_per_tile: usize,
    /// PE columns (global across tiles).
    pub cols: usize,
    /// HBM pseudo-channels per tile.
    pub channels_per_tile: usize,
    /// Effective clock in MHz (trace metadata only).
    pub clock_mhz: f64,
}

impl Topology {
    /// Total PEs (mesh nodes).
    pub fn num_nodes(&self) -> usize {
        self.tiles * self.rows_per_tile * self.cols
    }

    /// Rows of the global mesh (tiles stacked vertically).
    pub fn global_rows(&self) -> usize {
        self.tiles * self.rows_per_tile
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            tiles: 1,
            rows_per_tile: 1,
            cols: 1,
            channels_per_tile: 1,
            clock_mhz: 250.0,
        }
    }
}

/// A named interval on the span timeline. Every variant lives on its own
/// timeline track so overlapping spans (a pipelined Scatter wave running
/// concurrently with an Apply pass) render side by side instead of nesting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// The whole run.
    Run,
    /// One algorithm iteration (indexed by the scatter wave it feeds).
    Iteration(u64),
    /// One Scatter wave: `(iteration, slice)`.
    Scatter {
        /// Iteration index of the wave.
        iter: u64,
        /// Graph slice being scattered.
        slice: u64,
    },
    /// One Apply pass, labelled by the iteration it completes.
    Apply(u64),
}

impl SpanName {
    /// Timeline track (Chrome trace `tid`) this span renders on.
    pub fn track(&self) -> u64 {
        match self {
            SpanName::Run => 0,
            SpanName::Iteration(_) => 1,
            SpanName::Scatter { .. } => 2,
            SpanName::Apply(_) => 3,
        }
    }
}

impl std::fmt::Display for SpanName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanName::Run => write!(f, "run"),
            SpanName::Iteration(i) => write!(f, "iteration {i}"),
            SpanName::Scatter { iter, slice } => write!(f, "scatter {iter}.{slice}"),
            SpanName::Apply(i) => write!(f, "apply {i}"),
        }
    }
}

/// Track index instants render on (below the span tracks).
pub const INSTANT_TRACK: u64 = 4;

/// A point event on the timeline: fault activations and watchdog firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantKind {
    /// An injected link fault discarded a flit leaving `node` via `dir`.
    FlitDropped {
        /// PE the flit left.
        node: usize,
        /// Direction index (1..=4).
        dir: usize,
    },
    /// An injected link fault parked a flit leaving `node` via `dir`.
    FlitDelayed {
        /// PE the flit left.
        node: usize,
        /// Direction index (1..=4).
        dir: usize,
    },
    /// An injected fault corrupted a flit's destination id.
    FlitCorrupted {
        /// PE the flit left.
        node: usize,
        /// Direction index (1..=4).
        dir: usize,
    },
    /// The fault plan pinned an HBM pseudo-channel.
    HbmStallInjected {
        /// Tile owning the channel.
        tile: usize,
        /// Pseudo-channel index.
        channel: usize,
        /// Stall duration in cycles.
        cycles: u64,
    },
    /// The progress watchdog fired after `stalled_for` quiet cycles.
    WatchdogStall {
        /// Quiet cycles observed before firing.
        stalled_for: u64,
    },
}

impl std::fmt::Display for InstantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstantKind::FlitDropped { node, dir } => {
                write!(f, "flit dropped @pe{node}/{}", DIR_NAMES[*dir])
            }
            InstantKind::FlitDelayed { node, dir } => {
                write!(f, "flit delayed @pe{node}/{}", DIR_NAMES[*dir])
            }
            InstantKind::FlitCorrupted { node, dir } => {
                write!(f, "flit corrupted @pe{node}/{}", DIR_NAMES[*dir])
            }
            InstantKind::HbmStallInjected {
                tile,
                channel,
                cycles,
            } => write!(f, "hbm stall tile{tile}/ch{channel} ({cycles} cyc)"),
            InstantKind::WatchdogStall { stalled_for } => {
                write!(f, "watchdog stall ({stalled_for} quiet cycles)")
            }
        }
    }
}

/// One tile's activity over one metrics window (deltas over the window,
/// except `queue_depth` which is a point sample at the window boundary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileSample {
    /// GU busy cycles accumulated by the tile's PEs this window.
    pub gu_busy: u64,
    /// Point sample: GU input queue + router output occupancy, summed over
    /// the tile's PEs.
    pub queue_depth: u64,
    /// Updates coalesced by the tile's aggregation pipelines this window.
    pub agg_merges: u64,
    /// Edges dispatched by the tile's EDUs this window.
    pub dispatched_edges: u64,
}

/// One HBM pseudo-channel's activity over one metrics window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HbmChannelSample {
    /// Bytes serviced (reads + writes) this window.
    pub bytes: u64,
    /// Cycles this window the channel spent pinned by an injected stall.
    pub stall_cycles: u64,
    /// Point sample: requests queued or in flight at the window boundary.
    pub outstanding: u64,
}

/// The emission points of the simulation engine.
///
/// Every method has a no-op default so collectors implement only what they
/// record. The engine guards each call with `if C::ENABLED`, so a collector
/// whose `ENABLED` is `false` (the [`NullCollector`]) costs nothing — the
/// branches constant-fold away during monomorphization.
pub trait Collector {
    /// Compile-time switch the engine guards every hook with.
    const ENABLED: bool;

    /// The run is starting; `topo` describes the machine.
    fn on_run_start(&mut self, topo: Topology) {
        let _ = topo;
    }

    /// The run ended (successfully or not) at cycle `now`. Collectors
    /// close any open spans here.
    fn on_run_end(&mut self, now: u64) {
        let _ = now;
    }

    /// Whether the current metrics window ends at or before `now`. When it
    /// does, the engine samples every tile and channel
    /// ([`tile_sample`](Self::tile_sample) /
    /// [`hbm_sample`](Self::hbm_sample)) and then calls
    /// [`roll_window`](Self::roll_window).
    fn window_due(&self, now: u64) -> bool {
        let _ = now;
        false
    }

    /// Close the current metrics window at cycle `now` and start the next.
    fn roll_window(&mut self, now: u64) {
        let _ = now;
    }

    /// The cycle at which [`window_due`](Self::window_due) next turns true,
    /// if the collector samples on a window. Engines that fast-forward
    /// through idle cycles clamp their jump to this deadline so every window
    /// boundary is still observed at exactly the cycle it would have been
    /// when stepping. `None` means "no deadline"; an enabled collector
    /// without a known deadline therefore suppresses fast-forwarding.
    fn window_deadline(&self) -> Option<u64> {
        None
    }

    /// Per-window tile activity, delivered once per tile per window.
    fn tile_sample(&mut self, tile: usize, sample: TileSample) {
        let _ = (tile, sample);
    }

    /// Per-window HBM pseudo-channel activity.
    fn hbm_sample(&mut self, tile: usize, channel: usize, sample: HbmChannelSample) {
        let _ = (tile, channel, sample);
    }

    /// `count` updates crossed the link leaving `node` in direction `dir`
    /// (1..=4) this cycle.
    fn link_traversal(&mut self, node: usize, dir: usize, count: u64) {
        let _ = (node, dir, count);
    }

    /// The link leaving `node` in direction `dir` refused traffic this
    /// cycle (downstream buffer full or link downed).
    fn link_backpressure(&mut self, node: usize, dir: usize) {
        let _ = (node, dir);
    }

    /// An update reached its scratchpad `cycles` after injection.
    fn routing_latency(&mut self, cycles: u64) {
        let _ = cycles;
    }

    /// A span opened at cycle `now`.
    fn span_begin(&mut self, now: u64, span: SpanName) {
        let _ = (now, span);
    }

    /// A span closed at cycle `now`. Always paired with the
    /// [`span_begin`](Self::span_begin) carrying the same [`SpanName`].
    fn span_end(&mut self, now: u64, span: SpanName) {
        let _ = (now, span);
    }

    /// A point event occurred at cycle `now`.
    fn instant(&mut self, now: u64, event: InstantKind) {
        let _ = (now, event);
    }

    /// Event-core activity of the metrics window that just closed:
    /// `dispatched` unit-visits actually executed and `skipped` unit-visits
    /// the activity masks proved idle and never touched. Emitted only by
    /// the sparse engine (its dense reference visits everything and
    /// reports nothing here), right before each
    /// [`roll_window`](Self::roll_window) and once more at run end for the
    /// final partial window. These are mode *diagnostics*: they live
    /// beside the compared telemetry, so summaries stay bit-identical
    /// across the two.
    fn event_core_sample(&mut self, dispatched: u64, skipped: u64) {
        let _ = (dispatched, skipped);
    }

    /// The engine enters `stage`, ending the stage it was in. Called at
    /// every stage boundary of the cycle loop, so the stages between
    /// [`on_run_start`](Self::on_run_start) and
    /// [`on_run_end`](Self::on_run_end) partition the run.
    fn stage(&mut self, stage: Stage) {
        let _ = stage;
    }
}

/// The default collector: records nothing, costs nothing. With this
/// collector the engine compiles to exactly the un-instrumented machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullCollector;

impl Collector for NullCollector {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_collector_is_disabled_and_zero_sized() {
        const { assert!(!NullCollector::ENABLED) };
        assert_eq!(std::mem::size_of::<NullCollector>(), 0);
        // The default hooks are callable no-ops.
        let mut c = NullCollector;
        c.on_run_start(Topology::default());
        c.link_traversal(0, DIR_EAST, 1);
        c.span_begin(0, SpanName::Run);
        c.span_end(1, SpanName::Run);
        c.stage(Stage::Dispatch);
        c.on_run_end(1);
        assert!(!c.window_due(u64::MAX));
    }

    #[test]
    fn topology_derived_dims() {
        let t = Topology {
            tiles: 2,
            rows_per_tile: 16,
            cols: 4,
            channels_per_tile: 16,
            clock_mhz: 250.0,
        };
        assert_eq!(t.num_nodes(), 128);
        assert_eq!(t.global_rows(), 32);
    }

    #[test]
    fn span_tracks_are_distinct() {
        let spans = [
            SpanName::Run,
            SpanName::Iteration(0),
            SpanName::Scatter { iter: 0, slice: 0 },
            SpanName::Apply(0),
        ];
        let mut tracks: Vec<u64> = spans.iter().map(SpanName::track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        assert_eq!(tracks.len(), spans.len());
        assert!(tracks.iter().all(|&t| t != INSTANT_TRACK));
    }

    #[test]
    fn display_labels_are_stable() {
        assert_eq!(
            SpanName::Scatter { iter: 3, slice: 1 }.to_string(),
            "scatter 3.1"
        );
        assert_eq!(
            InstantKind::FlitDropped {
                node: 7,
                dir: DIR_WEST
            }
            .to_string(),
            "flit dropped @pe7/west"
        );
    }
}
