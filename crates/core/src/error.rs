//! Structured simulation errors and stall diagnostics.
//!
//! Every failure mode the engine can hit — an invalid configuration, a
//! violated bookkeeping invariant, an injected fault the machine cannot
//! absorb, or a wedged pipeline caught by the watchdog — surfaces as a
//! [`SimError`] from [`Simulator::try_run`](crate::Simulator::try_run)
//! instead of a process abort. Watchdog errors embed a [`StallSnapshot`]:
//! the queue depths, outstanding memory tags, and suspected culprit unit at
//! the moment progress stopped, so a failed configuration in a sweep leaves
//! an actionable record rather than a dead batch.

use crate::stats::SimStats;
use std::fmt;

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The configuration is internally inconsistent (zero queues, empty PE
    /// array, out-of-range scheduler width, ...).
    ConfigInvalid {
        /// Which constraint failed.
        detail: String,
    },
    /// An internal bookkeeping invariant was violated — a simulator bug,
    /// reported instead of panicking so sweeps can continue.
    ProtocolViolation {
        /// Which invariant broke.
        detail: String,
        /// Cycle at which the violation was detected.
        cycle: u64,
    },
    /// An injected fault produced a state the machine cannot recover from
    /// (for example an update corrupted to an out-of-range vertex id).
    FaultUnrecoverable {
        /// What the fault did.
        detail: String,
        /// Cycle at which the damage was detected.
        cycle: u64,
    },
    /// The watchdog saw no forward progress for the configured window and
    /// found work stuck in the machine: a deadlock (or livelock) between
    /// units.
    DeadlockDetected {
        /// Machine state at expiry.
        snapshot: Box<StallSnapshot>,
    },
    /// The watchdog saw no forward progress for the configured window but
    /// no unit holds stuck work — the phase sequencer itself is wedged.
    WatchdogStall {
        /// Machine state at expiry.
        snapshot: Box<StallSnapshot>,
    },
    /// The run exceeded the global cycle safety cap without converging.
    CycleCapExceeded {
        /// Machine state when the cap was hit.
        snapshot: Box<StallSnapshot>,
    },
    /// The run was cancelled cooperatively via a
    /// [`CancelToken`](crate::CancelToken). The machine unwound cleanly at
    /// a cycle boundary; `partial` holds the counters accumulated so far.
    Cancelled {
        /// Cycle at which the cancellation was observed.
        cycle: u64,
        /// Counters accumulated up to (and including) `cycle`.
        partial: Box<SimStats>,
    },
    /// The run hit a deadline before converging: either the deterministic
    /// [`cycle_limit`](crate::ScalaGraphConfig::cycle_limit) (always
    /// observed on exactly that cycle, bit-identically between stepped and
    /// fast-forward execution) or a wall-clock deadline expiring the run's
    /// [`CancelToken`](crate::CancelToken).
    DeadlineExceeded {
        /// Cycle at which the deadline was observed.
        cycle: u64,
        /// Counters accumulated up to (and including) `cycle`.
        partial: Box<SimStats>,
    },
}

impl SimError {
    /// The variant's name, as reports and digests print it.
    pub fn variant(&self) -> &'static str {
        match self {
            SimError::ConfigInvalid { .. } => "ConfigInvalid",
            SimError::ProtocolViolation { .. } => "ProtocolViolation",
            SimError::FaultUnrecoverable { .. } => "FaultUnrecoverable",
            SimError::DeadlockDetected { .. } => "DeadlockDetected",
            SimError::WatchdogStall { .. } => "WatchdogStall",
            SimError::CycleCapExceeded { .. } => "CycleCapExceeded",
            SimError::Cancelled { .. } => "Cancelled",
            SimError::DeadlineExceeded { .. } => "DeadlineExceeded",
        }
    }

    /// The diagnostic snapshot, for the watchdog/deadlock/cap variants.
    pub fn snapshot(&self) -> Option<&StallSnapshot> {
        match self {
            SimError::DeadlockDetected { snapshot }
            | SimError::WatchdogStall { snapshot }
            | SimError::CycleCapExceeded { snapshot } => Some(snapshot),
            _ => None,
        }
    }

    /// The counters an interrupted run accumulated before it was cancelled
    /// or hit its deadline; `None` for every other variant.
    pub fn partial_stats(&self) -> Option<&SimStats> {
        match self {
            SimError::Cancelled { partial, .. } | SimError::DeadlineExceeded { partial, .. } => {
                Some(partial)
            }
            _ => None,
        }
    }

    pub(crate) fn config(detail: impl Into<String>) -> Self {
        SimError::ConfigInvalid {
            detail: detail.into(),
        }
    }

    pub(crate) fn protocol(detail: impl Into<String>, cycle: u64) -> Self {
        SimError::ProtocolViolation {
            detail: detail.into(),
            cycle,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ConfigInvalid { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
            SimError::ProtocolViolation { detail, cycle } => {
                write!(f, "protocol violation at cycle {cycle}: {detail}")
            }
            SimError::FaultUnrecoverable { detail, cycle } => {
                write!(f, "unrecoverable fault at cycle {cycle}: {detail}")
            }
            SimError::DeadlockDetected { snapshot } => {
                write!(
                    f,
                    "deadlock detected at cycle {}: no forward progress for {} cycles, suspect {}",
                    snapshot.cycle, snapshot.stalled_for, snapshot.suspect
                )
            }
            SimError::WatchdogStall { snapshot } => {
                write!(
                    f,
                    "watchdog stall at cycle {}: no forward progress for {} cycles, suspect {}",
                    snapshot.cycle, snapshot.stalled_for, snapshot.suspect
                )
            }
            SimError::CycleCapExceeded { snapshot } => {
                write!(
                    f,
                    "simulation exceeded the cycle safety cap at cycle {}",
                    snapshot.cycle
                )
            }
            SimError::Cancelled { cycle, .. } => {
                write!(f, "simulation cancelled at cycle {cycle}")
            }
            SimError::DeadlineExceeded { cycle, .. } => {
                write!(f, "simulation deadline exceeded at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The hardware unit the watchdog blames for a stall: the unit nearest the
/// head of the stuck dependency chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalledUnit {
    /// An HBM pseudo-channel holding outstanding requests that never
    /// complete.
    HbmChannel {
        /// Tile owning the channel.
        tile: usize,
        /// Pseudo-channel index within the tile.
        channel: usize,
    },
    /// A tile frontend (VPref/EPref) with fetches pending or in flight.
    Prefetcher {
        /// Tile index.
        tile: usize,
    },
    /// A per-row dispatching unit with fetched segments it cannot issue.
    Dispatcher {
        /// Tile index.
        tile: usize,
        /// Row within the tile.
        row: usize,
    },
    /// A graph unit whose input queue cannot drain.
    GraphUnit {
        /// Global PE index.
        node: usize,
    },
    /// A router output port whose buffer cannot drain (a blocked or
    /// zero-credit link).
    RouterPort {
        /// Global PE index.
        node: usize,
        /// Output direction (see [`dir_name`]).
        dir: usize,
    },
    /// A scratchpad with an apply queue that cannot drain.
    Scratchpad {
        /// Global PE index.
        node: usize,
    },
    /// No unit holds visible work; the sequencer itself is wedged.
    Unknown,
}

/// Human-readable name of a router output direction index.
pub fn dir_name(dir: usize) -> &'static str {
    match dir {
        0 => "eject",
        1 => "north",
        2 => "south",
        3 => "west",
        4 => "east",
        _ => "?",
    }
}

impl fmt::Display for StalledUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StalledUnit::HbmChannel { tile, channel } => {
                write!(f, "HBM pseudo-channel {channel} of tile {tile}")
            }
            StalledUnit::Prefetcher { tile } => write!(f, "prefetcher of tile {tile}"),
            StalledUnit::Dispatcher { tile, row } => {
                write!(f, "dispatcher row {row} of tile {tile}")
            }
            StalledUnit::GraphUnit { node } => write!(f, "graph unit of PE {node}"),
            StalledUnit::RouterPort { node, dir } => {
                write!(f, "router port {} of PE {node}", dir_name(dir))
            }
            StalledUnit::Scratchpad { node } => write!(f, "scratchpad of PE {node}"),
            StalledUnit::Unknown => write!(f, "no unit (sequencer wedge)"),
        }
    }
}

/// One HBM pseudo-channel's state inside a [`TileSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmChannelSnapshot {
    /// Pseudo-channel index.
    pub channel: usize,
    /// Requests pending or in flight on the channel.
    pub outstanding: usize,
    /// Whether an injected stall is currently pinning the channel.
    pub stalled: bool,
}

/// One tile frontend's queue depths at stall time.
#[derive(Debug, Clone, PartialEq)]
pub struct TileSnapshot {
    /// Tile index.
    pub tile: usize,
    /// Actives awaiting a vertex-record fetch.
    pub vpref_pending: usize,
    /// Record-line fetches in flight.
    pub vpref_inflight: usize,
    /// Record-ready vertices whose edge lines are being issued.
    pub records_ready: usize,
    /// Edge-line fetches in flight.
    pub line_inflight: usize,
    /// Activations awaiting active-list write-back.
    pub write_backlog: u64,
    /// Per-row dispatch queue depths.
    pub row_queue_depths: Vec<usize>,
    /// Per-pseudo-channel memory state.
    pub hbm_channels: Vec<HbmChannelSnapshot>,
    /// Outstanding fetch tags (truncated to the first few).
    pub outstanding_tags: Vec<u64>,
}

impl TileSnapshot {
    /// Whether this tile holds any stuck scatter-side work.
    pub fn has_work(&self) -> bool {
        self.vpref_pending > 0
            || self.vpref_inflight > 0
            || self.records_ready > 0
            || self.line_inflight > 0
            || self.row_queue_depths.iter().any(|&d| d > 0)
    }
}

/// One PE's queue depths at stall time; only PEs holding work are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Global PE index.
    pub node: usize,
    /// GU input queue depth.
    pub gu_queue: usize,
    /// Router output buffer depths, indexed eject/north/south/west/east.
    pub out_depths: [usize; 5],
    /// Apply queue depth.
    pub apply_queue: usize,
}

/// The machine state embedded in a watchdog or deadlock error.
#[derive(Debug, Clone, PartialEq)]
pub struct StallSnapshot {
    /// Cycle at which the watchdog expired.
    pub cycle: u64,
    /// Cycles since the last observed forward progress.
    pub stalled_for: u64,
    /// Phase the sequencer was in ("Scatter" or "Apply").
    pub phase: &'static str,
    /// The unit blamed for the stall.
    pub suspect: StalledUnit,
    /// Per-tile frontend state.
    pub tiles: Vec<TileSnapshot>,
    /// Per-PE state, restricted to PEs holding work.
    pub busy_nodes: Vec<NodeSnapshot>,
    /// Vertices awaiting apply.
    pub apply_inflight: usize,
    /// Pending DOM replica broadcasts.
    pub broadcast_backlog: u64,
    /// Remaining frontend fetch-stall cycles.
    pub fetch_stall: u64,
    /// Fault-delayed flits parked between routers.
    pub delayed_flits: usize,
}

impl StallSnapshot {
    /// Whether the snapshot recorded no stuck work anywhere (a sequencer
    /// wedge rather than a unit deadlock).
    pub fn is_empty(&self) -> bool {
        self.tiles.iter().all(|t| !t.has_work())
            && self.busy_nodes.is_empty()
            && self.apply_inflight == 0
            && self.delayed_flits == 0
    }
}

impl fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stall snapshot @ cycle {} ({} phase, {} cycles without progress): suspect {}",
            self.cycle, self.phase, self.stalled_for, self.suspect
        )?;
        writeln!(
            f,
            "  apply_inflight={} broadcast_backlog={} fetch_stall={} delayed_flits={}",
            self.apply_inflight, self.broadcast_backlog, self.fetch_stall, self.delayed_flits
        )?;
        for t in &self.tiles {
            writeln!(
                f,
                "  tile {}: vpend={} vinfl={} rec={} linfl={} wb={} rows={:?} tags={:?}",
                t.tile,
                t.vpref_pending,
                t.vpref_inflight,
                t.records_ready,
                t.line_inflight,
                t.write_backlog,
                t.row_queue_depths,
                t.outstanding_tags,
            )?;
            for ch in &t.hbm_channels {
                if ch.outstanding > 0 || ch.stalled {
                    writeln!(
                        f,
                        "    hbm ch {}: outstanding={}{}",
                        ch.channel,
                        ch.outstanding,
                        if ch.stalled { " STALLED" } else { "" }
                    )?;
                }
            }
        }
        for n in &self.busy_nodes {
            writeln!(
                f,
                "  pe {}: gu={} out={:?} apply={}",
                n.node, n.gu_queue, n.out_depths, n.apply_queue
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> StallSnapshot {
        StallSnapshot {
            cycle: 1000,
            stalled_for: 500,
            phase: "Scatter",
            suspect: StalledUnit::RouterPort { node: 3, dir: 2 },
            tiles: vec![TileSnapshot {
                tile: 0,
                vpref_pending: 0,
                vpref_inflight: 0,
                records_ready: 0,
                line_inflight: 2,
                write_backlog: 0,
                row_queue_depths: vec![0, 4],
                hbm_channels: vec![HbmChannelSnapshot {
                    channel: 0,
                    outstanding: 2,
                    stalled: true,
                }],
                outstanding_tags: vec![7, 9],
            }],
            busy_nodes: vec![NodeSnapshot {
                node: 3,
                gu_queue: 16,
                out_depths: [0, 0, 24, 0, 0],
                apply_queue: 0,
            }],
            apply_inflight: 0,
            broadcast_backlog: 0,
            fetch_stall: 0,
            delayed_flits: 0,
        }
    }

    #[test]
    fn display_summarizes_the_stall() {
        let err = SimError::DeadlockDetected {
            snapshot: Box::new(snap()),
        };
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("router port south of PE 3"), "{msg}");
        let detail = err.snapshot().unwrap().to_string();
        assert!(detail.contains("tile 0"), "{detail}");
        assert!(detail.contains("STALLED"), "{detail}");
    }

    #[test]
    fn snapshot_emptiness_reflects_recorded_work() {
        assert!(!snap().is_empty());
        let empty = StallSnapshot {
            tiles: vec![],
            busy_nodes: vec![],
            ..snap()
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn config_errors_render_their_detail() {
        let err = SimError::config("GU queue must be non-empty");
        assert_eq!(
            err.to_string(),
            "invalid configuration: GU queue must be non-empty"
        );
        assert!(err.snapshot().is_none());
    }

    #[test]
    fn interrupted_variants_carry_partial_counters() {
        let stats = SimStats {
            cycles: 123,
            ..SimStats::default()
        };
        let err = SimError::DeadlineExceeded {
            cycle: 123,
            partial: Box::new(stats),
        };
        assert_eq!(err.to_string(), "simulation deadline exceeded at cycle 123");
        assert_eq!(err.partial_stats().map(|s| s.cycles), Some(123));
        assert!(err.snapshot().is_none());
        let cancelled = SimError::Cancelled {
            cycle: 7,
            partial: Box::new(SimStats::default()),
        };
        assert!(cancelled.to_string().contains("cancelled at cycle 7"));
        assert!(cancelled.partial_stats().is_some());
    }

    #[test]
    fn direction_names_cover_all_ports() {
        assert_eq!(dir_name(0), "eject");
        assert_eq!(dir_name(4), "east");
        assert_eq!(dir_name(9), "?");
    }
}
