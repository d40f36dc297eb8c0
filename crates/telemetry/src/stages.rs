//! Host time per engine stage: the [`StageClock`] collector.
//!
//! The engine marks each stage boundary of its cycle loop through one hook,
//! [`Collector::stage`]. The clock timestamps every boundary and charges
//! the time since the previous one to the stage that was running, so the
//! stages partition the run's host time. It samples no windows and names
//! `u64::MAX` as its window deadline, so a clocked run fast-forwards
//! through idle stretches exactly as an unclocked one does.

use crate::{Collector, Topology};
use std::time::Instant;

/// A part of the engine's cycle loop, in the order a stepped cycle runs
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Phase-cycle accounting, scheduled HBM stalls, the HBM pump and the
    /// prefetchers. Entered once per stepped cycle.
    Memory,
    /// The EDU rows handing edges to the GUs.
    Dispatch,
    /// Routers deciding this cycle's flit moves, after fault-parked flits
    /// re-enter.
    RouteDecide,
    /// The decided moves landing in their destination ports.
    RouteLand,
    /// The GUs turning edges into updates.
    Gu,
    /// The scratchpads reducing ejected updates.
    Spd,
    /// The apply units.
    Apply,
    /// The loop around the stages: phase sequencing, fast-forward, the
    /// cycle limit, cancellation and the watchdog.
    Control,
    /// Telemetry bookkeeping that an enabled collector makes the engine do
    /// (span diffing, window sampling, the final flush).
    Telemetry,
}

impl Stage {
    /// Every stage, in table order.
    pub const ALL: [Stage; 9] = [
        Stage::Memory,
        Stage::Dispatch,
        Stage::RouteDecide,
        Stage::RouteLand,
        Stage::Gu,
        Stage::Spd,
        Stage::Apply,
        Stage::Control,
        Stage::Telemetry,
    ];

    /// The stage's row name in a stage table.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Memory => "hbm+prefetch",
            Stage::Dispatch => "dispatch",
            Stage::RouteDecide => "route-decide",
            Stage::RouteLand => "route-land",
            Stage::Gu => "gu",
            Stage::Spd => "spd",
            Stage::Apply => "apply",
            Stage::Control => "control",
            Stage::Telemetry => "telemetry",
        }
    }
}

/// A collector that times the engine's stages with [`Instant`] and records
/// nothing else. One clock may time several runs; its figures then sum
/// over them.
#[derive(Debug, Clone, Default)]
pub struct StageClock {
    ns: [u64; Stage::ALL.len()],
    entries: [u64; Stage::ALL.len()],
    /// The running stage and when it was entered.
    running: Option<(Stage, Instant)>,
}

impl StageClock {
    /// A clock with nothing timed yet.
    pub fn new() -> Self {
        StageClock::default()
    }

    /// Host nanoseconds charged to `stage`.
    pub fn ns(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// Times `stage` was entered.
    pub fn entries(&self, stage: Stage) -> u64 {
        self.entries[stage as usize]
    }

    /// Host nanoseconds charged to every stage together.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Cycles the engine stepped, as opposed to fast-forwarded: each
    /// stepped cycle enters [`Stage::Memory`] once.
    pub fn stepped_cycles(&self) -> u64 {
        self.entries(Stage::Memory)
    }

    /// Charges the running stage up to now and makes `next` the running
    /// stage (`None` stops the clock).
    fn switch(&mut self, next: Option<Stage>) {
        let now = Instant::now();
        if let Some((stage, since)) = self.running {
            let spent = now.saturating_duration_since(since).as_nanos();
            self.ns[stage as usize] += u64::try_from(spent).unwrap_or(u64::MAX);
        }
        if let Some(stage) = next {
            self.entries[stage as usize] += 1;
        }
        self.running = next.map(|stage| (stage, now));
    }
}

impl Collector for StageClock {
    const ENABLED: bool = true;

    fn on_run_start(&mut self, topo: Topology) {
        let _ = topo;
        self.switch(Some(Stage::Control));
    }

    fn on_run_end(&mut self, now: u64) {
        let _ = now;
        self.switch(None);
    }

    fn window_deadline(&self) -> Option<u64> {
        // No windows: fast-forward may jump as far as it would unclocked.
        Some(u64::MAX)
    }

    fn stage(&mut self, stage: Stage) {
        self.switch(Some(stage));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_partition_the_clocked_time() {
        let mut clock = StageClock::new();
        clock.on_run_start(Topology::default());
        for _ in 0..3 {
            for stage in [Stage::Memory, Stage::Dispatch, Stage::Gu, Stage::Control] {
                clock.stage(stage);
                std::hint::black_box((0..1000u64).sum::<u64>());
            }
        }
        clock.on_run_end(3);
        assert_eq!(clock.stepped_cycles(), 3);
        assert_eq!(
            clock.entries(Stage::Control),
            4,
            "the run starts in control"
        );
        assert_eq!(clock.entries(Stage::Apply), 0);
        assert_eq!(clock.ns(Stage::Apply), 0);
        let sum: u64 = Stage::ALL.iter().map(|&s| clock.ns(s)).sum();
        assert_eq!(sum, clock.total_ns());
        // A stopped clock charges nothing more.
        let total = clock.total_ns();
        std::hint::black_box((0..1000u64).sum::<u64>());
        clock.on_run_end(3);
        assert_eq!(clock.total_ns(), total);
        assert_eq!(clock.window_deadline(), Some(u64::MAX));
    }

    #[test]
    fn stage_names_are_distinct() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i, "ALL is in discriminant order");
        }
    }
}
