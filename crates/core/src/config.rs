//! Accelerator configuration.

use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::mapping::Mapping;
use crate::placement::Placement;
use crate::ports::NUM_DIRS;
use crate::sim::CYCLE_SAFETY_CAP;
use scalagraph_hwmodel::{max_frequency_mhz, InterconnectKind, OPERATING_CLOCK_MHZ};
use scalagraph_mem::HbmConfig;

/// Default watchdog window: generously above any legitimate quiet period
/// (HBM round trips are tens of cycles, fetch stalls are counted as
/// progress), far below the global cycle cap.
pub const DEFAULT_WATCHDOG_STALL_CYCLES: u64 = 25_000;

/// Most PE-queue slots a configuration may hold: `pes × (5 ×
/// (aggregation_registers + router_queue_capacity) + gu_queue_capacity)`,
/// the router ports plus the GU input queue of every PE. The engine
/// allocates all of them when a run starts. The largest machine an
/// experiment builds, Figure 21's 4,096 PEs at the default capacities,
/// needs 557,056; this bound is about four times that, and at most about
/// 50 MB of queue state.
pub const MAX_QUEUE_SLOTS: usize = 1 << 21;

/// Most mesh columns a configuration may have. One visit of a dispatch
/// row numbers its pops, up to `2 × max(cols, 16)` of them, in 16 bits
/// with `u16::MAX` marking a free lane, so twice the column count must
/// stay below `u16::MAX`.
pub const MAX_COLS: usize = (u16::MAX as usize - 1) / 2;

/// Off-chip memory preset for a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryPreset {
    /// One U280 HBM2 stack per tile (the paper's hardware: 230 GB/s,
    /// 16 pseudo-channels each).
    U280,
    /// Unlimited bandwidth (the >1,024-PE scalability study of Section
    /// V-E).
    Unlimited,
    /// Explicit per-tile memory configuration.
    Custom(HbmConfig),
}

/// Full configuration of a ScalaGraph instance.
///
/// Defaults mirror the paper's ScalaGraph-512: two tiles of 16×16 PEs, a
/// 16-register aggregation pipeline, 16-way degree-aware scheduling,
/// inter-phase pipelining on, row-oriented mapping, 250 MHz.
///
/// # Example
///
/// ```
/// use scalagraph::ScalaGraphConfig;
///
/// let cfg = ScalaGraphConfig::scalagraph_512();
/// assert_eq!(cfg.placement.num_pes(), 512);
/// let small = ScalaGraphConfig::with_pes(128);
/// assert_eq!(small.placement.num_pes(), 128);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScalaGraphConfig {
    /// PE array geometry.
    pub placement: Placement,
    /// Workload-to-PE mapping (Section IV-A).
    pub mapping: Mapping,
    /// Registers in each RU's update-aggregation pipeline (Section IV-B);
    /// 0 disables aggregation (pure FIFO).
    pub aggregation_registers: usize,
    /// Maximum distinct low-degree vertices the degree-aware scheduler may
    /// dispatch in one cycle (Section IV-C); 1 disables the mechanism.
    pub max_scheduled_vertices: usize,
    /// Inter-phase pipelining (Section IV-D). Automatically disabled at run
    /// time for non-monotonic algorithms regardless of this flag.
    pub inter_phase_pipelining: bool,
    /// Vertices whose properties fit on-chip simultaneously (total
    /// scratchpad capacity); larger graphs are sliced (Section III-A).
    pub spd_capacity_vertices: usize,
    /// Off-chip memory per tile.
    pub memory: MemoryPreset,
    /// Operating clock in MHz; `None` derives it from the hardware model
    /// (min of 250 MHz and the mesh's synthesizable maximum).
    pub clock_mhz: Option<f64>,
    /// Updates one NoC link carries per cycle. FPGA NoC links are wide
    /// (256-bit) buses, so one link transfer moves up to four 8-byte
    /// vertex updates; the update-aggregation pipeline keeps this width
    /// sufficient (without aggregation the columns congest, Figure 18).
    pub link_width: usize,
    /// GU input queue depth, in edge workloads.
    pub gu_queue_capacity: usize,
    /// Router output queue depth, in updates.
    pub router_queue_capacity: usize,
    /// Progress watchdog window in cycles: if no unit makes forward
    /// progress for this long, [`Simulator::try_run`](crate::Simulator::try_run)
    /// returns a [`SimError::DeadlockDetected`]/[`SimError::WatchdogStall`]
    /// with a diagnostic snapshot. `0` disables the watchdog (the global
    /// cycle safety cap still applies).
    pub watchdog_stall_cycles: u64,
    /// Optional deterministic fault schedule (see [`crate::fault`]).
    /// `None` leaves every fault hook cold; results are then bit-identical
    /// to a build without the subsystem.
    pub fault_plan: Option<FaultPlan>,
    /// Which form of the event-driven stepping loop runs. On (the
    /// default): each cycle visits only units with work, and when no unit
    /// has any the clock jumps straight to the earliest timer expiry
    /// (fetch stalls, HBM latency, delayed flits, broadcast drain). Off:
    /// the dense reference, the same loop visiting every unit on every
    /// cycle with no skip — kept so the oracle and the tests can check
    /// that the activity masks never miss work. Results, `SimStats`,
    /// watchdog and cycle-limit firing cycles, fault behaviour and
    /// telemetry windows are bit-identical either way (pinned by the
    /// bit-identity test suite); the flag trades nothing but wall-clock.
    pub fast_forward: bool,
    /// Hard per-run cycle budget: the run ends with
    /// [`SimError::DeadlineExceeded`] once the clock reaches this cycle
    /// without converging. Unlike a wall-clock deadline this is measured
    /// in *simulated* time, so it is deterministic and lands on exactly
    /// the same cycle — with the same partial counters and telemetry
    /// windows — whether or not fast-forward is engaged. `None` leaves
    /// only the global cycle safety cap. Must be positive and at most
    /// [`CYCLE_SAFETY_CAP`](crate::CYCLE_SAFETY_CAP).
    pub cycle_limit: Option<u64>,
}

impl ScalaGraphConfig {
    /// The paper's flagship configuration: 512 PEs as two 16×16 tiles.
    pub fn scalagraph_512() -> Self {
        Self::with_pes(512)
    }

    /// The 128-PE configuration used for iso-PE comparisons: two 16×4
    /// tiles.
    pub fn scalagraph_128() -> Self {
        Self::with_pes(128)
    }

    /// A configuration with `pes` processing elements, built the way the
    /// scalability study does (Section V-E): two tiles, 16 rows each,
    /// growing one column at a time — 32 PEs is 2×(16×1), 1,024 is
    /// 2×(16×32).
    ///
    /// # Panics
    ///
    /// Panics unless `pes` is a positive multiple of 32.
    pub fn with_pes(pes: usize) -> Self {
        assert!(
            pes >= 32 && pes.is_multiple_of(32),
            "PE count must be a positive multiple of 32 (two tiles of 16 rows)"
        );
        let cols = pes / 32;
        ScalaGraphConfig {
            placement: Placement::new(2, 16, cols),
            mapping: Mapping::RowOriented,
            aggregation_registers: 16,
            max_scheduled_vertices: 16,
            inter_phase_pipelining: true,
            // 6 MB of scratchpad at 4 bytes per property plus a temporary
            // slot: ~768 K vertices resident.
            spd_capacity_vertices: 768 * 1024,
            memory: MemoryPreset::U280,
            clock_mhz: None,
            link_width: 4,
            gu_queue_capacity: 16,
            router_queue_capacity: 8,
            watchdog_stall_cycles: DEFAULT_WATCHDOG_STALL_CYCLES,
            fault_plan: None,
            fast_forward: true,
            cycle_limit: None,
        }
    }

    /// The effective clock in MHz: an explicit override, or the paper's
    /// methodology — the conservative 250 MHz operating point, capped by
    /// the mesh's synthesizable frequency at this PE count. Above the
    /// U280's route-out limit the paper itself switches to a simulator
    /// pinned at 250 MHz, which we mirror.
    pub fn effective_clock_mhz(&self) -> f64 {
        if let Some(mhz) = self.clock_mhz {
            return mhz;
        }
        match max_frequency_mhz(InterconnectKind::Mesh, self.placement.num_pes()) {
            scalagraph_hwmodel::SynthesisOutcome::Routed { fmax_mhz } => {
                fmax_mhz.min(OPERATING_CLOCK_MHZ)
            }
            scalagraph_hwmodel::SynthesisOutcome::RouteFailure => OPERATING_CLOCK_MHZ,
        }
    }

    /// Per-tile memory configuration at the effective clock.
    pub fn tile_memory(&self) -> HbmConfig {
        let clock_hz = self.effective_clock_mhz() * 1e6;
        match self.memory {
            MemoryPreset::U280 => HbmConfig::u280_stack(clock_hz),
            // The >1,024-PE study assumes "sufficient off-chip bandwidth"
            // (Section V-E): pseudo-channels — and with them the
            // prefetcher count — grow with the PE array width so the
            // frontend never becomes the artificial limiter.
            MemoryPreset::Unlimited => HbmConfig::unlimited(self.placement.cols.max(16)),
            MemoryPreset::Custom(c) => c,
        }
    }

    /// Validates internal consistency, rejecting degenerate configurations
    /// (empty PE array, zero queues or scratchpad, out-of-range scheduler
    /// width — the EDU dispatches one 64-byte line per cycle, so at most 16
    /// vertices can be scheduled) before they can panic deep inside
    /// `mapping`/`placement` arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        let p = self.placement;
        if p.tiles == 0 || p.rows_per_tile == 0 || p.cols == 0 {
            return Err(SimError::config(format!(
                "PE array must be non-empty (tiles={} rows={} cols={})",
                p.tiles, p.rows_per_tile, p.cols
            )));
        }
        let pes = p
            .tiles
            .checked_mul(p.rows_per_tile)
            .and_then(|n| n.checked_mul(p.cols));
        if pes.is_none_or(|n| u32::try_from(n).is_err()) {
            return Err(SimError::config(format!(
                "PE array ({} tiles x {} rows x {} cols) exceeds the 32-bit vertex-to-PE hash",
                p.tiles, p.rows_per_tile, p.cols
            )));
        }
        if self.gu_queue_capacity == 0 {
            return Err(SimError::config("GU queue must be non-empty"));
        }
        if self.router_queue_capacity == 0 {
            return Err(SimError::config("router queue must be non-empty"));
        }
        if self.queue_slots().is_none_or(|s| s > MAX_QUEUE_SLOTS) {
            return Err(SimError::config(self.queue_bound_message()));
        }
        if p.cols > MAX_COLS {
            return Err(SimError::config(format!(
                "`cols` {} exceeds {MAX_COLS}: a dispatch row numbers the up to \
                 2 x cols pops of one visit in 16 bits",
                p.cols
            )));
        }
        if self.link_width == 0 {
            return Err(SimError::config("link width must be positive"));
        }
        if !(1..=16).contains(&self.max_scheduled_vertices) {
            return Err(SimError::config(
                "degree-aware scheduler width must be in 1..=16",
            ));
        }
        if self.spd_capacity_vertices == 0 {
            return Err(SimError::config("SPD capacity must be positive"));
        }
        if let Some(mhz) = self.clock_mhz {
            if mhz.is_nan() || mhz <= 0.0 {
                return Err(SimError::config("clock override must be positive"));
            }
        }
        if let MemoryPreset::Custom(hbm) = &self.memory {
            if hbm.channels == 0 {
                return Err(SimError::config("memory must expose at least one channel"));
            }
            if hbm.bytes_per_cycle_per_channel.is_nan() || hbm.bytes_per_cycle_per_channel <= 0.0 {
                return Err(SimError::config("memory bandwidth must be positive"));
            }
            if hbm.queue_depth == 0 {
                return Err(SimError::config("memory queue depth must be positive"));
            }
        }
        // Deadline-path knobs. The fast-forward watchdog emulation computes
        // `now + wait + (threshold - 1)` in u64; bounding both the watchdog
        // window and the cycle limit by the safety cap keeps every such
        // fire-cycle computation overflow-free and keeps the knobs
        // meaningful (beyond the cap the run ends as CycleCapExceeded
        // before either could fire).
        if self.watchdog_stall_cycles > CYCLE_SAFETY_CAP {
            return Err(SimError::config(format!(
                "watchdog window {} exceeds the cycle safety cap {CYCLE_SAFETY_CAP}",
                self.watchdog_stall_cycles
            )));
        }
        if let Some(limit) = self.cycle_limit {
            if limit == 0 {
                return Err(SimError::config(
                    "cycle limit must be positive (None disables it)",
                ));
            }
            if limit > CYCLE_SAFETY_CAP {
                return Err(SimError::config(format!(
                    "cycle limit {limit} exceeds the cycle safety cap {CYCLE_SAFETY_CAP}"
                )));
            }
        }
        if let Some(plan) = &self.fault_plan {
            for f in &plan.faults {
                if f.until_cycle <= f.from_cycle {
                    return Err(SimError::config(format!(
                        "fault window [{}, {}) is empty",
                        f.from_cycle, f.until_cycle
                    )));
                }
            }
        }
        Ok(())
    }
}

impl ScalaGraphConfig {
    /// PE-queue slots per PE: five router ports of registers plus router
    /// queue, and the GU input queue.
    fn queue_slots_per_pe(&self) -> Option<usize> {
        self.aggregation_registers
            .checked_add(self.router_queue_capacity)?
            .checked_mul(NUM_DIRS)?
            .checked_add(self.gu_queue_capacity)
    }

    /// PE-queue slots of the whole machine; `None` past `usize`.
    fn queue_slots(&self) -> Option<usize> {
        self.queue_slots_per_pe()?
            .checked_mul(self.placement.num_pes())
    }

    /// Why the PE queues exceed [`MAX_QUEUE_SLOTS`], naming the field to
    /// lower: the PE count when the default capacities would not fit at
    /// this size either, else the capacity that weighs most.
    fn queue_bound_message(&self) -> String {
        let pes = self.placement.num_pes();
        let defaults = Self::with_pes(32).queue_slots_per_pe().unwrap_or(0);
        let (field, value) = if pes.saturating_mul(defaults) > MAX_QUEUE_SLOTS {
            ("pes", pes)
        } else {
            [
                (
                    "aggregation_registers",
                    self.aggregation_registers,
                    NUM_DIRS,
                ),
                (
                    "router_queue_capacity",
                    self.router_queue_capacity,
                    NUM_DIRS,
                ),
                ("gu_queue_capacity", self.gu_queue_capacity, 1),
            ]
            .into_iter()
            .max_by_key(|&(_, value, weight)| value.saturating_mul(weight))
            .map_or(("pes", pes), |(field, value, _)| (field, value))
        };
        format!(
            "`{field}` {value} takes the PE queues past the engine's bound of \
             {MAX_QUEUE_SLOTS} slots: {pes} PEs x (5 x ({} registers + {} router queue) \
             + {} GU queue)",
            self.aggregation_registers, self.router_queue_capacity, self.gu_queue_capacity
        )
    }
}

impl Default for ScalaGraphConfig {
    fn default() -> Self {
        Self::scalagraph_512()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_geometry() {
        let c512 = ScalaGraphConfig::scalagraph_512();
        assert_eq!(c512.placement.tiles, 2);
        assert_eq!(c512.placement.cols, 16);
        let c128 = ScalaGraphConfig::scalagraph_128();
        assert_eq!(c128.placement.cols, 4);
        let c32 = ScalaGraphConfig::with_pes(32);
        assert_eq!(c32.placement.cols, 1);
    }

    #[test]
    fn effective_clock_is_250_up_to_1024() {
        for pes in [32, 128, 512, 1024] {
            let c = ScalaGraphConfig::with_pes(pes);
            assert_eq!(c.effective_clock_mhz(), 250.0, "{pes} PEs");
        }
        // Beyond the FPGA: simulator pinned at 250 MHz (Section V-E).
        assert_eq!(
            ScalaGraphConfig::with_pes(4096).effective_clock_mhz(),
            250.0
        );
    }

    #[test]
    fn clock_override_wins() {
        let mut c = ScalaGraphConfig::scalagraph_128();
        c.clock_mhz = Some(100.0);
        assert_eq!(c.effective_clock_mhz(), 100.0);
    }

    #[test]
    fn tile_memory_presets() {
        let c = ScalaGraphConfig::scalagraph_512();
        assert_eq!(c.tile_memory().channels, 16);
        let mut u = ScalaGraphConfig::scalagraph_512();
        u.memory = MemoryPreset::Unlimited;
        assert!(u.tile_memory().total_bytes_per_cycle() > 1e9);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn rejects_odd_pe_count() {
        let _ = ScalaGraphConfig::with_pes(100);
    }

    #[test]
    fn validate_rejects_wide_scheduler() {
        let mut c = ScalaGraphConfig::scalagraph_128();
        c.max_scheduled_vertices = 20;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("scheduler width"), "{err}");
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let base = ScalaGraphConfig::with_pes(32);
        assert!(base.validate().is_ok());
        let break_it: [fn(&mut ScalaGraphConfig); 7] = [
            |c| c.gu_queue_capacity = 0,
            |c| c.router_queue_capacity = 0,
            |c| c.link_width = 0,
            |c| c.max_scheduled_vertices = 0,
            |c| c.spd_capacity_vertices = 0,
            |c| c.clock_mhz = Some(-1.0),
            |c| c.placement = Placement::new(1 << 16, 1 << 16, 2),
        ];
        for (i, f) in break_it.iter().enumerate() {
            let mut c = base.clone();
            f(&mut c);
            assert!(
                matches!(c.validate(), Err(SimError::ConfigInvalid { .. })),
                "case {i} must be rejected"
            );
        }
    }

    #[test]
    fn validate_bounds_the_pe_queue_state() {
        let field = |c: &ScalaGraphConfig| match c.validate() {
            Err(SimError::ConfigInvalid { detail }) => detail,
            other => panic!("expected ConfigInvalid, got {other:?}"),
        };
        // Figure 21's largest machine, at the default capacities.
        let fig21 = ScalaGraphConfig::with_pes(4096);
        assert_eq!(fig21.queue_slots(), Some(557_056));
        assert!(fig21.validate().is_ok());
        // 32 PEs x (5 x (13,096 + 8) + 16) is exactly the bound.
        let mut at_bound = ScalaGraphConfig::with_pes(32);
        at_bound.aggregation_registers = 13_096;
        assert_eq!(at_bound.queue_slots(), Some(MAX_QUEUE_SLOTS));
        assert!(at_bound.validate().is_ok());
        at_bound.aggregation_registers += 1;
        assert!(field(&at_bound).starts_with("`aggregation_registers` 13097"));

        let mut regs = ScalaGraphConfig::with_pes(32);
        regs.aggregation_registers = 1 << 40;
        assert!(field(&regs).starts_with("`aggregation_registers` 1099511627776"));
        let mut pes = ScalaGraphConfig::with_pes(1 << 30);
        assert!(field(&pes).starts_with("`pes` 1073741824"));
        pes = ScalaGraphConfig::with_pes(1 << 14);
        assert!(field(&pes).starts_with("`pes` 16384"), "{}", field(&pes));
        let mut wrap = ScalaGraphConfig::with_pes(32);
        wrap.router_queue_capacity = usize::MAX;
        assert!(field(&wrap).starts_with("`router_queue_capacity`"));
        wrap = ScalaGraphConfig::with_pes(32);
        wrap.gu_queue_capacity = usize::MAX;
        assert!(field(&wrap).starts_with("`gu_queue_capacity`"));
    }

    #[test]
    fn validate_bounds_the_mesh_columns() {
        assert_eq!(MAX_COLS, 32_767);
        // One-slot queues keep the widest meshes under MAX_QUEUE_SLOTS, so
        // only the column bound can refuse them.
        let mut c = ScalaGraphConfig::with_pes(32);
        c.aggregation_registers = 0;
        c.router_queue_capacity = 1;
        c.gu_queue_capacity = 1;
        c.placement = Placement::new(1, 1, MAX_COLS);
        assert!(c.validate().is_ok());
        c.placement = Placement::new(1, 1, MAX_COLS + 1);
        match c.validate() {
            Err(SimError::ConfigInvalid { detail }) => {
                assert!(detail.starts_with("`cols` 32768"), "{detail}")
            }
            other => panic!("expected ConfigInvalid, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_overflowing_watchdog_window() {
        let mut c = ScalaGraphConfig::with_pes(32);
        c.watchdog_stall_cycles = CYCLE_SAFETY_CAP + 1;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("watchdog window"), "{err}");
        // The cap itself is the largest accepted window.
        c.watchdog_stall_cycles = CYCLE_SAFETY_CAP;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_cycle_limit() {
        let mut c = ScalaGraphConfig::with_pes(32);
        c.cycle_limit = Some(0);
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("cycle limit"), "{err}");
    }

    #[test]
    fn validate_rejects_overflowing_cycle_limit() {
        let mut c = ScalaGraphConfig::with_pes(32);
        c.cycle_limit = Some(CYCLE_SAFETY_CAP + 1);
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("cycle limit"), "{err}");
        c.cycle_limit = Some(CYCLE_SAFETY_CAP);
        assert!(c.validate().is_ok());
        // The same bounds hold in the dense reference.
        c.fast_forward = false;
        assert!(c.validate().is_ok());
        c.cycle_limit = Some(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_fault_windows() {
        use crate::fault::{Fault, FaultKind, FaultPlan, LinkDir};
        let mut c = ScalaGraphConfig::with_pes(32);
        c.fault_plan = Some(
            FaultPlan::seeded(1).with(
                Fault::new(FaultKind::LinkDown {
                    node: 0,
                    dir: LinkDir::East,
                })
                .window(10, 10),
            ),
        );
        assert!(c.validate().is_err());
    }
}
