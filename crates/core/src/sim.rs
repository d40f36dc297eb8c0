//! The cycle-accurate ScalaGraph engine.
//!
//! One [`Simulator::run`] executes a vertex-centric algorithm to completion
//! on the modelled accelerator, advancing all hardware units one clock
//! cycle at a time:
//!
//! * per-tile **HBM** pseudo-channels ([`scalagraph_mem::Hbm`]),
//! * per-tile **prefetchers** (VPref batches active-vertex records eight to
//!   a 64-byte line; EPref fetches 64-byte edge lines with adjacent-line
//!   merging — the locality the degree-aware scheduler exploits),
//! * per-row **dispatching units** (up to one 64-byte line of edges per
//!   row per cycle, from at most `max_scheduled_vertices` distinct
//!   sources),
//! * per-PE **graph units** (one `Process` per cycle),
//! * per-PE **routing units** — XY mesh routing with the update-aggregation
//!   buffer on every output port,
//! * per-PE **scratchpads** (one `Reduce` per cycle, one `Apply` per
//!   cycle).
//!
//! Phases follow Figure 9: a Scatter wave drains fully before its Apply
//! pass starts; with inter-phase pipelining (Section IV-D) the *next*
//! Scatter wave runs concurrently with the current Apply pass, fed by
//! freshly applied vertices.
//!
//! Time advances through one event-driven loop. Every pipeline unit class
//! (EDU rows, GUs, routers, scratchpads, apply units) keeps an activity
//! bitmap, and a cycle visits only the units whose bit is set. When every
//! bitmap is empty only timers can act, and the clock jumps to the next
//! timer expiry in closed form. With
//! [`fast_forward`](ScalaGraphConfig::fast_forward) off the same loop runs
//! as the dense reference: every bit is set on every cycle and no cycle is
//! skipped, so comparing the two checks that the bitmaps never miss work.

use crate::cancel::{CancelSignal, CancelToken};
use crate::config::ScalaGraphConfig;
use crate::device::DeviceGraph;
use crate::error::{
    HbmChannelSnapshot, NodeSnapshot, SimError, StallSnapshot, StalledUnit, TileSnapshot,
};
use crate::fault::{FaultInjector, FlitAction};
use crate::mapping::Mapping;
use crate::placement::Placement;
use crate::ports::{
    Flit, PortSlab, RingSlab, EAST, EJECT, MESH_DIRS, NORTH, NUM_DIRS, SOUTH, WEST,
};
use crate::slab::TagSlab;
use crate::stats::{SimResult, SimStats};
use scalagraph_algo::{Algorithm, EdgeCtx};
use scalagraph_graph::{Csr, VertexId, EDGES_PER_LINE, LINE_BYTES};
use scalagraph_mem::{Hbm, MemRequest};
use scalagraph_telemetry::{
    Collector, HbmChannelSample, InstantKind, NullCollector, SpanName, Stage, TileSample, Topology,
};
use std::collections::VecDeque;
use std::ops::Range;

/// Safety cap on simulated cycles; reaching it means the workload diverged
/// (the progress watchdog catches deadlocks much earlier), so the run ends
/// with [`SimError::CycleCapExceeded`] instead of spinning forever. Public
/// because it bounds the deadline knobs: `ScalaGraphConfig::validate`
/// rejects watchdog windows and [`cycle_limit`](ScalaGraphConfig::cycle_limit)
/// values beyond it.
pub const CYCLE_SAFETY_CAP: u64 = 2_000_000_000;

// A flit stamps its injection cycle in 32 bits.
const _: () = assert!(CYCLE_SAFETY_CAP <= u32::MAX as u64);

/// An edge workload travelling from dispatcher to GU.
#[derive(Debug, Clone, Copy)]
struct EdgeWork<P> {
    src: VertexId,
    dst: VertexId,
    /// Home PE of `dst`, which the dispatcher resolved to pick the lane.
    home: u32,
    weight: u32,
    src_degree: u32,
    src_prop: P,
}

/// Where one PE sits in the global mesh, tabulated once per run so that
/// routing and dispatch compare and add instead of dividing. Indexed by
/// the flat PE id, which is also the mesh node id.
#[derive(Debug, Clone, Copy)]
struct NodeGeo {
    /// Global mesh row (tiles are stacked vertically).
    row: u32,
    /// Mesh column.
    col: u32,
    /// Global row of the first row of this PE's tile.
    tile_row0: u32,
    /// Row within the tile.
    row_in_tile: u32,
}

/// `a % d` for one fixed divisor by two multiplications instead of a
/// division (Lemire's direct remainder), exact for every 32-bit `a` and
/// positive `d`: the dispatcher hashes the destination of every edge.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    m: u64,
    d: u32,
}

impl FastMod {
    fn new(d: u32) -> Self {
        debug_assert!(d > 0, "a remainder needs a positive divisor");
        FastMod {
            m: (u64::MAX / u64::from(d)).wrapping_add(1),
            d,
        }
    }

    #[inline]
    fn rem(self, a: u32) -> u32 {
        let low = self.m.wrapping_mul(u64::from(a));
        ((u128::from(low) * u128::from(self.d)) >> 64) as u32
    }
}

fn geometry(p: Placement) -> Vec<NodeGeo> {
    (0..p.num_pes())
        .map(|node| {
            let row = node / p.cols;
            let row_in_tile = row % p.rows_per_tile;
            NodeGeo {
                row: row as u32,
                col: (node % p.cols) as u32,
                tile_row0: (row - row_in_tile) as u32,
                row_in_tile: row_in_tile as u32,
            }
        })
        .collect()
}

/// An active vertex queued in a tile's frontend.
#[derive(Debug, Clone, Copy)]
struct ActiveVertex<P> {
    v: VertexId,
    prop: P,
}

/// A record-fetched vertex whose edge lines are being issued; `cursor` is
/// the next un-issued flat edge index.
#[derive(Debug, Clone, Copy)]
struct EdgeCursor<P> {
    av: ActiveVertex<P>,
    cursor: usize,
    end: usize,
    degree: u32,
}

/// A run of contiguous edges of one source vertex, ready for dispatch.
/// Deliberately not `Clone`: segments move through the prefetch slab and
/// dispatch queues, never duplicating on the hot path.
#[derive(Debug)]
struct Segment<P> {
    src: VertexId,
    prop: P,
    src_degree: u32,
    edges: Range<usize>,
}

/// Memory-request tags encode the owning slab and slot so responses route
/// back without a hash lookup: bit 0 picks the slab (0 = vertex records,
/// 1 = edge lines), the rest is the recycled slot id. Write-backs carry no
/// response, so their tags only need to be distinct for diagnostics — a
/// monotonic counter above [`WRITE_TAG_BIT`].
const TAG_KIND_LINE: u64 = 1;
const WRITE_TAG_BIT: u64 = 1 << 63;

fn vpref_tag(slot: u32) -> u64 {
    u64::from(slot) << 1
}

fn line_tag(slot: u32) -> u64 {
    (u64::from(slot) << 1) | TAG_KIND_LINE
}

fn tag_slot(tag: u64) -> u32 {
    ((tag & !WRITE_TAG_BIT) >> 1) as u32
}

/// Per-tile fetch/dispatch frontend.
struct TileFrontend<P> {
    hbm: Hbm,
    channel_rr: usize,
    next_write_tag: u64,
    /// Actives awaiting a vertex-record fetch.
    vpref_pending: VecDeque<ActiveVertex<P>>,
    /// Record-line fetches in flight, slot-indexed by the request tag.
    vpref_inflight: TagSlab<ActiveVertex<P>>,
    /// Records fetched; edge lines being issued.
    records_ready: VecDeque<EdgeCursor<P>>,
    /// Edge-line fetches in flight, slot-indexed by the request tag.
    line_inflight: TagSlab<Segment<P>>,
    /// Most recently issued edge line `(line id, tag)`, for adjacent-line
    /// merging across consecutive active vertices.
    last_line: Option<(usize, u64)>,
    /// Per-row dispatch queues of fetched segments.
    row_queues: Vec<VecDeque<Segment<P>>>,
    /// Activations awaiting active-list write-back (batched 8 per line).
    write_backlog: u64,
}

impl<P: Copy> TileFrontend<P> {
    fn new(hbm: Hbm, rows: usize) -> Self {
        TileFrontend {
            hbm,
            channel_rr: 0,
            next_write_tag: 0,
            vpref_pending: VecDeque::new(),
            vpref_inflight: TagSlab::new(),
            records_ready: VecDeque::new(),
            line_inflight: TagSlab::new(),
            last_line: None,
            row_queues: (0..rows).map(|_| VecDeque::new()).collect(),
            write_backlog: 0,
        }
    }

    fn is_drained(&self) -> bool {
        self.vpref_pending.is_empty()
            && self.vpref_inflight.is_empty()
            && self.records_ready.is_empty()
            && self.line_inflight.is_empty()
            && self.row_queues.iter().all(VecDeque::is_empty)
    }

    fn fresh_write_tag(&mut self) -> u64 {
        self.next_write_tag += 1;
        WRITE_TAG_BIT | self.next_write_tag
    }
}

/// Phase of the global machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// A Scatter wave is in flight (no Apply pass).
    Scatter,
    /// An Apply pass is in flight; under inter-phase pipelining the next
    /// Scatter wave runs concurrently with it.
    Apply,
}

/// The cycle-accurate simulator. See the [module docs](self) for the
/// machine model.
///
/// # Example
///
/// ```
/// use scalagraph::{ScalaGraphConfig, Simulator};
/// use scalagraph_algo::algorithms::Bfs;
/// use scalagraph_graph::{generators, Csr};
///
/// let graph = Csr::from_edges(64, &generators::binary_tree(64));
/// let cfg = ScalaGraphConfig::with_pes(32);
/// let result = Simulator::new(&Bfs::from_root(0), &graph, cfg).run();
/// assert_eq!(result.properties[1], 1);
/// assert!(result.stats.cycles > 0);
/// ```
pub struct Simulator<'a, A: Algorithm> {
    algo: &'a A,
    graph: &'a Csr,
    config: ScalaGraphConfig,
    device: DeviceGraph,
}

impl<'a, A: Algorithm> Simulator<'a, A> {
    /// Prepares a simulator: validates the configuration and lays the
    /// graph out across tiles (and slices, if it exceeds on-chip
    /// capacity).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`ScalaGraphConfig::validate`]); [`Simulator::try_new`] reports the
    /// same conditions as a [`SimError`] instead.
    pub fn new(algo: &'a A, graph: &'a Csr, config: ScalaGraphConfig) -> Self {
        match Self::try_new(algo, graph, config) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Simulator::new`]: rejects degenerate configurations with
    /// [`SimError::ConfigInvalid`] instead of panicking, so sweeps can
    /// record the failure and move on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] when
    /// [`ScalaGraphConfig::validate`] does.
    pub fn try_new(
        algo: &'a A,
        graph: &'a Csr,
        config: ScalaGraphConfig,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let device = DeviceGraph::prepare(graph, &config);
        Ok(Simulator {
            algo,
            graph,
            config,
            device,
        })
    }

    /// The device layout prepared for this run.
    pub fn device(&self) -> &DeviceGraph {
        &self.device
    }

    /// The configuration in use.
    pub fn config(&self) -> &ScalaGraphConfig {
        &self.config
    }

    /// Runs the algorithm to completion and returns final properties plus
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the run fails (see [`Simulator::try_run`] for the
    /// recoverable form). Without a fault plan a failure indicates a
    /// simulator bug, so the panic keeps legacy callers loud.
    pub fn run(&mut self) -> SimResult<A::Prop> {
        match self.try_run() {
            Ok(result) => result,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Runs the algorithm to completion, surfacing every failure mode —
    /// watchdog-detected deadlocks (with a diagnostic [`StallSnapshot`]),
    /// protocol violations, unrecoverable injected faults, the global
    /// cycle cap — as a typed [`SimError`] instead of a panic. With no
    /// fault plan attached the result is identical to [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] describing why the machine could not
    /// complete the run.
    pub fn try_run(&mut self) -> Result<SimResult<A::Prop>, SimError> {
        self.try_run_with(&mut NullCollector)
    }

    /// [`Simulator::try_run`] with a telemetry [`Collector`] attached.
    ///
    /// The engine guards every emission point with the collector's
    /// compile-time `ENABLED` flag, so `try_run_with(&mut NullCollector)`
    /// monomorphizes to exactly the un-instrumented machine and a
    /// [`telemetry::Recorder`](scalagraph_telemetry::Recorder) observes the
    /// run without perturbing it: results are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] describing why the machine could not
    /// complete the run. The collector still receives its final flush and
    /// `on_run_end`, so partial traces of failed runs export cleanly.
    pub fn try_run_with<C: Collector>(
        &mut self,
        collector: &mut C,
    ) -> Result<SimResult<A::Prop>, SimError> {
        Engine::new(
            self.algo,
            self.graph,
            &self.config,
            &self.device,
            collector,
            None,
        )
        .try_run()
    }

    /// [`Simulator::try_run`] under a cooperative [`CancelToken`].
    ///
    /// The engine polls the token once per stepped cycle (one relaxed
    /// atomic load; fast-forwarded spans wake at their next event cycle)
    /// and unwinds through the normal error path when it is signalled:
    /// [`CancelToken::cancel`] yields [`SimError::Cancelled`],
    /// [`CancelToken::expire`] yields [`SimError::DeadlineExceeded`], both
    /// carrying the cycle and the partial [`SimStats`]. An unsignalled
    /// token leaves the run bit-identical to [`Simulator::try_run`].
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] describing why the machine could not
    /// complete the run.
    pub fn try_run_cancellable(
        &mut self,
        token: &CancelToken,
    ) -> Result<SimResult<A::Prop>, SimError> {
        Engine::new(
            self.algo,
            self.graph,
            &self.config,
            &self.device,
            &mut NullCollector,
            Some(token),
        )
        .try_run()
    }
}

/// Convenience one-shot run with a fresh simulator.
pub fn run_on<A: Algorithm>(algo: &A, graph: &Csr, config: ScalaGraphConfig) -> SimResult<A::Prop> {
    Simulator::new(algo, graph, config).run()
}

/// Fallible [`run_on`]: builds and runs a simulator, returning every
/// failure as a [`SimError`].
///
/// # Errors
///
/// Returns [`SimError`] when the configuration is invalid or the run
/// cannot complete.
pub fn try_run_on<A: Algorithm>(
    algo: &A,
    graph: &Csr,
    config: ScalaGraphConfig,
) -> Result<SimResult<A::Prop>, SimError> {
    Simulator::try_new(algo, graph, config)?.try_run()
}

/// Per-cycle scratch buffers the engine reuses across cycles instead of
/// reallocating: dispatch lane ownership and source budgets, and the
/// routing pass's drains. Taken out of the engine with
/// `mem::take` for the duration of a step stage and put back after, so
/// the buffers never fight the borrow checker and never hit the allocator
/// in steady state.
#[derive(Default)]
struct Scratch {
    /// Which segment owns each PE lane this dispatch cycle.
    lane_owner: Vec<u16>,
    /// Distinct source vertices scheduled this dispatch cycle.
    srcs_used: Vec<VertexId>,
    /// Routing: `(port, k)` for each port whose `k` oldest flits left it
    /// this pass, applied when the moves land.
    drains: Vec<(usize, usize)>,
}

/// A flit a routing pass drained, and the port it lands in once every
/// router has decided.
#[derive(Clone, Copy)]
struct Move<P> {
    to_port: usize,
    dst: VertexId,
    flit: Flit<P>,
}

/// An activity bitmap over one unit class; a set bit means the unit may
/// hold work. The single invariant the event core rests on: every push
/// into a unit's queue sets that unit's bit, and a bit is only cleared
/// when a visit finds the unit's queues empty — so a clear bit *proves*
/// the unit has nothing to do and stepping it would be a no-op.
#[derive(Default)]
struct UnitMask {
    bits: Vec<u64>,
    units: usize,
}

impl UnitMask {
    fn sized(units: usize) -> Self {
        UnitMask {
            bits: vec![0; units.div_ceil(64)],
            units,
        }
    }

    fn set(&mut self, unit: usize) {
        self.bits[unit >> 6] |= 1 << (unit & 63);
    }

    /// Sets every unit's bit (the dense reference's cycle).
    fn fill(&mut self) {
        self.bits.fill(!0);
        let spare = self.bits.len() * 64 - self.units;
        if let Some(last) = self.bits.last_mut() {
            *last >>= spare;
        }
    }

    fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Visits every set bit in ascending order, clearing the bits for
    /// which `keep` returns `false`. Returns the number of bits visited.
    /// Bits set in *other* masks during the walk are untouched; callers
    /// never mutate the mask they are walking.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) -> usize {
        let mut visited = 0;
        for (wi, word) in self.bits.iter_mut().enumerate() {
            let mut scan = *word;
            while scan != 0 {
                let bit = scan.trailing_zeros() as usize;
                scan &= scan - 1;
                visited += 1;
                if !keep((wi << 6) | bit) {
                    *word &= !(1u64 << bit);
                }
            }
        }
        visited
    }
}

/// State of the event-driven stepping core: per-unit-class activity
/// bitmaps for the pipeline units and the unit-visit counters behind the
/// events-dispatched / units-skipped diagnostics. Timers (HBM latency,
/// fetch stalls, broadcast drains, fault-parked flits) need no bitmap:
/// once every mask is empty, [`Engine::try_fast_forward`] jumps to the
/// earliest of them.
struct EventCore {
    /// The dense reference: every bit set on every cycle, no idle skip
    /// (`fast_forward` off).
    dense: bool,
    /// Dispatch rows plus four unit classes per PE — the denominator of
    /// the busy fraction.
    units_total: u64,
    /// Per-(tile × row) EDU dispatch activity.
    rows: UnitMask,
    /// Per-PE GU activity.
    gu: UnitMask,
    /// Per-PE router activity (any of the four mesh output buffers).
    route: UnitMask,
    /// Per-PE scratchpad activity (the eject buffer).
    spd: UnitMask,
    /// Per-PE apply-queue activity.
    apply: UnitMask,
    /// Cumulative unit visits performed on executed cycles.
    dispatched: u64,
    /// Cumulative unit visits avoided: masked-off units on executed
    /// cycles plus all units across whole-device skips.
    skipped: u64,
    /// Portion of the counters already reported to the collector.
    flushed_dispatched: u64,
    flushed_skipped: u64,
}

impl EventCore {
    fn new(cfg: &ScalaGraphConfig) -> Self {
        let p = cfg.placement;
        let (rows, pes) = (p.tiles * p.rows_per_tile, p.num_pes());
        EventCore {
            dense: !cfg.fast_forward,
            units_total: (rows + 4 * pes) as u64,
            rows: UnitMask::sized(rows),
            gu: UnitMask::sized(pes),
            route: UnitMask::sized(pes),
            spd: UnitMask::sized(pes),
            apply: UnitMask::sized(pes),
            dispatched: 0,
            skipped: 0,
            flushed_dispatched: 0,
            flushed_skipped: 0,
        }
    }

    /// With every pipeline mask empty, only timers can act: the
    /// whole-device skip-ahead applies.
    fn masks_empty(&self) -> bool {
        self.rows.is_empty()
            && self.gu.is_empty()
            && self.route.is_empty()
            && self.spd.is_empty()
            && self.apply.is_empty()
    }

    /// Sets every bit of every mask, so the cycle visits every unit.
    fn fill(&mut self) {
        for mask in [
            &mut self.rows,
            &mut self.gu,
            &mut self.route,
            &mut self.spd,
            &mut self.apply,
        ] {
            mask.fill();
        }
    }
}

/// A flit held between routers by an injected link-delay (or corruption)
/// fault: it left `node` via `dir` and re-enters the downstream buffer at
/// `release`.
struct DelayedFlit<P> {
    release: u64,
    node: usize,
    dir: usize,
    dst: VertexId,
    flit: Flit<P>,
}

/// Monotonic counters the watchdog samples: any change between cycles is
/// forward progress. Quiet-but-legitimate states (fetch stalls, broadcast
/// drain, delayed flits awaiting release) are covered separately by
/// [`Engine::waiting_on_timer`].
#[derive(Clone, Copy, PartialEq, Default)]
struct ProgressMark {
    traversed_edges: u64,
    updates_produced: u64,
    updates_delivered: u64,
    noc_hops: u64,
    activations: u64,
    applies: u64,
    vpref_lines: u64,
    epref_lines: u64,
    epref_piggybacks: u64,
    iterations: u64,
    flits_dropped: u64,
    flits_delayed: u64,
    hbm_reads: u64,
    hbm_writes: u64,
    slice: usize,
    scatter_iter: u64,
    in_apply: bool,
}

/// Previous cumulative counter values the telemetry sampler diffs against
/// at each window boundary, plus the engine-side span bookkeeping. Only
/// allocated when the attached collector is enabled.
struct TelScratch {
    /// Per-tile GU-busy cycles at the last window boundary.
    gu_busy: Vec<u64>,
    /// Per-tile aggregation merges at the last window boundary.
    merges: Vec<u64>,
    /// Per-tile dispatched edges at the last window boundary.
    dispatched: Vec<u64>,
    /// Per-(tile × channel) HBM bytes at the last window boundary.
    hbm_bytes: Vec<u64>,
    /// Per-(tile × channel) HBM stall cycles at the last window boundary.
    hbm_stalls: Vec<u64>,
    /// Open span on the iteration track.
    iter_open: Option<u64>,
    /// Open span on the scatter track: `(iteration, slice)`.
    scatter_open: Option<(u64, u64)>,
    /// Open span on the apply track.
    apply_open: Option<u64>,
}

impl TelScratch {
    fn new(tiles: usize, channels_per_tile: usize) -> Self {
        TelScratch {
            gu_busy: vec![0; tiles],
            merges: vec![0; tiles],
            dispatched: vec![0; tiles],
            hbm_bytes: vec![0; tiles * channels_per_tile],
            hbm_stalls: vec![0; tiles * channels_per_tile],
            iter_open: None,
            scatter_open: None,
            apply_open: None,
        }
    }
}

struct Engine<'a, A: Algorithm, C: Collector> {
    algo: &'a A,
    graph: &'a Csr,
    cfg: &'a ScalaGraphConfig,
    dev: &'a DeviceGraph,
    col: &'a mut C,
    /// Telemetry scratch; `Some` exactly when `C::ENABLED`.
    tel: Option<TelScratch>,

    props: Vec<A::Prop>,
    temp: Vec<A::Prop>,
    touched: Vec<bool>,
    touched_list: Vec<VertexId>,

    tiles: Vec<TileFrontend<A::Prop>>,
    /// Router output ports of every PE.
    ports: PortSlab<A::Prop>,
    /// GU input queue of every PE.
    gu_queues: RingSlab<EdgeWork<A::Prop>>,
    /// Apply queue of every PE (unbounded).
    apply_queues: Vec<VecDeque<VertexId>>,
    /// Mesh coordinates of every PE.
    geo: Vec<NodeGeo>,
    /// The vertex-to-PE hash [`Placement::home_pe`], `v % num_pes`.
    home: FastMod,

    stats: SimStats,
    now: u64,

    phase: Phase,
    /// Iteration index of the scatter wave currently being fed/executed.
    scatter_iter: u64,
    /// Slice index of the current scatter wave.
    slice: usize,
    /// Whether the current scatter wave still accepts input (the apply
    /// pass feeding it has not finished).
    scatter_input_open: bool,
    /// Buffered activations for the next wave.
    next_active: Vec<ActiveVertex<A::Prop>>,
    /// Whether inter-phase pipelining is engaged for this run.
    pipelined: bool,
    /// Full active list of the current iteration (replayed per slice).
    iter_active: Vec<ActiveVertex<A::Prop>>,
    /// Pending DOM replica broadcasts (drained one per cycle).
    broadcast_backlog: u64,
    /// Iteration limit.
    limit: u64,

    frontier_sizes: Vec<usize>,
    apply_inflight: usize,
    /// Cycles the frontends must wait before fetching the next wave's
    /// actives: the active-list write-back/read-back round trip that
    /// inter-phase pipelining exists to hide (Figure 13).
    fetch_stall: u64,
    /// Updates crossing a link this cycle (reused allocation).
    moves: Vec<Move<A::Prop>>,
    /// Reused per-cycle scratch buffers for dispatch and routing, so the
    /// steady-state hot loop allocates nothing.
    scratch: Scratch,
    /// Per-node GU busy counters (telemetry tile samples; counted only
    /// when `C::ENABLED`).
    gu_busy_per_node: Vec<u64>,
    /// Per-(tile,row) dispatched-edge counters (telemetry tile samples;
    /// counted only when `C::ENABLED`).
    dispatched_per_row: Vec<u64>,
    /// Fault injector built from the configuration's plan; `None` leaves
    /// every fault hook cold.
    injector: Option<FaultInjector>,
    /// Flits parked between routers by delay/corruption faults.
    delayed: Vec<DelayedFlit<A::Prop>>,
    /// Activity bitmaps of the event-driven stepping core.
    ev: EventCore,
    /// Cooperative cancellation flag, polled once per stepped cycle.
    /// `None` (the plain `try_run` paths) costs one branch per cycle.
    ctl: Option<&'a CancelToken>,
}

impl<'a, A: Algorithm, C: Collector> Engine<'a, A, C> {
    fn new(
        algo: &'a A,
        graph: &'a Csr,
        cfg: &'a ScalaGraphConfig,
        dev: &'a DeviceGraph,
        col: &'a mut C,
        ctl: Option<&'a CancelToken>,
    ) -> Self {
        let n = graph.num_vertices();
        let placement = cfg.placement;
        let pes = placement.num_pes();
        let fill = algo.reduce_identity();
        let tiles = (0..placement.tiles)
            .map(|_| TileFrontend::new(Hbm::new(cfg.tile_memory()), placement.rows_per_tile))
            .collect();

        let pipelined = cfg.inter_phase_pipelining && algo.is_monotonic() && dev.num_slices() == 1;
        let limit = algo.max_iterations().map_or(u64::MAX, |m| m as u64);

        Engine {
            algo,
            graph,
            cfg,
            dev,
            col,
            tel: C::ENABLED.then(|| TelScratch::new(placement.tiles, cfg.tile_memory().channels)),
            props: (0..n as u32).map(|v| algo.init(v, graph)).collect(),
            temp: vec![algo.reduce_identity(); n],
            touched: vec![false; n],
            touched_list: Vec::new(),
            tiles,
            ports: PortSlab::new(
                pes,
                cfg.aggregation_registers,
                cfg.router_queue_capacity,
                fill,
            ),
            gu_queues: RingSlab::new(
                pes,
                cfg.gu_queue_capacity,
                EdgeWork {
                    src: 0,
                    dst: 0,
                    home: 0,
                    weight: 0,
                    src_degree: 0,
                    src_prop: fill,
                },
            ),
            apply_queues: vec![VecDeque::new(); pes],
            geo: geometry(placement),
            // `validate` bounds the PE count by 32 bits.
            home: FastMod::new(pes as u32),
            stats: SimStats {
                slices: dev.num_slices() as u64,
                inter_phase_used: pipelined,
                ..SimStats::default()
            },
            now: 0,
            phase: Phase::Scatter,
            scatter_iter: 0,
            slice: 0,
            scatter_input_open: false,
            next_active: Vec::new(),
            pipelined,
            iter_active: Vec::new(),
            broadcast_backlog: 0,
            limit,
            frontier_sizes: Vec::new(),
            apply_inflight: 0,
            fetch_stall: 0,
            moves: Vec::new(),
            scratch: Scratch::default(),
            gu_busy_per_node: vec![0; pes],
            dispatched_per_row: vec![0; placement.tiles * placement.rows_per_tile],
            injector: cfg.fault_plan.clone().and_then(FaultInjector::new),
            delayed: Vec::new(),
            ev: EventCore::new(cfg),
            ctl,
        }
    }

    fn try_run(mut self) -> Result<SimResult<A::Prop>, SimError> {
        if C::ENABLED {
            let p = self.cfg.placement;
            self.col.on_run_start(Topology {
                tiles: p.tiles,
                rows_per_tile: p.rows_per_tile,
                cols: p.cols,
                channels_per_tile: self.cfg.tile_memory().channels,
                clock_mhz: self.cfg.effective_clock_mhz(),
            });
        }
        let mut initial: Vec<VertexId> = self.algo.initial_frontier(self.graph);
        scalagraph_algo::reference::dedup_frontier(&mut initial, self.graph.num_vertices());
        self.iter_active = initial
            .into_iter()
            .map(|v| ActiveVertex {
                v,
                prop: self.props[v as usize],
            })
            .collect();

        if self.iter_active.is_empty() || self.limit == 0 {
            return Ok(self.finish());
        }
        self.frontier_sizes.push(self.iter_active.len());
        self.feed_scatter_inputs();

        let mut last_mark = self.progress_mark();
        let mut stalled_for: u64 = 0;
        loop {
            if self.advance_phases() {
                break;
            }
            if self.ev.dense {
                self.ev.fill();
            } else if self.ev.masks_empty() {
                // With every pipeline mask empty only timers can act:
                // jump to the earliest one.
                let before = self.now;
                if self.try_fast_forward(&mut stalled_for) {
                    self.ev.skipped += (self.now - before) * self.ev.units_total;
                    if C::ENABLED {
                        self.enter(Stage::Telemetry);
                        self.tel_spans_at(before + 1);
                        self.enter(Stage::Control);
                    }
                    continue;
                }
            }
            if let Err(e) = self.step() {
                self.tel_finish();
                return Err(e);
            }
            if C::ENABLED {
                self.enter(Stage::Telemetry);
                self.tel_cycle();
                self.enter(Stage::Control);
            }
            // Deterministic cycle budget: observed on exactly `limit`, with
            // identical counters and telemetry, in dense and fast-forward
            // execution alike (`try_fast_forward` never jumps past it).
            if let Some(limit) = self.cfg.cycle_limit {
                if self.now >= limit {
                    let err = SimError::DeadlineExceeded {
                        cycle: self.now,
                        partial: Box::new(self.partial_stats()),
                    };
                    self.tel_finish();
                    return Err(err);
                }
            }
            // Cooperative cancellation: one relaxed load per stepped cycle.
            // Wall-clock signals are asynchronous by nature, so *which*
            // cycle observes one depends on host timing — but the unwind
            // itself is clean (cycle boundary, flushed telemetry, partial
            // counters attached).
            if let Some(ctl) = self.ctl {
                if let Some(signal) = ctl.signal() {
                    let cycle = self.now;
                    let partial = Box::new(self.partial_stats());
                    let err = match signal {
                        CancelSignal::Cancelled => SimError::Cancelled { cycle, partial },
                        CancelSignal::DeadlineExpired => {
                            SimError::DeadlineExceeded { cycle, partial }
                        }
                    };
                    self.tel_finish();
                    return Err(err);
                }
            }
            if self.now >= CYCLE_SAFETY_CAP {
                let snapshot = Box::new(self.snapshot(stalled_for));
                self.tel_finish();
                return Err(SimError::CycleCapExceeded { snapshot });
            }
            if self.cfg.watchdog_stall_cycles == 0 {
                continue;
            }
            let mark = self.progress_mark();
            if mark != last_mark || self.waiting_on_timer() {
                last_mark = mark;
                stalled_for = 0;
            } else {
                stalled_for += 1;
                if stalled_for >= self.cfg.watchdog_stall_cycles {
                    if C::ENABLED {
                        self.col
                            .instant(self.now, InstantKind::WatchdogStall { stalled_for });
                    }
                    let err = self.stall_error(stalled_for);
                    self.tel_finish();
                    return Err(err);
                }
            }
        }
        Ok(self.finish())
    }

    // ----- telemetry -----------------------------------------------------

    /// The one stage-boundary hook: the engine now runs `stage`
    /// ([`Collector::stage`]). Free with a disabled collector.
    #[inline(always)]
    fn enter(&mut self, stage: Stage) {
        if C::ENABLED {
            self.col.stage(stage);
        }
    }

    /// Per-cycle telemetry: span transitions, then window rollover. Only
    /// called when `C::ENABLED`.
    fn tel_cycle(&mut self) {
        self.tel_spans_at(self.now);
        if self.col.window_due(self.now) {
            self.tel_sample_window();
            self.tel_flush_event_sample();
            self.col.roll_window(self.now);
        }
    }

    /// Reports the event core's unit-visit counters for the window about
    /// to roll. A no-op in the dense reference, which visits everything;
    /// the rows land *beside* the compared state as diagnostics, never
    /// inside it, so window summaries stay mode-invariant by construction.
    fn tel_flush_event_sample(&mut self) {
        if self.ev.dense {
            return;
        }
        let dispatched = self.ev.dispatched - self.ev.flushed_dispatched;
        let skipped = self.ev.skipped - self.ev.flushed_skipped;
        self.ev.flushed_dispatched = self.ev.dispatched;
        self.ev.flushed_skipped = self.ev.skipped;
        self.col.event_core_sample(dispatched, skipped);
    }

    /// Emits span begin/end events by diffing the phase machine's state
    /// against the spans currently open. Transition detection keeps the
    /// emission in one place instead of scattering it through the phase
    /// control flow, and guarantees begin/end events pair up even under
    /// inter-phase pipelining (overlapping Scatter and Apply spans live on
    /// separate tracks).
    ///
    /// Called with `self.now` after every executed cycle, and with the
    /// first cycle of a fast-forward jump after a skip: quiescence freezes
    /// the phase machine for the whole skipped window, so one diff stamped
    /// at the window's first cycle reproduces exactly what a stepped run's
    /// per-cycle diffing records.
    fn tel_spans_at(&mut self, now: u64) {
        // Computed before borrowing the scratch: these walk &self.
        let scatter_active = self.scatter_input_open || !self.scatter_machine_empty();
        let scatter_key = (self.scatter_iter, self.slice as u64);
        let apply_active = self.phase == Phase::Apply;
        let iter = self.stats.iterations;
        let apply_key = iter;
        let Some(tel) = self.tel.as_mut() else {
            return;
        };
        if tel.iter_open != Some(iter) {
            if let Some(prev) = tel.iter_open {
                self.col.span_end(now, SpanName::Iteration(prev));
            }
            self.col.span_begin(now, SpanName::Iteration(iter));
            tel.iter_open = Some(iter);
        }
        let scatter_want = scatter_active.then_some(scatter_key);
        if tel.scatter_open != scatter_want {
            if let Some((iter, slice)) = tel.scatter_open {
                self.col.span_end(now, SpanName::Scatter { iter, slice });
            }
            if let Some((iter, slice)) = scatter_want {
                self.col.span_begin(now, SpanName::Scatter { iter, slice });
            }
            tel.scatter_open = scatter_want;
        }
        let apply_want = apply_active.then_some(apply_key);
        if tel.apply_open != apply_want {
            if let Some(prev) = tel.apply_open {
                self.col.span_end(now, SpanName::Apply(prev));
            }
            if let Some(k) = apply_want {
                self.col.span_begin(now, SpanName::Apply(k));
            }
            tel.apply_open = apply_want;
        }
    }

    /// Samples every tile and HBM pseudo-channel for the window ending
    /// now: deltas of the cumulative counters since the previous boundary,
    /// plus point samples of queue occupancy.
    fn tel_sample_window(&mut self) {
        let p = self.cfg.placement;
        let ppt = p.pes_per_tile();
        let channels = self.cfg.tile_memory().channels;
        for t in 0..p.tiles {
            let mut gu = 0u64;
            let mut merges = 0u64;
            let mut depth = 0u64;
            for node in t * ppt..(t + 1) * ppt {
                gu += self.gu_busy_per_node[node];
                depth += self.gu_queues.len(node) as u64;
                depth += self.ports.held_by(node) as u64;
                merges += self.ports.merges(node);
            }
            let dispatched: u64 = (t * p.rows_per_tile..(t + 1) * p.rows_per_tile)
                .map(|r| self.dispatched_per_row[r])
                .sum();
            let Some(tel) = self.tel.as_mut() else {
                return;
            };
            let sample = TileSample {
                gu_busy: gu - tel.gu_busy[t],
                queue_depth: depth,
                agg_merges: merges - tel.merges[t],
                dispatched_edges: dispatched - tel.dispatched[t],
            };
            tel.gu_busy[t] = gu;
            tel.merges[t] = merges;
            tel.dispatched[t] = dispatched;
            self.col.tile_sample(t, sample);
            for ch in 0..self.tiles[t].hbm.num_channels() {
                let ct = self.tiles[t].hbm.channel_telemetry(ch);
                let outstanding = self.tiles[t].hbm.outstanding(ch) as u64;
                let idx = t * channels + ch;
                let Some(tel) = self.tel.as_mut() else {
                    return;
                };
                let sample = HbmChannelSample {
                    bytes: ct.bytes - tel.hbm_bytes[idx],
                    stall_cycles: ct.stall_cycles - tel.hbm_stalls[idx],
                    outstanding,
                };
                tel.hbm_bytes[idx] = ct.bytes;
                tel.hbm_stalls[idx] = ct.stall_cycles;
                self.col.hbm_sample(t, ch, sample);
            }
        }
    }

    /// Final telemetry flush: close the last partial window and let the
    /// collector close its open spans. Runs on every exit path, success or
    /// error, so traces of failed runs still balance.
    fn tel_finish(&mut self) {
        if !C::ENABLED {
            return;
        }
        self.enter(Stage::Telemetry);
        self.tel_sample_window();
        self.tel_flush_event_sample();
        self.col.roll_window(self.now);
        self.col.on_run_end(self.now);
    }

    /// Counters whose movement constitutes forward progress.
    fn progress_mark(&self) -> ProgressMark {
        let s = &self.stats;
        let mut hbm_reads = 0;
        let mut hbm_writes = 0;
        for t in &self.tiles {
            let m = t.hbm.stats();
            hbm_reads += m.reads;
            hbm_writes += m.writes;
        }
        ProgressMark {
            traversed_edges: s.traversed_edges,
            updates_produced: s.updates_produced,
            updates_delivered: s.updates_delivered,
            noc_hops: s.noc_hops,
            activations: s.activations,
            applies: s.applies,
            vpref_lines: s.vpref_lines,
            epref_lines: s.epref_lines,
            epref_piggybacks: s.epref_piggybacks,
            iterations: s.iterations,
            flits_dropped: s.flits_dropped,
            flits_delayed: s.flits_delayed,
            hbm_reads,
            hbm_writes,
            slice: self.slice,
            scatter_iter: self.scatter_iter,
            in_apply: self.phase == Phase::Apply,
        }
    }

    /// Quiet states that are legitimate bounded waits, not stalls: every
    /// one of these counts down (or releases) by itself. A permanently
    /// pinned HBM channel deliberately does *not* qualify — its requests
    /// stay in flight without any timer running.
    fn waiting_on_timer(&self) -> bool {
        self.fetch_stall > 0
            || self.broadcast_backlog > 0
            || self.delayed.iter().any(|d| d.release > self.now)
    }

    /// Idle-cycle fast-forward, called when every activity mask is empty:
    /// if the machine is only counting down timers (fetch stalls,
    /// broadcast drain, HBM latency, delayed flits), jump `now` to just
    /// before the earliest cycle on which anything can act and replay the
    /// skipped cycles' bookkeeping in closed form. Returns `true` if any
    /// cycles were skipped; the caller then re-enters the loop so the
    /// event cycle itself executes through the normal [`step`](Self::step).
    ///
    /// **Invariant: bit-identical results.** A skip is only taken when a
    /// cycle-by-cycle replay would provably touch nothing but the counters
    /// reproduced here; stats, properties, telemetry windows, injected
    /// faults, and watchdog/cycle-cap errors all land on the same cycle
    /// with the same values as in the dense reference.
    fn try_fast_forward(&mut self, stalled_for: &mut u64) -> bool {
        // --- Quiescence: nothing but timers may act on the next cycle.
        // Empty masks prove the pipeline units idle.
        debug_assert!(
            self.apply_inflight == 0
                && self.gu_queues.all_empty()
                && self.ports.all_empty()
                && self
                    .tiles
                    .iter()
                    .all(|t| t.row_queues.iter().all(VecDeque::is_empty)),
            "an empty activity mask hid pipeline work"
        );
        // A parked flit with a due (or overdue) release retries next cycle.
        if self.delayed.iter().any(|d| d.release <= self.now + 1) {
            return false;
        }
        // With the fetch stall down, the prefetchers would act on (or at
        // least rotate state over) any pending frontend work.
        if self.fetch_stall == 0
            && self.tiles.iter().any(|t| {
                !t.vpref_pending.is_empty() || !t.records_ready.is_empty() || t.write_backlog >= 8
            })
        {
            return false;
        }

        // --- Earliest cycle that must execute normally.
        let mut event = CYCLE_SAFETY_CAP;
        if let Some(limit) = self.cfg.cycle_limit {
            // The limit cycle itself must be stepped so DeadlineExceeded
            // fires on exactly that cycle with the same partial counters
            // and telemetry as a stepped run.
            event = event.min(limit);
        }
        if self.fetch_stall > 0 {
            // First cycle on which step_prefetch runs again.
            event = event.min(self.now + self.fetch_stall + 1);
        }
        if self.broadcast_backlog > 0 {
            // First cycle after the backlog fully drains, where
            // advance_phases may close the apply pass.
            event = event.min(self.now + self.broadcast_backlog + 1);
        }
        for d in &self.delayed {
            event = event.min(d.release);
        }
        for t in &self.tiles {
            if let Some(c) = t.hbm.next_event_cycle() {
                event = event.min(c);
            }
        }
        if let Some(inj) = &self.injector {
            if let Some(c) = inj.next_hbm_stall_cycle(self.now) {
                event = event.min(c);
            }
        }
        if C::ENABLED {
            // Window sampling must happen on the exact boundary cycle. A
            // collector that cannot name its deadline suppresses skipping.
            match self.col.window_deadline() {
                Some(c) => event = event.min(c),
                None => return false,
            }
        }
        // Watchdog emulation: the cycle on which it would fire must be
        // stepped normally so the error snapshot is identical. `wait` is
        // the number of upcoming cycles still covered by a timer.
        let threshold = self.cfg.watchdog_stall_cycles;
        let mut wait = self.fetch_stall.max(self.broadcast_backlog);
        for d in &self.delayed {
            wait = wait.max(d.release - self.now);
        }
        if threshold > 0 {
            let fire = if wait > 0 {
                // stalled_for is necessarily 0 here (the previous stepped
                // cycle saw waiting_on_timer); counting restarts once the
                // last timer expires.
                self.now + wait + (threshold - 1)
            } else {
                self.now + threshold.saturating_sub(*stalled_for)
            };
            event = event.min(fire);
        }

        let k = event.saturating_sub(self.now + 1);
        if k == 0 {
            return false;
        }

        // --- Replay k no-op cycles in closed form.
        if self.scatter_input_open || !self.scatter_machine_empty() {
            self.stats.scatter_cycles += k;
        }
        if self.phase == Phase::Apply {
            self.stats.apply_cycles += k;
        }
        let p = self.cfg.placement;
        self.stats.dispatch_starved_row_cycles += k * (p.tiles * p.rows_per_tile) as u64;
        self.now += k;
        self.fetch_stall -= self.fetch_stall.min(k);
        self.broadcast_backlog -= self.broadcast_backlog.min(k);
        for t in &mut self.tiles {
            t.hbm.advance(k);
        }
        if threshold > 0 {
            // Skipped cycle i (1-based) observed waiting_on_timer iff
            // i < wait, resetting the stall counter; afterwards it counts
            // back up one per cycle.
            if wait <= 1 {
                *stalled_for += k;
            } else if k < wait {
                *stalled_for = 0;
            } else {
                *stalled_for = k - wait + 1;
            }
        }
        true
    }

    /// Captures the machine state for a watchdog/deadlock/cap error.
    fn snapshot(&self, stalled_for: u64) -> StallSnapshot {
        let mut tiles = Vec::new();
        for (i, t) in self.tiles.iter().enumerate() {
            let hbm_channels: Vec<HbmChannelSnapshot> = (0..t.hbm.num_channels())
                .map(|ch| HbmChannelSnapshot {
                    channel: ch,
                    outstanding: t.hbm.outstanding(ch),
                    stalled: t.hbm.is_stalled(ch),
                })
                .collect();
            let snap = TileSnapshot {
                tile: i,
                vpref_pending: t.vpref_pending.len(),
                vpref_inflight: t.vpref_inflight.occupied(),
                records_ready: t.records_ready.len(),
                line_inflight: t.line_inflight.occupied(),
                write_backlog: t.write_backlog,
                row_queue_depths: t.row_queues.iter().map(VecDeque::len).collect(),
                hbm_channels,
                outstanding_tags: t.hbm.outstanding_tags(8),
            };
            if snap.has_work() || snap.hbm_channels.iter().any(|c| c.stalled) {
                tiles.push(snap);
            }
        }
        let mut busy_nodes = Vec::new();
        for (i, apply) in self.apply_queues.iter().enumerate() {
            let out_depths: [usize; NUM_DIRS] =
                std::array::from_fn(|d| self.ports.len(i * NUM_DIRS + d));
            let gu_queue = self.gu_queues.len(i);
            if gu_queue > 0 || !apply.is_empty() || out_depths.iter().any(|&d| d > 0) {
                busy_nodes.push(NodeSnapshot {
                    node: i,
                    gu_queue,
                    out_depths,
                    apply_queue: apply.len(),
                });
            }
        }
        let suspect = self.suspect(&tiles, &busy_nodes);
        StallSnapshot {
            cycle: self.now,
            stalled_for,
            phase: match self.phase {
                Phase::Scatter => "Scatter",
                Phase::Apply => "Apply",
            },
            suspect,
            tiles,
            busy_nodes,
            apply_inflight: self.apply_inflight,
            broadcast_backlog: self.broadcast_backlog,
            fetch_stall: self.fetch_stall,
            delayed_flits: self.delayed.len(),
        }
    }

    /// Blames the unit nearest the head of the stuck dependency chain:
    /// pinned memory first (everything downstream starves off it), then
    /// in-flight fetches, then the deepest backed-up router port, then the
    /// compute/dispatch/apply queues.
    fn suspect(&self, tiles: &[TileSnapshot], nodes: &[NodeSnapshot]) -> StalledUnit {
        for t in tiles {
            for ch in &t.hbm_channels {
                if ch.stalled && ch.outstanding > 0 {
                    return StalledUnit::HbmChannel {
                        tile: t.tile,
                        channel: ch.channel,
                    };
                }
            }
        }
        for t in tiles {
            if t.vpref_inflight > 0 || t.line_inflight > 0 {
                if let Some(ch) = t
                    .hbm_channels
                    .iter()
                    .filter(|c| c.outstanding > 0)
                    .max_by_key(|c| c.outstanding)
                {
                    return StalledUnit::HbmChannel {
                        tile: t.tile,
                        channel: ch.channel,
                    };
                }
                return StalledUnit::Prefetcher { tile: t.tile };
            }
        }
        let mut worst: Option<(usize, usize, usize)> = None; // (depth, node, dir)
        for n in nodes {
            for dir in MESH_DIRS {
                let depth = n.out_depths[dir];
                if depth > 0 && worst.is_none_or(|(d, _, _)| depth > d) {
                    worst = Some((depth, n.node, dir));
                }
            }
        }
        if let Some((_, node, dir)) = worst {
            return StalledUnit::RouterPort { node, dir };
        }
        if let Some(n) = nodes
            .iter()
            .filter(|n| n.gu_queue > 0)
            .max_by_key(|n| n.gu_queue)
        {
            return StalledUnit::GraphUnit { node: n.node };
        }
        for t in tiles {
            if let Some((row, _)) = t
                .row_queue_depths
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d > 0)
                .max_by_key(|&(_, &d)| d)
            {
                return StalledUnit::Dispatcher { tile: t.tile, row };
            }
        }
        for t in tiles {
            if t.vpref_pending > 0 || t.records_ready > 0 {
                return StalledUnit::Prefetcher { tile: t.tile };
            }
        }
        if let Some(n) = nodes
            .iter()
            .find(|n| n.apply_queue > 0 || n.out_depths[EJECT] > 0)
        {
            return StalledUnit::Scratchpad { node: n.node };
        }
        StalledUnit::Unknown
    }

    /// The error for an expired watchdog: a deadlock when work is stuck in
    /// the machine, a sequencer wedge otherwise.
    fn stall_error(&self, stalled_for: u64) -> SimError {
        let snapshot = Box::new(self.snapshot(stalled_for));
        if !self.scatter_machine_empty() || self.apply_inflight > 0 {
            SimError::DeadlockDetected { snapshot }
        } else {
            SimError::WatchdogStall { snapshot }
        }
    }

    /// The counters as they stand mid-run: the same aggregation
    /// [`finish`](Self::finish) performs, without consuming the engine.
    /// Attached to [`SimError::Cancelled`]/[`SimError::DeadlineExceeded`]
    /// so an interrupted job still leaves an accountable record.
    fn partial_stats(&self) -> SimStats {
        let mut stats = self.stats;
        for t in &self.tiles {
            let m = t.hbm.stats();
            stats.offchip_bytes_read += m.bytes_read;
            stats.offchip_bytes_written += m.bytes_written;
            stats.offchip_reads += m.reads;
        }
        stats.agg_merges += self.ports.total_merges();
        stats.cycles = self.now;
        stats.pe_cycle_budget = self.now * self.cfg.placement.num_pes() as u64;
        stats
    }

    fn finish(mut self) -> SimResult<A::Prop> {
        self.tel_finish();
        let stats = self.partial_stats();
        SimResult {
            properties: self.props,
            stats,
            frontier_sizes: self.frontier_sizes,
        }
    }

    /// Loads the current iteration's active list into the tile frontends
    /// for the current slice. Vertices with no edges in a tile's partition
    /// are skipped there.
    fn feed_scatter_inputs(&mut self) {
        for idx in 0..self.iter_active.len() {
            let av = self.iter_active[idx];
            for t in 0..self.cfg.placement.tiles {
                if self.dev.degree_in(self.slice, t, av.v) > 0 {
                    self.tiles[t].vpref_pending.push_back(av);
                }
            }
        }
    }

    /// Feeds one freshly applied active vertex into the pipelined next
    /// scatter wave.
    fn feed_pipelined_activation(&mut self, av: ActiveVertex<A::Prop>) {
        for t in 0..self.cfg.placement.tiles {
            if self.dev.degree_in(0, t, av.v) > 0 {
                self.tiles[t].vpref_pending.push_back(av);
            }
        }
    }

    /// One clock cycle. The frontends (phase-cycle accounting, scheduled
    /// fault stalls, the HBM pump and the fetch-stall gated prefetchers)
    /// step in full on every executed cycle: the HBM model draws its
    /// latency jitter once per unstalled channel per cycle, and preserving
    /// that draw count is part of the bit-identity contract. The pipeline
    /// stages then visit only the units whose activity bit is set; an
    /// unvisited unit's queues are empty by the bit invariant, so visiting
    /// it would be a no-op.
    fn step(&mut self) -> Result<(), SimError> {
        self.enter(Stage::Memory);
        self.now += 1;
        if self.scatter_input_open || !self.scatter_machine_empty() {
            self.stats.scatter_cycles += 1;
        }
        if self.phase == Phase::Apply {
            self.stats.apply_cycles += 1;
        }
        if self.injector.is_some() {
            self.apply_scheduled_hbm_stalls();
        }
        self.step_memory();
        if self.fetch_stall > 0 {
            self.fetch_stall -= 1;
        } else {
            self.step_prefetch()?;
        }

        self.enter(Stage::Dispatch);
        let mut visited = self.step_dispatch();
        self.enter(Stage::RouteDecide);
        if !self.delayed.is_empty() {
            self.step_delayed();
        }
        visited += self.step_routing();
        self.enter(Stage::Gu);
        visited += self.step_gu();
        self.enter(Stage::Spd);
        visited += self.step_spd()?;
        if self.phase == Phase::Apply {
            self.enter(Stage::Apply);
            visited += self.step_apply();
        }
        if self.broadcast_backlog > 0 {
            self.broadcast_backlog -= 1;
        }
        self.ev.dispatched += visited as u64;
        self.ev.skipped += self.ev.units_total - visited as u64;
        Ok(())
    }

    /// Applies HBM pseudo-channel stalls whose schedule window has opened.
    fn apply_scheduled_hbm_stalls(&mut self) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        for (tile, ch, cycles) in inj.hbm_stalls_at(self.now) {
            if tile < self.tiles.len() && ch < self.tiles[tile].hbm.num_channels() {
                self.tiles[tile].hbm.stall_channel(ch, cycles);
                self.stats.hbm_stalls_injected += 1;
                if C::ENABLED {
                    self.col.instant(
                        self.now,
                        InstantKind::HbmStallInjected {
                            tile,
                            channel: ch,
                            cycles,
                        },
                    );
                }
            }
        }
    }

    // ----- memory + prefetch -------------------------------------------

    fn step_memory(&mut self) {
        let dev = self.dev;
        let graph = self.graph;
        let placement = self.cfg.placement;
        let geo = &self.geo;
        let slice = self.slice;
        let rows = &mut self.ev.rows;
        for t in 0..self.tiles.len() {
            let tile = &mut self.tiles[t];
            tile.hbm.step();
            for ch in 0..tile.hbm.num_channels() {
                while let Some(resp) = tile.hbm.pop_ready(ch) {
                    // Only reads pop from the ready queue, and bit 0 of the
                    // tag names the issuing slab; the slot id is the rest.
                    let slot = tag_slot(resp.tag);
                    if resp.tag & TAG_KIND_LINE == 0 {
                        let Some(batch) = tile.vpref_inflight.release(slot) else {
                            continue;
                        };
                        let csr = dev.tile_csr(slice, t);
                        for av in batch {
                            let range = csr.edge_range(av.v);
                            // The vertex record carries the *global*
                            // out-degree (PageRank normalizes by it), not
                            // this tile partition's share.
                            let degree = graph.out_degree(av.v) as u32;
                            tile.records_ready.push_back(EdgeCursor {
                                av,
                                cursor: range.start,
                                end: range.end,
                                degree,
                            });
                        }
                    } else {
                        let Some(segs) = tile.line_inflight.release(slot) else {
                            continue;
                        };
                        if tile.last_line.is_some_and(|(_, tag)| tag == resp.tag) {
                            tile.last_line = None;
                        }
                        for seg in segs {
                            let row = geo[placement.home_pe(seg.src)].row_in_tile as usize;
                            tile.row_queues[row].push_back(seg);
                            rows.set(t * placement.rows_per_tile + row);
                        }
                    }
                }
            }
        }
    }

    fn step_prefetch(&mut self) -> Result<(), SimError> {
        let now = self.now;
        for t in 0..self.tiles.len() {
            let tile = &mut self.tiles[t];
            // Flush pending active-list write-backs: one 64-byte line per
            // eight activations.
            while tile.write_backlog >= 8 {
                let ch = tile.channel_rr;
                if !tile.hbm.can_accept(ch) {
                    break;
                }
                let tag = tile.fresh_write_tag();
                tile.hbm
                    .try_request(ch, MemRequest::write(tag, LINE_BYTES as u32));
                tile.write_backlog -= 8;
                tile.channel_rr = (ch + 1) % tile.hbm.num_channels();
            }

            // VPref: each prefetcher (one per pseudo-channel) can fetch a
            // record line of eight actives per cycle. The batch drains
            // straight into a recycled slab slot — no per-request Vec.
            for _ in 0..tile.hbm.num_channels() {
                if tile.vpref_pending.is_empty() {
                    break;
                }
                let ch = tile.channel_rr;
                if !tile.hbm.can_accept(ch) {
                    // This pseudo-channel is saturated; try the next one.
                    tile.channel_rr = (ch + 1) % tile.hbm.num_channels();
                    continue;
                }
                let take = tile.vpref_pending.len().min(8);
                let (slot, batch) = tile.vpref_inflight.acquire();
                batch.extend(tile.vpref_pending.drain(..take));
                tile.hbm
                    .try_request(ch, MemRequest::read(vpref_tag(slot), LINE_BYTES as u32));
                self.stats.vpref_lines += 1;
                tile.channel_rr = (ch + 1) % tile.hbm.num_channels();
            }

            // EPref: issue edge lines of record-ready vertices, up to one
            // request per pseudo-channel per cycle. A line shared with the
            // previous vertex piggybacks on the in-flight fetch (the
            // degree-aware scheduler's locality); segments move into the
            // slab either way, never cloning.
            let mut budget = tile.hbm.num_channels();
            while budget > 0 {
                let Some(head) = tile.records_ready.front().copied() else {
                    break;
                };
                if head.cursor >= head.end {
                    tile.records_ready.pop_front();
                    continue;
                }
                let line = head.cursor / EDGES_PER_LINE;
                let lo = head.cursor;
                let hi = head.end.min((line + 1) * EDGES_PER_LINE);
                let seg = Segment {
                    src: head.av.v,
                    prop: head.av.prop,
                    src_degree: head.degree,
                    edges: lo..hi,
                };
                match tile.last_line {
                    Some((ll, tag)) if ll == line => {
                        match tile.line_inflight.get_mut(tag_slot(tag)) {
                            Some(segs) => segs.push(seg),
                            None => {
                                return Err(SimError::protocol(
                                    format!("piggyback tag {tag} not in flight in tile {t}"),
                                    now,
                                ))
                            }
                        }
                        self.stats.epref_piggybacks += 1;
                    }
                    _ => {
                        let mut ch = tile.channel_rr;
                        let channels = tile.hbm.num_channels();
                        let mut scanned = 0;
                        while !tile.hbm.can_accept(ch) && scanned < channels {
                            ch = (ch + 1) % channels;
                            scanned += 1;
                        }
                        if scanned == channels {
                            break;
                        }
                        let (slot, segs) = tile.line_inflight.acquire();
                        segs.push(seg);
                        let tag = line_tag(slot);
                        tile.hbm
                            .try_request(ch, MemRequest::read(tag, LINE_BYTES as u32));
                        self.stats.epref_lines += 1;
                        tile.last_line = Some((line, tag));
                        tile.channel_rr = (ch + 1) % channels;
                        budget -= 1;
                    }
                }
                match tile.records_ready.front_mut() {
                    Some(head) => head.cursor = hi,
                    None => {
                        return Err(SimError::protocol(
                            format!("record cursor vanished during edge issue in tile {t}"),
                            now,
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    // ----- dispatch ------------------------------------------------------

    /// The PE that executes an edge workload under the configured mapping,
    /// and its dispatch lane (column), from the home PEs of the edge's
    /// source and destination.
    #[inline]
    fn target_lane(&self, src_home: usize, dst_home: usize) -> (usize, usize) {
        let target = match self.cfg.mapping {
            // ROM: the destination's tile and column, the source's row —
            // all NoC traffic becomes intra-column and intra-tile
            // (Section IV-A).
            Mapping::RowOriented => {
                let at = self.geo[dst_home];
                let row = (at.tile_row0 + self.geo[src_home].row_in_tile) as usize;
                return (
                    row * self.cfg.placement.cols + at.col as usize,
                    at.col as usize,
                );
            }
            // SOM: the source's home PE.
            Mapping::SourceOriented => src_home,
            // DOM: the destination's home PE (the source replica is local).
            Mapping::DestinationOriented => dst_home,
        };
        (target, self.geo[target].col as usize)
    }

    /// One dispatch cycle for one EDU row whose queue is non-empty.
    /// Returns whether the queue still holds segments afterwards.
    ///
    /// The EDU drives each of its row's PE lanes independently: per
    /// cycle a lane accepts one edge, so a congested lane (for example
    /// a hub vertex's column) must not stall the other lanes. Segments
    /// are scanned in order, up to a window of `2 × max(cols, 16)` pops;
    /// a segment stopped by a busy or full lane, or refused by the source
    /// budget, rotates to the back so later segments can fill the free
    /// lanes.
    ///
    /// Within one visit the lane owners, the scheduled sources and the GU
    /// queues only ever fill, so a segment that rotated to the back can
    /// dispatch nothing more this visit: its head edge stays stopped by
    /// the same full GU queue, by a lane another pop owns (each pop has
    /// its own id, so the segment's own earlier lanes stop it too), or by
    /// the full source budget. Once each segment queued at the start has
    /// been popped, the rest of the window would only rotate the queue,
    /// so the scan applies that rotation at once and stops (`idle_laps` in
    /// the tests pins this against the full scan). Pop ids run from 1 to
    /// the window, `2 × max(cols, 16)`, and `u16::MAX` marks a free lane,
    /// so they stay distinct and never read as free because `validate`
    /// refuses more than [`MAX_COLS`](crate::config::MAX_COLS) = 32,767
    /// columns.
    fn dispatch_row(
        &mut self,
        t: usize,
        row: usize,
        lane_owner: &mut Vec<u16>,
        srcs_used: &mut Vec<VertexId>,
    ) -> bool {
        let placement = self.cfg.placement;
        let cols = placement.cols;
        let scan_window = 2 * cols.max(16);
        // Lane ownership this cycle: a lane accepts edges of one
        // segment only (the line occupying that slot); residual
        // same-lane edges within one line are absorbed by the
        // dispatch skew buffer (Section IV-C), so they do not
        // block their own line.
        lane_owner.clear();
        lane_owner.resize(cols, u16::MAX);
        let mut edges_left = cols;
        // Distinct source vertices scheduled this cycle (Section
        // IV-C): a vertex may span several line segments; they all
        // count once.
        srcs_used.clear();
        let mut scanned = 0usize;
        let mut dispatched = 0u64;
        let lap = self.tiles[t].row_queues[row].len();
        while edges_left > 0 && scanned < scan_window {
            let queue = &mut self.tiles[t].row_queues[row];
            if scanned == lap {
                // Every segment left has rotated once: the rest of the
                // window would rotate them again, unchanged.
                if !queue.is_empty() {
                    let len = queue.len();
                    queue.rotate_left((scan_window - scanned) % len);
                }
                break;
            }
            let Some(mut seg) = queue.pop_front() else {
                break;
            };
            scanned += 1;
            if !srcs_used.contains(&seg.src) {
                if srcs_used.len() >= self.cfg.max_scheduled_vertices {
                    // Vertex budget exhausted: this segment must
                    // wait for the next cycle.
                    queue.push_back(seg);
                    continue;
                }
                srcs_used.push(seg.src);
            }
            let csr = self.dev.tile_csr(self.slice, t);
            let seg_id = scanned as u16;
            let src_home = self.home.rem(seg.src) as usize;
            while edges_left > 0 && !seg.edges.is_empty() {
                let idx = seg.edges.start;
                let dst = csr.neighbor_at(idx);
                let home = self.home.rem(dst) as usize;
                let (target, lane) = self.target_lane(src_home, home);
                if (lane_owner[lane] != u16::MAX && lane_owner[lane] != seg_id)
                    || self.gu_queues.is_full(target)
                {
                    break;
                }
                self.gu_queues.push_back(
                    target,
                    EdgeWork {
                        src: seg.src,
                        dst,
                        home: home as u32,
                        weight: csr.weight_at(idx),
                        src_degree: seg.src_degree,
                        src_prop: seg.prop,
                    },
                );
                self.ev.gu.set(target);
                lane_owner[lane] = seg_id;
                edges_left -= 1;
                seg.edges.start += 1;
                dispatched += 1;
            }
            if !seg.edges.is_empty() {
                // Rotate so the next scan reaches fresh segments
                // whose head edges may target free lanes.
                self.tiles[t].row_queues[row].push_back(seg);
            }
        }
        if C::ENABLED {
            self.dispatched_per_row[t * placement.rows_per_tile + row] += dispatched;
        }
        self.stats.traversed_edges += dispatched;
        !self.tiles[t].row_queues[row].is_empty()
    }

    /// Dispatch: visits only rows whose activity bit is set. A visited row
    /// found empty clears its bit; every other row is starved this cycle —
    /// by the bit invariant an unvisited row's queue is empty. Returns the
    /// number of rows visited.
    fn step_dispatch(&mut self) -> usize {
        let placement = self.cfg.placement;
        let rows_per_tile = placement.rows_per_tile;
        let total_rows = self.tiles.len() * rows_per_tile;
        // Per-row scratch lives in the pooled engine buffers: cleared and
        // refilled each row, never reallocated in steady state.
        let mut lane_owner = std::mem::take(&mut self.scratch.lane_owner);
        let mut srcs_used = std::mem::take(&mut self.scratch.srcs_used);
        let mut rows = std::mem::take(&mut self.ev.rows);
        let mut fed = 0u64;
        let visited = rows.retain(|gr| {
            let (t, row) = (gr / rows_per_tile, gr % rows_per_tile);
            if self.tiles[t].row_queues[row].is_empty() {
                return false;
            }
            fed += 1;
            self.dispatch_row(t, row, &mut lane_owner, &mut srcs_used)
        });
        self.ev.rows = rows;
        self.scratch.lane_owner = lane_owner;
        self.scratch.srcs_used = srcs_used;
        self.stats.dispatch_starved_row_cycles += total_rows as u64 - fed;
        visited
    }

    // ----- compute -------------------------------------------------------

    /// One GU cycle for one node: processes the queue head if any.
    /// Returns whether the queue still holds work afterwards.
    fn gu_node(&mut self, node: usize) -> bool {
        let algo = self.algo;
        let Some(work) = self.gu_queues.front(node) else {
            return false;
        };
        let ctx = EdgeCtx {
            weight: work.weight,
            src: work.src,
            src_degree: work.src_degree,
        };
        let value = algo.process(&ctx, work.src_prop);
        let dir = route_dir(&self.geo, node, work.home as usize);
        let flit = Flit {
            value,
            // Every cycle is below CYCLE_SAFETY_CAP, which fits in 32 bits.
            inject: self.now as u32,
            home: work.home,
        };
        let accepted = self
            .ports
            .try_push(node * NUM_DIRS + dir, work.dst, flit, |x, y| {
                algo.reduce(x, y)
            })
            .is_some();
        if accepted {
            self.gu_queues.pop_front(node);
            self.stats.gu_busy_cycles += 1;
            if C::ENABLED {
                self.gu_busy_per_node[node] += 1;
            }
            self.stats.updates_produced += 1;
            if dir != EJECT {
                self.stats.updates_injected += 1;
            }
            if dir == EJECT {
                self.ev.spd.set(node);
            } else {
                self.ev.route.set(node);
            }
        } else {
            // A full output buffer is necessarily non-empty, so its
            // activity bit is already set; the GU retries next cycle.
            self.stats.noc_conflicts += 1;
        }
        self.gu_queues.len(node) > 0
    }

    fn step_gu(&mut self) -> usize {
        let mut mask = std::mem::take(&mut self.ev.gu);
        let visited = mask.retain(|node| self.gu_node(node));
        self.ev.gu = mask;
        visited
    }

    // ----- routing -------------------------------------------------------

    /// Re-injects fault-delayed flits whose hold has expired into the
    /// downstream router's input. Runs before [`step_routing`](Self::step_routing)
    /// so a released flit competes for buffer space like freshly arriving
    /// traffic. A flit refused by a full buffer stays parked and retries.
    fn step_delayed(&mut self) {
        let algo = self.algo;
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].release > self.now {
                i += 1;
                continue;
            }
            let d = &self.delayed[i];
            let (d_node, d_dir) = (d.node, d.dir);
            let to = neighbor(self.cfg, d.node, d.dir);
            let to_dir = route_dir(&self.geo, to, d.flit.home as usize);
            let (dst, flit) = (d.dst, d.flit);
            let accepted = self
                .ports
                .try_push(to * NUM_DIRS + to_dir, dst, flit, |x, y| algo.reduce(x, y))
                .is_some();
            if accepted {
                self.stats.noc_hops += 1;
                if C::ENABLED {
                    self.col.link_traversal(d_node, d_dir, 1);
                }
                if to_dir == EJECT {
                    self.ev.spd.set(to);
                } else {
                    self.ev.route.set(to);
                }
                self.delayed.swap_remove(i);
            } else {
                self.stats.noc_conflicts += 1;
                i += 1;
            }
        }
    }

    /// Deterministically perturbs a corrupted destination id: stays within
    /// the vertex range, or escapes it when the fault says so.
    fn corrupt_dst(dst: VertexId, num_vertices: usize, out_of_range: bool) -> VertexId {
        if out_of_range {
            let n = num_vertices as u64;
            n.saturating_add(1 + u64::from(dst) % 97)
                .min(u64::from(u32::MAX)) as VertexId
        } else {
            (dst + 1) % (num_vertices.max(1) as VertexId)
        }
    }

    /// Decides this cycle's moves out of one router: up to `link_width`
    /// updates per link — links are 64-byte buses carrying several 8-byte
    /// updates. No port drains or fills while routers decide, so a port's
    /// length is its pass-start length, and a move fits while that length
    /// plus the slots already reserved in the port is below capacity.
    /// Decided flits stage in `moves` and their ports' drains in `drains`.
    /// Returns whether any of the router's four mesh buffers still holds
    /// flits once its drains apply.
    fn route_decide_node(
        &mut self,
        node: usize,
        moves: &mut Vec<Move<A::Prop>>,
        drains: &mut Vec<(usize, usize)>,
    ) -> bool {
        let width = self.cfg.link_width;
        let faults_armed = self.injector.is_some();
        let mut busy = false;
        for dir in MESH_DIRS {
            let port = node * NUM_DIRS + dir;
            let len = self.ports.len(port);
            if len == 0 {
                continue;
            }
            if faults_armed
                && self
                    .injector
                    .as_ref()
                    .is_some_and(|inj| inj.link_blocked(self.now, node, dir))
            {
                // A downed link: zero credit, full back-pressure.
                self.stats.noc_conflicts += 1;
                if C::ENABLED {
                    self.col.link_backpressure(node, dir);
                }
                busy = true;
                continue;
            }
            // The port holds a flit, so its link has a far end.
            let to = neighbor(self.cfg, node, dir);
            let at = self.geo[to];
            // The link takes the port's oldest updates in order; they
            // leave the port together once every router has decided.
            let mut taken = 0;
            while taken < width {
                let Some((mut dst, mut flit)) = self.ports.peek_at(port, taken) else {
                    break;
                };
                if faults_armed {
                    let action = self
                        .injector
                        .as_mut()
                        .and_then(|inj| inj.flit_action(self.now, node, dir));
                    if let Some(action) = action {
                        taken += 1;
                        match action {
                            FlitAction::Drop => {
                                self.stats.flits_dropped += 1;
                                if C::ENABLED {
                                    self.col
                                        .instant(self.now, InstantKind::FlitDropped { node, dir });
                                }
                            }
                            FlitAction::Delay(cycles) => {
                                self.stats.flits_delayed += 1;
                                if C::ENABLED {
                                    self.col
                                        .instant(self.now, InstantKind::FlitDelayed { node, dir });
                                }
                                self.delayed.push(DelayedFlit {
                                    release: self.now + cycles.max(1),
                                    node,
                                    dir,
                                    dst,
                                    flit,
                                });
                            }
                            FlitAction::Corrupt { out_of_range } => {
                                dst =
                                    Self::corrupt_dst(dst, self.graph.num_vertices(), out_of_range);
                                flit.home = self.cfg.placement.home_pe(dst) as u32;
                                self.stats.updates_corrupted += 1;
                                if C::ENABLED {
                                    self.col.instant(
                                        self.now,
                                        InstantKind::FlitCorrupted { node, dir },
                                    );
                                }
                                // The corrupted id needs a fresh route
                                // (hence the fresh header above); park it
                                // for re-injection at the neighbor next
                                // cycle (this cycle's pass has run).
                                self.delayed.push(DelayedFlit {
                                    release: self.now,
                                    node,
                                    dir,
                                    dst,
                                    flit,
                                });
                            }
                        }
                        continue;
                    }
                }
                let to_port = to * NUM_DIRS + xy_dir(at, self.geo[flit.home as usize]);
                if !self.ports.try_reserve(to_port) {
                    self.stats.noc_conflicts += 1;
                    if C::ENABLED {
                        self.col.link_backpressure(node, dir);
                    }
                    break;
                }
                taken += 1;
                self.stats.noc_hops += 1;
                if C::ENABLED {
                    self.col.link_traversal(node, dir, 1);
                }
                moves.push(Move { to_port, dst, flit });
            }
            if taken > 0 {
                drains.push((port, taken));
            }
            busy |= len > taken;
        }
        busy
    }

    /// Drains the decided ports, then lands the decided moves in their
    /// reserved destination slots and schedules the receiving units.
    fn route_apply_moves(&mut self, moves: &[Move<A::Prop>], drains: &[(usize, usize)]) {
        let algo = self.algo;
        for &(port, k) in drains {
            self.ports.drain_front(port, k);
        }
        for m in moves {
            self.ports
                .land(m.to_port, m.dst, m.flit, |x, y| algo.reduce(x, y));
            let to = m.to_port / NUM_DIRS;
            if m.to_port % NUM_DIRS == EJECT {
                self.ev.spd.set(to);
            } else {
                self.ev.route.set(to);
            }
        }
    }

    /// Routing: only routers whose activity bit is set may move flits.
    /// They decide in ascending node order against the pass-start free
    /// space, a router's bit clears as soon as it decides with its mesh
    /// buffers empty, and the decided moves land last — setting the bits
    /// of the routers and scratchpads they reach. Returns the number of
    /// routers visited.
    fn step_routing(&mut self) -> usize {
        let mut drains = std::mem::take(&mut self.scratch.drains);
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        drains.clear();
        let mut mask = std::mem::take(&mut self.ev.route);
        let visited = mask.retain(|node| self.route_decide_node(node, &mut moves, &mut drains));
        self.ev.route = mask;
        self.enter(Stage::RouteLand);
        self.route_apply_moves(&moves, &drains);
        self.scratch.drains = drains;
        self.moves = moves;
        visited
    }

    // ----- scratchpads ---------------------------------------------------

    /// One scratchpad-reduce cycle for one node: accepts the ejected
    /// update if any. Returns whether more ejected updates are waiting.
    fn spd_node(&mut self, node: usize) -> Result<bool, SimError> {
        let port = node * NUM_DIRS + EJECT;
        let Some((dst, flit)) = self.ports.pop(port) else {
            return Ok(false);
        };
        let v = dst as usize;
        if v >= self.temp.len() {
            // Only an injected corruption can manufacture an id outside
            // the vertex array; the scratchpad has nowhere to put it.
            return Err(SimError::FaultUnrecoverable {
                detail: format!(
                    "update ejected at PE {node} targets vertex {v} but the graph has {}",
                    self.temp.len()
                ),
                cycle: self.now,
            });
        }
        debug_assert_eq!(self.cfg.placement.home_pe(dst), node);
        self.temp[v] = self.algo.reduce(self.temp[v], flit.value);
        if !self.touched[v] {
            self.touched[v] = true;
            self.touched_list.push(dst);
        }
        let latency = self.now.saturating_sub(u64::from(flit.inject));
        self.stats.updates_delivered += 1;
        self.stats.routing_latency_sum += latency;
        self.stats.routing_latency_count += 1;
        if C::ENABLED {
            self.col.routing_latency(latency);
        }
        Ok(self.ports.len(port) > 0)
    }

    fn step_spd(&mut self) -> Result<usize, SimError> {
        let mut mask = std::mem::take(&mut self.ev.spd);
        let mut result = Ok(());
        let visited = mask.retain(|node| {
            if result.is_err() {
                // The engine is unwinding; freeze the remaining bits.
                return true;
            }
            match self.spd_node(node) {
                Ok(keep) => keep,
                Err(e) => {
                    result = Err(e);
                    true
                }
            }
        });
        self.ev.spd = mask;
        result.map(|()| visited)
    }

    // ----- apply ---------------------------------------------------------

    /// One apply cycle for one node: pops and applies the queue head if
    /// any. Returns whether more applies are queued.
    fn apply_node(&mut self, node: usize) -> bool {
        let k = self.cfg.placement.num_pes() as u64;
        let Some(v) = self.apply_queues[node].pop_front() else {
            return false;
        };
        self.apply_inflight -= 1;
        self.stats.applies += 1;
        let vi = v as usize;
        let old = self.props[vi];
        let new = self.algo.apply(v, old, self.temp[vi], self.graph);
        self.temp[vi] = self.algo.reduce_identity();
        self.touched[vi] = false;
        if new != old {
            self.props[vi] = new;
        }
        if self.algo.activates(old, new) {
            self.stats.activations += 1;
            let tile = self.cfg.placement.tile_of(v);
            self.tiles[tile].write_backlog += 1;
            if self.cfg.mapping == Mapping::DestinationOriented {
                // Replica refresh in every PE (Section IV-A).
                self.stats.noc_hops += k - 1;
                self.broadcast_backlog += 1;
            }
            let av = ActiveVertex { v, prop: new };
            if self.scatter_input_open {
                self.feed_pipelined_activation(av);
            }
            self.next_active.push(av);
        }
        !self.apply_queues[node].is_empty()
    }

    fn step_apply(&mut self) -> usize {
        let mut mask = std::mem::take(&mut self.ev.apply);
        let visited = mask.retain(|node| self.apply_node(node));
        self.ev.apply = mask;
        visited
    }

    /// Starts the apply pass for the slice just scattered.
    fn begin_apply(&mut self) {
        debug_assert_eq!(self.apply_inflight, 0);
        if self.dense_apply() {
            // Fixed-schedule algorithms apply every resident vertex.
            self.touched_list.clear();
            let iv = self.dev.interval(self.slice);
            let placement = self.cfg.placement;
            for v in iv.start..iv.end {
                let node = placement.home_pe(v);
                self.apply_queues[node].push_back(v);
                self.ev.apply.set(node);
                self.apply_inflight += 1;
            }
        } else {
            let list = std::mem::take(&mut self.touched_list);
            let placement = self.cfg.placement;
            for v in list {
                let node = placement.home_pe(v);
                self.apply_queues[node].push_back(v);
                self.ev.apply.set(node);
                self.apply_inflight += 1;
            }
        }
        self.phase = Phase::Apply;
    }

    fn dense_apply(&self) -> bool {
        !self.algo.is_monotonic()
    }

    // ----- phase sequencing ---------------------------------------------

    fn scatter_machine_empty(&self) -> bool {
        self.delayed.is_empty()
            && self.gu_queues.all_empty()
            && self.ports.all_empty()
            && self.tiles.iter().all(TileFrontend::is_drained)
    }

    fn apply_machine_empty(&self) -> bool {
        self.apply_inflight == 0 && self.broadcast_backlog == 0
    }

    /// Runs the phase state machine to quiescence; returns `true` when the
    /// whole run has completed.
    fn advance_phases(&mut self) -> bool {
        loop {
            match self.phase {
                Phase::Scatter => {
                    if self.scatter_input_open || !self.scatter_machine_empty() {
                        return false;
                    }
                    // The scatter wave (scatter_iter, slice) has drained.
                    if self.dense_apply() || !self.touched_list.is_empty() {
                        self.begin_apply();
                        if self.pipelined {
                            // Open the next wave: activations from this
                            // apply pass stream straight into it.
                            self.scatter_iter += 1;
                            self.scatter_input_open = self.scatter_iter < self.limit;
                        }
                        continue;
                    }
                    // No apply work from this wave.
                    if self.pipelined {
                        // Converged: nothing was updated, nothing pending.
                        // The wave still consumed a frontier; if that
                        // frontier was non-empty (e.g. every active vertex
                        // had zero out-degree) the reference engine counts
                        // it as an iteration, so we must too.
                        if !self.iter_active.is_empty() && self.scatter_iter < self.limit {
                            self.stats.iterations += 1;
                        }
                        return true;
                    }
                    if self.next_wave() {
                        continue;
                    }
                    return true;
                }
                Phase::Apply => {
                    if !self.apply_machine_empty() {
                        return false;
                    }
                    self.phase = Phase::Scatter;
                    if self.pipelined {
                        // Close the pipelined wave's input and record the
                        // iteration that just fully completed.
                        self.scatter_input_open = false;
                        self.stats.iterations += 1;
                        let next = std::mem::take(&mut self.next_active);
                        if !next.is_empty() {
                            self.frontier_sizes.push(next.len());
                        }
                        self.iter_active = next;
                        continue;
                    }
                    if self.next_wave() {
                        continue;
                    }
                    return true;
                }
            }
        }
    }

    /// Non-pipelined sequencing: start the next slice of this iteration,
    /// or wrap up the iteration and start the next one. Returns `false`
    /// when the run is complete.
    fn next_wave(&mut self) -> bool {
        if self.slice + 1 < self.dev.num_slices() {
            self.slice += 1;
            self.feed_scatter_inputs();
            return true;
        }
        // Iteration complete.
        self.stats.iterations += 1;
        self.scatter_iter += 1;
        self.slice = 0;
        self.iter_active = std::mem::take(&mut self.next_active);
        if self.iter_active.is_empty() || self.scatter_iter >= self.limit {
            return false;
        }
        // Without inter-phase pipelining, "Scatter phase starts only when
        // Apply phase in the last iteration finishes writing back all
        // active vertices" (Section IV-D): charge the write-back flush and
        // the read-back latency of the new active list.
        let channels = self.cfg.tile_memory().channels.max(1) as u64;
        let writeback = self.iter_active.len() as u64 / (8 * channels);
        self.fetch_stall = writeback + self.cfg.tile_memory().latency_cycles as u64;
        self.frontier_sizes.push(self.iter_active.len());
        self.feed_scatter_inputs();
        true
    }
}

// ----- helpers ------------------------------------------------------------

/// Neighbor of `node` in direction `dir` on the global mesh.
fn neighbor(cfg: &ScalaGraphConfig, node: usize, dir: usize) -> usize {
    let cols = cfg.placement.cols;
    match dir {
        NORTH => node - cols,
        SOUTH => node + cols,
        WEST => node - 1,
        EAST => node + 1,
        _ => unreachable!("eject has no neighbor"),
    }
}

/// XY routing directions, indexed by `3 * c + r` where `c` orders the
/// target's column against the router's and `r` its row: 0 when equal, 1
/// when the target is west (north), 2 when it is east (south).
const XY_ROUTE: [usize; 9] = [EJECT, NORTH, SOUTH, WEST, WEST, WEST, EAST, EAST, EAST];

/// XY routing decision from `node` towards `home` (column first, then
/// row), read off the geometry table without a branch.
#[inline]
fn route_dir(geo: &[NodeGeo], node: usize, home: usize) -> usize {
    xy_dir(geo[node], geo[home])
}

/// [`route_dir`] from the router at `at` towards the PE at `to`.
#[inline]
fn xy_dir(at: NodeGeo, to: NodeGeo) -> usize {
    let c = usize::from(to.col < at.col) + 2 * usize::from(to.col > at.col);
    let r = usize::from(to.row < at.row) + 2 * usize::from(to.row > at.row);
    XY_ROUTE[3 * c + r]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryPreset;
    use scalagraph_algo::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp, UNREACHED};
    use scalagraph_algo::ReferenceEngine;
    use scalagraph_graph::{generators, Dataset, EdgeList};

    fn cfg32() -> ScalaGraphConfig {
        ScalaGraphConfig::with_pes(32)
    }

    fn bfs_matches_reference(graph: &Csr, cfg: ScalaGraphConfig, root: VertexId) {
        let algo = Bfs::from_root(root);
        let golden = ReferenceEngine::new().run(&algo, graph);
        let sim = run_on(&algo, graph, cfg);
        assert_eq!(sim.properties, golden.properties);
    }

    #[test]
    fn bfs_on_tree_matches_reference() {
        let g = Csr::from_edges(127, &generators::binary_tree(127));
        bfs_matches_reference(&g, cfg32(), 0);
    }

    #[test]
    fn bfs_on_random_graph_matches_reference() {
        let g = Csr::from_edges(500, &generators::uniform(500, 4000, 7));
        bfs_matches_reference(&g, cfg32(), 3);
    }

    #[test]
    fn bfs_on_power_law_matches_reference() {
        let g = Csr::from_edges(400, &generators::power_law(400, 5000, 0.8, 9));
        let root = Dataset::pick_root(&g);
        bfs_matches_reference(&g, cfg32(), root);
    }

    #[test]
    fn bfs_without_pipelining_matches_reference() {
        let g = Csr::from_edges(300, &generators::uniform(300, 2500, 11));
        let mut cfg = cfg32();
        cfg.inter_phase_pipelining = false;
        bfs_matches_reference(&g, cfg, 0);
    }

    #[test]
    fn sssp_matches_reference() {
        let mut list = EdgeList::new(200);
        for e in generators::uniform(200, 1500, 13) {
            list.push(e);
        }
        list.randomize_weights(255, 5);
        let g = Csr::from_edge_list(&list);
        let algo = Sssp::from_root(0);
        let golden = ReferenceEngine::new().run(&algo, &g);
        let sim = run_on(&algo, &g, cfg32());
        assert_eq!(sim.properties, golden.properties);
    }

    #[test]
    fn cc_matches_reference_on_symmetrized_graph() {
        let mut list = EdgeList::new(150);
        for e in generators::uniform(150, 600, 17) {
            list.push(e);
        }
        list.symmetrize();
        let g = Csr::from_edge_list(&list);
        let algo = ConnectedComponents::new();
        let golden = ReferenceEngine::new().run(&algo, &g);
        let sim = run_on(&algo, &g, cfg32());
        assert_eq!(sim.properties, golden.properties);
    }

    #[test]
    fn pagerank_matches_reference_within_float_tolerance() {
        let g = Csr::from_edges(120, &generators::power_law(120, 1200, 0.8, 21));
        let algo = PageRank::new(5);
        let golden = ReferenceEngine::new().run(&algo, &g);
        let sim = run_on(&algo, &g, cfg32());
        assert!(!sim.stats.inter_phase_used, "PR must not pipeline");
        assert_eq!(sim.stats.iterations, 5);
        for (a, b) in sim.properties.iter().zip(&golden.properties) {
            assert!((a - b).abs() < 1e-4, "rank {a} vs {b}");
        }
    }

    #[test]
    fn all_mappings_agree_on_results() {
        let g = Csr::from_edges(256, &generators::uniform(256, 3000, 23));
        let algo = Bfs::from_root(1);
        let golden = ReferenceEngine::new().run(&algo, &g);
        for mapping in Mapping::ALL {
            let mut cfg = cfg32();
            cfg.mapping = mapping;
            let sim = run_on(&algo, &g, cfg);
            assert_eq!(sim.properties, golden.properties, "{mapping}");
        }
    }

    #[test]
    fn rom_produces_less_traffic_than_som() {
        let g = Csr::from_edges(512, &generators::uniform(512, 8000, 29));
        let algo = PageRank::new(2);
        let mut rom_cfg = ScalaGraphConfig::with_pes(64);
        rom_cfg.mapping = Mapping::RowOriented;
        let mut som_cfg = ScalaGraphConfig::with_pes(64);
        som_cfg.mapping = Mapping::SourceOriented;
        let rom = run_on(&algo, &g, rom_cfg);
        let som = run_on(&algo, &g, som_cfg);
        assert!(
            rom.stats.noc_hops < som.stats.noc_hops,
            "ROM {} vs SOM {}",
            rom.stats.noc_hops,
            som.stats.noc_hops
        );
    }

    #[test]
    fn aggregation_reduces_traffic() {
        let g = Csr::from_edges(256, &generators::power_law(256, 6000, 0.9, 31));
        let algo = PageRank::new(2);
        let mut with = cfg32();
        with.aggregation_registers = 16;
        let mut without = cfg32();
        without.aggregation_registers = 0;
        let w = run_on(&algo, &g, with);
        let wo = run_on(&algo, &g, without);
        assert!(w.stats.agg_merges > 0 || w.stats.noc_hops <= wo.stats.noc_hops);
        // Results must agree regardless.
        for (a, b) in w.properties.iter().zip(&wo.properties) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn sliced_execution_matches_reference() {
        let g = Csr::from_edges(300, &generators::uniform(300, 3000, 37));
        let mut cfg = cfg32();
        cfg.spd_capacity_vertices = 64; // forces ~5 slices
        let algo = Bfs::from_root(0);
        let golden = ReferenceEngine::new().run(&algo, &g);
        let sim = run_on(&algo, &g, cfg);
        assert!(sim.stats.slices >= 4);
        assert!(!sim.stats.inter_phase_used);
        assert_eq!(sim.properties, golden.properties);
    }

    #[test]
    fn pipelining_preserves_results_and_saves_cycles() {
        let g = Csr::from_edges(600, &generators::power_law(600, 8000, 0.8, 41));
        let algo = Bfs::from_root(Dataset::pick_root(&g));
        let mut on = cfg32();
        on.inter_phase_pipelining = true;
        let mut off = cfg32();
        off.inter_phase_pipelining = false;
        let a = run_on(&algo, &g, on);
        let b = run_on(&algo, &g, off);
        assert_eq!(a.properties, b.properties);
        assert!(a.stats.inter_phase_used);
        assert!(
            a.stats.cycles < b.stats.cycles,
            "pipelined {} !< serial {}",
            a.stats.cycles,
            b.stats.cycles
        );
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        let g = Csr::from_edges(64, &generators::path(32));
        let sim = run_on(&Bfs::from_root(0), &g, cfg32());
        assert_eq!(sim.properties[31], 31);
        assert_eq!(sim.properties[40], UNREACHED);
    }

    #[test]
    fn empty_graph_and_empty_frontier_terminate() {
        let g = Csr::from_edges(10, &[]);
        let sim = run_on(&Bfs::from_root(0), &g, cfg32());
        assert_eq!(sim.properties[0], 0);
        assert_eq!(sim.properties[5], UNREACHED);
    }

    #[test]
    fn stats_are_consistent() {
        let g = Csr::from_edges(256, &generators::uniform(256, 4000, 43));
        let sim = run_on(&PageRank::new(3), &g, cfg32());
        let s = sim.stats;
        assert_eq!(s.traversed_edges, 3 * 4000);
        assert_eq!(s.updates_produced, s.traversed_edges);
        // Deliveries + merges == produced (each update either merges into
        // another or eventually reaches an SPD).
        assert_eq!(s.updates_delivered + s.agg_merges, s.updates_produced);
        assert!(s.offchip_bytes_read > 0);
        assert!(s.pe_utilization() > 0.0 && s.pe_utilization() <= 1.0);
        assert!(s.cycles > 0);
    }

    #[test]
    fn unlimited_memory_is_not_slower() {
        let g = Csr::from_edges(512, &generators::uniform(512, 10_000, 47));
        let algo = PageRank::new(2);
        let mut fast = cfg32();
        fast.memory = MemoryPreset::Unlimited;
        let limited = run_on(&algo, &g, cfg32());
        let unlimited = run_on(&algo, &g, fast);
        assert!(unlimited.stats.cycles <= limited.stats.cycles);
    }

    #[test]
    fn more_pes_do_not_slow_down_pagerank() {
        let g = Csr::from_edges(1024, &generators::uniform(1024, 30_000, 53));
        let algo = PageRank::new(2);
        let small = run_on(&algo, &g, ScalaGraphConfig::with_pes(32));
        let large = run_on(&algo, &g, ScalaGraphConfig::with_pes(128));
        assert!(
            large.stats.cycles < small.stats.cycles,
            "128 PEs {} !< 32 PEs {}",
            large.stats.cycles,
            small.stats.cycles
        );
    }

    #[test]
    fn dom_counts_broadcast_traffic() {
        let g = Csr::from_edges(128, &generators::uniform(128, 1000, 59));
        let mut cfg = cfg32();
        cfg.mapping = Mapping::DestinationOriented;
        let sim = run_on(&Bfs::from_root(0), &g, cfg);
        // DOM has no scatter routing, so hops come only from broadcasts.
        assert!(sim.stats.noc_hops >= sim.stats.activations * 31);
    }

    #[test]
    fn cancel_token_signals_map_to_typed_errors() {
        let g = Csr::from_edges(100, &generators::uniform(100, 600, 9));
        let algo = Bfs::from_root(0);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        match Simulator::try_new(&algo, &g, cfg32())
            .and_then(|mut s| s.try_run_cancellable(&cancelled))
        {
            Err(SimError::Cancelled { cycle, partial }) => {
                assert!(cycle >= 1);
                assert_eq!(partial.cycles, cycle);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let expired = CancelToken::new();
        expired.expire();
        match Simulator::try_new(&algo, &g, cfg32())
            .and_then(|mut s| s.try_run_cancellable(&expired))
        {
            Err(SimError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn unsignalled_token_leaves_the_run_bit_identical() {
        let g = Csr::from_edges(150, &generators::uniform(150, 900, 5));
        let algo = Bfs::from_root(0);
        let plain = try_run_on(&algo, &g, cfg32()).expect("plain run converges");
        let token = CancelToken::new();
        let controlled = Simulator::try_new(&algo, &g, cfg32())
            .and_then(|mut s| s.try_run_cancellable(&token))
            .expect("controlled run converges");
        assert_eq!(plain.stats, controlled.stats);
        assert_eq!(plain.properties, controlled.properties);
        assert_eq!(plain.frontier_sizes, controlled.frontier_sizes);
    }

    // ----- event-driven stepping core -------------------------------------

    /// The event core's contract: not "close enough", but the same machine.
    /// Every counter in `SimStats`, every frontier size, every property
    /// must match the dense reference, which visits every unit on every
    /// cycle and skips none.
    fn assert_ev_identical<A: Algorithm>(algo: &A, graph: &Csr, cfg: &ScalaGraphConfig) {
        let mut dense = cfg.clone();
        dense.fast_forward = false;
        let mut event = cfg.clone();
        event.fast_forward = true;
        let a = run_on(algo, graph, dense);
        let b = run_on(algo, graph, event);
        assert_eq!(a.properties, b.properties, "properties diverge");
        assert_eq!(a.frontier_sizes, b.frontier_sizes, "frontiers diverge");
        assert_eq!(a.stats, b.stats, "stats diverge");
    }

    #[test]
    fn event_driven_is_bit_identical_for_pipelined_bfs() {
        let g = Csr::from_edges(600, &generators::power_law(600, 8000, 0.8, 41));
        let algo = Bfs::from_root(Dataset::pick_root(&g));
        assert_ev_identical(&algo, &g, &cfg32());
    }

    #[test]
    fn event_driven_is_bit_identical_without_pipelining() {
        // Non-pipelined runs alternate busy bursts with long fetch stalls:
        // both the sparse stepping and the whole-device skip paths fire.
        let g = Csr::from_edges(500, &generators::uniform(500, 4000, 7));
        let mut cfg = cfg32();
        cfg.inter_phase_pipelining = false;
        assert_ev_identical(&Bfs::from_root(3), &g, &cfg);
    }

    #[test]
    fn event_driven_is_bit_identical_for_sssp_and_cc() {
        let mut list = EdgeList::new(200);
        for e in generators::uniform(200, 1500, 13) {
            list.push(e);
        }
        list.randomize_weights(255, 5);
        let g = Csr::from_edge_list(&list);
        assert_ev_identical(&Sssp::from_root(0), &g, &cfg32());

        let mut list = EdgeList::new(150);
        for e in generators::uniform(150, 600, 17) {
            list.push(e);
        }
        list.symmetrize();
        let g = Csr::from_edge_list(&list);
        assert_ev_identical(&ConnectedComponents::new(), &g, &cfg32());
    }

    #[test]
    fn event_driven_is_bit_identical_for_pagerank_and_dom_broadcasts() {
        let g = Csr::from_edges(120, &generators::power_law(120, 1200, 0.8, 21));
        assert_ev_identical(&PageRank::new(5), &g, &cfg32());

        // DOM exercises the apply-mask seeding and broadcast drain timer.
        let g = Csr::from_edges(128, &generators::uniform(128, 1000, 59));
        let mut cfg = cfg32();
        cfg.mapping = Mapping::DestinationOriented;
        assert_ev_identical(&Bfs::from_root(0), &g, &cfg);
    }

    #[test]
    fn event_driven_is_bit_identical_across_slices() {
        let g = Csr::from_edges(300, &generators::uniform(300, 3000, 37));
        let mut cfg = cfg32();
        cfg.spd_capacity_vertices = 64; // forces ~5 slices
        assert_ev_identical(&Bfs::from_root(0), &g, &cfg);
    }

    #[test]
    fn event_driven_is_bit_identical_under_link_faults() {
        use crate::fault::{Fault, FaultKind, FaultPlan, LinkDir};
        // Delayed and corrupted flits park in the side pool and bound the
        // idle skip; drops perturb the fault RNG stream. All of it must
        // replay identically when only active units are stepped.
        let g = Csr::from_edges(400, &generators::power_law(400, 4000, 0.8, 23));
        let algo = Bfs::from_root(Dataset::pick_root(&g));
        let mut cfg = cfg32();
        cfg.fault_plan = Some(
            FaultPlan::seeded(29)
                .with(
                    Fault::new(FaultKind::LinkDelay {
                        node: 5,
                        dir: LinkDir::South,
                        cycles: 7,
                    })
                    .window(0, 400),
                )
                .with(
                    Fault::new(FaultKind::LinkDrop {
                        node: 3,
                        dir: LinkDir::South,
                        one_in: 5,
                    })
                    .window(0, 300),
                )
                .with(
                    Fault::new(FaultKind::CorruptPayload {
                        node: 7,
                        dir: LinkDir::South,
                        one_in: 9,
                        out_of_range: false,
                    })
                    .window(50, 500),
                )
                .with(
                    Fault::new(FaultKind::HbmStall {
                        tile: 0,
                        channel: 1,
                        cycles: 40,
                    })
                    .window(30, 31),
                ),
        );
        assert_ev_identical(&algo, &g, &cfg);
    }

    #[test]
    fn event_driven_trips_the_watchdog_on_the_same_cycle() {
        use crate::fault::{Fault, FaultKind, FaultPlan};
        let g = Csr::from_edges(400, &generators::uniform(400, 3000, 11));
        let algo = Bfs::from_root(0);
        let mut cfg = cfg32();
        cfg.watchdog_stall_cycles = 2_000;
        cfg.fault_plan = Some(
            FaultPlan::seeded(11).with(
                Fault::new(FaultKind::HbmStall {
                    tile: 0,
                    channel: 0,
                    cycles: u64::MAX,
                })
                .window(20, 21),
            ),
        );
        let run = |ff: bool| {
            let mut c = cfg.clone();
            c.fast_forward = ff;
            try_run_on(&algo, &g, c)
        };
        match (run(false), run(true)) {
            (Err(ea), Err(eb)) => {
                let sa = ea.snapshot().expect("stall errors carry a snapshot");
                let sb = eb.snapshot().expect("stall errors carry a snapshot");
                assert_eq!(sa.cycle, sb.cycle, "watchdog cycle diverges");
                assert_eq!(sa.stalled_for, sb.stalled_for);
                assert!(sb.stalled_for >= 2_000);
            }
            (a, b) => panic!("expected identical stalls, got {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn cycle_limit_fires_identically_with_event_driven() {
        let g = Csr::from_edges(200, &generators::uniform(200, 1500, 3));
        let algo = Bfs::from_root(0);
        let full = try_run_on(&algo, &g, cfg32()).expect("full run converges");
        let limit = full.stats.cycles / 2;
        let run = |ev: bool| {
            let mut c = cfg32();
            c.cycle_limit = Some(limit);
            c.fast_forward = ev;
            try_run_on(&algo, &g, c)
        };
        match (run(false), run(true)) {
            (
                Err(SimError::DeadlineExceeded {
                    cycle: ca,
                    partial: pa,
                }),
                Err(SimError::DeadlineExceeded {
                    cycle: cb,
                    partial: pb,
                }),
            ) => {
                assert_eq!(ca, limit);
                assert_eq!(cb, limit, "deadline lands on exactly the limit cycle");
                assert_eq!(pa, pb, "partial counters diverge between modes");
            }
            (a, b) => panic!("expected identical deadlines, got {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn event_driven_telemetry_matches_dense_and_adds_diagnostics() {
        use crate::telemetry::Recorder;
        let g = Csr::from_edges(500, &generators::power_law(500, 5000, 0.8, 19));
        let algo = Bfs::from_root(Dataset::pick_root(&g));
        let run = |ev: bool| {
            let mut c = cfg32();
            c.fast_forward = ev;
            let mut rec = Recorder::new(64);
            let r = Simulator::try_new(&algo, &g, c)
                .and_then(|mut s| s.try_run_with(&mut rec))
                .expect("run converges");
            (r, rec)
        };
        let (ra, rec_a) = run(false);
        let (rb, rec_b) = run(true);
        assert_eq!(ra.stats, rb.stats, "stats diverge under recording");
        assert_eq!(
            rec_a.summary(),
            rec_b.summary(),
            "telemetry summary must be mode-invariant"
        );
        // The dense reference emits no event-core rows at all.
        assert!(rec_a.event_windows().is_empty());
        assert_eq!(rec_a.event_core_totals(), (0, 0));
        assert_eq!(rec_a.event_busy_fraction(), None);
        // Event-driven runs account for every unit on every cycle: a unit
        // is either dispatched or skipped, and skipped whole-device jumps
        // charge all units for all jumped cycles.
        assert!(!rec_b.event_windows().is_empty());
        let (dispatched, skipped) = rec_b.event_core_totals();
        let p = &cfg32().placement;
        let units_total = (p.tiles * p.rows_per_tile + 4 * p.num_pes()) as u64;
        assert_eq!(dispatched + skipped, units_total * rb.stats.cycles);
        let busy = rec_b.event_busy_fraction().expect("rows were recorded");
        assert!(
            busy > 0.0 && busy < 1.0,
            "busy fraction {busy} out of range"
        );
    }

    #[test]
    fn fast_mod_equals_the_remainder() {
        let mut rng = scalagraph_graph::SplitMix64::new(7);
        for d in [
            1u32,
            2,
            3,
            5,
            32,
            96,
            512,
            4096,
            1 << 31,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let f = FastMod::new(d);
            for a in [0, 1, d - 1, d, d.wrapping_add(1), u32::MAX - 1, u32::MAX] {
                assert_eq!(f.rem(a), a % d, "{a} % {d}");
            }
            for _ in 0..10_000 {
                let a = rng.next_u64() as u32;
                assert_eq!(f.rem(a), a % d, "{a} % {d}");
            }
        }
    }

    /// `dispatch_row` without the idle-lap cut: every pop of the scan
    /// window runs, idle or not. The reference `idle_laps` pins the cut
    /// against.
    fn full_scan<C: Collector>(
        e: &mut Engine<'_, Bfs, C>,
        t: usize,
        row: usize,
        lane_owner: &mut Vec<u16>,
        srcs_used: &mut Vec<VertexId>,
    ) -> bool {
        let placement = e.cfg.placement;
        let cols = placement.cols;
        let scan_window = 2 * cols.max(16);
        lane_owner.clear();
        lane_owner.resize(cols, u16::MAX);
        let mut edges_left = cols;
        srcs_used.clear();
        let mut scanned = 0usize;
        let mut dispatched = 0u64;
        while edges_left > 0 && scanned < scan_window {
            let Some(mut seg) = e.tiles[t].row_queues[row].pop_front() else {
                break;
            };
            scanned += 1;
            if !srcs_used.contains(&seg.src) {
                if srcs_used.len() >= e.cfg.max_scheduled_vertices {
                    e.tiles[t].row_queues[row].push_back(seg);
                    continue;
                }
                srcs_used.push(seg.src);
            }
            let csr = e.dev.tile_csr(e.slice, t);
            let seg_id = scanned as u16;
            let src_home = e.home.rem(seg.src) as usize;
            while edges_left > 0 && !seg.edges.is_empty() {
                let idx = seg.edges.start;
                let dst = csr.neighbor_at(idx);
                let home = e.home.rem(dst) as usize;
                let (target, lane) = e.target_lane(src_home, home);
                if (lane_owner[lane] != u16::MAX && lane_owner[lane] != seg_id)
                    || e.gu_queues.is_full(target)
                {
                    break;
                }
                e.gu_queues.push_back(
                    target,
                    EdgeWork {
                        src: seg.src,
                        dst,
                        home: home as u32,
                        weight: csr.weight_at(idx),
                        src_degree: seg.src_degree,
                        src_prop: seg.prop,
                    },
                );
                e.ev.gu.set(target);
                lane_owner[lane] = seg_id;
                edges_left -= 1;
                seg.edges.start += 1;
                dispatched += 1;
            }
            if !seg.edges.is_empty() {
                e.tiles[t].row_queues[row].push_back(seg);
            }
        }
        e.stats.traversed_edges += dispatched;
        !e.tiles[t].row_queues[row].is_empty()
    }

    /// A row queue as `(src, edges)` pairs, front first.
    fn queue_of<C: Collector>(
        e: &Engine<'_, Bfs, C>,
        t: usize,
        row: usize,
    ) -> Vec<(u32, Range<usize>)> {
        e.tiles[t].row_queues[row]
            .iter()
            .map(|s| (s.src, s.edges.clone()))
            .collect()
    }

    /// Every GU queue's entries as `(src, dst)`, oldest first.
    fn gu_contents<C: Collector>(e: &Engine<'_, Bfs, C>) -> Vec<Vec<(u32, u32)>> {
        let mut probe = e.gu_queues.clone();
        (0..e.cfg.placement.num_pes())
            .map(|pe| {
                std::iter::from_fn(|| probe.pop_front(pe))
                    .map(|w| (w.src, w.dst))
                    .collect()
            })
            .collect()
    }

    /// The idle-lap cut against the full scan: seeded row queues of up to
    /// three times the scan window, one to six sources (segments share
    /// them, and a budget of one to four sources refuses some), one to
    /// sixteen lanes per row (collisions), and GU queues of one to three
    /// entries pre-filled at random (full queues), under all three
    /// mappings. Per visit the dispatched edges in every GU queue, the lane
    /// owners, the scheduled sources, the counters and the final queue
    /// order must be equal.
    #[test]
    fn idle_laps() {
        use scalagraph_graph::SplitMix64;
        let graph = Csr::from_edges(512, &generators::power_law(512, 6000, 0.8, 5));
        let mut cuts = 0u64;
        for case in 0..400u64 {
            let mut rng = SplitMix64::stream(0x1a95, case, 0);
            let mut cfg = ScalaGraphConfig::with_pes(*rng.pick(&[32, 64, 128, 512]));
            cfg.mapping = *rng.pick(&Mapping::ALL);
            cfg.max_scheduled_vertices = rng.range(1, 4) as usize;
            cfg.gu_queue_capacity = rng.range(1, 3) as usize;
            let dev = DeviceGraph::prepare(&graph, &cfg);
            let algo = Bfs::from_root(0);
            let (mut col_a, mut col_b) = (NullCollector, NullCollector);
            let mut cut = Engine::new(&algo, &graph, &cfg, &dev, &mut col_a, None);
            let mut full = Engine::new(&algo, &graph, &cfg, &dev, &mut col_b, None);
            let (t, row) = (rng.below(2) as usize, rng.below(16) as usize);
            let csr = dev.tile_csr(0, t);
            let sources: Vec<VertexId> = (0..graph.num_vertices() as VertexId)
                .filter(|&v| csr.edge_range(v).len() > 1)
                .collect();
            let pool: Vec<VertexId> = (0..rng.range(1, 6)).map(|_| *rng.pick(&sources)).collect();
            for _ in 0..rng.range(1, 96) {
                let src = *rng.pick(&pool);
                let range = csr.edge_range(src);
                let lo = range.start + rng.below(range.len() as u64 - 1) as usize;
                let hi = rng.range(lo as u64 + 1, range.end as u64) as usize;
                for e in [&mut cut, &mut full] {
                    e.tiles[t].row_queues[row].push_back(Segment {
                        src,
                        prop: 0,
                        src_degree: range.len() as u32,
                        edges: lo..hi,
                    });
                }
            }
            for pe in 0..cfg.placement.num_pes() {
                for _ in 0..rng.below(cfg.gu_queue_capacity as u64 + 1) {
                    let fill = EdgeWork {
                        src: u32::MAX,
                        dst: u32::MAX,
                        home: 0,
                        weight: 0,
                        src_degree: 0,
                        src_prop: 0,
                    };
                    cut.gu_queues.push_back(pe, fill);
                    full.gu_queues.push_back(pe, fill);
                }
            }
            let (mut lanes_a, mut srcs_a, mut lanes_b, mut srcs_b) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for visit in 0..rng.range(1, 6) {
                let ctx = format!("case {case} visit {visit}");
                let window = 2 * cfg.placement.cols.max(16);
                let before = cut.tiles[t].row_queues[row].len();
                let more_a = cut.dispatch_row(t, row, &mut lanes_a, &mut srcs_a);
                let more_b = full_scan(&mut full, t, row, &mut lanes_b, &mut srcs_b);
                assert_eq!(more_a, more_b, "{ctx}");
                assert_eq!(gu_contents(&cut), gu_contents(&full), "{ctx}: GU queues");
                assert_eq!(lanes_a, lanes_b, "{ctx}: lane owners");
                assert_eq!(srcs_a, srcs_b, "{ctx}: scheduled sources");
                assert_eq!(
                    queue_of(&cut, t, row),
                    queue_of(&full, t, row),
                    "{ctx}: queue"
                );
                assert_eq!(cut.stats, full.stats, "{ctx}");
                cuts += u64::from(before > window / 2);
                // The GUs drain between visits, the same PEs on both sides.
                for pe in 0..cfg.placement.num_pes() {
                    if rng.chance(50) {
                        cut.gu_queues.pop_front(pe);
                        full.gu_queues.pop_front(pe);
                    }
                }
            }
        }
        assert!(cuts > 100, "too few long queues: {cuts}");
    }

    #[test]
    fn unit_mask_visits_ascending_and_tracks_emptiness() {
        let mut m = UnitMask::sized(130);
        assert!(m.is_empty());
        for u in [129, 64, 0, 63, 65] {
            m.set(u);
        }
        let mut seen = Vec::new();
        let visited = m.retain(|u| {
            seen.push(u);
            u == 64 // keep only unit 64
        });
        assert_eq!(visited, 5);
        assert_eq!(seen, [0, 63, 64, 65, 129], "visit order is ascending");
        assert_eq!(m.retain(|u| u != 64), 1, "only unit 64 is left");
        assert!(m.is_empty());
        // A filled mask holds exactly its units, the tail word included.
        m.fill();
        assert_eq!(m.retain(|_| false), 130);
        assert!(m.is_empty());
    }
}
