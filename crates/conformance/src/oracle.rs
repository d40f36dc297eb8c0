//! The differential oracle: runs one scenario across every declared
//! engine/mode/collector combination and diffs the results.
//!
//! The comparison matrix:
//!
//! | engine                  | properties | iterations/frontier | stats | telemetry |
//! |-------------------------|------------|---------------------|-------|-----------|
//! | reference (golden)      | —          | —                   | —     | —         |
//! | scalagraph/stepped      | vs golden  | vs golden¹          | —     | —         |
//! | scalagraph/fast-forward | bit-exact vs stepped | bit-exact  | bit-exact | —    |
//! | scalagraph/recording    | bit-exact vs stepped | bit-exact  | bit-exact | run_cycles = cycles |
//!
//! `scalagraph/stepped` is the simulator's dense reference (every unit
//! visited on every cycle, no idle skip); `scalagraph/fast-forward` is the
//! event-driven core the runtime runs. Their bit-identity is the check
//! that the core's activity masks never miss work.
//! | graphdyns               | vs golden  | vs golden           | —     | —         |
//! | gunrock                 | vs golden  | vs golden           | —     | —         |
//!
//! ¹ strict when inter-phase pipelining did not engage (or the scenario
//! forces `strict_frontier`); a pipelined Apply may legally observe
//! next-wave updates early and converge in fewer iterations, so the
//! pipelined check relaxes to `iterations <= reference`.
//!
//! Floating-point properties (PageRank) are compared to the golden run
//! within `1e-4` (reduction order differs per engine) but bit-exactly
//! *between* ScalaGraph execution modes.

use crate::scenario::{AlgoSpec, Expectation, Scenario};
use scalagraph::telemetry::Recorder;
use scalagraph::{ScalaGraphConfig, SimError, SimStats, Simulator};
use scalagraph_algo::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp, WidestPath};
use scalagraph_algo::{Algorithm, ReferenceEngine};
use scalagraph_baselines::{GraphDyns, GraphDynsConfig, GunrockModel};
use scalagraph_graph::Csr;

/// Engine label constants, used in [`Mismatch`] reports.
pub mod engines {
    /// The golden sequential engine.
    pub const REFERENCE: &str = "reference";
    /// ScalaGraph's dense reference: every unit on every cycle.
    pub const STEPPED: &str = "scalagraph/stepped";
    /// ScalaGraph's event-driven core with idle-cycle fast-forward.
    pub const FAST_FORWARD: &str = "scalagraph/fast-forward";
    /// The dense reference with a telemetry recorder attached.
    pub const RECORDING: &str = "scalagraph/recording";
    /// The GraphDynS baseline model.
    pub const GRAPHDYNS: &str = "graphdyns";
    /// The Gunrock GPU model.
    pub const GUNROCK: &str = "gunrock";
}

/// Final vertex properties in a comparison-friendly form.
#[derive(Debug, Clone, PartialEq)]
pub enum Props {
    /// Integer-valued algorithms (BFS, SSSP, CC, widest path).
    Ints(Vec<u32>),
    /// Float-valued algorithms (PageRank).
    Floats(Vec<f32>),
}

impl Props {
    fn len(&self) -> usize {
        match self {
            Props::Ints(v) => v.len(),
            Props::Floats(v) => v.len(),
        }
    }
}

/// Everything observed from one completed engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDigest {
    /// Final vertex properties.
    pub props: Props,
    /// Iterations executed.
    pub iterations: u64,
    /// Total traversed edges.
    pub traversed_edges: u64,
    /// Frontier size entering each iteration (empty for engines that do
    /// not expose it, i.e. Gunrock).
    pub frontier_sizes: Vec<usize>,
    /// Full counter set, for the cycle-accurate engines.
    pub stats: Option<SimStats>,
    /// `TelemetrySummary::run_cycles`, for the recording mode.
    pub telemetry_run_cycles: Option<u64>,
}

/// Everything observed from one failed engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorDigest {
    /// `SimError` variant name.
    pub variant: &'static str,
    /// Cycle of the stall snapshot (0 when the error carries none).
    pub cycle: u64,
    /// Cycles without progress at expiry.
    pub stalled_for: u64,
    /// Phase the sequencer was in.
    pub phase: String,
    /// Display form of the blamed unit.
    pub suspect: String,
}

impl ErrorDigest {
    fn from_error(e: &SimError) -> Self {
        let variant = e.variant();
        // The interruption variants carry no stall snapshot but do know the
        // cycle they fired on; surface it so digests of two interrupted
        // modes can be compared cycle-exactly.
        if let SimError::Cancelled { cycle, .. } | SimError::DeadlineExceeded { cycle, .. } = e {
            return ErrorDigest {
                variant,
                cycle: *cycle,
                stalled_for: 0,
                phase: String::new(),
                suspect: String::new(),
            };
        }
        match e.snapshot() {
            Some(s) => ErrorDigest {
                variant,
                cycle: s.cycle,
                stalled_for: s.stalled_for,
                phase: s.phase.to_string(),
                suspect: s.suspect.to_string(),
            },
            None => ErrorDigest {
                variant,
                cycle: 0,
                stalled_for: 0,
                phase: String::new(),
                suspect: String::new(),
            },
        }
    }
}

/// The outcome of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The run completed.
    Converged(Box<RunDigest>),
    /// The run surfaced a [`SimError`].
    Errored(ErrorDigest),
}

/// One engine's observation inside a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Engine label (see [`engines`]).
    pub engine: &'static str,
    /// What happened.
    pub outcome: Outcome,
}

/// One divergence between two engines, naming the first diverging field.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// The first field that diverged (e.g. `properties[17]`,
    /// `stats.noc_hops`, `iterations`).
    pub field: String,
    /// Engine on the left of the comparison.
    pub left_engine: String,
    /// Engine on the right of the comparison.
    pub right_engine: String,
    /// Left value, rendered.
    pub left: String,
    /// Right value, rendered.
    pub right: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} = {} but {} = {}",
            self.field, self.left_engine, self.left, self.right_engine, self.right
        )
    }
}

/// The oracle's verdict on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Scenario name.
    pub scenario: String,
    /// Per-engine observations, in a fixed order.
    pub observations: Vec<Observation>,
    /// All divergences found (empty = the scenario conforms).
    pub mismatches: Vec<Mismatch>,
}

impl Report {
    /// Whether the scenario met its expectation with no divergence.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Deterministic text rendering (what `scalagraph-sim replay` prints).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario `{}`: {}",
            self.scenario,
            if self.passed() { "PASS" } else { "MISMATCH" }
        );
        for o in &self.observations {
            match &o.outcome {
                Outcome::Converged(d) => {
                    let _ = writeln!(
                        out,
                        "  {:<24} converged: {} iterations, {} traversed edges",
                        o.engine, d.iterations, d.traversed_edges
                    );
                }
                Outcome::Errored(e) => {
                    let _ = writeln!(
                        out,
                        "  {:<24} {}: cycle {}, stalled {} cycles, suspect {}",
                        o.engine, e.variant, e.cycle, e.stalled_for, e.suspect
                    );
                }
            }
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "  mismatch {m}");
        }
        out
    }
}

/// Runs the full differential oracle for one scenario.
///
/// # Errors
///
/// Returns a description when the scenario fails
/// [`Scenario::validate`], enables no comparison engine, or its graph
/// cannot be built. Engine failures are *observations*, not errors.
pub fn run_scenario(s: &Scenario) -> Result<Report, String> {
    s.validate()?;
    if s.modes.is_empty() {
        return Err(format!(
            "scenario `{}` enables no comparison engines: the mode matrix is empty \
             (set at least one of fast_forward/recording/graphdyns/gunrock)",
            s.name
        ));
    }
    // Dynamic scenarios run every batch through the same per-engine
    // machinery via `run_static_on`, with the incremental algorithms
    // differentially checked against each batch's full recompute.
    if let Some(spec) = s.mutations {
        return crate::dynamic::run_dynamic_scenario(s, spec);
    }
    let graph = s.graph.build()?;
    run_static_on(s, &graph)
}

/// Runs the per-engine comparison matrix for one (possibly mutated) graph
/// snapshot of a scenario [`run_scenario`] has validated.
pub(crate) fn run_static_on(s: &Scenario, graph: &Csr) -> Result<Report, String> {
    match s.algo {
        AlgoSpec::Bfs { root } => run_typed(s, graph, &Bfs::from_root(root), Props::Ints),
        AlgoSpec::Sssp { root } => run_typed(s, graph, &Sssp::from_root(root), Props::Ints),
        AlgoSpec::Cc => run_typed(s, graph, &ConnectedComponents::new(), Props::Ints),
        AlgoSpec::PageRank { iters } => run_typed(s, graph, &PageRank::new(iters), Props::Floats),
        AlgoSpec::WidestPath { root } => {
            run_typed(s, graph, &WidestPath::from_root(root), Props::Ints)
        }
    }
}

fn run_typed<A, F>(s: &Scenario, graph: &Csr, algo: &A, wrap: F) -> Result<Report, String>
where
    A: Algorithm,
    F: Fn(Vec<A::Prop>) -> Props,
{
    let cfg = s.run_config()?;

    let mut observations = Vec::new();

    // Golden reference (skipped for wedge scenarios: it cannot wedge, and
    // nothing is compared against it there).
    let golden = match s.expect {
        Expectation::Converge => {
            let run = ReferenceEngine::new().run(algo, graph);
            let digest = RunDigest {
                props: wrap(run.properties),
                iterations: run.iterations as u64,
                traversed_edges: run.traversed_edges,
                frontier_sizes: run.frontier_sizes,
                stats: None,
                telemetry_run_cycles: None,
            };
            observations.push(Observation {
                engine: engines::REFERENCE,
                outcome: Outcome::Converged(Box::new(digest.clone())),
            });
            Some(digest)
        }
        Expectation::Wedge { .. } => None,
    };

    let sim_digest = |result: Result<scalagraph::SimResult<A::Prop>, SimError>,
                      telemetry_run_cycles: Option<u64>| match result {
        Ok(r) => Outcome::Converged(Box::new(RunDigest {
            props: wrap(r.properties),
            iterations: r.stats.iterations,
            traversed_edges: r.stats.traversed_edges,
            frontier_sizes: r.frontier_sizes,
            stats: Some(r.stats),
            telemetry_run_cycles,
        })),
        Err(e) => Outcome::Errored(ErrorDigest::from_error(&e)),
    };

    // ScalaGraph, dense reference (always).
    let mut stepped_cfg = cfg.clone();
    stepped_cfg.fast_forward = false;
    let mut stepped = sim_digest(try_run(algo, graph, stepped_cfg), None);
    if s.synthetic_bug {
        // Test-only hook: skew the stepped observation so the oracle has a
        // reproducible "bug" for shrinker/replay plumbing tests.
        if let Outcome::Converged(d) = &mut stepped {
            d.iterations += 1;
        }
    }
    observations.push(Observation {
        engine: engines::STEPPED,
        outcome: stepped,
    });

    // ScalaGraph, event-driven core with fast-forward.
    if s.modes.fast_forward {
        let mut ff_cfg = cfg.clone();
        ff_cfg.fast_forward = true;
        observations.push(Observation {
            engine: engines::FAST_FORWARD,
            outcome: sim_digest(try_run(algo, graph, ff_cfg), None),
        });
    }

    // ScalaGraph, dense reference with a recording collector.
    if s.modes.recording {
        let mut rec_cfg = cfg.clone();
        rec_cfg.fast_forward = false;
        let mut recorder = Recorder::new(1000);
        let result = Simulator::try_new(algo, graph, rec_cfg)
            .and_then(|mut sim| sim.try_run_with(&mut recorder));
        let run_cycles = recorder.summary().run_cycles;
        observations.push(Observation {
            engine: engines::RECORDING,
            outcome: sim_digest(result, Some(run_cycles)),
        });
    }

    // Baselines only make sense for converging scenarios: neither models
    // the NoC/HBM fault hooks, so a wedge cannot reproduce there.
    if matches!(s.expect, Expectation::Converge) {
        if s.modes.graphdyns {
            let run = GraphDyns::new(GraphDynsConfig::with_pes(s.config.pes)).run(algo, graph);
            observations.push(Observation {
                engine: engines::GRAPHDYNS,
                outcome: Outcome::Converged(Box::new(RunDigest {
                    props: wrap(run.properties),
                    iterations: run.stats.iterations,
                    traversed_edges: run.stats.traversed_edges,
                    frontier_sizes: run.frontier_sizes,
                    stats: None,
                    telemetry_run_cycles: None,
                })),
            });
        }
        if s.modes.gunrock {
            let run = GunrockModel::v100().run(algo, graph);
            observations.push(Observation {
                engine: engines::GUNROCK,
                outcome: Outcome::Converged(Box::new(RunDigest {
                    props: wrap(run.properties),
                    iterations: run.iterations as u64,
                    traversed_edges: run.traversed_edges,
                    frontier_sizes: Vec::new(),
                    stats: None,
                    telemetry_run_cycles: None,
                })),
            });
        }
    }

    let mismatches = diff(s, golden.as_ref(), &observations);
    Ok(Report {
        scenario: s.name.clone(),
        observations,
        mismatches,
    })
}

fn try_run<A: Algorithm>(
    algo: &A,
    graph: &Csr,
    cfg: ScalaGraphConfig,
) -> Result<scalagraph::SimResult<A::Prop>, SimError> {
    Simulator::try_new(algo, graph, cfg)?.try_run()
}

// ----- diffing ------------------------------------------------------------

fn find(observations: &[Observation], engine: &str) -> Option<Outcome> {
    observations
        .iter()
        .find(|o| o.engine == engine)
        .map(|o| o.outcome.clone())
}

fn diff(s: &Scenario, golden: Option<&RunDigest>, observations: &[Observation]) -> Vec<Mismatch> {
    match &s.expect {
        Expectation::Converge => diff_converge(s, golden, observations),
        Expectation::Wedge { suspect_contains } => diff_wedge(suspect_contains, observations),
    }
}

fn diff_converge(
    s: &Scenario,
    golden: Option<&RunDigest>,
    observations: &[Observation],
) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let golden = match golden {
        Some(g) => g,
        None => return out,
    };
    let stepped = match find(observations, engines::STEPPED) {
        Some(Outcome::Converged(d)) => Some(d),
        _ => None,
    };
    // Strict frontier comparison unless pipelining actually engaged.
    let strict = s.strict_frontier.unwrap_or_else(|| {
        stepped
            .as_deref()
            .and_then(|d| d.stats.as_ref())
            .is_none_or(|st| !st.inter_phase_used)
    });

    for o in observations {
        if o.engine == engines::REFERENCE {
            continue;
        }
        let digest = match &o.outcome {
            Outcome::Converged(d) => d,
            Outcome::Errored(e) => {
                out.push(Mismatch {
                    field: "outcome".into(),
                    left_engine: engines::REFERENCE.into(),
                    right_engine: o.engine.into(),
                    left: "converged".into(),
                    right: format!("{} ({})", e.variant, e.suspect),
                });
                continue;
            }
        };
        // Properties vs golden, always.
        diff_props(
            &mut out,
            engines::REFERENCE,
            o.engine,
            &golden.props,
            &digest.props,
            true,
        );
        // Frontier evolution vs golden. The baselines replicate the
        // reference loop structure exactly, so they are always strict; the
        // ScalaGraph modes follow the scenario's strictness.
        let scalagraph_mode = o.engine.starts_with("scalagraph/");
        if !scalagraph_mode || strict {
            push_ne(
                &mut out,
                "iterations",
                engines::REFERENCE,
                o.engine,
                golden.iterations,
                digest.iterations,
            );
            push_ne(
                &mut out,
                "traversed_edges",
                engines::REFERENCE,
                o.engine,
                golden.traversed_edges,
                digest.traversed_edges,
            );
            if !digest.frontier_sizes.is_empty() || scalagraph_mode {
                diff_seq(
                    &mut out,
                    "frontier_sizes",
                    engines::REFERENCE,
                    o.engine,
                    &golden.frontier_sizes,
                    &digest.frontier_sizes,
                );
            }
        } else if digest.iterations > golden.iterations {
            // Pipelining may converge in fewer iterations, never more.
            push_ne(
                &mut out,
                "iterations",
                engines::REFERENCE,
                o.engine,
                golden.iterations,
                digest.iterations,
            );
        }
        // Recording mode: the telemetry summary must agree with the
        // counters it observed.
        if let (Some(run_cycles), Some(stats)) = (digest.telemetry_run_cycles, &digest.stats) {
            push_ne(
                &mut out,
                "telemetry.run_cycles",
                o.engine,
                o.engine,
                stats.cycles,
                run_cycles,
            );
        }
    }

    // ScalaGraph execution modes must be bit-identical to stepped.
    if let Some(stepped) = &stepped {
        for mode in [engines::FAST_FORWARD, engines::RECORDING] {
            if let Some(Outcome::Converged(other)) = find(observations, mode) {
                diff_sim_modes(&mut out, engines::STEPPED, mode, stepped, &other);
            }
        }
    }
    out
}

fn diff_wedge(suspect_contains: &str, observations: &[Observation]) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let stepped = match find(observations, engines::STEPPED) {
        Some(Outcome::Errored(e)) => e,
        Some(Outcome::Converged(_)) => {
            out.push(Mismatch {
                field: "outcome".into(),
                left_engine: "expectation".into(),
                right_engine: engines::STEPPED.into(),
                left: "wedge".into(),
                right: "converged".into(),
            });
            return out;
        }
        None => return out,
    };
    if !stepped.suspect.contains(suspect_contains) {
        out.push(Mismatch {
            field: "suspect".into(),
            left_engine: "expectation".into(),
            right_engine: engines::STEPPED.into(),
            left: format!("contains `{suspect_contains}`"),
            right: stepped.suspect.clone(),
        });
    }
    // Every other ScalaGraph mode must fail identically: same variant, same
    // cycle, same diagnosis.
    for mode in [engines::FAST_FORWARD, engines::RECORDING] {
        match find(observations, mode) {
            None => {}
            Some(Outcome::Converged(_)) => out.push(Mismatch {
                field: "outcome".into(),
                left_engine: engines::STEPPED.into(),
                right_engine: mode.into(),
                left: stepped.variant.into(),
                right: "converged".into(),
            }),
            Some(Outcome::Errored(e)) => {
                push_ne(
                    &mut out,
                    "error.variant",
                    engines::STEPPED,
                    mode,
                    stepped.variant,
                    e.variant,
                );
                push_ne(
                    &mut out,
                    "error.cycle",
                    engines::STEPPED,
                    mode,
                    stepped.cycle,
                    e.cycle,
                );
                push_ne(
                    &mut out,
                    "error.stalled_for",
                    engines::STEPPED,
                    mode,
                    stepped.stalled_for,
                    e.stalled_for,
                );
                push_ne(
                    &mut out,
                    "error.phase",
                    engines::STEPPED,
                    mode,
                    &stepped.phase,
                    &e.phase,
                );
                push_ne(
                    &mut out,
                    "error.suspect",
                    engines::STEPPED,
                    mode,
                    &stepped.suspect,
                    &e.suspect,
                );
            }
        }
    }
    out
}

/// Full bit-identity between two ScalaGraph execution modes.
fn diff_sim_modes(
    out: &mut Vec<Mismatch>,
    left_engine: &str,
    right_engine: &str,
    left: &RunDigest,
    right: &RunDigest,
) {
    diff_props(
        out,
        left_engine,
        right_engine,
        &left.props,
        &right.props,
        false,
    );
    diff_seq(
        out,
        "frontier_sizes",
        left_engine,
        right_engine,
        &left.frontier_sizes,
        &right.frontier_sizes,
    );
    if let (Some(a), Some(b)) = (&left.stats, &right.stats) {
        if a != b {
            for ((name, va), (_, vb)) in stats_fields(a).into_iter().zip(stats_fields(b)) {
                if va != vb {
                    out.push(Mismatch {
                        field: format!("stats.{name}"),
                        left_engine: left_engine.into(),
                        right_engine: right_engine.into(),
                        left: va,
                        right: vb,
                    });
                    break; // first diverging field only
                }
            }
        }
    }
}

/// `SimStats` as ordered (field, value) pairs, for first-divergence naming.
fn stats_fields(s: &SimStats) -> Vec<(&'static str, String)> {
    vec![
        ("cycles", s.cycles.to_string()),
        ("scatter_cycles", s.scatter_cycles.to_string()),
        ("apply_cycles", s.apply_cycles.to_string()),
        ("iterations", s.iterations.to_string()),
        ("traversed_edges", s.traversed_edges.to_string()),
        ("updates_produced", s.updates_produced.to_string()),
        ("updates_injected", s.updates_injected.to_string()),
        ("updates_delivered", s.updates_delivered.to_string()),
        ("agg_merges", s.agg_merges.to_string()),
        ("noc_hops", s.noc_hops.to_string()),
        ("noc_conflicts", s.noc_conflicts.to_string()),
        ("routing_latency_sum", s.routing_latency_sum.to_string()),
        ("routing_latency_count", s.routing_latency_count.to_string()),
        ("gu_busy_cycles", s.gu_busy_cycles.to_string()),
        ("pe_cycle_budget", s.pe_cycle_budget.to_string()),
        ("offchip_bytes_read", s.offchip_bytes_read.to_string()),
        ("offchip_bytes_written", s.offchip_bytes_written.to_string()),
        ("offchip_reads", s.offchip_reads.to_string()),
        ("slices", s.slices.to_string()),
        ("inter_phase_used", s.inter_phase_used.to_string()),
        ("activations", s.activations.to_string()),
        ("epref_lines", s.epref_lines.to_string()),
        ("epref_piggybacks", s.epref_piggybacks.to_string()),
        ("vpref_lines", s.vpref_lines.to_string()),
        (
            "dispatch_starved_row_cycles",
            s.dispatch_starved_row_cycles.to_string(),
        ),
        ("applies", s.applies.to_string()),
        ("flits_dropped", s.flits_dropped.to_string()),
        ("flits_delayed", s.flits_delayed.to_string()),
        ("updates_corrupted", s.updates_corrupted.to_string()),
        ("hbm_stalls_injected", s.hbm_stalls_injected.to_string()),
    ]
}

fn diff_props(
    out: &mut Vec<Mismatch>,
    left_engine: &str,
    right_engine: &str,
    left: &Props,
    right: &Props,
    tolerant: bool,
) {
    if left.len() != right.len() {
        out.push(Mismatch {
            field: "properties.len".into(),
            left_engine: left_engine.into(),
            right_engine: right_engine.into(),
            left: left.len().to_string(),
            right: right.len().to_string(),
        });
        return;
    }
    match (left, right) {
        (Props::Ints(a), Props::Floats(_)) | (Props::Floats(_), Props::Ints(a)) => {
            out.push(Mismatch {
                field: "properties.type".into(),
                left_engine: left_engine.into(),
                right_engine: right_engine.into(),
                left: format!("{} ints vs floats", a.len()),
                right: "mixed property types".into(),
            });
        }
        (Props::Ints(a), Props::Ints(b)) => {
            if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
                out.push(Mismatch {
                    field: format!("properties[{i}]"),
                    left_engine: left_engine.into(),
                    right_engine: right_engine.into(),
                    left: a[i].to_string(),
                    right: b[i].to_string(),
                });
            }
        }
        (Props::Floats(a), Props::Floats(b)) => {
            let differs = |i: usize| {
                if tolerant {
                    (a[i] - b[i]).abs() > 1e-4
                } else {
                    a[i].to_bits() != b[i].to_bits()
                }
            };
            if let Some(i) = (0..a.len()).find(|&i| differs(i)) {
                out.push(Mismatch {
                    field: format!("properties[{i}]"),
                    left_engine: left_engine.into(),
                    right_engine: right_engine.into(),
                    left: format!("{:e}", a[i]),
                    right: format!("{:e}", b[i]),
                });
            }
        }
    }
}

fn diff_seq(
    out: &mut Vec<Mismatch>,
    field: &str,
    left_engine: &str,
    right_engine: &str,
    left: &[usize],
    right: &[usize],
) {
    if left.len() != right.len() {
        out.push(Mismatch {
            field: format!("{field}.len"),
            left_engine: left_engine.into(),
            right_engine: right_engine.into(),
            left: left.len().to_string(),
            right: right.len().to_string(),
        });
        return;
    }
    if let Some(i) = (0..left.len()).find(|&i| left[i] != right[i]) {
        out.push(Mismatch {
            field: format!("{field}[{i}]"),
            left_engine: left_engine.into(),
            right_engine: right_engine.into(),
            left: left[i].to_string(),
            right: right[i].to_string(),
        });
    }
}

fn push_ne<T: PartialEq + std::fmt::Display>(
    out: &mut Vec<Mismatch>,
    field: &str,
    left_engine: &str,
    right_engine: &str,
    left: T,
    right: T,
) {
    if left != right {
        out.push(Mismatch {
            field: field.into(),
            left_engine: left_engine.into(),
            right_engine: right_engine.into(),
            left: left.to_string(),
            right: right.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ConfigSpec, Family, GraphSource, GraphSpec, ModeMatrix};

    fn converge_scenario(name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            graph: GraphSpec {
                family: Family::Uniform {
                    vertices: 48,
                    edges: 220,
                    seed: 5,
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
            modes: ModeMatrix::full(),
            expect: Expectation::Converge,
            strict_frontier: None,
            synthetic_bug: false,
            mutations: None,
        }
    }

    #[test]
    fn healthy_scenario_passes_all_engines() {
        let report = run_scenario(&converge_scenario("healthy")).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.observations.len(), 6, "all engines observed");
    }

    #[test]
    fn synthetic_bug_produces_an_iteration_mismatch() {
        let mut s = converge_scenario("synthetic");
        s.synthetic_bug = true;
        let report = run_scenario(&s).unwrap();
        assert!(!report.passed());
        let first = &report.mismatches[0];
        assert_eq!(first.field, "iterations");
        assert_eq!(first.right_engine, engines::STEPPED);
    }

    #[test]
    fn report_rendering_is_deterministic() {
        let mut s = converge_scenario("render");
        s.synthetic_bug = true;
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("MISMATCH"));
    }

    #[test]
    fn malformed_scenarios_are_rejected_not_observed() {
        let mut s = converge_scenario("bad-root");
        s.algo = AlgoSpec::Bfs { root: 5000 };
        assert!(run_scenario(&s).is_err());
        let mut s = converge_scenario("bad-pes");
        s.config.pes = 33;
        assert!(run_scenario(&s).is_err());
    }

    #[test]
    fn empty_mode_matrix_is_a_typed_usage_error() {
        let mut s = converge_scenario("all-modes-off");
        s.modes = ModeMatrix {
            fast_forward: false,
            recording: false,
            graphdyns: false,
            gunrock: false,
        };
        let err = run_scenario(&s).unwrap_err();
        assert!(
            err.contains("mode matrix is empty"),
            "unexpected message: {err}"
        );
        assert!(err.contains("all-modes-off"), "names the scenario: {err}");
        // Any single engine makes the scenario runnable again.
        s.modes.fast_forward = true;
        assert!(run_scenario(&s).is_ok());
    }
}
