//! Serializable conformance scenarios.
//!
//! A [`Scenario`] pins everything a differential run needs — the graph
//! generator and its seed, the algorithm, the accelerator configuration, an
//! optional fault schedule, and the engine/mode matrix to compare — in a
//! JSON form that round-trips bit-exactly. A scenario found by the fuzzer
//! can therefore be checked into `corpus/` and replayed byte-for-byte with
//! `scalagraph-sim replay`.
//!
//! Faults are the engine's own [`Fault`]s. JSON cannot carry `u64::MAX`,
//! so the fault reader and writer alone encode "forever" (a fault's
//! `until`, an HBM stall's `cycles`) as `0`: a zero-length window or stall
//! would be meaningless, so the encoding is unambiguous.
//!
//! [`Scenario::validate`] is the one rule set that decides whether a
//! scenario is runnable; every front end (oracle, runner, executor, serve
//! daemon) calls it before doing any work.

use crate::json::{obj, parse, Json};
use scalagraph::fault::{Fault, FaultKind, FaultPlan, LinkDir};
use scalagraph::{Mapping, MemoryPreset, ScalaGraphConfig};
use scalagraph_graph::{generators, Csr, Edge, EdgeList, PackedCsr, PackedShape, VertexId};
use scalagraph_mem::HbmConfig;

/// The graph generator family plus its size/seed parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Graph500 R-MAT (heavy-tailed).
    Rmat {
        /// Vertex count.
        vertices: usize,
        /// Edge count.
        edges: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Uniformly random endpoints.
    Uniform {
        /// Vertex count.
        vertices: usize,
        /// Edge count.
        edges: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Directed path `0 -> 1 -> ...`.
    Path {
        /// Vertex count.
        vertices: usize,
    },
    /// Vertex 0 points at every other vertex.
    Star {
        /// Vertex count.
        vertices: usize,
    },
    /// 2D grid with right/down edges.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Complete binary tree, parent-to-child edges.
    BinaryTree {
        /// Vertex count.
        vertices: usize,
    },
}

impl Family {
    /// Vertex count of the generated graph; saturates at `usize::MAX`
    /// instead of wrapping, so an oversized grid cannot pass for a small
    /// one.
    pub fn vertices(&self) -> usize {
        match *self {
            Family::Rmat { vertices, .. }
            | Family::Uniform { vertices, .. }
            | Family::Path { vertices }
            | Family::Star { vertices }
            | Family::BinaryTree { vertices } => vertices,
            Family::Grid { rows, cols } => rows.saturating_mul(cols),
        }
    }

    /// Nominal edge count (generator input, before symmetrization);
    /// saturates like [`Family::vertices`].
    pub fn edges(&self) -> usize {
        match *self {
            Family::Rmat { edges, .. } | Family::Uniform { edges, .. } => edges,
            Family::Path { vertices } | Family::BinaryTree { vertices } => {
                vertices.saturating_sub(1)
            }
            Family::Star { vertices } => vertices.saturating_sub(1),
            Family::Grid { rows, cols } => rows.saturating_mul(cols).saturating_mul(2),
        }
    }
}

/// Where the scenario's graph bytes come from.
///
/// `Generate` (the default, and what every corpus scenario uses) builds the
/// graph from the family generators. `PackedFile` opens a packed delta+varint
/// CSR container written by `scalagraph-sim graph pack`, validates it against
/// the family's declared shape, and decodes it — trading a regeneration for a
/// checksummed mmap read, which is what makes paper-scale graphs restart in
/// milliseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub enum GraphSource {
    /// Build from the family generators (pure function of the spec).
    #[default]
    Generate,
    /// Load a packed CSR container from this path.
    PackedFile {
        /// Filesystem path of the container.
        path: String,
    },
}

/// How the scenario builds its graph.
///
/// `GraphSpec` is `Hash + Eq` so it can key an immutable graph cache: two
/// equal specs build byte-identical CSRs (generation is a pure function of
/// the spec, and a packed file is validated against the declared family
/// shape), so one cached build can serve every scenario that shares it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GraphSpec {
    /// Generator family and parameters.
    pub family: Family,
    /// Mirror every edge (required for meaningful connected components).
    pub symmetrize: bool,
    /// Randomize edge weights in `1..=max_weight`; `0` keeps unit weights.
    pub max_weight: u32,
    /// Seed of the weight randomization.
    pub weight_seed: u64,
    /// Where the graph bytes come from (generate vs. packed file).
    pub source: GraphSource,
}

impl GraphSpec {
    /// Builds the CSR this spec describes.
    pub fn build(&self) -> Result<Csr, String> {
        let v = self.family.vertices();
        if v < 2 {
            return Err(format!("graph must have at least 2 vertices, got {v}"));
        }
        if let GraphSource::PackedFile { path } = &self.source {
            let expect = PackedShape {
                num_vertices: v,
                weighted: self.max_weight > 0,
            };
            return Self::load_packed(path, expect);
        }
        // Reserve the edge storage (mirrored edges included) before
        // generating: a graph this host cannot hold is refused here, where
        // a failed allocation inside a generator would abort the process.
        let want = self
            .family
            .edges()
            .saturating_mul(if self.symmetrize { 2 } else { 1 });
        let mut edges: Vec<Edge> = Vec::new();
        edges
            .try_reserve_exact(want)
            .map_err(|e| format!("cannot hold a graph of {want} edges: {e}"))?;
        edges.extend(match self.family {
            Family::Rmat {
                vertices,
                edges,
                seed,
            } => generators::rmat(vertices, edges, seed),
            Family::Uniform {
                vertices,
                edges,
                seed,
            } => generators::uniform(vertices, edges, seed),
            Family::Path { vertices } => generators::path(vertices),
            Family::Star { vertices } => generators::star(vertices),
            Family::Grid { rows, cols } => generators::grid(rows, cols),
            Family::BinaryTree { vertices } => generators::binary_tree(vertices),
        });
        let mut list = EdgeList::from_vec(v, edges).map_err(|e| e.to_string())?;
        if self.symmetrize {
            list.symmetrize();
        }
        if self.max_weight > 0 {
            list.randomize_weights(self.max_weight, self.weight_seed);
        }
        Ok(Csr::from_edge_list(&list))
    }

    /// Reads and decodes a packed container into an in-memory CSR in one
    /// validating pass ([`PackedCsr::read_csr`]). A container whose header
    /// declares another vertex count or weightedness than the scenario is
    /// refused before any block is decoded, so the graph budget planned
    /// from the declared family holds. Every failure — missing file,
    /// corruption, shape mismatch — is a typed message the serve daemon
    /// forwards as a `malformed` wire error instead of panicking.
    fn load_packed(path: &str, expect: PackedShape) -> Result<Csr, String> {
        PackedCsr::read_csr(path, expect).map_err(|e| format!("packed graph `{path}`: {e}"))
    }

    fn to_json(&self) -> Json {
        let mut members: Vec<(&str, Json)> = Vec::new();
        let (name, rest): (&str, Vec<(&str, Json)>) = match self.family {
            Family::Rmat {
                vertices,
                edges,
                seed,
            } => (
                "rmat",
                vec![
                    ("vertices", Json::Int(vertices as u64)),
                    ("edges", Json::Int(edges as u64)),
                    ("seed", Json::Int(seed)),
                ],
            ),
            Family::Uniform {
                vertices,
                edges,
                seed,
            } => (
                "uniform",
                vec![
                    ("vertices", Json::Int(vertices as u64)),
                    ("edges", Json::Int(edges as u64)),
                    ("seed", Json::Int(seed)),
                ],
            ),
            Family::Path { vertices } => ("path", vec![("vertices", Json::Int(vertices as u64))]),
            Family::Star { vertices } => ("star", vec![("vertices", Json::Int(vertices as u64))]),
            Family::Grid { rows, cols } => (
                "grid",
                vec![
                    ("rows", Json::Int(rows as u64)),
                    ("cols", Json::Int(cols as u64)),
                ],
            ),
            Family::BinaryTree { vertices } => (
                "binary_tree",
                vec![("vertices", Json::Int(vertices as u64))],
            ),
        };
        members.push(("family", Json::Str(name.into())));
        members.extend(rest);
        members.push(("symmetrize", Json::Bool(self.symmetrize)));
        members.push(("max_weight", Json::Int(u64::from(self.max_weight))));
        members.push(("weight_seed", Json::Int(self.weight_seed)));
        // Emitted only for packed sources: corpus files (all `Generate`)
        // stay byte-identical to their pre-`GraphSource` form.
        if let GraphSource::PackedFile { path } = &self.source {
            members.push(("packed_path", Json::Str(path.clone())));
        }
        obj(members)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let family = match v.req_str("family")? {
            "rmat" => Family::Rmat {
                vertices: v.req_u64("vertices")? as usize,
                edges: v.req_u64("edges")? as usize,
                seed: v.req_u64("seed")?,
            },
            "uniform" => Family::Uniform {
                vertices: v.req_u64("vertices")? as usize,
                edges: v.req_u64("edges")? as usize,
                seed: v.req_u64("seed")?,
            },
            "path" => Family::Path {
                vertices: v.req_u64("vertices")? as usize,
            },
            "star" => Family::Star {
                vertices: v.req_u64("vertices")? as usize,
            },
            "grid" => Family::Grid {
                rows: v.req_u64("rows")? as usize,
                cols: v.req_u64("cols")? as usize,
            },
            "binary_tree" => Family::BinaryTree {
                vertices: v.req_u64("vertices")? as usize,
            },
            other => return Err(format!("unknown graph family `{other}`")),
        };
        let source = match v.get("packed_path") {
            None => GraphSource::Generate,
            Some(p) => GraphSource::PackedFile {
                path: p
                    .as_str()
                    .ok_or("key `packed_path` must be a string")?
                    .to_string(),
            },
        };
        let spec = GraphSpec {
            family,
            symmetrize: v.opt_bool("symmetrize", false)?,
            max_weight: u32_member(v, "max_weight", Some(0))?,
            weight_seed: v.opt_u64("weight_seed", 0)?,
            source,
        };
        known_keys(v, "graph", &spec.to_json(), &[])?;
        Ok(spec)
    }
}

/// Which algorithm the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoSpec {
    /// Breadth-first search from `root`.
    Bfs {
        /// Source vertex.
        root: u32,
    },
    /// Single-source shortest paths from `root`.
    Sssp {
        /// Source vertex.
        root: u32,
    },
    /// Connected components (label propagation).
    Cc,
    /// PageRank with a fixed iteration schedule.
    PageRank {
        /// Iterations to run.
        iters: usize,
    },
    /// Widest path (maximum bottleneck capacity) from `root`.
    WidestPath {
        /// Source vertex.
        root: u32,
    },
}

impl AlgoSpec {
    /// Short name matching the CLI's `--algo` vocabulary.
    pub fn kind(&self) -> &'static str {
        match self {
            AlgoSpec::Bfs { .. } => "bfs",
            AlgoSpec::Sssp { .. } => "sssp",
            AlgoSpec::Cc => "cc",
            AlgoSpec::PageRank { .. } => "pagerank",
            AlgoSpec::WidestPath { .. } => "widest",
        }
    }

    fn to_json(self) -> Json {
        let mut members = vec![("kind", Json::Str(self.kind().into()))];
        match self {
            AlgoSpec::Bfs { root } | AlgoSpec::Sssp { root } | AlgoSpec::WidestPath { root } => {
                members.push(("root", Json::Int(u64::from(root))));
            }
            AlgoSpec::Cc => {}
            AlgoSpec::PageRank { iters } => members.push(("iters", Json::Int(iters as u64))),
        }
        obj(members)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let algo = match v.req_str("kind")? {
            "bfs" => AlgoSpec::Bfs {
                root: u32_member(v, "root", None)?,
            },
            "sssp" => AlgoSpec::Sssp {
                root: u32_member(v, "root", None)?,
            },
            "cc" => AlgoSpec::Cc,
            "pagerank" => AlgoSpec::PageRank {
                iters: v.req_u64("iters")? as usize,
            },
            "widest" => AlgoSpec::WidestPath {
                root: u32_member(v, "root", None)?,
            },
            other => return Err(format!("unknown algorithm `{other}`")),
        };
        known_keys(v, "algo", &algo.to_json(), &[])?;
        Ok(algo)
    }
}

/// Off-chip memory choice for a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemorySpec {
    /// The paper's U280 HBM2 stack.
    U280,
    /// Unlimited bandwidth (scalability-study mode).
    Unlimited,
    /// U280 geometry with an explicit access latency and jitter — the knob
    /// the timing-independence property tests sweep.
    Custom {
        /// Access latency in cycles.
        latency_cycles: u32,
        /// Uniform extra latency bound in cycles.
        jitter: u32,
    },
}

/// The accelerator configuration knobs a scenario pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigSpec {
    /// PE count (positive multiple of 32).
    pub pes: usize,
    /// Workload mapping: `"row"`, `"source"`, or `"destination"`.
    pub mapping: Mapping,
    /// Aggregation-pipeline registers per router.
    pub aggregation_registers: usize,
    /// Degree-aware scheduler width (1..=16).
    pub max_scheduled_vertices: usize,
    /// Inter-phase pipelining flag.
    pub inter_phase_pipelining: bool,
    /// Scratchpad capacity in vertices; `0` keeps the preset (no slicing
    /// for scenario-sized graphs).
    pub spd_capacity_vertices: usize,
    /// Off-chip memory model.
    pub memory: MemorySpec,
    /// Watchdog window in cycles (`0` disables).
    pub watchdog_stall_cycles: u64,
}

impl ConfigSpec {
    /// A 32-PE configuration with every knob at its preset default.
    pub fn small() -> Self {
        ConfigSpec {
            pes: 32,
            mapping: Mapping::RowOriented,
            aggregation_registers: 16,
            max_scheduled_vertices: 16,
            inter_phase_pipelining: true,
            spd_capacity_vertices: 0,
            memory: MemorySpec::U280,
            watchdog_stall_cycles: scalagraph::config::DEFAULT_WATCHDOG_STALL_CYCLES,
        }
    }

    /// Builds the engine configuration, without a fault plan and not yet
    /// validated: [`Scenario::run_config`] adds both.
    pub fn build(&self) -> Result<ScalaGraphConfig, String> {
        if self.pes == 0 || !self.pes.is_multiple_of(32) {
            return Err(format!(
                "pes must be a positive multiple of 32, got {}",
                self.pes
            ));
        }
        let mut cfg = ScalaGraphConfig::with_pes(self.pes);
        cfg.mapping = self.mapping;
        cfg.aggregation_registers = self.aggregation_registers;
        cfg.max_scheduled_vertices = self.max_scheduled_vertices;
        cfg.inter_phase_pipelining = self.inter_phase_pipelining;
        if self.spd_capacity_vertices > 0 {
            cfg.spd_capacity_vertices = self.spd_capacity_vertices;
        }
        cfg.memory = match self.memory {
            MemorySpec::U280 => MemoryPreset::U280,
            MemorySpec::Unlimited => MemoryPreset::Unlimited,
            MemorySpec::Custom {
                latency_cycles,
                jitter,
            } => {
                let mut hbm = HbmConfig::u280_stack(cfg.effective_clock_mhz() * 1e6);
                hbm.latency_cycles = latency_cycles;
                hbm.latency_jitter = jitter;
                MemoryPreset::Custom(hbm)
            }
        };
        cfg.watchdog_stall_cycles = self.watchdog_stall_cycles;
        Ok(cfg)
    }

    fn to_json(self) -> Json {
        let mapping = match self.mapping {
            Mapping::RowOriented => "row",
            Mapping::SourceOriented => "source",
            Mapping::DestinationOriented => "destination",
        };
        let memory = match self.memory {
            MemorySpec::U280 => obj(vec![("preset", Json::Str("u280".into()))]),
            MemorySpec::Unlimited => obj(vec![("preset", Json::Str("unlimited".into()))]),
            MemorySpec::Custom {
                latency_cycles,
                jitter,
            } => obj(vec![
                ("preset", Json::Str("custom".into())),
                ("latency_cycles", Json::Int(u64::from(latency_cycles))),
                ("jitter", Json::Int(u64::from(jitter))),
            ]),
        };
        obj(vec![
            ("pes", Json::Int(self.pes as u64)),
            ("mapping", Json::Str(mapping.into())),
            (
                "aggregation_registers",
                Json::Int(self.aggregation_registers as u64),
            ),
            (
                "max_scheduled_vertices",
                Json::Int(self.max_scheduled_vertices as u64),
            ),
            (
                "inter_phase_pipelining",
                Json::Bool(self.inter_phase_pipelining),
            ),
            (
                "spd_capacity_vertices",
                Json::Int(self.spd_capacity_vertices as u64),
            ),
            ("memory", memory),
            (
                "watchdog_stall_cycles",
                Json::Int(self.watchdog_stall_cycles),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let mapping = match v.req_str("mapping")? {
            "row" => Mapping::RowOriented,
            "source" => Mapping::SourceOriented,
            "destination" => Mapping::DestinationOriented,
            other => return Err(format!("unknown mapping `{other}`")),
        };
        let mem = v.req("memory")?;
        let memory = match mem.req_str("preset")? {
            "u280" => MemorySpec::U280,
            "unlimited" => MemorySpec::Unlimited,
            "custom" => MemorySpec::Custom {
                latency_cycles: u32_member(mem, "latency_cycles", None)?,
                jitter: u32_member(mem, "jitter", Some(0))?,
            },
            other => return Err(format!("unknown memory preset `{other}`")),
        };
        let spec = ConfigSpec {
            pes: v.req_u64("pes")? as usize,
            mapping,
            aggregation_registers: v.req_u64("aggregation_registers")? as usize,
            max_scheduled_vertices: v.req_u64("max_scheduled_vertices")? as usize,
            inter_phase_pipelining: v.req_bool("inter_phase_pipelining")?,
            spd_capacity_vertices: v.opt_u64("spd_capacity_vertices", 0)? as usize,
            memory,
            watchdog_stall_cycles: v.opt_u64(
                "watchdog_stall_cycles",
                scalagraph::config::DEFAULT_WATCHDOG_STALL_CYCLES,
            )?,
        };
        let written = spec.to_json();
        known_keys(v, "config", &written, &[])?;
        known_keys(mem, "memory", written.req("memory")?, &[])?;
        Ok(spec)
    }
}

/// A `u32` member, required when `default` is `None`. A value past
/// `u32::MAX` is refused by its key instead of truncated.
fn u32_member(v: &Json, key: &str, default: Option<u32>) -> Result<u32, String> {
    let n = match default {
        None => v.req_u64(key)?,
        Some(d) => v.opt_u64(key, u64::from(d))?,
    };
    u32::try_from(n).map_err(|_| format!("key `{key}` must be at most {}, got {n}", u32::MAX))
}

fn dir_to_str(d: LinkDir) -> &'static str {
    match d {
        LinkDir::North => "north",
        LinkDir::South => "south",
        LinkDir::West => "west",
        LinkDir::East => "east",
    }
}

fn dir_from_str(s: &str) -> Result<LinkDir, String> {
    match s {
        "north" => Ok(LinkDir::North),
        "south" => Ok(LinkDir::South),
        "west" => Ok(LinkDir::West),
        "east" => Ok(LinkDir::East),
        other => Err(format!("unknown link direction `{other}`")),
    }
}

/// Refuses a member of object `v` that `written`, the canonical form of
/// what was read from `v`, does not carry, unless `also` names it: a
/// misspelt optional key must fail the parse, not fall back to its
/// default.
fn known_keys(v: &Json, what: &str, written: &Json, also: &[&str]) -> Result<(), String> {
    let Json::Obj(members) = v else {
        return Err(format!("{what} must be an object"));
    };
    match members
        .iter()
        .find(|(k, _)| written.get(k).is_none() && !also.contains(&k.as_str()))
    {
        Some((k, _)) => Err(format!("unknown {what} key `{k}`")),
        None => Ok(()),
    }
}

/// A fault's JSON form: its kind's members, then its window. `u64::MAX`
/// (forever) is written as `0`, see the module docs.
fn fault_to_json(f: &Fault) -> Json {
    let forever = |n: u64| if n == u64::MAX { 0 } else { n };
    let link = |kind: &str, node: usize, dir: LinkDir| {
        vec![
            ("kind", Json::Str(kind.into())),
            ("node", Json::Int(node as u64)),
            ("dir", Json::Str(dir_to_str(dir).into())),
        ]
    };
    let mut members = match f.kind {
        FaultKind::LinkDown { node, dir } => link("link_down", node, dir),
        FaultKind::LinkDrop { node, dir, one_in } => {
            let mut m = link("link_drop", node, dir);
            m.push(("one_in", Json::Int(u64::from(one_in))));
            m
        }
        FaultKind::LinkDelay { node, dir, cycles } => {
            let mut m = link("link_delay", node, dir);
            m.push(("cycles", Json::Int(cycles)));
            m
        }
        FaultKind::HbmStall {
            tile,
            channel,
            cycles,
        } => vec![
            ("kind", Json::Str("hbm_stall".into())),
            ("tile", Json::Int(tile as u64)),
            ("channel", Json::Int(channel as u64)),
            ("cycles", Json::Int(forever(cycles))),
        ],
        FaultKind::CorruptPayload {
            node,
            dir,
            one_in,
            out_of_range,
        } => {
            let mut m = link("corrupt_payload", node, dir);
            m.push(("one_in", Json::Int(u64::from(one_in))));
            m.push(("out_of_range", Json::Bool(out_of_range)));
            m
        }
    };
    members.push(("from", Json::Int(f.from_cycle)));
    members.push(("until", Json::Int(forever(f.until_cycle))));
    obj(members)
}

/// Reads a fault written by [`fault_to_json`]; `0` reads as forever.
fn fault_from_json(v: &Json) -> Result<Fault, String> {
    let forever = |n: u64| if n == 0 { u64::MAX } else { n };
    let node = || v.req_u64("node").map(|n| n as usize);
    let dir = || v.req_str("dir").and_then(dir_from_str);
    let kind = match v.req_str("kind")? {
        "link_down" => FaultKind::LinkDown {
            node: node()?,
            dir: dir()?,
        },
        "link_drop" => FaultKind::LinkDrop {
            node: node()?,
            dir: dir()?,
            one_in: u32_member(v, "one_in", None)?,
        },
        "link_delay" => FaultKind::LinkDelay {
            node: node()?,
            dir: dir()?,
            cycles: v.req_u64("cycles")?,
        },
        "hbm_stall" => FaultKind::HbmStall {
            tile: v.req_u64("tile")? as usize,
            channel: v.req_u64("channel")? as usize,
            cycles: forever(v.req_u64("cycles")?),
        },
        "corrupt_payload" => FaultKind::CorruptPayload {
            node: node()?,
            dir: dir()?,
            one_in: u32_member(v, "one_in", None)?,
            out_of_range: v.req_bool("out_of_range")?,
        },
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    let fault = Fault::new(kind).window(v.req_u64("from")?, forever(v.opt_u64("until", 0)?));
    known_keys(v, "fault", &fault_to_json(&fault), &[])?;
    Ok(fault)
}

/// Which engine/mode/collector combinations the oracle compares, beyond the
/// always-run reference engine and the dense ScalaGraph reference
/// (`scalagraph/stepped`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeMatrix {
    /// Re-run ScalaGraph on the event-driven core with idle-cycle
    /// fast-forward, as the runtime runs it (must be bit-identical to
    /// the dense reference). The parser reads the retired `event_driven`
    /// key as an alias of this one.
    pub fast_forward: bool,
    /// Re-run the dense reference with a telemetry recorder attached (must
    /// be bit-identical to it, and the summary must be consistent).
    pub recording: bool,
    /// Run the GraphDynS baseline (loop-exact vs the reference).
    pub graphdyns: bool,
    /// Run the Gunrock GPU model (exact vs the reference).
    pub gunrock: bool,
}

impl ModeMatrix {
    /// Everything on.
    pub fn full() -> Self {
        ModeMatrix {
            fast_forward: true,
            recording: true,
            graphdyns: true,
            gunrock: true,
        }
    }

    /// Only the ScalaGraph execution modes.
    pub fn sim_only() -> Self {
        ModeMatrix {
            fast_forward: true,
            recording: false,
            graphdyns: false,
            gunrock: false,
        }
    }

    /// Whether no comparison engine is enabled at all. The oracle rejects
    /// such scenarios up front: a run that compares nothing can only
    /// vacuously "pass", which silently hides the regression it was meant
    /// to pin.
    pub fn is_empty(self) -> bool {
        !(self.fast_forward || self.recording || self.graphdyns || self.gunrock)
    }

    fn to_json(self) -> Json {
        obj(vec![
            ("fast_forward", Json::Bool(self.fast_forward)),
            ("recording", Json::Bool(self.recording)),
            ("graphdyns", Json::Bool(self.graphdyns)),
            ("gunrock", Json::Bool(self.gunrock)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        // `event_driven` asked for a run on the event-driven core, which
        // is what `fast_forward` selects now.
        let event_driven = v.opt_bool("event_driven", false)?;
        let modes = ModeMatrix {
            fast_forward: v.opt_bool("fast_forward", true)? || event_driven,
            recording: v.opt_bool("recording", false)?,
            graphdyns: v.opt_bool("graphdyns", false)?,
            gunrock: v.opt_bool("gunrock", false)?,
        };
        known_keys(v, "modes", &modes.to_json(), &["event_driven"])?;
        Ok(modes)
    }
}

/// A seeded schedule of graph mutation batches.
///
/// The schedule is *generative*, like [`GraphSpec`]: the concrete
/// [`MutationBatch`](scalagraph_graph::mutate::MutationBatch)es are a pure
/// function of this spec and the graph state they apply to, so a scenario
/// file fully determines the dynamic run and two equal specs replay the
/// same churn. Each of the `batches` batches draws `insert_edges` edge
/// insertions, `remove_edges` edge removals, `add_vertices` vertex
/// appends, and `isolate_vertices` vertex isolations from a per-batch
/// substream of `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MutationSpec {
    /// Number of mutation batches applied in sequence (≥ 1).
    pub batches: u32,
    /// Edge insertions drawn per batch.
    pub insert_edges: u32,
    /// Edge removals attempted per batch (draws may collide; a repeated
    /// draw is a no-op, so the realized count can be lower).
    pub remove_edges: u32,
    /// Vertices appended per batch.
    pub add_vertices: u32,
    /// Vertices isolated per batch.
    pub isolate_vertices: u32,
    /// Seed of the mutation stream.
    pub seed: u64,
}

impl MutationSpec {
    fn to_json(self) -> Json {
        obj(vec![
            ("batches", Json::Int(u64::from(self.batches))),
            ("insert_edges", Json::Int(u64::from(self.insert_edges))),
            ("remove_edges", Json::Int(u64::from(self.remove_edges))),
            ("add_vertices", Json::Int(u64::from(self.add_vertices))),
            (
                "isolate_vertices",
                Json::Int(u64::from(self.isolate_vertices)),
            ),
            ("seed", Json::Int(self.seed)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let spec = MutationSpec {
            batches: u32_member(v, "batches", None)?,
            insert_edges: u32_member(v, "insert_edges", Some(0))?,
            remove_edges: u32_member(v, "remove_edges", Some(0))?,
            add_vertices: u32_member(v, "add_vertices", Some(0))?,
            isolate_vertices: u32_member(v, "isolate_vertices", Some(0))?,
            seed: v.opt_u64("seed", 0)?,
        };
        known_keys(v, "mutations", &spec.to_json(), &[])?;
        Ok(spec)
    }
}

/// What the scenario is expected to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// Every engine completes and agrees.
    Converge,
    /// The simulation wedges: every ScalaGraph mode must surface the same
    /// watchdog error, whose suspect names must contain this substring.
    Wedge {
        /// Substring the blamed unit's description must contain.
        suspect_contains: String,
    },
}

impl Expectation {
    fn to_json(&self) -> Json {
        match self {
            Expectation::Converge => obj(vec![("verdict", Json::Str("converge".into()))]),
            Expectation::Wedge { suspect_contains } => obj(vec![
                ("verdict", Json::Str("wedge".into())),
                ("suspect_contains", Json::Str(suspect_contains.clone())),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let expect = match v.req_str("verdict")? {
            "converge" => Expectation::Converge,
            "wedge" => Expectation::Wedge {
                suspect_contains: v.req_str("suspect_contains")?.to_string(),
            },
            other => return Err(format!("unknown verdict `{other}`")),
        };
        known_keys(v, "expect", &expect.to_json(), &[])?;
        Ok(expect)
    }
}

/// A complete, replayable conformance scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable identifier (also the corpus file stem).
    pub name: String,
    /// Graph generator spec.
    pub graph: GraphSpec,
    /// Algorithm to run.
    pub algo: AlgoSpec,
    /// Accelerator configuration.
    pub config: ConfigSpec,
    /// Seed of the fault injector's probabilistic stream.
    pub fault_seed: u64,
    /// Scheduled faults; empty means no fault plan at all.
    pub faults: Vec<Fault>,
    /// Engine/mode matrix to compare.
    pub modes: ModeMatrix,
    /// Expected outcome.
    pub expect: Expectation,
    /// Force (`Some(true)`) or suppress (`Some(false)`) strict comparison
    /// of iteration counts and frontier evolution against the reference.
    /// `None` selects automatically: strict unless inter-phase pipelining
    /// actually engaged (a pipelined Apply may legally observe next-wave
    /// updates early and converge in fewer iterations).
    pub strict_frontier: Option<bool>,
    /// Test-only hook: perturb the stepped observation so the oracle
    /// reports a mismatch on an otherwise-healthy scenario. Exists so the
    /// shrinker can be exercised end to end without a real engine bug.
    #[doc(hidden)]
    pub synthetic_bug: bool,
    /// Seeded mutation schedule; `None` runs the graph as a static
    /// snapshot (the pre-dynamic behavior, byte for byte).
    pub mutations: Option<MutationSpec>,
}

impl Scenario {
    /// Checks that the scenario is runnable without building its graph:
    /// the graph spec is non-degenerate, rooted algorithms stay inside the
    /// vertex range, PageRank has at least one iteration, a mutation
    /// schedule has a batch, keeps every vertex id a `VertexId` and expects
    /// convergence, and the
    /// [`run_config`](Scenario::run_config) builds and validates.
    ///
    /// This is the one rule set: the oracle, the runner, the executor's
    /// workers and the serve daemon all call it before any other work,
    /// so a scenario none of them may run is refused the same way by all.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let vertices = self.graph.family.vertices();
        if vertices < 2 {
            return Err(format!(
                "graph must have at least 2 vertices, got {vertices}"
            ));
        }
        if vertices > VertexId::MAX as usize {
            return Err(format!(
                "graph has {vertices} vertices, more than vertex ids can number ({})",
                VertexId::MAX
            ));
        }
        match self.algo {
            AlgoSpec::Bfs { root } | AlgoSpec::Sssp { root } | AlgoSpec::WidestPath { root } => {
                if root as usize >= vertices {
                    return Err(format!("root {root} out of range for {vertices} vertices"));
                }
            }
            AlgoSpec::PageRank { iters } => {
                if iters == 0 {
                    return Err("pagerank needs at least 1 iteration".into());
                }
            }
            AlgoSpec::Cc => {}
        }
        if let Some(m) = &self.mutations {
            if m.batches == 0 {
                return Err("mutation schedule needs at least 1 batch".into());
            }
            let grown = (vertices as u64)
                .saturating_add(u64::from(m.batches).saturating_mul(u64::from(m.add_vertices)));
            if grown > u64::from(VertexId::MAX) {
                return Err(format!(
                    "mutation schedule grows the graph by batches x add_vertices to {grown} \
                     vertices, more than vertex ids can number ({})",
                    VertexId::MAX
                ));
            }
            if matches!(self.expect, Expectation::Wedge { .. }) {
                return Err(
                    "mutation schedules require a converge expectation (wedge scenarios \
                     exercise fault plans, not graph churn)"
                        .into(),
                );
            }
        }
        self.run_config().map(drop)
    }

    /// The engine configuration this scenario runs: the
    /// [`ConfigSpec::build`], then the fault plan, then one
    /// [`ScalaGraphConfig::validate`].
    ///
    /// # Errors
    ///
    /// The first configuration or fault-window problem found.
    pub fn run_config(&self) -> Result<ScalaGraphConfig, String> {
        let mut cfg = self.config.build()?;
        cfg.fault_plan = self.fault_plan();
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cfg)
    }

    /// The fault plan this scenario attaches, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        (!self.faults.is_empty()).then(|| FaultPlan {
            seed: self.fault_seed,
            faults: self.faults.clone(),
        })
    }

    /// Serializes to the canonical pretty-printed corpus form.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// A stable 64-bit signature of the scenario's *behavior*: FNV-1a over
    /// the canonical JSON with the (purely cosmetic) name written empty.
    /// Two scenarios with the same fingerprint run the same graph,
    /// algorithm, configuration, and fault schedule, so they produce the
    /// same result whatever their names. The bytes are hashed as the
    /// writer produces them; no string is built.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
        // Hashing cannot fail.
        let _ = self.to_json_named("").write_pretty(&mut hash);
        hash.0
    }

    /// Every top-level key [`Scenario::to_json`] can emit and
    /// [`Scenario::from_json`] reads: the scenario schema's one key list.
    /// The reader refuses any other key, as it does inside every member.
    pub const KEYS: [&'static str; 11] = [
        "name",
        "graph",
        "algo",
        "config",
        "fault_seed",
        "faults",
        "modes",
        "expect",
        "mutations",
        "strict_frontier",
        "synthetic_bug",
    ];

    /// The JSON document for this scenario.
    pub fn to_json(&self) -> Json {
        self.to_json_named(&self.name)
    }

    /// The JSON document for this scenario under `name`.
    fn to_json_named(&self, name: &str) -> Json {
        let mut members = vec![
            ("name", Json::Str(name.to_string())),
            ("graph", self.graph.to_json()),
            ("algo", self.algo.to_json()),
            ("config", self.config.to_json()),
            ("fault_seed", Json::Int(self.fault_seed)),
            (
                "faults",
                Json::Arr(self.faults.iter().map(fault_to_json).collect()),
            ),
            ("modes", self.modes.to_json()),
            ("expect", self.expect.to_json()),
        ];
        // Emitted only when present: pre-dynamic corpus files stay
        // byte-identical.
        if let Some(m) = &self.mutations {
            members.push(("mutations", m.to_json()));
        }
        if let Some(strict) = self.strict_frontier {
            members.push(("strict_frontier", Json::Bool(strict)));
        }
        if self.synthetic_bug {
            members.push(("synthetic_bug", Json::Bool(true)));
        }
        obj(members)
    }

    /// Parses a scenario from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        Self::from_json(&parse(text)?)
    }

    /// Parses a scenario from a JSON document.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        known_keys(v, "scenario", &Json::Null, &Self::KEYS)?;
        let faults = match v.get("faults") {
            None => Vec::new(),
            Some(arr) => arr
                .as_array()
                .ok_or("key `faults` must be an array")?
                .iter()
                .map(fault_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let strict_frontier = match v.get("strict_frontier") {
            None => None,
            Some(b) => Some(b.as_bool().ok_or("key `strict_frontier` must be a bool")?),
        };
        Ok(Scenario {
            name: v.req_str("name")?.to_string(),
            graph: GraphSpec::from_json(v.req("graph")?)?,
            algo: AlgoSpec::from_json(v.req("algo")?)?,
            config: ConfigSpec::from_json(v.req("config")?)?,
            fault_seed: v.opt_u64("fault_seed", 0)?,
            faults,
            modes: ModeMatrix::from_json(v.req("modes")?)?,
            expect: Expectation::from_json(v.req("expect")?)?,
            strict_frontier,
            synthetic_bug: v.opt_bool("synthetic_bug", false)?,
            mutations: match v.get("mutations") {
                None => None,
                Some(m) => Some(MutationSpec::from_json(m)?),
            },
        })
    }
}

/// FNV-1a over the bytes written to it: the fingerprint's hash, fed by
/// the JSON writer.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            name: "sample".into(),
            graph: GraphSpec {
                family: Family::Rmat {
                    vertices: 64,
                    edges: 256,
                    seed: 7,
                },
                symmetrize: true,
                max_weight: 255,
                weight_seed: 3,
                source: GraphSource::Generate,
            },
            algo: AlgoSpec::Sssp { root: 1 },
            config: ConfigSpec {
                pes: 64,
                mapping: Mapping::DestinationOriented,
                aggregation_registers: 4,
                max_scheduled_vertices: 2,
                inter_phase_pipelining: false,
                spd_capacity_vertices: 32,
                memory: MemorySpec::Custom {
                    latency_cycles: 40,
                    jitter: 2,
                },
                watchdog_stall_cycles: 2_000,
            },
            fault_seed: 11,
            faults: vec![
                Fault::new(FaultKind::LinkDelay {
                    node: 5,
                    dir: LinkDir::South,
                    cycles: 3,
                }),
                Fault::new(FaultKind::HbmStall {
                    tile: 0,
                    channel: 2,
                    cycles: u64::MAX,
                })
                .window(20, 21),
            ],
            modes: ModeMatrix::full(),
            expect: Expectation::Wedge {
                suspect_contains: "tile 0".into(),
            },
            strict_frontier: Some(true),
            synthetic_bug: false,
            mutations: None,
        }
    }

    #[test]
    fn keys_list_every_emitted_member() {
        let mut s = sample();
        s.synthetic_bug = true;
        s.mutations = Some(MutationSpec {
            batches: 1,
            insert_edges: 1,
            remove_edges: 0,
            add_vertices: 0,
            isolate_vertices: 0,
            seed: 1,
        });
        let Json::Obj(members) = s.to_json() else {
            panic!("a scenario serializes to an object");
        };
        let emitted: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(emitted.len(), Scenario::KEYS.len());
        assert!(
            emitted.iter().all(|k| Scenario::KEYS.contains(k)),
            "{emitted:?}"
        );
    }

    #[test]
    fn mutation_schedule_round_trips_and_perturbs_fingerprint() {
        let mut s = sample();
        s.expect = Expectation::Converge;
        s.faults.clear();
        let static_fp = s.fingerprint();
        let static_text = s.to_json_string();
        assert!(!static_text.contains("mutations"));
        s.mutations = Some(MutationSpec {
            batches: 3,
            insert_edges: 8,
            remove_edges: 4,
            add_vertices: 1,
            isolate_vertices: 0,
            seed: 99,
        });
        s.validate().unwrap();
        let text = s.to_json_string();
        assert!(text.contains("\"mutations\""));
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json_string(), text);
        // The schedule is behavior: it must move the fingerprint, and every
        // schedule change must move it again (memoization soundness).
        assert_ne!(s.fingerprint(), static_fp);
        let mut reseeded = s.clone();
        if let Some(m) = &mut reseeded.mutations {
            m.seed = 100;
        }
        assert_ne!(reseeded.fingerprint(), s.fingerprint());
    }

    #[test]
    fn u32_members_past_u32_max_are_refused_by_key() {
        fn set(v: &mut Json, key: &str, n: u64) -> bool {
            match v {
                Json::Obj(members) => members.iter_mut().any(|(k, x)| {
                    if k == key {
                        *x = Json::Int(n);
                        true
                    } else {
                        set(x, key, n)
                    }
                }),
                Json::Arr(items) => items.iter_mut().any(|x| set(x, key, n)),
                _ => false,
            }
        }
        let with_algo = |algo| Scenario { algo, ..sample() };
        let with_fault = |kind| Scenario {
            faults: vec![Fault::new(kind)],
            ..sample()
        };
        let dynamic = Scenario {
            faults: Vec::new(),
            expect: Expectation::Converge,
            mutations: Some(MutationSpec {
                batches: 1,
                insert_edges: 1,
                remove_edges: 1,
                add_vertices: 1,
                isolate_vertices: 1,
                seed: 1,
            }),
            ..sample()
        };
        let link_drop = with_fault(FaultKind::LinkDrop {
            node: 0,
            dir: LinkDir::South,
            one_in: 2,
        });
        let corrupt = with_fault(FaultKind::CorruptPayload {
            node: 0,
            dir: LinkDir::South,
            one_in: 2,
            out_of_range: false,
        });
        let cases = [
            (sample(), "max_weight"),
            (sample(), "root"),
            (with_algo(AlgoSpec::Bfs { root: 1 }), "root"),
            (with_algo(AlgoSpec::WidestPath { root: 1 }), "root"),
            (sample(), "latency_cycles"),
            (sample(), "jitter"),
            (link_drop, "one_in"),
            (corrupt, "one_in"),
            (dynamic.clone(), "batches"),
            (dynamic.clone(), "insert_edges"),
            (dynamic.clone(), "remove_edges"),
            (dynamic.clone(), "add_vertices"),
            (dynamic, "isolate_vertices"),
        ];
        for (scenario, key) in cases {
            let parse_with = |n: u64| {
                let mut doc = scenario.to_json();
                assert!(set(&mut doc, key, n), "{key} is a member");
                Scenario::from_json(&doc)
            };
            let err = parse_with(1 << 32).expect_err(key);
            assert!(err.contains(&format!("`{key}`")), "{key}: {err}");
            let parsed = parse_with(u64::from(u32::MAX)).unwrap_or_else(|e| panic!("{key}: {e}"));
            if let Err(e) = parsed.validate() {
                assert!(e.contains(key), "{key}: {e}");
            }
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let s = sample();
        let text = s.to_json_string();
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, s);
        // Canonical form: re-serialization is byte-identical.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn packed_source_round_trips_and_generate_stays_byte_stable() {
        let mut s = sample();
        let generate_text = s.to_json_string();
        assert!(
            !generate_text.contains("packed_path"),
            "Generate specs must serialize exactly as before the key existed"
        );
        s.graph.source = GraphSource::PackedFile {
            path: "graphs/pokec-22.sgpk".into(),
        };
        let text = s.to_json_string();
        assert!(text.contains("packed_path"));
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn packed_source_with_missing_file_is_a_typed_build_error() {
        let mut spec = sample().graph;
        spec.source = GraphSource::PackedFile {
            path: "/nonexistent/g.sgpk".into(),
        };
        let err = spec.build().unwrap_err();
        assert!(err.contains("packed graph"), "got: {err}");
    }

    #[test]
    fn packed_source_of_another_shape_is_refused() {
        let spec = sample().graph;
        let path = std::env::temp_dir().join(format!(
            "scalagraph-scenario-shape-{}.sgpk",
            std::process::id()
        ));
        scalagraph_graph::packed::write_packed(&spec.build().unwrap(), &path, 16).unwrap();
        let packed = |mut s: GraphSpec| {
            s.source = GraphSource::PackedFile {
                path: path.to_string_lossy().into_owned(),
            };
            s.build()
        };
        assert_eq!(packed(spec.clone()).unwrap(), spec.build().unwrap());

        let mut larger = spec.clone();
        larger.family = Family::Rmat {
            vertices: 128,
            edges: 512,
            seed: 3,
        };
        let err = packed(larger).unwrap_err();
        assert!(
            err.contains("wrong shape") && err.contains("128"),
            "got: {err}"
        );

        let mut unweighted = spec;
        unweighted.max_weight = 0;
        let err = packed(unweighted).unwrap_err();
        assert!(err.contains("unweighted"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn forever_is_written_as_zero_and_read_back_as_u64_max() {
        let s = sample();
        let text = s.to_json_string();
        let doc = parse(&text).unwrap();
        let faults = doc.req("faults").unwrap().as_array().unwrap();
        assert_eq!(faults[0].req_u64("until"), Ok(0), "a permanent window");
        assert_eq!(faults[1].req_u64("cycles"), Ok(0), "a stall without end");
        assert_eq!(faults[1].req_u64("until"), Ok(21));
        let plan = Scenario::from_json_str(&text)
            .unwrap()
            .fault_plan()
            .unwrap();
        assert_eq!(plan.seed, 11);
        assert_eq!(plan.faults, s.faults);
        assert_eq!(plan.faults[0].until_cycle, u64::MAX);
    }

    #[test]
    fn graph_specs_build_deterministically() {
        let spec = sample().graph;
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.num_vertices(), 64);
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn run_config_builds_the_config_with_its_faults_and_validates_once() {
        let s = sample();
        let cfg = s.run_config().unwrap();
        assert_eq!(cfg.placement.num_pes(), 64);
        assert_eq!(cfg.spd_capacity_vertices, 32);
        assert!(!cfg.inter_phase_pipelining);
        assert_eq!(cfg.fault_plan, s.fault_plan());
        let mut bad = s.clone();
        bad.config.pes = 48;
        assert!(bad.config.build().is_err());
        bad = s.clone();
        bad.config.max_scheduled_vertices = 99;
        assert!(
            bad.config.build().is_ok(),
            "build leaves checks to validate"
        );
        assert!(bad.run_config().unwrap_err().contains("scheduler width"));
        // An empty fault window is a scenario rule like any other.
        bad = s;
        bad.faults[1] = bad.faults[1].window(10, 5);
        assert!(bad.run_config().unwrap_err().contains("[10, 5) is empty"));
    }

    #[test]
    fn defaulted_keys_round_trip_minimal_scenarios() {
        let text = r#"{
            "name": "minimal",
            "graph": {"family": "path", "vertices": 8},
            "algo": {"kind": "cc"},
            "config": {"pes": 32, "mapping": "row", "aggregation_registers": 16,
                       "max_scheduled_vertices": 16, "inter_phase_pipelining": true,
                       "memory": {"preset": "u280"}},
            "modes": {},
            "expect": {"verdict": "converge"}
        }"#;
        let s = Scenario::from_json_str(text).unwrap();
        assert_eq!(s.graph.family.vertices(), 8);
        assert!(s.faults.is_empty());
        assert!(s.fault_plan().is_none());
        assert!(s.modes.fast_forward && !s.modes.recording);
        assert_eq!(s.strict_frontier, None);
        assert!(!s.synthetic_bug);
        let round = Scenario::from_json_str(&s.to_json_string()).unwrap();
        assert_eq!(round, s);
    }

    #[test]
    fn mode_matrix_emptiness() {
        assert!(!ModeMatrix::full().is_empty());
        assert!(!ModeMatrix::sim_only().is_empty());
        let empty = ModeMatrix {
            fast_forward: false,
            recording: false,
            graphdyns: false,
            gunrock: false,
        };
        assert!(empty.is_empty());
        let recording_only = ModeMatrix {
            recording: true,
            ..empty
        };
        assert!(!recording_only.is_empty());
    }

    #[test]
    fn validate_accepts_sound_scenarios_and_names_the_defect() {
        let mut ok = sample();
        ok.config.watchdog_stall_cycles = 25_000;
        ok.algo = AlgoSpec::Bfs { root: 63 };
        ok.validate().expect("sound scenario validates");

        let mut bad_root = ok.clone();
        bad_root.algo = AlgoSpec::Bfs { root: 64 };
        assert!(bad_root.validate().unwrap_err().contains("out of range"));

        let mut bad_pr = ok.clone();
        bad_pr.algo = AlgoSpec::PageRank { iters: 0 };
        assert!(bad_pr.validate().unwrap_err().contains("iteration"));

        let mut bad_pes = ok.clone();
        bad_pes.config.pes = 48;
        assert!(bad_pes.validate().unwrap_err().contains("multiple of 32"));

        let mut tiny = ok.clone();
        tiny.graph.family = Family::Path { vertices: 1 };
        assert!(tiny.validate().unwrap_err().contains("at least 2"));

        let mut empty_window = ok.clone();
        empty_window.faults[1] = empty_window.faults[1].window(10, 5);
        assert!(empty_window.validate().unwrap_err().contains("is empty"));
    }

    #[test]
    fn unknown_keys_inside_every_member_are_refused_by_name() {
        let mut s = sample();
        s.mutations = Some(MutationSpec {
            batches: 1,
            insert_edges: 1,
            remove_edges: 0,
            add_vertices: 0,
            isolate_vertices: 0,
            seed: 1,
        });
        let text = s.to_json().compact();
        let cases = [
            ("\"weight_seed\":", "graph"),
            ("\"root\":", "algo"),
            ("\"watchdog_stall_cycles\":", "config"),
            ("\"latency_cycles\":", "memory"),
            ("\"tile\":", "fault"),
            ("\"gunrock\":", "modes"),
            ("\"suspect_contains\":", "expect"),
            ("\"isolate_vertices\":", "mutations"),
            ("\"fault_seed\":", "scenario"),
        ];
        for (member, what) in cases {
            assert!(text.contains(member), "{member}");
            let typo = text.replacen(member, &format!("\"typo\":0,{member}"), 1);
            let err = Scenario::from_json_str(&typo).unwrap_err();
            assert_eq!(err, format!("unknown {what} key `typo`"), "{typo}");
        }
        // A misspelt optional key no longer falls back to its default.
        let misspelt = text.replacen("watchdog_stall_cycles", "watchdog_stall_cycle", 1);
        assert!(Scenario::from_json_str(&misspelt)
            .unwrap_err()
            .contains("unknown config key `watchdog_stall_cycle`"));
        // A key of another variant is unknown to this one.
        let cc = text.replacen("\"kind\":\"sssp\"", "\"kind\":\"cc\"", 1);
        assert_eq!(
            Scenario::from_json_str(&cc).unwrap_err(),
            "unknown algo key `root`"
        );
        // The retired alias stays a known key.
        let alias = text.replacen("\"gunrock\":", "\"event_driven\":true,\"gunrock\":", 1);
        assert_eq!(Scenario::from_json_str(&alias).unwrap(), s);
    }

    #[test]
    fn a_graph_too_large_to_hold_is_an_error_not_an_abort() {
        let spec = GraphSpec {
            family: Family::Uniform {
                vertices: 64,
                edges: 1 << 58,
                seed: 1,
            },
            symmetrize: false,
            max_weight: 0,
            weight_seed: 0,
            source: GraphSource::Generate,
        };
        let err = spec.build().unwrap_err();
        assert!(err.contains("cannot hold"), "{err}");
    }

    #[test]
    fn validate_refuses_pe_queues_past_the_engine_bound_by_key() {
        let mut ok = sample();
        ok.config.watchdog_stall_cycles = 25_000;
        ok.algo = AlgoSpec::Cc;
        ok.validate().expect("sound scenario validates");
        let mut regs = ok.clone();
        regs.config.aggregation_registers = 1 << 40;
        let err = regs.validate().unwrap_err();
        assert!(
            err.contains("`aggregation_registers` 1099511627776"),
            "{err}"
        );
        let mut pes = ok.clone();
        pes.config.pes = 1 << 30;
        let err = pes.validate().unwrap_err();
        assert!(err.contains("`pes` 1073741824"), "{err}");
        // Figure 21's largest machine still validates.
        let mut fig21 = ok;
        fig21.config.pes = 4096;
        fig21.validate().expect("4,096 PEs validate");
    }

    #[test]
    fn validate_refuses_more_vertices_than_ids_without_wrapping() {
        let mut ok = sample();
        ok.config.watchdog_stall_cycles = 25_000;
        ok.algo = AlgoSpec::Cc;
        // (2^62 + 1) x 4 wraps a u64 to 4: it must not pass as 4 vertices.
        let mut wrapping = ok.clone();
        wrapping.graph.family = Family::Grid {
            rows: (1 << 62) + 1,
            cols: 4,
        };
        assert_eq!(wrapping.graph.family.vertices(), usize::MAX);
        assert_eq!(wrapping.graph.family.edges(), usize::MAX);
        assert!(wrapping.validate().unwrap_err().contains("vertex ids"));

        let ids = VertexId::MAX as usize;
        let mut one_too_many = ok.clone();
        one_too_many.graph.family = Family::Path { vertices: ids + 1 };
        assert!(one_too_many.validate().unwrap_err().contains("vertex ids"));
        let mut at_the_limit = ok;
        at_the_limit.graph.family = Family::Path { vertices: ids };
        at_the_limit.validate().expect("every vertex has an id");
    }

    #[test]
    fn validate_refuses_a_schedule_that_outgrows_vertex_ids() {
        let mut ok = sample();
        ok.config.watchdog_stall_cycles = 25_000;
        ok.algo = AlgoSpec::Cc;
        ok.expect = Expectation::Converge;
        // 64 base vertices; 3 batches of `adds` vertex adds each.
        let schedule = |adds: u32| MutationSpec {
            batches: 3,
            insert_edges: 0,
            remove_edges: 0,
            add_vertices: adds,
            isolate_vertices: 0,
            seed: 1,
        };
        let room = (VertexId::MAX - 64) / 3;
        let mut at_the_limit = ok.clone();
        at_the_limit.mutations = Some(schedule(room));
        at_the_limit
            .validate()
            .expect("every grown vertex has an id");
        let mut one_batch_too_many = ok.clone();
        one_batch_too_many.mutations = Some(schedule(room + 1));
        assert!(one_batch_too_many
            .validate()
            .unwrap_err()
            .contains("mutation schedule grows the graph"));
        // u32::MAX batches of u32::MAX adds must not wrap to a small count.
        let mut huge = ok;
        huge.mutations = Some(MutationSpec {
            batches: u32::MAX,
            ..schedule(u32::MAX)
        });
        assert!(huge.validate().unwrap_err().contains("vertex ids"));
    }

    #[test]
    fn fingerprint_ignores_name_but_nothing_else() {
        let a = sample();
        let mut renamed = a.clone();
        renamed.name = "a-different-label".into();
        assert_eq!(a.fingerprint(), renamed.fingerprint());

        let mut reseeded = a.clone();
        reseeded.fault_seed += 1;
        assert_ne!(a.fingerprint(), reseeded.fingerprint());

        let mut regraphed = a.clone();
        regraphed.graph.symmetrize = !regraphed.graph.symmetrize;
        assert_ne!(a.fingerprint(), regraphed.fingerprint());

        // Stable across serialization round trips.
        let back = Scenario::from_json_str(&a.to_json_string()).unwrap();
        assert_eq!(back.fingerprint(), a.fingerprint());
    }
}
