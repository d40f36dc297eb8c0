//! The four evaluation algorithms of Section V-A: BFS, SSSP, CC, PageRank.

use crate::model::{Algorithm, EdgeCtx};
#[cfg(test)]
use scalagraph_graph::Edge;
use scalagraph_graph::{Csr, VertexId};

/// Sentinel for "unreached" in BFS/SSSP/CC lattices.
pub const UNREACHED: u32 = u32::MAX;

/// Breadth-first search: property is the hop distance (level) from the
/// root; `Process` proposes `level + 1`, `Reduce`/`Apply` take the minimum.
/// Monotonic (levels only decrease), so inter-phase pipelining is safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bfs {
    root: VertexId,
}

impl Bfs {
    /// BFS rooted at `root`.
    pub fn from_root(root: VertexId) -> Self {
        Bfs { root }
    }

    /// The configured root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl Algorithm for Bfs {
    type Prop = u32;

    fn name(&self) -> &'static str {
        "BFS"
    }

    fn init(&self, v: VertexId, _graph: &Csr) -> u32 {
        if v == self.root {
            0
        } else {
            UNREACHED
        }
    }

    fn initial_frontier(&self, _graph: &Csr) -> Vec<VertexId> {
        vec![self.root]
    }

    fn reduce_identity(&self) -> u32 {
        UNREACHED
    }

    fn process(&self, _ctx: &EdgeCtx, src_prop: u32) -> u32 {
        src_prop.saturating_add(1)
    }

    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _v: VertexId, old: u32, temp: u32, _graph: &Csr) -> u32 {
        old.min(temp)
    }

    fn is_monotonic(&self) -> bool {
        true
    }
}

/// Single-source shortest paths (Bellman-Ford style): property is the
/// tentative distance; `Process` proposes `dist + weight`, `Reduce`/`Apply`
/// take the minimum. Monotonic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sssp {
    root: VertexId,
}

impl Sssp {
    /// SSSP rooted at `root`.
    pub fn from_root(root: VertexId) -> Self {
        Sssp { root }
    }

    /// The configured root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl Algorithm for Sssp {
    type Prop = u32;

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn init(&self, v: VertexId, _graph: &Csr) -> u32 {
        if v == self.root {
            0
        } else {
            UNREACHED
        }
    }

    fn initial_frontier(&self, _graph: &Csr) -> Vec<VertexId> {
        vec![self.root]
    }

    fn reduce_identity(&self) -> u32 {
        UNREACHED
    }

    fn process(&self, ctx: &EdgeCtx, src_prop: u32) -> u32 {
        src_prop.saturating_add(ctx.weight)
    }

    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _v: VertexId, old: u32, temp: u32, _graph: &Csr) -> u32 {
        old.min(temp)
    }

    fn is_monotonic(&self) -> bool {
        true
    }
}

/// Connected components by label propagation: property is the component
/// label (initialized to the vertex's own id); labels flow along edges and
/// the minimum wins. On a symmetrized (undirected) graph this converges to
/// the connected components; on a directed graph it computes the "min label
/// reachable along directed paths" fixpoint — use
/// [`scalagraph_graph::EdgeList::symmetrize`] for true CC. Monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectedComponents;

impl ConnectedComponents {
    /// Creates the CC algorithm.
    pub fn new() -> Self {
        ConnectedComponents
    }
}

impl Algorithm for ConnectedComponents {
    type Prop = u32;

    fn name(&self) -> &'static str {
        "CC"
    }

    fn init(&self, v: VertexId, _graph: &Csr) -> u32 {
        v
    }

    fn initial_frontier(&self, graph: &Csr) -> Vec<VertexId> {
        graph.vertices().collect()
    }

    fn reduce_identity(&self) -> u32 {
        UNREACHED
    }

    fn process(&self, _ctx: &EdgeCtx, src_prop: u32) -> u32 {
        src_prop
    }

    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _v: VertexId, old: u32, temp: u32, _graph: &Csr) -> u32 {
        old.min(temp)
    }

    fn is_monotonic(&self) -> bool {
        true
    }
}

/// PageRank with damping factor `d`: the property is the vertex's rank;
/// `Process` contributes `rank / out_degree`, `Reduce` sums, and `Apply`
/// computes `(1 - d) / N + d * sum`. Every vertex is active every iteration
/// for a fixed number of iterations. **Non-monotonic** — ranks move both
/// ways — so ScalaGraph disables inter-phase pipelining for it (Section
/// IV-D, "Limitation").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRank {
    damping: f32,
    iterations: usize,
}

impl PageRank {
    /// PageRank with the conventional damping factor 0.85.
    pub fn new(iterations: usize) -> Self {
        Self::with_damping(iterations, 0.85)
    }

    /// PageRank with an explicit damping factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= damping <= 1.0`.
    pub fn with_damping(iterations: usize, damping: f32) -> Self {
        assert!((0.0..=1.0).contains(&damping), "damping must be in [0, 1]");
        PageRank {
            damping,
            iterations,
        }
    }

    /// The damping factor.
    pub fn damping(&self) -> f32 {
        self.damping
    }
}

impl Algorithm for PageRank {
    type Prop = f32;

    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn init(&self, _v: VertexId, graph: &Csr) -> f32 {
        1.0 / graph.num_vertices().max(1) as f32
    }

    fn initial_frontier(&self, graph: &Csr) -> Vec<VertexId> {
        graph.vertices().collect()
    }

    fn reduce_identity(&self) -> f32 {
        0.0
    }

    fn process(&self, ctx: &EdgeCtx, src_prop: f32) -> f32 {
        src_prop / ctx.src_degree.max(1) as f32
    }

    fn reduce(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(&self, _v: VertexId, _old: f32, temp: f32, graph: &Csr) -> f32 {
        (1.0 - self.damping) / graph.num_vertices().max(1) as f32 + self.damping * temp
    }

    fn activates(&self, _old: f32, _new: f32) -> bool {
        // Fixed-schedule: every vertex stays active until max_iterations.
        true
    }

    fn is_monotonic(&self) -> bool {
        false
    }

    fn max_iterations(&self) -> Option<usize> {
        Some(self.iterations)
    }
}

/// Widest path (maximum bottleneck bandwidth) from a source: the property
/// is the largest minimum-edge-weight along any path from the root;
/// `Process` takes `min(path_width, edge_weight)`, `Reduce`/`Apply` take
/// the maximum. A *max*-lattice counterpart to SSSP's min-lattice —
/// monotonic, so inter-phase pipelining applies. Not part of the paper's
/// four workloads; included as an extension exercising the opposite
/// monotone direction through the aggregation pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidestPath {
    root: VertexId,
}

impl WidestPath {
    /// Widest paths from `root`.
    pub fn from_root(root: VertexId) -> Self {
        WidestPath { root }
    }

    /// The configured root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl Algorithm for WidestPath {
    type Prop = u32;

    fn name(&self) -> &'static str {
        "WidestPath"
    }

    fn init(&self, v: VertexId, _graph: &Csr) -> u32 {
        if v == self.root {
            u32::MAX // the root has unbounded ingress capacity
        } else {
            0
        }
    }

    fn initial_frontier(&self, _graph: &Csr) -> Vec<VertexId> {
        vec![self.root]
    }

    fn reduce_identity(&self) -> u32 {
        0
    }

    fn process(&self, ctx: &EdgeCtx, src_prop: u32) -> u32 {
        src_prop.min(ctx.weight)
    }

    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.max(b)
    }

    fn apply(&self, _v: VertexId, old: u32, temp: u32, _graph: &Csr) -> u32 {
        old.max(temp)
    }

    fn is_monotonic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalagraph_graph::generators;

    fn ctx(weight: u32, deg: u32) -> EdgeCtx {
        EdgeCtx {
            weight,
            src: 0,
            src_degree: deg,
        }
    }

    #[test]
    fn bfs_semantics() {
        let g = Csr::from_edges(3, &generators::path(3));
        let b = Bfs::from_root(1);
        assert_eq!(b.init(1, &g), 0);
        assert_eq!(b.init(0, &g), UNREACHED);
        assert_eq!(b.process(&ctx(0, 1), 2), 3);
        assert_eq!(b.process(&ctx(0, 1), UNREACHED), UNREACHED); // saturates
        assert_eq!(b.reduce(4, 2), 2);
        assert!(b.activates(UNREACHED, 3));
        assert!(!b.activates(3, 3));
        assert!(b.is_monotonic());
    }

    #[test]
    fn sssp_uses_weight() {
        let g = Csr::from_edges(2, &generators::path(2));
        let s = Sssp::from_root(0);
        assert_eq!(s.process(&ctx(10, 1), 5), 15);
        assert_eq!(s.apply(1, 20, 15, &g), 15);
        assert_eq!(s.apply(1, 10, 15, &g), 10);
    }

    #[test]
    fn cc_propagates_min_label() {
        let g = Csr::from_edges(4, &generators::path(4));
        let c = ConnectedComponents::new();
        assert_eq!(c.init(3, &g), 3);
        assert_eq!(c.initial_frontier(&g).len(), 4);
        assert_eq!(c.process(&ctx(0, 1), 2), 2);
        assert_eq!(c.reduce(3, 1), 1);
    }

    #[test]
    fn pagerank_contribution_and_apply() {
        let g = Csr::from_edges(4, &generators::star(4));
        let pr = PageRank::new(5);
        let r0 = pr.init(0, &g);
        assert!((r0 - 0.25).abs() < 1e-6);
        let contrib = pr.process(&ctx(0, 3), 0.3);
        assert!((contrib - 0.1).abs() < 1e-6);
        let applied = pr.apply(1, 0.0, 0.1, &g);
        assert!((applied - (0.15 / 4.0 + 0.85 * 0.1)).abs() < 1e-6);
        assert!(!pr.is_monotonic());
        assert_eq!(pr.max_iterations(), Some(5));
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn pagerank_rejects_bad_damping() {
        let _ = PageRank::with_damping(3, 1.5);
    }

    #[test]
    fn widest_path_prefers_fat_pipes() {
        // 0 -> 1 directly with width 2; 0 -> 2 -> 1 with widths 10 and 7:
        // best bottleneck into 1 is 7.
        let g = Csr::from_edges(
            3,
            &[
                Edge::weighted(0, 1, 2),
                Edge::weighted(0, 2, 10),
                Edge::weighted(2, 1, 7),
            ],
        );
        let run = crate::ReferenceEngine::new().run(&WidestPath::from_root(0), &g);
        assert_eq!(run.properties, vec![u32::MAX, 7, 10]);
    }

    #[test]
    fn widest_path_unreachable_is_zero() {
        let g = Csr::from_edges(3, &[Edge::weighted(0, 1, 5)]);
        let run = crate::ReferenceEngine::new().run(&WidestPath::from_root(0), &g);
        assert_eq!(run.properties[2], 0);
    }

    #[test]
    fn reduce_laws_hold_for_min_algorithms() {
        let b = Bfs::from_root(0);
        for (x, y, z) in [(1u32, 5, 9), (UNREACHED, 3, 3), (0, 0, UNREACHED)] {
            assert_eq!(b.reduce(x, y), b.reduce(y, x));
            assert_eq!(b.reduce(b.reduce(x, y), z), b.reduce(x, b.reduce(y, z)));
            assert_eq!(b.reduce(x, b.reduce_identity()), x);
        }
    }
}
