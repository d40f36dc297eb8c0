//! Batched graph mutations with incremental CSR maintenance.
//!
//! ScalaGraph's evaluation graphs are social networks — the workload the
//! paper sizes the accelerator for is *churning* (GraphDynS, the dynamic
//! baseline we diff against, is named for it). This module provides the
//! host-side substrate for that churn: a [`MutationBatch`] of edge/vertex
//! inserts and deletes applied against CSR storage *incrementally*. A batch
//! copies each adjacency list it touches once, on first touch, by slice
//! (neighbors, and weights only when the batch can see one), and finds it
//! again through a dense per-vertex index, so an edge op costs O(1) beyond
//! its own list (an isolation still scans the graph for in-edges). The
//! splice then writes the touched lists in vertex order and copies every
//! untouched run and its offsets wholesale, so its edge traffic follows the
//! churn, not the graph size.
//!
//! [`DynamicCsr`] materializes one CSR, the **canonical** one: per-vertex
//! adjacency in insertion order (surviving original edges first, in their
//! original order, then the batch's inserts in op order), which is what
//! the engines consume. The Section IV-C degree-aware **laid-out** view is
//! derived from it on demand by [`DynamicCsr::laidout`] and dropped by the
//! next batch. The simulator never reads it: `DeviceGraph::prepare` lays
//! out each tile's partition itself.
//!
//! Degree classes (`⌈log2(degree + 1)⌉`, the bucket the degree-aware
//! scheduler sorts by) are maintained alongside. [`MutationStats`] reports
//! how many touched vertices actually changed class, the re-bucketing work
//! a hardware implementation would enqueue, and how many edges its
//! re-layout would re-shuffle.

use crate::{Csr, Edge, GraphError, VertexId, Weight, EDGES_PER_LINE};
use std::sync::OnceLock;

/// One mutation operation. Operations inside a batch apply sequentially, so
/// a `RemoveEdge` sees the effect of every earlier op in the same batch
/// (delete-then-reinsert leaves one copy; insert-then-delete leaves none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Insert one directed (optionally weighted) edge. Parallel copies are
    /// allowed, matching [`Csr::from_edges`].
    InsertEdge(Edge),
    /// Remove **all** copies of the directed edge `src -> dst` present at
    /// this point of the batch. Removing a non-existent edge is a no-op.
    RemoveEdge {
        /// Source endpoint.
        src: VertexId,
        /// Destination endpoint.
        dst: VertexId,
    },
    /// Append one new isolated vertex (its id is the current vertex count).
    AddVertex,
    /// Remove every in- and out-edge of a vertex, keeping its id live (CSR
    /// ids are dense, so "vertex deletion" is isolation).
    IsolateVertex(
        /// The vertex to isolate.
        VertexId,
    ),
}

/// An ordered batch of [`Mutation`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationBatch {
    ops: Vec<Mutation>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        MutationBatch { ops: Vec::new() }
    }

    /// Appends an edge insertion.
    pub fn insert_edge(&mut self, edge: Edge) -> &mut Self {
        self.ops.push(Mutation::InsertEdge(edge));
        self
    }

    /// Appends a remove-all-copies edge deletion.
    pub fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.ops.push(Mutation::RemoveEdge { src, dst });
        self
    }

    /// Appends a vertex addition.
    pub fn add_vertex(&mut self) -> &mut Self {
        self.ops.push(Mutation::AddVertex);
        self
    }

    /// Appends a vertex isolation.
    pub fn isolate_vertex(&mut self, v: VertexId) -> &mut Self {
        self.ops.push(Mutation::IsolateVertex(v));
        self
    }

    /// The operations, in application order.
    pub fn ops(&self) -> &[Mutation] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Work accounting for one applied batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Pre-existing vertices whose adjacency list changed.
    pub touched_vertices: usize,
    /// Touched vertices whose degree class changed (the vertices the
    /// degree-aware scheduler must re-bucket).
    pub rebucketed_vertices: usize,
    /// Edge copies inserted.
    pub edges_inserted: usize,
    /// Edge copies removed.
    pub edges_removed: usize,
    /// Vertices appended.
    pub vertices_added: usize,
    /// Vertices isolated.
    pub vertices_isolated: usize,
    /// Edges of the vertices the batch touched, appended ones included:
    /// what a hardware re-layout would push through the K-FIFO re-shuffle,
    /// since an untouched vertex keeps its laid-out slice.
    pub relayout_edges: usize,
}

/// What a batch did, in terms the incremental algorithms consume.
///
/// `inserted`/`removed` list concrete edge *copies* with the weight each
/// carried, in op order (an isolation records its vertex's out-edges, then
/// its in-edges by ascending source). An edge inserted and removed by the
/// same batch appears in both lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationDelta {
    /// Edge copies added by the batch.
    pub inserted: Vec<Edge>,
    /// Edge copies removed by the batch.
    pub removed: Vec<Edge>,
    /// Vertex count before the batch.
    pub old_num_vertices: usize,
    /// Work accounting.
    pub stats: MutationStats,
}

/// Degree class of an out-degree: 0 for isolated vertices, otherwise the
/// bit length of the degree (`class(1) = 1`, `class(2..=3) = 2`, ...). The
/// degree-aware scheduler's buckets are powers of two, so a mutation only
/// forces re-bucketing when this value changes.
pub fn degree_class(degree: usize) -> u8 {
    if degree == 0 {
        0
    } else {
        (usize::BITS - degree.leading_zeros()) as u8
    }
}

/// A CSR graph that accepts [`MutationBatch`]es, maintaining the canonical
/// adjacency incrementally and deriving its degree-aware laid-out view when
/// it is read.
///
/// # Example
///
/// ```
/// use scalagraph_graph::mutate::{DynamicCsr, MutationBatch};
/// use scalagraph_graph::{Csr, Edge};
///
/// let base = Csr::from_edges(4, &[Edge::new(0, 1), Edge::new(1, 2)]);
/// let mut g = DynamicCsr::new(base);
/// let mut batch = MutationBatch::new();
/// batch.insert_edge(Edge::new(2, 3)).remove_edge(0, 1);
/// let delta = g.apply(&batch).unwrap();
/// assert_eq!(delta.stats.edges_inserted, 1);
/// assert_eq!(g.canonical().neighbors(2), &[3]);
/// assert_eq!(g.canonical().out_degree(0), 0);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicCsr {
    canonical: Csr,
    /// The laid-out view of `canonical`, filled by the first
    /// [`laidout`](Self::laidout) read since the last batch.
    laidout: OnceLock<Csr>,
    lanes: usize,
    classes: Vec<u8>,
    nonzero_weights: usize,
}

impl DynamicCsr {
    /// Wraps a canonical CSR, with the laid-out view at the paper's 16-lane
    /// (64-byte line) width.
    pub fn new(canonical: Csr) -> Self {
        Self::with_lanes(canonical, EDGES_PER_LINE)
    }

    /// Wraps a canonical CSR with an explicit lane count. The lane map is
    /// `dst % lanes` throughout (the modulo hash the re-layout tests use).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn with_lanes(canonical: Csr, lanes: usize) -> Self {
        assert!(lanes > 0, "lane count must be positive");
        let classes = canonical
            .vertices()
            .map(|v| degree_class(canonical.out_degree(v)))
            .collect();
        let nonzero_weights = (0..canonical.num_edges())
            .filter(|&i| canonical.weight_at(i) != 0)
            .count();
        DynamicCsr {
            canonical,
            laidout: OnceLock::new(),
            lanes,
            classes,
            nonzero_weights,
        }
    }

    /// The canonical (insertion-ordered) CSR the engines consume.
    pub fn canonical(&self) -> &Csr {
        &self.canonical
    }

    /// Unwraps the canonical CSR.
    pub fn into_canonical(self) -> Csr {
        self.canonical
    }

    /// The degree-aware laid-out view (Section IV-C ordering). The first
    /// read since construction or the last batch lays out the whole
    /// canonical CSR; later reads return that copy.
    pub fn laidout(&self) -> &Csr {
        self.laidout
            .get_or_init(|| lay_out(&self.canonical, self.lanes))
    }

    /// Lane count of the laid-out view.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Current vertex count.
    pub fn num_vertices(&self) -> usize {
        self.canonical.num_vertices()
    }

    /// Current edge count.
    pub fn num_edges(&self) -> usize {
        self.canonical.num_edges()
    }

    /// Degree class of vertex `v` (maintained incrementally).
    pub fn degree_class_of(&self, v: VertexId) -> u8 {
        self.classes[v as usize]
    }

    /// Applies one batch incrementally. Returns the delta (concrete edge
    /// copies inserted/removed plus work accounting).
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] when an op references a vertex id
    /// that does not exist at that point of the batch. The graph is left
    /// unchanged on error.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<MutationDelta, GraphError> {
        let old_n = self.canonical.num_vertices();
        let mut n = old_n;
        let mut delta = MutationDelta {
            old_num_vertices: old_n,
            ..MutationDelta::default()
        };
        let mut nz_delta = 0isize;

        let check = |v: VertexId, n: usize| {
            if (v as usize) < n {
                Ok(())
            } else {
                Err(GraphError::VertexOutOfRange {
                    vertex: u64::from(v),
                    num_vertices: n as u64,
                })
            }
        };
        // Validate up front so the builder below cannot observe a
        // half-applied batch. The probe ends at the batch's final vertex
        // count, which sizes the overlay's index.
        let mut probe = old_n;
        for op in batch.ops() {
            match *op {
                Mutation::AddVertex => probe += 1,
                Mutation::InsertEdge(e) => {
                    check(e.src, probe)?;
                    check(e.dst, probe)?;
                }
                Mutation::RemoveEdge { src, dst } => {
                    check(src, probe)?;
                    check(dst, probe)?;
                }
                Mutation::IsolateVertex(v) => check(v, probe)?,
            }
        }

        let canonical = &self.canonical;
        // Lists carry weights only when the batch can see one: the graph
        // stores them, or an insert brings one. Otherwise every weight is
        // zero, and removals record that.
        let carries_weights = canonical.is_weighted()
            || batch
                .ops()
                .iter()
                .any(|op| matches!(op, Mutation::InsertEdge(e) if e.weight != 0));
        let mut overlay = Overlay::new(probe, carries_weights);

        for op in batch.ops() {
            match *op {
                Mutation::AddVertex => {
                    n += 1;
                    delta.stats.vertices_added += 1;
                }
                Mutation::InsertEdge(e) => {
                    let list = overlay.list(canonical, e.src);
                    list.dsts.push(e.dst);
                    if carries_weights {
                        list.weights.push(e.weight);
                    }
                    if e.weight != 0 {
                        nz_delta += 1;
                    }
                    delta.inserted.push(e);
                    delta.stats.edges_inserted += 1;
                }
                Mutation::RemoveEdge { src, dst } => {
                    let list = overlay.list(canonical, src);
                    list.remove(src, |d| d == dst, &mut delta, &mut nz_delta);
                }
                Mutation::IsolateVertex(v) => {
                    // Out-edges of v.
                    let list = overlay.list(canonical, v);
                    list.remove(v, |_| true, &mut delta, &mut nz_delta);
                    // In-edges u -> v; scans the whole (overlaid) graph,
                    // which is why isolation costs O(V + E) while pure edge
                    // batches cost only their touched vertices.
                    for u in 0..n as u32 {
                        let has_edge = match overlay.get(u) {
                            Some(list) => list.dsts.contains(&v),
                            None => (u as usize) < old_n && canonical.neighbors(u).contains(&v),
                        };
                        if has_edge {
                            let list = overlay.list(canonical, u);
                            list.remove(u, |d| d == v, &mut delta, &mut nz_delta);
                        }
                    }
                    delta.stats.vertices_isolated += 1;
                }
            }
        }

        let mut touched = std::mem::take(&mut overlay.touched);
        touched.sort_unstable();
        delta.stats.touched_vertices = touched.partition_point(|&v| (v as usize) < old_n);
        self.nonzero_weights = self
            .nonzero_weights
            .checked_add_signed(nz_delta)
            .unwrap_or(0);
        let weighted = self.nonzero_weights > 0;

        // Splice: runs of untouched vertices copy their old slices and
        // offsets wholesale, so the cost is driven by the touched set, not
        // by per-edge pushes; touched vertices copy their overlay slices.
        let grown = self.canonical.num_edges() + delta.stats.edges_inserted;
        let mut out = Splice::new(n, grown, weighted);
        let mut v = 0;
        for &tv in &touched {
            out.copy_run(&self.canonical, v, tv as usize);
            let list = overlay.touched_list(tv);
            delta.stats.relayout_edges += list.dsts.len();
            out.push_list(list);
            v = tv as usize + 1;
        }
        out.copy_run(&self.canonical, v, n);

        self.canonical = Csr::from_raw_parts(out.offsets, out.dsts, out.weights)?;
        self.laidout = OnceLock::new();

        // Degree classes: recompute touched + appended, count class flips.
        self.classes.resize(n, 0);
        for &v in &touched {
            let class = degree_class(overlay.touched_list(v).dsts.len());
            if (v as usize) < old_n && self.classes[v as usize] != class {
                delta.stats.rebucketed_vertices += 1;
            }
            self.classes[v as usize] = class;
        }
        Ok(delta)
    }

    /// From-scratch rebuild of the canonical CSR from its own edge set: the
    /// golden reference the incremental splice is tested against.
    pub fn rebuild_canonical(&self) -> Csr {
        let edges: Vec<Edge> = self.canonical.edges().collect();
        Csr::from_edges(self.canonical.num_vertices(), &edges)
    }

    /// [`rebuild_canonical`](Self::rebuild_canonical) and that CSR laid
    /// out: `(canonical, laidout)`.
    pub fn rebuild_reference(&self) -> (Csr, Csr) {
        let canonical = self.rebuild_canonical();
        let laidout = lay_out(&canonical, self.lanes);
        (canonical, laidout)
    }
}

/// `canonical` after the Section IV-C K-FIFO re-layout with the
/// `dst % lanes` lane map.
fn lay_out(canonical: &Csr, lanes: usize) -> Csr {
    let mut laidout = canonical.clone();
    crate::relayout::degree_aware_relayout(&mut laidout, lanes, |d| (d as usize) % lanes);
    laidout
}

/// The adjacency lists one batch touched, each copied from the canonical
/// CSR on its first touch (an appended vertex's starts empty), in
/// first-touch order. `slot[v]` indexes `v`'s list, so an op finds it in
/// O(1).
struct Overlay {
    slot: Vec<u32>,
    touched: Vec<VertexId>,
    lists: Vec<List>,
    carries_weights: bool,
}

/// One touched adjacency list: its destinations and, when the overlay
/// carries weights, their weights in parallel (empty otherwise).
struct List {
    dsts: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl Overlay {
    /// `slot` of a vertex the batch has not touched. A batch cannot touch
    /// `u32::MAX` lists: that many would hold 96 GiB of empty `Vec`s.
    const UNTOUCHED: u32 = u32::MAX;

    /// An overlay over a batch whose final vertex count is `num_vertices`.
    fn new(num_vertices: usize, carries_weights: bool) -> Self {
        Overlay {
            slot: vec![Self::UNTOUCHED; num_vertices],
            touched: Vec::new(),
            lists: Vec::new(),
            carries_weights,
        }
    }

    /// `v`'s list, if the batch touched `v`.
    fn get(&self, v: VertexId) -> Option<&List> {
        match self.slot[v as usize] {
            Self::UNTOUCHED => None,
            i => Some(&self.lists[i as usize]),
        }
    }

    /// The list of `v`, which the batch touched.
    fn touched_list(&self, v: VertexId) -> &List {
        &self.lists[self.slot[v as usize] as usize]
    }

    /// `v`'s list, copied from `canonical` by slice on the first touch.
    fn list(&mut self, canonical: &Csr, v: VertexId) -> &mut List {
        let mut i = self.slot[v as usize];
        if i == Self::UNTOUCHED {
            i = self.lists.len() as u32;
            self.slot[v as usize] = i;
            self.touched.push(v);
            let range = if (v as usize) < canonical.num_vertices() {
                canonical.edge_range(v)
            } else {
                0..0
            };
            let weights = match (self.carries_weights, canonical.weight_array()) {
                (false, _) => Vec::new(),
                (true, Some(w)) => w[range.clone()].to_vec(),
                (true, None) => vec![0; range.len()],
            };
            let dsts = canonical.neighbor_array()[range].to_vec();
            self.lists.push(List { dsts, weights });
        }
        &mut self.lists[i as usize]
    }
}

impl List {
    /// Removes the edges whose destination `hit` selects from `src`'s
    /// list, recording each copy in `delta` in list order and each nonzero
    /// weight in `nz_delta`.
    fn remove(
        &mut self,
        src: VertexId,
        hit: impl Fn(VertexId) -> bool,
        delta: &mut MutationDelta,
        nz_delta: &mut isize,
    ) {
        let Some(first) = self.dsts.iter().position(|&d| hit(d)) else {
            return;
        };
        // A nonempty list carries weights iff its weights are nonempty.
        let weighted = !self.weights.is_empty();
        let mut kept = first;
        for i in first..self.dsts.len() {
            let d = self.dsts[i];
            let w = if weighted { self.weights[i] } else { 0 };
            if hit(d) {
                if w != 0 {
                    *nz_delta -= 1;
                }
                delta.removed.push(Edge::weighted(src, d, w));
                delta.stats.edges_removed += 1;
            } else {
                self.dsts[kept] = d;
                if weighted {
                    self.weights[kept] = w;
                }
                kept += 1;
            }
        }
        self.dsts.truncate(kept);
        self.weights.truncate(kept);
    }
}

/// The arrays of the CSR a batch's splice writes.
struct Splice {
    offsets: Vec<u64>,
    dsts: Vec<VertexId>,
    /// `None` when the result is unweighted.
    weights: Option<Vec<Weight>>,
}

impl Splice {
    /// Empty arrays with room for `vertices` and `edges`.
    fn new(vertices: usize, edges: usize, weighted: bool) -> Self {
        let mut offsets = Vec::with_capacity(vertices + 1);
        offsets.push(0);
        Splice {
            offsets,
            dsts: Vec::with_capacity(edges),
            weights: weighted.then(|| Vec::with_capacity(edges)),
        }
    }

    /// Appends the untouched vertices `[v, end)`: those `old` holds copy
    /// their slices and offsets wholesale, appended ones get no edges.
    fn copy_run(&mut self, old: &Csr, v: usize, end: usize) {
        let old_end = end.min(old.num_vertices());
        if v < old_end {
            let old_off = old.offsets();
            let (lo, hi) = (old_off[v] as usize, old_off[old_end] as usize);
            // Deletes can shift later slices backwards.
            let shift = (self.dsts.len() as u64).wrapping_sub(lo as u64);
            self.dsts.extend_from_slice(&old.neighbor_array()[lo..hi]);
            if let Some(weights) = &mut self.weights {
                // A previously unweighted graph stores implicit zeros.
                match old.weight_array() {
                    Some(w) => weights.extend_from_slice(&w[lo..hi]),
                    None => weights.resize(weights.len() + (hi - lo), 0),
                }
            }
            let run = &old_off[v + 1..=old_end];
            self.offsets
                .extend(run.iter().map(|&o| o.wrapping_add(shift)));
        }
        let appended = end - old_end.max(v);
        let at = self.dsts.len() as u64;
        self.offsets.resize(self.offsets.len() + appended, at);
    }

    /// Appends one touched vertex's list. A weighted result implies the
    /// overlay carried weights.
    fn push_list(&mut self, list: &List) {
        self.dsts.extend_from_slice(&list.dsts);
        if let Some(weights) = &mut self.weights {
            weights.extend_from_slice(&list.weights);
        }
        self.offsets.push(self.dsts.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Csr};

    fn assert_matches_rebuild(g: &DynamicCsr) {
        let canonical = g.rebuild_canonical();
        assert_eq!(&canonical, g.canonical(), "canonical diverged");
        for v in canonical.vertices() {
            assert_eq!(
                g.degree_class_of(v),
                degree_class(canonical.out_degree(v)),
                "degree class diverged for vertex {v}"
            );
        }
    }

    #[test]
    fn degree_classes_bucket_by_bit_length() {
        assert_eq!(degree_class(0), 0);
        assert_eq!(degree_class(1), 1);
        assert_eq!(degree_class(2), 2);
        assert_eq!(degree_class(3), 2);
        assert_eq!(degree_class(4), 3);
        assert_eq!(degree_class(15), 4);
        assert_eq!(degree_class(16), 5);
    }

    #[test]
    fn empty_batch_is_identity() {
        let base = Csr::from_edges(64, &generators::uniform(64, 400, 3));
        let mut g = DynamicCsr::new(base.clone());
        let before = g.canonical().clone();
        let delta = g.apply(&MutationBatch::new()).unwrap();
        assert_eq!(g.canonical(), &before);
        assert_eq!(delta.stats, MutationStats::default());
        assert_matches_rebuild(&g);
    }

    #[test]
    fn insert_appends_in_op_order_and_keeps_untouched_slices() {
        let base = Csr::from_edges(5, &[Edge::new(0, 1), Edge::new(0, 2), Edge::new(3, 4)]);
        let mut g = DynamicCsr::new(base);
        let mut b = MutationBatch::new();
        b.insert_edge(Edge::new(0, 4)).insert_edge(Edge::new(0, 3));
        let delta = g.apply(&b).unwrap();
        assert_eq!(g.canonical().neighbors(0), &[1, 2, 4, 3]);
        assert_eq!(g.canonical().neighbors(3), &[4]);
        assert_eq!(delta.stats.touched_vertices, 1);
        assert_eq!(delta.stats.relayout_edges, 4);
        assert_matches_rebuild(&g);
    }

    #[test]
    fn remove_drops_all_copies_and_records_weights() {
        let base = Csr::from_edges(
            3,
            &[
                Edge::weighted(0, 1, 7),
                Edge::weighted(0, 2, 3),
                Edge::weighted(0, 1, 9),
            ],
        );
        let mut g = DynamicCsr::new(base);
        let mut b = MutationBatch::new();
        b.remove_edge(0, 1);
        let delta = g.apply(&b).unwrap();
        assert_eq!(g.canonical().neighbors(0), &[2]);
        assert_eq!(
            delta.removed,
            vec![Edge::weighted(0, 1, 7), Edge::weighted(0, 1, 9)]
        );
        assert_matches_rebuild(&g);
    }

    #[test]
    fn delete_then_reinsert_leaves_one_copy_at_the_tail() {
        let base = Csr::from_edges(3, &[Edge::weighted(0, 1, 5), Edge::weighted(0, 2, 6)]);
        let mut g = DynamicCsr::new(base);
        let mut b = MutationBatch::new();
        b.remove_edge(0, 1).insert_edge(Edge::weighted(0, 1, 8));
        let delta = g.apply(&b).unwrap();
        assert_eq!(g.canonical().neighbors(0), &[2, 1]);
        assert_eq!(g.canonical().edge_weights(0).unwrap(), &[6, 8]);
        assert_eq!(delta.removed, vec![Edge::weighted(0, 1, 5)]);
        assert_eq!(delta.inserted, vec![Edge::weighted(0, 1, 8)]);
        assert_matches_rebuild(&g);
    }

    #[test]
    fn insert_then_delete_within_one_batch_cancels() {
        let base = Csr::from_edges(3, &[Edge::new(0, 1)]);
        let mut g = DynamicCsr::new(base.clone());
        let mut b = MutationBatch::new();
        b.insert_edge(Edge::new(1, 2)).remove_edge(1, 2);
        let delta = g.apply(&b).unwrap();
        assert_eq!(g.canonical(), &base);
        assert_eq!(delta.inserted.len(), 1);
        assert_eq!(delta.removed.len(), 1);
        assert_matches_rebuild(&g);
    }

    #[test]
    fn add_vertex_then_wire_it() {
        let base = Csr::from_edges(2, &[Edge::new(0, 1)]);
        let mut g = DynamicCsr::new(base);
        let mut b = MutationBatch::new();
        b.add_vertex()
            .insert_edge(Edge::new(2, 0))
            .insert_edge(Edge::new(1, 2));
        let delta = g.apply(&b).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.canonical().neighbors(2), &[0]);
        assert_eq!(g.canonical().neighbors(1), &[2]);
        assert_eq!(delta.stats.vertices_added, 1);
        assert_matches_rebuild(&g);
    }

    #[test]
    fn isolate_removes_in_and_out_edges() {
        let base = Csr::from_edges(
            4,
            &[
                Edge::new(0, 1),
                Edge::new(2, 1),
                Edge::new(1, 3),
                Edge::new(0, 3),
            ],
        );
        let mut g = DynamicCsr::new(base);
        let mut b = MutationBatch::new();
        b.isolate_vertex(1);
        let delta = g.apply(&b).unwrap();
        assert_eq!(g.canonical().out_degree(1), 0);
        assert_eq!(g.canonical().neighbors(0), &[3]);
        assert_eq!(g.canonical().out_degree(2), 0);
        assert_eq!(delta.stats.vertices_isolated, 1);
        assert_eq!(delta.stats.edges_removed, 3);
        assert_matches_rebuild(&g);
    }

    #[test]
    fn one_batch_appends_wires_unwires_and_isolates() {
        let base = Csr::from_edges(
            5,
            &[
                Edge::weighted(0, 1, 2),
                Edge::weighted(1, 2, 3),
                Edge::weighted(2, 0, 4),
                Edge::weighted(3, 1, 5),
                Edge::weighted(1, 3, 6),
                Edge::weighted(4, 1, 7),
            ],
        );
        let mut g = DynamicCsr::new(base);
        let mut b = MutationBatch::new();
        b.add_vertex()
            .add_vertex()
            .insert_edge(Edge::weighted(5, 1, 8))
            .insert_edge(Edge::weighted(0, 5, 9))
            .insert_edge(Edge::weighted(6, 5, 1))
            .insert_edge(Edge::weighted(5, 6, 2))
            .insert_edge(Edge::weighted(3, 6, 3))
            .remove_edge(0, 5)
            .isolate_vertex(6)
            .isolate_vertex(1)
            .insert_edge(Edge::weighted(1, 6, 4));
        let delta = g.apply(&b).unwrap();
        assert_matches_rebuild(&g);
        assert_eq!(g.canonical().neighbors(1), &[6]);
        assert_eq!(g.canonical().neighbors(2), &[0]);
        assert_eq!(g.canonical().out_degree(5) + g.canonical().out_degree(6), 0);
        // Both lists in op order: each isolation removes the out-edges
        // first, then the in-edges by ascending source.
        let e = Edge::weighted;
        assert_eq!(
            delta.inserted,
            [
                e(5, 1, 8),
                e(0, 5, 9),
                e(6, 5, 1),
                e(5, 6, 2),
                e(3, 6, 3),
                e(1, 6, 4)
            ]
        );
        assert_eq!(
            delta.removed,
            [
                e(0, 5, 9),
                e(6, 5, 1),
                e(3, 6, 3),
                e(5, 6, 2),
                e(1, 2, 3),
                e(1, 3, 6),
                e(0, 1, 2),
                e(3, 1, 5),
                e(4, 1, 7),
                e(5, 1, 8),
            ]
        );
        assert_eq!(
            delta.stats,
            MutationStats {
                touched_vertices: 4,
                rebucketed_vertices: 4,
                edges_inserted: 6,
                edges_removed: 10,
                vertices_added: 2,
                vertices_isolated: 2,
                relayout_edges: 1,
            }
        );
    }

    #[test]
    fn out_of_range_op_leaves_graph_unchanged() {
        let base = Csr::from_edges(3, &[Edge::new(0, 1)]);
        let mut g = DynamicCsr::new(base.clone());
        let mut b = MutationBatch::new();
        b.insert_edge(Edge::new(0, 2)).insert_edge(Edge::new(0, 9));
        let err = g.apply(&b).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 9, .. }
        ));
        assert_eq!(g.canonical(), &base);
        assert_matches_rebuild(&g);
    }

    #[test]
    fn weighted_flag_flips_when_last_nonzero_weight_leaves() {
        let base = Csr::from_edges(3, &[Edge::weighted(0, 1, 4), Edge::new(1, 2)]);
        assert!(base.is_weighted());
        let mut g = DynamicCsr::new(base);
        let mut b = MutationBatch::new();
        b.remove_edge(0, 1);
        g.apply(&b).unwrap();
        assert!(
            !g.canonical().is_weighted(),
            "all weights zero -> unweighted"
        );
        assert_matches_rebuild(&g);
        // And back: inserting a weighted edge restores the array.
        let mut b = MutationBatch::new();
        b.insert_edge(Edge::weighted(2, 0, 9));
        g.apply(&b).unwrap();
        assert!(g.canonical().is_weighted());
        assert_matches_rebuild(&g);
    }

    #[test]
    fn incremental_relayout_matches_full_over_random_batches() {
        let mut rng = 0x12345u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let base = Csr::from_edges(40, &generators::power_law(40, 300, 0.7, 11));
        let mut g = DynamicCsr::new(base);
        for _round in 0..12 {
            let n = g.num_vertices() as u64;
            let mut b = MutationBatch::new();
            for _ in 0..(next() % 6) {
                b.insert_edge(Edge::weighted(
                    (next() % n) as u32,
                    (next() % n) as u32,
                    (next() % 3) as u32,
                ));
            }
            for _ in 0..(next() % 6) {
                b.remove_edge((next() % n) as u32, (next() % n) as u32);
            }
            if next() % 5 == 0 {
                b.add_vertex();
            }
            if next() % 7 == 0 {
                b.isolate_vertex((next() % n) as u32);
            }
            g.apply(&b).unwrap();
            assert_matches_rebuild(&g);
        }
    }

    #[test]
    fn the_view_is_laid_out_on_first_read_and_dropped_by_a_batch() {
        let mut g = DynamicCsr::new(Csr::from_edges(8, &generators::path(8)));
        assert!(g.laidout.get().is_none(), "new lays nothing out");
        g.laidout();
        assert!(g.laidout.get().is_some());
        let mut b = MutationBatch::new();
        b.insert_edge(Edge::new(0, 7));
        g.apply(&b).unwrap();
        assert!(g.laidout.get().is_none(), "a batch drops the view");
        assert_matches_rebuild(&g);
    }
}
