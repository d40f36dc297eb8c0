//! Batched graph mutations with incremental CSR maintenance.
//!
//! ScalaGraph's evaluation graphs are social networks — the workload the
//! paper sizes the accelerator for is *churning* (GraphDynS, the dynamic
//! baseline we diff against, is named for it). This module provides the
//! host-side substrate for that churn: a [`MutationBatch`] of edge/vertex
//! inserts and deletes applied against CSR storage *incrementally*. A batch
//! rebuilds only the adjacency lists it touched and copies every untouched
//! run wholesale, so its cost follows the churn, not the graph size.
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
use std::collections::BTreeMap;
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
/// carried, in no particular order. An edge inserted and removed by the same
/// batch appears in both lists.
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
        // Per-source overlay of touched adjacency lists, materialized lazily
        // from the canonical CSR. BTreeMap keeps diagnostics deterministic.
        let mut overlay: BTreeMap<u32, Vec<(VertexId, Weight)>> = BTreeMap::new();
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
        // half-applied batch.
        {
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
        }

        let canonical = &self.canonical;
        let list_of = |overlay: &mut BTreeMap<u32, Vec<(VertexId, Weight)>>, v: VertexId| {
            overlay.entry(v).or_insert_with(|| {
                if (v as usize) < old_n {
                    canonical
                        .edge_range(v)
                        .map(|i| (canonical.neighbor_at(i), canonical.weight_at(i)))
                        .collect()
                } else {
                    Vec::new()
                }
            });
        };

        for op in batch.ops() {
            match *op {
                Mutation::AddVertex => {
                    n += 1;
                    delta.stats.vertices_added += 1;
                }
                Mutation::InsertEdge(e) => {
                    list_of(&mut overlay, e.src);
                    if let Some(list) = overlay.get_mut(&e.src) {
                        list.push((e.dst, e.weight));
                    }
                    if e.weight != 0 {
                        nz_delta += 1;
                    }
                    delta.inserted.push(e);
                    delta.stats.edges_inserted += 1;
                }
                Mutation::RemoveEdge { src, dst } => {
                    list_of(&mut overlay, src);
                    if let Some(list) = overlay.get_mut(&src) {
                        list.retain(|&(d, w)| {
                            if d == dst {
                                if w != 0 {
                                    nz_delta -= 1;
                                }
                                delta.removed.push(Edge::weighted(src, dst, w));
                                delta.stats.edges_removed += 1;
                                false
                            } else {
                                true
                            }
                        });
                    }
                }
                Mutation::IsolateVertex(v) => {
                    // Out-edges of v.
                    list_of(&mut overlay, v);
                    if let Some(list) = overlay.get_mut(&v) {
                        for &(d, w) in list.iter() {
                            if w != 0 {
                                nz_delta -= 1;
                            }
                            delta.removed.push(Edge::weighted(v, d, w));
                            delta.stats.edges_removed += 1;
                        }
                        list.clear();
                    }
                    // In-edges u -> v; scans the whole (overlaid) graph,
                    // which is why isolation costs O(V + E) while pure edge
                    // batches cost only their touched vertices.
                    let in_sources: Vec<u32> = (0..n as u32)
                        .filter(|&u| match overlay.get(&u) {
                            Some(list) => list.iter().any(|&(d, _)| d == v),
                            None => (u as usize) < old_n && canonical.neighbors(u).contains(&v),
                        })
                        .collect();
                    for u in in_sources {
                        list_of(&mut overlay, u);
                        if let Some(list) = overlay.get_mut(&u) {
                            list.retain(|&(d, w)| {
                                if d == v {
                                    if w != 0 {
                                        nz_delta -= 1;
                                    }
                                    delta.removed.push(Edge::weighted(u, v, w));
                                    delta.stats.edges_removed += 1;
                                    false
                                } else {
                                    true
                                }
                            });
                        }
                    }
                    delta.stats.vertices_isolated += 1;
                }
            }
        }

        delta.stats.touched_vertices = overlay.keys().filter(|&&v| (v as usize) < old_n).count();
        self.nonzero_weights = self
            .nonzero_weights
            .checked_add_signed(nz_delta)
            .unwrap_or(0);
        let weighted = self.nonzero_weights > 0;

        // Splice: runs of untouched vertices copy their old flat slices
        // wholesale (one memcpy per run, so the cost is driven by the
        // touched set, not by per-edge pushes); touched vertices take their
        // overlay list.
        let old_edges = self.canonical.num_edges();
        let grown = old_edges + delta.stats.edges_inserted;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut c_nbr: Vec<VertexId> = Vec::with_capacity(grown);
        let mut c_w: Vec<Weight> = Vec::with_capacity(if weighted { grown } else { 0 });
        {
            let old_off = self.canonical.offsets();
            let c_old = self.canonical.neighbor_array();
            let c_old_w = self.canonical.weight_array();
            let mut touched = overlay.iter().peekable();
            let mut v: u32 = 0;
            while (v as usize) < n {
                match touched.peek() {
                    Some(&(&tv, list)) if tv == v => {
                        delta.stats.relayout_edges += list.len();
                        for &(d, w) in list {
                            c_nbr.push(d);
                            if weighted {
                                c_w.push(w);
                            }
                        }
                        offsets.push(c_nbr.len() as u64);
                        touched.next();
                        v += 1;
                    }
                    peeked => {
                        // Untouched run [v, run_end): old vertices copy
                        // wholesale, appended ones are empty.
                        let run_end = peeked.map_or(n as u32, |&(&tv, _)| tv);
                        let old_end = run_end.min(old_n as u32);
                        if v < old_end {
                            let (lo, hi) = (
                                old_off[v as usize] as usize,
                                old_off[old_end as usize] as usize,
                            );
                            // Deletes can shift later slices backwards.
                            let shift = c_nbr.len() as i64 - lo as i64;
                            c_nbr.extend_from_slice(&c_old[lo..hi]);
                            if weighted {
                                // A previously unweighted graph stores
                                // implicit zeros.
                                match c_old_w {
                                    Some(w) => c_w.extend_from_slice(&w[lo..hi]),
                                    None => c_w.resize(c_w.len() + (hi - lo), 0),
                                }
                            }
                            for u in v..old_end {
                                offsets.push((old_off[u as usize + 1] as i64 + shift) as u64);
                            }
                        }
                        for _ in old_end.max(v)..run_end {
                            offsets.push(c_nbr.len() as u64);
                        }
                        v = run_end;
                    }
                }
            }
        }

        self.canonical = Csr::from_raw_parts(offsets, c_nbr, weighted.then_some(c_w))?;
        self.laidout = OnceLock::new();

        // Degree classes: recompute touched + appended, count class flips.
        self.classes.resize(n, 0);
        for (&v, list) in &overlay {
            let class = degree_class(list.len());
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
