//! Compressed-sparse-row graph storage.
//!
//! CSR is the on-device format used by ScalaGraph (Section III-B). A graph
//! with `V` vertices and `M` directed edges is stored as an offset array of
//! `V + 1` entries plus a neighbor array of `M` destination vertex ids (4
//! bytes each), with an optional parallel weight array for SSSP workloads.

use crate::{Edge, EdgeList, GraphError, VertexId, Weight, EDGE_BYTES};

/// An immutable directed graph in compressed-sparse-row form.
///
/// # Example
///
/// ```
/// use scalagraph_graph::{Csr, Edge};
///
/// let g = Csr::from_edges(3, &[Edge::new(0, 1), Edge::new(0, 2), Edge::new(2, 0)]);
/// assert_eq!(g.out_degree(0), 2);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
}

impl Csr {
    /// Builds a CSR from a slice of edges. Edge order within a vertex's
    /// adjacency list follows the input order (stable counting sort), which
    /// the degree-aware re-layout (Section IV-C) later permutes.
    ///
    /// # Panics
    ///
    /// Panics if any edge endpoint is `>= num_vertices`. Use
    /// [`Csr::try_from_edges`] for fallible construction from untrusted data.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        match Self::try_from_edges(num_vertices, edges) {
            Ok(csr) => csr,
            Err(e) => panic!("edge endpoint out of range: {e}"),
        }
    }

    /// Fallible variant of [`Csr::from_edges`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any endpoint is `>=
    /// num_vertices`.
    pub fn try_from_edges(num_vertices: usize, edges: &[Edge]) -> Result<Self, GraphError> {
        let mut degree = vec![0u64; num_vertices + 1];
        for e in edges {
            for v in [e.src, e.dst] {
                if v as usize >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: v as u64,
                        num_vertices: num_vertices as u64,
                    });
                }
            }
            degree[e.src as usize + 1] += 1;
        }
        for i in 1..=num_vertices {
            degree[i] += degree[i - 1];
        }
        let offsets = degree;
        let mut cursor: Vec<u64> = offsets[..num_vertices].to_vec();
        let mut neighbors = vec![0 as VertexId; edges.len()];
        let mut weights = vec![0 as Weight; edges.len()];
        let mut weighted = false;
        for e in edges {
            let slot = cursor[e.src as usize] as usize;
            neighbors[slot] = e.dst;
            weights[slot] = e.weight;
            weighted |= e.weight != 0;
            cursor[e.src as usize] += 1;
        }
        Ok(Csr {
            offsets,
            neighbors,
            weights: weighted.then_some(weights),
        })
    }

    /// Builds a CSR from an [`EdgeList`].
    pub fn from_edge_list(list: &EdgeList) -> Self {
        Self::from_edges(list.num_vertices(), list.as_slice())
    }

    /// Constructs a CSR directly from raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MalformedOffsets`] when the offsets are not
    /// monotone or do not cover the neighbor array,
    /// [`GraphError::VertexOutOfRange`] when a neighbor id is out of range,
    /// and [`GraphError::WeightLengthMismatch`] when a weight array of the
    /// wrong length is supplied.
    pub fn from_raw_parts(
        offsets: Vec<u64>,
        neighbors: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
    ) -> Result<Self, GraphError> {
        if offsets.is_empty() {
            return Err(GraphError::MalformedOffsets {
                detail: "offsets array must have at least one entry".to_owned(),
            });
        }
        if offsets[0] != 0 {
            return Err(GraphError::MalformedOffsets {
                detail: format!("offsets[0] must be 0, found {}", offsets[0]),
            });
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::MalformedOffsets {
                detail: "offsets must be non-decreasing".to_owned(),
            });
        }
        let final_offset = offsets.last().copied().unwrap_or(0);
        if final_offset != neighbors.len() as u64 {
            return Err(GraphError::MalformedOffsets {
                detail: format!(
                    "final offset {final_offset} does not equal neighbor count {}",
                    neighbors.len()
                ),
            });
        }
        let num_vertices = offsets.len() - 1;
        if let Some(&v) = neighbors.iter().find(|&&v| v as usize >= num_vertices) {
            return Err(GraphError::VertexOutOfRange {
                vertex: v as u64,
                num_vertices: num_vertices as u64,
            });
        }
        if let Some(w) = &weights {
            if w.len() != neighbors.len() {
                return Err(GraphError::WeightLengthMismatch {
                    edges: neighbors.len(),
                    weights: w.len(),
                });
            }
        }
        Ok(Csr {
            offsets,
            neighbors,
            weights,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether edge weights are stored.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Index range of `v`'s edges inside the neighbor array. This is the
    /// "edge memory address" the prefetcher reads per active vertex.
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }

    /// Destination vertices of `v`'s out-edges.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.edge_range(v)]
    }

    /// Weights of `v`'s out-edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingWeights`] on an unweighted graph.
    pub fn edge_weights(&self, v: VertexId) -> Result<&[Weight], GraphError> {
        let r = self.edge_range(v);
        self.weights
            .as_ref()
            .map(|w| &w[r])
            .ok_or(GraphError::MissingWeights)
    }

    /// Weight of the edge stored at flat index `idx`, or `0` when the graph
    /// is unweighted (the neutral element for the algorithms in this suite).
    pub fn weight_at(&self, idx: usize) -> Weight {
        self.weights.as_ref().map_or(0, |w| w[idx])
    }

    /// Destination vertex stored at flat edge index `idx`.
    pub fn neighbor_at(&self, idx: usize) -> VertexId {
        self.neighbors[idx]
    }

    /// The raw offset array (`num_vertices + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw neighbor array.
    pub fn neighbor_array(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// The raw weight array, when the graph is weighted.
    pub fn weight_array(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all `(src, dst, weight)` triples in CSR order.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            csr: self,
            vertex: 0,
            idx: 0,
        }
    }

    /// The transpose graph (every edge reversed). Weights are carried over.
    pub fn reverse(&self) -> Csr {
        let n = self.num_vertices();
        let mut edges = Vec::with_capacity(self.num_edges());
        for e in self.edges() {
            edges.push(Edge::weighted(e.dst, e.src, e.weight));
        }
        Csr::from_edges(n, &edges)
    }

    /// In-degrees of every vertex, computed in one pass.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.num_vertices()];
        for &dst in &self.neighbors {
            d[dst as usize] += 1;
        }
        d
    }

    /// Bytes occupied by the CSR arrays in off-chip memory: the offsets
    /// (8 bytes per vertex, modelling the vertex record of id + edge
    /// address) plus 4 bytes per edge. Used by the off-chip traffic model.
    pub fn storage_bytes(&self) -> u64 {
        (self.offsets.len() as u64) * 8 + (self.neighbors.len() as u64) * EDGE_BYTES as u64
    }

    /// Replaces the edge arrays with a reordering that keeps every edge
    /// within its source vertex's range (the degree-aware re-layout's
    /// output), weights reordered alongside when the graph has them.
    pub(crate) fn replace_edge_order(
        &mut self,
        neighbors: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
    ) {
        debug_assert_eq!(neighbors.len(), self.neighbors.len());
        debug_assert_eq!(weights.is_some(), self.weights.is_some());
        self.neighbors = neighbors;
        self.weights = weights;
    }

    /// Splits the edges into `parts` CSRs over the same vertex range: edge
    /// `(s, d)` goes to part `part_of(s, d)`, and every part keeps each
    /// vertex's edges in their order here. The result equals collecting
    /// each part's edges in CSR order and building it with
    /// [`Csr::from_edges`], weights included: a part whose edges all weigh
    /// 0 stores no weights. Two counting passes: O(parts · V + E).
    ///
    /// # Panics
    ///
    /// Panics if `part_of` returns a part `>= parts`.
    pub fn split_edges<F>(&self, parts: usize, part_of: F) -> Vec<Csr>
    where
        F: Fn(VertexId, VertexId) -> usize,
    {
        let n = self.num_vertices();
        let mut offsets = vec![vec![0u64; n + 1]; parts];
        let mut weighted = vec![false; parts];
        for v in 0..n {
            let src = v as VertexId;
            for idx in self.edge_range(src) {
                let p = part_of(src, self.neighbors[idx]);
                offsets[p][v + 1] += 1;
                weighted[p] |= self.weight_at(idx) != 0;
            }
        }
        for part in &mut offsets {
            for v in 1..=n {
                part[v] += part[v - 1];
            }
        }
        let mut neighbors: Vec<Vec<VertexId>> =
            offsets.iter().map(|o| vec![0; o[n] as usize]).collect();
        let mut weights: Vec<Option<Vec<Weight>>> = offsets
            .iter()
            .zip(&weighted)
            .map(|(o, &w)| w.then(|| vec![0; o[n] as usize]))
            .collect();
        // Vertices are visited in order, so a part's next free slot is
        // always the next slot of the vertex being placed.
        let mut next = vec![0usize; parts];
        for v in 0..n {
            let src = v as VertexId;
            for idx in self.edge_range(src) {
                let dst = self.neighbors[idx];
                let p = part_of(src, dst);
                neighbors[p][next[p]] = dst;
                if let Some(w) = &mut weights[p] {
                    w[next[p]] = self.weight_at(idx);
                }
                next[p] += 1;
            }
        }
        offsets
            .into_iter()
            .zip(neighbors)
            .zip(weights)
            .map(|((offsets, neighbors), weights)| Csr {
                offsets,
                neighbors,
                weights,
            })
            .collect()
    }
}

/// Iterator over all edges of a [`Csr`], created by [`Csr::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    csr: &'a Csr,
    vertex: usize,
    idx: usize,
}

impl Iterator for Edges<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Self::Item> {
        if self.idx >= self.csr.neighbors.len() {
            return None;
        }
        while self.csr.offsets[self.vertex + 1] as usize <= self.idx {
            self.vertex += 1;
        }
        let e = Edge::weighted(
            self.vertex as VertexId,
            self.csr.neighbors[self.idx],
            self.csr.weight_at(self.idx),
        );
        self.idx += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.csr.neighbors.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Edges<'_> {}

/// Incremental CSR builder: push adjacency lists vertex by vertex.
///
/// # Example
///
/// ```
/// use scalagraph_graph::CsrBuilder;
///
/// let mut b = CsrBuilder::new();
/// b.push_vertex(&[1, 2]);
/// b.push_vertex(&[2]);
/// b.push_vertex(&[]);
/// let g = b.finish();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrBuilder {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
    weights: Vec<Weight>,
    weighted: bool,
}

impl CsrBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CsrBuilder {
            offsets: vec![0],
            neighbors: Vec::new(),
            weights: Vec::new(),
            weighted: false,
        }
    }

    /// Appends the next vertex with the given unweighted adjacency list and
    /// returns the builder for chaining.
    pub fn push_vertex(&mut self, neighbors: &[VertexId]) -> &mut Self {
        self.neighbors.extend_from_slice(neighbors);
        self.weights.extend(std::iter::repeat_n(0, neighbors.len()));
        self.offsets.push(self.neighbors.len() as u64);
        self
    }

    /// Appends the next vertex with a weighted adjacency list.
    pub fn push_vertex_weighted(&mut self, neighbors: &[(VertexId, Weight)]) -> &mut Self {
        for &(n, w) in neighbors {
            self.neighbors.push(n);
            self.weights.push(w);
            self.weighted |= w != 0;
        }
        self.offsets.push(self.neighbors.len() as u64);
        self
    }

    /// Finalizes the builder into a [`Csr`].
    ///
    /// # Panics
    ///
    /// Panics if any recorded neighbor id is `>=` the number of pushed
    /// vertices.
    pub fn finish(self) -> Csr {
        let n = self.offsets.len() - 1;
        Csr::from_raw_parts(
            self.offsets,
            self.neighbors,
            self.weighted.then_some(self.weights),
        )
        .unwrap_or_else(|e| panic!("builder produced invalid CSR for {n} vertices: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_edges(
            4,
            &[
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 3),
                Edge::new(2, 3),
            ],
        )
    }

    #[test]
    fn degrees_and_ranges() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.edge_range(1), 2..3);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn edges_iterator_roundtrips() {
        let g = diamond();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        let g2 = Csr::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    fn edges_iterator_skips_isolated_vertices() {
        let g = Csr::from_edges(5, &[Edge::new(0, 4), Edge::new(4, 0)]);
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges, vec![Edge::new(0, 4), Edge::new(4, 0)]);
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    fn reverse_transposes() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.neighbors(3), &[1, 2]);
        assert_eq!(r.out_degree(0), 0);
        assert_eq!(r.reverse(), g);
    }

    #[test]
    fn in_degrees_match_reverse_out_degrees() {
        let g = diamond();
        let ind = g.in_degrees();
        let r = g.reverse();
        for v in 0..4 {
            assert_eq!(ind[v as usize] as usize, r.out_degree(v));
        }
    }

    #[test]
    fn weighted_graph_keeps_weights_through_reverse() {
        let g = Csr::from_edges(3, &[Edge::weighted(0, 1, 7), Edge::weighted(1, 2, 9)]);
        assert!(g.is_weighted());
        assert_eq!(g.edge_weights(0).unwrap(), &[7]);
        let r = g.reverse();
        assert_eq!(r.edge_weights(2).unwrap(), &[9]);
    }

    #[test]
    fn unweighted_graph_reports_missing_weights() {
        let g = diamond();
        assert!(!g.is_weighted());
        assert_eq!(g.edge_weights(0).unwrap_err(), GraphError::MissingWeights);
        assert_eq!(g.weight_at(0), 0);
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(matches!(
            Csr::from_raw_parts(vec![], vec![], None),
            Err(GraphError::MalformedOffsets { .. })
        ));
        assert!(matches!(
            Csr::from_raw_parts(vec![0, 2, 1], vec![0, 0], None),
            Err(GraphError::MalformedOffsets { .. })
        ));
        assert!(matches!(
            Csr::from_raw_parts(vec![0, 1], vec![3], None),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            Csr::from_raw_parts(vec![0, 1], vec![0], Some(vec![1, 2])),
            Err(GraphError::WeightLengthMismatch { .. })
        ));
        assert!(Csr::from_raw_parts(vec![0, 1, 1], vec![1], None).is_ok());
    }

    #[test]
    fn builder_matches_from_edges() {
        let mut b = CsrBuilder::new();
        b.push_vertex(&[1, 2]);
        b.push_vertex(&[3]);
        b.push_vertex(&[3]);
        b.push_vertex(&[]);
        assert_eq!(b.finish(), diamond());
    }

    #[test]
    fn builder_weighted() {
        let mut b = CsrBuilder::new();
        b.push_vertex_weighted(&[(1, 5)]);
        b.push_vertex_weighted(&[]);
        let g = b.finish();
        assert_eq!(g.edge_weights(0).unwrap(), &[5]);
    }

    #[test]
    fn storage_bytes_accounts_offsets_and_edges() {
        let g = diamond();
        assert_eq!(g.storage_bytes(), 5 * 8 + 4 * 4);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn split_edges_equals_bucketing_then_from_edges() {
        // Weights 0 on every edge into an even vertex: the part holding
        // only those stores no weights, as `from_edges` would build it.
        let edges: Vec<Edge> = crate::generators::power_law(200, 3_000, 0.8, 5)
            .into_iter()
            .map(|e| Edge::weighted(e.src, e.dst, (e.dst % 2) * (1 + e.src % 5)))
            .collect();
        let g = Csr::from_edges(200, &edges);
        let part_of = |s: VertexId, d: VertexId| ((d % 2) + 2 * (s % 3)) as usize;
        let parts = g.split_edges(6, part_of);
        let mut buckets = vec![Vec::new(); 6];
        for e in g.edges() {
            buckets[part_of(e.src, e.dst)].push(e);
        }
        for (p, bucket) in buckets.iter().enumerate() {
            assert_eq!(parts[p], Csr::from_edges(200, bucket), "part {p}");
            assert_eq!(parts[p].is_weighted(), p % 2 == 1, "part {p}");
        }
        assert!(Csr::from_edges(0, &[])
            .split_edges(2, |_, _| 0)
            .iter()
            .all(|c| c.num_vertices() == 0));
    }

    #[test]
    fn try_from_edges_rejects_bad_endpoint() {
        let err = Csr::try_from_edges(2, &[Edge::new(0, 2)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 2, .. }
        ));
    }
}
