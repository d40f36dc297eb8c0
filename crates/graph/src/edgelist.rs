//! Edge-list interchange format.
//!
//! Generators produce [`EdgeList`]s; [`crate::Csr::from_edge_list`] converts
//! them to the on-device CSR format. The list is deliberately simple — a flat
//! vector of `(src, dst, weight)` triples — so generators and file loaders
//! stay decoupled from the storage format.

use crate::rng::{SplitMix64, TAG_WEIGHTS};
use crate::{GraphError, VertexId, Weight};

/// One directed edge with an optional weight (weight `0` when unweighted
/// semantics are intended; SSSP workloads assign weights explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight; ignored by unweighted algorithms.
    pub weight: Weight,
}

impl Edge {
    /// Creates an unweighted edge.
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge {
            src,
            dst,
            weight: 0,
        }
    }

    /// Creates a weighted edge.
    pub fn weighted(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        Edge { src, dst, weight }
    }
}

/// A growable list of directed edges plus the vertex-count bound they must
/// respect.
///
/// # Example
///
/// ```
/// use scalagraph_graph::{Edge, EdgeList};
///
/// let mut list = EdgeList::new(4);
/// list.push(Edge::new(0, 1));
/// list.push(Edge::new(1, 2));
/// assert_eq!(list.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an empty list for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a list with pre-allocated capacity for `cap` edges.
    pub fn with_capacity(num_vertices: usize, cap: usize) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::with_capacity(cap),
        }
    }

    /// Wraps an existing vector of edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any endpoint is `>=
    /// num_vertices`.
    pub fn from_vec(num_vertices: usize, edges: Vec<Edge>) -> Result<Self, GraphError> {
        for e in &edges {
            for v in [e.src, e.dst] {
                if v as usize >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: v as u64,
                        num_vertices: num_vertices as u64,
                    });
                }
            }
        }
        Ok(EdgeList {
            num_vertices,
            edges,
        })
    }

    /// Number of vertices this list is bounded by.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently in the list.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the list has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Appends an edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range; generators are trusted code, so
    /// the check is a `debug_assert`.
    pub fn push(&mut self, edge: Edge) {
        debug_assert!((edge.src as usize) < self.num_vertices);
        debug_assert!((edge.dst as usize) < self.num_vertices);
        self.edges.push(edge);
    }

    /// The edges as a slice.
    pub fn as_slice(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates over the edges.
    pub fn iter(&self) -> std::slice::Iter<'_, Edge> {
        self.edges.iter()
    }

    /// Sorts edges by `(src, dst)` and removes exact duplicates (parallel
    /// edges with identical weight collapse; differing weights keep the
    /// first occurrence after a stable sort by endpoints).
    pub fn sort_and_dedup(&mut self) {
        self.edges.sort_by_key(|e| (e.src, e.dst));
        self.edges.dedup_by_key(|e| (e.src, e.dst));
    }

    /// Removes self-loops (`src == dst`).
    pub fn remove_self_loops(&mut self) {
        self.edges.retain(|e| e.src != e.dst);
    }

    /// Assigns each edge an independent uniform random weight in
    /// `0..=max_weight`, matching the paper's SSSP setup ("each edge of a
    /// graph is associated with a random integer between 0 and 255").
    pub fn randomize_weights(&mut self, max_weight: Weight, seed: u64) {
        let mut rng = SplitMix64::stream(seed, TAG_WEIGHTS, 0);
        for e in &mut self.edges {
            e.weight = rng.next_below(u64::from(max_weight) + 1) as Weight;
        }
    }

    /// Adds the reverse of every edge (carrying its weight) and removes
    /// duplicates, turning a directed list into an undirected one. Connected
    /// Components is defined on undirected graphs; the evaluation harness
    /// symmetrizes CC inputs this way.
    pub fn symmetrize(&mut self) {
        let rev: Vec<Edge> = self
            .edges
            .iter()
            .map(|e| Edge::weighted(e.dst, e.src, e.weight))
            .collect();
        self.edges.extend(rev);
        self.sort_and_dedup();
    }
}

impl Extend<Edge> for EdgeList {
    fn extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) {
        for e in iter {
            self.push(e);
        }
    }
}

impl<'a> IntoIterator for &'a EdgeList {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

impl IntoIterator for EdgeList {
    type Item = Edge;
    type IntoIter = std::vec::IntoIter<Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_rejects_out_of_range() {
        let err = EdgeList::from_vec(2, vec![Edge::new(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, .. }
        ));
    }

    #[test]
    fn sort_and_dedup_removes_parallel_edges() {
        let mut l = EdgeList::new(3);
        l.push(Edge::new(1, 2));
        l.push(Edge::new(0, 1));
        l.push(Edge::new(1, 2));
        l.sort_and_dedup();
        assert_eq!(l.as_slice(), &[Edge::new(0, 1), Edge::new(1, 2)]);
    }

    #[test]
    fn remove_self_loops_keeps_others() {
        let mut l = EdgeList::new(3);
        l.push(Edge::new(1, 1));
        l.push(Edge::new(0, 2));
        l.remove_self_loops();
        assert_eq!(l.as_slice(), &[Edge::new(0, 2)]);
    }

    #[test]
    fn randomize_weights_is_bounded_and_deterministic() {
        let mut a = EdgeList::new(10);
        for i in 0..9 {
            a.push(Edge::new(i, i + 1));
        }
        let mut b = a.clone();
        a.randomize_weights(255, 7);
        b.randomize_weights(255, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|e| e.weight <= 255));
        // With 9 edges it is overwhelmingly unlikely all weights are zero.
        assert!(a.iter().any(|e| e.weight > 0));
    }

    #[test]
    fn extend_and_iterate() {
        let mut l = EdgeList::new(4);
        l.extend([Edge::new(0, 1), Edge::new(2, 3)]);
        let collected: Vec<_> = l.iter().map(|e| e.dst).collect();
        assert_eq!(collected, vec![1, 3]);
        assert_eq!(l.clone().into_iter().count(), 2);
    }
}
