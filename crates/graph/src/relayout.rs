//! Degree-aware edge re-layout (Section IV-C, "Hardware Implementation").
//!
//! Dispatching the 16 edges of one 64-byte line to the 16 PEs of a row in a
//! single cycle would require a 16x16 full interconnect inside the edge
//! dispatching unit. The paper avoids this by pre-processing the CSR edge
//! array offline: for each vertex, edges are pushed into `K` FIFOs selected
//! by the hash of their destination vertex, then drained round-robin into a
//! new edge list. The result is that an edge's position within a line (its
//! *lane*) equals the PE column its destination hashes to — almost always,
//! with residual conflicts handled at runtime by a one-slot skew buffer.
//!
//! The algorithm is O(|E|), "the same as that for the format transformation
//! from the edge list to the CSR format". Here the K FIFOs of a vertex are
//! one counting sort of its edges by lane, and a bitmask of the non-empty
//! lanes finds each steal, so a vertex costs O(degree + K / 64).

use crate::{Csr, VertexId};

/// Statistics about one re-layout run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayoutStats {
    /// Total edges processed.
    pub edges: usize,
    /// Edges whose final lane equals their destination's hash lane.
    pub lane_aligned: usize,
}

impl RelayoutStats {
    /// Fraction of edges that ended up lane-aligned.
    pub fn alignment(&self) -> f64 {
        if self.edges == 0 {
            1.0
        } else {
            self.lane_aligned as f64 / self.edges as f64
        }
    }
}

/// The `K` lane FIFOs of one vertex: the offsets of its edges within its
/// adjacency list, counting-sorted by lane into `order`, lane `l` holding
/// `order[head[l]..tail[l]]`, and `mask` marking the lanes that still hold
/// edges. Between vertices every FIFO is empty: `head == tail` and no mask
/// bit is set.
struct LaneFifos {
    count: Vec<usize>,
    head: Vec<usize>,
    tail: Vec<usize>,
    order: Vec<usize>,
    /// The lane of each edge of the vertex being sorted.
    lane: Vec<usize>,
    mask: Vec<u64>,
}

impl LaneFifos {
    fn new(lanes: usize) -> Self {
        LaneFifos {
            count: vec![0; lanes],
            head: vec![0; lanes],
            tail: vec![0; lanes],
            order: Vec::new(),
            lane: Vec::new(),
            mask: vec![0; lanes.div_ceil(64)],
        }
    }

    /// Queues the vertex's edges, whose lanes are in `lane`, in their
    /// lanes' FIFOs in order. The FIFOs must be empty.
    fn fill(&mut self) {
        for &lane in &self.lane {
            self.mask[lane >> 6] |= 1 << (lane & 63);
            self.count[lane] += 1;
        }
        let mut at = 0;
        for (w, &word) in self.mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let lane = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.head[lane] = at;
                self.tail[lane] = at;
                at += self.count[lane];
                self.count[lane] = 0;
            }
        }
        self.order.resize(at, 0);
        for (i, &lane) in self.lane.iter().enumerate() {
            self.order[self.tail[lane]] = i;
            self.tail[lane] += 1;
        }
    }

    /// Takes the oldest edge of `lane`'s FIFO, which must hold one.
    #[inline]
    fn take(&mut self, lane: usize) -> usize {
        let at = self.head[lane];
        debug_assert!(at < self.tail[lane], "take from an empty FIFO");
        self.head[lane] = at + 1;
        let drained = u64::from(at + 1 == self.tail[lane]);
        self.mask[lane >> 6] &= !(drained << (lane & 63));
        self.order[at]
    }

    /// The first non-empty lane at or after `from`, wrapping around.
    #[inline]
    fn next_lane(&self, from: usize) -> Option<usize> {
        let w = from >> 6;
        let above = self.mask[w] & (!0u64 << (from & 63));
        if above != 0 {
            return Some((w << 6) | above.trailing_zeros() as usize);
        }
        (w + 1..self.mask.len())
            .chain(0..=w)
            .find(|&i| self.mask[i] != 0)
            .map(|i| (i << 6) | self.mask[i].trailing_zeros() as usize)
    }
}

/// Re-orders every vertex's adjacency list with the K-FIFO round-robin
/// shuffle so that, as far as possible, the edge at in-line lane `i` has
/// `hash(dst) == i`.
///
/// `lanes` is the PE row width `K` (16 in the paper's configuration);
/// `lane_of` maps a destination vertex to its home lane (PE column) and must
/// return values `< lanes`.
///
/// Returns re-layout statistics. The permutation is applied in place and is
/// guaranteed to keep every edge within its source vertex's CSR range, so
/// graph semantics are untouched (adjacency *sets* are order-insensitive).
///
/// # Panics
///
/// Panics if `lanes == 0` or if `lane_of` returns an out-of-range lane.
pub fn degree_aware_relayout<F>(graph: &mut Csr, lanes: usize, lane_of: F) -> RelayoutStats
where
    F: Fn(VertexId) -> usize,
{
    assert!(lanes > 0, "lane count must be positive");
    let neighbors = graph.neighbor_array();
    let weights = graph.weight_array();
    let mut new_neighbors = Vec::with_capacity(neighbors.len());
    let mut new_weights = weights.map(|w| Vec::with_capacity(w.len()));
    let mut fifos = LaneFifos::new(lanes);
    let mut stats = RelayoutStats {
        edges: neighbors.len(),
        lane_aligned: 0,
    };

    for v in graph.vertices() {
        let range = graph.edge_range(v);
        let adj = &neighbors[range.clone()];
        fifos.lane.clear();
        fifos.lane.extend(adj.iter().map(|&dst| {
            let lane = lane_of(dst);
            assert!(lane < lanes, "lane_of returned {lane} >= {lanes}");
            lane
        }));
        fifos.fill();
        // Drain round-robin, lane by lane, starting each output line at
        // lane 0. When a FIFO is empty its slot is filled by stealing from
        // the next non-empty FIFO (the hardware's skew buffer equivalent),
        // so lines stay dense.
        let mut lane = 0;
        for _ in 0..adj.len() {
            let Some(from) = fifos.next_lane(lane) else {
                unreachable!("edges remain but all FIFOs empty")
            };
            stats.lane_aligned += usize::from(from == lane);
            let i = fifos.take(from);
            new_neighbors.push(adj[i]);
            if let (Some(out), Some(w)) = (&mut new_weights, weights) {
                out.push(w[range.start + i]);
            }
            lane += 1;
            if lane == lanes {
                lane = 0;
            }
        }
        debug_assert!(fifos.mask.iter().all(|&w| w == 0));
    }
    graph.replace_edge_order(new_neighbors, new_weights);
    stats
}

/// Checks that `lane_of(dst)` matches the in-line lane for each edge of a
/// laid-out graph, returning the aligned fraction. Lines are `lanes` wide
/// and restart at each vertex boundary (the EDU fetches per-vertex).
pub fn measure_alignment<F>(graph: &Csr, lanes: usize, lane_of: F) -> f64
where
    F: Fn(VertexId) -> usize,
{
    let mut aligned = 0usize;
    let mut total = 0usize;
    for v in graph.vertices() {
        for (pos, &dst) in graph.neighbors(v).iter().enumerate() {
            total += 1;
            if lane_of(dst) == pos % lanes {
                aligned += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        aligned as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Csr, Edge};
    use std::collections::HashSet;

    fn lane16(v: VertexId) -> usize {
        (v as usize) % 16
    }

    #[test]
    fn relayout_preserves_adjacency_sets() {
        let edges = generators::power_law(200, 3000, 0.8, 1);
        let before = Csr::from_edges(200, &edges);
        let mut after = before.clone();
        degree_aware_relayout(&mut after, 16, lane16);
        assert_eq!(before.num_edges(), after.num_edges());
        for v in before.vertices() {
            let a: Vec<_> = {
                let mut x = before.neighbors(v).to_vec();
                x.sort_unstable();
                x
            };
            let b: Vec<_> = {
                let mut x = after.neighbors(v).to_vec();
                x.sort_unstable();
                x
            };
            assert_eq!(a, b, "adjacency multiset changed for vertex {v}");
        }
    }

    #[test]
    fn relayout_improves_alignment() {
        let edges = generators::uniform(1000, 20_000, 2);
        let mut g = Csr::from_edges(1000, &edges);
        let before = measure_alignment(&g, 16, lane16);
        let stats = degree_aware_relayout(&mut g, 16, lane16);
        let after = measure_alignment(&g, 16, lane16);
        assert!(after > before, "alignment {before} -> {after}");
        // Random 16-lane traffic aligns ~1/16 of the time before. After the
        // shuffle, alignment is bounded by how evenly a vertex's ~20 edges
        // hash across 16 lanes, so ~0.4 is the expected regime here.
        assert!(after > 0.3, "alignment after re-layout: {after}");
        assert!((stats.alignment() - after).abs() < 0.25);
    }

    #[test]
    fn relayout_weighted_keeps_pairing() {
        // Weight == dst so we can detect a desynchronized permutation.
        let edges: Vec<Edge> = generators::uniform(64, 1000, 3)
            .into_iter()
            .map(|e| Edge::weighted(e.src, e.dst, e.dst + 1))
            .collect();
        let mut g = Csr::from_edges(64, &edges);
        degree_aware_relayout(&mut g, 8, |v| (v as usize) % 8);
        for v in g.vertices() {
            let ws = g.edge_weights(v).unwrap().to_vec();
            for (i, &n) in g.neighbors(v).iter().enumerate() {
                assert_eq!(ws[i], n + 1, "weight desynchronized from neighbor");
            }
        }
    }

    #[test]
    fn relayout_perfect_when_degrees_cover_lanes() {
        // Vertex 0 has exactly one edge per lane: perfect alignment.
        let edges: Vec<Edge> = (0..16u32).map(|d| Edge::new(0, d + 1)).collect();
        let mut g = Csr::from_edges(17, &edges);
        degree_aware_relayout(&mut g, 16, |v| ((v - 1) as usize) % 16);
        assert_eq!(measure_alignment(&g, 16, |v| ((v - 1) as usize) % 16), 1.0);
    }

    #[test]
    fn relayout_single_lane_is_identity_permutation_up_to_order() {
        let edges = generators::uniform(32, 200, 4);
        let mut g = Csr::from_edges(32, &edges);
        let before = g.clone();
        degree_aware_relayout(&mut g, 1, |_| 0);
        assert_eq!(before, g, "one lane must not reorder anything");
    }

    #[test]
    fn relayout_is_a_permutation() {
        let edges = generators::power_law(100, 2000, 1.0, 9);
        let before = Csr::from_edges(100, &edges);
        let mut after = before.clone();
        degree_aware_relayout(&mut after, 16, lane16);
        let a: HashSet<(u32, u32)> = before.edges().map(|e| (e.src, e.dst)).collect();
        let b: HashSet<(u32, u32)> = after.edges().map(|e| (e.src, e.dst)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_is_fully_aligned() {
        let mut g = Csr::from_edges(4, &[]);
        let stats = degree_aware_relayout(&mut g, 16, lane16);
        assert_eq!(stats.edges, 0);
        assert_eq!(stats.alignment(), 1.0);
        assert_eq!(measure_alignment(&g, 16, lane16), 1.0);
    }
}
