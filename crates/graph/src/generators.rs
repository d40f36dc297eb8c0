//! Seedable synthetic graph generators.
//!
//! The paper evaluates on SNAP social graphs plus a Graph500 R-MAT graph
//! (Table III). Those raw datasets are not redistributable here, so this
//! module provides generators that reproduce the properties the paper's
//! experiments actually depend on: vertex/edge counts and a power-law degree
//! distribution (the source of the load-imbalance phenomena in Sections
//! II-C, IV-C, IV-D).
//!
//! All generators are deterministic given a seed: the random models draw
//! from [`SplitMix64`] streams, and R-MAT and the power-law model are the
//! serial form of the chunked generators behind the dataset presets.

use crate::pargen;
use crate::rng::{SplitMix64, TAG_UNIFORM};
use crate::{Edge, VertexId};

/// Generates an R-MAT graph (Graph500 parameters a=0.57, b=0.19, c=0.19),
/// the recursive-matrix model behind the paper's `RMAT24` dataset and a good
/// stand-in for heavy-tailed social graphs such as Twitter.
///
/// `num_vertices` is rounded up to a power of two internally for the
/// recursion; emitted endpoints are folded back below `num_vertices`.
/// Self-loops are kept (they exist in Graph500 output too) but can be
/// stripped via [`crate::EdgeList::remove_self_loops`].
pub fn rmat(num_vertices: usize, num_edges: usize, seed: u64) -> Vec<Edge> {
    rmat_with_params(num_vertices, num_edges, 0.57, 0.19, 0.19, seed)
}

/// R-MAT with explicit quadrant probabilities `a`, `b`, `c` (and
/// `d = 1 - a - b - c`).
///
/// # Panics
///
/// Panics if `a + b + c > 1` or any probability is negative.
pub fn rmat_with_params(
    num_vertices: usize,
    num_edges: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
) -> Vec<Edge> {
    let depth = (num_vertices.max(2) as f64).log2().ceil() as u32;
    rmat_with_depth(num_vertices, num_edges, a, b, c, depth, seed)
}

/// R-MAT with an explicit recursion `depth`. When `depth` exceeds
/// `log2(num_vertices)`, endpoints are generated in the deeper id space
/// and folded into `num_vertices` by modulo — this preserves the degree
/// skew of the *deep* graph at a reduced size, which is how the dataset
/// presets keep a scaled-down RMAT24's hub concentration faithful to the
/// paper-scale original instead of exaggerating it.
///
/// # Panics
///
/// Panics if `a + b + c > 1` or any probability is negative.
pub fn rmat_with_depth(
    num_vertices: usize,
    num_edges: usize,
    a: f64,
    b: f64,
    c: f64,
    depth: u32,
    seed: u64,
) -> Vec<Edge> {
    pargen::rmat_folded_chunked(num_vertices, num_edges, a, b, c, depth, seed, false)
}

/// Generates a directed graph whose out-degrees follow a Zipf distribution
/// with exponent `alpha`, then wires each edge to a preferentially chosen
/// destination. This is the configuration-model stand-in for the SNAP social
/// graphs (Pokec, LiveJournal, Orkut, Flickr): the measured phenomena —
/// a few very-high-degree hubs next to a long tail of low-degree vertices —
/// come directly from this distribution.
///
/// The result has exactly `num_edges` edges (degrees are scaled to match).
pub fn power_law(num_vertices: usize, num_edges: usize, alpha: f64, seed: u64) -> Vec<Edge> {
    power_law_capped(num_vertices, num_edges, alpha, 1.0, seed)
}

/// [`power_law`] with each vertex's Zipf weight, which sets both its
/// out-degree and its pull as a destination, capped at `max_share` of the
/// uncapped weights' sum.
///
/// The cap is not the final share. It applies before the weights are
/// renormalised, so a capped vertex ends with `max_share` times the
/// uncapped sum over the capped sum, and the edges that rounding degrees
/// down leaves over then land on random vertices. The largest hubs
/// therefore exceed `max_share`: at 1/2048 scale the dataset stand-ins'
/// top vertex holds 0.24–0.48% of the out-edges under the presets' 0.2%
/// cap.
///
/// Down-scaling a Zipf distribution inflates the *relative* share of the
/// top vertex: a 41M-vertex Twitter's biggest hub owns ~0.1% of the edges,
/// but a plain Zipf over an 80k-vertex stand-in hands its top vertex
/// several percent. The dataset presets use this cap to keep per-vertex
/// load shares — what the accelerators' load-balancing actually sees —
/// near paper scale.
///
/// # Panics
///
/// Panics unless `0 < max_share <= 1`.
pub fn power_law_capped(
    num_vertices: usize,
    num_edges: usize,
    alpha: f64,
    max_share: f64,
    seed: u64,
) -> Vec<Edge> {
    pargen::power_law_capped_chunked(num_vertices, num_edges, alpha, max_share, seed, false)
}

/// Uniform random directed graph: each edge's endpoints are independent
/// uniform draws (an Erdős–Rényi-style G(n, m) multigraph).
pub fn uniform(num_vertices: usize, num_edges: usize, seed: u64) -> Vec<Edge> {
    if num_vertices == 0 {
        return Vec::new();
    }
    let n = num_vertices as u64;
    let mut rng = SplitMix64::stream(seed, TAG_UNIFORM, 0);
    (0..num_edges)
        .map(|_| {
            let src = rng.next_below(n) as VertexId;
            let mut dst = rng.next_below(n) as VertexId;
            if dst == src {
                dst = (dst + 1) % num_vertices as VertexId;
            }
            Edge::new(src, dst)
        })
        .collect()
}

/// A simple directed path `0 -> 1 -> ... -> n-1`: the worst case for
/// frontier parallelism (one active vertex per BFS/SSSP iteration).
pub fn path(num_vertices: usize) -> Vec<Edge> {
    (1..num_vertices)
        .map(|v| Edge::new(v as VertexId - 1, v as VertexId))
        .collect()
}

/// A star: vertex 0 points at every other vertex. The extreme of the
/// power-law hub phenomenon; exercises the high-degree path of the
/// degree-aware scheduler.
pub fn star(num_vertices: usize) -> Vec<Edge> {
    (1..num_vertices)
        .map(|v| Edge::new(0, v as VertexId))
        .collect()
}

/// A 2D grid with edges to the right and down neighbor: a bounded-degree,
/// high-diameter graph (the opposite regime from social graphs).
pub fn grid(rows: usize, cols: usize) -> Vec<Edge> {
    let mut edges = Vec::new();
    let at = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push(Edge::new(at(r, c), at(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push(Edge::new(at(r, c), at(r + 1, c)));
            }
        }
    }
    edges
}

/// A complete binary tree with edges from parent to children; depth grows
/// logarithmically, frontier doubles each BFS level.
pub fn binary_tree(num_vertices: usize) -> Vec<Edge> {
    let mut edges = Vec::new();
    for v in 1..num_vertices {
        edges.push(Edge::new(((v - 1) / 2) as VertexId, v as VertexId));
    }
    edges
}

/// A complete directed graph on `n` vertices (no self loops). Only sensible
/// for tiny `n`; used by tests.
pub fn complete(n: usize) -> Vec<Edge> {
    let mut edges = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s != d {
                edges.push(Edge::new(s as VertexId, d as VertexId));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    #[test]
    fn rmat_counts_and_determinism() {
        let a = rmat(1000, 5000, 1);
        let b = rmat(1000, 5000, 1);
        let c = rmat(1000, 5000, 2);
        assert_eq!(a.len(), 5000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|e| (e.src as usize) < 1000 && (e.dst as usize) < 1000));
    }

    #[test]
    fn rmat_is_skewed() {
        let g = Csr::from_edges(1024, &rmat(1024, 16 * 1024, 3));
        let max_deg = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        let avg = g.num_edges() / g.num_vertices();
        // R-MAT hubs should far exceed the average degree.
        assert!(max_deg > 4 * avg, "max {max_deg} avg {avg}");
    }

    #[test]
    fn power_law_exact_edge_count_and_skew() {
        let edges = power_law(2000, 20_000, 0.8, 11);
        assert_eq!(edges.len(), 20_000);
        let g = Csr::from_edges(2000, &edges);
        let max_deg = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        assert!(max_deg > 40, "expected a hub, max degree {max_deg}");
        // And plenty of low-degree vertices.
        let low = g.vertices().filter(|&v| g.out_degree(v) <= 10).count();
        assert!(low > 1000);
    }

    #[test]
    fn power_law_no_self_loops() {
        assert!(power_law(500, 5000, 1.0, 5).iter().all(|e| e.src != e.dst));
    }

    #[test]
    fn uniform_no_self_loops_and_in_range() {
        let edges = uniform(100, 1000, 9);
        assert_eq!(edges.len(), 1000);
        assert!(edges.iter().all(|e| e.src != e.dst));
        assert!(edges.iter().all(|e| (e.src as usize) < 100));
    }

    #[test]
    fn structured_generators_shapes() {
        assert_eq!(path(5).len(), 4);
        assert_eq!(star(5).len(), 4);
        assert_eq!(grid(3, 4).len(), 3 * 3 + 2 * 4); // rights + downs
        assert_eq!(binary_tree(7).len(), 6);
        assert_eq!(complete(4).len(), 12);
    }

    #[test]
    fn empty_inputs() {
        assert!(rmat(0, 10, 0).is_empty());
        assert!(power_law(0, 10, 1.0, 0).is_empty());
        assert!(uniform(0, 10, 0).is_empty());
        assert!(path(0).is_empty());
        assert!(path(1).is_empty());
    }
}
