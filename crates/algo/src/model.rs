//! The `Process` / `Reduce` / `Apply` programming model of Figure 1.

use scalagraph_graph::{Csr, VertexId, Weight};
use std::fmt::Debug;

/// A vertex property value.
///
/// ScalaGraph stores vertex properties in the per-PE scratchpads; this suite
/// models them as 4-byte values (`u32` for level/distance/label, `f32` for
/// PageRank). The trait is sealed by its bounds rather than a private
/// supertrait because downstream algorithm authors legitimately define new
/// property types.
pub trait PropValue: Copy + PartialEq + Debug + Send + Sync + 'static {
    /// Size of one property in scratchpad/off-chip memory, in bytes. All
    /// provided algorithms use 4-byte properties, matching the paper's
    /// traffic model.
    const BYTES: usize = 4;
}

impl PropValue for u32 {}
impl PropValue for f32 {}
impl PropValue for u64 {
    const BYTES: usize = 8;
}
impl PropValue for f64 {
    const BYTES: usize = 8;
}

/// Per-edge context handed to [`Algorithm::process`].
///
/// The dispatcher broadcasts the active vertex's property and metadata to a
/// PE row (Section IV-A, row-oriented mapping), so `Process` may use the
/// source id and its out-degree in addition to the edge weight — PageRank
/// needs the degree to normalize its contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCtx {
    /// Weight of the edge being processed (0 on unweighted graphs).
    pub weight: Weight,
    /// Source (active) vertex of the edge.
    pub src: VertexId,
    /// Out-degree of the source vertex.
    pub src_degree: u32,
}

/// A vertex-centric graph algorithm in the Scatter/Apply model of Figure 1.
///
/// Implementations must keep [`reduce`](Algorithm::reduce) **associative and
/// commutative**: the update-aggregation pipeline (Section IV-B) pre-reduces
/// updates in arbitrary routing order, and the property tests in this crate
/// check the laws on the provided algorithms.
pub trait Algorithm: Send + Sync {
    /// The vertex property type (`V_prop` in Figure 1).
    type Prop: PropValue;

    /// Short human-readable name ("BFS", "PageRank", ...).
    fn name(&self) -> &'static str;

    /// Initial persistent property of vertex `v`.
    fn init(&self, v: VertexId, graph: &Csr) -> Self::Prop;

    /// The initially active vertex set (`V_active` for iteration 0).
    fn initial_frontier(&self, graph: &Csr) -> Vec<VertexId>;

    /// Identity element of [`reduce`](Algorithm::reduce); the value each
    /// `V_temp[v]` holds at the start of a Scatter phase.
    fn reduce_identity(&self) -> Self::Prop;

    /// `Process` (Figure 1 line 4): computes the scatter result for one edge
    /// from the edge context and the source's property.
    fn process(&self, ctx: &EdgeCtx, src_prop: Self::Prop) -> Self::Prop;

    /// `Reduce` (Figure 1 line 5): folds a scatter result into the
    /// destination's temporary property. Must be associative and
    /// commutative, with [`reduce_identity`](Algorithm::reduce_identity) as
    /// identity.
    fn reduce(&self, a: Self::Prop, b: Self::Prop) -> Self::Prop;

    /// `Apply` (Figure 1 line 10): merges the temporary property into the
    /// persistent one, producing the new persistent property.
    fn apply(&self, v: VertexId, old: Self::Prop, temp: Self::Prop, graph: &Csr) -> Self::Prop;

    /// Whether the vertex becomes active for the next iteration after its
    /// property changed from `old` to `new`. Figure 1 activates on any
    /// change; algorithms may refine this.
    fn activates(&self, old: Self::Prop, new: Self::Prop) -> bool {
        old != new
    }

    /// Whether property updates are monotonic (each `apply` moves the
    /// property only in one direction). Monotonic algorithms may run with
    /// inter-phase pipelining enabled (Section IV-D); for non-monotonic ones
    /// (PageRank) the mechanism must be disabled to preserve correctness.
    fn is_monotonic(&self) -> bool;

    /// Upper bound on iterations, if the algorithm runs a fixed schedule
    /// (PageRank). `None` means run until the frontier empties.
    fn max_iterations(&self) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_ctx_is_plain_data() {
        let c = EdgeCtx {
            weight: 3,
            src: 1,
            src_degree: 5,
        };
        let d = c;
        assert_eq!(c, d);
    }

    #[test]
    fn prop_value_sizes() {
        assert_eq!(<u32 as PropValue>::BYTES, 4);
        assert_eq!(<f32 as PropValue>::BYTES, 4);
        assert_eq!(<u64 as PropValue>::BYTES, 8);
    }
}
