//! Graphicionado-style graph slicing.
//!
//! When a graph's vertex properties do not fit in the on-chip scratchpads,
//! ScalaGraph "slices a graph as in Graphicionado, and processes all
//! partitions in a round-robin manner" (Section III-A). A slice covers a
//! contiguous destination-vertex interval: within one slice, every update
//! targets a vertex whose temporary property is resident on-chip.

use crate::{GraphError, VertexId};

/// A half-open interval `[start, end)` of vertex ids forming one slice's
/// resident destination set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VertexInterval {
    /// First vertex id in the interval.
    pub start: VertexId,
    /// One past the last vertex id in the interval.
    pub end: VertexId,
}

impl VertexInterval {
    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the interval covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: VertexId) -> bool {
        (self.start..self.end).contains(&v)
    }
}

/// Computes destination-interval slices for round-robin execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    /// Maximum number of destination vertices whose temporary properties may
    /// be resident on-chip simultaneously (total scratchpad capacity in
    /// vertex-property slots).
    pub max_resident_vertices: usize,
}

impl Partitioner {
    /// Creates a partitioner with the given on-chip capacity in vertex
    /// property slots.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPartition`] if the capacity is zero.
    pub fn new(max_resident_vertices: usize) -> Result<Self, GraphError> {
        if max_resident_vertices == 0 {
            return Err(GraphError::InvalidPartition {
                detail: "on-chip capacity must be at least one vertex".to_owned(),
            });
        }
        Ok(Partitioner {
            max_resident_vertices,
        })
    }

    /// Splits `num_vertices` into equal contiguous intervals, each at most
    /// the resident capacity. Returns a single full-range interval when the
    /// whole property array fits on-chip.
    pub fn intervals(&self, num_vertices: usize) -> Vec<VertexInterval> {
        if num_vertices == 0 {
            return vec![];
        }
        let parts = num_vertices.div_ceil(self.max_resident_vertices);
        let base = num_vertices / parts;
        let extra = num_vertices % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let len = base + usize::from(p < extra);
            out.push(VertexInterval {
                start: start as VertexId,
                end: (start + len) as VertexId,
            });
            start += len;
        }
        debug_assert_eq!(start, num_vertices);
        out
    }

    /// Number of slices required for `num_vertices`.
    pub fn num_partitions(&self, num_vertices: usize) -> usize {
        num_vertices.div_ceil(self.max_resident_vertices).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_rejects_zero_capacity() {
        assert!(Partitioner::new(0).is_err());
    }

    #[test]
    fn single_partition_when_fits() {
        let p = Partitioner::new(100).unwrap();
        let iv = p.intervals(64);
        assert_eq!(iv, vec![VertexInterval { start: 0, end: 64 }]);
        assert_eq!(p.num_partitions(64), 1);
    }

    #[test]
    fn intervals_cover_exactly_without_overlap() {
        let p = Partitioner::new(7).unwrap();
        let iv = p.intervals(30);
        assert_eq!(p.num_partitions(30), iv.len());
        let mut covered = 0usize;
        let mut prev_end = 0;
        for i in &iv {
            assert_eq!(i.start, prev_end);
            assert!(i.len() <= 7);
            covered += i.len();
            prev_end = i.end;
        }
        assert_eq!(covered, 30);
    }

    #[test]
    fn intervals_are_balanced() {
        let p = Partitioner::new(10).unwrap();
        let iv = p.intervals(25); // 3 parts: 9, 8, 8
        let lens: Vec<usize> = iv.iter().map(|i| i.len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 25);
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    #[test]
    fn empty_graph_yields_no_intervals() {
        let p = Partitioner::new(4).unwrap();
        assert!(p.intervals(0).is_empty());
    }

    #[test]
    fn interval_contains() {
        let iv = VertexInterval { start: 3, end: 7 };
        assert!(!iv.contains(2));
        assert!(iv.contains(3));
        assert!(iv.contains(6));
        assert!(!iv.contains(7));
        assert!(!iv.is_empty());
        assert!(VertexInterval { start: 4, end: 4 }.is_empty());
    }
}
