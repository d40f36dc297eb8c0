//! Error type for graph construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced when building or validating graph data structures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint referenced a vertex outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending vertex identifier.
        vertex: u64,
        /// The number of vertices in the graph.
        num_vertices: u64,
    },
    /// The CSR offset array is not monotonically non-decreasing, or its last
    /// entry disagrees with the neighbor array length.
    MalformedOffsets {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A weighted view was requested on an unweighted graph.
    MissingWeights,
    /// The weights array length does not match the neighbor array length.
    WeightLengthMismatch {
        /// Number of edges in the graph.
        edges: usize,
        /// Number of weights supplied.
        weights: usize,
    },
    /// A partition request was invalid (for example, zero partitions).
    InvalidPartition {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A dataset down-scaling divisor was zero (the divisor must be a
    /// positive integer; `scale == 1` is full paper size).
    InvalidScale,
    /// A packed-CSR container is structurally invalid: bad magic,
    /// unsupported version, truncated section, or inconsistent block index.
    PackedFormat {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A packed-CSR container failed checksum verification (bit rot or
    /// truncation past the structural checks).
    PackedChecksum {
        /// Checksum declared by the container header.
        expected: u64,
        /// Checksum computed over the container body.
        found: u64,
    },
    /// A well-formed packed-CSR container holds a graph of another shape
    /// (vertex count or weightedness) than its reader expects.
    PackedShape {
        /// The shape found and the shape expected.
        detail: String,
    },
    /// A filesystem operation on a graph container failed.
    Io {
        /// Path the operation targeted.
        path: String,
        /// The underlying I/O error, stringified (keeps `GraphError: Clone`).
        detail: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for graph with {num_vertices} vertices"
            ),
            GraphError::MalformedOffsets { detail } => {
                write!(f, "malformed CSR offsets: {detail}")
            }
            GraphError::MissingWeights => write!(f, "graph has no edge weights"),
            GraphError::WeightLengthMismatch { edges, weights } => write!(
                f,
                "weight array length {weights} does not match edge count {edges}"
            ),
            GraphError::InvalidPartition { detail } => {
                write!(f, "invalid partition request: {detail}")
            }
            GraphError::InvalidScale => {
                write!(f, "scale divisor must be a positive integer")
            }
            GraphError::PackedFormat { detail } => {
                write!(f, "malformed packed CSR container: {detail}")
            }
            GraphError::PackedChecksum { expected, found } => write!(
                f,
                "packed CSR checksum mismatch: header declares {expected:#018x}, \
                 body hashes to {found:#018x}"
            ),
            GraphError::PackedShape { detail } => {
                write!(f, "packed CSR container of the wrong shape: {detail}")
            }
            GraphError::Io { path, detail } => {
                write!(f, "i/o error on {path}: {detail}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = GraphError::VertexOutOfRange {
            vertex: 9,
            num_vertices: 4,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4'));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
