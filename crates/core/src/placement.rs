//! Vertex-to-PE placement.
//!
//! "The vertex properties are evenly partitioned to all SPDs via a simple
//! hashing upon vertex IDs" (Section III-A). The accelerator is a set of
//! tiles, each an `rows × cols` PE matrix; tiles are stacked vertically in
//! the global mesh (a T-tile machine is a `(T·rows) × cols` grid whose row
//! bands are tiles, joined by the inter-tile NoC links of Figure 7).

use scalagraph_graph::VertexId;

/// Geometry of the PE array and the derived vertex placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Number of tiles (each with a private HBM stack).
    pub tiles: usize,
    /// PE rows per tile (16 in the paper).
    pub rows_per_tile: usize,
    /// PE columns per tile.
    pub cols: usize,
}

impl Placement {
    /// Creates a placement.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(tiles: usize, rows_per_tile: usize, cols: usize) -> Self {
        assert!(tiles > 0 && rows_per_tile > 0 && cols > 0);
        Placement {
            tiles,
            rows_per_tile,
            cols,
        }
    }

    /// Total number of PEs.
    pub fn num_pes(&self) -> usize {
        self.tiles * self.rows_per_tile * self.cols
    }

    /// PEs per tile.
    pub fn pes_per_tile(&self) -> usize {
        self.rows_per_tile * self.cols
    }

    /// Rows of the global mesh (tiles stacked vertically).
    pub fn global_rows(&self) -> usize {
        self.tiles * self.rows_per_tile
    }

    /// Home PE of vertex `v` as a flat index in `0..num_pes()` — the
    /// round-robin hash of the paper. PEs are numbered in mesh order (tile
    /// by tile, row by row), so this is also the global mesh node index of
    /// `v`'s home.
    ///
    /// The PE count must fit in 32 bits, which
    /// [`ScalaGraphConfig::validate`](crate::ScalaGraphConfig::validate)
    /// checks.
    #[inline]
    pub fn home_pe(&self, v: VertexId) -> usize {
        // A 32-bit division: the simulator hashes the destination of every
        // dispatched edge, and the 64-bit form is slower.
        debug_assert!(u32::try_from(self.num_pes()).is_ok());
        (v % self.num_pes() as u32) as usize
    }

    /// Tile holding `v`'s property.
    pub fn tile_of(&self, v: VertexId) -> usize {
        self.home_pe(v) / self.pes_per_tile()
    }

    /// Row of `v`'s home PE *within its tile*.
    pub fn row_of(&self, v: VertexId) -> usize {
        (self.home_pe(v) % self.pes_per_tile()) / self.cols
    }

    /// Column of `v`'s home PE (columns are global across tiles).
    pub fn col_of(&self, v: VertexId) -> usize {
        self.home_pe(v) % self.cols
    }

    /// The dispatch lane of a destination vertex: its column. The offline
    /// edge re-layout targets this function.
    pub fn lane_of(&self, v: VertexId) -> usize {
        self.col_of(v)
    }

    /// Global mesh node index of a (tile, row-in-tile, col) coordinate.
    pub fn node(&self, tile: usize, row: usize, col: usize) -> usize {
        debug_assert!(tile < self.tiles && row < self.rows_per_tile && col < self.cols);
        (tile * self.rows_per_tile + row) * self.cols + col
    }

    /// Decomposes a global node index into (tile, row-in-tile, col).
    pub fn decompose(&self, node: usize) -> (usize, usize, usize) {
        let col = node % self.cols;
        let grow = node / self.cols;
        (grow / self.rows_per_tile, grow % self.rows_per_tile, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let p = Placement::new(2, 16, 16);
        assert_eq!(p.num_pes(), 512);
        assert_eq!(p.global_rows(), 32);
        assert_eq!(p.pes_per_tile(), 256);
    }

    #[test]
    fn home_is_round_robin_and_even() {
        let p = Placement::new(2, 4, 4);
        let mut counts = vec![0usize; p.num_pes()];
        for v in 0..320u32 {
            counts[p.home_pe(v)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn node_roundtrip() {
        let p = Placement::new(2, 3, 5);
        for tile in 0..2 {
            for row in 0..3 {
                for col in 0..5 {
                    let n = p.node(tile, row, col);
                    assert_eq!(p.decompose(n), (tile, row, col));
                }
            }
        }
    }

    #[test]
    fn home_pe_is_the_mesh_node_of_its_parts() {
        let p = Placement::new(2, 16, 16);
        for v in [0u32, 1, 17, 255, 256, 511, 512, 1000] {
            let n = p.home_pe(v);
            assert_eq!(n, p.node(p.tile_of(v), p.row_of(v), p.col_of(v)));
            let (t, r, c) = p.decompose(n);
            assert_eq!(t, p.tile_of(v));
            assert_eq!(r, p.row_of(v));
            assert_eq!(c, p.col_of(v));
        }
    }

    #[test]
    fn lane_is_column() {
        let p = Placement::new(2, 16, 16);
        assert_eq!(p.lane_of(35), 35 % 16);
    }
}
