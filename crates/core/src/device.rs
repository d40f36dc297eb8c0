//! Device-resident graph layout: per-tile (and per-slice) edge partitions.
//!
//! Each ScalaGraph tile "processes disjoint graph partitions in its private
//! HBM stack" (Section III-A). Under the row- and destination-oriented
//! mappings the partition key is the *destination* tile (the update must
//! land in the destination tile's scratchpads, so keeping its edges there
//! makes all routing intra-tile); under the source-oriented mapping it is
//! the *source* tile. When the vertex properties exceed the on-chip
//! capacity, each tile partition is further sliced by destination interval
//! as in Graphicionado, and slices are processed round-robin.

use crate::config::ScalaGraphConfig;
use crate::mapping::Mapping;
use scalagraph_graph::relayout::degree_aware_relayout;
use scalagraph_graph::{Csr, Edge, Partitioner, VertexId, VertexInterval};

/// The graph as laid out in device memory for a given configuration.
#[derive(Debug, Clone)]
pub struct DeviceGraph {
    /// `slice_tiles[s][t]` is the CSR holding the edges of slice `s` stored
    /// in tile `t` (full vertex id space, subset of edges).
    slice_tiles: Vec<Vec<Csr>>,
    /// Destination intervals of the slices.
    intervals: Vec<VertexInterval>,
    /// Total edges across all partitions.
    total_edges: usize,
    /// Fraction of edges lane-aligned after the degree-aware re-layout
    /// (1.0 when the re-layout was not applied).
    lane_alignment: f64,
}

impl DeviceGraph {
    /// Partitions and lays out `graph` for `config`.
    pub fn prepare(graph: &Csr, config: &ScalaGraphConfig) -> Self {
        let placement = config.placement;
        // ROM and DOM keep an edge with its *destination's* tile so the
        // update lands in a local scratchpad after intra-tile routing only
        // (routing latency ~6 cycles, matching the paper's 5.9); SOM keeps
        // the natural source-major split.
        let by_destination = config.mapping != Mapping::SourceOriented;

        let partitioner = match Partitioner::new(config.spd_capacity_vertices) {
            Ok(p) => p,
            // Entry points run `ScalaGraphConfig::validate` first, which
            // rejects a zero SPD capacity before we get here.
            Err(e) => panic!("config validated a positive SPD capacity: {e}"),
        };
        let intervals = if graph.num_vertices() == 0 {
            vec![VertexInterval { start: 0, end: 0 }]
        } else {
            partitioner.intervals(graph.num_vertices())
        };

        let tiles = placement.tiles;
        // Bucket edges into (slice, tile).
        let mut buckets: Vec<Vec<Vec<Edge>>> = vec![vec![Vec::new(); tiles]; intervals.len()];
        let slice_of = |dst: VertexId| -> usize {
            // Intervals are sorted and contiguous; binary search by end.
            intervals.partition_point(|iv| iv.end <= dst)
        };
        for e in graph.edges() {
            let tile = if by_destination {
                placement.tile_of(e.dst)
            } else {
                placement.tile_of(e.src)
            };
            buckets[slice_of(e.dst)][tile].push(e);
        }

        let mut lane_aligned_edges = 0usize;
        let mut slice_tiles = Vec::with_capacity(intervals.len());
        for per_tile in buckets {
            let mut row = Vec::with_capacity(tiles);
            for edges in per_tile {
                let mut csr = Csr::from_edges(graph.num_vertices(), &edges);
                if config.mapping == Mapping::RowOriented {
                    let stats =
                        degree_aware_relayout(&mut csr, placement.cols, |v| placement.lane_of(v));
                    lane_aligned_edges += stats.lane_aligned;
                }
                row.push(csr);
            }
            slice_tiles.push(row);
        }

        DeviceGraph {
            slice_tiles,
            intervals,
            total_edges: graph.num_edges(),
            lane_alignment: if graph.num_edges() == 0 {
                1.0
            } else if config.mapping == Mapping::RowOriented {
                lane_aligned_edges as f64 / graph.num_edges() as f64
            } else {
                1.0
            },
        }
    }

    /// Number of destination slices.
    pub fn num_slices(&self) -> usize {
        self.slice_tiles.len()
    }

    /// Destination interval of slice `s`.
    pub fn interval(&self, s: usize) -> VertexInterval {
        self.intervals[s]
    }

    /// CSR of the edges in slice `s` stored by tile `t`.
    pub fn tile_csr(&self, s: usize, t: usize) -> &Csr {
        &self.slice_tiles[s][t]
    }

    /// Out-degree of `v` within slice `s`, tile `t`.
    pub fn degree_in(&self, s: usize, t: usize, v: VertexId) -> usize {
        self.slice_tiles[s][t].out_degree(v)
    }

    /// Total edge count across all partitions (equals the input graph's).
    pub fn total_edges(&self) -> usize {
        self.total_edges
    }

    /// Lane-alignment fraction achieved by the offline re-layout.
    pub fn lane_alignment(&self) -> f64 {
        self.lane_alignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScalaGraphConfig;
    use scalagraph_graph::generators;

    fn small_config() -> ScalaGraphConfig {
        let mut c = ScalaGraphConfig::with_pes(32);
        c.spd_capacity_vertices = 1_000_000;
        c
    }

    #[test]
    fn partitions_cover_all_edges() {
        let g = Csr::from_edges(300, &generators::uniform(300, 4000, 1));
        let cfg = small_config();
        let d = DeviceGraph::prepare(&g, &cfg);
        assert_eq!(d.num_slices(), 1);
        let sum: usize = (0..cfg.placement.tiles)
            .map(|t| d.tile_csr(0, t).num_edges())
            .sum();
        assert_eq!(sum, g.num_edges());
        assert_eq!(d.total_edges(), g.num_edges());
    }

    #[test]
    fn rom_partitions_by_destination_tile() {
        let g = Csr::from_edges(100, &generators::uniform(100, 1000, 2));
        let cfg = small_config();
        let d = DeviceGraph::prepare(&g, &cfg);
        for t in 0..cfg.placement.tiles {
            for e in d.tile_csr(0, t).edges() {
                assert_eq!(cfg.placement.tile_of(e.dst), t);
            }
        }
        assert!(d.lane_alignment() > 0.0);
    }

    #[test]
    fn dom_partitions_by_destination_tile() {
        let g = Csr::from_edges(100, &generators::uniform(100, 1000, 2));
        let mut cfg = small_config();
        cfg.mapping = Mapping::DestinationOriented;
        let d = DeviceGraph::prepare(&g, &cfg);
        for t in 0..cfg.placement.tiles {
            for e in d.tile_csr(0, t).edges() {
                assert_eq!(cfg.placement.tile_of(e.dst), t);
            }
        }
    }

    #[test]
    fn som_partitions_by_source_tile() {
        let g = Csr::from_edges(100, &generators::uniform(100, 1000, 3));
        let mut cfg = small_config();
        cfg.mapping = Mapping::SourceOriented;
        let d = DeviceGraph::prepare(&g, &cfg);
        for t in 0..cfg.placement.tiles {
            for e in d.tile_csr(0, t).edges() {
                assert_eq!(cfg.placement.tile_of(e.src), t);
            }
        }
        assert_eq!(d.lane_alignment(), 1.0, "no re-layout outside ROM");
    }

    #[test]
    fn slicing_respects_intervals() {
        let g = Csr::from_edges(100, &generators::uniform(100, 2000, 4));
        let mut cfg = small_config();
        cfg.spd_capacity_vertices = 30;
        let d = DeviceGraph::prepare(&g, &cfg);
        assert!(d.num_slices() >= 4);
        let mut total = 0;
        for s in 0..d.num_slices() {
            let iv = d.interval(s);
            for t in 0..cfg.placement.tiles {
                for e in d.tile_csr(s, t).edges() {
                    assert!(iv.contains(e.dst));
                }
                total += d.tile_csr(s, t).num_edges();
            }
        }
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn empty_graph_prepares() {
        let g = Csr::from_edges(0, &[]);
        let d = DeviceGraph::prepare(&g, &small_config());
        assert_eq!(d.total_edges(), 0);
        assert_eq!(d.lane_alignment(), 1.0);
    }

    #[test]
    fn weights_survive_partitioning() {
        let mut list = scalagraph_graph::EdgeList::new(50);
        for i in 0..49u32 {
            list.push(Edge::weighted(i, i + 1, i + 7));
        }
        let g = Csr::from_edge_list(&list);
        let d = DeviceGraph::prepare(&g, &small_config());
        let mut seen = 0;
        for t in 0..2 {
            for e in d.tile_csr(0, t).edges() {
                assert_eq!(e.weight, e.src + 7);
                seen += 1;
            }
        }
        assert_eq!(seen, 49);
    }
}
