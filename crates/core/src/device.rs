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
use scalagraph_graph::{Csr, Partitioner, VertexId, VertexInterval};

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

        // Split the edges into (slice, tile) CSRs by counting: part
        // `slice * tiles + tile`, read off two per-vertex tables so an edge
        // costs two lookups.
        let tiles = placement.tiles;
        let n = graph.num_vertices();
        let mut dst_part = vec![0usize; n];
        for (slice, iv) in intervals.iter().enumerate() {
            for v in iv.start..iv.end {
                let tile = if by_destination {
                    placement.tile_of(v)
                } else {
                    0
                };
                dst_part[v as usize] = slice * tiles + tile;
            }
        }
        let src_tile: Vec<usize> = if by_destination {
            Vec::new()
        } else {
            (0..n as VertexId).map(|v| placement.tile_of(v)).collect()
        };
        let mut parts = graph.split_edges(intervals.len() * tiles, |src, dst| {
            let part = dst_part[dst as usize];
            if by_destination {
                part
            } else {
                part + src_tile[src as usize]
            }
        });

        let mut lane_aligned_edges = 0usize;
        if config.mapping == Mapping::RowOriented {
            let lane: Vec<usize> = (0..n as VertexId).map(|v| placement.lane_of(v)).collect();
            for csr in &mut parts {
                let stats = degree_aware_relayout(csr, placement.cols, |v| lane[v as usize]);
                lane_aligned_edges += stats.lane_aligned;
            }
        }
        let mut parts = parts.into_iter();
        let slice_tiles = intervals
            .iter()
            .map(|_| parts.by_ref().take(tiles).collect())
            .collect();

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
    use scalagraph_graph::{generators, Edge, EdgeList};
    use std::collections::VecDeque;

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

    /// The K-FIFO re-layout as it was first written: one `VecDeque` per
    /// lane, and a scan of every lane for each stolen edge. Returns the
    /// laid-out CSR and its lane-aligned edge count.
    fn kfifo_relayout(
        graph: &Csr,
        lanes: usize,
        lane_of: impl Fn(VertexId) -> usize,
    ) -> (Csr, usize) {
        let mut perm = Vec::with_capacity(graph.num_edges());
        let mut fifos: Vec<VecDeque<usize>> = vec![VecDeque::new(); lanes];
        let mut aligned = 0;
        for v in graph.vertices() {
            let range = graph.edge_range(v);
            for idx in range.clone() {
                fifos[lane_of(graph.neighbor_at(idx))].push_back(idx);
            }
            let mut emitted = 0;
            while emitted < range.len() {
                for lane in 0..lanes {
                    if emitted >= range.len() {
                        break;
                    }
                    let idx = match fifos[lane].pop_front() {
                        Some(idx) => {
                            aligned += 1;
                            idx
                        }
                        None => (0..lanes)
                            .map(|d| (lane + d) % lanes)
                            .find_map(|l| fifos[l].pop_front())
                            .expect("edges remain"),
                    };
                    perm.push(idx);
                    emitted += 1;
                }
            }
        }
        let neighbors = perm.iter().map(|&i| graph.neighbor_at(i)).collect();
        let weights = graph
            .weight_array()
            .map(|w| perm.iter().map(|&i| w[i]).collect());
        let csr = Csr::from_raw_parts(graph.offsets().to_vec(), neighbors, weights)
            .expect("a permutation within each vertex keeps the CSR well formed");
        (csr, aligned)
    }

    /// `prepare` as it was first written: bucket the edges by (slice, tile)
    /// in CSR order, build each bucket with `Csr::from_edges`, then lay it
    /// out with the K-FIFO re-layout under the row-oriented mapping.
    fn reference_prepare(graph: &Csr, config: &ScalaGraphConfig) -> (Vec<Vec<Csr>>, f64) {
        let p = config.placement;
        let n = graph.num_vertices();
        let intervals = Partitioner::new(config.spd_capacity_vertices)
            .expect("positive capacity")
            .intervals(n);
        let mut buckets = vec![vec![Vec::new(); p.tiles]; intervals.len()];
        for e in graph.edges() {
            let slice = intervals.partition_point(|iv| iv.end <= e.dst);
            let tile = match config.mapping {
                Mapping::SourceOriented => p.tile_of(e.src),
                _ => p.tile_of(e.dst),
            };
            buckets[slice][tile].push(e);
        }
        let mut aligned = 0;
        let csrs = buckets
            .iter()
            .map(|row| {
                row.iter()
                    .map(|edges| {
                        let csr = Csr::from_edges(n, edges);
                        if config.mapping != Mapping::RowOriented {
                            return csr;
                        }
                        let (laid, a) = kfifo_relayout(&csr, p.cols, |v| p.lane_of(v));
                        aligned += a;
                        laid
                    })
                    .collect()
            })
            .collect();
        let alignment = if config.mapping == Mapping::RowOriented {
            aligned as f64 / graph.num_edges() as f64
        } else {
            1.0
        };
        (csrs, alignment)
    }

    #[test]
    fn prepare_equals_the_bucketed_kfifo_layout() {
        let n = 3_000;
        let edges = generators::power_law(n, 40_000, 0.9, 11);
        let unweighted = Csr::from_edges(n, &edges);
        for pes in [32, 512, 1024, 4096] {
            let base = ScalaGraphConfig::with_pes(pes);
            assert_eq!(base.placement.cols, pes / 32);
            // Weighted, with every edge into tile 0 weighing 0: under the
            // destination-keyed mappings tile 0 stores no weights at all.
            let mut list = EdgeList::new(n);
            for e in &edges {
                let w = if base.placement.tile_of(e.dst) == 0 {
                    0
                } else {
                    1 + e.dst % 7
                };
                list.push(Edge::weighted(e.src, e.dst, w));
            }
            let weighted = Csr::from_edge_list(&list);
            for graph in [&unweighted, &weighted] {
                for mapping in Mapping::ALL {
                    for spd in [1_000_000, 1_100] {
                        let mut cfg = base.clone();
                        cfg.mapping = mapping;
                        cfg.spd_capacity_vertices = spd;
                        let d = DeviceGraph::prepare(graph, &cfg);
                        let (want, alignment) = reference_prepare(graph, &cfg);
                        let what = format!("{pes} PEs, {mapping}, SPD {spd}");
                        assert_eq!(d.num_slices(), want.len(), "{what}");
                        assert_eq!(d.num_slices(), if spd < n { 3 } else { 1 }, "{what}");
                        for (s, row) in want.iter().enumerate() {
                            for (t, csr) in row.iter().enumerate() {
                                assert!(d.tile_csr(s, t) == csr, "{what}: slice {s} tile {t}");
                            }
                        }
                        assert_eq!(d.lane_alignment(), alignment, "{what}");
                    }
                }
                if graph.is_weighted() {
                    let d = DeviceGraph::prepare(graph, &base);
                    assert!(!d.tile_csr(0, 0).is_weighted(), "{pes} PEs");
                    assert!(d.tile_csr(0, 1).is_weighted(), "{pes} PEs");
                }
            }
        }
    }
}
