//! Dataset presets matching the paper's evaluation graphs.
//!
//! Table III of the paper lists five evaluation graphs (plus Flickr from
//! Table I used in the motivation study). The originals are SNAP downloads
//! or Graph500 output; this module regenerates synthetic stand-ins with the
//! same vertex/edge budget and degree skew, down-scaled by a configurable
//! factor so cycle-accurate simulation stays tractable (see DESIGN.md,
//! "Substitutions").

use crate::{pargen, Csr, EdgeList, GraphError, VertexId};

/// The family of random model used to synthesize a dataset stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphFamily {
    /// Zipf-degree configuration model (social networks).
    PowerLaw {
        /// Zipf exponent controlling skew; higher is more skewed.
        alpha_milli: u32,
    },
    /// Graph500 R-MAT recursive matrix model.
    Rmat,
}

/// Static description of one paper dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetSpec {
    /// Full dataset name as used in the paper.
    pub name: &'static str,
    /// Two-letter abbreviation used in the paper's figures.
    pub abbrev: &'static str,
    /// Vertex count of the original dataset.
    pub paper_vertices: u64,
    /// Edge count of the original dataset.
    pub paper_edges: u64,
    /// Random model used for the synthetic stand-in.
    pub family: GraphFamily,
}

impl DatasetSpec {
    /// Average degree of the original dataset.
    pub fn paper_avg_degree(&self) -> f64 {
        self.paper_edges as f64 / self.paper_vertices as f64
    }
}

/// The evaluation datasets of Table III plus Flickr (Table I).
///
/// `alpha_milli` values are chosen so the generated degree skew tracks the
/// published maximum-degree/average-degree character of each graph: social
/// follower graphs (LiveJournal, Twitter, Flickr) are more skewed than
/// friendship graphs (Pokec, Orkut).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Dataset {
    /// Flickr photo-sharing network (Table I; motivation experiments).
    Flickr,
    /// Pokec social network (PK).
    Pokec,
    /// LiveJournal follower network (LJ).
    LiveJournal,
    /// Orkut social network (OR).
    Orkut,
    /// Graph500 R-MAT scale-24 graph (RM).
    Rmat24,
    /// Twitter follower graph (TW).
    Twitter,
}

impl Dataset {
    /// All datasets in the order used by the paper's figures.
    pub const ALL: [Dataset; 6] = [
        Dataset::Flickr,
        Dataset::Pokec,
        Dataset::LiveJournal,
        Dataset::Orkut,
        Dataset::Rmat24,
        Dataset::Twitter,
    ];

    /// The five Table III datasets (the overall-performance workloads).
    pub const EVALUATION: [Dataset; 5] = [
        Dataset::Pokec,
        Dataset::LiveJournal,
        Dataset::Orkut,
        Dataset::Rmat24,
        Dataset::Twitter,
    ];

    /// The four Table I graphs used by the motivation study (Figure 4).
    pub const MOTIVATION: [Dataset; 4] = [
        Dataset::Flickr,
        Dataset::Pokec,
        Dataset::LiveJournal,
        Dataset::Orkut,
    ];

    /// Static metadata for this dataset.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            Dataset::Flickr => DatasetSpec {
                name: "Flickr",
                abbrev: "FL",
                paper_vertices: 820_000,
                paper_edges: 9_840_000,
                family: GraphFamily::PowerLaw { alpha_milli: 900 },
            },
            Dataset::Pokec => DatasetSpec {
                name: "Pokec",
                abbrev: "PK",
                paper_vertices: 1_600_000,
                paper_edges: 30_600_000,
                family: GraphFamily::PowerLaw { alpha_milli: 700 },
            },
            Dataset::LiveJournal => DatasetSpec {
                name: "LiveJournal",
                abbrev: "LJ",
                paper_vertices: 4_800_000,
                paper_edges: 68_900_000,
                family: GraphFamily::PowerLaw { alpha_milli: 850 },
            },
            Dataset::Orkut => DatasetSpec {
                name: "Orkut",
                abbrev: "OR",
                paper_vertices: 3_000_000,
                paper_edges: 234_300_000,
                family: GraphFamily::PowerLaw { alpha_milli: 650 },
            },
            Dataset::Rmat24 => DatasetSpec {
                name: "RMAT24",
                abbrev: "RM",
                paper_vertices: 16_700_000,
                paper_edges: 536_800_000,
                family: GraphFamily::Rmat,
            },
            Dataset::Twitter => DatasetSpec {
                name: "Twitter",
                abbrev: "TW",
                paper_vertices: 41_600_000,
                paper_edges: 1_468_400_000,
                family: GraphFamily::PowerLaw { alpha_milli: 950 },
            },
        }
    }

    /// Generates the synthetic stand-in at `1/scale` of the paper size as an
    /// edge list (weights all zero), fanning generation chunks across the
    /// available cores.
    ///
    /// The output is a pure function of `(self, scale, seed)`: generation is
    /// chunked with per-chunk seeded streams ([`crate::pargen`]), so thread
    /// count and scheduling cannot change a single bit —
    /// [`Dataset::edge_list_serial`] produces the identical list on one
    /// thread. Each vertex's adjacency is emitted in canonical ascending
    /// order, which is what the packed container's delta encoder compresses.
    pub fn try_edge_list(&self, scale: u64, seed: u64) -> Result<EdgeList, GraphError> {
        self.edge_list_mode(scale, seed, true)
    }

    /// Panicking convenience wrapper around [`Dataset::try_edge_list`].
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn edge_list(&self, scale: u64, seed: u64) -> EdgeList {
        match self.try_edge_list(scale, seed) {
            Ok(list) => list,
            Err(e) => panic!("invalid dataset request: {e}"),
        }
    }

    /// Single-threaded reference generation: bit-identical to
    /// [`Dataset::edge_list`], using a plain binary search per destination
    /// draw and running every chunk in order on the calling thread. This is
    /// the baseline `bench_datasets` measures the parallel path against.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn edge_list_serial(&self, scale: u64, seed: u64) -> EdgeList {
        match self.edge_list_mode(scale, seed, false) {
            Ok(list) => list,
            Err(e) => panic!("invalid dataset request: {e}"),
        }
    }

    fn edge_list_mode(
        &self,
        scale: u64,
        seed: u64,
        parallel: bool,
    ) -> Result<EdgeList, GraphError> {
        if scale == 0 {
            return Err(GraphError::InvalidScale);
        }
        let spec = self.spec();
        let v = (spec.paper_vertices / scale).max(64) as usize;
        let e = (spec.paper_edges / scale).max(256) as usize;
        let edges = match spec.family {
            GraphFamily::PowerLaw { alpha_milli } => {
                // Cap each vertex's Zipf weight at 0.2% of the uncapped
                // sum, near the hub concentration of the paper-scale
                // originals; renormalising leaves the top hubs above it
                // (0.24-0.48% at 1/2048; same model as
                // generators::power_law_capped, chunk-parallel).
                pargen::power_law_capped_chunked(
                    v,
                    e,
                    alpha_milli as f64 / 1000.0,
                    0.002,
                    seed,
                    parallel,
                )
            }
            GraphFamily::Rmat => {
                // Recurse to the paper's scale-24 depth and fold ids, so
                // the stand-in keeps RMAT24's hub concentration instead of
                // the (far higher) skew of a shallow small R-MAT. Self-loops
                // are dropped and the adjacency canonicalized to sorted
                // order like the power-law path.
                let mut edges =
                    pargen::rmat_folded_chunked(v, e, 0.57, 0.19, 0.19, 24, seed, parallel);
                edges.retain(|ed| ed.src != ed.dst);
                pargen::canonicalize_adjacency(v, edges)
            }
        };
        match EdgeList::from_vec(v, edges) {
            Ok(list) => Ok(list),
            Err(e) => panic!("generator produced out-of-range endpoint: {e}"),
        }
    }

    /// Generates the synthetic stand-in as a CSR graph.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`; use [`Dataset::try_generate`] for a typed
    /// error.
    pub fn generate(&self, scale: u64, seed: u64) -> Csr {
        Csr::from_edge_list(&self.edge_list(scale, seed))
    }

    /// Fallible variant of [`Dataset::generate`].
    pub fn try_generate(&self, scale: u64, seed: u64) -> Result<Csr, GraphError> {
        Ok(Csr::from_edge_list(&self.try_edge_list(scale, seed)?))
    }

    /// Generates a weighted CSR (uniform random weights `0..=255`), the
    /// paper's SSSP configuration.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`; use [`Dataset::try_generate_weighted`] for a
    /// typed error.
    pub fn generate_weighted(&self, scale: u64, seed: u64) -> Csr {
        match self.try_generate_weighted(scale, seed) {
            Ok(g) => g,
            Err(e) => panic!("invalid dataset request: {e}"),
        }
    }

    /// Fallible variant of [`Dataset::generate_weighted`].
    pub fn try_generate_weighted(&self, scale: u64, seed: u64) -> Result<Csr, GraphError> {
        let mut list = self.try_edge_list(scale, seed)?;
        list.randomize_weights(255, seed.wrapping_add(1));
        Ok(Csr::from_edge_list(&list))
    }

    /// A vertex guaranteed to have outgoing edges, used as the BFS/SSSP
    /// root: the highest-out-degree vertex (SNAP evaluations conventionally
    /// root traversals at a hub so the traversal covers most of the graph).
    pub fn pick_root(graph: &Csr) -> VertexId {
        graph
            .vertices()
            .max_by_key(|&v| graph.out_degree(v))
            .unwrap_or(0)
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().abbrev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table_iii() {
        assert_eq!(Dataset::Pokec.spec().paper_vertices, 1_600_000);
        assert_eq!(Dataset::Twitter.spec().paper_edges, 1_468_400_000);
        assert!((Dataset::Orkut.spec().paper_avg_degree() - 78.1).abs() < 1.0);
    }

    #[test]
    fn generate_scales_counts() {
        let g = Dataset::Pokec.generate(1024, 42);
        let spec = Dataset::Pokec.spec();
        assert_eq!(g.num_vertices() as u64, spec.paper_vertices / 1024);
        assert_eq!(g.num_edges() as u64, spec.paper_edges / 1024);
    }

    #[test]
    fn generate_is_deterministic() {
        let a = Dataset::LiveJournal.generate(2048, 7);
        let b = Dataset::LiveJournal.generate(2048, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_variant_has_weights() {
        let g = Dataset::Pokec.generate_weighted(2048, 7);
        assert!(g.is_weighted());
    }

    #[test]
    fn rmat_dataset_generates() {
        let g = Dataset::Rmat24.generate(16384, 3);
        assert!(g.num_edges() > 0);
        assert!(g.edges().all(|e| e.src != e.dst));
    }

    #[test]
    fn pick_root_is_a_hub() {
        let g = Dataset::Pokec.generate(2048, 9);
        let root = Dataset::pick_root(&g);
        let max = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        assert_eq!(g.out_degree(root), max);
        assert!(max > 0);
    }

    #[test]
    fn tiny_scale_clamps() {
        // Absurd scale still yields a non-degenerate graph.
        let g = Dataset::Flickr.generate(u64::MAX, 1);
        assert!(g.num_vertices() >= 64);
        assert!(g.num_edges() >= 1);
    }

    #[test]
    fn display_uses_abbrev() {
        assert_eq!(Dataset::Twitter.to_string(), "TW");
    }

    #[test]
    fn zero_scale_is_a_typed_error() {
        assert_eq!(
            Dataset::Pokec.try_edge_list(0, 1).unwrap_err(),
            GraphError::InvalidScale
        );
        assert_eq!(
            Dataset::Rmat24.try_generate(0, 1).unwrap_err(),
            GraphError::InvalidScale
        );
        assert_eq!(
            Dataset::Twitter.try_generate_weighted(0, 1).unwrap_err(),
            GraphError::InvalidScale
        );
    }

    #[test]
    fn parallel_matches_serial_reference() {
        for ds in [Dataset::Pokec, Dataset::Rmat24] {
            let parallel = ds.edge_list(4096, 11);
            let serial = ds.edge_list_serial(4096, 11);
            assert_eq!(parallel, serial, "{ds} diverged from serial reference");
        }
    }

    #[test]
    fn adjacency_is_canonically_sorted() {
        for ds in [Dataset::LiveJournal, Dataset::Rmat24] {
            let g = ds.generate(8192, 13);
            for v in g.vertices() {
                let nbrs = g.neighbors(v);
                assert!(
                    nbrs.windows(2).all(|w| w[0] <= w[1]),
                    "{ds} vertex {v} adjacency unsorted"
                );
            }
        }
    }
}
