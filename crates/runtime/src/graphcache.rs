//! Immutable graph cache with single-flight construction.
//!
//! Building a CSR is the most expensive prefix of every job: a thousand
//! queued scenarios on the same three graph families must not build a
//! thousand graphs. The cache maps a [`GraphSpec`] — a pure description of
//! the generator, its seeds, and its post-processing — to the `Arc<Csr>` it
//! builds. Soundness rests on two facts:
//!
//! * generation is a **pure function** of the spec (same spec, same bytes),
//!   so a cached graph is indistinguishable from a fresh build;
//! * the cached CSR is **immutable** — every consumer holds a shared `Arc`
//!   and the simulator never mutates its input graph.
//!
//! The cache is a [`FlightCache`]: the first caller of a spec builds it
//! outside the lock while concurrent callers of the same spec wait for the
//! published `Arc`. Deterministic build failures are published too, so a
//! storm of identical malformed specs fails fast instead of re-deriving
//! the same error. A build that panics publishes nothing: its flight is
//! abandoned and the next caller of the spec builds anew.
//!
//! Eviction is LRU over **resident bytes** (each finished graph's actual
//! CSR heap size; a cached failure weighs nothing) with a secondary
//! bounded entry count, so one paper-scale graph cannot silently pin N×
//! memory behind an entry-count-only policy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scalagraph_conformance::{GraphSpec, Scenario};
use scalagraph_graph::mutate::Mutation;
use scalagraph_graph::Csr;

use crate::flightcache::{Flight, FlightCache};

/// The graph cache's default resident-byte budget, 2 GiB: it admits every
/// dataset preset up to symmetrized LiveJournal/1 (about 1.18 GB by
/// [`estimated_graph_bytes`]).
pub const DEFAULT_GRAPH_CACHE_BYTES: u64 = 2 << 30;

/// Estimated resident bytes of the CSR a [`GraphSpec`] builds, derived
/// from the generator parameters alone (nothing is built): ~16 bytes of
/// per-vertex bookkeeping (offsets, in-degrees, property slots) plus 8
/// bytes per directed edge (destination + weight), doubled when the spec
/// symmetrizes. Saturates at `u64::MAX` rather than wrapping, so no size
/// can pass for a small one.
pub fn estimated_graph_bytes(spec: &GraphSpec) -> u64 {
    let directed = (spec.family.edges() as u64).saturating_mul(if spec.symmetrize { 2 } else { 1 });
    csr_bytes(spec.family.vertices() as u64, directed)
}

/// Estimated bytes of the largest graph a scenario runs on, from its
/// parameters alone. Without a mutation schedule this is
/// [`estimated_graph_bytes`]. With one, it is the largest graph the
/// schedule can reach (the base graph plus every batch's vertex adds and
/// edge inserts, none of its removals) plus one materialized batch.
///
/// This is one graph's resident size, not the job's peak: the replay
/// works on a copy of the cached base graph, and each batch's apply holds
/// the old and the new CSR at once, so a replay briefly holds about twice
/// this estimate beside the cached base. Saturates like
/// [`estimated_graph_bytes`].
pub fn estimated_scenario_bytes(scenario: &Scenario) -> u64 {
    let base = estimated_graph_bytes(&scenario.graph);
    let Some(m) = scenario.mutations else {
        return base;
    };
    let batches = u64::from(m.batches);
    let growth = csr_bytes(
        batches.saturating_mul(u64::from(m.add_vertices)),
        batches.saturating_mul(u64::from(m.insert_edges)),
    );
    let ops = [
        m.add_vertices,
        m.remove_edges,
        m.isolate_vertices,
        m.insert_edges,
    ]
    .into_iter()
    .fold(0u64, |sum, count| sum.saturating_add(u64::from(count)));
    base.saturating_add(growth)
        .saturating_add(ops.saturating_mul(size_of::<Mutation>() as u64))
}

/// ~16 bytes per vertex and 8 per directed edge; see
/// [`estimated_graph_bytes`].
fn csr_bytes(vertices: u64, directed_edges: u64) -> u64 {
    vertices
        .saturating_mul(16)
        .saturating_add(directed_edges.saturating_mul(8))
}

/// Counters describing the cache's behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphCacheStats {
    /// Graphs actually constructed (successful builds).
    pub builds: u64,
    /// Requests served from a cached graph or failure (including waiters
    /// that joined an in-flight build).
    pub hits: u64,
    /// Requests that had to trigger a build.
    pub misses: u64,
    /// Entries evicted by the LRU policy, failed builds included.
    pub evictions: u64,
    /// Actual resident bytes of currently cached graphs (sum of each
    /// cached CSR's heap footprint).
    pub resident_bytes: u64,
    /// Configured resident-byte budget; 0 when the cache is unbounded.
    pub byte_budget: u64,
}

/// A spec's build: the graph, or the error every later fetch repeats.
type Built = Result<Arc<Csr>, String>;

/// A bounded, thread-safe, single-flight cache of immutable CSR graphs.
pub struct GraphCache {
    flights: FlightCache<GraphSpec, Built>,
    builds: AtomicU64,
}

/// What [`GraphCache::fetch`] resolved.
#[derive(Debug)]
pub struct Fetched {
    /// The (shared, immutable) graph.
    pub graph: Arc<Csr>,
    /// Whether *this* call performed the build. `false` for both plain
    /// cache hits and waiters that joined another caller's in-flight build.
    pub built: bool,
}

impl GraphCache {
    /// A cache holding at most `capacity` finished entries (minimum 1),
    /// with no resident-byte budget.
    pub fn new(capacity: usize) -> Self {
        GraphCache::with_byte_budget(capacity, 0)
    }

    /// A cache bounded by both a finished-entry count and a resident-byte
    /// budget: eviction runs until both constraints hold (the entry just
    /// published is never evicted, so a single over-budget graph still
    /// serves its own fetch). A `byte_budget` of 0 means no budget. The
    /// executor refuses any job whose [`estimated_scenario_bytes`] exceed
    /// the budget, before fetching.
    pub fn with_byte_budget(capacity: usize, byte_budget: u64) -> Self {
        GraphCache {
            flights: FlightCache::with_byte_budget(capacity, byte_budget, |built| {
                built.as_ref().map_or(0, |graph| graph.storage_bytes())
            }),
            builds: AtomicU64::new(0),
        }
    }

    /// A cache with the default capacity (64 graphs, unbounded bytes).
    pub fn with_default_capacity() -> Self {
        GraphCache::new(64)
    }

    /// The configured resident-byte budget (`u64::MAX` when unbounded).
    pub fn byte_budget(&self) -> u64 {
        self.flights.byte_budget()
    }

    /// Actual bytes currently held by finished graphs.
    pub fn resident_bytes(&self) -> u64 {
        self.flights.resident_bytes()
    }

    /// Resolves `spec` to its graph, building it at most once per cached
    /// lifetime no matter how many threads ask concurrently.
    ///
    /// # Errors
    ///
    /// The build error of an unusable spec (propagated to every caller,
    /// including waiters of the failing flight).
    pub fn fetch(&self, spec: &GraphSpec) -> Result<Fetched, String> {
        let (built, fresh) = match self.flights.begin(spec.clone()) {
            Flight::Hit(built) => (built, false),
            // A build that panics unwinds past `flight`, whose drop hands
            // the spec to the next caller.
            Flight::Miss(flight) => {
                let built = spec.build().map(Arc::new);
                if built.is_ok() {
                    self.builds.fetch_add(1, Ordering::Relaxed);
                }
                (flight.publish(built), true)
            }
        };
        built.map(|graph| Fetched {
            graph,
            built: fresh,
        })
    }

    /// Point-in-time counters (plus the configured byte budget, reported
    /// as 0 when unbounded).
    pub fn stats(&self) -> GraphCacheStats {
        let flights = self.flights.stats();
        GraphCacheStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: flights.hits,
            misses: flights.misses,
            evictions: flights.evictions,
            resident_bytes: self.flights.resident_bytes(),
            byte_budget: match self.flights.byte_budget() {
                u64::MAX => 0,
                budget => budget,
            },
        }
    }

    /// Finished entries currently cached.
    pub fn len(&self) -> usize {
        self.flights.len()
    }

    /// Whether the cache holds no finished entry.
    pub fn is_empty(&self) -> bool {
        self.flights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalagraph_conformance::scenario::Family;
    use scalagraph_conformance::{GraphSource, MutationSpec};

    fn spec(seed: u64) -> GraphSpec {
        GraphSpec {
            family: Family::Uniform {
                vertices: 64,
                edges: 256,
                seed,
            },
            symmetrize: false,
            max_weight: 0,
            weight_seed: 0,
            source: GraphSource::Generate,
        }
    }

    #[test]
    fn second_fetch_is_a_hit_on_the_same_arc() {
        let cache = GraphCache::new(8);
        let first = cache.fetch(&spec(1)).unwrap();
        assert!(first.built);
        let second = cache.fetch(&spec(1)).unwrap();
        assert!(!second.built);
        assert!(Arc::ptr_eq(&first.graph, &second.graph), "same allocation");
        let stats = cache.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn distinct_specs_build_distinct_graphs() {
        let cache = GraphCache::new(8);
        cache.fetch(&spec(1)).unwrap();
        cache.fetch(&spec(2)).unwrap();
        let mut weighted = spec(1);
        weighted.max_weight = 255;
        cache.fetch(&weighted).unwrap();
        assert_eq!(cache.stats().builds, 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn concurrent_fetches_of_one_spec_build_exactly_once() {
        let cache = GraphCache::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| scope.spawn(|| cache.fetch(&spec(7)).unwrap()))
                .collect();
            let fetched: Vec<Fetched> = handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect();
            assert_eq!(
                fetched.iter().filter(|f| f.built).count(),
                1,
                "single-flight: exactly one builder"
            );
            for f in &fetched {
                assert!(Arc::ptr_eq(&f.graph, &fetched[0].graph));
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 15);
    }

    #[test]
    fn lru_eviction_keeps_the_capacity_and_counts() {
        let cache = GraphCache::new(2);
        cache.fetch(&spec(1)).unwrap();
        cache.fetch(&spec(2)).unwrap();
        cache.fetch(&spec(1)).unwrap(); // touch 1 so 2 is the LRU victim
        cache.fetch(&spec(3)).unwrap();
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        // Spec 1 survived; fetching it again is a hit, spec 2 rebuilds.
        assert!(!cache.fetch(&spec(1)).unwrap().built);
        assert!(cache.fetch(&spec(2)).unwrap().built);
    }

    #[test]
    fn deterministic_build_failures_are_cached_and_propagate() {
        let cache = GraphCache::new(8);
        let bad = GraphSpec {
            family: Family::Path { vertices: 1 },
            symmetrize: false,
            max_weight: 0,
            weight_seed: 0,
            source: GraphSource::Generate,
        };
        let first = cache.fetch(&bad).unwrap_err();
        assert!(first.contains("at least 2"), "{first}");
        let second = cache.fetch(&bad).unwrap_err();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.builds, 0, "failures never count as builds");
        assert_eq!(stats.misses, 1, "the failure is cached after one try");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn eviction_accounts_resident_bytes() {
        let cache = GraphCache::new(1);
        cache.fetch(&spec(1)).unwrap();
        let full = cache.stats().resident_bytes;
        cache.fetch(&spec(2)).unwrap();
        assert_eq!(
            cache.stats().resident_bytes,
            full,
            "one evicted, one inserted, same family size"
        );
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn resident_bytes_are_actual_csr_heap_sizes() {
        let cache = GraphCache::new(8);
        let a = cache.fetch(&spec(1)).unwrap();
        let b = cache.fetch(&spec(2)).unwrap();
        assert_eq!(
            cache.resident_bytes(),
            a.graph.storage_bytes() + b.graph.storage_bytes()
        );
    }

    #[test]
    fn byte_budget_evicts_even_under_entry_capacity() {
        // Budget fits exactly one of these graphs; entry capacity is ample.
        let probe = spec(1).build().unwrap().storage_bytes();
        let cache = GraphCache::with_byte_budget(64, probe + probe / 2);
        cache.fetch(&spec(1)).unwrap();
        cache.fetch(&spec(2)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1, "byte budget forced an eviction");
        assert!(stats.resident_bytes <= probe + probe / 2);
        assert_eq!(cache.len(), 1);
        // The newest entry survived.
        assert!(!cache.fetch(&spec(2)).unwrap().built);
    }

    #[test]
    fn oversized_graph_still_serves_its_own_fetch() {
        let cache = GraphCache::with_byte_budget(8, 1);
        let f = cache.fetch(&spec(1)).unwrap();
        assert!(f.built);
        assert_eq!(f.graph.num_vertices(), 64);
        // The next publication evicts it (it is no longer `keep`).
        cache.fetch(&spec(2)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn a_zero_byte_budget_means_no_budget() {
        let cache = GraphCache::with_byte_budget(8, 0);
        assert_eq!(cache.byte_budget(), u64::MAX);
        assert_eq!(cache.stats().byte_budget, 0);
        cache.fetch(&spec(1)).unwrap();
        cache.fetch(&spec(2)).unwrap();
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn an_unholdable_build_is_a_cached_typed_error() {
        // 2^62 edges cannot be reserved: the build fails typed, before any
        // generator runs, and the failure is cached like any result.
        let mut huge = spec(1);
        huge.family = Family::Uniform {
            vertices: 2,
            edges: 1 << 62,
            seed: 1,
        };
        let cache = GraphCache::new(8);
        let Err(err) = cache.fetch(&huge) else {
            panic!("the build fails");
        };
        assert!(err.contains("cannot hold"), "{err}");
        assert_eq!(cache.fetch(&huge).err(), Some(err), "served from the cache");
        assert_eq!(cache.stats().builds, 0);
        assert!(
            cache.fetch(&spec(2)).unwrap().built,
            "other specs still build"
        );
    }

    #[test]
    fn a_schedule_estimates_its_largest_graph_plus_one_batch() {
        let mut s = crate::test_support::healthy("schedule");
        assert_eq!(
            estimated_scenario_bytes(&s),
            estimated_graph_bytes(&s.graph)
        );
        // The corpus's two dynamic scenarios, under the batch soak's
        // 20,000-byte budget.
        let corpus = |name: &str| {
            let path = format!("{}/../../corpus/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(path).expect("corpus file reads");
            Scenario::from_json_str(&text).expect("corpus file parses")
        };
        let bfs = corpus("dynamic-churn-bfs-repair");
        assert_eq!(
            estimated_scenario_bytes(&bfs),
            (256 + 4 * 2) * 16 + (1024 + 4 * 24) * 8 + (2 + 24 + 1 + 24) * 16
        );
        assert_eq!(estimated_scenario_bytes(&bfs), 14_000);
        let pagerank = corpus("dynamic-delta-pagerank-divergence");
        assert_eq!(estimated_scenario_bytes(&pagerank), 6_832);
        // Counts whose products wrap a u64 estimate as the largest size.
        s.mutations = Some(MutationSpec {
            batches: u32::MAX,
            insert_edges: u32::MAX,
            remove_edges: u32::MAX,
            add_vertices: u32::MAX,
            isolate_vertices: u32::MAX,
            seed: 1,
        });
        assert_eq!(estimated_scenario_bytes(&s), u64::MAX);
    }

    #[test]
    fn estimate_scales_with_symmetrization_and_saturates() {
        let mut s = spec(1);
        s.family = Family::Uniform {
            vertices: 100,
            edges: 500,
            seed: 1,
        };
        assert_eq!(estimated_graph_bytes(&s), 100 * 16 + 500 * 8);
        s.symmetrize = true;
        assert_eq!(estimated_graph_bytes(&s), 100 * 16 + 1000 * 8);
        // Sizes whose product wraps a u64 estimate as the largest one,
        // never as a small graph.
        s.family = Family::Uniform {
            vertices: 2,
            edges: 1 << 63,
            seed: 1,
        };
        assert_eq!(estimated_graph_bytes(&s), u64::MAX);
        s.family = Family::Grid {
            rows: (1 << 62) + 1,
            cols: 4,
        };
        assert_eq!(estimated_graph_bytes(&s), u64::MAX);
    }
}
