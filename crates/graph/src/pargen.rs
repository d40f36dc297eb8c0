//! Deterministic chunked generation: the one implementation of each
//! random graph model.
//!
//! A generator that threads one RNG through every edge makes its output
//! order its execution order, so nothing can run concurrently without
//! changing the graph. This module instead draws from **per-chunk seeded
//! SplitMix64 streams**: the work is cut into fixed-size chunks (by vertex
//! range for the power-law model, by edge range for R-MAT), each chunk
//! draws from its own stream seeded by `(seed, chunk index)`, and the merge
//! is a plain concatenation in chunk order. The output is therefore a pure
//! function of `(spec, seed)` — independent of thread count, scheduling,
//! and even of whether the chunks ran in parallel at all — which is what
//! lets [`crate::datasets::Dataset::edge_list`] fan out over scoped threads
//! while staying bit-identical to the sequential reference
//! ([`Dataset::edge_list_serial`](crate::datasets::Dataset::edge_list_serial))
//! and to the serial [`crate::generators`] entry points.
//!
//! The parallel path also replaces the per-edge binary search over the
//! Zipf CDF (~log2(V) cache-missing probes per edge) with a quantized
//! inverse-CDF bucket table that narrows each search to a handful of
//! entries. The bucket bounds are conservative, so the final
//! `partition_point` answers exactly as the full search would — the
//! speedup changes no bits, and compounds with the thread fan-out.
//!
//! Dataset adjacency is emitted in **canonical sorted order** (each
//! vertex's neighbors ascending): the packed container's delta+varint
//! encoder feeds on sorted runs, and a canonical order makes "the graph
//! for `(dataset, scale, seed)`" a well-defined artifact to pack, cache,
//! and compare across processes.

use crate::rng::{SplitMix64, TAG_DST, TAG_LEFTOVER, TAG_PERM, TAG_RMAT};
use crate::{Edge, VertexId};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Vertices per power-law chunk. Small enough that even the 64-vertex
/// clamped presets split across cores, large enough that per-chunk stream
/// setup is noise.
const CHUNK_VERTICES: usize = 4096;

/// Edges per R-MAT chunk.
const CHUNK_EDGES: usize = 1 << 16;

/// Quantization of the inverse-CDF bucket table for a CDF of `n` entries.
/// Always a power of two so the `r * Q` bucket mapping is exact in f64.
/// Scaling with `n` (~4 entries per bucket) keeps the window scan at one
/// or two cache lines even for the full multi-million-vertex presets —
/// a fixed table that is comfortable at Pokec scale leaves ~40-entry
/// windows at LiveJournal scale and gives back most of the win. Clamped
/// to 2^22 buckets (16 MiB of table) above ~16M vertices.
fn rank_buckets(n: usize) -> usize {
    (n / 4).next_power_of_two().clamp(1 << 17, 1 << 22)
}

/// Worker count: `SCALAGRAPH_THREADS` when set to a positive integer,
/// otherwise every available core. Shared by dataset generation and the
/// bench sweeps.
pub fn default_threads() -> usize {
    let from_env = std::env::var("SCALAGRAPH_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    from_env.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `gen(chunk)` for every chunk and returns the results in chunk
/// order: the workspace's one ordered parallel map. Up to `threads` scoped
/// workers claim chunk indices from an atomic counter; `threads <= 1` runs
/// the chunks in order on the caller's thread. A panic in `gen` resumes on
/// the caller. When each chunk is a pure function of its index (as every
/// self-seeded generation chunk is), the output is identical either way.
pub fn run_chunks<T, F>(num_chunks: usize, threads: usize, gen: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(num_chunks.max(1));
    if threads <= 1 || num_chunks <= 1 {
        return (0..num_chunks).map(gen).collect();
    }
    let mut slots: Vec<Option<T>> = (0..num_chunks).map(|_| None).collect();
    let next = &AtomicUsize::new(0);
    let gen = &gen;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            return out;
                        }
                        out.push((c, gen(c)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(results) => {
                    for (c, r) in results {
                        slots[c] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|s| match s {
            Some(r) => r,
            // Every chunk index is claimed exactly once; a hole means a
            // worker vanished without panicking, which cannot happen.
            None => unreachable!("generation chunk left unfilled"),
        })
        .collect()
}

/// Conservative bucket table over a non-decreasing CDF: `buckets[q]` is
/// `partition_point(cdf, |c| c < q / Q)`, so a draw `r` with bucket
/// `q = floor(r * Q)` can only land in `buckets[q] ..= buckets[q + 1]`.
struct RankTable {
    buckets: Vec<u32>,
}

impl RankTable {
    fn build(cdf: &[f64]) -> RankTable {
        let q = rank_buckets(cdf.len());
        let mut buckets = Vec::with_capacity(q + 1);
        let mut rank = 0usize;
        for b in 0..=q {
            let threshold = b as f64 / q as f64;
            while rank < cdf.len() && cdf[rank] < threshold {
                rank += 1;
            }
            buckets.push(rank as u32);
        }
        RankTable { buckets }
    }

    /// Exactly `cdf.partition_point(|&c| c < r)`, via the bucket bounds.
    /// This is the one-sample spec of what the staged pipeline in
    /// [`sample_destinations_batched`] computes; the equivalence test
    /// below pins them to the plain binary search.
    #[cfg(test)]
    fn rank_of(&self, cdf: &[f64], r: f64) -> usize {
        let q = self.buckets.len() - 1;
        let b = ((r * q as f64) as usize).min(q - 1);
        let lo = self.buckets[b] as usize;
        let hi = self.buckets[b + 1] as usize;
        lo + cdf[lo..hi].partition_point(|&c| c < r)
    }
}

/// Hint `addr` into cache on x86-64; a no-op elsewhere. The sampling
/// pipeline below issues these one pass ahead of the loads they feed.
#[inline(always)]
fn prefetch<T>(addr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch instructions perform no memory access and are
    // architecturally valid for any address, mapped or not.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(addr.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

/// One vertex's destination sampling via the bucket table, staged in
/// fixed-size batches. Each sample needs three data-dependent lookups —
/// bucket table, CDF window, rank permutation — and at full LiveJournal
/// scale each structure is tens of megabytes, so the naive per-sample
/// chain serializes three cache misses per edge. Splitting a batch into
/// one pass per stage (each pass prefetching the next pass's lines) lets
/// the misses of ~[`SAMPLE_BATCH`] samples resolve in parallel. Draw
/// order from `rng` and every computed value are identical to the naive
/// loop, so output stays bit-identical to the serial reference.
const SAMPLE_BATCH: usize = 64;

fn sample_destinations_batched(
    table: &RankTable,
    cdf: &[f64],
    perm: &[VertexId],
    src: usize,
    degree: u32,
    rng: &mut SplitMix64,
    buf: &mut Vec<VertexId>,
) {
    let n = cdf.len();
    let q = table.buckets.len() - 1;
    let mut rs = [0f64; SAMPLE_BATCH];
    // `ranks` holds the bucket index until pass three overwrites it with
    // the resolved rank.
    let mut ranks = [0usize; SAMPLE_BATCH];
    let mut windows = [(0u32, 0u32); SAMPLE_BATCH];
    let mut left = degree as usize;
    while left > 0 {
        let batch = left.min(SAMPLE_BATCH);
        for k in 0..batch {
            let r = rng.next_f64();
            rs[k] = r;
            let b = ((r * q as f64) as usize).min(q - 1);
            ranks[k] = b;
            prefetch(&table.buckets[b]);
        }
        for k in 0..batch {
            let b = ranks[k];
            windows[k] = (table.buckets[b], table.buckets[b + 1]);
            prefetch(&cdf[windows[k].0 as usize]);
        }
        for k in 0..batch {
            let (lo, hi) = (windows[k].0 as usize, windows[k].1 as usize);
            let rank = (lo + cdf[lo..hi].partition_point(|&c| c < rs[k])).min(n - 1);
            ranks[k] = rank;
            prefetch(&perm[rank]);
        }
        for k in 0..batch {
            let mut dst = perm[ranks[k]];
            if dst as usize == src {
                dst = ((src + 1) % n) as VertexId;
            }
            buf.push(dst);
        }
        left -= batch;
    }
}

/// Chunk-parallel capped power-law configuration model, behind
/// [`crate::generators::power_law_capped`]: Zipf out-degrees over a
/// shuffled rank permutation, preferential destinations through the Zipf
/// inverse CDF, each rank's weight capped at `max_share` of the uncapped
/// sum before the weights are renormalised (so a capped vertex's final
/// share exceeds `max_share`), driven by per-chunk streams, with each
/// vertex's adjacency emitted sorted.
///
/// `parallel == false` is the sequential reference (plain binary search,
/// chunks run in order on the caller's thread); `parallel == true` fans
/// chunks over scoped threads and uses the bucket table. Both produce
/// bit-identical output for the same arguments.
pub(crate) fn power_law_capped_chunked(
    num_vertices: usize,
    num_edges: usize,
    alpha: f64,
    max_share: f64,
    seed: u64,
    parallel: bool,
) -> Vec<Edge> {
    assert!(
        max_share > 0.0 && max_share <= 1.0,
        "share must be in (0, 1]"
    );
    if num_vertices == 0 || num_edges == 0 {
        return Vec::new();
    }
    let n = num_vertices;

    // Rank -> vertex permutation (hub ids must not cluster at 0).
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = SplitMix64::stream(seed, TAG_PERM, 0);
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }

    // Capped Zipf weights by rank; the CDF drives destination sampling.
    let uncapped: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(alpha)).sum();
    let cap = max_share * uncapped;
    let mut total = 0f64;
    let weight_of_rank = |rank: usize| (1.0 / ((rank + 1) as f64).powf(alpha)).min(cap);
    for rank in 0..n {
        total += weight_of_rank(rank);
    }
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0f64;
    for rank in 0..n {
        acc += weight_of_rank(rank);
        cdf.push(acc / total);
    }

    // Integer out-degrees: floor of the proportional share, remainder
    // sprinkled from its own stream so the total is exact.
    let mut degrees = vec![0u32; n];
    let mut assigned = 0usize;
    for rank in 0..n {
        let d = ((weight_of_rank(rank) / total) * num_edges as f64).floor() as usize;
        degrees[perm[rank] as usize] = d as u32;
        assigned += d;
    }
    let mut leftover_rng = SplitMix64::stream(seed, TAG_LEFTOVER, 0);
    while assigned < num_edges {
        degrees[leftover_rng.next_below(n as u64) as usize] += 1;
        assigned += 1;
    }

    // Edge starts per chunk (for exact preallocation).
    let num_chunks = n.div_ceil(CHUNK_VERTICES);
    let table = if parallel {
        Some(RankTable::build(&cdf))
    } else {
        None
    };
    let threads = if parallel { default_threads() } else { 1 };
    let chunks = run_chunks(num_chunks, threads, |c| {
        let lo = c * CHUNK_VERTICES;
        let hi = (lo + CHUNK_VERTICES).min(n);
        let chunk_edges: usize = degrees[lo..hi].iter().map(|&d| d as usize).sum();
        let mut rng = SplitMix64::stream(seed, TAG_DST, c as u64);
        let mut out = Vec::with_capacity(chunk_edges);
        let mut buf: Vec<VertexId> = Vec::new();
        for (src, &degree) in degrees.iter().enumerate().take(hi).skip(lo) {
            buf.clear();
            match &table {
                Some(t) => {
                    sample_destinations_batched(t, &cdf, &perm, src, degree, &mut rng, &mut buf)
                }
                // The sequential reference: the plain per-sample binary
                // search this path has always used.
                None => {
                    for _ in 0..degree {
                        let r = rng.next_f64();
                        let rank = cdf.partition_point(|&c| c < r).min(n - 1);
                        let mut dst = perm[rank];
                        if dst as usize == src {
                            dst = ((src + 1) % n) as VertexId;
                        }
                        buf.push(dst);
                    }
                }
            }
            buf.sort_unstable();
            out.extend(buf.iter().map(|&d| Edge::new(src as VertexId, d)));
        }
        out
    });
    let mut edges = Vec::with_capacity(num_edges);
    for chunk in chunks {
        edges.extend_from_slice(&chunk);
    }
    edges
}

/// Chunk-parallel R-MAT in a folded deep-id space, behind
/// [`crate::generators::rmat_with_depth`]: each edge descends `depth`
/// quadrant levels and folds its endpoints below `num_vertices`. Chunks
/// cover fixed edge-index ranges, so the merge is concatenation. May emit
/// self-loops (Graph500 output has them too); callers filter as needed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rmat_folded_chunked(
    num_vertices: usize,
    num_edges: usize,
    a: f64,
    b: f64,
    c: f64,
    depth: u32,
    seed: u64,
    parallel: bool,
) -> Vec<Edge> {
    assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0 + 1e-12);
    if num_vertices == 0 || num_edges == 0 {
        return Vec::new();
    }
    let scale = depth
        .max((num_vertices.max(2) as f64).log2().ceil() as u32)
        .min(63);
    let side = 1u64 << scale;
    let n = num_vertices as u64;
    let num_chunks = num_edges.div_ceil(CHUNK_EDGES);
    let threads = if parallel { default_threads() } else { 1 };
    let chunks = run_chunks(num_chunks, threads, |ci| {
        let lo = ci * CHUNK_EDGES;
        let hi = (lo + CHUNK_EDGES).min(num_edges);
        let mut rng = SplitMix64::stream(seed, TAG_RMAT, ci as u64);
        let mut out = Vec::with_capacity(hi - lo);
        for _ in lo..hi {
            let (mut x, mut y) = (0u64, 0u64);
            let mut step = side >> 1;
            while step > 0 {
                let r = rng.next_f64();
                if r < a {
                    // top-left
                } else if r < a + b {
                    y += step;
                } else if r < a + b + c {
                    x += step;
                } else {
                    x += step;
                    y += step;
                }
                step >>= 1;
            }
            out.push(Edge::new((x % n) as VertexId, (y % n) as VertexId));
        }
        out
    });
    let mut edges = Vec::with_capacity(num_edges);
    for chunk in chunks {
        edges.extend_from_slice(&chunk);
    }
    edges
}

/// Canonicalizes a flat edge list into sorted-adjacency CSR order: stable
/// counting sort by source, then each source's destinations ascending.
/// O(E + V) plus the per-vertex run sorts; deterministic.
pub(crate) fn canonicalize_adjacency(num_vertices: usize, edges: Vec<Edge>) -> Vec<Edge> {
    let mut degree = vec![0usize; num_vertices + 1];
    for e in &edges {
        degree[e.src as usize + 1] += 1;
    }
    for i in 1..=num_vertices {
        degree[i] += degree[i - 1];
    }
    let mut cursor = degree.clone();
    let mut out = vec![Edge::new(0, 0); edges.len()];
    for e in edges {
        out[cursor[e.src as usize]] = e;
        cursor[e.src as usize] += 1;
    }
    for v in 0..num_vertices {
        out[degree[v]..degree[v + 1]].sort_unstable_by_key(|e| (e.dst, e.weight));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_parallel_is_bit_identical_to_serial() {
        // More vertices than one chunk so the merge actually matters.
        let v = CHUNK_VERTICES * 3 + 123;
        let serial = power_law_capped_chunked(v, 80_000, 0.8, 0.01, 42, false);
        let parallel = power_law_capped_chunked(v, 80_000, 0.8, 0.01, 42, true);
        assert_eq!(serial.len(), 80_000);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn rmat_parallel_is_bit_identical_to_serial() {
        let e = CHUNK_EDGES * 2 + 777;
        let serial = rmat_folded_chunked(5000, e, 0.57, 0.19, 0.19, 24, 7, false);
        let parallel = rmat_folded_chunked(5000, e, 0.57, 0.19, 0.19, 24, 7, true);
        assert_eq!(serial.len(), e);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn power_law_counts_are_exact_and_seeded() {
        let a = power_law_capped_chunked(1000, 12_345, 0.9, 0.02, 5, true);
        let b = power_law_capped_chunked(1000, 12_345, 0.9, 0.02, 5, true);
        let c = power_law_capped_chunked(1000, 12_345, 0.9, 0.02, 6, true);
        assert_eq!(a.len(), 12_345);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|e| (e.dst as usize) < 1000 && e.src != e.dst));
    }

    #[test]
    fn power_law_adjacency_is_sorted_and_skewed() {
        let edges = power_law_capped_chunked(2000, 20_000, 0.8, 1.0, 11, true);
        let g = crate::Csr::from_edges(2000, &edges);
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] <= w[1]), "vertex {v} unsorted");
        }
        let max_deg = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        assert!(max_deg > 40, "expected a hub, max degree {max_deg}");
        let low = g.vertices().filter(|&v| g.out_degree(v) <= 10).count();
        assert!(low > 1000);
    }

    #[test]
    fn bucket_table_matches_full_binary_search() {
        // An adversarially lumpy CDF: long flats and sharp jumps.
        let mut cdf = Vec::new();
        let mut acc = 0.0;
        for i in 0..5000 {
            acc += if i % 97 == 0 { 0.9 } else { 0.001 };
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let table = RankTable::build(&cdf);
        let mut rng = SplitMix64::stream(99, 1, 0);
        for _ in 0..20_000 {
            let r = rng.next_f64();
            assert_eq!(table.rank_of(&cdf, r), cdf.partition_point(|&c| c < r));
        }
        // Boundary draws.
        for r in [0.0, 0.5, 1.0 - f64::EPSILON] {
            assert_eq!(table.rank_of(&cdf, r), cdf.partition_point(|&c| c < r));
        }
    }

    #[test]
    fn canonicalize_groups_and_sorts() {
        let edges = vec![
            Edge::weighted(2, 9, 1),
            Edge::weighted(0, 5, 2),
            Edge::weighted(2, 3, 3),
            Edge::weighted(0, 1, 4),
            Edge::weighted(2, 3, 0),
        ];
        let canon = canonicalize_adjacency(10, edges);
        assert_eq!(
            canon,
            vec![
                Edge::weighted(0, 1, 4),
                Edge::weighted(0, 5, 2),
                Edge::weighted(2, 3, 0),
                Edge::weighted(2, 3, 3),
                Edge::weighted(2, 9, 1),
            ]
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(power_law_capped_chunked(0, 10, 1.0, 1.0, 0, true).is_empty());
        assert!(power_law_capped_chunked(10, 0, 1.0, 1.0, 0, true).is_empty());
        assert!(rmat_folded_chunked(0, 10, 0.5, 0.2, 0.2, 8, 0, true).is_empty());
        assert!(canonicalize_adjacency(0, Vec::new()).is_empty());
    }
}
