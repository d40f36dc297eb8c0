//! Incremental algorithm variants for dynamic graphs: BFS/SSSP/CC repair
//! and delta-PageRank.
//!
//! These are the algorithm-side half of the dynamic-graph story (the
//! storage-side half is [`scalagraph_graph::mutate`]). After a
//! [`MutationDelta`] is applied, instead of re-running from scratch they
//! reprocess only the *affected* region:
//!
//! * [`repair_rooted`] repairs the fixpoint of any monotone `u32` lattice
//!   algorithm (BFS, SSSP, CC, widest-path): invalidate the forward closure
//!   of values the removed edges supported, relax each edge from the
//!   intact boundary into that region once, then re-relax from the values
//!   that changed and the inserted edges. The result is **bit-identical**
//!   to a full recompute — `u32` lattice fixpoints are unique, so
//!   exactness falls out of reaching the same fixpoint.
//! * [`delta_pagerank`] advances a per-iteration rank trace: only vertices
//!   whose in-contribution stream changed (and, iteration by iteration, the
//!   out-neighborhood closure of those) are recomputed; everything else is
//!   copied from the previous run's trace. Recomputed vertices fold their
//!   in-edges in the same flat-index order as the reference engine, so the
//!   `f32` results are bit-identical too — the property the differential
//!   oracle in `scalagraph-conformance` checks after every batch. The fold
//!   scatters over the whole CSR or gathers the recomputed set's in-edges,
//!   whichever reads fewer edges.
//!
//! Both kernels read the whole edge array only in flat, in-order passes:
//! the repair's boundary and the gather's in-edges come from one
//! branch-free compaction of the edges whose destination is selected, and
//! the scatter streams the CSR once per iteration in the reference
//! engine's order. The repair's per-vertex passes walk the affected region
//! rather than every vertex.

use crate::algorithms::PageRank;
use crate::model::{Algorithm, EdgeCtx};
use scalagraph_graph::mutate::MutationDelta;
use scalagraph_graph::{Csr, VertexId};
use std::collections::VecDeque;

/// Result of an incremental fixpoint repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairRun {
    /// Final persistent property of every vertex of the new graph.
    /// Bit-identical to a from-scratch reference run.
    pub properties: Vec<u32>,
    /// Vertices whose old value was invalidated (plus appended vertices) —
    /// the region reset to `init` before re-relaxation.
    pub affected_vertices: usize,
    /// Edge relaxations performed: each edge from the intact boundary into
    /// the affected region once, plus every out-edge of each vertex the
    /// worklist pops. A work count; the benches time the repair rather
    /// than read it.
    pub relaxed_edges: u64,
}

/// Repairs the converged properties of a monotone `u32` algorithm after a
/// mutation batch, touching only the affected region.
///
/// `old_props` must be the converged reference/repaired properties on
/// `old_graph`; `new_graph` is the canonical CSR after applying the batch
/// that produced `delta`.
///
/// # Algorithm contract
///
/// This routine is exact for algorithms where
///
/// 1. `apply(v, old, temp) == reduce(old, temp)` for all inputs (BFS, SSSP,
///    CC, and widest-path all satisfy this — their `Apply` is their lattice
///    meet/join), and
/// 2. `process(ctx, reduce_identity()) == reduce_identity()` (an unreached
///    source contributes nothing), and
/// 3. the algorithm is monotone with a converging (finite-chain) lattice,
///    running until the frontier empties (`max_iterations() == None`).
///
/// Under that contract the converged state is the unique extremal fixpoint
/// of `props[v] = reduce(init(v), fold of process over in-edges)`, which is
/// what both the reference engine and this repair compute — hence
/// bit-identity.
///
/// # Phases
///
/// 1. **Seed**: a removed edge `(u, v)` invalidates `v` iff the removed
///    copy supported `v`'s value (`process(u's old value) == old[v]`).
/// 2. **Closure**: invalidation propagates forward through *tight* edges of
///    the old graph (`process(old[src]) == old[dst]`), because a value
///    derived from a possibly-stale value is itself possibly stale. This
///    over-approximates the stale set, which is safe: affected vertices are
///    reset and re-derived. The closure lists the region, so the reset,
///    the queue seeding and the count walk the region, not the graph.
/// 3. **Reset + relax**: affected and appended vertices reset to `init`;
///    the worklist starts from non-identity affected vertices (ascending)
///    and sources of inserted edges. One pass over the new graph's edges
///    then finds the intact boundary (every edge from an intact vertex into
///    the region) without a branch per edge and relaxes it in place in flat
///    edge order, queueing only the destinations whose value it changes;
///    the worklist relaxes `reduce(props[dst], process(props[u]))` to the
///    fixpoint. The worklist is first-in first-out: that relaxes a region
///    roughly level by level, where last-in first-out order re-lowers a
///    deep region once per level it later learns about (on a 5.7k-vertex
///    BFS region of a 16k-vertex graph, 30x slower than FIFO).
pub fn repair_rooted<A: Algorithm<Prop = u32>>(
    algorithm: &A,
    old_graph: &Csr,
    old_props: &[u32],
    new_graph: &Csr,
    delta: &MutationDelta,
) -> RepairRun {
    let old_n = old_graph.num_vertices();
    assert_eq!(old_props.len(), old_n, "old_props/old_graph size mismatch");
    let n = new_graph.num_vertices();
    let identity = algorithm.reduce_identity();

    // Phase 1: seed invalidation from removed edges that supported their
    // destination's value. Edges inserted and removed by the same batch can
    // reference appended vertices; those never supported anything.
    let mut affected = vec![false; n];
    let mut region: Vec<VertexId> = Vec::new();
    for e in &delta.removed {
        let (s, d) = (e.src as usize, e.dst as usize);
        if s >= old_n || d >= old_n || affected[d] {
            continue;
        }
        if old_props[s] == identity || old_props[d] == identity {
            continue;
        }
        let ctx = EdgeCtx {
            weight: e.weight,
            src: e.src,
            src_degree: old_graph.out_degree(e.src) as u32,
        };
        if algorithm.process(&ctx, old_props[s]) == old_props[d] {
            affected[d] = true;
            region.push(e.dst);
        }
    }

    // Phase 2: forward closure over tight old-graph edges. The region list
    // is the closure's queue: which vertices join does not depend on the
    // order they are visited in.
    let mut visited = 0;
    while let Some(&u) = region.get(visited) {
        visited += 1;
        let src_prop = old_props[u as usize];
        let degree = old_graph.out_degree(u) as u32;
        for idx in old_graph.edge_range(u) {
            let dst = old_graph.neighbor_at(idx);
            if affected[dst as usize] || old_props[dst as usize] == identity {
                continue;
            }
            let ctx = EdgeCtx {
                weight: old_graph.weight_at(idx),
                src: u,
                src_degree: degree,
            };
            if algorithm.process(&ctx, src_prop) == old_props[dst as usize] {
                affected[dst as usize] = true;
                region.push(dst);
            }
        }
    }
    // Appended vertices have no prior value: treat them as affected so the
    // boundary scan re-derives them.
    for slot in affected.iter_mut().skip(old_n) {
        *slot = true;
    }
    region.extend(old_n as VertexId..n as VertexId);

    // Phase 3: reset and re-relax. The region's vertices whose `init` is
    // not the identity seed the worklist in ascending order; only those
    // are sorted (for a rooted lattice, at most the root).
    let mut props = old_props.to_vec();
    props.resize(n, identity);
    let mut seeds = Vec::new();
    for &v in &region {
        let init = algorithm.init(v, new_graph);
        props[v as usize] = init;
        if init != identity {
            seeds.push(v);
        }
    }
    seeds.sort_unstable();
    let mut work = Worklist {
        props,
        in_queue: vec![false; n],
        queue: VecDeque::new(),
        relaxed: 0,
    };
    for v in seeds {
        work.push(v);
    }
    for e in &delta.inserted {
        if work.props[e.src as usize] != identity {
            work.push(e.src);
        }
    }
    // Intact boundary: one pass over the new graph's edges. This is the
    // fixed O(E) cost of a repair; everything after is proportional to the
    // affected region. An edge from an intact vertex into the region
    // relaxes in place, and only a destination it changes joins the
    // worklist. The source's other edges need nothing: each is an old edge
    // into an intact vertex, which the old fixpoint already satisfies (a
    // source of an inserted edge is queued, and skipped here). The pass
    // changes only region vertices, so an intact source's skip test reads
    // the same before and during it; consecutive hits share their source,
    // so the test, the source's value and its degree are read once a run.
    let mut last = None;
    let mut from = None;
    for_each_edge_into(
        new_graph,
        |d| affected[d as usize],
        |u, idx| {
            if last != Some(u) {
                last = Some(u);
                let src_prop = work.props[u as usize];
                let intact = !affected[u as usize] && !work.in_queue[u as usize];
                from = (intact && src_prop != identity)
                    .then(|| (src_prop, new_graph.out_degree(u) as u32));
            }
            if let Some((src_prop, src_degree)) = from {
                let ctx = EdgeCtx {
                    weight: new_graph.weight_at(idx),
                    src: u,
                    src_degree,
                };
                work.relax(algorithm, &ctx, src_prop, new_graph.neighbor_at(idx));
            }
        },
    );

    while let Some(u) = work.queue.pop_front() {
        work.in_queue[u as usize] = false;
        let src_prop = work.props[u as usize];
        if src_prop == identity {
            continue;
        }
        let degree = new_graph.out_degree(u) as u32;
        for idx in new_graph.edge_range(u) {
            let ctx = EdgeCtx {
                weight: new_graph.weight_at(idx),
                src: u,
                src_degree: degree,
            };
            work.relax(algorithm, &ctx, src_prop, new_graph.neighbor_at(idx));
        }
    }

    RepairRun {
        properties: work.props,
        affected_vertices: region.len(),
        relaxed_edges: work.relaxed,
    }
}

/// A repair's relaxation state: the properties, the first-in first-out
/// worklist with its membership flags, and the edges relaxed so far.
struct Worklist {
    props: Vec<u32>,
    in_queue: Vec<bool>,
    queue: VecDeque<VertexId>,
    relaxed: u64,
}

impl Worklist {
    /// Appends `v` unless it is already queued.
    fn push(&mut self, v: VertexId) {
        if !self.in_queue[v as usize] {
            self.in_queue[v as usize] = true;
            self.queue.push_back(v);
        }
    }

    /// Relaxes one edge into `dst`, `props[dst] = reduce(props[dst],
    /// process(ctx, src_prop))`, queueing `dst` when that changes it.
    fn relax<A: Algorithm<Prop = u32>>(
        &mut self,
        algorithm: &A,
        ctx: &EdgeCtx,
        src_prop: u32,
        dst: VertexId,
    ) {
        let old = self.props[dst as usize];
        let merged = algorithm.reduce(old, algorithm.process(ctx, src_prop));
        self.relaxed += 1;
        if merged != old {
            self.props[dst as usize] = merged;
            self.push(dst);
        }
    }
}

/// Edges per block of [`for_each_edge_into`]'s compaction: one block's hit
/// offsets fill a 16 KiB stack buffer.
const BLOCK: usize = 4096;

/// Calls `visit(src, idx)` for every flat edge `idx` of `graph` whose
/// destination `into` selects, in ascending flat order.
///
/// One pass over the neighbor array, a block at a time, compacts the hits'
/// offsets without a branch: each edge writes its offset at the cursor,
/// and `into`'s answer advances the cursor. A walk along `offsets` then
/// recovers each hit's source. Every edge is read once; past that the
/// walk takes a step per vertex and `visit` a call per hit, and nothing
/// edge-sized is allocated.
fn for_each_edge_into(
    graph: &Csr,
    into: impl Fn(VertexId) -> bool,
    mut visit: impl FnMut(VertexId, usize),
) {
    let offsets = graph.offsets();
    let mut hits = [0u32; BLOCK];
    let mut src = 0;
    for (block, dsts) in graph.neighbor_array().chunks(BLOCK).enumerate() {
        let mut found = 0;
        for (i, &d) in dsts.iter().enumerate() {
            // `found <= i < BLOCK`, so the mask only drops a bounds check.
            hits[found & (BLOCK - 1)] = i as u32;
            found += usize::from(into(d));
        }
        for &i in &hits[..found] {
            let idx = block * BLOCK + i as usize;
            while offsets[src + 1] as usize <= idx {
                src += 1;
            }
            visit(src as VertexId, idx);
        }
    }
}

/// Per-iteration rank snapshots of one PageRank run: `ranks[0]` is the
/// initial state, `ranks[t]` the state after iteration `t`. The trace is
/// what makes delta-PageRank exact — iteration `t` of the new run can copy
/// iteration `t` of the old run for every unaffected vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankTrace {
    /// `iterations + 1` snapshots of all vertex ranks.
    pub ranks: Vec<Vec<f32>>,
}

impl PageRankTrace {
    /// The converged (final-iteration) ranks.
    pub fn final_ranks(&self) -> &[f32] {
        self.ranks.last().map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Runs PageRank from scratch, recording every iteration's ranks.
///
/// The loop mirrors [`ReferenceEngine::run`](crate::reference::ReferenceEngine)
/// statement for statement (same flat-edge-order accumulation, same
/// bit-preserving apply guard), so `final_ranks()` is bit-identical to the
/// reference engine's `properties`.
pub fn trace_pagerank(pr: &PageRank, graph: &Csr) -> PageRankTrace {
    let n = graph.num_vertices();
    let mut props: Vec<f32> = graph.vertices().map(|v| pr.init(v, graph)).collect();
    let mut ranks = vec![props.clone()];
    let iterations = if n == 0 {
        0
    } else {
        pr.max_iterations().unwrap_or(0)
    };
    for _ in 0..iterations {
        let mut temp: Vec<f32> = vec![pr.reduce_identity(); n];
        for v in graph.vertices() {
            let src_prop = props[v as usize];
            let degree = graph.out_degree(v) as u32;
            for idx in graph.edge_range(v) {
                let dst = graph.neighbor_at(idx);
                let ctx = EdgeCtx {
                    weight: graph.weight_at(idx),
                    src: v,
                    src_degree: degree,
                };
                let scatter_res = pr.process(&ctx, src_prop);
                temp[dst as usize] = pr.reduce(temp[dst as usize], scatter_res);
            }
        }
        for v in 0..n {
            let old = props[v];
            let new = pr.apply(v as VertexId, old, temp[v], graph);
            if new != old {
                props[v] = new;
            }
        }
        ranks.push(props.clone());
    }
    PageRankTrace { ranks }
}

/// Work accounting for one delta-PageRank advance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Affected-set size after the last iteration.
    pub affected_final: usize,
    /// Total vertex-iterations recomputed (full recompute would be
    /// `num_vertices * iterations`).
    pub recomputed_vertex_iterations: u64,
    /// Whether the delta path bailed to a full trace (vertex count changed
    /// or the old trace has the wrong shape).
    pub full_fallback: bool,
}

/// Advances a PageRank trace across a mutation batch, recomputing only
/// affected vertices. Returns the new trace (bit-identical to
/// [`trace_pagerank`] on `new_graph`) and work stats.
///
/// The affected set starts as every vertex whose in-contribution stream
/// changed — destinations of inserted/removed edges, plus the new-graph
/// out-neighbors of any vertex whose out-degree changed (its per-edge
/// contribution `rank / degree` changed even on surviving edges) — and
/// grows by one out-neighborhood hop after each iteration, because a rank
/// that diverged at iteration `t` contaminates its out-neighbors at
/// `t + 1`; once every vertex is in, the growth stops. Every other
/// vertex's rank is copied from `old_trace`, which is exact: an unaffected
/// vertex has the same in-edges, in the same relative flat order, from
/// sources with unchanged degrees and (inductively) unchanged ranks, so
/// its `f32` accumulation reproduces the old bits.
///
/// The recomputed vertices fold their in-edges one of two exact ways,
/// whichever reads fewer edges (see `Fold::by_edge_reads`): a scatter
/// streams the whole CSR once per iteration, in the reference engine's own
/// order; a gather collects the in-edges of the recomputed set once and
/// folds only those.
///
/// Falls back to a full [`trace_pagerank`] when the vertex count changed —
/// the initial rank `1/N` shifts globally — or when `old_trace` does not
/// have `iterations + 1` snapshots of the right width.
pub fn delta_pagerank(
    pr: &PageRank,
    old_trace: &PageRankTrace,
    old_graph: &Csr,
    new_graph: &Csr,
    delta: &MutationDelta,
) -> (PageRankTrace, DeltaStats) {
    let (trace, stats, _) = advance_trace(pr, old_trace, old_graph, new_graph, delta, None);
    (trace, stats)
}

/// How [`delta_pagerank`] folds the recomputed vertices' in-edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Stream the CSR in flat edge order once per iteration, adding each
    /// source's contribution into its destinations.
    Scatter,
    /// Gather the recomputed set's in-edges once, then fold only those.
    Gather,
}

impl Fold {
    /// The fold that reads fewer edges, given the recomputed set's size at
    /// each iteration. A scatter reads every edge once per iteration. A
    /// gather reads every edge once, then each iteration's set's in-edges,
    /// estimated by that set's share of the vertices. In units of one
    /// edge per vertex that is `iterations × n` against `n + Σ |set|`; a
    /// tie scatters, which builds nothing.
    fn by_edge_reads(n: usize, sets: &[usize]) -> Fold {
        let scatter = sets.len() as u128 * n as u128;
        let gather = n as u128 + sets.iter().map(|&s| s as u128).sum::<u128>();
        if scatter <= gather {
            Fold::Scatter
        } else {
            Fold::Gather
        }
    }
}

/// [`delta_pagerank`], folding as `force` says or, when it is `None`, by
/// [`Fold::by_edge_reads`]; also returns the fold it ran (`None` when it
/// fell back to a full trace).
fn advance_trace(
    pr: &PageRank,
    old_trace: &PageRankTrace,
    old_graph: &Csr,
    new_graph: &Csr,
    delta: &MutationDelta,
    force: Option<Fold>,
) -> (PageRankTrace, DeltaStats, Option<Fold>) {
    let n = new_graph.num_vertices();
    let iterations = pr.max_iterations().unwrap_or(0);
    let shape_ok = old_graph.num_vertices() == n
        && delta.old_num_vertices == n
        && old_trace.ranks.len() == iterations + 1
        && old_trace.ranks.iter().all(|r| r.len() == n);
    if !shape_ok {
        let stats = DeltaStats {
            affected_final: n,
            recomputed_vertex_iterations: (n as u64) * (iterations as u64),
            full_fallback: true,
        };
        return (trace_pagerank(pr, new_graph), stats, None);
    }

    // Seed affected set.
    let mut affected = vec![false; n];
    let mut cur: Vec<VertexId> = Vec::new();
    let mark = |v: VertexId, affected: &mut Vec<bool>, cur: &mut Vec<VertexId>| {
        if !affected[v as usize] {
            affected[v as usize] = true;
            cur.push(v);
        }
    };
    let changed = delta.inserted.iter().chain(&delta.removed);
    for e in changed.clone() {
        mark(e.dst, &mut affected, &mut cur);
    }
    // Only a source of an inserted or removed copy can change out-degree.
    // Ascending, they mark in the order a scan of every vertex would.
    let mut sources: Vec<VertexId> = changed.map(|e| e.src).collect();
    sources.sort_unstable();
    sources.dedup();
    for v in sources {
        if old_graph.out_degree(v) != new_graph.out_degree(v) {
            for &d in new_graph.neighbors(v) {
                mark(d, &mut affected, &mut cur);
            }
        }
    }

    // The set grows by one out-neighborhood hop per iteration whatever the
    // ranks do, so the whole schedule is known up front: iteration `t`
    // recomputes `cur[..layer_end[t - 1]]`, the seeds plus `t - 1` hops.
    // Only the vertices added by the last hop can reach anything new.
    // Once every vertex is in, no hop can add one.
    let mut layer_end = vec![cur.len()];
    let mut frontier_start = 0usize;
    for _ in 0..iterations {
        let frontier_end = cur.len();
        for i in frontier_start..frontier_end {
            if cur.len() == n {
                break;
            }
            for &d in new_graph.neighbors(cur[i]) {
                if !affected[d as usize] {
                    affected[d as usize] = true;
                    cur.push(d);
                }
            }
        }
        frontier_start = frontier_end;
        layer_end.push(cur.len());
    }

    let sets = &layer_end[..iterations];
    let fold = force.unwrap_or_else(|| Fold::by_edge_reads(n, sets));
    let ranks = match fold {
        Fold::Scatter => scatter_fold(pr, old_trace, new_graph, &cur, sets),
        Fold::Gather => gather_fold(pr, old_trace, new_graph, &cur, sets),
    };
    let stats = DeltaStats {
        affected_final: cur.len(),
        recomputed_vertex_iterations: sets.iter().map(|&s| s as u64).sum(),
        full_fallback: false,
    };
    (PageRankTrace { ranks }, stats, Some(fold))
}

/// PageRank's per-edge contribution, which reads only the source's rank
/// and out-degree.
fn contribution(pr: &PageRank, graph: &Csr, src: VertexId, rank: f32) -> f32 {
    let ctx = EdgeCtx {
        weight: 0,
        src,
        src_degree: graph.out_degree(src) as u32,
    };
    pr.process(&ctx, rank)
}

/// Iteration `t`'s snapshot: `old_trace`'s, with every vertex of
/// `recomputed` applied from its folded sum `temp(k, v)` (`k` its index).
/// The apply keeps the old bits when the value compares equal, as the
/// reference engine does.
fn apply_snapshot(
    pr: &PageRank,
    old_trace: &PageRankTrace,
    graph: &Csr,
    prev: &[f32],
    t: usize,
    recomputed: &[VertexId],
    mut temp: impl FnMut(usize, VertexId) -> f32,
) -> Vec<f32> {
    let mut next = old_trace.ranks[t].clone();
    for (k, &v) in recomputed.iter().enumerate() {
        let old = prev[v as usize];
        let applied = pr.apply(v, old, temp(k, v), graph);
        next[v as usize] = if applied != old { applied } else { old };
    }
    next
}

/// The scatter fold: each iteration streams the CSR in flat edge order,
/// adding each source's contribution, computed once, into every
/// destination. That is the reference engine's own order, so every sum
/// has its bits; only the recomputed vertices' sums are applied.
fn scatter_fold(
    pr: &PageRank,
    old_trace: &PageRankTrace,
    graph: &Csr,
    cur: &[VertexId],
    sets: &[usize],
) -> Vec<Vec<f32>> {
    let dsts = graph.neighbor_array();
    let mut ranks = vec![old_trace.ranks[0].clone()];
    let mut temp = vec![pr.reduce_identity(); graph.num_vertices()];
    for (t, &folded) in (1..).zip(sets) {
        let prev = &ranks[t - 1];
        temp.fill(pr.reduce_identity());
        for (u, span) in graph.offsets().windows(2).enumerate() {
            let share = contribution(pr, graph, u as VertexId, prev[u]);
            for &d in &dsts[span[0] as usize..span[1] as usize] {
                temp[d as usize] = pr.reduce(temp[d as usize], share);
            }
        }
        let next = apply_snapshot(pr, old_trace, graph, prev, t, &cur[..folded], |_, v| {
            temp[v as usize]
        });
        ranks.push(next);
    }
    ranks
}

/// The gather fold: the in-edges of every recomputed vertex, as source ids
/// in flat edge order (the order the reference engine folds them), are
/// collected once by one compacting pass over the edges; only the hits are
/// counted and placed. Each iteration then folds its set's lists,
/// computing each in-edge's contribution from its source.
fn gather_fold(
    pr: &PageRank,
    old_trace: &PageRankTrace,
    graph: &Csr,
    cur: &[VertexId],
    sets: &[usize],
) -> Vec<Vec<f32>> {
    let n = graph.num_vertices();
    let gathered = sets.last().copied().unwrap_or(0);
    let mut slot = vec![u32::MAX; n];
    for (k, &v) in cur[..gathered].iter().enumerate() {
        slot[v as usize] = k as u32;
    }
    let mut hits: Vec<(VertexId, u32)> = Vec::new();
    for_each_edge_into(
        graph,
        |d| slot[d as usize] != u32::MAX,
        |src, idx| hits.push((src, slot[graph.neighbor_at(idx) as usize])),
    );
    let mut in_off = vec![0usize; gathered + 1];
    for &(_, k) in &hits {
        in_off[k as usize + 1] += 1;
    }
    for k in 0..gathered {
        in_off[k + 1] += in_off[k];
    }
    let mut cursor = in_off[..gathered].to_vec();
    let mut in_edges: Vec<VertexId> = vec![0; hits.len()];
    for &(src, k) in &hits {
        in_edges[cursor[k as usize]] = src;
        cursor[k as usize] += 1;
    }

    let mut ranks = vec![old_trace.ranks[0].clone()];
    for (t, &folded) in (1..).zip(sets) {
        let prev = &ranks[t - 1];
        let next = apply_snapshot(pr, old_trace, graph, prev, t, &cur[..folded], |k, _| {
            in_edges[in_off[k]..in_off[k + 1]]
                .iter()
                .fold(pr.reduce_identity(), |temp, &src| {
                    pr.reduce(temp, contribution(pr, graph, src, prev[src as usize]))
                })
        });
        ranks.push(next);
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, ConnectedComponents, Sssp, WidestPath};
    use crate::reference::ReferenceEngine;
    use scalagraph_graph::mutate::{DynamicCsr, MutationBatch};
    use scalagraph_graph::{generators, Edge, EdgeList};

    fn mutate_rounds(
        base_edges: Vec<Edge>,
        n: usize,
        seed: u64,
        rounds: usize,
    ) -> Vec<(Csr, Csr, MutationDelta)> {
        // Deterministic xorshift batch generator; returns
        // (old_graph, new_graph, delta) triples for chained batches.
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut g = DynamicCsr::new(Csr::from_edges(n, &base_edges));
        let mut out = Vec::new();
        for _ in 0..rounds {
            let old = g.canonical().clone();
            let nv = g.num_vertices() as u64;
            let mut b = MutationBatch::new();
            for _ in 0..(next() % 8) {
                b.insert_edge(Edge::weighted(
                    (next() % nv) as u32,
                    (next() % nv) as u32,
                    (next() % 9) as u32 + 1,
                ));
            }
            for _ in 0..(next() % 8) {
                b.remove_edge((next() % nv) as u32, (next() % nv) as u32);
            }
            if next() % 4 == 0 {
                b.add_vertex();
            }
            if next() % 6 == 0 {
                b.isolate_vertex((next() % nv) as u32);
            }
            let delta = g.apply(&b).unwrap();
            out.push((old, g.canonical().clone(), delta));
        }
        out
    }

    /// `rounds` chained batches on `base`, each inserting `ops` random
    /// edges and removing `ops` edges drawn from the current graph.
    fn churn_rounds(
        base: Csr,
        seed: u64,
        rounds: usize,
        ops: usize,
    ) -> Vec<(Csr, Csr, MutationDelta)> {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut g = DynamicCsr::new(base);
        let mut out = Vec::new();
        for _ in 0..rounds {
            let old = g.canonical().clone();
            let nv = g.num_vertices() as u64;
            let mut b = MutationBatch::new();
            for _ in 0..ops {
                let e = old.edges().nth((next() % old.num_edges() as u64) as usize);
                let e = e.expect("the graph keeps edges");
                b.remove_edge(e.src, e.dst);
                b.insert_edge(Edge::new((next() % nv) as u32, (next() % nv) as u32));
            }
            let delta = g.apply(&b).unwrap();
            out.push((old, g.canonical().clone(), delta));
        }
        out
    }

    /// `rounds` chained weighted batches on `base`. Each removes `ops`
    /// present edges, inserts `ops` random edges and `ops` parallel copies
    /// of present edges at fresh weights, appends a vertex wired both ways,
    /// and isolates one vertex.
    fn lattice_rounds(
        base: Csr,
        seed: u64,
        rounds: usize,
        ops: usize,
    ) -> Vec<(Csr, Csr, MutationDelta)> {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut g = DynamicCsr::new(base);
        let mut out = Vec::new();
        for _ in 0..rounds {
            let old = g.canonical().clone();
            let nv = old.num_vertices() as u64;
            let present = |draw: u64| {
                let idx = draw % old.num_edges() as u64;
                let src = old.offsets().partition_point(|&o| o <= idx) - 1;
                (src as VertexId, old.neighbor_at(idx as usize))
            };
            let mut b = MutationBatch::new();
            for _ in 0..ops {
                let (s, d) = present(next());
                b.remove_edge(s, d);
                let (s, d) = ((next() % nv) as u32, (next() % nv) as u32);
                b.insert_edge(Edge::weighted(s, d, (next() % 9) as u32 + 1));
                let (s, d) = present(next());
                b.insert_edge(Edge::weighted(s, d, (next() % 9) as u32 + 1));
            }
            let added = nv as VertexId;
            b.add_vertex();
            b.insert_edge(Edge::weighted((next() % nv) as u32, added, 3));
            b.insert_edge(Edge::weighted(added, (next() % nv) as u32, 5));
            b.isolate_vertex((next() % nv) as u32);
            let delta = g.apply(&b).unwrap();
            out.push((old, g.canonical().clone(), delta));
        }
        out
    }

    /// Repairs across `rounds`, checking each result against the reference
    /// engine; returns each round's `(affected_vertices, relaxed_edges)`.
    fn check_repair<A: Algorithm<Prop = u32>>(
        algo: &A,
        rounds: &[(Csr, Csr, MutationDelta)],
    ) -> Vec<(usize, u64)> {
        let engine = ReferenceEngine::new();
        let mut props = engine.run(algo, &rounds[0].0).properties;
        let mut work = Vec::new();
        for (i, (old, new, delta)) in rounds.iter().enumerate() {
            let repaired = repair_rooted(algo, old, &props, new, delta);
            let golden = engine.run(algo, new).properties;
            assert_eq!(repaired.properties, golden, "{} round {i}", algo.name());
            work.push((repaired.affected_vertices, repaired.relaxed_edges));
            props = repaired.properties;
        }
        work
    }

    #[test]
    fn bfs_repair_matches_reference_across_chained_batches() {
        let rounds = mutate_rounds(generators::uniform(48, 200, 7), 48, 0xABCD, 10);
        check_repair(&Bfs::from_root(0), &rounds);
    }

    #[test]
    fn sssp_repair_matches_reference_across_chained_batches() {
        let mut edges = generators::uniform(40, 180, 9);
        for (i, e) in edges.iter_mut().enumerate() {
            e.weight = (i % 13) as u32 + 1;
        }
        let rounds = mutate_rounds(edges, 40, 0x5EED, 10);
        check_repair(&Sssp::from_root(1), &rounds);
    }

    #[test]
    fn cc_repair_matches_reference_across_chained_batches() {
        let mut list = EdgeList::new(36);
        for e in generators::uniform(36, 90, 3) {
            list.push(e);
        }
        list.symmetrize();
        // CC assumes a symmetric graph only for interpretation, not for the
        // fixpoint math; asymmetric mutations still have a unique fixpoint
        // the repair must match.
        let rounds = mutate_rounds(list.as_slice().to_vec(), 36, 0xC0FFEE, 8);
        check_repair(&ConnectedComponents::new(), &rounds);
    }

    #[test]
    fn widest_path_repair_matches_reference_across_chained_batches() {
        let mut edges = generators::uniform(32, 140, 5);
        for (i, e) in edges.iter_mut().enumerate() {
            e.weight = (i % 7) as u32 + 1;
        }
        let rounds = mutate_rounds(edges, 32, 0x77, 8);
        check_repair(&WidestPath::from_root(0), &rounds);
    }

    #[test]
    fn bfs_repair_work_is_pinned_across_a_seeded_schedule() {
        let base = Csr::from_edges(1024, &generators::uniform(1024, 4096, 31));
        let rounds = churn_rounds(base, 0xB0B, 6, 24);
        let bfs = Bfs::from_root(0);
        let engine = ReferenceEngine::new();
        let mut props = engine.run(&bfs, &rounds[0].0).properties;
        let mut work = Vec::new();
        for (old, new, delta) in &rounds {
            let run = repair_rooted(&bfs, old, &props, new, delta);
            assert_eq!(run.properties, engine.run(&bfs, new).properties);
            work.push((run.affected_vertices, run.relaxed_edges));
            props = run.properties;
        }
        // Only destinations a boundary edge changes are queued, never the
        // whole intact source: relaxing each intact source's every edge
        // took 1366, 2189, 823, 360, 433 and 1767 relaxations here.
        let relaxed = [645, 1167, 583, 250, 246, 938];
        let affected = [78, 134, 27, 10, 20, 118];
        assert_eq!(work, affected.into_iter().zip(relaxed).collect::<Vec<_>>());
    }

    #[test]
    fn lattice_repair_work_is_pinned_across_a_seeded_schedule() {
        // Weighted, with appended vertices, isolations and parallel
        // copies: the boundary scan must relax the same edges for every
        // lattice, not only BFS's.
        let mut edges = generators::uniform(1024, 4096, 37);
        for (i, e) in edges.iter_mut().enumerate() {
            e.weight = (i % 13) as u32 + 1;
        }
        let rounds = lattice_rounds(Csr::from_edges(1024, &edges), 0x01A7_71CE, 6, 16);
        let sssp = [
            (5, 329),
            (7, 481),
            (207, 2209),
            (21, 341),
            (8, 272),
            (16, 339),
        ];
        let cc = [
            (1005, 9697),
            (1005, 9722),
            (1006, 9962),
            (1006, 9968),
            (1005, 9975),
            (1005, 10017),
        ];
        let widest = [
            (938, 9212),
            (927, 9296),
            (931, 8856),
            (489, 4125),
            (929, 9199),
            (486, 4198),
        ];
        assert_eq!(check_repair(&Sssp::from_root(0), &rounds), sssp);
        assert_eq!(check_repair(&ConnectedComponents::new(), &rounds), cc);
        assert_eq!(check_repair(&WidestPath::from_root(0), &rounds), widest);
    }

    #[test]
    fn repair_handles_disconnecting_the_root_region() {
        // 0 -> 1 -> 2; removing 0 -> 1 must return 1 and 2 to UNREACHED.
        let old = Csr::from_edges(3, &generators::path(3));
        let mut g = DynamicCsr::new(old.clone());
        let mut b = MutationBatch::new();
        b.remove_edge(0, 1);
        let delta = g.apply(&b).unwrap();
        let props = ReferenceEngine::new()
            .run(&Bfs::from_root(0), &old)
            .properties;
        let repaired = repair_rooted(&Bfs::from_root(0), &old, &props, g.canonical(), &delta);
        assert_eq!(repaired.properties, vec![0, u32::MAX, u32::MAX]);
        assert_eq!(repaired.affected_vertices, 2);
    }

    #[test]
    fn repair_of_empty_delta_touches_nothing() {
        let old = Csr::from_edges(16, &generators::binary_tree(16));
        let mut g = DynamicCsr::new(old.clone());
        let delta = g.apply(&MutationBatch::new()).unwrap();
        let props = ReferenceEngine::new()
            .run(&Bfs::from_root(0), &old)
            .properties;
        let repaired = repair_rooted(&Bfs::from_root(0), &old, &props, g.canonical(), &delta);
        assert_eq!(repaired.properties, props);
        assert_eq!(repaired.affected_vertices, 0);
        assert_eq!(repaired.relaxed_edges, 0);
    }

    #[test]
    fn trace_final_ranks_bit_match_reference_engine() {
        let g = Csr::from_edges(64, &generators::rmat(64, 320, 11));
        let pr = PageRank::new(12);
        let trace = trace_pagerank(&pr, &g);
        let reference = ReferenceEngine::new().run(&pr, &g);
        assert_eq!(trace.ranks.len(), 13);
        let bits: Vec<u32> = trace.final_ranks().iter().map(|r| r.to_bits()).collect();
        let golden: Vec<u32> = reference.properties.iter().map(|r| r.to_bits()).collect();
        assert_eq!(bits, golden);
    }

    #[test]
    fn delta_pagerank_bit_matches_full_trace_across_chained_batches() {
        let pr = PageRank::new(8);
        let mut edges = generators::rmat(56, 300, 21);
        edges.truncate(296);
        let mut g = DynamicCsr::new(Csr::from_edges(56, &edges));
        let mut trace = trace_pagerank(&pr, g.canonical());
        let mut rng = 0x9E3779u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut saw_partial = false;
        for round in 0..8 {
            let old = g.canonical().clone();
            let nv = g.num_vertices() as u64;
            let mut b = MutationBatch::new();
            b.insert_edge(Edge::new((next() % nv) as u32, (next() % nv) as u32));
            if round % 2 == 0 {
                b.remove_edge((next() % nv) as u32, (next() % nv) as u32);
            }
            let delta = g.apply(&b).unwrap();
            let (new_trace, stats) = delta_pagerank(&pr, &trace, &old, g.canonical(), &delta);
            let golden = trace_pagerank(&pr, g.canonical());
            for (t, (ours, theirs)) in new_trace.ranks.iter().zip(&golden.ranks).enumerate() {
                let a: Vec<u32> = ours.iter().map(|r| r.to_bits()).collect();
                let b: Vec<u32> = theirs.iter().map(|r| r.to_bits()).collect();
                assert_eq!(a, b, "round {round} iteration {t}");
            }
            assert!(!stats.full_fallback, "round {round} fell back");
            saw_partial |= stats.affected_final < g.num_vertices();
            trace = new_trace;
        }
        assert!(saw_partial, "delta path never did less than full work");
    }

    fn in_degrees(g: &Csr) -> Vec<usize> {
        let mut degree = vec![0; g.num_vertices()];
        for &d in g.neighbor_array() {
            degree[d as usize] += 1;
        }
        degree
    }

    /// Advances a trace across `rounds`, checking every iteration of every
    /// batch bit-equal to a full trace; returns each batch's stats.
    fn check_delta_chain(pr: &PageRank, rounds: &[(Csr, Csr, MutationDelta)]) -> Vec<DeltaStats> {
        let mut trace = trace_pagerank(pr, &rounds[0].0);
        let mut stats = Vec::new();
        for (round, (old, new, delta)) in rounds.iter().enumerate() {
            let (next, batch) = delta_pagerank(pr, &trace, old, new, delta);
            let golden = trace_pagerank(pr, new);
            assert_eq!(next.ranks.len(), golden.ranks.len());
            for (t, (ours, theirs)) in next.ranks.iter().zip(&golden.ranks).enumerate() {
                let a: Vec<u32> = ours.iter().map(|r| r.to_bits()).collect();
                let b: Vec<u32> = theirs.iter().map(|r| r.to_bits()).collect();
                assert_eq!(a, b, "round {round} iteration {t}");
            }
            assert!(!batch.full_fallback, "round {round} fell back");
            stats.push(batch);
            trace = next;
        }
        stats
    }

    #[test]
    fn delta_pagerank_bit_matches_full_trace_when_every_vertex_is_affected() {
        // Average degree 16: five hops reach every vertex, the regime of a
        // churning social graph, where the edge-read count picks the
        // scatter fold.
        let base = Csr::from_edges(256, &generators::uniform(256, 4096, 17));
        let rounds = churn_rounds(base, 0xDE45E, 6, 16);
        let stats = check_delta_chain(&PageRank::new(5), &rounds);
        for ((_, new, delta), stats) in rounds.iter().zip(stats) {
            assert_eq!(stats.affected_final, 256);
            // The changed edges' destinations alone have more in-edges
            // than there are vertices.
            let in_degree = in_degrees(new);
            let mut dsts: Vec<VertexId> = delta
                .inserted
                .iter()
                .chain(&delta.removed)
                .map(|e| e.dst)
                .collect();
            dsts.sort_unstable();
            dsts.dedup();
            assert!(dsts.iter().map(|&d| in_degree[d as usize]).sum::<usize>() > 256);
        }
    }

    #[test]
    fn delta_pagerank_bit_matches_full_trace_on_a_sparse_graph() {
        // Average degree 1.5: the recomputed set stays a small share of
        // the vertices, so the edge-read count picks the gather fold.
        let base = Csr::from_edges(4096, &generators::uniform(4096, 6144, 23));
        let rounds = churn_rounds(base, 0x5BA25E, 6, 4);
        let stats = check_delta_chain(&PageRank::new(3), &rounds);
        for ((_, new, _), stats) in rounds.iter().zip(stats) {
            // No iteration folds more in-edges than the final set's
            // vertices can have: at most the vertices.
            let max_in_degree = in_degrees(new).into_iter().max().unwrap_or(0);
            assert!(stats.affected_final * max_in_degree <= 4096, "{stats:?}");
        }
    }

    fn rank_bits(trace: &PageRankTrace) -> Vec<Vec<u32>> {
        let bits = |ranks: &Vec<f32>| ranks.iter().map(|r| r.to_bits()).collect();
        trace.ranks.iter().map(bits).collect()
    }

    /// Advances a trace across `rounds` with each fold forced, checking both
    /// bit-equal to a full trace with equal stats; returns the fold the
    /// edge-read count picked for each batch.
    fn check_both_folds(pr: &PageRank, rounds: &[(Csr, Csr, MutationDelta)]) -> Vec<Fold> {
        let mut trace = trace_pagerank(pr, &rounds[0].0);
        let mut picked = Vec::new();
        for (round, (old, new, delta)) in rounds.iter().enumerate() {
            let advance = |fold| advance_trace(pr, &trace, old, new, delta, fold);
            let (scatter, scatter_stats, _) = advance(Some(Fold::Scatter));
            let (gather, gather_stats, _) = advance(Some(Fold::Gather));
            let (_, stats, fold) = advance(None);
            let golden = rank_bits(&trace_pagerank(pr, new));
            assert_eq!(rank_bits(&scatter), golden, "scatter, round {round}");
            assert_eq!(rank_bits(&gather), golden, "gather, round {round}");
            assert_eq!(scatter_stats, gather_stats, "round {round}");
            assert_eq!(stats, scatter_stats, "round {round}");
            assert!(!stats.full_fallback, "round {round} fell back");
            picked.push(fold.expect("an incremental advance folds"));
            trace = scatter;
        }
        picked
    }

    #[test]
    fn both_folds_match_the_full_trace_and_the_read_count_picks_by_shape() {
        // Average degree 16: the set reaches every vertex within a hop or
        // two, so its sizes sum past what a gather saves and the scatter
        // reads fewer edges.
        let dense = Csr::from_edges(256, &generators::uniform(256, 4096, 17));
        let picked = check_both_folds(&PageRank::new(5), &churn_rounds(dense, 0xDE45E, 4, 16));
        assert_eq!(picked, [Fold::Scatter; 4]);
        // Average degree 1.5: the set stays a small share of the vertices,
        // so gathering its in-edges once reads fewer.
        let sparse = Csr::from_edges(4096, &generators::uniform(4096, 6144, 23));
        let picked = check_both_folds(&PageRank::new(3), &churn_rounds(sparse, 0x5BA25E, 4, 4));
        assert_eq!(picked, [Fold::Gather; 4]);
    }

    #[test]
    fn delta_pagerank_falls_back_when_vertex_count_changes() {
        let pr = PageRank::new(4);
        let mut g = DynamicCsr::new(Csr::from_edges(8, &generators::path(8)));
        let old = g.canonical().clone();
        let trace = trace_pagerank(&pr, &old);
        let mut b = MutationBatch::new();
        b.add_vertex().insert_edge(Edge::new(8, 0));
        let delta = g.apply(&b).unwrap();
        let (new_trace, stats) = delta_pagerank(&pr, &trace, &old, g.canonical(), &delta);
        assert!(stats.full_fallback);
        let golden = trace_pagerank(&pr, g.canonical());
        assert_eq!(new_trace, golden);
    }
}
