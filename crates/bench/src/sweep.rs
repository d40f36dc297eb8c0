//! Parallel experiment sweeps.
//!
//! The figure binaries run dozens of independent simulations; this module
//! fans them out over the workspace's ordered parallel map
//! ([`scalagraph_graph::run_chunks`]) so a full `fig14` run uses every
//! core. Each simulation is single-threaded and deterministic, so
//! parallelism cannot change any result — only the wall clock.

use std::sync::{Mutex, PoisonError};

pub use scalagraph_graph::default_threads;

/// Applies `f` to every item of `inputs` in parallel (bounded by
/// [`default_threads`]), preserving order.
///
/// # Example
///
/// ```
/// let squares = scalagraph_bench::sweep::parallel_map(vec![1, 2, 3], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn parallel_map<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(default_threads(), inputs, f)
}

/// [`parallel_map`] with an explicit worker count. `threads == 1` runs the
/// closure inline on the caller's thread — no pool, no queue — so a
/// single-threaded sweep is exactly a `for` loop (the sequential baseline
/// the benchmarks compare against).
pub fn parallel_map_with<T, R, F>(threads: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let items: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|x| Mutex::new(Some(x))).collect();
    scalagraph_graph::run_chunks(items.len(), threads, |i| {
        let item = items[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match item {
            Some(x) => f(x),
            // run_chunks hands out each index exactly once.
            None => unreachable!("sweep item claimed twice"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all() {
        let out = parallel_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn works_with_heavy_closures() {
        let out = parallel_map(vec![1u64, 2, 3, 4], |x| {
            (0..10_000u64).fold(x, |a, b| a.wrapping_add(b))
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn explicit_thread_counts_agree_with_sequential() {
        let inputs: Vec<i64> = (0..64).collect();
        let seq = parallel_map_with(1, inputs.clone(), |x| x * x - 3);
        for threads in [2, 3, 8] {
            let par = parallel_map_with(threads, inputs.clone(), |x| x * x - 3);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
