//! Scenario-result memoization with single-flight execution.
//!
//! Simulation runs are deterministic: two scenarios with the same
//! [`fingerprint`](scalagraph_conformance::Scenario::fingerprint) run the
//! same graph, algorithm, configuration, and fault schedule, and therefore
//! produce the same result — so a completed result can be replayed
//! *verbatim* for every later identical request. The cache stores the
//! serialized result JSON (not a parsed structure), which makes memoized
//! replies byte-identical to the original by construction. That JSON
//! carries the request's name, which the fingerprint ignores, so the daemon
//! keys results by [`memo_key`]: the fingerprint with the name hashed in.
//!
//! Soundness boundary: only **completed** runs may be published. Cancelled
//! and deadline-killed outcomes depend on wall-clock timing (which cycle the
//! token was observed on), so callers must drop their [`MemoGuard`] instead
//! of publishing — the next identical request simply runs again.
//!
//! The memo is the runtime's [`FlightCache`], the same single-flight LRU
//! cache the graph cache is built on: the first request for a key gets a
//! [`MemoGuard`] and runs the simulation; concurrent identical requests
//! wait and receive the published JSON. If the flight ends without a
//! publishable result (failure, cancellation, panic), dropping the guard
//! wakes the waiters and the next one becomes the new flight — nobody
//! deadlocks on an abandoned entry.

use std::sync::Arc;

use scalagraph_runtime::{Flight, FlightCache, FlightGuard, FlightStats};

/// A bounded, thread-safe, single-flight memo of completed result JSON,
/// keyed by [`memo_key`].
pub type MemoCache = FlightCache<u64, Arc<String>>;

/// What [`MemoCache::begin`] resolved for a key: a stored result to replay
/// verbatim, or the right to run the simulation.
pub type Memo<'a> = Flight<'a, u64, Arc<String>>;

/// Exclusive right to run one key's simulation; publish only a
/// **completed** result (see the module docs).
pub type MemoGuard<'a> = FlightGuard<'a, u64, Arc<String>>;

/// Counters describing the memo since construction.
pub type MemoStats = FlightStats;

/// The key the daemon memoizes a result under: `fingerprint` (the
/// scenario's [`fingerprint`](scalagraph_conformance::Scenario::fingerprint),
/// which clears the name) extended FNV-1a style over the name's bytes. A
/// replay is then byte-identical to what its own request would have
/// produced, name included.
pub fn memo_key(fingerprint: u64, name: &str) -> u64 {
    name.bytes().fold(fingerprint, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_keys_separate_names_of_one_fingerprint() {
        assert_ne!(memo_key(7, "alpha"), memo_key(7, "beta"));
        assert_ne!(memo_key(7, "alpha"), memo_key(8, "alpha"));
        assert_eq!(memo_key(7, "alpha"), memo_key(7, "alpha"));
        assert_eq!(memo_key(7, ""), 7, "an empty name keys by fingerprint");
    }

    #[test]
    fn publish_then_hit_returns_the_same_bytes() {
        let memo = MemoCache::new(8);
        let guard = match memo.begin(42) {
            Memo::Miss(g) => g,
            Memo::Hit(_) => panic!("empty memo cannot hit"),
        };
        let stored = guard.publish("{\"x\":1}".to_string());
        match memo.begin(42) {
            Memo::Hit(json) => {
                assert_eq!(*json, *stored);
                assert!(Arc::ptr_eq(&json, &stored), "same allocation, same bytes");
            }
            Memo::Miss(_) => panic!("published result must hit"),
        }
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserted), (1, 1, 1));
    }

    #[test]
    fn an_abandoned_flight_hands_the_miss_to_the_next_caller() {
        let memo = MemoCache::new(8);
        {
            let _guard = match memo.begin(7) {
                Memo::Miss(g) => g,
                Memo::Hit(_) => panic!(),
            };
            // Dropped without publishing: the failed run is not memoized.
        }
        let second = memo.begin(7);
        assert!(matches!(second, Memo::Miss(_)));
        // Stats before the second guard drops: one abandonment so far.
        let stats = memo.stats();
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.inserted, 0);
    }

    #[test]
    fn concurrent_identical_requests_run_exactly_one_flight() {
        let memo = MemoCache::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    scope.spawn(|| match memo.begin(99) {
                        Memo::Hit(json) => (false, json),
                        Memo::Miss(guard) => {
                            // Simulate a slow run so waiters actually park.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            (true, guard.publish("{\"r\":9}".to_string()))
                        }
                    })
                })
                .collect();
            let results: Vec<(bool, Arc<String>)> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(
                results.iter().filter(|(ran, _)| *ran).count(),
                1,
                "single flight"
            );
            for (_, json) in &results {
                assert_eq!(**json, "{\"r\":9}");
            }
        });
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits), (1, 15));
    }

    #[test]
    fn waiters_of_an_abandoned_flight_wake_and_take_over() {
        let memo = MemoCache::new(8);
        std::thread::scope(|scope| {
            let results: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| match memo.begin(5) {
                        Memo::Hit(json) => (*json).clone(),
                        Memo::Miss(guard) => {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            if memo.stats().abandoned == 0 {
                                drop(guard); // first flight fails
                                "abandoned".to_string()
                            } else {
                                (*guard.publish("{\"ok\":true}".to_string())).clone()
                            }
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            assert_eq!(
                results.iter().filter(|r| *r == "abandoned").count(),
                1,
                "exactly one failed flight: {results:?}"
            );
            for r in results.iter().filter(|r| *r != "abandoned") {
                assert_eq!(r, "{\"ok\":true}");
            }
        });
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let memo = MemoCache::new(2);
        for fp in [1u64, 2, 3] {
            if let Memo::Miss(g) = memo.begin(fp) {
                g.publish(format!("{{\"fp\":{fp}}}"));
            }
            if fp == 2 {
                // Touch 1 so 2 becomes the LRU victim when 3 arrives.
                assert!(matches!(memo.begin(1), Memo::Hit(_)));
            }
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.stats().evictions, 1);
        assert!(matches!(memo.begin(1), Memo::Hit(_)), "1 survived");
        assert!(matches!(memo.begin(3), Memo::Hit(_)), "3 survived");
        assert!(matches!(memo.begin(2), Memo::Miss(_)), "2 was evicted");
    }
}
