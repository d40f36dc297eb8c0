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
//! Execution is single-flight, like the graph cache: the first request for
//! a fingerprint gets a [`MemoGuard`] and runs the simulation; concurrent
//! identical requests park on a condvar and receive the published JSON. If
//! the flight ends without a publishable result (failure, cancellation,
//! panic), dropping the guard wakes the waiters and the next one becomes
//! the new flight — nobody deadlocks on an abandoned entry.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Counters describing the memo cache since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Requests answered from a stored result (including waiters that
    /// joined an in-flight run).
    pub hits: u64,
    /// Requests that had to run the simulation.
    pub misses: u64,
    /// Results published.
    pub inserted: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Flights that ended without publishing (failed / cancelled runs).
    pub abandoned: u64,
}

enum Slot {
    /// A flight is running this fingerprint right now; wait, don't run.
    InFlight,
    /// The stored result, with an LRU stamp.
    Ready { json: Arc<String>, last_used: u64 },
}

struct State {
    slots: HashMap<u64, Slot>,
    tick: u64,
    stats: MemoStats,
}

/// A bounded, thread-safe, single-flight memo of completed result JSON,
/// keyed by scenario fingerprint.
pub struct MemoCache {
    state: Mutex<State>,
    published: Condvar,
    capacity: usize,
}

/// What [`MemoCache::begin`] resolved for a fingerprint.
pub enum Memo<'a> {
    /// A stored (or just-published) result; replay it verbatim.
    Hit(Arc<String>),
    /// This caller owns the flight: run the simulation, then either
    /// [`MemoGuard::publish`] a completed result or drop the guard.
    Miss(MemoGuard<'a>),
}

/// Exclusive right to run one fingerprint's simulation. Dropping the guard
/// without publishing abandons the flight and wakes any waiters.
pub struct MemoGuard<'a> {
    cache: &'a MemoCache,
    fingerprint: u64,
    published: bool,
}

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

fn recover<'a>(
    r: Result<MutexGuard<'a, State>, PoisonError<MutexGuard<'a, State>>>,
) -> MutexGuard<'a, State> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl MemoCache {
    /// A memo holding at most `capacity` results (minimum 1).
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            state: Mutex::new(State {
                slots: HashMap::new(),
                tick: 0,
                stats: MemoStats::default(),
            }),
            published: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// A memo with the default capacity (1024 results).
    pub fn with_default_capacity() -> Self {
        MemoCache::new(1024)
    }

    /// Resolves `fingerprint` to a stored result or the right to produce
    /// one. Blocks while another thread's flight for the same fingerprint
    /// is in progress.
    pub fn begin(&self, fingerprint: u64) -> Memo<'_> {
        let mut state = recover(self.state.lock());
        loop {
            state.tick += 1;
            let tick = state.tick;
            match state.slots.get_mut(&fingerprint) {
                Some(Slot::Ready { json, last_used }) => {
                    *last_used = tick;
                    let json = Arc::clone(json);
                    state.stats.hits += 1;
                    return Memo::Hit(json);
                }
                Some(Slot::InFlight) => {
                    state = recover(self.published.wait(state));
                }
                None => {
                    state.slots.insert(fingerprint, Slot::InFlight);
                    state.stats.misses += 1;
                    return Memo::Miss(MemoGuard {
                        cache: self,
                        fingerprint,
                        published: false,
                    });
                }
            }
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> MemoStats {
        recover(self.state.lock()).stats
    }

    /// Stored results currently cached (in-flight slots excluded).
    pub fn len(&self) -> usize {
        recover(self.state.lock())
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Whether the memo holds no stored result.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn publish(&self, fingerprint: u64, json: Arc<String>) {
        let mut state = recover(self.state.lock());
        state.tick += 1;
        let tick = state.tick;
        state.slots.insert(
            fingerprint,
            Slot::Ready {
                json,
                last_used: tick,
            },
        );
        state.stats.inserted += 1;
        // LRU eviction; never evict an in-flight slot (a waiter is parked
        // on it) or the entry just published.
        while state.slots.len() > self.capacity {
            let victim = state
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } if *k != fingerprint => Some((*last_used, *k)),
                    _ => None,
                })
                .min_by_key(|(last_used, _)| *last_used);
            match victim {
                Some((_, key)) => {
                    state.slots.remove(&key);
                    state.stats.evictions += 1;
                }
                None => break,
            }
        }
        drop(state);
        self.published.notify_all();
    }

    fn abandon(&self, fingerprint: u64) {
        let mut state = recover(self.state.lock());
        if matches!(state.slots.get(&fingerprint), Some(Slot::InFlight)) {
            state.slots.remove(&fingerprint);
        }
        state.stats.abandoned += 1;
        drop(state);
        self.published.notify_all();
    }
}

impl MemoGuard<'_> {
    /// The fingerprint this flight owns.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Publishes a **completed** run's serialized result and returns the
    /// shared copy waiters and future hits will receive. Publishing
    /// anything other than a completed, deterministic result breaks the
    /// memo's soundness contract — see the module docs.
    pub fn publish(mut self, json: String) -> Arc<String> {
        let json = Arc::new(json);
        self.published = true;
        self.cache.publish(self.fingerprint, Arc::clone(&json));
        json
    }
}

impl Drop for MemoGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.cache.abandon(self.fingerprint);
        }
    }
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
