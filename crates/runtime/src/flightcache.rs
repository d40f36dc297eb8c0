//! A bounded, thread-safe, single-flight LRU cache.
//!
//! Both of the service's caches are this type: the [`GraphCache`](crate::GraphCache)
//! (one CSR build per graph spec) and the serve daemon's result memo (one
//! simulation per request). The first caller of a key gets a
//! [`FlightGuard`] and produces the value outside the lock; concurrent
//! callers of the same key park on a condvar and receive what it
//! publishes. A guard dropped without publishing — the producer failed,
//! was cancelled or panicked — abandons the flight: the slot is removed,
//! the waiters wake, and the next of them becomes the new flight, so no
//! caller ever waits on a value that will not come.
//!
//! Eviction is LRU over published entries, bounded by an entry count and
//! by a byte budget over each entry's weight. It never evicts an in-flight
//! slot (a waiter is parked on it) or the entry just published (its
//! producer is about to hand it out), so one entry heavier than the whole
//! budget still serves its own flight.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Condvar, Mutex};

use crate::recover;

/// Counters describing a cache since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Lookups answered from a published entry, including waiters that
    /// joined an in-flight producer.
    pub hits: u64,
    /// Lookups that had to produce the value.
    pub misses: u64,
    /// Values published.
    pub inserted: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Flights that ended without publishing.
    pub abandoned: u64,
}

enum Slot<V> {
    /// A flight is producing this key's value right now; wait, don't produce.
    InFlight,
    /// The published value, its weight and its LRU stamp.
    Ready {
        value: V,
        bytes: u64,
        last_used: u64,
    },
}

struct State<K, V> {
    slots: HashMap<K, Slot<V>>,
    tick: u64,
    resident_bytes: u64,
    stats: FlightStats,
}

/// A bounded, thread-safe, single-flight LRU cache from `K` to `V`.
pub struct FlightCache<K, V> {
    state: Mutex<State<K, V>>,
    published: Condvar,
    capacity: usize,
    byte_budget: u64,
    weigh: fn(&V) -> u64,
}

/// What [`FlightCache::begin`] resolved for a key.
pub enum Flight<'a, K: Hash + Eq + Clone, V: Clone> {
    /// A published value.
    Hit(V),
    /// This caller owns the flight: produce the value, then
    /// [`FlightGuard::publish`] it or drop the guard.
    Miss(FlightGuard<'a, K, V>),
}

/// Exclusive right to produce one key's value. Dropping the guard without
/// publishing abandons the flight and wakes any waiters.
pub struct FlightGuard<'a, K: Hash + Eq + Clone, V: Clone> {
    cache: &'a FlightCache<K, V>,
    key: K,
    published: bool,
}

impl<K: Hash + Eq + Clone, V: Clone> FlightCache<K, V> {
    /// A cache holding at most `capacity` entries (minimum 1), with no
    /// byte budget.
    pub fn new(capacity: usize) -> Self {
        FlightCache::with_byte_budget(capacity, 0, |_| 0)
    }

    /// A cache bounded by an entry count and by `byte_budget` over the
    /// entries' weights, as `weigh` measures each at publication. A budget
    /// of 0 means none.
    pub fn with_byte_budget(capacity: usize, byte_budget: u64, weigh: fn(&V) -> u64) -> Self {
        FlightCache {
            state: Mutex::new(State {
                slots: HashMap::new(),
                tick: 0,
                resident_bytes: 0,
                stats: FlightStats::default(),
            }),
            published: Condvar::new(),
            capacity: capacity.max(1),
            byte_budget: if byte_budget == 0 {
                u64::MAX
            } else {
                byte_budget
            },
            weigh,
        }
    }

    /// The byte budget (`u64::MAX` when there is none).
    pub fn byte_budget(&self) -> u64 {
        self.byte_budget
    }

    /// Resolves `key` to its published value or the right to produce one.
    /// Blocks while another thread's flight for the same key is running.
    pub fn begin(&self, key: K) -> Flight<'_, K, V> {
        let mut state = recover(self.state.lock());
        loop {
            state.tick += 1;
            let tick = state.tick;
            match state.slots.get_mut(&key) {
                Some(Slot::Ready {
                    value, last_used, ..
                }) => {
                    *last_used = tick;
                    let value = value.clone();
                    state.stats.hits += 1;
                    return Flight::Hit(value);
                }
                Some(Slot::InFlight) => state = recover(self.published.wait(state)),
                None => {
                    state.slots.insert(key.clone(), Slot::InFlight);
                    state.stats.misses += 1;
                    return Flight::Miss(FlightGuard {
                        cache: self,
                        key,
                        published: false,
                    });
                }
            }
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> FlightStats {
        recover(self.state.lock()).stats
    }

    /// The summed weight of the published entries.
    pub fn resident_bytes(&self) -> u64 {
        recover(self.state.lock()).resident_bytes
    }

    /// Published entries currently cached (in-flight slots excluded).
    pub fn len(&self) -> usize {
        recover(self.state.lock())
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Whether the cache holds no published entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq + Clone, V: Clone> FlightGuard<'_, K, V> {
    /// Publishes the flight's value, wakes its waiters, and returns the
    /// value they and later hits receive.
    pub fn publish(mut self, value: impl Into<V>) -> V {
        let (value, cache, key) = (value.into(), self.cache, &self.key);
        self.published = true;
        let bytes = (cache.weigh)(&value);
        let mut state = recover(cache.state.lock());
        state.tick += 1;
        let last_used = state.tick;
        state.resident_bytes += bytes;
        state.stats.inserted += 1;
        let ready = Slot::Ready {
            value: value.clone(),
            bytes,
            last_used,
        };
        state.slots.insert(key.clone(), ready);
        while state.slots.len() > cache.capacity || state.resident_bytes > cache.byte_budget {
            let victim = state
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } if k != key => Some((*last_used, k)),
                    _ => None,
                })
                .min_by_key(|(last_used, _)| *last_used)
                .map(|(_, k)| k.clone());
            // Everything left is in flight or just published.
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready { bytes, .. }) = state.slots.remove(&victim) {
                state.resident_bytes -= bytes;
                state.stats.evictions += 1;
            }
        }
        drop(state);
        cache.published.notify_all();
        value
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.published {
            let mut state = recover(self.cache.state.lock());
            state.slots.remove(&self.key);
            state.stats.abandoned += 1;
            drop(state);
            self.cache.published.notify_all();
        }
    }
}
