//! Sharded LRU cache from canonical request keys to rendered response
//! bodies.
//!
//! The service's unit of work — a full synthesis or exploration run — is
//! many orders of magnitude more expensive than rendering its JSON body,
//! so the cache stores finished bodies verbatim: a hit re-sends the exact
//! bytes of the first computation, which is also what makes "repeated or
//! equivalent requests are answered byte-identically" a cache property
//! rather than a hope.
//!
//! Keys are canonical, collision-free byte encodings (for `/synthesize`,
//! [`ftes::spec::SystemSpec::canonical_bytes`]) with a precomputed FNV-1a
//! hash for shard selection — the recipe of `ftes-explore`'s state keys.
//! Eviction is least-recently-used per shard, tracked with a monotonic
//! use-stamp; shards are small (capacity / shards entries), so the O(cap)
//! eviction scan is noise next to a synthesis run.

use crate::sync;
use ftes::explore::{fnv1a64, CacheStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A canonical, collision-free cache key with a precomputed hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    bytes: Vec<u8>,
    hash: u64,
}

impl CacheKey {
    /// Builds a key from an endpoint namespace and the request's canonical
    /// bytes (the namespace keeps `/synthesize` and `/explore` entries for
    /// coincidentally equal encodings apart).
    pub fn new(namespace: &str, canonical: &[u8]) -> Self {
        let mut bytes = Vec::with_capacity(namespace.len() + 1 + canonical.len());
        bytes.extend_from_slice(namespace.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(canonical);
        let hash = fnv1a64(&bytes);
        CacheKey { bytes, hash }
    }
}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

struct Entry {
    status: u16,
    body: Arc<String>,
    last_used: u64,
}

type Shard = Mutex<HashMap<CacheKey, Entry>>;

/// Completion signal for one in-flight computation (single-flight).
#[derive(Default)]
struct InFlight {
    done: Mutex<bool>,
    cv: Condvar,
}

/// The sharded LRU response cache.
pub struct ResultCache {
    shards: Box<[Shard]>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    clock: AtomicU64,
    /// Single-flight table: keys currently being computed. Followers wait
    /// on the leader's completion instead of recomputing — a synthesis run
    /// is orders of magnitude more expensive than the wait.
    inflight: Mutex<HashMap<CacheKey, Arc<InFlight>>>,
}

/// Outcome of [`ResultCache::lookup`].
pub enum Lookup<'a> {
    /// `(status, body)` was cached (or just produced by another request's
    /// leader). Deterministic failures cache like successes: the handlers'
    /// replies are pure functions of the request, a 422 included, so
    /// repeating an expensive-but-failing request must not re-run it.
    Hit(u16, Arc<String>),
    /// The caller is the leader for this key: it must compute the reply
    /// and either [`FlightGuard::complete`] it or drop the guard if the
    /// outcome must not be cached (panic path).
    Miss(FlightGuard<'a>),
}

/// Leadership over one in-flight key. Dropping without
/// [`complete`](FlightGuard::complete) (error or panic path) releases the
/// key and wakes followers, who then retry — one of them becomes the next
/// leader.
pub struct FlightGuard<'a> {
    cache: &'a ResultCache,
    key: CacheKey,
}

impl FlightGuard<'_> {
    /// Publishes the computed reply to the cache, then releases the
    /// flight (followers waking up find the entry).
    pub fn complete(self, status: u16, body: Arc<String>) {
        self.cache.insert(self.key.clone(), status, body);
        // Drop runs next and wakes the followers.
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let flight = sync::lock(&self.cache.inflight).remove(&self.key);
        if let Some(flight) = flight {
            *sync::lock(&flight.done) = true;
            flight.cv.notify_all();
        }
    }
}

impl ResultCache {
    /// A cache holding roughly `capacity` bodies across `shards` shards
    /// (each shard holds at least one).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity_per_shard: capacity.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        &self.shards[(key.hash % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up, refreshing its recency on a hit. Misses are counted
    /// here so the hit rate reflects lookups, not insertions.
    pub fn get(&self, key: &CacheKey) -> Option<(u16, Arc<String>)> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = sync::lock(self.shard(key));
        match shard.get_mut(key) {
            Some(entry) => {
                entry.last_used = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((entry.status, Arc::clone(&entry.body)))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Lock-and-look without touching counters or recency (used for the
    /// single-flight re-check, which must not distort hit/miss stats).
    fn peek(&self, key: &CacheKey) -> Option<(u16, Arc<String>)> {
        sync::lock(self.shard(key)).get(key).map(|entry| (entry.status, Arc::clone(&entry.body)))
    }

    /// Inserts a computed body, evicting the shard's least-recently-used
    /// entry when full. Two threads racing to fill the same key both
    /// computed identical bytes (handlers are deterministic), so last
    /// write wins without consequence.
    pub fn insert(&self, key: CacheKey, status: u16, body: Arc<String>) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = sync::lock(self.shard(&key));
        if !shard.contains_key(&key) && shard.len() >= self.capacity_per_shard {
            if let Some(evict) =
                shard.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                shard.remove(&evict);
            }
        }
        shard.insert(key, Entry { status, body, last_used: stamp });
    }

    /// Single-flight lookup: a hit returns the body; a miss makes the
    /// caller the *leader* for the key while concurrent requests for the
    /// same key block until the leader completes (then read its result
    /// from cache) instead of each re-running the computation.
    pub fn lookup(&self, key: &CacheKey) -> Lookup<'_> {
        loop {
            if let Some((status, body)) = self.get(key) {
                return Lookup::Hit(status, body);
            }
            let flight = {
                let mut inflight = sync::lock(&self.inflight);
                // Re-check under the table lock: a leader completing
                // between our miss and this point first inserts, then
                // releases its flight — so a peek here is exact and no
                // second computation can start for a populated key.
                if let Some((status, body)) = self.peek(key) {
                    return Lookup::Hit(status, body);
                }
                match inflight.get(key) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        inflight.insert(key.clone(), Arc::new(InFlight::default()));
                        return Lookup::Miss(FlightGuard { cache: self, key: key.clone() });
                    }
                }
            };
            // Follower: wait for the leader, then loop — normally the next
            // `get` hits; if the leader failed, one follower takes over.
            let mut done = sync::lock(&flight.done);
            while !*done {
                done = sync::wait(&flight.cv, done);
            }
        }
    }

    /// Hit/miss/size counters (reuses the explore-layer snapshot type so
    /// reports aggregate uniformly).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| sync::lock(s).len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn namespaces_and_payloads_separate_keys() {
        let a = CacheKey::new("synthesize/v1", b"abc");
        let b = CacheKey::new("explore/v1", b"abc");
        let c = CacheKey::new("synthesize/v1", b"abd");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, CacheKey::new("synthesize/v1", b"abc"));
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = ResultCache::new(8, 2);
        let key = CacheKey::new("t", b"k1");
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), 200, body("v1"));
        assert_eq!(cache.get(&key).unwrap().1.as_str(), "v1");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.hit_rate() > 0.49);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Single shard, capacity 2: deterministic eviction order.
        let cache = ResultCache::new(2, 1);
        let (k1, k2, k3) =
            (CacheKey::new("t", b"1"), CacheKey::new("t", b"2"), CacheKey::new("t", b"3"));
        cache.insert(k1.clone(), 200, body("1"));
        cache.insert(k2.clone(), 200, body("2"));
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3.clone(), 200, body("3"));
        assert!(cache.get(&k1).is_some(), "recently used survives");
        assert!(cache.get(&k2).is_none(), "LRU entry evicted");
        assert!(cache.get(&k3).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn single_flight_computes_once_for_concurrent_misses() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ResultCache::new(8, 2);
        let key = CacheKey::new("t", b"hot");
        let computed = AtomicUsize::new(0);
        let results: Vec<Arc<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (cache, key, computed) = (&cache, &key, &computed);
                    scope.spawn(move || match cache.lookup(key) {
                        Lookup::Hit(_, body) => body,
                        Lookup::Miss(guard) => {
                            computed.fetch_add(1, Ordering::Relaxed);
                            // Give followers time to pile onto the flight.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            let body = body("expensive");
                            guard.complete(200, Arc::clone(&body));
                            body
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Not strictly 1 (a thread may start after the leader finished and
        // the entry is cached — that is a plain hit, not a computation),
        // but piling 8 threads onto one cold key must not compute 8 times.
        assert_eq!(computed.load(Ordering::Relaxed), 1, "followers must not recompute");
        for r in &results {
            assert_eq!(r.as_str(), "expensive");
        }
    }

    #[test]
    fn failed_leader_hands_leadership_to_a_follower() {
        let cache = ResultCache::new(8, 1);
        let key = CacheKey::new("t", b"flaky");
        // Leader errors out: guard dropped without complete().
        match cache.lookup(&key) {
            Lookup::Miss(guard) => drop(guard),
            Lookup::Hit(..) => panic!("cold key cannot hit"),
        }
        // The key is released: the next lookup leads again. A 422 caches
        // like a success (negative caching of deterministic failures).
        match cache.lookup(&key) {
            Lookup::Miss(guard) => guard.complete(422, body("infeasible")),
            Lookup::Hit(..) => panic!("abandoned flight must not populate the cache"),
        }
        assert!(matches!(cache.lookup(&key), Lookup::Hit(422, b) if b.as_str() == "infeasible"));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict_neighbors() {
        let cache = ResultCache::new(2, 1);
        let (k1, k2) = (CacheKey::new("t", b"1"), CacheKey::new("t", b"2"));
        cache.insert(k1.clone(), 200, body("a"));
        cache.insert(k2.clone(), 200, body("b"));
        cache.insert(k1.clone(), 200, body("a2"));
        assert_eq!(cache.get(&k1).unwrap().1.as_str(), "a2");
        assert!(cache.get(&k2).is_some());
    }
}
