//! Canonical candidate-state keys, and a sharded, lock-light memo table
//! over them.
//!
//! A [`StateKey`] encodes a candidate `(mapping, policies)` state as
//! canonical bytes (exact, collision-free) with a 64-bit hash for shard
//! selection. The hash sums one hash per process row, so a neighbor's key
//! is patched from its state's key, bytes and hash alike, in time
//! proportional to the move ([`NeighborKeys`]). Keys are the portfolio's
//! canonical tie-break and the Pareto archive's identity, and they key the
//! one memo table, [`StateCache`]: as [`CertifyCache`] it holds the
//! certify-guided admit verdicts the workers share, so a state any worker
//! has certified is never certified again, whichever thread certified it.
//!
//! A table instance is scoped to one problem instance (one
//! `(application, platform, k)` triple): keys encode only the candidate
//! state, not the context.

use ftes_ft::{Policy, PolicyAssignment};
use ftes_model::{Mapping, NodeId, ProcessId};
use ftes_opt::Move;
// ftes-lint: allow(determinism) reason="hash-keyed state lookup only; entries are never iterated into results"
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Canonical, collision-free key of one candidate `(mapping, policies)`
/// state.
///
/// The byte encoding is exact (two states compare equal iff they are the
/// same design point) and totally ordered (used as the deterministic
/// tie-breaker throughout this crate). It carries a 64-bit hash for shard
/// selection and hashing: the wrapping sum of one mix per process row
/// (process index, base node, copy count, each copy's recoveries and
/// checkpoints), which a move updates by trading one row's share for
/// another.
#[derive(Clone, PartialEq, Eq)]
pub struct StateKey {
    bytes: Vec<u8>,
    hash: u64,
}

impl StateKey {
    /// Encodes a candidate state canonically: one word per process for the
    /// mapping, then per process its copy count and each copy's recoveries
    /// and checkpoints. The mapping section has fixed length, so the
    /// encoding is self-delimiting without separators.
    pub fn encode(mapping: &Mapping, policies: &PolicyAssignment) -> Self {
        let policy_words: usize = policies.iter().map(|(_, policy)| policy_words(policy)).sum();
        let mut bytes = Vec::with_capacity(4 * (mapping.iter().count() + policy_words));
        for (_, node) in mapping.iter() {
            push_u32(&mut bytes, node.index() as u32);
        }
        let mut hash = 0u64;
        for (p, policy) in policies.iter() {
            push_policy(&mut bytes, policy);
            hash = hash.wrapping_add(row_hash(p, mapping.node_of(p), policy));
        }
        StateKey { bytes, hash }
    }

    /// The 64-bit hash of the state: the wrapping sum of its row hashes.
    pub fn hash64(&self) -> u64 {
        self.hash
    }
}

/// The keys of one state's neighbors, each patched from the state's own
/// key in time proportional to the move: the key's bytes are copied and
/// the moved process's word (a remap) or policy section (a repolicy) is
/// rewritten, and the hash trades the process's old row hash for its new
/// one. Built once per state from the byte offset of each policy section.
pub(crate) struct NeighborKeys<'a> {
    key: &'a StateKey,
    mapping: &'a Mapping,
    policies: &'a PolicyAssignment,
    /// Byte offset of each process's policy section in `key`, then the
    /// key's length.
    policy_at: Vec<usize>,
}

impl<'a> NeighborKeys<'a> {
    /// The neighbor keys of `(mapping, policies)`, whose key is `key`.
    pub(crate) fn new(
        key: &'a StateKey,
        mapping: &'a Mapping,
        policies: &'a PolicyAssignment,
    ) -> Self {
        let mut at = 4 * mapping.iter().count();
        let mut policy_at = Vec::with_capacity(at / 4 + 1);
        policy_at.push(at);
        for (_, policy) in policies.iter() {
            at += 4 * policy_words(policy);
            policy_at.push(at);
        }
        debug_assert_eq!(at, key.bytes.len(), "the key encodes this state");
        NeighborKeys { key, mapping, policies, policy_at }
    }

    /// The key of the state `mv` leads to: equal, bytes and hash, to
    /// [`StateKey::encode`] of the successor
    /// ([`apply_move`](ftes_opt::apply_move)'s result).
    pub(crate) fn key(&self, mv: Move<'_>) -> StateKey {
        let process = mv.process();
        let old = &self.key.bytes;
        let (bytes, row) = match mv {
            Move::Remap { to, .. } => {
                let mut bytes = old.clone();
                let at = 4 * process.index();
                bytes[at..at + 4].copy_from_slice(&(to.index() as u32).to_le_bytes());
                (bytes, row_hash(process, to, self.policies.policy(process)))
            }
            Move::Repolicy { policy, .. } => {
                let (start, end) =
                    (self.policy_at[process.index()], self.policy_at[process.index() + 1]);
                let mut bytes =
                    Vec::with_capacity(old.len() - (end - start) + 4 * policy_words(policy));
                bytes.extend_from_slice(&old[..start]);
                push_policy(&mut bytes, policy);
                bytes.extend_from_slice(&old[end..]);
                (bytes, row_hash(process, self.mapping.node_of(process), policy))
            }
        };
        let replaced =
            row_hash(process, self.mapping.node_of(process), self.policies.policy(process));
        StateKey { bytes, hash: self.key.hash.wrapping_sub(replaced).wrapping_add(row) }
    }
}

// The hash is derived from the bytes, so `Debug` shows the bytes alone.
impl fmt::Debug for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateKey").field("bytes", &self.bytes).finish()
    }
}

impl Hash for StateKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for StateKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StateKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bytes.cmp(&other.bytes)
    }
}

/// Words in a policy's section of a key: its copy count, then two per copy.
fn policy_words(policy: &Policy) -> usize {
    1 + 2 * policy.copies().len()
}

fn push_policy(out: &mut Vec<u8>, policy: &Policy) {
    push_u32(out, policy.copies().len() as u32);
    for copy in policy.copies() {
        push_u32(out, copy.recoveries);
        push_u32(out, copy.checkpoints);
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// One process row's share of a [`StateKey`] hash: a 64-bit mix of the
/// process index, its base node, its copy count and each copy's recoveries
/// and checkpoints.
fn row_hash(process: ProcessId, node: NodeId, policy: &Policy) -> u64 {
    let mut h = mix(((process.index() as u64) << 32) | node.index() as u64);
    h = mix(h ^ policy.copies().len() as u64);
    for copy in policy.copies() {
        h = mix(h ^ ((u64::from(copy.recoveries) << 32) | u64::from(copy.checkpoints)));
    }
    h
}

/// The splitmix64 finalizer: a bijective, well-dispersing 64-bit mix.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice: stable across platforms and runs (unlike the
/// std `DefaultHasher`), dependency-free, good enough dispersion for the
/// journal's frame checksums, the serve cache's keys and the suite's point
/// seeds.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Hit/miss/size snapshot of a [`StateCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that computed the value.
    pub misses: u64,
    /// Distinct states currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Sums two snapshots (suite-level aggregation).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
        }
    }
}

/// One table shard.
type Shard<V> = Mutex<HashMap<StateKey, V>>;

/// Sharded memo table from [`StateKey`] to a value that is a pure function
/// of the keyed state.
///
/// Callers [`get`](StateCache::get) first and compute only on a miss, then
/// [`insert`](StateCache::insert). Two workers that miss the same key
/// concurrently both compute it and arrive at the same value, so the first
/// insert wins and the second is a no-op. The hit/miss counters follow
/// that interleaving, so they are in-memory diagnostics and no report
/// renders them; at one thread each unique key misses exactly once.
#[derive(Debug)]
pub struct StateCache<V> {
    shards: Box<[Shard<V>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// State → certify-guided admit verdict (`true` = the state may become a
/// worker's best, `false` = demoted). Certifiers run unbudgeted in guided
/// mode precisely so that verdicts are pure facts of the state.
pub type CertifyCache = StateCache<bool>;

impl<V: Copy> Default for StateCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> StateCache<V> {
    /// An empty table with 64 shards: enough that a dozen worker threads
    /// rarely contend on a shard lock.
    pub fn new() -> Self {
        StateCache {
            shards: (0..64).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &StateKey) -> &Shard<V> {
        &self.shards[(key.hash64() % self.shards.len() as u64) as usize]
    }

    /// The cached value of `key`, counting the lookup as a hit or a miss.
    pub fn get(&self, key: &StateKey) -> Option<V> {
        let value = self.shard(key).lock().expect("cache shard poisoned").get(key).copied();
        let counter = if value.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Publishes the value of `key`. The first insert of a key wins; a
    /// later one (a worker that missed the same key concurrently and
    /// computed the same value) is a no-op. The key is copied only when
    /// absent.
    pub fn insert(&self, key: &StateKey, value: V) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if !shard.contains_key(key) {
            shard.insert(key.clone(), value);
        }
    }

    /// Current hit/miss/size counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::samples;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn fig3_state() -> (Mapping, PolicyAssignment) {
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        (mapping, policies)
    }

    #[test]
    fn keys_are_canonical_and_distinct() {
        let (app, arch) = samples::fig3();
        let (mapping, policies) = fig3_state();
        let a = StateKey::encode(&mapping, &policies);
        let b = StateKey::encode(&mapping, &policies);
        assert_eq!(a, b);
        assert_eq!(a.hash64(), b.hash64());

        let moved = mapping
            .with_move(&app, &arch, ftes_model::ProcessId::new(0), ftes_model::NodeId::new(1))
            .unwrap();
        let c = StateKey::encode(&moved, &policies);
        assert_ne!(a, c, "different mappings encode differently");

        let mut repol = policies.clone();
        repol.set(ftes_model::ProcessId::new(1), ftes_ft::Policy::replication(2));
        let d = StateKey::encode(&mapping, &repol);
        assert_ne!(a, d, "different policies encode differently");
    }

    #[test]
    fn cache_memoizes_and_counts() {
        let (mapping, policies) = fig3_state();
        let key = StateKey::encode(&mapping, &policies);
        let cache = StateCache::<bool>::new();
        assert_eq!(cache.get(&key), None);
        cache.insert(&key, false);
        for _ in 0..4 {
            assert_eq!(cache.get(&key), Some(false));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (4, 1, 1));
        assert!(stats.hit_rate() > 0.79);
    }

    #[test]
    fn concurrent_misses_of_one_key_keep_the_first_insert() {
        let (mapping, policies) = fig3_state();
        let key = StateKey::encode(&mapping, &policies);
        let cache = StateCache::<usize>::new();
        let (all_missed, turn) = (Barrier::new(8), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (cache, key, all_missed, turn) = (&cache, &key, &all_missed, &turn);
                scope.spawn(move || {
                    assert_eq!(cache.get(key), None);
                    all_missed.wait();
                    // Every thread has missed; they insert in thread
                    // order, so thread 0's value is the first insert.
                    while turn.load(Ordering::Acquire) != i {
                        std::thread::yield_now();
                    }
                    cache.insert(key, i);
                    turn.store(i + 1, Ordering::Release);
                });
            }
        });
        for _ in 0..4 {
            assert_eq!(cache.get(&key), Some(0));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (4, 8, 1));
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned values: the hash must never drift across platforms/runs
        // (journal checksums and the suite's point seeds rely on it).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
