//! A lock-sharded hash map for concurrent memoization.
//!
//! Writers and readers hash the key to one of a fixed set of
//! `Mutex<HashMap>` shards, so unrelated keys rarely contend. The map
//! is deliberately *value-stable*: it memoizes pure computations, so a
//! racing double-insert of the same key stores the same value and
//! determinism is preserved regardless of which write lands.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::Mutex;

const SHARDS: usize = 16;

/// A concurrently usable `HashMap` split across `SHARDS` locks.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    hasher: RandomState,
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        &self.shards[(self.hasher.hash_one(key) as usize) % SHARDS]
    }

    /// Clones out the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().expect("shard").get(key).cloned()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard(&key).lock().expect("shard").insert(key, value)
    }

    /// Keeps only the entries whose key satisfies `keep`.
    pub fn retain(&self, mut keep: impl FnMut(&K) -> bool) {
        for shard in &self.shards {
            shard.lock().expect("shard").retain(|k, _| keep(k));
        }
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard").len())
            .sum()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_retain() {
        let m: ShardedMap<(usize, usize), f64> = ShardedMap::new();
        assert!(m.is_empty());
        for i in 0..100 {
            m.insert((i, i + 1), i as f64);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(7, 8)), Some(7.0));
        assert_eq!(m.get(&(7, 9)), None);
        m.retain(|&(a, _)| a % 2 == 0);
        assert_eq!(m.len(), 50);
        assert_eq!(m.get(&(7, 8)), None);
        assert_eq!(m.get(&(8, 9)), Some(8.0));
    }

    #[test]
    fn concurrent_inserts_do_not_lose_entries() {
        let m: ShardedMap<usize, usize> = ShardedMap::new();
        std::thread::scope(|s| {
            for w in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..250 {
                        m.insert(w * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(m.len(), 1000);
    }
}
