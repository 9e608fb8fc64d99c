//! PN-side caching of index nodes (§5.3.1).
//!
//! "All index nodes with exception of the leaf level are cached. The
//! leaf-level nodes are always retrieved from the storage system." The cache
//! holds decoded nodes keyed by node id, together with the store token
//! observed when they were read. Inner nodes route descents straight from
//! the cache. Leaves are cached too. A reader still reads every leaf it
//! answers from the store, and the cached copy merely names the records
//! whose read can ride the same frame as that leaf read; the prediction
//! holds exactly when the fresh read returns the cached token (LL/SC tokens
//! never repeat, so equal tokens mean equal bytes). An insert writes on
//! the cached copy directly: its store-conditional names the cached token,
//! so the store refuses it if the leaf changed since.
//!
//! Entries are shared `Arc`s, so a hit costs a reference-count increment,
//! not a copy of the node's entries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tell_obs::ProfMutex;
use tell_store::cell::Token;

use crate::node::NodeData;

/// Hit/miss counters (exposed so benchmarks can show cache effectiveness).
/// Leaf lookups count alongside inner-node lookups.
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub invalidations: AtomicU64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed) as f64;
        let m = self.misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// Node cache of one processing node.
pub struct NodeCache {
    nodes: ProfMutex<HashMap<u64, (Token, Arc<NodeData>)>>,
    stats: CacheStats,
}

impl Default for NodeCache {
    fn default() -> Self {
        NodeCache::new()
    }
}

impl NodeCache {
    /// Empty cache.
    pub fn new() -> Self {
        NodeCache {
            nodes: ProfMutex::with_default("index.cache.nodes"),
            stats: CacheStats::default(),
        }
    }

    /// Look up a cached node.
    pub fn get(&self, id: u64) -> Option<(Token, Arc<NodeData>)> {
        let got = self.nodes.lock().get(&id).cloned();
        match &got {
            Some(_) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                tell_obs::incr(tell_obs::Counter::IndexCacheHits);
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                tell_obs::incr(tell_obs::Counter::IndexCacheMisses);
            }
        };
        got
    }

    /// Install or refresh a node as read (or written) under `token`.
    pub fn put(&self, id: u64, token: Token, node: impl Into<Arc<NodeData>>) {
        self.nodes.lock().insert(id, (token, node.into()));
    }

    /// Drop one node (stale path refresh).
    pub fn invalidate(&self, id: u64) {
        if self.nodes.lock().remove(&id).is_some() {
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            tell_obs::incr(tell_obs::Counter::IndexCacheInvalidations);
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut map = self.nodes.lock();
        let n = map.len() as u64;
        map.clear();
        self.stats.invalidations.fetch_add(n, Ordering::Relaxed);
        tell_obs::add(tell_obs::Counter::IndexCacheInvalidations, n);
    }

    /// Number of cached nodes.
    pub fn len(&self) -> usize {
        self.nodes.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.nodes.lock().is_empty()
    }

    /// Counter access.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::min_key;

    fn inner() -> NodeData {
        NodeData {
            is_leaf: false,
            low: min_key(),
            high: None,
            right: None,
            entries: vec![(min_key(), 1)],
        }
    }

    #[test]
    fn put_get_invalidate() {
        let c = NodeCache::new();
        assert!(c.get(1).is_none());
        c.put(1, 10, inner());
        let (tok, node) = c.get(1).unwrap();
        assert_eq!(tok, 10);
        assert!(!node.is_leaf);
        c.invalidate(1);
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let c = NodeCache::new();
        c.get(5);
        c.put(5, 1, inner());
        c.get(5);
        c.get(5);
        assert_eq!(c.stats().hits.load(Ordering::Relaxed), 2);
        assert_eq!(c.stats().misses.load(Ordering::Relaxed), 1);
        assert!((c.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn clear_counts_invalidations() {
        let c = NodeCache::new();
        c.put(1, 1, inner());
        c.put(2, 1, inner());
        c.clear();
        assert_eq!(c.stats().invalidations.load(Ordering::Relaxed), 2);
    }
}
