//! Collapsed stacks and lock-contention accounting.
//!
//! [`CollapsedTable`] is the flame graph's aggregate: a bounded map from a
//! stack of [`Site`] codes to a weight, rendered in the collapsed-stack
//! (`frame;frame;frame weight`) format inferno and speedscope ingest
//! directly. [`crate::export::fold_self_time`] fills one from span trees,
//! weighted in microseconds of self-time.
//!
//! [`ProfMutex`] and [`ProfRwLock`] wrap `parking_lot`'s locks with a
//! `try_lock` fast path; a contended acquire records the wait per named
//! lock and bumps the `lock_contended_total` / `lock_wait_us_total`
//! registry counters. [`lock_snapshot`] reads the per-name rows, which
//! ride the `Request::Metrics` snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::registry::Counter;
use crate::Site;

// ---------------------------------------------------------------------------
// Collapsed-stack table
// ---------------------------------------------------------------------------

/// Default bound on distinct stacks held by a table. The site taxonomy is
/// small, so real flame graphs sit far below this; the bound exists so a
/// bug (or a hostile scrape) cannot balloon memory.
pub const DEFAULT_MAX_STACKS: usize = 512;

/// Bounded aggregation of stacks: `site-code sequence → weight` (for a
/// span fold, microseconds of self-time).
///
/// Keys are ordered byte sequences, so iteration — and therefore
/// [`CollapsedTable::to_folded`] — is deterministic with no sorting step.
/// Once `max_stacks` distinct stacks exist, weight for *new* stacks is
/// tallied in `dropped` instead of silently lost.
#[derive(Clone, Debug, PartialEq)]
pub struct CollapsedTable {
    max_stacks: usize,
    stacks: BTreeMap<Vec<u8>, u64>,
    dropped: u64,
}

impl CollapsedTable {
    /// Empty table bounded to `max_stacks` distinct stacks.
    pub const fn new(max_stacks: usize) -> CollapsedTable {
        CollapsedTable { max_stacks, stacks: BTreeMap::new(), dropped: 0 }
    }

    /// Credit `n` to the stack `key` (site codes, shallowest first). Over
    /// the cardinality bound, the weight goes to the drop counter. Sums
    /// saturate: a fold of scraped spans must survive nonsense stamps.
    pub fn add(&mut self, key: &[u8], n: u64) {
        if let Some(v) = self.stacks.get_mut(key) {
            *v = v.saturating_add(n);
        } else if self.stacks.len() < self.max_stacks {
            self.stacks.insert(key.to_vec(), n);
        } else {
            self.dropped = self.dropped.saturating_add(n);
        }
    }

    /// Number of distinct stacks.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// Whether no stack has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Weight lost to the cardinality bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sum of all recorded weight (excluding dropped), saturating.
    pub fn total(&self) -> u64 {
        self.stacks.values().fold(0, |a, &v| a.saturating_add(v))
    }

    /// `(stack names, count)` rows in deterministic (key) order.
    pub fn rows(&self) -> Vec<(Vec<&'static str>, u64)> {
        self.stacks
            .iter()
            .map(|(k, v)| {
                let names =
                    k.iter().map(|&c| Site::from_u8(c).map(|f| f.name()).unwrap_or("?")).collect();
                (names, *v)
            })
            .collect()
    }

    /// Render in collapsed-stack ("folded") format, one
    /// `frame;frame;frame count` line per stack, deterministically
    /// ordered. Inferno's `flamegraph --from folded` and speedscope both
    /// ingest this directly.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (names, count) in self.rows() {
            out.push_str(&names.join(";"));
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Lock-contention accounting
// ---------------------------------------------------------------------------

/// Contention totals for one named lock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockStat {
    /// Registration name (e.g. `cm.state`).
    pub name: String,
    /// Acquires that found the lock held.
    pub contended: u64,
    /// Total microseconds spent waiting in those acquires.
    pub wait_us: u64,
}

/// Contention counters for one lock name, shared by every [`ProfMutex`]
/// registered under it (e.g. all sixteen histogram shards).
pub struct LockStats {
    name: &'static str,
    contended: AtomicU64,
    wait_us: AtomicU64,
}

impl LockStats {
    /// Account one contended acquire that started waiting at `t0`: bump
    /// the per-name totals and the registry counters.
    #[cold]
    fn account_wait(&self, t0: Instant) {
        let wait_us = (t0.elapsed().as_secs_f64() * 1e6) as u64;
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.wait_us.fetch_add(wait_us, Ordering::Relaxed);
        crate::add(Counter::LockContended, 1);
        crate::add(Counter::LockWaitUs, wait_us);
    }
}

static LOCK_REGISTRY: Mutex<Vec<&'static LockStats>> = Mutex::new(Vec::new());

/// The shared [`LockStats`] for `name`, registering it on first use.
pub fn lock_stats(name: &'static str) -> &'static LockStats {
    let mut reg = LOCK_REGISTRY.lock();
    if let Some(s) = reg.iter().find(|s| s.name == name) {
        return s;
    }
    let s: &'static LockStats = Box::leak(Box::new(LockStats {
        name,
        contended: AtomicU64::new(0),
        wait_us: AtomicU64::new(0),
    }));
    reg.push(s);
    s
}

/// Per-lock contention totals, heaviest waiter first.
pub fn lock_snapshot() -> Vec<LockStat> {
    let mut out: Vec<LockStat> = LOCK_REGISTRY
        .lock()
        .iter()
        .map(|s| LockStat {
            name: s.name.to_string(),
            contended: s.contended.load(Ordering::Relaxed),
            wait_us: s.wait_us.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by(|a, b| b.wait_us.cmp(&a.wait_us).then(a.name.cmp(&b.name)));
    out
}

/// A named `parking_lot::Mutex` that accounts contention.
///
/// The uncontended path is one `try_lock` — same cost class as a plain
/// lock. A contended acquire times the wait and feeds the per-name
/// [`LockStats`] and the `lock_contended_total` / `lock_wait_us_total`
/// registry counters.
pub struct ProfMutex<T> {
    stats: &'static LockStats,
    inner: Mutex<T>,
}

impl<T> ProfMutex<T> {
    /// New mutex accounted under `name`.
    pub fn new(name: &'static str, value: T) -> ProfMutex<T> {
        ProfMutex { stats: lock_stats(name), inner: Mutex::new(value) }
    }

    /// Lock, accounting the acquire if it had to wait.
    #[inline]
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, T> {
        match self.inner.try_lock() {
            Some(g) => g,
            None => self.lock_contended(),
        }
    }

    #[cold]
    fn lock_contended(&self) -> parking_lot::MutexGuard<'_, T> {
        let t0 = Instant::now();
        let guard = self.inner.lock();
        self.stats.account_wait(t0);
        guard
    }

    /// Non-blocking acquire; never counts as contention.
    #[inline]
    pub fn try_lock(&self) -> Option<parking_lot::MutexGuard<'_, T>> {
        self.inner.try_lock()
    }

    /// Consume the mutex, returning its value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> ProfMutex<T> {
    /// Default value accounted under `name`.
    pub fn with_default(name: &'static str) -> ProfMutex<T> {
        ProfMutex::new(name, T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ProfMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfMutex")
            .field("name", &self.stats.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// [`ProfMutex`]'s reader-writer sibling, for the partition maps. Both
/// acquire directions count contention; the accounting (per-name stats,
/// registry counters) is identical.
pub struct ProfRwLock<T> {
    stats: &'static LockStats,
    inner: parking_lot::RwLock<T>,
}

impl<T> ProfRwLock<T> {
    /// New rwlock accounted under `name`.
    pub fn new(name: &'static str, value: T) -> ProfRwLock<T> {
        ProfRwLock { stats: lock_stats(name), inner: parking_lot::RwLock::new(value) }
    }

    /// Shared acquire, accounting if it had to wait for a writer.
    #[inline]
    pub fn read(&self) -> parking_lot::RwLockReadGuard<'_, T> {
        match self.inner.try_read() {
            Some(g) => g,
            None => {
                let t0 = Instant::now();
                let g = self.inner.read();
                self.stats.account_wait(t0);
                g
            }
        }
    }

    /// Exclusive acquire, accounting if it had to wait.
    #[inline]
    pub fn write(&self) -> parking_lot::RwLockWriteGuard<'_, T> {
        match self.inner.try_write() {
            Some(g) => g,
            None => {
                let t0 = Instant::now();
                let g = self.inner.write();
                self.stats.account_wait(t0);
                g
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ProfRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfRwLock")
            .field("name", &self.stats.name)
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn collapsed_table_bounds_cardinality() {
        let mut t = CollapsedTable::new(2);
        t.add(&[0], 1);
        t.add(&[0, 2], 2);
        t.add(&[0, 3], 5); // third distinct stack: dropped
        t.add(&[0], 1); // existing stack still counts
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 5);
        assert_eq!(t.total(), 4);
        let folded = t.to_folded();
        assert_eq!(folded, "txn 2\ntxn;txn.read 2\n");
    }

    #[test]
    fn prof_mutex_accounts_contention() {
        let m = Arc::new(ProfMutex::new("test.contended", 0u64));
        let before = lock_snapshot()
            .into_iter()
            .find(|s| s.name == "test.contended")
            .map(|s| s.contended)
            .unwrap_or(0);
        let m2 = m.clone();
        let g = m.lock();
        let h = std::thread::spawn(move || {
            *m2.lock() += 1;
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g);
        h.join().unwrap();
        let after = lock_snapshot().into_iter().find(|s| s.name == "test.contended").unwrap();
        assert!(after.contended > before);
        assert!(after.wait_us > 0);
        assert_eq!(*m.lock(), 1);
    }
}
