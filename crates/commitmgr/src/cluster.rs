//! Running several commit managers in parallel (§4.2, §4.4.3, Table 3).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use tell_common::{CmId, Error, IsolationLevel, Result, TxnId};
use tell_netsim::NetMeter;
use tell_store::{keys, StoreCluster, StoreEndpoint};

use crate::manager::{CmConfig, CommitManager, TxnStart};

/// A set of interchangeable commit managers.
///
/// Processing nodes spread `start()` calls round-robin; commit/abort
/// notifications go back to the manager that issued the tid (tracked by the
/// transaction layer). If a manager fails, "PNs automatically switch to the
/// next one" and a replacement can recover the lost state from the store.
pub struct CmCluster<E: StoreEndpoint = Arc<StoreCluster>> {
    store: E,
    config: CmConfig,
    /// The live managers; shared so a failed manager can hand its late
    /// outcomes to whoever is live when they arrive.
    managers: Arc<RwLock<Vec<Arc<CommitManager<E>>>>>,
    /// Congruence classes freed by failed managers, to be taken over by
    /// replacements (interleaved tid allocation).
    freed_stripes: parking_lot::Mutex<Vec<(u64, u64)>>,
    next: AtomicUsize,
}

impl<E: StoreEndpoint> CmCluster<E> {
    /// Spin up `n` commit managers.
    pub fn new(store: E, n: usize, config: CmConfig) -> Arc<Self> {
        assert!(n >= 1, "need at least one commit manager");
        let managers: Vec<_> = (0..n)
            .map(|i| {
                let mut cfg = config.clone();
                cfg.stripe = (i as u64, n as u64);
                CommitManager::new(CmId(i as u32), store.clone(), cfg)
            })
            .collect();
        // Every manager must publish its (empty) state before any
        // transaction runs: the lowest-active-version computation takes the
        // minimum over *published* peer states, and a peer that has never
        // published would silently be excluded — letting GC drop versions
        // that transactions later started on that peer still need.
        let meter = NetMeter::free();
        // Two rounds: first everyone publishes, then everyone pulls, so
        // every manager starts with a complete peer map regardless of order.
        // A lone interleaved manager has no peer map to fill: both rounds
        // are no-ops for it and boot makes no store call.
        for _ in 0..2 {
            for cm in &managers {
                cm.sync_now(&meter).expect("initial commit-manager publish");
            }
        }
        Arc::new(CmCluster {
            store,
            config,
            managers: Arc::new(RwLock::new(managers)),
            freed_stripes: parking_lot::Mutex::new(Vec::new()),
            next: AtomicUsize::new(0),
        })
    }

    /// Number of live managers.
    pub fn len(&self) -> usize {
        self.managers.read().len()
    }

    /// True when no manager is left (system blocked, §4.4.3).
    pub fn is_empty(&self) -> bool {
        self.managers.read().is_empty()
    }

    /// Begin a transaction on some manager (round-robin with fail-over).
    /// Returns the manager that served the call so the transaction can
    /// notify the same one at completion.
    pub fn start(&self, meter: &NetMeter) -> Result<(TxnStart, Arc<CommitManager<E>>)> {
        let hint = self.next.fetch_add(1, Ordering::Relaxed);
        self.start_pinned(hint, meter)
    }

    /// Begin a transaction on the manager a caller is pinned to ("each
    /// node interacts with a dedicated authority, the commit manager",
    /// §4.1 — a PN keeps using one manager so its own commits are always in
    /// its next snapshot), falling over to the next manager on failure.
    pub fn start_pinned(
        &self,
        hint: usize,
        meter: &NetMeter,
    ) -> Result<(TxnStart, Arc<CommitManager<E>>)> {
        self.start_pinned_at(hint, IsolationLevel::Si, meter)
    }

    /// [`start_pinned`](Self::start_pinned) with an explicit isolation
    /// level (see [`CommitManager::start_at`] for the per-level snapshot
    /// semantics).
    pub fn start_pinned_at(
        &self,
        hint: usize,
        level: IsolationLevel,
        meter: &NetMeter,
    ) -> Result<(TxnStart, Arc<CommitManager<E>>)> {
        let managers = self.managers.read();
        if managers.is_empty() {
            return Err(Error::Unavailable("no commit manager available".into()));
        }
        let n = managers.len();
        let first = hint % n;
        for i in 0..n {
            let cm = &managers[(first + i) % n];
            match cm.start_at(level, meter) {
                Ok(ts) => return Ok((ts, Arc::clone(cm))),
                Err(Error::Unavailable(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(Error::Unavailable("all commit managers unavailable".into()))
    }

    /// Crash-stop manager `id`: drop it and remove its published state so
    /// peers stop waiting on it. Active transactions it issued can still
    /// complete through the handle they hold (the manager "is not required
    /// for completion"). The failed manager is retired first, so it never
    /// publishes again — a late re-publish would bring back a frozen state
    /// whose min-active base pins every survivor's lav for ever — and each
    /// late outcome is resolved on the managers live when it arrives.
    pub fn fail(&self, id: CmId) -> Result<()> {
        let mut managers = self.managers.write();
        let at = managers.iter().position(|cm| cm.id() == id).ok_or(Error::NotFound)?;
        let live = Arc::downgrade(&self.managers);
        managers[at].retire(Arc::new(move |tid, committed| {
            if let Some(live) = live.upgrade() {
                for cm in live.read().iter() {
                    cm.force_resolve(tid, committed);
                }
            }
        }));
        let cm = managers.remove(at);
        drop(managers);
        self.freed_stripes.lock().push(cm.stripe());
        // The survivors absorb its last published state before it goes:
        // outcomes it published that they have not pulled yet would be lost
        // with it, stalling their base on those tids. Best effort: a
        // survivor that cannot sync in a store fault window is no worse off
        // than a peer that pulled just before the failure.
        for survivor in self.managers.read().iter() {
            let _ = survivor.sync_now(&NetMeter::free());
        }
        use tell_store::StoreApi;
        let client = self.store.unmetered_client();
        client.delete(&keys::cm_state(id.raw()))?;
        Ok(())
    }

    /// Start a replacement manager that recovers state from the store and
    /// the transaction log (§4.4.3).
    pub fn spawn_recovered(&self, id: CmId) -> Result<Arc<CommitManager<E>>> {
        let mut cfg = self.config.clone();
        if cfg.interleaved {
            // Take over a failed manager's congruence class so its tid
            // stream resumes (otherwise the global base would stall on the
            // dead class's never-completed tids).
            cfg.stripe =
                self.freed_stripes.lock().pop().ok_or_else(|| {
                    Error::invalid("no freed tid class; cluster is at full strength")
                })?;
        }
        let cm = CommitManager::recover(id, self.store.clone(), cfg)?;
        // Publish before serving (see new()); a no-op when the replacement
        // adopts the stripe of a lone manager.
        cm.sync_now(&NetMeter::free())?;
        self.managers.write().push(Arc::clone(&cm));
        Ok(cm)
    }

    /// Force a state synchronization on every manager (test hook; in steady
    /// state managers sync themselves on their configured interval).
    pub fn sync_all(&self, meter: &NetMeter) -> Result<()> {
        // Two rounds so every manager observes every other manager's latest
        // publish regardless of iteration order.
        for _ in 0..2 {
            for cm in self.managers.read().iter() {
                cm.sync_now(meter)?;
            }
        }
        Ok(())
    }

    /// Resolve `tid` on every live manager (recovery path: the issuer may be
    /// unknown or gone).
    pub fn force_resolve(&self, tid: TxnId, committed: bool) {
        for cm in self.managers.read().iter() {
            cm.force_resolve(tid, committed);
        }
    }

    /// Live managers' `(id, published base)` pairs in id order — the
    /// monitoring surface a management node (or the simulation harness)
    /// scrapes to watch base progress and pick fail-over victims.
    pub fn members(&self) -> Vec<(CmId, u64)> {
        let mut out: Vec<(CmId, u64)> =
            self.managers.read().iter().map(|cm| (cm.id(), cm.base())).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Lowest active version across all managers (drives garbage
    /// collection and recovery's backward log scan bound).
    pub fn current_lav(&self) -> u64 {
        self.managers.read().iter().map(|cm| cm.current_lav()).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tell_store::StoreConfig;

    fn setup(n: usize) -> (Arc<CmCluster>, NetMeter) {
        let store = StoreCluster::new(StoreConfig::new(2));
        let cfg = CmConfig {
            tid_range: 8,
            sync_interval: Duration::from_millis(1),
            ..CmConfig::default()
        };
        (CmCluster::new(store, n, cfg), NetMeter::free())
    }

    #[test]
    fn round_robin_spreads_load() {
        let (cluster, m) = setup(3);
        let mut served = std::collections::HashSet::new();
        for _ in 0..9 {
            let (_, cm) = cluster.start(&m).unwrap();
            served.insert(cm.id());
        }
        assert_eq!(served.len(), 3);
    }

    #[test]
    fn tids_unique_across_managers() {
        let (cluster, m) = setup(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let (ts, cm) = cluster.start(&m).unwrap();
            assert!(seen.insert(ts.tid));
            cm.set_committed(ts.tid, &m).unwrap();
        }
    }

    #[test]
    fn failover_to_surviving_manager() {
        let (cluster, m) = setup(2);
        let (t1, cm1) = cluster.start(&m).unwrap();
        cm1.set_committed(t1.tid, &m).unwrap();
        cluster.sync_all(&m).unwrap();
        cluster.fail(CmId(0)).unwrap();
        assert_eq!(cluster.len(), 1);
        // Still serving starts.
        for _ in 0..5 {
            let (ts, cm) = cluster.start(&m).unwrap();
            cm.set_committed(ts.tid, &m).unwrap();
        }
    }

    #[test]
    fn fail_unknown_manager_errors() {
        let (cluster, _) = setup(1);
        assert_eq!(cluster.fail(CmId(42)).unwrap_err(), Error::NotFound);
    }

    #[test]
    fn a_failed_managers_late_outcome_neither_returns_its_state_nor_pins_the_lav() {
        let store = StoreCluster::new(StoreConfig::new(2));
        let cfg = CmConfig { sync_interval: Duration::from_millis(1), ..CmConfig::default() };
        let cluster = CmCluster::new(Arc::clone(&store), 2, cfg);
        let m = NetMeter::free();
        let commit = |n: usize| {
            for _ in 0..n {
                let (ts, cm) = cluster.start(&m).unwrap();
                cm.set_committed(ts.tid, &m).unwrap();
            }
        };
        commit(10);
        let (held, cm0) = cluster.start_pinned(0, &m).unwrap();
        assert_eq!(cm0.id(), CmId(0));
        cluster.fail(CmId(0)).unwrap();
        cluster.spawn_recovered(CmId(7)).unwrap();
        // The transaction in flight on the failed manager completes through
        // the handle it holds.
        cm0.set_committed(held.tid, &m).unwrap();
        let state = keys::cm_state(0);
        assert_eq!(store.unmetered_client().get(&state).unwrap(), None, "cm0 published again");
        commit(200);
        cluster.sync_all(&m).unwrap();
        assert!(
            cluster.current_lav() > held.tid.raw(),
            "lav {} still pinned at or below the late tid {}",
            cluster.current_lav(),
            held.tid.raw()
        );
    }

    #[test]
    fn survivors_keep_what_a_failed_manager_published() {
        let store = StoreCluster::new(StoreConfig::new(2));
        // Survivors never pull on their own cadence in this test.
        let cfg = CmConfig {
            sync_interval: Duration::from_secs(3600),
            sync_every_ops: u64::MAX,
            ..CmConfig::default()
        };
        let cluster = CmCluster::new(store, 2, cfg);
        let m = NetMeter::free();
        let (ts, cm0) = cluster.start_pinned(0, &m).unwrap();
        cm0.set_committed(ts.tid, &m).unwrap();
        cluster.fail(cm0.id()).unwrap();
        let (later, cm1) = cluster.start_pinned(0, &m).unwrap();
        assert_eq!(cm1.id(), CmId(1));
        assert!(later.snapshot.contains_tid(ts.tid), "the failed manager's commit was lost");
    }

    #[test]
    fn replacement_recovers_commits() {
        let (cluster, m) = setup(2);
        let (t1, cm1) = cluster.start(&m).unwrap();
        cm1.set_committed(t1.tid, &m).unwrap();
        cluster.sync_all(&m).unwrap();
        let failed_id = cm1.id();
        cluster.fail(failed_id).unwrap();
        let fresh = cluster.spawn_recovered(CmId(9)).unwrap();
        let ts = fresh.start(&m).unwrap();
        assert!(ts.snapshot.contains_tid(t1.tid));
    }
}
