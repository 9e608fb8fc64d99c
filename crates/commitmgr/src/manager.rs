//! The commit manager service (§4.2).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tell_common::codec::Writer;
use tell_common::{BitSet, CmId, Error, IsolationLevel, Result, TxnId};
use tell_netsim::NetMeter;
use tell_obs::{Gauge, ProfMutex};
use tell_store::{keys, StoreApi, StoreCluster, StoreEndpoint};

use crate::snapshot::SnapshotDescriptor;

/// Name of the store counter that makes tids system-wide unique.
pub const TID_COUNTER: &str = "tell/tid";

/// Flag bit in the first byte of a transaction-log entry marking the
/// transaction committed. The log format itself lives in `tell-core`; the
/// commit manager only needs this one byte during recovery (§4.4.3).
pub const LOG_FLAG_COMMITTED: u8 = 0x01;

/// What a transaction receives from [`CommitManager::start`].
#[derive(Clone, Debug)]
pub struct TxnStart {
    /// System-wide unique transaction id; doubles as the version number for
    /// every data item the transaction writes.
    pub tid: TxnId,
    /// The consistent snapshot the transaction operates with.
    pub snapshot: SnapshotDescriptor,
    /// Lowest active version number: versions below it are garbage-
    /// collection candidates (§5.4).
    pub lav: u64,
}

/// Commit-manager tuning knobs.
#[derive(Clone, Debug)]
pub struct CmConfig {
    /// Use **interleaved tids** (the paper's cited improvement over
    /// continuous ranges, §4.2: "Using ranges of interleaved tids \[58\] is
    /// subject to be implemented in the near future"): each commit manager
    /// owns the congruence class `tid ≡ stripe.0 (mod stripe.1)` and stays
    /// synchronized with the cluster-wide tid watermark, so version numbers
    /// track commit order closely and no shared counter is needed.
    /// When `false`, the original continuous-range scheme is used — simple,
    /// but transactions holding tids from an old range abort whenever a
    /// record already carries a higher version (the "higher abort rate"
    /// the paper concedes; quantified by the tid-range ablation bench).
    pub interleaved: bool,
    /// This manager's congruence class: `(index, managers)`. Assigned by
    /// `CmCluster`; standalone managers default to `(0, 1)`.
    pub stripe: (u64, u64),
    /// Continuous-range mode only: tids grabbed per counter increment.
    pub tid_range: u64,
    /// How often to publish/pull snapshot state when several commit
    /// managers run in parallel (paper: 1 ms "did not noticeably affect the
    /// overall abort rate").
    pub sync_interval: Duration,
    /// Also sync after this many operations, bounding snapshot staleness in
    /// *transaction-count* terms. The paper's 1 ms bound is meaningful
    /// relative to its cluster's commit rate; in simulated time the
    /// equivalent bound is "a few tens of transactions".
    pub sync_every_ops: u64,
    /// Non-monotonic SI only: refresh the cached start snapshot every this
    /// many NMSI starts. Between refreshes a start is served the cached
    /// (stale but consistent) descriptor, modeling the CM round-trip
    /// elision NMSI buys — at the cost of non-monotonic session reads.
    pub nmsi_refresh_every: u64,
}

impl Default for CmConfig {
    fn default() -> Self {
        CmConfig {
            interleaved: true,
            stripe: (0, 1),
            tid_range: 64,
            sync_interval: Duration::from_millis(1),
            sync_every_ops: 16,
            nmsi_refresh_every: 4,
        }
    }
}

/// Where a failed manager sends the outcome of a transaction it issued
/// that completes after the failure: resolve it on the live managers.
pub(crate) type HandOff = Arc<dyn Fn(TxnId, bool) + Send + Sync>;

#[derive(Default)]
struct State {
    /// All tids at or below `base` have completed.
    base: u64,
    /// Bit `i` ⇔ tid `base + 1 + i` completed (committed or aborted).
    completed: BitSet,
    /// Bit `i` ⇔ tid `base + 1 + i` committed.
    committed: BitSet,
    /// Active transactions started through this manager: tid → snapshot base.
    active: BTreeMap<u64, u64>,
    /// Multiset of active snapshot bases (first key = local min).
    active_bases: BTreeMap<u64, usize>,
    /// Local tid range: next to hand out / exclusive limit (continuous
    /// mode), or the next owned tid (interleaved mode, `tid_limit` unused).
    tid_next: u64,
    tid_limit: u64,
    /// Highest tid known to exist anywhere (handed locally, observed in a
    /// completion, or learned from a peer's published state).
    watermark: u64,
    /// Latest published min-active-base per peer commit manager.
    peer_min_active: BTreeMap<u32, u64>,
    last_sync: Option<Instant>,
    ops_since_sync: u64,
    /// A completion's publish failed (store fault window): the next
    /// `maybe_sync` is due immediately instead of waiting for the cadence,
    /// so the unpublished state is retried on the very next operation.
    publish_pending: bool,
    /// Cached snapshot served to NMSI starts between refreshes.
    nmsi_cache: Option<SnapshotDescriptor>,
    /// NMSI starts served since the manager came up (drives the refresh
    /// cadence).
    nmsi_starts: u64,
    /// Base held down in `active_bases` on behalf of the cache: as long as
    /// the cached snapshot may still be served, the lav must not overtake
    /// its base — a transaction layer eagerly GCs versions below the lav
    /// at write time, and a *future* cached start must still find every
    /// version its stale snapshot can see. The pin advances with each
    /// refresh, so it lags the base by at most one refresh cadence.
    nmsi_pin: Option<u64>,
    /// Set when the cluster fails this manager. A failed manager never
    /// publishes again — its published state is deleted, and a re-publish
    /// would pin every survivor's lav at its frozen min-active base — so
    /// its late outcomes go to the hand-off instead.
    retired: Option<HandOff>,
}

impl State {
    fn local_min_active(&self) -> u64 {
        self.active_bases.keys().next().copied().unwrap_or(self.base)
    }

    /// The lowest active version: the minimum snapshot base across active
    /// transactions here and on every peer that has published.
    fn lav(&self) -> u64 {
        self.peer_min_active.values().copied().fold(self.local_min_active(), u64::min)
    }

    fn pin_base(&mut self, base: u64) {
        *self.active_bases.entry(base).or_insert(0) += 1;
    }

    fn unpin_base(&mut self, base: u64) {
        if let Some(cnt) = self.active_bases.get_mut(&base) {
            *cnt -= 1;
            if *cnt == 0 {
                self.active_bases.remove(&base);
            }
        }
    }

    fn mark(&mut self, tid: u64, committed: bool) {
        self.watermark = self.watermark.max(tid);
        if tid <= self.base {
            return; // already covered (e.g. learned through a peer first)
        }
        let off = (tid - self.base - 1) as usize;
        self.completed.set(off);
        if committed {
            self.committed.set(off);
        }
    }

    fn advance_base(&mut self) {
        let n = self.completed.first_zero();
        if n > 0 {
            self.base += n as u64;
            self.completed.shift_down(n);
            self.committed.shift_down(n);
        }
    }

    fn finish(&mut self, tid: TxnId, committed: bool) {
        self.mark(tid.raw(), committed);
        self.advance_base();
        if let Some(base) = self.active.remove(&tid.raw()) {
            if let Some(cnt) = self.active_bases.get_mut(&base) {
                *cnt -= 1;
                if *cnt == 0 {
                    self.active_bases.remove(&base);
                }
            }
        }
    }
}

/// One commit manager instance.
///
/// Several can run in parallel (see [`crate::cluster::CmCluster`]); they
/// synchronize through the shared store: tid uniqueness via the atomic
/// [`TID_COUNTER`], snapshots by periodically publishing local state and
/// merging peers' published states (a join-semilattice: base advances, bitsets
/// union — so merging in any order converges). A lone interleaved manager
/// keeps its state in memory only and makes no store call at all.
///
/// Generic over the storage endpoint so a manager can run over the
/// in-process store or against remote storage nodes via `tell-rpc`.
pub struct CommitManager<E: StoreEndpoint = Arc<StoreCluster>> {
    id: CmId,
    endpoint: E,
    config: CmConfig,
    state: ProfMutex<State>,
}

impl<E: StoreEndpoint> CommitManager<E> {
    /// A fresh commit manager over the storage `endpoint`.
    pub fn new(id: CmId, endpoint: E, config: CmConfig) -> Arc<Self> {
        Arc::new(CommitManager {
            id,
            endpoint,
            config,
            state: ProfMutex::new("cm.state", State::default()),
        })
    }

    /// This manager's id.
    pub fn id(&self) -> CmId {
        self.id
    }

    /// This manager's tid congruence class (interleaved allocation).
    pub fn stripe(&self) -> (u64, u64) {
        self.config.stripe
    }

    /// Whether this manager can ever have a peer to gossip with. An
    /// interleaved manager with stripe modulus 1 owns every tid, and
    /// `CmCluster` only adds a manager to an interleaved cluster by handing
    /// it a failed manager's stripe: it is and stays alone. Nobody reads a
    /// lone manager's published state — `pull_peers` skips its own id, and
    /// recovery only runs after `CmCluster::fail` deleted it — so it neither
    /// publishes nor pulls (DESIGN.md §5 rule 9).
    fn gossips(&self) -> bool {
        !self.config.interleaved || self.config.stripe.1 > 1
    }

    /// Start a commit manager that recovers its state after a predecessor
    /// failed (§4.4.3): merge every peer's published state, then roll the
    /// transaction log forward for commits recorded there but not yet
    /// published.
    pub fn recover(id: CmId, endpoint: E, config: CmConfig) -> Result<Arc<Self>> {
        let client = endpoint.unmetered_client();
        let cm = CommitManager::new(id, endpoint, config);
        {
            let mut st = cm.state.lock();
            Self::pull_peers(&cm.id, &client, &mut st)?;
            // The log records commits that may postdate the last publish.
            let rows = client.scan_range_rev(
                &keys::txn_log_prefix(),
                keys::prefix_end(&keys::txn_log_prefix()).as_deref(),
                usize::MAX,
            )?;
            for (key, _, value) in rows {
                let Some(tid) = keys::parse_txn_log(&key) else { continue };
                if tid.raw() <= st.base {
                    break; // reverse scan: everything below is covered
                }
                if value.first().map(|f| f & LOG_FLAG_COMMITTED != 0).unwrap_or(false) {
                    st.mark(tid.raw(), true);
                }
            }
            st.advance_base();
        }
        Ok(cm)
    }

    /// Begin a transaction: returns a fresh tid, the current snapshot and
    /// the lav. Costs one round trip to the commit manager, plus (amortized)
    /// the tid-range counter increment.
    ///
    /// The periodic peer sync is best-effort here, as in `complete`:
    /// it only publishes/pulls gossip state, while tid allocation itself is
    /// manager-local (the range counter below propagates its own errors).
    /// The sync's wall-clock trigger would otherwise make `begin` fail at
    /// arbitrary moments of a storage fault window. A lone manager has no
    /// peer to sync with: its start is memory work under one lock.
    pub fn start(&self, meter: &NetMeter) -> Result<TxnStart> {
        self.start_at(IsolationLevel::Si, meter)
    }

    /// [`start`](Self::start) with an explicit isolation level.
    ///
    /// The level only changes how the *snapshot* is produced; tid
    /// allocation and active-set registration are identical across levels:
    ///
    /// * `Si` / `Serializable` / `ReadCommitted` — the freshest snapshot
    ///   this manager can construct (Serializable strengthening and RC
    ///   weakening both happen PN-side, in the transaction layer).
    /// * `NonMonotonicSi` — a cached snapshot refreshed only every
    ///   [`CmConfig::nmsi_refresh_every`] NMSI starts. The transaction is
    ///   registered active under the *stale* base, so the cluster lav
    ///   never overtakes a snapshot some live NMSI transaction still
    ///   reads under — GC stays sound. Serving the cache is metered as a
    ///   descriptor-free round trip (the elision NMSI exists to buy).
    pub fn start_at(&self, level: IsolationLevel, meter: &NetMeter) -> Result<TxnStart> {
        if self.maybe_sync(meter).is_err() {
            tell_obs::incr(tell_obs::Counter::CmSyncDeferred);
        }
        let mut st = self.state.lock();
        let tid = if self.config.interleaved {
            let (idx, n) = self.config.stripe;
            debug_assert!(n >= 1 && idx < n);
            if st.tid_next == 0 {
                // First allocation of this manager's class (skip tid 0, the
                // bootstrap version).
                st.tid_next = if idx == 0 { n } else { idx };
            }
            let mut t = st.tid_next;
            if st.watermark >= t {
                // The cluster moved past our class: jump to the watermark so
                // our version numbers keep tracking commit order, marking
                // the skipped (never-handed) tids of our class completed so
                // the base does not stall on them.
                let mut target = st.watermark + 1;
                target += (n + idx - target % n) % n;
                let mut k = t;
                while k < target {
                    st.mark(k, false);
                    k += n;
                }
                st.advance_base();
                t = target;
            }
            st.tid_next = t + n;
            st.watermark = st.watermark.max(t);
            TxnId(t)
        } else {
            if st.tid_next >= st.tid_limit {
                let client = self.endpoint.client(meter.clone());
                let end = client.increment(&keys::counter(TID_COUNTER), self.config.tid_range)?;
                st.tid_limit = end + 1;
                st.tid_next = end + 1 - self.config.tid_range;
            }
            let t = st.tid_next;
            st.tid_next += 1;
            st.watermark = st.watermark.max(t);
            TxnId(t)
        };
        let (snapshot, cached) = if level == IsolationLevel::NonMonotonicSi {
            let cadence = self.config.nmsi_refresh_every.max(1);
            let refresh = st.nmsi_cache.is_none() || st.nmsi_starts.is_multiple_of(cadence);
            st.nmsi_starts += 1;
            if refresh {
                let snap = Self::fresh_snapshot(&st);
                // Advance the cache pin: the old cached base may release
                // its hold on the lav, the new one takes it over (see
                // `State::nmsi_pin` for why the hold must outlive any one
                // transaction).
                if let Some(old) = st.nmsi_pin.take() {
                    st.unpin_base(old);
                }
                st.pin_base(snap.base());
                st.nmsi_pin = Some(snap.base());
                st.nmsi_cache = Some(snap.clone());
                (snap, false)
            } else {
                (st.nmsi_cache.clone().expect("nmsi cache present"), true)
            }
        } else {
            (Self::fresh_snapshot(&st), false)
        };
        // Register under the snapshot's own base (stale for a cached NMSI
        // start): the lav must cover every snapshot a live transaction
        // reads under, or GC could reclaim versions it still needs.
        let base = snapshot.base();
        st.active.insert(tid.raw(), base);
        *st.active_bases.entry(base).or_insert(0) += 1;
        let lav = st.lav();
        // PN ↔ CM round trip; a cached NMSI start elides the descriptor
        // payload (the session reuses the one it already holds).
        let response_bytes = if cached { 24 } else { snapshot.encoded_len() + 16 };
        meter.charge_request(32, response_bytes, 1);
        Self::export_gauges(&st);
        Ok(TxnStart { tid, snapshot, lav })
    }

    /// The freshest snapshot this manager can serve right now, without
    /// allocating a tid or registering anything active. This is the
    /// read-committed refresh path: an RC transaction re-reads the
    /// committed horizon before each data access while staying registered
    /// (and lav-protected) under its begin snapshot.
    pub fn current_snapshot(&self, meter: &NetMeter) -> SnapshotDescriptor {
        let st = self.state.lock();
        let snapshot = Self::fresh_snapshot(&st);
        // Piggybacks on the PN's open CM session: a small request and the
        // descriptor back.
        meter.charge_request(16, snapshot.encoded_len() + 8, 1);
        snapshot
    }

    /// The freshest snapshot this manager can construct: its base plus a
    /// clone of the committed window (cheap — a bitset of outstanding txns).
    fn fresh_snapshot(st: &State) -> SnapshotDescriptor {
        SnapshotDescriptor::new(st.base, {
            let mut bits = BitSet::new();
            bits.union_with(&st.committed);
            bits
        })
    }

    /// Publish this manager's view of the global commit state as gauges.
    /// With several managers in one process the last writer wins, which is
    /// fine: the values chase each other within one sync interval.
    fn export_gauges(st: &State) {
        if !tell_obs::enabled() {
            return;
        }
        // Sampled: gauges are last-write-wins, so publishing every 16th
        // call is indistinguishable at scrape time while the common
        // start/complete path pays one load and one counter bump.
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICK: AtomicU64 = AtomicU64::new(0);
        if !TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(16) {
            return;
        }
        let lav = st.lav();
        tell_obs::set_gauge(Gauge::CmLav, lav);
        tell_obs::set_gauge(Gauge::CmBase, st.base);
        tell_obs::set_gauge(Gauge::CmWatermark, st.watermark);
        tell_obs::set_gauge(Gauge::CmTidLimit, st.tid_limit);
        tell_obs::set_gauge(Gauge::CmActiveTxns, st.active.len() as u64);
        // How far GC lags behind completion: a long-running transaction
        // holds the lav down while the base keeps advancing.
        tell_obs::set_gauge(Gauge::CmLavLag, st.base.saturating_sub(lav));
        // Continuous-range mode: tids left before the next counter trip.
        tell_obs::set_gauge(Gauge::CmTidRangeRemaining, st.tid_limit.saturating_sub(st.tid_next));
    }

    /// Record a successful commit.
    pub fn set_committed(&self, tid: TxnId, meter: &NetMeter) -> Result<()> {
        self.complete(tid, true, meter)
    }

    /// Record an abort.
    pub fn set_aborted(&self, tid: TxnId, meter: &NetMeter) -> Result<()> {
        self.complete(tid, false, meter)
    }

    /// A completion changes what every future snapshot must contain, so a
    /// manager with peers publishes its updated state to the store
    /// immediately. Publishing cannot be amortized the way pulling is: a
    /// manager may go idle right after its last commit, and an unpublished
    /// completion would leave peers' snapshots missing that version until
    /// the next publish — their transactions would conflict on it in the
    /// meantime. Starts don't have this problem (they change nothing a
    /// peer's snapshot depends on), so the pull side stays on the periodic
    /// `maybe_sync` cadence. A lone manager has no peer to miss the
    /// version: its completion is memory work under one lock and makes no
    /// store call.
    ///
    /// The in-memory `finish` is the visibility commit point: every
    /// snapshot this manager hands out afterwards contains the outcome, so
    /// a publish failure must NOT surface as a completion failure — the
    /// caller would record an abort for a version later readers observe, a
    /// torn history. Publish is safe to defer instead: each completion
    /// re-encodes the full state, and a failed publish marks the state
    /// `publish_pending`, which forces the next `maybe_sync` (any later
    /// start or completion) due immediately rather than on the periodic
    /// cadence — so a store fault window (e.g. every copy-holder of the
    /// cm-state partition down, awaiting restart from its durable log)
    /// delays peer visibility only until the first operation after the
    /// window closes.
    fn complete(&self, tid: TxnId, committed: bool, meter: &NetMeter) -> Result<()> {
        // On a commit-manager node serving a remote frame, applying the
        // outcome gets its own span under the dispatch span (site policy;
        // in process the cm_complete phase already covers it).
        let probe = tell_obs::Probe::enter(tell_obs::Site::CmApply);
        meter.charge_request(40, 16, 1);
        let client = self.gossips().then(|| self.endpoint.client(meter.clone()));
        let mut st = self.state.lock();
        if let Some(hand_off) = st.retired.clone() {
            drop(st);
            hand_off(tid, committed);
        } else {
            st.finish(tid, committed);
            if let Some(client) = &client {
                if Self::publish(&self.id, client, &mut st).is_err() {
                    st.publish_pending = true;
                    tell_obs::incr(tell_obs::Counter::CmPublishDeferred);
                }
            }
            Self::export_gauges(&st);
            drop(st);
            if self.maybe_sync(meter).is_err() {
                tell_obs::incr(tell_obs::Counter::CmSyncDeferred);
            }
        }
        let status =
            if committed { tell_obs::SpanStatus::Ok } else { tell_obs::SpanStatus::Conflict };
        probe.finish(0.0, 1, status);
        Ok(())
    }

    /// Retire this manager after a failure: from now on it never publishes,
    /// and every outcome reported to it goes to `hand_off`. Taking the state
    /// lock orders this after any publish in flight, so the caller may
    /// delete the published state once this returns.
    pub(crate) fn retire(&self, hand_off: HandOff) {
        self.state.lock().retired = Some(hand_off);
    }

    /// Mark the unused remainder of the local tid range completed, so the
    /// global base is not blocked by tids that will never run. Only a unit
    /// test calls it: no shutdown path does. It does nothing for
    /// interleaved classes, and nothing else heals a dead interleaved
    /// class's unissued tids either — the base stays pinned until
    /// `CmCluster::spawn_recovered` adopts the stripe.
    pub fn release_unused_range(&self) {
        if self.config.interleaved {
            return;
        }
        let mut st = self.state.lock();
        let (from, to) = (st.tid_next, st.tid_limit);
        for tid in from..to {
            st.mark(tid, false);
        }
        st.tid_next = st.tid_limit;
        st.advance_base();
    }

    /// Resolve a transaction's outcome without charging a caller meter.
    /// Used by the recovery process (§4.4.1) after rolling back the
    /// transactions of a failed processing node: the failed PN can no longer
    /// notify anyone, so recovery resolves them on every manager.
    pub fn force_resolve(&self, tid: TxnId, committed: bool) {
        if !self.gossips() {
            self.state.lock().finish(tid, committed);
            return;
        }
        let client = self.endpoint.unmetered_client();
        let mut st = self.state.lock();
        st.finish(tid, committed);
        // Best effort, like the rest of the recovery path: the resolution is
        // also applied on every live manager directly, so a failed publish
        // only delays peers, it cannot strand them — and it is retried on
        // the next operation via `publish_pending`.
        if Self::publish(&self.id, &client, &mut st).is_err() {
            st.publish_pending = true;
        }
    }

    /// The lowest active version number as currently known: the minimum
    /// snapshot base across active transactions here and on peers.
    pub fn current_lav(&self) -> u64 {
        self.state.lock().lav()
    }

    /// Current base version (test/metrics hook).
    pub fn base(&self) -> u64 {
        self.state.lock().base
    }

    /// Number of transactions this manager believes are active.
    pub fn active_count(&self) -> usize {
        self.state.lock().active.len()
    }

    /// Publish local state and merge peers' states, unconditionally; a
    /// no-op for a lone manager, which has neither readers nor peers.
    pub fn sync_now(&self, meter: &NetMeter) -> Result<()> {
        if !self.gossips() {
            return Ok(());
        }
        let client = self.endpoint.client(meter.clone());
        let mut st = self.state.lock();
        Self::publish(&self.id, &client, &mut st)?;
        st.publish_pending = false;
        Self::pull_peers(&self.id, &client, &mut st)?;
        st.last_sync = Some(Instant::now());
        st.ops_since_sync = 0;
        Ok(())
    }

    fn maybe_sync(&self, meter: &NetMeter) -> Result<()> {
        if !self.gossips() {
            return Ok(());
        }
        let due = {
            let mut st = self.state.lock();
            st.ops_since_sync += 1;
            st.publish_pending
                || st.ops_since_sync >= self.config.sync_every_ops
                || match st.last_sync {
                    Some(t) => t.elapsed() >= self.config.sync_interval,
                    None => true,
                }
        };
        if due {
            self.sync_now(meter)?;
        }
        Ok(())
    }

    /// Write this manager's state to its `cm_state` key; a retired manager
    /// writes nothing.
    fn publish<C: StoreApi>(id: &CmId, client: &C, st: &mut State) -> Result<()> {
        if st.retired.is_some() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(40 + st.committed.encoded_len());
        buf.put_u64(st.base);
        buf.put_u64(st.local_min_active());
        buf.put_u64(st.watermark);
        st.completed.encode_into(&mut buf);
        st.committed.encode_into(&mut buf);
        client.put(&keys::cm_state(id.raw()), Bytes::from(buf))?;
        Ok(())
    }

    fn pull_peers<C: StoreApi>(id: &CmId, client: &C, st: &mut State) -> Result<()> {
        let prefix = keys::cm_state_prefix();
        let rows = client.scan_prefix(&prefix, usize::MAX)?;
        st.peer_min_active.clear();
        for (key, _, value) in rows {
            if key.len() != 5 {
                continue;
            }
            let peer = u32::from_be_bytes(key[1..5].try_into().unwrap());
            if peer == id.raw() {
                continue;
            }
            let (peer_base, peer_min, peer_watermark, completed, committed) = decode_state(&value)?;
            st.peer_min_active.insert(peer, peer_min);
            st.watermark = st.watermark.max(peer_watermark);
            // Everything at or below the peer's base has completed. Aborted
            // effects were rolled back before being reported, so covering
            // them via the base is safe.
            if peer_base > st.base {
                for tid in st.base + 1..=peer_base {
                    st.mark(tid, false);
                }
                // Committed status of those tids is implied by base coverage
                // once our own base advances past them; until then we must
                // treat them as committed to not lose their versions.
                for tid in st.base + 1..=peer_base {
                    let off = (tid - st.base - 1) as usize;
                    st.committed.set(off);
                }
            }
            for i in completed.iter_ones() {
                let tid = peer_base + 1 + i as u64;
                st.mark(tid, committed.get(i));
            }
            st.advance_base();
        }
        Ok(())
    }
}

fn decode_state(buf: &[u8]) -> Result<(u64, u64, u64, BitSet, BitSet)> {
    if buf.len() < 24 {
        return Err(Error::corrupt("cm state truncated"));
    }
    let base = u64::from_le_bytes(buf[..8].try_into().unwrap());
    let min_active = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let watermark = u64::from_le_bytes(buf[16..24].try_into().unwrap());
    let (completed, used) =
        BitSet::decode_from(&buf[24..]).ok_or_else(|| Error::corrupt("cm completed bits"))?;
    let (committed, _) = BitSet::decode_from(&buf[24 + used..])
        .ok_or_else(|| Error::corrupt("cm committed bits"))?;
    Ok((base, min_active, watermark, completed, committed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tell_store::{StoreClient, StoreConfig};

    fn setup() -> (Arc<CommitManager>, NetMeter) {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let cm = CommitManager::new(CmId(0), cluster, CmConfig::default());
        (cm, NetMeter::free())
    }

    #[test]
    fn tids_are_unique_and_increasing() {
        let (cm, m) = setup();
        let a = cm.start(&m).unwrap();
        let b = cm.start(&m).unwrap();
        assert!(b.tid > a.tid);
    }

    #[test]
    fn snapshot_excludes_running_transactions() {
        let (cm, m) = setup();
        let t1 = cm.start(&m).unwrap();
        let t2 = cm.start(&m).unwrap();
        // t2 must not see t1 (still running).
        assert!(!t2.snapshot.contains_tid(t1.tid));
        cm.set_committed(t1.tid, &m).unwrap();
        let t3 = cm.start(&m).unwrap();
        assert!(t3.snapshot.contains_tid(t1.tid));
        assert!(!t3.snapshot.contains_tid(t2.tid));
    }

    #[test]
    fn aborted_transactions_never_become_visible_as_newly_committed() {
        let (cm, m) = setup();
        let t1 = cm.start(&m).unwrap();
        cm.set_aborted(t1.tid, &m).unwrap();
        let t2 = cm.start(&m).unwrap();
        // t1 is below/at base now (completed), which is fine: its effects
        // were rolled back. What matters is the base advanced.
        assert!(t2.snapshot.base() >= t1.tid.raw());
        cm.set_committed(t2.tid, &m).unwrap();
    }

    #[test]
    fn base_advances_over_contiguous_completions() {
        let (cm, m) = setup();
        let ts: Vec<_> = (0..5).map(|_| cm.start(&m).unwrap()).collect();
        // Complete out of order: 2, 0, 1 — base should advance to ts[2].tid.
        cm.set_committed(ts[2].tid, &m).unwrap();
        assert!(cm.base() < ts[0].tid.raw());
        cm.set_committed(ts[0].tid, &m).unwrap();
        cm.set_committed(ts[1].tid, &m).unwrap();
        assert_eq!(cm.base(), ts[2].tid.raw());
        // 3 and 4 still active.
        assert_eq!(cm.active_count(), 2);
    }

    #[test]
    fn lav_is_oldest_active_snapshot_base() {
        let (cm, m) = setup();
        let t1 = cm.start(&m).unwrap();
        cm.set_committed(t1.tid, &m).unwrap();
        let t2 = cm.start(&m).unwrap(); // base now t1
        let t3 = cm.start(&m).unwrap();
        assert_eq!(t3.lav, t2.snapshot.base());
        cm.set_committed(t2.tid, &m).unwrap();
        cm.set_committed(t3.tid, &m).unwrap();
        let t4 = cm.start(&m).unwrap();
        assert_eq!(t4.lav, t4.snapshot.base(), "no other actives: lav = own base");
    }

    #[test]
    fn nmsi_cache_pins_the_lav_until_refresh() {
        let (cm, m) = setup();
        let t1 = cm.start_at(IsolationLevel::NonMonotonicSi, &m).unwrap();
        let cached_base = t1.snapshot.base();
        cm.set_committed(t1.tid, &m).unwrap();
        // A burst of SI transactions completes; without the pin the lav
        // would now overtake the cached base and eager GC could reclaim
        // versions a future cached start still needs.
        for _ in 0..3 {
            let t = cm.start(&m).unwrap();
            cm.set_committed(t.tid, &m).unwrap();
        }
        let t2 = cm.start_at(IsolationLevel::NonMonotonicSi, &m).unwrap();
        assert_eq!(t2.snapshot.base(), cached_base, "within cadence: served from cache");
        assert!(t2.lav <= cached_base, "pin holds the lav at the cached base");
        cm.set_committed(t2.tid, &m).unwrap();
        // Drive past the refresh cadence: the cache advances, the pin moves
        // with it, and the lav stays monotone throughout.
        let mut newest_base = cached_base;
        let mut lavs = vec![t1.lav, t2.lav];
        for _ in 0..2 * CmConfig::default().nmsi_refresh_every {
            let t = cm.start_at(IsolationLevel::NonMonotonicSi, &m).unwrap();
            assert!(t.lav <= t.snapshot.base());
            lavs.push(t.lav);
            newest_base = newest_base.max(t.snapshot.base());
            cm.set_committed(t.tid, &m).unwrap();
        }
        assert!(lavs.windows(2).all(|w| w[0] <= w[1]), "lav never regresses: {lavs:?}");
        assert!(newest_base > cached_base, "refresh advanced the cache");
    }

    #[test]
    fn two_managers_share_the_tid_space() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        // Interleaved allocation: each manager owns a congruence class
        // (assigned by CmCluster in production).
        let cm1 = CommitManager::new(
            CmId(1),
            Arc::clone(&cluster),
            CmConfig { stripe: (0, 2), ..CmConfig::default() },
        );
        let cm2 = CommitManager::new(
            CmId(2),
            Arc::clone(&cluster),
            CmConfig { stripe: (1, 2), ..CmConfig::default() },
        );
        let m = NetMeter::free();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(cm1.start(&m).unwrap().tid));
            assert!(seen.insert(cm2.start(&m).unwrap().tid));
        }
    }

    #[test]
    fn managers_learn_peer_commits_through_sync() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let cfg = CmConfig {
            tid_range: 4,
            sync_interval: Duration::from_secs(3600),
            interleaved: false,
            ..CmConfig::default()
        };
        let cm1 = CommitManager::new(CmId(1), Arc::clone(&cluster), cfg.clone());
        let cm2 = CommitManager::new(CmId(2), Arc::clone(&cluster), cfg);
        let m = NetMeter::free();
        let t1 = cm1.start(&m).unwrap();
        cm1.set_committed(t1.tid, &m).unwrap();
        cm1.sync_now(&m).unwrap();
        cm2.sync_now(&m).unwrap();
        let t2 = cm2.start(&m).unwrap();
        assert!(t2.snapshot.contains_tid(t1.tid), "after sync, cm2 snapshots include cm1's commit");
    }

    #[test]
    fn stale_peers_cause_stale_snapshots_not_corruption() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let cfg = CmConfig {
            tid_range: 4,
            sync_interval: Duration::from_secs(3600),
            interleaved: false,
            ..CmConfig::default()
        };
        let cm1 = CommitManager::new(CmId(1), Arc::clone(&cluster), cfg.clone());
        let cm2 = CommitManager::new(CmId(2), Arc::clone(&cluster), cfg);
        let m = NetMeter::free();
        // Prime cm2's sync clock: with the huge interval it will not pull
        // again within this test, however eagerly cm1 publishes.
        cm2.sync_now(&m).unwrap();
        let t1 = cm1.start(&m).unwrap();
        cm1.set_committed(t1.tid, &m).unwrap();
        // cm2 has not pulled since cm1's commit, so it simply does not see
        // t1 yet (an older snapshot is legal, never corrupt).
        let t2 = cm2.start(&m).unwrap();
        assert!(!t2.snapshot.contains_tid(t1.tid));
    }

    /// Taken by the tests that kill storage nodes: they read or move the
    /// process-wide deferral counters.
    static STORE_DOWN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn lone_manager_serves_with_every_storage_node_down() {
        use tell_common::SnId;
        use tell_obs::Counter;
        let _serial = STORE_DOWN.lock().unwrap_or_else(|e| e.into_inner());
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let cm = CommitManager::new(CmId(0), Arc::clone(&cluster), CmConfig::default());
        let m = NetMeter::free();
        let deferred = |c| tell_obs::global().counter(c);
        let before = (deferred(Counter::CmPublishDeferred), deferred(Counter::CmSyncDeferred));
        cluster.kill_node(SnId(0));
        cluster.kill_node(SnId(1));
        let mut last = None;
        for i in 0..40 {
            let t = cm.start(&m).unwrap();
            if let Some(prev) = last {
                assert!(t.snapshot.contains_tid(prev), "its own last commit is in the snapshot");
            }
            if i % 4 == 3 {
                cm.set_aborted(t.tid, &m).unwrap();
            } else {
                cm.set_committed(t.tid, &m).unwrap();
                last = Some(t.tid);
            }
        }
        cm.sync_now(&m).unwrap();
        assert_eq!(cm.active_count(), 0);
        assert_eq!(
            (deferred(Counter::CmPublishDeferred), deferred(Counter::CmSyncDeferred)),
            before,
            "a lone manager tried the store"
        );
    }

    #[test]
    fn deferred_publish_retries_on_next_op_not_cadence() {
        use tell_common::SnId;
        let _serial = STORE_DOWN.lock().unwrap_or_else(|e| e.into_inner());
        let cluster = StoreCluster::new(StoreConfig::new(1));
        let cfg = CmConfig {
            sync_interval: Duration::from_secs(3600),
            sync_every_ops: u64::MAX,
            ..CmConfig::default()
        };
        let cm1 = CommitManager::new(
            CmId(1),
            Arc::clone(&cluster),
            CmConfig { stripe: (0, 2), ..cfg.clone() },
        );
        let cm2 =
            CommitManager::new(CmId(2), Arc::clone(&cluster), CmConfig { stripe: (1, 2), ..cfg });
        let m = NetMeter::free();
        let t1 = cm1.start(&m).unwrap();
        // The store goes dark right before the completion: the publish is
        // deferred, never surfaced as a completion failure.
        cluster.kill_node(SnId(0));
        cm1.set_committed(t1.tid, &m).unwrap();
        cluster.revive_node(SnId(0));
        // Neither cadence trigger is due (huge interval and op budget): the
        // deferral alone must force a republish on the next operation.
        let _ = cm1.start(&m).unwrap();
        cm2.sync_now(&m).unwrap();
        let t2 = cm2.start(&m).unwrap();
        assert!(t2.snapshot.contains_tid(t1.tid), "deferred completion was republished");
    }

    #[test]
    fn release_unused_range_unblocks_base() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let cfg = CmConfig {
            tid_range: 8,
            sync_interval: Duration::from_secs(3600),
            interleaved: false,
            ..CmConfig::default()
        };
        let cm1 = CommitManager::new(CmId(1), Arc::clone(&cluster), cfg.clone());
        let cm2 = CommitManager::new(CmId(2), Arc::clone(&cluster), cfg);
        let m = NetMeter::free();
        let t1 = cm1.start(&m).unwrap(); // grabs range [1..9)
        cm1.set_committed(t1.tid, &m).unwrap();
        let t2 = cm2.start(&m).unwrap(); // grabs range [9..17)
        cm2.set_committed(t2.tid, &m).unwrap();
        cm1.sync_now(&m).unwrap();
        cm2.sync_now(&m).unwrap();
        cm1.sync_now(&m).unwrap();
        // cm1 still holds unused tids 2..9, so the global base is stuck at 1.
        assert_eq!(cm1.base(), t1.tid.raw());
        cm1.release_unused_range();
        cm1.sync_now(&m).unwrap();
        cm2.sync_now(&m).unwrap();
        assert_eq!(cm2.base(), t2.tid.raw());
    }

    #[test]
    fn recovery_restores_committed_set_from_log_and_peers() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let cfg = CmConfig {
            tid_range: 4,
            sync_interval: Duration::from_secs(3600),
            interleaved: false,
            ..CmConfig::default()
        };
        let m = NetMeter::free();
        let client = StoreClient::unmetered(Arc::clone(&cluster));
        let tid = {
            let cm = CommitManager::new(CmId(7), Arc::clone(&cluster), cfg.clone());
            let t = cm.start(&m).unwrap();
            // Simulate the transaction layer writing a committed log entry.
            client.put(&keys::txn_log(t.tid), Bytes::from(vec![LOG_FLAG_COMMITTED])).unwrap();
            cm.set_committed(t.tid, &m).unwrap();
            cm.sync_now(&m).unwrap();
            t.tid
            // cm dropped: crash
        };
        let cm2 = CommitManager::recover(CmId(8), Arc::clone(&cluster), cfg).unwrap();
        let t2 = cm2.start(&m).unwrap();
        assert!(t2.snapshot.contains_tid(tid));
        assert!(t2.tid > tid, "tid counter survives the crash");
    }

    #[test]
    fn recovery_with_in_flight_tids_straddling_the_published_watermark() {
        // The predecessor dies holding three tids in different stages:
        // t1 committed *and* published, t2 committed only in the log (the
        // crash hit between log write and the next publish), t3 genuinely
        // in flight (uncommitted log entry). The replacement must see t2
        // through the log roll-forward, must NOT invent an outcome for t3,
        // and force-resolving t3 must unblock the base.
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let cfg = CmConfig {
            tid_range: 4,
            sync_interval: Duration::from_secs(3600),
            interleaved: false,
            ..CmConfig::default()
        };
        let m = NetMeter::free();
        let client = StoreClient::unmetered(Arc::clone(&cluster));
        let (t1, t2, t3) = {
            let cm = CommitManager::new(CmId(7), Arc::clone(&cluster), cfg.clone());
            let t1 = cm.start(&m).unwrap().tid;
            let t2 = cm.start(&m).unwrap().tid;
            let t3 = cm.start(&m).unwrap().tid;
            client.put(&keys::txn_log(t1), Bytes::from(vec![LOG_FLAG_COMMITTED])).unwrap();
            cm.set_committed(t1, &m).unwrap();
            cm.sync_now(&m).unwrap(); // publishes base = t1
            client.put(&keys::txn_log(t2), Bytes::from(vec![LOG_FLAG_COMMITTED])).unwrap();
            cm.set_committed(t2, &m).unwrap(); // never published
            client.put(&keys::txn_log(t3), Bytes::from(vec![0])).unwrap(); // in flight
            (t1, t2, t3)
            // cm dropped: crash with t2 above the published base, t3 open
        };
        let cm2 = CommitManager::recover(CmId(8), Arc::clone(&cluster), cfg).unwrap();
        let t4 = cm2.start(&m).unwrap();
        assert!(t4.snapshot.contains_tid(t1), "published commit visible");
        assert!(t4.snapshot.contains_tid(t2), "log-only commit rolled forward");
        assert!(!t4.snapshot.contains_tid(t3), "in-flight tid stays invisible");
        assert_eq!(cm2.base(), t2.raw(), "base stalls at the open tid");
        // Recovery decides t3's fate (the PN is gone): abort resolves it
        // everywhere and the base moves past it.
        cm2.force_resolve(t3, false);
        assert!(cm2.base() >= t3.raw(), "resolving the straddler unblocks the base");
        // Note: once the base covers t3 it counts as "in snapshot" — that
        // is correct for an abort, whose effects recovery already rolled
        // back from the store; the version simply is not there to read.
        let t5 = cm2.start(&m).unwrap();
        assert!(t5.snapshot.base() >= t3.raw());
    }
}
