//! Buffering strategies (§5.5).
//!
//! Three ways to serve a record read on a processing node:
//!
//! 1. **Transaction buffer (TB)** — records are cached only within a
//!    transaction (that cache lives in the transaction itself, see
//!    [`crate::txn`]); every first access fetches from the store.
//! 2. **Shared record buffer (SB)** — a PN-wide LRU keyed by record id.
//!    Each entry carries the version-number set `B` for which it is valid;
//!    a transaction with snapshot `V_tx` may use the entry iff
//!    `V_tx ⊆ B` (§5.5.2). On a miss the record is fetched and `B` is set
//!    to `V_max`, the snapshot of the most recently started transaction on
//!    this PN. Updates are written through with `B := {tid} ∪ V_max`.
//! 3. **Shared buffer with version-set synchronization (SBVS)** — like SB,
//!    but validity is decided by comparing a per-cache-unit *version-set
//!    stamp* kept in the storage system (§5.5.3). Reads cost one small
//!    request instead of a record-sized one; every update costs one extra
//!    request to bump the stamp. `cache_unit` groups records so fewer
//!    stamps are maintained at the price of spurious invalidations.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use tell_commitmgr::SnapshotDescriptor;
use tell_common::{Result, Rid, TableId, TxnId};
use tell_store::cell::Token;
use tell_store::{keys, StoreApi};

use crate::record::VersionedRecord;

/// Which buffering strategy a processing node runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BufferConfig {
    /// §5.5.1 — per-transaction caching only.
    TransactionOnly,
    /// §5.5.2 — PN-wide shared record buffer with `capacity` entries.
    Shared { capacity: usize },
    /// §5.5.3 — shared buffer validated through store-side version-set
    /// stamps, `cache_unit` records per stamp.
    SharedVersionSync { capacity: usize, cache_unit: u64 },
}

impl BufferConfig {
    /// Short label used in benchmark output (TB / SB / SBVS10 / ...).
    pub fn label(&self) -> String {
        match self {
            BufferConfig::TransactionOnly => "TB".into(),
            BufferConfig::Shared { .. } => "SB".into(),
            BufferConfig::SharedVersionSync { cache_unit, .. } => format!("SBVS{cache_unit}"),
        }
    }
}

/// Hit/miss counters for Fig 11's cache-hit-ratio discussion.
#[derive(Debug, Default)]
pub struct BufferStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
}

impl BufferStats {
    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        tell_obs::incr(tell_obs::Counter::BufferHits);
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        tell_obs::incr(tell_obs::Counter::BufferMisses);
    }

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

enum Validity {
    /// SB: version-number set for which the entry is valid.
    Set(SnapshotDescriptor),
    /// SBVS: stamp observed from the store.
    Stamp(u64),
}

struct Entry {
    token: Token,
    record: VersionedRecord,
    validity: Validity,
    lru_seq: u64,
}

/// The PN-wide record buffer (a no-op shell in `TransactionOnly` mode).
pub struct RecordBuffer {
    config: BufferConfig,
    entries: Mutex<Lru>,
    stats: BufferStats,
}

#[derive(Default)]
struct Lru {
    map: HashMap<(TableId, Rid), Entry>,
    order: BTreeMap<u64, (TableId, Rid)>,
    seq: u64,
}

impl Lru {
    fn touch(&mut self, key: (TableId, Rid)) {
        if let Some(e) = self.map.get_mut(&key) {
            self.order.remove(&e.lru_seq);
            self.seq += 1;
            e.lru_seq = self.seq;
            self.order.insert(self.seq, key);
        }
    }

    fn insert(
        &mut self,
        key: (TableId, Rid),
        token: Token,
        record: VersionedRecord,
        validity: Validity,
        capacity: usize,
    ) {
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&old.lru_seq);
        }
        while self.map.len() >= capacity {
            let Some((&seq, &victim)) = self.order.iter().next() else { break };
            self.order.remove(&seq);
            self.map.remove(&victim);
        }
        self.seq += 1;
        self.order.insert(self.seq, key);
        self.map.insert(key, Entry { token, record, validity, lru_seq: self.seq });
    }

    fn remove(&mut self, key: &(TableId, Rid)) {
        if let Some(e) = self.map.remove(key) {
            self.order.remove(&e.lru_seq);
        }
    }
}

impl RecordBuffer {
    /// Buffer for the given strategy.
    pub fn new(config: BufferConfig) -> Self {
        RecordBuffer { config, entries: Mutex::new(Lru::default()), stats: BufferStats::default() }
    }

    /// The configured strategy.
    pub fn config(&self) -> &BufferConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    /// Read a record through the buffer. `v_tx` is the reading
    /// transaction's snapshot; `v_max` the snapshot of the most recently
    /// started transaction on this PN (condition 2 of §5.5.2 sets `B` to it).
    /// Returns the load-linked `(token, record)` or `None` if the record
    /// does not exist.
    pub fn read_record<C: StoreApi>(
        &self,
        client: &C,
        table: TableId,
        rid: Rid,
        v_tx: &SnapshotDescriptor,
        v_max: &SnapshotDescriptor,
    ) -> Result<Option<(Token, VersionedRecord)>> {
        match &self.config {
            BufferConfig::TransactionOnly => self.fetch(client, table, rid),
            BufferConfig::Shared { capacity } => {
                {
                    let mut lru = self.entries.lock();
                    if let Some(e) = lru.map.get(&(table, rid)) {
                        if let Validity::Set(b) = &e.validity {
                            if v_tx.is_subset_of(b) {
                                // Condition 1: the buffer is recent enough.
                                let out = (e.token, e.record.clone());
                                self.stats.note_hit();
                                lru.touch((table, rid));
                                return Ok(Some(out));
                            }
                        }
                    }
                }
                // Condition 2: fetch and replace, B := V_max.
                self.stats.note_miss();
                let fetched = self.fetch(client, table, rid)?;
                let mut lru = self.entries.lock();
                match &fetched {
                    Some((token, record)) => lru.insert(
                        (table, rid),
                        *token,
                        record.clone(),
                        Validity::Set(v_max.clone()),
                        *capacity,
                    ),
                    None => lru.remove(&(table, rid)),
                }
                Ok(fetched)
            }
            BufferConfig::SharedVersionSync { capacity, cache_unit } => {
                let unit = rid.raw() / cache_unit;
                // One small request: the unit's current stamp.
                let current_stamp = match client.get(&keys::version_set(table, unit))? {
                    Some((_, raw)) if raw.len() == 8 => {
                        u64::from_le_bytes(raw.as_ref().try_into().unwrap())
                    }
                    _ => 0,
                };
                {
                    let mut lru = self.entries.lock();
                    if let Some(e) = lru.map.get(&(table, rid)) {
                        if matches!(e.validity, Validity::Stamp(s) if s == current_stamp) {
                            let out = (e.token, e.record.clone());
                            self.stats.note_hit();
                            lru.touch((table, rid));
                            return Ok(Some(out));
                        }
                    }
                }
                self.stats.note_miss();
                let fetched = self.fetch(client, table, rid)?;
                let mut lru = self.entries.lock();
                match &fetched {
                    Some((token, record)) => lru.insert(
                        (table, rid),
                        *token,
                        record.clone(),
                        Validity::Stamp(current_stamp),
                        *capacity,
                    ),
                    None => lru.remove(&(table, rid)),
                }
                Ok(fetched)
            }
        }
    }

    fn fetch<C: StoreApi>(
        &self,
        client: &C,
        table: TableId,
        rid: Rid,
    ) -> Result<Option<(Token, VersionedRecord)>> {
        match client.get(&keys::record(table, rid))? {
            Some((token, raw)) => Ok(Some((token, VersionedRecord::decode(&raw)?))),
            None => Ok(None),
        }
    }

    /// Write-through after a transaction successfully applied an update
    /// (§5.5.2: "Each time a transaction applies an update, the changes are
    /// written to the storage system and if successful, to the buffer as
    /// well").
    #[allow(clippy::too_many_arguments)]
    pub fn write_through<C: StoreApi>(
        &self,
        client: &C,
        table: TableId,
        rid: Rid,
        token: Token,
        record: &VersionedRecord,
        tid: TxnId,
        v_max: &SnapshotDescriptor,
    ) -> Result<()> {
        match &self.config {
            BufferConfig::TransactionOnly => Ok(()),
            BufferConfig::Shared { capacity } => {
                // B := {tid} ∪ V_max (valid because had any txn in V_max
                // changed the record, our LL/SC would have failed).
                let b = v_max.with_added(tid);
                self.entries.lock().insert(
                    (table, rid),
                    token,
                    record.clone(),
                    Validity::Set(b),
                    *capacity,
                );
                Ok(())
            }
            BufferConfig::SharedVersionSync { capacity, cache_unit } => {
                // Extra storage request per update: bump the unit stamp.
                let unit = rid.raw() / cache_unit;
                let stamp = client.increment(&keys::version_set(table, unit), 1)?;
                self.entries.lock().insert(
                    (table, rid),
                    token,
                    record.clone(),
                    Validity::Stamp(stamp),
                    *capacity,
                );
                Ok(())
            }
        }
    }

    /// Drop a record from the buffer (record deleted / fully GC'd).
    pub fn evict(&self, table: TableId, rid: Rid) {
        self.entries.lock().remove(&(table, rid));
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::Arc;
    use tell_common::BitSet;
    use tell_store::{StoreClient, StoreCluster, StoreConfig};

    fn snap(base: u64) -> SnapshotDescriptor {
        SnapshotDescriptor::new(base, BitSet::new())
    }

    fn setup() -> (StoreClient, TableId, Rid) {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let client = StoreClient::unmetered(cluster);
        let table = TableId(1);
        let rid = Rid(7);
        let rec = VersionedRecord::with_initial(TxnId(0), Bytes::from_static(b"row"));
        client.insert(&keys::record(table, rid), rec.encode()).unwrap();
        (client, table, rid)
    }

    #[test]
    fn transaction_only_never_caches() {
        let (client, table, rid) = setup();
        let buf = RecordBuffer::new(BufferConfig::TransactionOnly);
        buf.read_record(&client, table, rid, &snap(0), &snap(0)).unwrap().unwrap();
        buf.read_record(&client, table, rid, &snap(0), &snap(0)).unwrap().unwrap();
        assert!(buf.is_empty());
        assert_eq!(buf.stats().hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shared_buffer_serves_older_transactions() {
        let (client, table, rid) = setup();
        let buf = RecordBuffer::new(BufferConfig::Shared { capacity: 100 });
        // First read by a txn with base 5 (V_max = base 5): miss.
        buf.read_record(&client, table, rid, &snap(5), &snap(5)).unwrap().unwrap();
        // An *older* transaction (base 3 ⊆ base 5): hit.
        buf.read_record(&client, table, rid, &snap(3), &snap(5)).unwrap().unwrap();
        assert_eq!(buf.stats().hits.load(Ordering::Relaxed), 1);
        // A *newer* transaction (base 9 ⊄ base 5): miss, refetch, B := new V_max.
        buf.read_record(&client, table, rid, &snap(9), &snap(9)).unwrap().unwrap();
        assert_eq!(buf.stats().misses.load(Ordering::Relaxed), 2);
        // Now base 9 hits.
        buf.read_record(&client, table, rid, &snap(9), &snap(9)).unwrap().unwrap();
        assert_eq!(buf.stats().hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn write_through_extends_validity_with_tid() {
        let (client, table, rid) = setup();
        let buf = RecordBuffer::new(BufferConfig::Shared { capacity: 100 });
        let (token, mut rec) =
            buf.read_record(&client, table, rid, &snap(5), &snap(5)).unwrap().unwrap();
        // Apply an update as tid 8.
        rec.add_version(TxnId(8), Some(Bytes::from_static(b"new")));
        let new_token =
            client.store_conditional(&keys::record(table, rid), token, rec.encode()).unwrap();
        buf.write_through(&client, table, rid, new_token, &rec, TxnId(8), &snap(5)).unwrap();
        // A txn whose snapshot includes tid 8 can use the buffer.
        let mut bits = BitSet::new();
        bits.set(8 - 5 - 1);
        let v_tx = SnapshotDescriptor::new(5, bits);
        let hit = buf.read_record(&client, table, rid, &v_tx, &v_tx).unwrap().unwrap();
        assert_eq!(hit.0, new_token);
        assert_eq!(buf.stats().hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sbvs_detects_remote_updates_via_stamp() {
        let (client, table, rid) = setup();
        let buf =
            RecordBuffer::new(BufferConfig::SharedVersionSync { capacity: 100, cache_unit: 10 });
        buf.read_record(&client, table, rid, &snap(5), &snap(5)).unwrap().unwrap();
        // Hit while nothing changed.
        buf.read_record(&client, table, rid, &snap(9), &snap(9)).unwrap().unwrap();
        assert_eq!(buf.stats().hits.load(Ordering::Relaxed), 1);
        // A "remote PN" updates the record and bumps the unit stamp.
        let remote =
            RecordBuffer::new(BufferConfig::SharedVersionSync { capacity: 100, cache_unit: 10 });
        let (token, mut rec) =
            remote.read_record(&client, table, rid, &snap(5), &snap(5)).unwrap().unwrap();
        rec.add_version(TxnId(9), Some(Bytes::from_static(b"remote")));
        let t2 = client.store_conditional(&keys::record(table, rid), token, rec.encode()).unwrap();
        remote.write_through(&client, table, rid, t2, &rec, TxnId(9), &snap(5)).unwrap();
        // Our stale entry must be refreshed (stamp mismatch → miss).
        let (_, fresh) =
            buf.read_record(&client, table, rid, &snap(20), &snap(20)).unwrap().unwrap();
        assert!(fresh.has_version(9));
        assert_eq!(buf.stats().misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn sbvs_cache_unit_invalidates_neighbours() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let client = StoreClient::unmetered(cluster);
        let table = TableId(2);
        for r in 0..5u64 {
            let rec = VersionedRecord::with_initial(TxnId(0), Bytes::from_static(b"x"));
            client.insert(&keys::record(table, Rid(r)), rec.encode()).unwrap();
        }
        let buf =
            RecordBuffer::new(BufferConfig::SharedVersionSync { capacity: 100, cache_unit: 10 });
        buf.read_record(&client, table, Rid(1), &snap(1), &snap(1)).unwrap().unwrap();
        buf.read_record(&client, table, Rid(2), &snap(1), &snap(1)).unwrap().unwrap();
        // Update rid 1 → same unit as rid 2 → rid 2's entry is also stale.
        let (token, mut rec) =
            buf.read_record(&client, table, Rid(1), &snap(1), &snap(1)).unwrap().unwrap();
        rec.add_version(TxnId(3), Some(Bytes::from_static(b"y")));
        let t2 =
            client.store_conditional(&keys::record(table, Rid(1)), token, rec.encode()).unwrap();
        buf.write_through(&client, table, Rid(1), t2, &rec, TxnId(3), &snap(1)).unwrap();
        let before = buf.stats().misses.load(Ordering::Relaxed);
        buf.read_record(&client, table, Rid(2), &snap(1), &snap(1)).unwrap().unwrap();
        assert_eq!(
            buf.stats().misses.load(Ordering::Relaxed),
            before + 1,
            "neighbour in the same cache unit is spuriously invalidated"
        );
    }

    #[test]
    fn lru_evicts_oldest() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let client = StoreClient::unmetered(Arc::clone(&cluster));
        let table = TableId(3);
        for r in 0..4u64 {
            let rec = VersionedRecord::with_initial(TxnId(0), Bytes::from_static(b"x"));
            client.insert(&keys::record(table, Rid(r)), rec.encode()).unwrap();
        }
        let buf = RecordBuffer::new(BufferConfig::Shared { capacity: 2 });
        let s = snap(1);
        buf.read_record(&client, table, Rid(0), &s, &s).unwrap();
        buf.read_record(&client, table, Rid(1), &s, &s).unwrap();
        buf.read_record(&client, table, Rid(0), &s, &s).unwrap(); // touch 0
        buf.read_record(&client, table, Rid(2), &s, &s).unwrap(); // evicts 1
        assert_eq!(buf.len(), 2);
        let hits_before = buf.stats().hits.load(Ordering::Relaxed);
        buf.read_record(&client, table, Rid(0), &s, &s).unwrap();
        assert_eq!(buf.stats().hits.load(Ordering::Relaxed), hits_before + 1, "0 survived");
        buf.read_record(&client, table, Rid(1), &s, &s).unwrap();
        assert_eq!(buf.stats().hits.load(Ordering::Relaxed), hits_before + 1, "1 was evicted");
    }

    #[test]
    fn missing_record_is_none_and_uncached() {
        let (client, table, _) = setup();
        let buf = RecordBuffer::new(BufferConfig::Shared { capacity: 10 });
        let res = buf.read_record(&client, table, Rid(999), &snap(1), &snap(1)).unwrap();
        assert!(res.is_none());
        assert!(buf.is_empty());
    }
}
