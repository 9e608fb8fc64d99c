//! Transactions: distributed snapshot isolation (§4) and data access (§5).
//!
//! The life-cycle follows §4.3 exactly:
//!
//! 1. **Begin** — the commit manager supplies tid, snapshot and lav.
//! 2. **Running** — reads fetch the record (all versions in one request,
//!    §5.1), extract the snapshot-visible version and cache it in the
//!    transaction buffer; updates are buffered on the PN.
//! 3. **Try-Commit** — a log entry with the write-set is appended to the
//!    transaction log, then every buffered update is applied with one
//!    conditional write per record (batched into a single exchange). A
//!    failed store-conditional *is* the write-write conflict check.
//! 4. **Commit** — indexes are altered to reflect the updates, the commit
//!    flag is set in the log, the commit manager is notified. **Abort** —
//!    applied updates are rolled back, then the commit manager is notified.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use tell_commitmgr::{CommitParticipant, SnapshotDescriptor};
use tell_common::{Error, IsolationLevel, Result, Rid, TableId, TxnId};
use tell_obs::{Probe, Sample, Site, SpanStatus};
use tell_store::cell::Token;
use tell_store::{
    keys, Expect, OpHandle, Predicate, StoreApi, StoreCluster, StoreEndpoint, StoreOp, WriteOp,
};

use crate::buffer::BufferConfig;
use crate::catalog::TableDef;
use crate::pn::ProcessingNode;
use crate::record::VersionedRecord;
use crate::txlog::{self, LogEntry};

/// PN-side CPU cost charged per data operation, in virtual µs. Together
/// with the network profile this fixes the CPU-vs-network balance that the
/// InfiniBand/Ethernet experiment (Fig 10) depends on.
const CPU_OP_US: f64 = 3.0;

/// How a transaction ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnOutcome {
    /// All updates applied and visible.
    Committed,
    /// No effect on the database.
    Aborted,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum IntentKind {
    Insert,
    Update,
    Delete,
}

struct Intent {
    kind: IntentKind,
    /// Row image after the transaction (`None` = delete tombstone).
    new_row: Option<Bytes>,
    /// Snapshot-visible row image before the transaction (`None` for
    /// inserts). Drives index maintenance: only key *changes* touch trees.
    old_row: Option<Bytes>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Running,
    Committed,
    Aborted,
}

/// How a transaction ended, as [`Transaction::conclude`] reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum End {
    /// Committed without writing (a read-only commit).
    Commit,
    /// Lost a write-write conflict at validation or install.
    Conflict,
    /// The commit flag never reached the transaction log.
    LogFailed,
    /// Aborted by the caller, or dropped while running.
    UserAbort,
}

/// An open transaction on one processing node.
pub struct Transaction<'p, E: StoreEndpoint = Arc<StoreCluster>> {
    pn: &'p ProcessingNode<E>,
    tid: TxnId,
    snapshot: SnapshotDescriptor,
    lav: u64,
    cm: Arc<dyn CommitParticipant>,
    /// The isolation level this transaction runs at. Selects the read
    /// rule (RC refreshes the snapshot before each data access) and the
    /// commit-time validation (Serializable promotes the read set into
    /// the conditional-write batch).
    level: IsolationLevel,
    state: State,
    /// Which measurements this transaction's phase probes take (drawn at
    /// begin, see [`tell_obs::Sample`]).
    sample: Sample,
    /// Root probe (`txn`), opened at begin and finished at completion; it
    /// owns the transaction's trace.
    root: Option<Probe>,
    /// Transaction buffer (§5.5.1): every record read once is reused for
    /// the transaction's lifetime. `None` records known missing.
    reads: HashMap<(TableId, Rid), Option<(Token, VersionedRecord)>>,
    /// Buffered updates, applied at commit (§4.1: "Updates are buffered and
    /// applied to the shared store during commit").
    writes: BTreeMap<(TableId, Rid), Intent>,
    /// Table definitions touched by writes (for index maintenance).
    tables: HashMap<TableId, Arc<TableDef>>,
}

impl<'p, E: StoreEndpoint> Transaction<'p, E> {
    pub(crate) fn new(
        pn: &'p ProcessingNode<E>,
        start: tell_commitmgr::TxnStart,
        cm: Arc<dyn CommitParticipant>,
        level: IsolationLevel,
        root: Probe,
    ) -> Self {
        Transaction {
            pn,
            tid: start.tid,
            snapshot: start.snapshot,
            sample: root.sample(),
            root: Some(root),
            lav: start.lav,
            cm,
            level,
            state: State::Running,
            reads: HashMap::new(),
            writes: BTreeMap::new(),
            tables: HashMap::new(),
        }
    }

    /// This transaction's id (= the version number it writes).
    pub fn tid(&self) -> TxnId {
        self.tid
    }

    /// The worker running this transaction (table lookups, metrics).
    pub fn processing_node(&self) -> &ProcessingNode<E> {
        self.pn
    }

    /// The snapshot the transaction reads with.
    pub fn snapshot(&self) -> &SnapshotDescriptor {
        &self.snapshot
    }

    /// The isolation level this transaction runs at.
    pub fn isolation(&self) -> IsolationLevel {
        self.level
    }

    /// Lowest active version number received at begin (GC horizon).
    pub fn lav(&self) -> u64 {
        self.lav
    }

    /// Is the transaction still running?
    pub fn is_running(&self) -> bool {
        self.state == State::Running
    }

    fn ensure_running(&self) -> Result<()> {
        match self.state {
            State::Running => Ok(()),
            State::Committed => Err(Error::invalid("transaction already committed")),
            State::Aborted => Err(Error::invalid("transaction already aborted")),
        }
    }

    fn note_table(&mut self, table: &Arc<TableDef>) {
        self.tables.entry(table.id).or_insert_with(|| Arc::clone(table));
    }

    /// Open a phase probe under this transaction's sample.
    fn probe(&self, site: Site) -> Probe {
        Probe::sampled(site, self.sample, self.pn.clock().now_us())
    }

    /// Finish a phase probe on this transaction's clock.
    fn probe_finish(&self, probe: Probe, count: u32, status: SpanStatus) {
        probe.finish(self.pn.clock().now_us(), count, status);
    }

    // -----------------------------------------------------------------
    // Reads
    // -----------------------------------------------------------------

    /// Read-committed read rule: adopt the freshest snapshot the commit
    /// manager serves before each data access, so every read observes the
    /// latest committed state (non-repeatable reads are admitted by
    /// design). The snapshot only ever moves forward — a refresh that is
    /// not a superset of the current one (possible across manager
    /// fail-over) is ignored, so a version once visible never disappears.
    fn refresh_rc_snapshot(&mut self) -> Result<()> {
        if self.level != IsolationLevel::ReadCommitted {
            return Ok(());
        }
        if let Some(fresh) = self.cm.refresh_snapshot(self.pn.meter())? {
            if self.snapshot.is_subset_of(&fresh) {
                self.snapshot = fresh;
            }
        }
        Ok(())
    }

    /// Read the snapshot-visible row of `rid`, observing the transaction's
    /// own buffered writes first.
    pub fn get(&mut self, table: &Arc<TableDef>, rid: Rid) -> Result<Option<Bytes>> {
        self.ensure_running()?;
        self.pn.meter().charge_cpu(CPU_OP_US);
        if let Some(intent) = self.writes.get(&(table.id, rid)) {
            return Ok(intent.new_row.clone());
        }
        self.refresh_rc_snapshot()?;
        let rec = self.read_record(table.id, rid)?;
        Ok(rec.and_then(|(_, r)| r.visible_payload(&self.snapshot).cloned()))
    }

    /// Load the full versioned record through the transaction buffer and
    /// the PN's buffering strategy.
    fn read_record(
        &mut self,
        table: TableId,
        rid: Rid,
    ) -> Result<Option<(Token, VersionedRecord)>> {
        if let Some(cached) = self.reads.get(&(table, rid)) {
            return Ok(cached.clone());
        }
        let probe = self.probe(Site::TxnRead);
        let got = self.pn.group().buffer().read_record(
            self.pn.client(),
            table,
            rid,
            &self.snapshot,
            &self.pn.group().v_max(),
        )?;
        self.probe_finish(probe, 1, SpanStatus::Ok);
        self.reads.insert((table, rid), got.clone());
        Ok(got)
    }

    /// Does this PN batch record reads? Only the transaction-buffer
    /// strategy does; the shared buffers resolve records one by one against
    /// their validity metadata.
    fn batches_reads(&self) -> bool {
        matches!(self.pn.group().buffer().config(), BufferConfig::TransactionOnly)
            && self.pn.database().config().batching
    }

    /// Submit, without waiting, one batched read of the records at `rids`
    /// the transaction buffer lacks. Index reads call this with the rids
    /// their cached leaves predict, so the read rides the leaf read's frame.
    fn prefetch_records(&self, table: TableId, rids: &[u64]) -> Option<(Vec<u64>, OpHandle)> {
        if !self.batches_reads() {
            return None;
        }
        let rids: Vec<u64> =
            rids.iter().copied().filter(|r| !self.reads.contains_key(&(table, Rid(*r)))).collect();
        if rids.is_empty() {
            return None;
        }
        let keys = rids.iter().map(|r| keys::record(table, Rid(*r))).collect();
        Some((rids, self.pn.client().submit(StoreOp::MultiGet { keys })))
    }

    /// Batched record load (§5.1 batching: one exchange for many records),
    /// starting from what [`Self::prefetch_records`] submitted, if anything.
    fn multi_read_records(
        &mut self,
        table: TableId,
        rids: &[u64],
        prefetched: Option<(Vec<u64>, OpHandle)>,
    ) -> Result<Vec<Option<(Token, VersionedRecord)>>> {
        if !self.batches_reads() {
            return rids.iter().map(|r| self.read_record(table, Rid(*r))).collect();
        }
        if let Some((fetched, pending)) = prefetched {
            let probe = self.probe(Site::TxnRead);
            let cells = pending.wait()?.into_cells()?;
            // The prediction came from a cached leaf: only records the fresh
            // leaves name join the read set, the rest drop unread.
            let named: HashSet<u64> = rids.iter().copied().collect();
            let mut kept = 0u32;
            for (rid, cell) in fetched.into_iter().zip(cells) {
                if named.contains(&rid) {
                    self.reads.insert((table, Rid(rid)), decode_record(cell)?);
                    kept += 1;
                }
            }
            self.probe_finish(probe, kept, SpanStatus::Ok);
        }
        let missing: Vec<u64> =
            rids.iter().copied().filter(|r| !self.reads.contains_key(&(table, Rid(*r)))).collect();
        if !missing.is_empty() {
            let probe = self.probe(Site::TxnRead);
            let keys: Vec<_> = missing.iter().map(|r| keys::record(table, Rid(*r))).collect();
            let fetched = self.pn.client().multi_get(&keys)?;
            self.probe_finish(probe, missing.len() as u32, SpanStatus::Ok);
            for (rid, cell) in missing.into_iter().zip(fetched) {
                self.reads.insert((table, Rid(rid)), decode_record(cell)?);
            }
        }
        Ok(rids.iter().map(|r| self.reads.get(&(table, Rid(*r))).cloned().flatten()).collect())
    }

    /// Look up records by an indexed key. Because indexes are
    /// version-unaware (§5.3.2), hits are verified against the visible
    /// version; stale entries found along the way are garbage-collected
    /// (§5.4: "Index GC is performed during read operations").
    pub fn index_lookup(
        &mut self,
        table: &Arc<TableDef>,
        index: tell_common::IndexId,
        key: &Bytes,
    ) -> Result<Vec<(Rid, Bytes)>> {
        self.ensure_running()?;
        self.pn.meter().charge_cpu(CPU_OP_US);
        self.refresh_rc_snapshot()?;
        let tree = self.pn.tree(index)?;
        let ex =
            self.pn.database().extractor(index).ok_or_else(|| {
                Error::invalid(format!("no extractor registered for index {index}"))
            })?;
        let (rids, prefetched) =
            tree.lookup_prefetch(key, |rids| self.prefetch_records(table.id, rids))?;
        let records = self.multi_read_records(table.id, &rids, prefetched.flatten())?;
        let mut out: Vec<(Rid, Bytes)> = Vec::new();
        for (rid, rec) in rids.iter().zip(records) {
            if self.writes.contains_key(&(table.id, Rid(*rid))) {
                continue; // own write supersedes; merged below
            }
            match rec {
                Some((_, record)) => match record.visible_payload(&self.snapshot) {
                    Some(row) if ex(row).as_ref() == Some(key) => {
                        out.push((Rid(*rid), row.clone()));
                    }
                    _ => {
                        // False positive. If *no* stored version still
                        // carries this key, the entry is dead: remove it.
                        let alive = record.versions().iter().any(|v| {
                            v.payload.as_deref().and_then(|p| ex(p)).as_ref() == Some(key)
                        });
                        if !alive {
                            let _ = tree.remove(key, *rid);
                        }
                    }
                },
                None => {
                    // Record fully gone: dead entry.
                    let _ = tree.remove(key, *rid);
                }
            }
        }
        // Merge the transaction's own writes.
        for ((t, rid), intent) in &self.writes {
            if *t != table.id {
                continue;
            }
            if let Some(row) = &intent.new_row {
                if ex(row).as_ref() == Some(key) {
                    out.push((*rid, row.clone()));
                }
            }
        }
        out.sort_by_key(|(rid, _)| *rid);
        out.dedup_by_key(|(rid, _)| *rid);
        Ok(out)
    }

    /// Range scan over an index: entries with `start <= key < end`,
    /// verified and merged with own writes, ordered by `(key, rid)`.
    pub fn index_range(
        &mut self,
        table: &Arc<TableDef>,
        index: tell_common::IndexId,
        start: &Bytes,
        end: Option<&Bytes>,
        limit: usize,
    ) -> Result<Vec<(Bytes, Rid, Bytes)>> {
        self.ensure_running()?;
        self.pn.meter().charge_cpu(CPU_OP_US);
        self.refresh_rc_snapshot()?;
        let tree = self.pn.tree(index)?;
        let ex =
            self.pn.database().extractor(index).ok_or_else(|| {
                Error::invalid(format!("no extractor registered for index {index}"))
            })?;
        let (entries, prefetched) =
            tree.range_prefetch(start, end, limit.saturating_mul(2).max(limit), |rids| {
                self.prefetch_records(table.id, rids)
            })?;
        let rids: Vec<u64> = entries.iter().map(|(_, r)| *r).collect();
        let records = self.multi_read_records(table.id, &rids, prefetched.flatten())?;
        let mut out: Vec<(Bytes, Rid, Bytes)> = Vec::new();
        for ((ekey, rid), rec) in entries.iter().zip(records) {
            if self.writes.contains_key(&(table.id, Rid(*rid))) {
                continue;
            }
            if let Some((_, record)) = rec {
                if let Some(row) = record.visible_payload(&self.snapshot) {
                    if ex(row).as_ref() == Some(ekey) {
                        out.push((ekey.clone(), Rid(*rid), row.clone()));
                    }
                }
            }
        }
        for ((t, rid), intent) in &self.writes {
            if *t != table.id {
                continue;
            }
            if let Some(row) = &intent.new_row {
                if let Some(k) = ex(row) {
                    let in_range = k.as_ref() >= start.as_ref()
                        && end.map(|e| k.as_ref() < e.as_ref()).unwrap_or(true);
                    if in_range {
                        out.push((k, *rid, row.clone()));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        out.truncate(limit);
        Ok(out)
    }

    /// Full-table scan of visible rows ("data is shipped to the query",
    /// §2.1). Expensive by design; OLAP-style access.
    pub fn scan_table(&mut self, table: &Arc<TableDef>, limit: usize) -> Result<Vec<(Rid, Bytes)>> {
        self.ensure_running()?;
        self.refresh_rc_snapshot()?;
        let prefix = keys::record_prefix(table.id);
        let rows = self.pn.client().scan_prefix(&prefix, usize::MAX)?;
        self.pn.meter().charge_cpu(rows.len() as f64 * 0.2);
        self.collect_scan(table, rows, limit, |_, _| true)
    }

    /// Table scan with the row filter pushed down into the storage layer
    /// (§5.2): `filter` is written against row bytes, lifted to a sound
    /// predicate over encoded records
    /// ([`VersionedRecord::lift_row_predicate`]), and evaluated in the
    /// storage node — only candidate records cross the network. Rows are
    /// re-verified against the transaction's snapshot on the PN, so the
    /// result is exactly the visible rows matching `filter`.
    pub fn scan_table_pushdown_filtered(
        &mut self,
        table: &Arc<TableDef>,
        limit: usize,
        filter: &Predicate,
    ) -> Result<Vec<(Rid, Bytes)>> {
        self.ensure_running()?;
        self.refresh_rc_snapshot()?;
        let prefix = keys::record_prefix(table.id);
        let lifted = VersionedRecord::lift_row_predicate(filter);
        let rows = self.pn.client().scan_prefix_pushdown(&prefix, usize::MAX, &lifted)?;
        self.pn.meter().charge_cpu(rows.len() as f64 * 0.2);
        self.collect_scan(table, rows, limit, |key, row| filter.matches(key, row))
    }

    fn collect_scan(
        &mut self,
        table: &Arc<TableDef>,
        rows: Vec<(Bytes, Token, Bytes)>,
        limit: usize,
        pred: impl Fn(&[u8], &[u8]) -> bool,
    ) -> Result<Vec<(Rid, Bytes)>> {
        let mut out = Vec::new();
        for (key, _, raw) in rows {
            let Some((_, rid)) = keys::parse_record(&key) else { continue };
            if self.writes.contains_key(&(table.id, rid)) {
                continue;
            }
            let rec = VersionedRecord::decode(&raw)?;
            if let Some(row) = rec.visible_payload(&self.snapshot) {
                if pred(key.as_ref(), row) {
                    out.push((rid, row.clone()));
                }
            }
        }
        for ((t, rid), intent) in &self.writes {
            if *t != table.id {
                continue;
            }
            if let Some(row) = &intent.new_row {
                if pred(keys::record(*t, *rid).as_ref(), row) {
                    out.push((*rid, row.clone()));
                }
            }
        }
        out.sort_by_key(|(rid, _)| *rid);
        out.truncate(limit);
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Writes (buffered until commit)
    // -----------------------------------------------------------------

    /// Insert a new row; allocates and returns its record id. Unique
    /// indexes are checked against the snapshot (SI gives no phantom
    /// protection, so two concurrent inserts of the same key can both
    /// pass — exactly the write-skew-family anomaly §4.1 acknowledges).
    pub fn insert(&mut self, table: &Arc<TableDef>, row: Bytes) -> Result<Rid> {
        self.ensure_running()?;
        self.pn.meter().charge_cpu(CPU_OP_US);
        for idx in &table.indexes {
            if !idx.unique {
                continue;
            }
            if let Some(ex) = self.pn.database().extractor(idx.id) {
                if let Some(key) = ex(&row) {
                    if !self.index_lookup(table, idx.id, &key)?.is_empty() {
                        return Err(Error::invalid(format!(
                            "duplicate key on unique index '{}'",
                            idx.name
                        )));
                    }
                }
            }
        }
        let rid = Rid(self.pn.alloc_rid(table.id)?);
        self.note_table(table);
        self.writes.insert(
            (table.id, rid),
            Intent { kind: IntentKind::Insert, new_row: Some(row), old_row: None },
        );
        Ok(rid)
    }

    /// Replace the row of `rid`. The record is read first (§5.1); repeated
    /// updates modify the buffered version in place.
    pub fn update(&mut self, table: &Arc<TableDef>, rid: Rid, new_row: Bytes) -> Result<()> {
        self.ensure_running()?;
        self.pn.meter().charge_cpu(CPU_OP_US);
        if let Some(intent) = self.writes.get_mut(&(table.id, rid)) {
            if intent.kind == IntentKind::Delete {
                return Err(Error::invalid("cannot update a row deleted in this transaction"));
            }
            intent.new_row = Some(new_row);
            return Ok(());
        }
        let rec = self.read_record(table.id, rid)?;
        self.check_no_foreign_versions(&rec)?;
        let old = rec
            .as_ref()
            .and_then(|(_, r)| r.visible_payload(&self.snapshot).cloned())
            .ok_or(Error::NotFound)?;
        self.note_table(table);
        self.writes.insert(
            (table.id, rid),
            Intent { kind: IntentKind::Update, new_row: Some(new_row), old_row: Some(old) },
        );
        Ok(())
    }

    /// First conflict scenario of §4.1: "T2 writes the changed item to the
    /// shared store before it is read by T1. In that case, T1 will notice
    /// the conflict (as the item has a newer version)." A record we intend
    /// to write must not carry
    ///
    /// * any version outside our snapshot — written by a transaction that
    ///   committed (or is committing) after we started; first-committer-
    ///   wins says we lose — nor
    /// * any version **numbered above our own tid**. Tids are handed out in
    ///   ranges (§4.2), so a transaction can begin *after* a higher-
    ///   numbered one committed; writing below an existing version would
    ///   corrupt the `v := max(V ∩ V')` read rule (version order must equal
    ///   commit order per record). This is precisely the "higher abort
    ///   rate" cost of continuous tid ranges the paper concedes.
    fn check_no_foreign_versions(&self, rec: &Option<(Token, VersionedRecord)>) -> Result<()> {
        if let Some((_, record)) = rec {
            if record.version_numbers().any(|v| v >= self.tid.raw() || !self.snapshot.contains(v)) {
                return Err(Error::Conflict);
            }
        }
        Ok(())
    }

    /// Delete the row of `rid` (writes a tombstone version at commit).
    pub fn delete(&mut self, table: &Arc<TableDef>, rid: Rid) -> Result<()> {
        self.ensure_running()?;
        self.pn.meter().charge_cpu(CPU_OP_US);
        if let Some(intent) = self.writes.get(&(table.id, rid)) {
            if intent.kind == IntentKind::Insert {
                // Deleting an own insert: the row never existed.
                self.writes.remove(&(table.id, rid));
                return Ok(());
            }
            if intent.kind == IntentKind::Delete {
                return Err(Error::NotFound);
            }
        }
        let rec = self.read_record(table.id, rid)?;
        self.check_no_foreign_versions(&rec)?;
        let old = rec
            .as_ref()
            .and_then(|(_, r)| r.visible_payload(&self.snapshot).cloned())
            .ok_or(Error::NotFound)?;
        self.note_table(table);
        self.writes.insert(
            (table.id, rid),
            Intent { kind: IntentKind::Delete, new_row: None, old_row: Some(old) },
        );
        Ok(())
    }

    // -----------------------------------------------------------------
    // Completion
    // -----------------------------------------------------------------

    /// Try-commit then commit (§4.3). On a write-write conflict every
    /// applied update is rolled back and `Err(Conflict)` is returned.
    pub fn commit(&mut self) -> Result<()> {
        self.ensure_running()?;
        // Serializable promotes the read set into the conditional-write
        // batch (write-snapshot validation): every record read but not
        // written is re-written *unchanged* under its observed token, so
        // this transaction and any concurrent writer of a read record
        // race first-committer-wins — the rw-antidependency that would
        // admit write skew under SI becomes a ww conflict. Read-only
        // transactions promote too: under multi-manager gossip skew a
        // read-only snapshot can observe a fracture (seeing a later
        // commit but not an earlier one) that closes a serialization
        // cycle through this transaction.
        let promoted: Vec<((TableId, Rid), Token, VersionedRecord)> =
            if self.level == IsolationLevel::Serializable {
                let mut promo: Vec<_> = self
                    .reads
                    .iter()
                    .filter(|(key, _)| !self.writes.contains_key(key))
                    .filter_map(|(key, v)| v.as_ref().map(|(t, r)| (*key, *t, r.clone())))
                    .collect();
                promo.sort_unstable_by_key(|(key, _, _)| *key);
                promo
            } else {
                Vec::new()
            };
        if self.writes.is_empty() && promoted.is_empty() {
            return self.conclude(End::Commit);
        }
        self.pn.meter().charge_cpu((self.writes.len() + promoted.len()) as f64 * CPU_OP_US);

        // Try-Commit: log entry first (required for recovery, §4.4.1).
        let validate = self.probe(Site::TxnValidate);
        // Write-snapshot check over the promoted reads: a version we did
        // not observe means a writer committed there after our snapshot
        // was taken — first-committer-wins says we lose. Detected here
        // (before the log append) the abort costs no store round-trip.
        // Unlike the write-path check this accepts versions numbered
        // above our tid that are *in* our snapshot: promotion adds no
        // version, so record version order is not at stake.
        if promoted
            .iter()
            .any(|(_, _, rec)| rec.version_numbers().any(|v| !self.snapshot.contains(v)))
        {
            self.probe_finish(validate, 0, SpanStatus::Conflict);
            self.conclude(End::Conflict)?;
            return Err(Error::Conflict);
        }
        let mut entry = LogEntry {
            tid: self.tid,
            pn: self.pn.id(),
            timestamp_us: self.pn.clock().now_us() as u64,
            write_set: self.writes.keys().copied().collect(),
            committed: false,
        };
        txlog::append(self.pn.client(), &entry)?;

        // Apply every buffered update with one conditional write per
        // record, batched into a single exchange.
        let mut ops = Vec::with_capacity(self.writes.len());
        let mut applied_records: Vec<((TableId, Rid), VersionedRecord)> =
            Vec::with_capacity(self.writes.len());
        for ((table, rid), intent) in &self.writes {
            let key = keys::record(*table, *rid);
            match intent.kind {
                IntentKind::Insert => {
                    let rec = VersionedRecord::with_initial(
                        self.tid,
                        intent.new_row.clone().expect("insert carries a row"),
                    );
                    ops.push(WriteOp::put(key, Expect::Absent, rec.encode()));
                    applied_records.push(((*table, *rid), rec));
                }
                IntentKind::Update | IntentKind::Delete => {
                    let (token, record) = self
                        .reads
                        .get(&(*table, *rid))
                        .cloned()
                        .flatten()
                        .ok_or_else(|| Error::invalid("write intent without prior read"))?;
                    let mut rec = record;
                    rec.add_version(self.tid, intent.new_row.clone());
                    rec.gc(self.lav); // eager GC is part of the update (§5.4)
                    ops.push(WriteOp::put(key, Expect::Token(token), rec.encode()));
                    applied_records.push(((*table, *rid), rec));
                }
            }
        }
        // Promoted reads ride the same batch, *after* the write ops so the
        // result/applied_records zips below stay aligned on the write-op
        // prefix. Each is an identity re-write: same encoded record under
        // the observed token. A success bumps the token (serializing this
        // transaction against later writers); a failure is the write-
        // snapshot conflict.
        for ((table, rid), token, rec) in &promoted {
            ops.push(WriteOp::put(keys::record(*table, *rid), Expect::Token(*token), rec.encode()));
        }
        let write_count = ops.len() as u32;
        self.probe_finish(validate, write_count, SpanStatus::Ok);
        let install = self.probe(Site::TxnInstall);
        let results = if self.pn.database().config().batching {
            // One batched call: over the remote transport the whole write
            // set rides one frame.
            self.pn.client().multi_write(ops)?
        } else {
            // Ablation mode: one exchange per update.
            ops.into_iter()
                .map(|op| {
                    let client = self.pn.client();
                    match op.value {
                        Some(v) => match op.expect {
                            tell_store::Expect::Absent => client.insert(&op.key, v).map(Some),
                            tell_store::Expect::Token(t) => {
                                client.store_conditional(&op.key, t, v).map(Some)
                            }
                            tell_store::Expect::Any => client.put(&op.key, v).map(Some),
                        },
                        None => client.delete(&op.key).map(|_| None),
                    }
                })
                .collect()
        };
        let conflicted = results.iter().any(|r| r.is_err());
        let install_status = if conflicted { SpanStatus::Conflict } else { SpanStatus::Ok };
        self.probe_finish(install, write_count, install_status);
        if conflicted {
            // Abort: revert the updates that did apply, batched the same
            // way recovery rolls back a failed PN's write sets.
            let applied: Vec<(TableId, Rid)> = results
                .iter()
                .zip(&applied_records)
                .filter(|(result, _)| result.is_ok())
                .map(|(_, (target, _))| *target)
                .collect();
            crate::recovery::revert_write_set(self.pn.client(), self.tid, &applied)?;
            self.conclude(End::Conflict)?;
            // A genuine SI conflict is retryable; an infrastructure failure
            // (storage node down, capacity exceeded) is not — report the
            // latter when present so callers do not retry in vain.
            let err = results
                .iter()
                .filter_map(|r| r.as_ref().err())
                .find(|e| !matches!(e, Error::Conflict))
                .cloned()
                .unwrap_or(Error::Conflict);
            return Err(err);
        }

        // Commit: index maintenance. Only key changes touch trees; stale
        // entries are removed lazily by index GC (§5.3.2).
        for ((table_id, rid), intent) in &self.writes {
            let table = self.tables.get(table_id).expect("table noted at write time");
            for idx in &table.indexes {
                let Some(ex) = self.pn.database().extractor(idx.id) else { continue };
                let old_key = intent.old_row.as_deref().and_then(|r| ex(r));
                let new_key = intent.new_row.as_deref().and_then(|r| ex(r));
                if let Some(nk) = new_key {
                    if old_key.as_ref() != Some(&nk) {
                        self.pn.tree(idx.id)?.insert(nk, rid.raw())?;
                    }
                }
            }
        }

        if let Err(e) = txlog::mark_committed(self.pn.client(), &mut entry) {
            // The commit flag never reached the log, so the transaction is
            // not committed. Roll the installed versions back (best effort:
            // if the revert also fails they stay invisible — no snapshot
            // ever contains this tid) and resolve the tid as aborted so the
            // base does not stall on it.
            let applied: Vec<(TableId, Rid)> =
                applied_records.iter().map(|(target, _)| *target).collect();
            let _ = crate::recovery::revert_write_set(self.pn.client(), self.tid, &applied);
            self.conclude(End::LogFailed)?;
            return Err(e);
        }
        let probe = self.probe(Site::TxnCmComplete);
        self.cm.set_committed(self.tid, self.pn.meter())?;
        self.probe_finish(probe, 0, SpanStatus::Ok);

        // Write-through to the PN buffer with the fresh tokens.
        let v_max = self.pn.group().v_max();
        for (((table, rid), rec), result) in applied_records.iter().zip(results.iter()) {
            if let Ok(Some(token)) = result {
                if rec.version_count() > 0 {
                    self.pn.group().buffer().write_through(
                        self.pn.client(),
                        *table,
                        *rid,
                        *token,
                        rec,
                        self.tid,
                        &v_max,
                    )?;
                }
            }
        }

        self.state = State::Committed;
        self.pn.metrics().record_commit();
        self.note_finished(SpanStatus::Ok, false);
        Ok(())
    }

    /// Manual abort: nothing was applied yet (§4.3 4b: "In this case, no
    /// updates have been applied as we skipped the Try-Commit state").
    pub fn abort(&mut self) -> Result<()> {
        self.ensure_running()?;
        self.conclude(End::UserAbort)
    }

    /// Report how the transaction ended to the commit manager, then count
    /// the outcome and close the trace. The bookkeeping runs even when the
    /// commit-manager call fails, so the thread is clean — trace unpinned,
    /// buffered spans decided — before that error propagates; the failed
    /// call counts as an abort, since the caller sees one. A manual abort
    /// is not a commit attempt, so its notification is no `cm_complete`
    /// phase.
    fn conclude(&mut self, end: End) -> Result<()> {
        let commit = end == End::Commit;
        self.state = if commit { State::Committed } else { State::Aborted };
        let probe = (end != End::UserAbort).then(|| self.probe(Site::TxnCmComplete));
        let told = if commit {
            self.cm.set_committed(self.tid, self.pn.meter())
        } else {
            self.cm.set_aborted(self.tid, self.pn.meter())
        };
        if let Some(probe) = probe {
            let status = if told.is_ok() { SpanStatus::Ok } else { SpanStatus::Error };
            self.probe_finish(probe, 0, status);
        }
        let conflict = matches!(end, End::Conflict | End::LogFailed);
        let status = match end {
            End::Commit if told.is_ok() => SpanStatus::Ok,
            End::Conflict => SpanStatus::Conflict,
            _ => SpanStatus::Error,
        };
        if status == SpanStatus::Ok {
            self.pn.metrics().record_commit();
        } else {
            self.pn.metrics().record_abort(conflict);
        }
        self.note_finished(status, conflict);
        told
    }

    /// Close the trace: the root probe records the whole-transaction
    /// latency and span (never sampled away while a slow-op budget is
    /// armed), and the trace is kept for every conflict abort, every
    /// transaction over the budget and the span sample.
    fn note_finished(&mut self, status: SpanStatus, conflict: bool) {
        if let Some(root) = self.root.take() {
            let now = self.pn.clock().now_us();
            root.finish_trace(now, self.writes.len() as u32, status, conflict);
        }
    }
}

impl<E: StoreEndpoint> Drop for Transaction<'_, E> {
    fn drop(&mut self) {
        if self.state == State::Running {
            // Crash-stop semantics for forgotten transactions: report the
            // abort so the commit manager's base can advance. No updates
            // were applied (that only happens inside commit()).
            let _ = self.conclude(End::UserAbort);
        }
    }
}

/// Decode a record cell as the store returned it (`None` = no record).
fn decode_record(cell: Option<(Token, Bytes)>) -> Result<Option<(Token, VersionedRecord)>> {
    cell.map(|(token, raw)| Ok((token, VersionedRecord::decode(&raw)?))).transpose()
}
