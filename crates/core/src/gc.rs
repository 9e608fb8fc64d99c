//! Lazy background garbage collection (§5.4).
//!
//! The eager strategy runs inline: record GC as part of every update (see
//! [`crate::txn`]) and index-entry GC during index reads. This module is
//! the lazy complement, "a background task that runs in regular intervals",
//! useful for rarely accessed records: it sweeps every record of every
//! table, drops versions below the lowest active version number, removes
//! records that are nothing but a globally visible tombstone, purges the
//! index entries that die with them, and truncates the transaction log.

use std::collections::HashSet;

use bytes::Bytes;
use tell_common::{Error, Result};
use tell_index::DistributedBTree;
use tell_obs::{Counter, Probe, Site, SpanStatus, TraceGuard};
use tell_store::{keys, StoreApi, StoreEndpoint};

use crate::database::Database;
use crate::record::VersionedRecord;
use crate::txlog;

/// What a sweep accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Records examined.
    pub records_scanned: usize,
    /// Versions dropped.
    pub versions_removed: usize,
    /// Whole records (lone tombstones) deleted.
    pub records_deleted: usize,
    /// Index entries removed.
    pub index_entries_removed: usize,
    /// Transaction-log entries truncated.
    pub log_entries_removed: usize,
}

/// Run one full GC sweep. Safe to run concurrently with transactions:
/// every mutation is a conditional write, and losing a race simply defers
/// the cleanup to the next sweep.
pub fn run_gc<E: StoreEndpoint>(db: &Database<E>) -> Result<GcReport> {
    // A sweep is its own trace: the conditional writes it issues carry the
    // id, and the pass itself is one probe (count = versions reclaimed)
    // whose spans go straight to the ring. Every sweep is kept, not one in
    // the tick's N, so its id carries no tick mark.
    let _trace = TraceGuard::enter(tell_obs::next_trace_id(false));
    let probe = Probe::enter(Site::GcPass);
    let client = db.admin_client();
    let lav = db.commit_service().current_lav()?;
    let mut report = GcReport::default();

    for table in db.catalog().tables() {
        // Open this sweep's tree handles + extractors once per table.
        let mut trees = Vec::new();
        for idx in &table.indexes {
            let Some(ex) = db.extractor(idx.id) else { continue };
            let tree =
                DistributedBTree::open(db.admin_client(), idx.id, db.config().btree.clone())?;
            trees.push((tree, ex));
        }
        let rows = client.scan_prefix(&keys::record_prefix(table.id), usize::MAX)?;
        for (key, token, raw) in rows {
            let Some((_, rid)) = keys::parse_record(&key) else { continue };
            report.records_scanned += 1;
            let mut rec = VersionedRecord::decode(&raw)?;
            let keys_before = index_keys(&rec, &trees);
            let dropped = rec.gc(lav);
            if rec.is_fully_dead(lav) {
                match client.delete_conditional(&key, token) {
                    Ok(()) => {
                        report.records_deleted += 1;
                        report.versions_removed += dropped + rec.version_count();
                        // Every index entry of this record is now dead.
                        for (tree_idx, k) in &keys_before {
                            if trees[*tree_idx].0.remove(k, rid.raw())? {
                                report.index_entries_removed += 1;
                            }
                        }
                    }
                    Err(Error::Conflict) => {} // resurrected concurrently
                    Err(e) => return Err(e),
                }
                continue;
            }
            if dropped == 0 {
                continue;
            }
            match client.store_conditional(&key, token, rec.encode()) {
                Ok(_) => {
                    report.versions_removed += dropped;
                    // Index entries whose key no longer appears in any
                    // surviving version are dead (V_a \ G = ∅, §5.4).
                    let keys_after = index_keys(&rec, &trees);
                    for entry @ (tree_idx, k) in &keys_before {
                        if !keys_after.contains(entry) && trees[*tree_idx].0.remove(k, rid.raw())? {
                            report.index_entries_removed += 1;
                        }
                    }
                }
                Err(Error::Conflict) => {} // writer raced us; next sweep
                Err(e) => return Err(e),
            }
        }
    }

    report.log_entries_removed = txlog::truncate(&client, lav)?;

    tell_obs::incr(Counter::GcCycles);
    tell_obs::add(Counter::GcVersionsReclaimed, report.versions_removed as u64);
    tell_obs::add(Counter::GcRecordsDeleted, report.records_deleted as u64);
    tell_obs::add(Counter::GcIndexEntriesRemoved, report.index_entries_removed as u64);
    tell_obs::add(Counter::GcLogEntriesTruncated, report.log_entries_removed as u64);
    probe.finish(0.0, report.versions_removed as u32, SpanStatus::Ok);
    Ok(report)
}

type TreeSlot<C> = (DistributedBTree<C>, crate::catalog::KeyExtractor);

fn index_keys<C: StoreApi>(
    rec: &VersionedRecord,
    trees: &[TreeSlot<C>],
) -> HashSet<(usize, Bytes)> {
    let mut out = HashSet::new();
    for (i, (_, ex)) in trees.iter().enumerate() {
        for v in rec.versions() {
            if let Some(p) = &v.payload {
                if let Some(k) = ex(p) {
                    out.insert((i, k));
                }
            }
        }
    }
    out
}
