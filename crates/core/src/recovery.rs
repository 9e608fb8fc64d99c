//! Recovery from processing-node failures (§4.4.1).
//!
//! PNs are crash-stop: when one fails, every transaction it was running
//! must be rolled back — in particular committing transactions with
//! partially applied updates. The recovery process scans the transaction
//! log backwards from the highest tid down to the lowest active version
//! number (the lav acts as a rolling checkpoint), and reverts the write set
//! of every uncommitted entry belonging to the failed node.

use tell_common::{Error, PnId, Result, Rid, TableId, TxnId};
use tell_obs::Counter;
use tell_store::keys::Key;
use tell_store::{keys, Expect, StoreApi, StoreEndpoint, WriteOp};

use crate::database::Database;
use crate::record::VersionedRecord;
use crate::txlog;

/// What a recovery run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Uncommitted transactions of the failed node that were rolled back.
    pub rolled_back: usize,
    /// Committed transactions of the failed node found in the log (left
    /// untouched — their effects are durable).
    pub already_committed: usize,
    /// Record versions reverted.
    pub versions_reverted: usize,
}

/// Remove the version written by `tid` from the record `rid`, retrying the
/// conditional write until it sticks. Used both by commit-failure rollback
/// and by the recovery process ("the version with number tid is removed
/// from the records").
pub fn revert_record_version<C: StoreApi>(
    client: &C,
    table: TableId,
    rid: Rid,
    tid: TxnId,
) -> Result<()> {
    let key = keys::record(table, rid);
    loop {
        let Some((token, raw)) = client.get(&key)? else {
            return Ok(()); // record gone entirely — nothing to revert
        };
        let mut rec = VersionedRecord::decode(&raw)?;
        if !rec.remove_version(tid) {
            return Ok(()); // already reverted
        }
        let outcome = if rec.version_count() == 0 {
            // The record existed only because of this transaction (an
            // insert): remove the whole key-value pair.
            client.delete_conditional(&key, token).map(|_| ())
        } else {
            client.store_conditional(&key, token, rec.encode()).map(|_| ())
        };
        match outcome {
            Ok(()) => return Ok(()),
            Err(Error::Conflict) => continue, // racing writer; reload
            Err(e) => return Err(e),
        }
    }
}

/// Remove the version written by `tid` from every record of a write set in
/// bulk: one batched load-link for all targets, one batched conditional
/// write for all records that carry the version (§5.1 batching applied to
/// rollback). Only keys that lose their LL/SC race to a concurrent writer
/// are retried; any other failure is returned. Returns how many records
/// actually had a `tid` version removed.
pub fn revert_write_set<C: StoreApi>(
    client: &C,
    tid: TxnId,
    targets: &[(TableId, Rid)],
) -> Result<usize> {
    let mut pending: Vec<Key> =
        targets.iter().map(|(table, rid)| keys::record(*table, *rid)).collect();
    let mut reverted = 0;
    while !pending.is_empty() {
        let cells = client.multi_get(&pending)?;
        let mut ops = Vec::new();
        let mut op_keys = Vec::new();
        for (key, cell) in pending.iter().zip(cells) {
            let Some((token, raw)) = cell else { continue }; // record gone
            let mut rec = VersionedRecord::decode(&raw)?;
            if !rec.remove_version(tid) {
                continue; // already reverted
            }
            // An insert-only record disappears entirely; otherwise the
            // version set shrinks by one.
            let op = if rec.version_count() == 0 {
                WriteOp::delete(key.clone(), Expect::Token(token))
            } else {
                WriteOp::put(key.clone(), Expect::Token(token), rec.encode())
            };
            ops.push(op);
            op_keys.push(key.clone());
        }
        if ops.is_empty() {
            break;
        }
        let results = client.multi_write(ops)?;
        let mut retry = Vec::with_capacity(op_keys.len());
        for (key, result) in op_keys.into_iter().zip(results) {
            match result {
                Ok(_) => reverted += 1,
                Err(Error::Conflict) => retry.push(key), // racing writer; reload
                Err(e) => return Err(e),
            }
        }
        pending = retry;
    }
    Ok(reverted)
}

/// Roll back every in-flight transaction of a failed processing node.
/// "The management node ensures that only one recovery process is running
/// at a time" — callers serialize invocations; the operation itself is
/// idempotent (re-reverting is a no-op).
pub fn recover_failed_pn<E: StoreEndpoint>(
    db: &Database<E>,
    failed: PnId,
) -> Result<RecoveryReport> {
    tell_obs::incr(Counter::RecoveryRuns);
    let client = db.admin_client();
    let lav = db.commit_service().current_lav()?;
    let mut report = RecoveryReport::default();
    let mut to_rollback = Vec::new();
    txlog::scan_backwards(&client, lav, |entry| {
        if entry.pn == failed {
            if entry.committed {
                report.already_committed += 1;
            } else {
                to_rollback.push(entry);
            }
        }
        true
    })?;
    for entry in to_rollback {
        let reverted = revert_write_set(&client, entry.tid, &entry.write_set)?;
        tell_obs::add(Counter::RecoveryRevertedWrites, reverted as u64);
        report.versions_reverted += entry.write_set.len();
        // Resolve the transaction on every commit manager so the global
        // base (and thus the lav) can advance past it.
        db.commit_service().force_resolve(entry.tid, false)?;
        report.rolled_back += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tell_store::{StoreClient, StoreCluster, StoreConfig};

    #[test]
    fn revert_removes_version() {
        let client = StoreClient::unmetered(StoreCluster::new(StoreConfig::new(1)));
        let table = TableId(1);
        let rid = Rid(1);
        let mut rec = VersionedRecord::with_initial(TxnId(0), Bytes::from_static(b"base"));
        rec.add_version(TxnId(9), Some(Bytes::from_static(b"dirty")));
        client.insert(&keys::record(table, rid), rec.encode()).unwrap();
        revert_record_version(&client, table, rid, TxnId(9)).unwrap();
        let (_, raw) = client.get(&keys::record(table, rid)).unwrap().unwrap();
        let after = VersionedRecord::decode(&raw).unwrap();
        assert!(!after.has_version(9));
        assert!(after.has_version(0));
        // Idempotent.
        revert_record_version(&client, table, rid, TxnId(9)).unwrap();
    }

    #[test]
    fn revert_deletes_insert_only_record() {
        let client = StoreClient::unmetered(StoreCluster::new(StoreConfig::new(1)));
        let table = TableId(1);
        let rid = Rid(2);
        let rec = VersionedRecord::with_initial(TxnId(7), Bytes::from_static(b"fresh"));
        client.insert(&keys::record(table, rid), rec.encode()).unwrap();
        revert_record_version(&client, table, rid, TxnId(7)).unwrap();
        assert!(client.get(&keys::record(table, rid)).unwrap().is_none());
    }

    #[test]
    fn revert_write_set_batches_mixed_targets() {
        let client = StoreClient::unmetered(StoreCluster::new(StoreConfig::new(2)));
        let table = TableId(1);
        // Rid 1: update on top of a base version; Rid 2: insert-only;
        // Rid 3: never written (nothing to revert).
        let mut rec = VersionedRecord::with_initial(TxnId(0), Bytes::from_static(b"base"));
        rec.add_version(TxnId(9), Some(Bytes::from_static(b"dirty")));
        client.insert(&keys::record(table, Rid(1)), rec.encode()).unwrap();
        let fresh = VersionedRecord::with_initial(TxnId(9), Bytes::from_static(b"fresh"));
        client.insert(&keys::record(table, Rid(2)), fresh.encode()).unwrap();
        let targets = [(table, Rid(1)), (table, Rid(2)), (table, Rid(3))];
        assert_eq!(revert_write_set(&client, TxnId(9), &targets).unwrap(), 2);
        let (_, raw) = client.get(&keys::record(table, Rid(1))).unwrap().unwrap();
        assert!(!VersionedRecord::decode(&raw).unwrap().has_version(9));
        assert!(client.get(&keys::record(table, Rid(2))).unwrap().is_none());
        // Idempotent.
        assert_eq!(revert_write_set(&client, TxnId(9), &targets).unwrap(), 0);
    }

    #[test]
    fn revert_missing_record_is_ok() {
        let client = StoreClient::unmetered(StoreCluster::new(StoreConfig::new(1)));
        revert_record_version(&client, TableId(1), Rid(404), TxnId(1)).unwrap();
    }
}
