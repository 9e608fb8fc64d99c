//! End-to-end tests of Tell's transaction layer: snapshot isolation,
//! LL/SC conflict detection, index maintenance, recovery and GC.

use std::sync::Arc;

use bytes::Bytes;
use tell_common::{Error, Rid};
use tell_core::database::IndexSpec;
use tell_core::gc::run_gc;
use tell_core::recovery::recover_failed_pn;
use tell_core::{BufferConfig, Database, TellConfig};
use tell_store::StoreApi;

/// Test rows: `[pk: u64 BE][group: u8][payload...]`.
fn row(pk: u64, group: u8, payload: &str) -> Bytes {
    let mut r = pk.to_be_bytes().to_vec();
    r.push(group);
    r.extend_from_slice(payload.as_bytes());
    Bytes::from(r)
}

fn row_pk(row: &[u8]) -> u64 {
    u64::from_be_bytes(row[..8].try_into().unwrap())
}

fn row_payload(row: &[u8]) -> &[u8] {
    &row[9..]
}

fn pk_bytes(pk: u64) -> Bytes {
    Bytes::copy_from_slice(&pk.to_be_bytes())
}

fn group_bytes(g: u8) -> Bytes {
    Bytes::copy_from_slice(&[g])
}

fn make_db(config: TellConfig) -> (Arc<Database>, Arc<tell_core::catalog::TableDef>) {
    let db = Database::create(config);
    let table = db
        .create_table(
            "items",
            vec![
                IndexSpec::new("pk", true, |r: &[u8]| r.get(..8).map(Bytes::copy_from_slice)),
                IndexSpec::new("by_group", false, |r: &[u8]| {
                    r.get(8..9).map(Bytes::copy_from_slice)
                }),
            ],
        )
        .unwrap();
    (db, table)
}

fn default_db() -> (Arc<Database>, Arc<tell_core::catalog::TableDef>) {
    make_db(TellConfig::default())
}

#[test]
fn insert_commit_then_visible_to_new_transactions() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let mut t1 = pn.begin().unwrap();
    let rid = t1.insert(&table, row(1, 0, "hello")).unwrap();
    // Read-your-writes before commit.
    assert_eq!(row_payload(&t1.get(&table, rid).unwrap().unwrap()), b"hello");
    t1.commit().unwrap();

    let mut t2 = pn.begin().unwrap();
    let got = t2.get(&table, rid).unwrap().unwrap();
    assert_eq!(row_pk(&got), 1);
    assert_eq!(row_payload(&got), b"hello");
    t2.commit().unwrap();
}

#[test]
fn snapshot_isolation_hides_concurrent_commits() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let rid = db.bulk_load(&table, vec![row(1, 0, "v1")]).unwrap()[0];

    let mut old_txn = pn.begin().unwrap();
    // A concurrent writer commits an update.
    let mut writer = pn.begin().unwrap();
    writer.update(&table, rid, row(1, 0, "v2")).unwrap();
    writer.commit().unwrap();
    // The old snapshot still reads v1 (repeatable, consistent snapshot).
    assert_eq!(row_payload(&old_txn.get(&table, rid).unwrap().unwrap()), b"v1");
    assert_eq!(row_payload(&old_txn.get(&table, rid).unwrap().unwrap()), b"v1");
    old_txn.commit().unwrap();
    // A fresh transaction sees v2.
    let mut fresh = pn.begin().unwrap();
    assert_eq!(row_payload(&fresh.get(&table, rid).unwrap().unwrap()), b"v2");
    fresh.commit().unwrap();
}

#[test]
fn write_write_conflict_aborts_second_committer() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let rid = db.bulk_load(&table, vec![row(7, 0, "base")]).unwrap()[0];

    let mut t1 = pn.begin().unwrap();
    let mut t2 = pn.begin().unwrap();
    t1.update(&table, rid, row(7, 0, "from-t1")).unwrap();
    t2.update(&table, rid, row(7, 0, "from-t2")).unwrap();
    t1.commit().unwrap();
    // t2 read the record before t1 applied: its LL/SC must fail (§4.1
    // scenario two).
    assert_eq!(t2.commit().unwrap_err(), Error::Conflict);

    let mut check = pn.begin().unwrap();
    assert_eq!(row_payload(&check.get(&table, rid).unwrap().unwrap()), b"from-t1");
    check.commit().unwrap();
    assert_eq!(pn.metrics().conflicts(), 1);
}

#[test]
fn conflict_rollback_leaves_no_dirty_versions() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let rids = db.bulk_load(&table, vec![row(1, 0, "a"), row(2, 0, "b")]).unwrap();

    // t2 updates BOTH records; t1 races it on only one, so t2's first
    // apply may succeed while the other conflicts — rollback must revert
    // the applied one.
    let mut t2 = pn.begin().unwrap();
    t2.update(&table, rids[0], row(1, 0, "t2-a")).unwrap();
    t2.update(&table, rids[1], row(2, 0, "t2-b")).unwrap();
    let mut t1 = pn.begin().unwrap();
    t1.update(&table, rids[1], row(2, 0, "t1-b")).unwrap();
    t1.commit().unwrap();
    assert_eq!(t2.commit().unwrap_err(), Error::Conflict);

    let mut check = pn.begin().unwrap();
    assert_eq!(row_payload(&check.get(&table, rids[0]).unwrap().unwrap()), b"a");
    assert_eq!(row_payload(&check.get(&table, rids[1]).unwrap().unwrap()), b"t1-b");
    check.commit().unwrap();
}

#[test]
fn delete_writes_tombstone() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let rid = db.bulk_load(&table, vec![row(5, 0, "doomed")]).unwrap()[0];

    let mut reader_before = pn.begin().unwrap();
    let mut t = pn.begin().unwrap();
    t.delete(&table, rid).unwrap();
    assert_eq!(t.get(&table, rid).unwrap(), None, "own delete visible");
    t.commit().unwrap();

    // Snapshot from before the delete still sees the row.
    assert!(reader_before.get(&table, rid).unwrap().is_some());
    reader_before.commit().unwrap();
    // New snapshots do not.
    let mut after = pn.begin().unwrap();
    assert_eq!(after.get(&table, rid).unwrap(), None);
    after.commit().unwrap();
}

#[test]
fn update_missing_row_is_not_found() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let mut t = pn.begin().unwrap();
    assert_eq!(t.update(&table, Rid(9999), row(1, 0, "x")).unwrap_err(), Error::NotFound);
    t.abort().unwrap();
}

#[test]
fn operations_on_finished_transaction_fail() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let mut t = pn.begin().unwrap();
    t.insert(&table, row(1, 0, "x")).unwrap();
    t.commit().unwrap();
    assert!(matches!(t.get(&table, Rid(1)), Err(Error::InvalidOperation(_))));
    assert!(matches!(t.commit(), Err(Error::InvalidOperation(_))));
}

#[test]
fn unique_index_rejects_duplicates() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let mut t1 = pn.begin().unwrap();
    t1.insert(&table, row(42, 0, "first")).unwrap();
    // Duplicate inside the same transaction.
    assert!(matches!(t1.insert(&table, row(42, 1, "dup")), Err(Error::InvalidOperation(_))));
    t1.commit().unwrap();
    // Duplicate from a later transaction.
    let mut t2 = pn.begin().unwrap();
    assert!(matches!(t2.insert(&table, row(42, 2, "dup")), Err(Error::InvalidOperation(_))));
    t2.abort().unwrap();
}

#[test]
fn index_lookup_finds_by_pk_and_group() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    db.bulk_load(&table, vec![row(1, 10, "a"), row(2, 10, "b"), row(3, 20, "c")]).unwrap();
    let pk_idx = table.primary_index().id;
    let grp_idx = table.index("by_group").unwrap().id;

    let mut t = pn.begin().unwrap();
    let hit = t.index_lookup(&table, pk_idx, &pk_bytes(2)).unwrap();
    assert_eq!(hit.len(), 1);
    assert_eq!(row_payload(&hit[0].1), b"b");

    let grp = t.index_lookup(&table, grp_idx, &group_bytes(10)).unwrap();
    assert_eq!(grp.len(), 2);
    let grp20 = t.index_lookup(&table, grp_idx, &group_bytes(20)).unwrap();
    assert_eq!(grp20.len(), 1);
    assert!(t.index_lookup(&table, grp_idx, &group_bytes(99)).unwrap().is_empty());
    t.commit().unwrap();
}

#[test]
fn index_sees_own_uncommitted_writes() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let grp_idx = table.index("by_group").unwrap().id;
    let mut t = pn.begin().unwrap();
    let rid = t.insert(&table, row(8, 55, "mine")).unwrap();
    let hits = t.index_lookup(&table, grp_idx, &group_bytes(55)).unwrap();
    assert_eq!(hits, vec![(rid, row(8, 55, "mine"))]);
    t.commit().unwrap();
}

#[test]
fn key_changing_update_respects_snapshots() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let rid = db.bulk_load(&table, vec![row(1, 10, "move-me")]).unwrap()[0];
    let grp_idx = table.index("by_group").unwrap().id;

    let mut old_snapshot = pn.begin().unwrap();
    let mut mover = pn.begin().unwrap();
    mover.update(&table, rid, row(1, 20, "move-me")).unwrap();
    mover.commit().unwrap();

    // Old snapshot: row is still in group 10 (version-unaware index entry
    // verified against the *visible* version).
    let hits = old_snapshot.index_lookup(&table, grp_idx, &group_bytes(10)).unwrap();
    assert_eq!(hits.len(), 1, "old snapshot finds the old key");
    assert!(old_snapshot.index_lookup(&table, grp_idx, &group_bytes(20)).unwrap().is_empty());
    old_snapshot.commit().unwrap();

    // New snapshot: group 20 only. The stale group-10 entry is a false
    // positive that verification filters out.
    let mut fresh = pn.begin().unwrap();
    assert!(fresh.index_lookup(&table, grp_idx, &group_bytes(10)).unwrap().is_empty());
    assert_eq!(fresh.index_lookup(&table, grp_idx, &group_bytes(20)).unwrap().len(), 1);
    fresh.commit().unwrap();
}

#[test]
fn index_range_scan() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    db.bulk_load(&table, (1..=20).map(|i| row(i, 0, "x")).collect()).unwrap();
    let pk_idx = table.primary_index().id;
    let mut t = pn.begin().unwrap();
    let rows = t.index_range(&table, pk_idx, &pk_bytes(5), Some(&pk_bytes(10)), 100).unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(row_pk(&rows.first().unwrap().2), 5);
    assert_eq!(row_pk(&rows.last().unwrap().2), 9);
    // Limit.
    let limited = t.index_range(&table, pk_idx, &pk_bytes(0), None, 3).unwrap();
    assert_eq!(limited.len(), 3);
    t.commit().unwrap();
}

#[test]
fn table_scan_and_pushdown_agree() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    db.bulk_load(&table, (1..=30).map(|i| row(i, (i % 3) as u8, "p")).collect()).unwrap();
    let mut t = pn.begin().unwrap();
    let all = t.scan_table(&table, usize::MAX).unwrap();
    assert_eq!(all.len(), 30);
    let filtered: Vec<_> = all.into_iter().filter(|(_, r)| r[8] == 1).collect();
    assert_eq!(filtered.len(), 10);
    let group_is_1 = tell_store::Predicate::value_eq(8, vec![1u8]);
    let pushed = t.scan_table_pushdown_filtered(&table, usize::MAX, &group_is_1).unwrap();
    assert_eq!(pushed, filtered);
    t.commit().unwrap();
}

#[test]
fn predicate_pushdown_scan_agrees_with_closure_scan() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    db.bulk_load(&table, (1..=30).map(|i| row(i, (i % 3) as u8, "p")).collect()).unwrap();
    // Move one row into group 1 so its record carries two versions and
    // takes the conservative (ship + re-verify on the PN) pushdown path.
    let pk_idx = table.primary_index().id;
    let mut t = pn.begin().unwrap();
    let hit = t.index_lookup(&table, pk_idx, &pk_bytes(3)).unwrap();
    t.update(&table, hit[0].0, row(3, 1, "p")).unwrap();
    t.commit().unwrap();

    let group_is_1 = tell_store::Predicate::value_eq(8, vec![1u8]);
    let mut t = pn.begin().unwrap();
    let all = t.scan_table(&table, usize::MAX).unwrap();
    let via_closure: Vec<_> = all.into_iter().filter(|(_, r)| r[8] == 1).collect();
    let via_predicate = t.scan_table_pushdown_filtered(&table, usize::MAX, &group_is_1).unwrap();
    assert_eq!(via_closure, via_predicate);
    assert_eq!(via_predicate.len(), 11);
    // The transaction's own uncommitted writes merge into the result too.
    let rid = t.insert(&table, row(99, 1, "own")).unwrap();
    let with_own = t.scan_table_pushdown_filtered(&table, usize::MAX, &group_is_1).unwrap();
    assert_eq!(with_own.len(), 12);
    assert!(with_own.iter().any(|(r, _)| *r == rid));
    t.commit().unwrap();
}

#[test]
fn empty_transaction_commits_cheaply() {
    let (db, _) = default_db();
    let pn = db.processing_node();
    let mut t = pn.begin().unwrap();
    t.commit().unwrap();
    assert_eq!(pn.metrics().committed(), 1);
}

#[test]
fn dropped_transaction_counts_as_abort() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    {
        let mut t = pn.begin().unwrap();
        t.insert(&table, row(1, 0, "never")).unwrap();
        // dropped without commit/abort
    }
    assert_eq!(pn.metrics().aborted(), 1);
    let mut check = pn.begin().unwrap();
    let pk_idx = table.primary_index().id;
    assert!(check.index_lookup(&table, pk_idx, &pk_bytes(1)).unwrap().is_empty());
    check.commit().unwrap();
}

#[test]
fn run_retries_conflicts_to_success() {
    let (db, table) = default_db();
    let rid = db.bulk_load(&table, vec![row(1, 0, "0")]).unwrap()[0];
    let threads = 4;
    let per = 25;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let db = Arc::clone(&db);
        let table = Arc::clone(&table);
        handles.push(std::thread::spawn(move || {
            let pn = db.processing_node();
            for _ in 0..per {
                pn.run(1000, |t| {
                    let cur = t.get(&table, rid)?.unwrap();
                    let n: u64 = std::str::from_utf8(row_payload(&cur)).unwrap().parse().unwrap();
                    t.update(&table, rid, row(1, 0, &(n + 1).to_string()))
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let pn = db.processing_node();
    let mut t = pn.begin().unwrap();
    let final_row = t.get(&table, rid).unwrap().unwrap();
    let n: u64 = std::str::from_utf8(row_payload(&final_row)).unwrap().parse().unwrap();
    assert_eq!(n, (threads * per) as u64, "no lost updates under SI");
    t.commit().unwrap();
}

#[test]
fn recovery_rolls_back_partial_commits() {
    let (db, table) = default_db();
    let rid = db.bulk_load(&table, vec![row(1, 0, "stable")]).unwrap()[0];

    // Simulate a PN that crashed mid-commit: log entry written, update
    // applied, but no commit flag and no CM notification.
    let failed_pn_id;
    let dirty_tid;
    {
        let pn = db.processing_node();
        failed_pn_id = pn.id();
        let t = pn.begin().unwrap();
        dirty_tid = t.tid();
        let client = db.admin_client();
        // Write the uncommitted log entry.
        tell_core::txlog::append(
            &client,
            &tell_core::txlog::LogEntry {
                tid: dirty_tid,
                pn: failed_pn_id,
                timestamp_us: 0,
                write_set: vec![(table.id, rid)],
                committed: false,
            },
        )
        .unwrap();
        // Apply the update directly (what commit() would have done).
        let key = tell_store::keys::record(table.id, rid);
        let (token, raw) = client.get(&key).unwrap().unwrap();
        let mut rec = tell_core::VersionedRecord::decode(&raw).unwrap();
        rec.add_version(dirty_tid, Some(row(1, 0, "dirty")));
        client.store_conditional(&key, token, rec.encode()).unwrap();
        std::mem::forget(t); // the PN is gone; nobody aborts this txn
    }

    // Before recovery the dirty version exists but is invisible (not in
    // any snapshot: the tid never committed).
    let pn2 = db.processing_node();
    let mut reader = pn2.begin().unwrap();
    assert_eq!(row_payload(&reader.get(&table, rid).unwrap().unwrap()), b"stable");
    reader.commit().unwrap();

    let report = recover_failed_pn(&db, failed_pn_id).unwrap();
    assert_eq!(report.rolled_back, 1);
    assert_eq!(report.versions_reverted, 1);

    // The dirty version is physically gone.
    let client = db.admin_client();
    let (_, raw) = client.get(&tell_store::keys::record(table.id, rid)).unwrap().unwrap();
    let rec = tell_core::VersionedRecord::decode(&raw).unwrap();
    assert!(!rec.has_version(dirty_tid.raw()));
    // Recovery is idempotent: the resolved transaction is now below the
    // lav (rolling checkpoint), so a second pass has nothing to do.
    let again = recover_failed_pn(&db, failed_pn_id).unwrap();
    assert_eq!(again.rolled_back, 0);
    assert_eq!(again.versions_reverted, 0);
}

#[test]
fn gc_prunes_old_versions_and_dead_records() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let rids = db.bulk_load(&table, vec![row(1, 1, "a"), row(2, 1, "b")]).unwrap();

    // Ten updates to record 0; then delete record 1.
    for i in 0..10 {
        pn.run(10, |t| t.update(&table, rids[0], row(1, 1, &format!("v{i}")))).unwrap();
    }
    pn.run(10, |t| t.delete(&table, rids[1])).unwrap();

    // All transactions finished → lav is high; sweep.
    let report = run_gc(&db).unwrap();
    assert!(report.versions_removed > 0, "old versions pruned: {report:?}");
    assert_eq!(report.records_deleted, 1, "tombstoned record removed");
    assert!(report.log_entries_removed > 0);

    let client = db.admin_client();
    let (_, raw) = client.get(&tell_store::keys::record(table.id, rids[0])).unwrap().unwrap();
    let rec = tell_core::VersionedRecord::decode(&raw).unwrap();
    assert_eq!(rec.version_count(), 1, "only the newest visible version remains");
    assert!(client.get(&tell_store::keys::record(table.id, rids[1])).unwrap().is_none());

    // Data still correct afterwards.
    let mut t = pn.begin().unwrap();
    assert_eq!(row_payload(&t.get(&table, rids[0]).unwrap().unwrap()), b"v9");
    assert_eq!(t.get(&table, rids[1]).unwrap(), None);
    t.commit().unwrap();
}

#[test]
fn gc_removes_dead_index_entries() {
    let (db, table) = default_db();
    let pn = db.processing_node();
    let rid = db.bulk_load(&table, vec![row(1, 10, "x")]).unwrap()[0];
    // Move the row out of group 10.
    pn.run(10, |t| t.update(&table, rid, row(1, 20, "x"))).unwrap();
    let report = run_gc(&db).unwrap();
    assert!(report.index_entries_removed >= 1, "{report:?}");
    // Tree no longer contains the group-10 entry at all.
    let grp_idx = table.index("by_group").unwrap().id;
    let tree =
        tell_index::DistributedBTree::open(db.admin_client(), grp_idx, db.config().btree.clone())
            .unwrap();
    assert!(tree.lookup(&group_bytes(10)).unwrap().is_empty());
    assert_eq!(tree.lookup(&group_bytes(20)).unwrap(), vec![rid.raw()]);
}

#[test]
fn all_buffer_strategies_preserve_correctness() {
    for buffer in [
        BufferConfig::TransactionOnly,
        BufferConfig::Shared { capacity: 64 },
        BufferConfig::SharedVersionSync { capacity: 64, cache_unit: 4 },
    ] {
        let (db, table) = make_db(TellConfig { buffer: buffer.clone(), ..TellConfig::default() });
        let rids = db.bulk_load(&table, (1..=8).map(|i| row(i, 0, "0")).collect()).unwrap();
        let group = db.pn_group();
        let threads = 3;
        let per = 20;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let db = Arc::clone(&db);
            let table = Arc::clone(&table);
            let group = Arc::clone(&group);
            let rids = rids.clone();
            handles.push(std::thread::spawn(move || {
                let pn = db.processing_node_in_group(&group);
                for i in 0..per {
                    let rid = rids[i % rids.len()];
                    pn.run(1000, |t| {
                        let cur = t.get(&table, rid)?.unwrap();
                        let n: u64 =
                            std::str::from_utf8(row_payload(&cur)).unwrap().parse().unwrap();
                        let pk = row_pk(&cur);
                        t.update(&table, rid, row(pk, 0, &(n + 1).to_string()))
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Total increments must equal threads * per across all rows.
        let pn = db.processing_node_in_group(&group);
        let mut t = pn.begin().unwrap();
        let mut total = 0u64;
        for rid in &rids {
            let r = t.get(&table, *rid).unwrap().unwrap();
            total += std::str::from_utf8(row_payload(&r)).unwrap().parse::<u64>().unwrap();
        }
        t.commit().unwrap();
        assert_eq!(total, (threads * per) as u64, "strategy {}", buffer.label());
    }
}

#[test]
fn replication_survives_storage_node_failure_mid_workload() {
    let (db, table) =
        make_db(TellConfig { storage_nodes: 3, replication_factor: 3, ..TellConfig::default() });
    let rids = db.bulk_load(&table, (1..=10).map(|i| row(i, 0, "x")).collect()).unwrap();
    let pn = db.processing_node();
    pn.run(10, |t| t.update(&table, rids[0], row(1, 0, "before"))).unwrap();
    db.store().kill_node(tell_common::SnId(0));
    // Everything still readable and writable.
    pn.run(10, |t| t.update(&table, rids[1], row(2, 0, "after"))).unwrap();
    let mut t = pn.begin().unwrap();
    assert_eq!(row_payload(&t.get(&table, rids[0]).unwrap().unwrap()), b"before");
    assert_eq!(row_payload(&t.get(&table, rids[1]).unwrap().unwrap()), b"after");
    for rid in &rids[2..] {
        assert!(t.get(&table, *rid).unwrap().is_some());
    }
    t.commit().unwrap();
}

#[test]
fn unsampled_conflict_abort_synthesizes_root_span() {
    let (db, table) = default_db();
    tell_obs::set_enabled(true);
    let rid = db.bulk_load(&table, vec![row(99, 0, "base")]).unwrap()[0];

    // A fresh thread, so span sampling is deterministic: the first
    // transaction is always sampled; everything after it (for the next
    // SPAN_SAMPLE_EVERY - 1 begins) is not.
    let worker = {
        let db = Arc::clone(&db);
        let table = Arc::clone(&table);
        std::thread::spawn(move || {
            let pn = db.processing_node();
            // Burn the always-sampled first transaction.
            let mut burn = pn.begin().unwrap();
            burn.update(&table, rid, row(99, 0, "warm")).unwrap();
            burn.commit().unwrap();
            // This one is unsampled: it records no spans while running.
            let mut loser = pn.begin().unwrap();
            let loser_trace = tell_obs::current_trace().unwrap();
            loser.update(&table, rid, row(99, 0, "loser")).unwrap();
            let mut winner = pn.begin().unwrap();
            winner.update(&table, rid, row(99, 0, "winner")).unwrap();
            winner.commit().unwrap();
            assert_eq!(loser.commit().unwrap_err(), Error::Conflict);
            loser_trace
        })
    };
    let loser_trace = worker.join().unwrap();

    // The conflict abort must still be visible: exactly one synthesized
    // root span, nothing else from that trace.
    let spans: Vec<_> = tell_obs::span::global_ring()
        .drain()
        .into_iter()
        .filter(|s| s.trace == loser_trace)
        .collect();
    assert_eq!(spans.len(), 1, "expected only the synthesized root, got {spans:?}");
    let root = &spans[0];
    assert_eq!(root.kind, tell_obs::Site::Txn);
    assert_eq!(root.parent, 0);
    assert_eq!(root.attrs.status, tell_obs::SpanStatus::Conflict);
    assert!(root.end_virt_us >= root.start_virt_us);
    assert!(root.end_wall_us >= root.start_wall_us);
}
