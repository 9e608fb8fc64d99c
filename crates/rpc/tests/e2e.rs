//! End-to-end tests over real loopback TCP: storage nodes and commit
//! managers each behind a tell-rpc server, a `tell_core::Database` opened
//! over the remote clients, and the full snapshot-isolation transaction
//! machinery — LL/SC conflicts included — running across the wire.

use std::sync::Arc;

use bytes::Bytes;
use tell_commitmgr::manager::CmConfig;
use tell_commitmgr::{CmCluster, CommitService};
use tell_common::{Error, SnId};
use tell_core::database::IndexSpec;
use tell_core::recovery::recover_failed_pn;
use tell_core::txlog::{self, LogEntry};
use tell_core::{Database, TellConfig, VersionedRecord};
use tell_netsim::{NetMeter, NetworkProfile};
use tell_rpc::wire::{encode_frame, TraceContext};
use tell_rpc::{
    Connection, FrameDecoder, RemoteCmClient, RemoteEndpoint, Request, Response, RpcServer,
};
use tell_store::{
    keys, Expect, OpHandle, OpResult, StoreApi, StoreCluster, StoreConfig, StoreEndpoint, StoreOp,
    WriteOp,
};

/// Everything server-side: the simulated storage hardware plus the two
/// rpc servers fronting it. Held by tests so they can reach in and fail
/// nodes; dropping it tears the servers down.
struct Servers {
    store: Arc<StoreCluster>,
    sn: RpcServer,
    _cm: RpcServer,
    /// The storage server the commit managers reach the store through,
    /// when it is not `sn` (see [`boot_with`]).
    cm_sn: Option<RpcServer>,
}

/// Boot a storage server and a commit server on loopback, then open a
/// database over remote clients only. The commit managers themselves talk
/// to the storage nodes across TCP, as in the paper's deployment.
fn boot(nodes: usize, cms: usize) -> (Servers, Arc<Database<RemoteEndpoint>>) {
    boot_with(nodes, cms, false)
}

/// [`boot`]; with `own_cm_sn`, the commit managers reach the same storage
/// nodes through a second storage server of their own, so a test can
/// count the frames they send.
fn boot_with(
    nodes: usize,
    cms: usize,
    own_cm_sn: bool,
) -> (Servers, Arc<Database<RemoteEndpoint>>) {
    let store = StoreCluster::new(StoreConfig::new(nodes));
    let sn = RpcServer::serve_store("127.0.0.1:0", Arc::clone(&store)).unwrap();
    let sn_addr = sn.local_addr().to_string();
    let cm_sn =
        own_cm_sn.then(|| RpcServer::serve_store("127.0.0.1:0", Arc::clone(&store)).unwrap());
    let cm_sn_addr = cm_sn.as_ref().map_or(sn_addr.clone(), |s| s.local_addr().to_string());

    let cm_cluster =
        CmCluster::new(RemoteEndpoint::connect(cm_sn_addr, 2), cms, CmConfig::default());
    let cm = RpcServer::serve_commit("127.0.0.1:0", cm_cluster as Arc<dyn CommitService>).unwrap();
    let cm_addr = cm.local_addr().to_string();

    let endpoint = RemoteEndpoint::connect(sn_addr, 4);
    let commit: Arc<dyn CommitService> = Arc::new(RemoteCmClient::connect([cm_addr]));
    let db = Database::open(endpoint, commit, TellConfig::default());
    (Servers { store, sn, _cm: cm, cm_sn }, db)
}

/// Taken by the tests that drain the process-wide span ring, arm the
/// process-wide slow-op budget, or assert which spans the ring holds.
static SPAN_RING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn span_ring_lock() -> std::sync::MutexGuard<'static, ()> {
    SPAN_RING.lock().unwrap_or_else(|e| e.into_inner())
}

fn account(balance: u64, id: u64) -> Bytes {
    let mut b = balance.to_be_bytes().to_vec();
    b.extend_from_slice(&id.to_be_bytes());
    Bytes::from(b)
}

fn balance_of(row: &[u8]) -> u64 {
    u64::from_be_bytes(row[..8].try_into().unwrap())
}

fn pk_spec() -> IndexSpec {
    IndexSpec::new("pk", true, |row: &[u8]| row.get(8..16).map(Bytes::copy_from_slice))
}

#[test]
fn remote_si_workload_transfers_conserve_total() {
    let (_servers, db) = boot(3, 2);
    let table = db.create_table("accounts", vec![pk_spec()]).unwrap();
    let rids = db.bulk_load(&table, (0..4u64).map(|i| account(100, i)).collect()).unwrap();

    // Two worker threads move money between accounts concurrently; every
    // read, write, conflict retry and commit notification crosses TCP.
    let handles: Vec<_> = (0..2)
        .map(|worker| {
            let db = Arc::clone(&db);
            let table = Arc::clone(&table);
            let rids = rids.clone();
            std::thread::spawn(move || {
                let pn = db.processing_node();
                for i in 0..20usize {
                    let from = rids[(worker + i) % 4];
                    let to = rids[(worker + i + 1) % 4];
                    pn.run(10_000, |txn| {
                        let from_row = txn.get(&table, from)?.unwrap();
                        let to_row = txn.get(&table, to)?.unwrap();
                        let amount = 1 + (i as u64 % 5);
                        let from_bal = balance_of(&from_row);
                        if from_bal < amount {
                            return Ok(());
                        }
                        let from_id = u64::from_be_bytes(from_row[8..16].try_into().unwrap());
                        let to_id = u64::from_be_bytes(to_row[8..16].try_into().unwrap());
                        txn.update(&table, from, account(from_bal - amount, from_id))?;
                        txn.update(&table, to, account(balance_of(&to_row) + amount, to_id))?;
                        Ok(())
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let pn = db.processing_node();
    let mut txn = pn.begin().unwrap();
    let total: u64 =
        rids.iter().map(|rid| balance_of(&txn.get(&table, *rid).unwrap().unwrap())).sum();
    txn.commit().unwrap();
    assert_eq!(total, 400, "transfers conserve the total balance");

    // The meter recorded real traffic, not simulated time.
    assert!(db.traffic().request_count() > 0);
    assert!(db.traffic().total_bytes() > 0);
}

#[test]
fn remote_conflict_aborts_second_writer_via_ll_sc() {
    let (_servers, db) = boot(3, 1);
    let table = db.create_table("items", vec![pk_spec()]).unwrap();
    let rid = db.bulk_load(&table, vec![account(7, 0)]).unwrap()[0];

    let pn1 = db.processing_node();
    let pn2 = db.processing_node();
    let mut t1 = pn1.begin().unwrap();
    let mut t2 = pn2.begin().unwrap();

    // Both read (load-link) the same record under their snapshots.
    assert_eq!(balance_of(&t1.get(&table, rid).unwrap().unwrap()), 7);
    assert_eq!(balance_of(&t2.get(&table, rid).unwrap().unwrap()), 7);
    t1.update(&table, rid, account(8, 0)).unwrap();
    t2.update(&table, rid, account(9, 0)).unwrap();

    // First committer wins; the second store-conditional fails on the
    // storage node and comes back across the wire as `Conflict`.
    t1.commit().unwrap();
    let err = t2.commit().unwrap_err();
    assert_eq!(err, Error::Conflict);
    assert!(err.is_retryable());

    let pn3 = db.processing_node();
    let mut reader = pn3.begin().unwrap();
    assert_eq!(balance_of(&reader.get(&table, rid).unwrap().unwrap()), 8);
    reader.commit().unwrap();
}

#[test]
fn only_commit_managers_with_peers_call_storage() {
    // One manager has no reader for its state and keeps it in memory; two
    // publish each completion and pull each other's on a cadence.
    for (cms, gossips) in [(1, false), (2, true)] {
        let (servers, db) = boot_with(2, cms, true);
        let cm_sn = servers.cm_sn.as_ref().unwrap();
        let table = db.create_table("acct", vec![pk_spec()]).unwrap();
        let rids = db.bulk_load(&table, (0..8).map(|i| account(100, i)).collect()).unwrap();
        let before = cm_sn.frames_served();

        let pn = db.processing_node();
        for i in 0..97 {
            let (rid, id) = (rids[i % rids.len()], (i % rids.len()) as u64);
            pn.run(10, |txn| {
                let row = txn.get(&table, rid)?.unwrap();
                txn.update(&table, rid, account(balance_of(&row) + 1, id))
            })
            .unwrap();
        }
        // One conflict abort: two writers of one row, the second loses.
        let (mut t1, mut t2) = (pn.begin().unwrap(), pn.begin().unwrap());
        for (txn, balance) in [(&mut t1, 1), (&mut t2, 2)] {
            assert!(txn.get(&table, rids[0]).unwrap().is_some());
            txn.update(&table, rids[0], account(balance, 0)).unwrap();
        }
        t1.commit().unwrap();
        assert_eq!(t2.commit().unwrap_err(), Error::Conflict);
        // One read-only transaction.
        let mut reader = pn.begin().unwrap();
        assert_eq!(balance_of(&reader.get(&table, rids[0]).unwrap().unwrap()), 1);
        reader.commit().unwrap();

        let sent = cm_sn.frames_served() - before;
        if gossips {
            assert!(sent > 0, "{cms} managers never published or pulled");
        } else {
            assert_eq!(sent, 0, "a lone commit manager sent {sent} frames to storage");
        }
    }
}

#[test]
fn remote_index_scan_and_insert_in_transaction() {
    let (_servers, db) = boot(2, 1);
    let table = db.create_table("events", vec![pk_spec()]).unwrap();
    db.bulk_load(&table, (0..3u64).map(|i| account(i * 10, i)).collect()).unwrap();

    let pn = db.processing_node();
    pn.run(100, |txn| {
        txn.insert(&table, account(99, 1000))?;
        Ok(())
    })
    .unwrap();

    let mut txn = pn.begin().unwrap();
    let rows = txn.scan_table(&table, usize::MAX).unwrap();
    assert_eq!(rows.len(), 4);
    let hits = txn
        .index_lookup(
            &table,
            table.primary_index().id,
            &Bytes::copy_from_slice(&1000u64.to_be_bytes()),
        )
        .unwrap();
    assert_eq!(hits.len(), 1);
    txn.commit().unwrap();
}

#[test]
fn warm_indexed_reads_cost_one_frame() {
    let (servers, db) = boot(2, 1);
    let table = db.create_table("accounts", vec![pk_spec()]).unwrap();
    db.bulk_load(&table, (0..256u64).map(|i| account(i, i)).collect()).unwrap();
    let pk = table.primary_index().id;
    let key = |i: u64| Bytes::copy_from_slice(&i.to_be_bytes());

    // Warm this worker's node cache with every leaf of the index.
    let pn = db.processing_node();
    let mut txn = pn.begin().unwrap();
    assert_eq!(txn.index_range(&table, pk, &key(0), None, 256).unwrap().len(), 256);
    txn.commit().unwrap();

    // The leaf read and the record read it predicts share one frame.
    let mut txn = pn.begin().unwrap();
    let before = servers.sn.frames_served();
    let hits = txn.index_lookup(&table, pk, &key(77)).unwrap();
    assert_eq!(servers.sn.frames_served() - before, 1, "a warm lookup is one frame");
    assert_eq!(hits.len(), 1);
    assert_eq!(balance_of(&hits[0].1), 77);

    // A 64-key range: its chain of leaf reads and one record read.
    let before = servers.sn.frames_served();
    let rows = txn.index_range(&table, pk, &key(100), Some(&key(164)), 64).unwrap();
    assert_eq!(servers.sn.frames_served() - before, 1, "a warm 64-key range is one frame");
    assert_eq!(rows.len(), 64);
    assert!(rows.iter().enumerate().all(|(i, (_, _, row))| balance_of(row) == 100 + i as u64));
    txn.commit().unwrap();

    // Another worker replaces the row under key 77 with a new record, so
    // the leaf this worker cached no longer names the right rid.
    let other = db.processing_node();
    other
        .run(100, |txn| {
            let (rid, _) = txn.index_lookup(&table, pk, &key(77))?[0].clone();
            txn.delete(&table, rid)
        })
        .unwrap();
    other.run(100, |txn| txn.insert(&table, account(7777, 77)).map(|_| ())).unwrap();

    let mut txn = pn.begin().unwrap();
    let before = servers.sn.frames_served();
    let hits = txn.index_lookup(&table, pk, &key(77)).unwrap();
    assert!(servers.sn.frames_served() - before <= 2, "a mis-speculated lookup is at most two");
    assert_eq!(hits.len(), 1);
    assert_eq!(balance_of(&hits[0].1), 7777, "the new row, not the cached prediction");
    txn.commit().unwrap();
}

#[test]
fn a_commits_index_inserts_are_one_frame() {
    let (servers, db) = boot(2, 1);
    let by_balance =
        IndexSpec::new("balance", true, |row: &[u8]| row.get(..8).map(Bytes::copy_from_slice));
    let table = db.create_table("accounts", vec![pk_spec(), by_balance]).unwrap();
    let key = |i: u64| Bytes::copy_from_slice(&i.to_be_bytes());

    // Twenty rows, each with two unique keys: 40 new index entries, and no
    // leaf overflows (a leaf holds 64). The uniqueness checks read both
    // leaves, and those reads are the load-links of the leaf writes.
    let pn = db.processing_node();
    let mut txn = pn.begin().unwrap();
    for i in 0..20u64 {
        txn.insert(&table, account(1000 + i, i)).unwrap();
    }
    let before = servers.sn.frames_served();
    txn.commit().unwrap();
    assert_eq!(
        servers.sn.frames_served() - before,
        4,
        "log append, record install, one frame for every leaf of both indexes, commit flag"
    );

    let mut txn = pn.begin().unwrap();
    for i in 0..20u64 {
        let by_pk = txn.index_lookup(&table, table.primary_index().id, &key(i)).unwrap();
        let by_bal = txn.index_lookup(&table, table.indexes[1].id, &key(1000 + i)).unwrap();
        assert_eq!(by_pk.len(), 1, "pk {i}");
        assert_eq!(by_pk, by_bal, "row {i} under both keys");
    }
    txn.commit().unwrap();
}

#[test]
fn killed_storage_node_surfaces_typed_errors_not_hangs() {
    let (servers, db) = boot(1, 1);
    let table = db.create_table("t", vec![pk_spec()]).unwrap();
    let rid = db.bulk_load(&table, vec![account(1, 0)]).unwrap()[0];

    let pn = db.processing_node();
    let mut txn = pn.begin().unwrap();
    assert!(txn.get(&table, rid).unwrap().is_some());
    txn.update(&table, rid, account(2, 0)).unwrap();

    // The storage node dies mid-transaction. The TCP server stays up —
    // it answers with the storage layer's error, typed, over the wire.
    servers.store.kill_node(SnId(0));
    let err = txn.commit().unwrap_err();
    assert!(matches!(err, Error::Unavailable(_)), "got {err:?}");

    // A raw remote client op also fails fast and typed.
    let client = db.endpoint().client(NetMeter::free());
    let err = client.get(&keys::record(table.id, rid)).unwrap_err();
    assert!(matches!(err, Error::Unavailable(_)), "got {err:?}");

    // Starting a transaction still works: interleaved tid allocation is
    // manager-local (no storage round trip), so the commit server keeps
    // issuing tids while the storage node is down. The transaction then
    // fails fast with a typed error at its first storage access.
    let pn_dark = db.processing_node();
    let mut txn = pn_dark.begin().unwrap();
    match txn.get(&table, rid) {
        Err(Error::Unavailable(_)) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
    drop(txn);

    // After revival everything heals without reconnecting anything.
    servers.store.revive_node(SnId(0));
    let pn2 = db.processing_node();
    let mut txn = pn2.begin().unwrap();
    assert_eq!(balance_of(&txn.get(&table, rid).unwrap().unwrap()), 1);
    txn.commit().unwrap();
}

#[test]
fn pn_recovery_rolls_back_partial_write_set_over_the_wire() {
    let (servers, db) = boot(2, 1);
    let table = db.create_table("t", vec![pk_spec()]).unwrap();
    let rid = db.bulk_load(&table, vec![account(5, 0)]).unwrap()[0];

    // A PN starts a transaction and crashes mid-commit: the uncommitted
    // log entry and the dirty version are in the store (written through
    // the remote client), but no commit flag and no CM notification.
    let pn = db.processing_node();
    let failed_pn = pn.id();
    let txn = pn.begin().unwrap();
    let dirty_tid = txn.tid();
    let client = db.admin_client();
    txlog::append(
        &client,
        &LogEntry {
            tid: dirty_tid,
            pn: failed_pn,
            timestamp_us: 0,
            write_set: vec![(table.id, rid)],
            committed: false,
        },
    )
    .unwrap();
    let key = keys::record(table.id, rid);
    let (token, raw) = client.get(&key).unwrap().unwrap();
    let mut rec = VersionedRecord::decode(&raw).unwrap();
    rec.add_version(dirty_tid, Some(account(666, 0)));
    client.store_conditional(&key, token, rec.encode()).unwrap();
    std::mem::forget(txn); // the PN is gone; nobody aborts this txn

    // A storage node also bounces before anyone notices — the typed
    // error/heal cycle must not confuse recovery afterwards.
    servers.store.kill_node(SnId(1));
    servers.store.revive_node(SnId(1));

    // Other transactions never see the dirty version.
    let pn2 = db.processing_node();
    let mut reader = pn2.begin().unwrap();
    assert_eq!(balance_of(&reader.get(&table, rid).unwrap().unwrap()), 5);
    reader.commit().unwrap();

    // §4.4.1: scan the log backwards, roll the incomplete transaction
    // back, resolve it with the (remote) commit managers.
    let report = recover_failed_pn(&db, failed_pn).unwrap();
    assert_eq!(report.rolled_back, 1);
    assert_eq!(report.versions_reverted, 1);

    let (_, raw) = client.get(&key).unwrap().unwrap();
    let rec = VersionedRecord::decode(&raw).unwrap();
    assert!(!rec.has_version(dirty_tid.raw()));

    // The tid is resolved: new snapshots advance past it.
    let pn3 = db.processing_node();
    let mut txn = pn3.begin().unwrap();
    assert_eq!(balance_of(&txn.get(&table, rid).unwrap().unwrap()), 5);
    txn.update(&table, rid, account(6, 0)).unwrap();
    txn.commit().unwrap();
}

#[test]
fn concurrent_async_gets_batch_into_one_frame_and_survive_node_failure() {
    let (servers, db) = boot(1, 1);
    let table = db.create_table("t", vec![pk_spec()]).unwrap();
    let rids = db.bulk_load(&table, (0..8u64).map(|i| account(i * 11, i)).collect()).unwrap();
    let record_keys: Vec<_> = rids.iter().map(|rid| keys::record(table.id, *rid)).collect();
    let stored_balance = |raw: &[u8]| {
        let rec = VersionedRecord::decode(raw).unwrap();
        balance_of(rec.versions()[0].payload.as_ref().unwrap())
    };

    // Eight operations in flight on one client, resolved out of submission
    // order: the whole window crosses the wire as a single batch frame.
    let client = db.endpoint().client(NetMeter::free());
    let submit_gets = || -> Vec<OpHandle> {
        record_keys.iter().map(|k| client.submit(StoreOp::Get { key: k.clone() })).collect()
    };
    let before = servers.sn.frames_served();
    let mut handles = submit_gets();
    handles.reverse();
    for (i, handle) in handles.into_iter().enumerate() {
        let cell = handle.wait().and_then(OpResult::into_cell).unwrap();
        let (_, raw) = cell.expect("loaded record exists");
        assert_eq!(stored_balance(&raw), (7 - i as u64) * 11);
    }
    assert_eq!(servers.sn.frames_served() - before, 1, "eight async gets, one frame");

    // The storage node dies with a full window outstanding. The TCP server
    // stays up, so every handle resolves to the storage layer's typed
    // error — carried per-op inside the batch response, never a hang.
    let handles = submit_gets();
    servers.store.kill_node(SnId(0));
    for handle in handles {
        match handle.wait() {
            Err(Error::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    // After revival the same client's next window works unchanged.
    servers.store.revive_node(SnId(0));
    for (i, handle) in submit_gets().into_iter().enumerate() {
        let cell = handle.wait().and_then(OpResult::into_cell).unwrap();
        let (_, raw) = cell.expect("record survived the bounce");
        assert_eq!(stored_balance(&raw), i as u64 * 11);
    }
}

#[test]
fn batch_straddling_a_dead_node_half_applies_with_per_op_errors_not_a_hang() {
    // Two nodes, rf 1: each owns half the partitions, so killing one leaves
    // a batch window straddling live and dead key ranges.
    let (servers, _db) = boot(2, 1);
    let conn = Connection::connect(&servers.sn.local_addr().to_string()).unwrap();
    let scratch: Vec<Bytes> =
        (0..16u64).map(|i| Bytes::from(format!("e2e/straddle/{i}"))).collect();
    let put = |i: usize, round: u64| Request::Write {
        op: WriteOp::put(
            scratch[i].clone(),
            Expect::Any,
            Bytes::from(round.to_be_bytes().to_vec()),
        ),
    };

    // Round 0, both nodes alive: seed every scratch key in one frame.
    let ops: Vec<Request> = (0..scratch.len()).map(|i| put(i, 0)).collect();
    let (resp, _, _) = conn.call(&Request::Batch { ops }).unwrap();
    let Response::Batch { results } = resp else { panic!("expected Batch, got {resp:?}") };
    assert!(results.iter().all(|r| matches!(r, Response::Written(Some(_)))));

    // Round 1, node 1 dead: one frame pairing a get and a put per key. The
    // batch is a framing unit, not an atomic one — ops on live partitions
    // apply, ops on dead ones come back as nested typed errors in their
    // slots, and the call returns promptly either way.
    servers.store.kill_node(SnId(1));
    let ops: Vec<Request> = (0..scratch.len())
        .flat_map(|i| [Request::Get { key: scratch[i].clone() }, put(i, 1)])
        .collect();
    let (resp, _, _) = conn.call(&Request::Batch { ops }).unwrap();
    let Response::Batch { results } = resp else { panic!("expected Batch, got {resp:?}") };
    assert_eq!(results.len(), scratch.len() * 2);
    let mut live = 0;
    let mut dead = 0;
    for pair in results.chunks(2) {
        match (&pair[0], &pair[1]) {
            (Response::Cell(Some(_)), Response::Written(Some(_))) => live += 1,
            (Response::Error(Error::Unavailable(_)), Response::Error(Error::Unavailable(_))) => {
                dead += 1
            }
            other => panic!("a key's get/put pair must fail or succeed together: {other:?}"),
        }
    }
    assert!(live > 0, "some keys stay on the surviving node");
    assert!(dead > 0, "some keys were on the killed node");

    // After revival the same connection reads every key: the window really
    // was half-applied — keys on the survivor carry the round-1 value, keys
    // on the revived node still carry round 0, and nothing is torn or lost.
    servers.store.revive_node(SnId(1));
    let ops: Vec<Request> = scratch.iter().map(|k| Request::Get { key: k.clone() }).collect();
    let (resp, _, _) = conn.call(&Request::Batch { ops }).unwrap();
    let Response::Batch { results } = resp else { panic!("expected Batch, got {resp:?}") };
    let mut round1 = 0;
    let mut round0 = 0;
    for r in &results {
        let Response::Cell(Some((_, value))) = r else { panic!("expected a cell, got {r:?}") };
        match u64::from_be_bytes(value[..8].try_into().unwrap()) {
            1 => round1 += 1,
            0 => round0 += 1,
            v => panic!("unexpected round marker {v}"),
        }
    }
    assert_eq!(round1, live, "every acknowledged round-1 write survived");
    assert_eq!(round0, dead, "every errored write left round 0 intact");
}

#[test]
fn pipelined_counter_increments_share_one_connection() {
    let (_servers, db) = boot(1, 1);
    // Pool of one: every thread's requests interleave on a single TCP
    // stream and are demultiplexed by correlation id.
    let endpoint = RemoteEndpoint::connect(db.endpoint().addr(), 1);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let client = endpoint.client(NetMeter::free());
                for _ in 0..25 {
                    client.increment(&keys::counter("e2e/pipeline"), 1).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let client = endpoint.unmetered_client();
    assert_eq!(client.increment(&keys::counter("e2e/pipeline"), 0), Ok(100));
}

#[test]
fn pooled_connections_heal_after_server_restart_on_same_address() {
    let store = StoreCluster::new(StoreConfig::new(1));
    let mut server = RpcServer::serve_store("127.0.0.1:0", Arc::clone(&store)).unwrap();
    let addr = server.local_addr();
    let endpoint = RemoteEndpoint::connect(addr.to_string(), 2);
    let client = endpoint.unmetered_client();
    let key = Bytes::from_static(b"e2e/heal");
    client.put(&key, Bytes::from_static(b"v")).unwrap();
    let get_all = |round: &str| {
        for i in 0..4 {
            let got = client.get(&key).unwrap_or_else(|e| panic!("{round} get {i}: {e:?}"));
            assert_eq!(got.map(|(_, v)| v), Some(Bytes::from_static(b"v")));
        }
    };
    get_all("before restart");

    // The server goes away while both pooled connections sit idle, and a
    // new one comes up on the same address. Nothing is in flight, so only
    // the pool's checkout can notice that the old streams are closed.
    server.shutdown();
    let _server = RpcServer::serve_store(addr, Arc::clone(&store)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    get_all("after restart");
}

// ---------------------------------------------------------------------------
// Observability over the wire.

#[test]
fn server_echoes_the_frame_trace_context_over_tcp() {
    use std::io::{Read, Write};

    let (servers, _db) = boot(1, 1);
    let mut stream = std::net::TcpStream::connect(servers.sn.local_addr()).unwrap();
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 256];
    // A traced request gets its context back on the response header; an
    // untraced one gets none.
    let traced = TraceContext { trace: 0x5EED_CAFE, parent_span: 0x77 };
    for (corr_id, ctx) in [(1, Some(traced)), (2, None)] {
        stream.write_all(&encode_frame(corr_id, ctx, &Request::Ping.encode()).unwrap()).unwrap();
        let (got_corr, got_ctx, body) = loop {
            if let Some(frame) = decoder.next_frame().unwrap() {
                break frame;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed the connection");
            decoder.push(&chunk[..n]);
        };
        assert_eq!((got_corr, got_ctx), (corr_id, ctx));
        assert_eq!(Response::decode(&body).unwrap(), Response::Pong);
    }
}

#[test]
fn metrics_scrape_over_tcp_returns_parseable_snapshot() {
    let (servers, db) = boot(2, 1);
    let table = db.create_table("m", vec![pk_spec()]).unwrap();
    let rid = db.bulk_load(&table, vec![account(1, 0)]).unwrap()[0];

    // Run real transactions first so the scrape has something to show.
    let pn = db.processing_node();
    for _ in 0..4 {
        pn.run(100, |txn| {
            let row = txn.get(&table, rid)?.unwrap();
            txn.update(&table, rid, account(balance_of(&row) + 1, 0))?;
            Ok(())
        })
        .unwrap();
    }

    let conn = Connection::connect(&servers.sn.local_addr().to_string()).unwrap();
    let (resp, _, _) = conn.call(&Request::Metrics).unwrap();
    let Response::Metrics(snap) = resp else { panic!("expected Metrics, got {resp:?}") };

    // Servers and clients share this process, so the snapshot covers both
    // sides: transactions begun, frames served, and the scrape itself
    // (request accounting runs before dispatch takes the snapshot).
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
            .1
    };
    assert!(counter("txn_begun_total") > 0);
    assert!(counter("rpc_server_frames_in_total") > 0);
    assert!(counter("rpc_client_frames_out_total") > 0);
    assert!(counter("rpc_req_metrics_total") >= 1);

    // Phase timers are sampled but the first transaction on a thread is
    // always in the sample, so the per-phase histograms have data.
    let total = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "txn_total_us")
        .expect("txn_total_us histogram missing");
    assert!(total.1.count > 0);

    // And the same snapshot renders as Prometheus text exposition. A
    // histogram with samples carries bucket data, so it renders as a
    // native cumulative histogram rather than a quantile summary.
    let text = snap.to_prometheus_text();
    assert!(text.contains("# TYPE tell_txn_begun_total counter"));
    assert!(text.contains("# TYPE tell_txn_total_us histogram"));
    assert!(text.contains("tell_txn_total_us_bucket{le=\"+Inf\"}"));
}

#[test]
fn assembled_trace_parents_pn_sn_and_cm_spans_correctly() {
    use std::collections::HashMap;
    use tell_obs::{Site, Span};

    let _ring = span_ring_lock();
    let (servers, db) = boot(2, 1);
    let table = db.create_table("spans", vec![pk_spec()]).unwrap();
    let rid = db.bulk_load(&table, vec![account(1, 0)]).unwrap()[0];

    // Run one update transaction on a fresh thread: the first transaction
    // on a thread is always in the phase sample, so tail-based retention
    // keeps its trace deterministically.
    let trace = std::thread::spawn({
        let db = Arc::clone(&db);
        let table = Arc::clone(&table);
        move || {
            let pn = db.processing_node();
            let mut txn = pn.begin().unwrap();
            let trace = tell_obs::current_trace().expect("begin mints a trace id");
            let row = txn.get(&table, rid).unwrap().unwrap();
            txn.update(&table, rid, account(balance_of(&row) + 1, 0)).unwrap();
            txn.commit().unwrap();
            trace
        }
    })
    .join()
    .unwrap();

    // Drain the span ring over the wire, exactly as an external collector
    // would. Servers and the PN share this test process, so one scrape
    // returns every process role's spans; other tests' traces are filtered
    // out by id. (This is the only test in this binary that drains.)
    let conn = Connection::connect(&servers.sn.local_addr().to_string()).unwrap();
    let (resp, _, _) = conn.call(&Request::Spans { drain: true }).unwrap();
    let Response::Spans(all) = resp else { panic!("expected Spans, got {resp:?}") };
    let spans: Vec<Span> = all.into_iter().filter(|s| s.trace == trace).collect();
    assert!(spans.len() >= 5, "expected a multi-span trace, got {spans:#?}");

    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let kinds_up = |from: &Span| {
        let mut chain = Vec::new();
        let mut cur = from.parent;
        while cur != 0 {
            let s = by_id.get(&cur).unwrap_or_else(|| {
                panic!("span {:016x} has dangling parent {:016x}", from.id, cur)
            });
            chain.push(s.kind);
            cur = s.parent;
        }
        chain
    };

    // The PN side: a root transaction span with every phase nested in it.
    let root = spans.iter().find(|s| s.kind == Site::Txn).expect("root txn span");
    assert_eq!(root.parent, 0, "the root span has no parent");
    for kind in
        [Site::TxnBegin, Site::TxnRead, Site::TxnValidate, Site::TxnInstall, Site::TxnCmComplete]
    {
        let phase = spans
            .iter()
            .find(|s| s.kind == kind)
            .unwrap_or_else(|| panic!("missing {} span", kind.name()));
        assert_eq!(phase.parent, root.id, "{} parents onto the root", kind.name());
    }

    // The SN side: the storage node's apply work, reached through the
    // install phase's RPC (install → [batch flush →] client call →
    // dispatch → store write). Single writes record a store.write span
    // too (validation's log write), so pick the install's.
    let chains: Vec<Vec<Site>> =
        spans.iter().filter(|s| s.kind == Site::StoreWrite).map(kinds_up).collect();
    let chain = chains
        .iter()
        .find(|c| c.contains(&Site::TxnInstall))
        .unwrap_or_else(|| panic!("no store.write caused by the install phase: {chains:?}"));
    assert_eq!(chain[0], Site::RpcDispatch, "store write runs under dispatch: {chain:?}");
    assert!(chain.contains(&Site::RpcClientCall), "reached via an rpc: {chain:?}");
    assert_eq!(*chain.last().unwrap(), Site::Txn, "chain tops out at the root: {chain:?}");

    // The CM side: outcome application, reached through the cm-complete
    // phase's RPC.
    let ca = spans.iter().find(|s| s.kind == Site::CmApply).expect("cm.apply span");
    let chain = kinds_up(ca);
    assert_eq!(chain[0], Site::RpcDispatch, "cm apply runs under dispatch: {chain:?}");
    assert!(chain.contains(&Site::RpcClientCall), "reached via an rpc: {chain:?}");
    assert!(chain.contains(&Site::TxnCmComplete), "caused by cm-complete: {chain:?}");

    // The assembled trace renders as well-formed Chrome trace-event JSON.
    let sourced: Vec<tell_obs::export::SourcedSpan> = spans
        .iter()
        .map(|s| tell_obs::export::SourcedSpan { node: "test".to_string(), span: s.clone() })
        .collect();
    assert_eq!(tell_obs::export::orphan_parents(&sourced), 0);
    let json = tell_obs::export::chrome_trace_json(&sourced);
    tell_obs::export::validate_json(&json).expect("emitted JSON is well-formed");
    assert!(json.contains("\"name\":\"store.write\""));
    assert!(json.contains("\"name\":\"cm.apply\""));
}

#[test]
fn netsim_latency_spike_emits_slow_op_with_originating_trace() {
    use tell_obs::{span, Site};

    // A local simulated deployment on the WAN profile: every exchange costs
    // milliseconds of virtual time, far past the budget set below.
    let db = Database::create(TellConfig { profile: NetworkProfile::wan(), ..Default::default() });
    let table = db.create_table("t", vec![pk_spec()]).unwrap();
    let rid = db.bulk_load(&table, vec![account(1, 0)]).unwrap()[0];

    const BUDGET_US: f64 = 50.0;
    let _ring = span_ring_lock();
    span::set_slow_budget_us(Some(BUDGET_US));
    let pn = db.processing_node();
    let mut txn = pn.begin().unwrap();
    let trace = tell_obs::current_trace().expect("begin mints a trace id");
    assert!(txn.get(&table, rid).unwrap().is_some());
    txn.update(&table, rid, account(2, 0)).unwrap();
    txn.commit().unwrap();
    span::set_slow_budget_us(None);

    // The spike left this transaction's whole trace in the ring: a root
    // `txn` span over budget and its phase children. (Other tests in this
    // process share the ring; only ours carries our trace.)
    let spans: Vec<_> =
        span::global_ring().peek().into_iter().filter(|s| s.trace == trace).collect();
    let root = spans
        .iter()
        .find(|s| s.kind == Site::Txn && s.parent == 0)
        .unwrap_or_else(|| panic!("no root txn span for the slow trace: {spans:#?}"));
    assert!(root.virt_dur_us() > BUDGET_US, "root ran over budget: {root:?}");
    for phase in [Site::TxnBegin, Site::TxnRead, Site::TxnInstall, Site::TxnCmComplete] {
        assert!(
            spans.iter().any(|s| s.kind == phase && s.parent == root.id),
            "missing {} child of the root: {spans:#?}",
            phase.name()
        );
    }
}

#[test]
fn unsampled_transactions_leave_no_span_on_any_node() {
    use tell_obs::Site;

    let _ring = span_ring_lock();
    let (_servers, db) = boot(2, 1);
    let table = db.create_table("sampling", vec![pk_spec()]).unwrap();
    let rids = db.bulk_load(&table, (0..11).map(|i| account(1, i)).collect()).unwrap();

    // A fresh thread: its first transaction is tick-sampled, the next ten
    // are not, and with no slow-op budget armed they record nothing. Each
    // updates its own row, so none aborts on a conflict.
    let traces = std::thread::spawn({
        let db = Arc::clone(&db);
        let table = Arc::clone(&table);
        move || {
            let pn = db.processing_node();
            let mut traces = Vec::new();
            for (i, rid) in rids.into_iter().enumerate() {
                let mut txn = pn.begin().unwrap();
                traces.push(tell_obs::current_trace().expect("begin pins a trace id"));
                assert!(txn.get(&table, rid).unwrap().is_some());
                txn.update(&table, rid, account(2, i as u64)).unwrap();
                txn.commit().unwrap();
            }
            traces
        }
    })
    .join()
    .unwrap();

    let spans = tell_obs::span::global_ring().peek();
    let kinds = |trace: u64| -> Vec<Site> {
        spans.iter().filter(|s| s.trace == trace).map(|s| s.kind).collect()
    };
    let sampled = kinds(traces[0]);
    // PN root, SN write and CM outcome, each reached over the wire.
    for kind in [Site::Txn, Site::RpcClientCall, Site::StoreWrite, Site::CmApply] {
        assert!(sampled.contains(&kind), "sampled trace lacks {}: {sampled:?}", kind.name());
    }
    for &trace in &traces[1..] {
        assert_eq!(kinds(trace), [], "an unsampled trace left spans in the ring");
    }
}
