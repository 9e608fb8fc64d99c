//! Per-transaction isolation levels over real loopback TCP: the level
//! rides the `CmStart` request as its `level` field, the commit
//! servers serve level-appropriate snapshots, and two clients running at
//! different levels observe exactly the anomalies their levels admit —
//! write skew commits cleanly at SI and dies with a *typed* conflict at
//! serializable; NMSI reads a stale cached snapshot while a concurrent SI
//! client sees the freshest one. Every failure path returns promptly:
//! typed errors, never hangs.

use std::sync::Arc;

use bytes::Bytes;
use tell_commitmgr::manager::CmConfig;
use tell_commitmgr::{CmCluster, CommitService};
use tell_common::{Error, IsolationLevel};
use tell_core::database::IndexSpec;
use tell_core::{Database, TellConfig};
use tell_rpc::{RemoteCmClient, RemoteEndpoint, RpcServer};
use tell_store::{StoreCluster, StoreConfig};

struct Servers {
    _sn: RpcServer,
    _cm: RpcServer,
}

/// Boot a storage server and a commit server on loopback and open a
/// database over remote clients only — the same deployment shape as the
/// main e2e suite.
fn boot(nodes: usize, cms: usize) -> (Servers, Arc<Database<RemoteEndpoint>>) {
    let store = StoreCluster::new(StoreConfig::new(nodes));
    let sn = RpcServer::serve_store("127.0.0.1:0", Arc::clone(&store)).unwrap();
    let sn_addr = sn.local_addr().to_string();

    let cm_cluster =
        CmCluster::new(RemoteEndpoint::connect(sn_addr.clone(), 2), cms, CmConfig::default());
    let cm = RpcServer::serve_commit("127.0.0.1:0", cm_cluster as Arc<dyn CommitService>).unwrap();
    let cm_addr = cm.local_addr().to_string();

    let endpoint = RemoteEndpoint::connect(sn_addr, 4);
    let commit: Arc<dyn CommitService> = Arc::new(RemoteCmClient::connect([cm_addr]));
    let db = Database::open(endpoint, commit, TellConfig::default());
    (Servers { _sn: sn, _cm: cm }, db)
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

/// The classic write-skew dance: two transactions read both accounts,
/// check the invariant `x + y >= 100`, and each withdraws from a
/// *different* account. Returns the second committer's result.
fn run_skew(db: &Arc<Database<RemoteEndpoint>>, level: IsolationLevel) -> (Result<(), Error>, u64) {
    let table = db.create_table(&format!("skew_{level}"), vec![pk_spec()]).unwrap();
    let rids = db.bulk_load(&table, vec![account(60, 0), account(60, 1)]).unwrap();
    let (x, y) = (rids[0], rids[1]);

    let pn1 = db.processing_node();
    let pn2 = db.processing_node();
    let mut t1 = pn1.begin_at(level).unwrap();
    let mut t2 = pn2.begin_at(level).unwrap();

    let total1 = balance_of(&t1.get(&table, x).unwrap().unwrap())
        + balance_of(&t1.get(&table, y).unwrap().unwrap());
    let total2 = balance_of(&t2.get(&table, x).unwrap().unwrap())
        + balance_of(&t2.get(&table, y).unwrap().unwrap());
    assert_eq!(total1, 120);
    assert_eq!(total2, 120);

    // Both believe the invariant survives a 20-unit withdrawal; their
    // write sets are disjoint, so no LL/SC conflict arises at SI.
    assert!(total1 - 20 >= 100);
    t1.update(&table, x, account(40, 0)).unwrap();
    t2.update(&table, y, account(40, 1)).unwrap();

    t1.commit().unwrap();
    let second = t2.commit();

    let pn = db.processing_node();
    let mut reader = pn.begin().unwrap();
    let total = balance_of(&reader.get(&table, x).unwrap().unwrap())
        + balance_of(&reader.get(&table, y).unwrap().unwrap());
    reader.commit().unwrap();
    (second, total)
}

#[test]
fn write_skew_commits_at_si_over_tcp() {
    let (_servers, db) = boot(2, 1);
    let (second, total) = run_skew(&db, IsolationLevel::Si);
    second.expect("SI admits write skew: disjoint write sets never conflict");
    assert_eq!(total, 80, "the invariant broke, as SI allows");
}

#[test]
fn write_skew_dies_with_a_typed_conflict_at_serializable_over_tcp() {
    let (_servers, db) = boot(2, 1);
    let (second, total) = run_skew(&db, IsolationLevel::Serializable);
    let err = second.expect_err("serializable certifies the read set");
    assert_eq!(err, Error::Conflict, "typed, not a hang or a generic failure");
    assert!(err.is_retryable());
    assert_eq!(total, 100, "the invariant held: only one withdrawal landed");

    // A read-only serializable transaction over the settled state commits
    // without spurious conflicts.
    let table = db.create_table("after", vec![pk_spec()]).unwrap();
    let rid = db.bulk_load(&table, vec![account(1, 0)]).unwrap()[0];
    let pn = db.processing_node();
    let mut ro = pn.begin_at(IsolationLevel::Serializable).unwrap();
    assert_eq!(balance_of(&ro.get(&table, rid).unwrap().unwrap()), 1);
    ro.commit().expect("read-only serializable commit is clean");
}

#[test]
fn nmsi_reads_the_cached_snapshot_while_si_sees_fresh_over_tcp() {
    let (_servers, db) = boot(2, 1);
    let table = db.create_table("stale", vec![pk_spec()]).unwrap();
    let rid = db.bulk_load(&table, vec![account(1, 0)]).unwrap()[0];

    let pn = db.processing_node();

    // First NMSI start primes the manager's snapshot cache.
    let mut t0 = pn.begin_at(IsolationLevel::NonMonotonicSi).unwrap();
    assert_eq!(balance_of(&t0.get(&table, rid).unwrap().unwrap()), 1);
    t0.commit().unwrap();

    // A concurrent SI writer bumps the balance.
    pn.run(100, |txn| {
        txn.update(&table, rid, account(2, 0))?;
        Ok(())
    })
    .unwrap();

    // Within the refresh cadence, an NMSI begin is served the *cached*
    // snapshot: it legally misses the commit. An SI begin at the same
    // moment sees it — the level separation, observed over the wire.
    let pn_nmsi = db.processing_node();
    let pn_si = db.processing_node();
    let mut stale = pn_nmsi.begin_at(IsolationLevel::NonMonotonicSi).unwrap();
    let mut fresh = pn_si.begin_at(IsolationLevel::Si).unwrap();
    assert_eq!(
        balance_of(&stale.get(&table, rid).unwrap().unwrap()),
        1,
        "NMSI: stale cached snapshot misses the concurrent commit"
    );
    assert_eq!(
        balance_of(&fresh.get(&table, rid).unwrap().unwrap()),
        2,
        "SI: fresh snapshot sees it"
    );
    stale.commit().unwrap();
    fresh.commit().unwrap();
}
