//! Remote flame-graph end-to-end test over real loopback TCP: run a mixed
//! transactional workload across the servers, scrape the spans through
//! the wire, fold them, and check that the flame graph saw both sides of
//! the deployment — client-side transaction phases ending in the wire call
//! and server-side dispatch stacks — and that the per-lock contention rows
//! ride the metrics scrape.
//!
//! Lives in its own integration-test binary on purpose: the span ring is
//! process-global, and sharing a process with other tests would smear
//! their spans into this one's assertions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tell_commitmgr::manager::CmConfig;
use tell_commitmgr::{CmCluster, CommitService};
use tell_core::database::IndexSpec;
use tell_core::{Database, TellConfig};
use tell_obs::export::{fold_self_time, SpanClock};
use tell_rpc::{Connection, RemoteCmClient, RemoteEndpoint, Request, Response, RpcServer};
use tell_store::{StoreCluster, StoreConfig};

fn boot(nodes: usize, cms: usize) -> (Vec<RpcServer>, String, Arc<Database<RemoteEndpoint>>) {
    let store = StoreCluster::new(StoreConfig::new(nodes));
    let sn = RpcServer::serve_store("127.0.0.1:0", store).unwrap();
    let sn_addr = sn.local_addr().to_string();

    let cm_cluster =
        CmCluster::new(RemoteEndpoint::connect(sn_addr.clone(), 2), cms, CmConfig::default());
    let cm = RpcServer::serve_commit("127.0.0.1:0", cm_cluster as Arc<dyn CommitService>).unwrap();
    let cm_addr = cm.local_addr().to_string();

    let endpoint = RemoteEndpoint::connect(sn_addr.clone(), 4);
    let commit: Arc<dyn CommitService> = Arc::new(RemoteCmClient::connect([cm_addr]));
    let db = Database::open(endpoint, commit, TellConfig::default());
    (vec![sn, cm], sn_addr, db)
}

fn account(balance: u64, id: u64) -> Bytes {
    let mut b = balance.to_be_bytes().to_vec();
    b.extend_from_slice(&id.to_be_bytes());
    Bytes::from(b)
}

fn call(conn: &Connection, req: &Request) -> Response {
    conn.call(req).expect("rpc call").0
}

#[test]
fn remote_profile_scrape_sees_txn_and_dispatch_frames() {
    let (_servers, sn_addr, db) = boot(2, 1);
    let table = db
        .create_table(
            "prof_accounts",
            vec![IndexSpec::new("pk", true, |r: &[u8]| r.get(8..16).map(Bytes::copy_from_slice))],
        )
        .unwrap();
    let rids = db.bulk_load(&table, (0..8u64).map(|i| account(100, i)).collect()).unwrap();

    let conn = Connection::connect(&sn_addr).unwrap();
    let Response::Spans(_) = call(&conn, &Request::Spans { drain: true }) else {
        panic!("expected Response::Spans");
    };

    // Mixed workload: reads, read-modify-writes, and scans-by-read across
    // two worker threads, everything crossing TCP, long enough for the
    // tick to keep a few dozen transactions.
    let deadline = Instant::now() + Duration::from_millis(600);
    let handles: Vec<_> = (0..2)
        .map(|worker: usize| {
            let db = Arc::clone(&db);
            let table = Arc::clone(&table);
            let rids = rids.clone();
            std::thread::spawn(move || {
                let pn = db.processing_node();
                let mut i = 0usize;
                while Instant::now() < deadline {
                    i += 1;
                    let rid = rids[(worker + i) % rids.len()];
                    if i.is_multiple_of(3) {
                        let _ = pn.run(100, |txn| txn.get(&table, rid));
                    } else {
                        let _ = pn.run(100, |txn| {
                            let row = txn.get(&table, rid)?.expect("loaded row");
                            let bal = u64::from_be_bytes(row[..8].try_into().unwrap());
                            txn.update(&table, rid, account(bal + 1, ((worker + i) % 8) as u64))
                        });
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // This process hosts both servers and the PN, so one scrape over the
    // wire returns all three sides' spans.
    let Response::Spans(spans) = call(&conn, &Request::Spans { drain: true }) else {
        panic!("expected Response::Spans");
    };
    let folded = fold_self_time(&spans, SpanClock::Wall).to_folded();
    let has = |stack: &str| folded.lines().any(|l| l.starts_with(&format!("{stack} ")));
    // Client side: a read phase waiting on the wire (reads leave in a
    // submit-window flush).
    let read = "txn;txn.read;rpc.batch_flush;rpc.client_call";
    assert!(has(read), "no client read stack:\n{folded}");
    // Server side: the dispatch starts a stack of its own, with the store
    // work under it.
    assert!(
        folded.lines().any(|l| l.starts_with("rpc.dispatch;store.")),
        "no server dispatch stack:\n{folded}"
    );
    // The lock registry made it across the wire in the metrics snapshot,
    // led by the commit path's named lock.
    let Response::Metrics(snapshot) = call(&conn, &Request::Metrics) else {
        panic!("expected Response::Metrics");
    };
    assert!(
        snapshot.locks.iter().any(|l| l.name == "cm.state"),
        "lock table must name the commit path: {:?}",
        snapshot.locks
    );
}
