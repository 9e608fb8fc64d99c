//! Layer floors: what each layer costs on its own, single-threaded and
//! (except the ping) without sockets, so the gap between a layer's share
//! of an end-to-end transaction and its floor is on record. Every floor is
//! the median over batches of the mean time per operation in a batch.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use tell_commitmgr::CommitService;
use tell_common::{IsolationLevel, Result, Rid, SnId};
use tell_core::{Database, TellConfig};
use tell_durable::{DurableNodeConfig, FsDurability, FsyncPolicy};
use tell_netsim::NetMeter;
use tell_rpc::{Connection, Request, Response};
use tell_store::{keys, DurabilityProvider, Expect, WriteOp};

use crate::cluster::{fresh_data_dir, remove_data_dir, Cluster, STORAGE_NODES};
use crate::gen::{Params, Stream};
use crate::run::{metric, Metric};
use crate::stats::median;
use crate::workloads::{body, load, pk_key, Workload, ACCOUNT_ROWS, ROW_LEN};

const BATCHES: usize = 21;

/// Median over [`BATCHES`] batches of `per_batch` calls to `op` of the mean
/// nanoseconds per call; `op` gets the call's running number.
fn floor_ns(per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut means = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        let started = Instant::now();
        for i in 0..per_batch {
            op(batch * per_batch + i);
        }
        means.push(started.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&means)
}

pub fn run() -> Result<Vec<Metric>> {
    let mut out = Vec::new();

    // rpc: one Ping round trip through connection, reactor and router.
    {
        let cluster = Cluster::boot(None, false)?;
        let conn = Connection::connect(&cluster.sn_addr())?;
        let rtt = floor_ns(500, |_| {
            black_box(conn.call(&Request::Ping).expect("ping"));
        });
        out.push(metric("rpc.ping_rtt_us", rtt / 1e3, "us"));
    }

    // rpc: codec cost of the frame pair a batched 8-record read makes.
    let row = Bytes::from(vec![7u8; ROW_LEN]);
    let gets = (0..8).map(|i| Request::Get { key: keys::record(tell_common::TableId(1), Rid(i)) });
    let request = Request::Batch { ops: gets.collect() };
    let response = Response::Batch {
        results: (0..8).map(|i| Response::Cell(Some((i, row.clone())))).collect(),
    };
    let (request_bytes, response_bytes) = (request.encode(), response.encode());
    let encode = floor_ns(2000, |_| {
        black_box((black_box(&request).encode(), black_box(&response).encode()));
    });
    let decode = floor_ns(2000, |_| {
        black_box(Request::decode(black_box(&request_bytes)).expect("request decodes"));
        black_box(Response::decode(black_box(&response_bytes)).expect("response decodes"));
    });
    out.push(metric("rpc.wire_encode_ns", encode, "ns"));
    out.push(metric("rpc.wire_decode_ns", decode, "ns"));

    // store, index, commitmgr, core: the point_rw database, in process.
    let db = Database::create(TellConfig { storage_nodes: STORAGE_NODES, ..TellConfig::default() });
    let schema = load(Workload::PointRw, &db)?;
    let account = schema.table(0);
    let client = db.admin_client();
    let get = floor_ns(5000, |i| {
        let rid = Rid(1 + (i as u64 * 7919) % u64::from(ACCOUNT_ROWS));
        black_box(client.get(&keys::record(account.id, rid)).expect("get"));
    });
    out.push(metric("store.get_ns", get, "ns"));
    let multi_write = floor_ns(500, |i| {
        let ops = (0..8u64).map(|j| {
            let key = keys::meta(&format!("floor/{}", (i as u64 * 8 + j) % 4096));
            WriteOp::put(key, Expect::Any, row.clone())
        });
        black_box(client.multi_write(ops.collect()).expect("multi_write"));
    });
    out.push(metric("store.multi_write_ns_per_op", multi_write / 8.0, "ns"));

    let pn = db.processing_node();
    let tree = pn.tree(account.primary_index().id)?;
    let lookup = floor_ns(2000, |i| {
        black_box(tree.lookup(&pk_key(&[(i as u32 * 7919) % ACCOUNT_ROWS])).expect("lookup"));
    });
    out.push(metric("index.lookup_ns", lookup, "ns"));
    let insert = floor_ns(500, |i| {
        let pk = ACCOUNT_ROWS + i as u32;
        black_box(tree.insert(pk_key(&[pk]), u64::from(pk) + 1).expect("insert"));
    });
    out.push(metric("index.insert_ns", insert, "ns"));

    let commit: &Arc<dyn CommitService> = db.commit_service();
    let meter = NetMeter::free();
    let mut open = Vec::new();
    let start = floor_ns(2000, |_| {
        open.push(commit.start_pinned(0, IsolationLevel::Si, &meter).expect("start"));
    });
    let mut open = open.into_iter();
    let complete = floor_ns(2000, |_| {
        let (started, participant) = open.next().expect("one start per complete");
        participant.set_committed(started.tid, &meter).expect("complete");
    });
    out.push(metric("commitmgr.start_ns", start, "ns"));
    out.push(metric("commitmgr.complete_ns", complete, "ns"));

    let mut stream = Stream::new(Workload::PointRw, 1, 0);
    let params: Vec<Params> = (0..BATCHES * 500).map(|_| stream.next_params()).collect();
    let txn = floor_ns(500, |i| {
        let mut txn = pn.begin().expect("begin");
        body(&mut txn, &schema, &params[i]).expect("body");
        txn.commit().expect("one client, no conflicts");
    });
    out.push(metric("core.txn_inproc_us", txn / 1e3, "us"));

    // durable: an append alone, then the fsync that makes it durable.
    let dir = fresh_data_dir();
    let config = DurableNodeConfig { fsync: FsyncPolicy::Never, ..DurableNodeConfig::default() };
    let engine = FsDurability::new(dir.clone(), config).open_node(SnId(0))?.engine;
    let cell = tell_store::Cell { token: 1, value: row.clone() };
    let key = keys::record(account.id, Rid(1));
    let (mut append, mut fsync) = (Vec::new(), Vec::new());
    for seq in 1..=300u64 {
        let started = Instant::now();
        engine.record(0, seq, &key, Some(&cell))?;
        let appended = Instant::now();
        engine.sync()?;
        append.push((appended - started).as_nanos() as f64 / 1e3);
        fsync.push(appended.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(engine);
    remove_data_dir(&dir);
    out.push(metric("durable.append_us", median(&append), "us"));
    out.push(metric("durable.fsync_us", median(&fsync), "us"));
    Ok(out)
}
