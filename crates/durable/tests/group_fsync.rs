//! fsync counts of the durable tier under `FsyncPolicy::Always`: one per
//! storage request per node, and one per partition reset. They are read
//! from the process-global `durable_fsyncs_total` counter, which is why
//! these tests have a test binary of their own and run one at a time.

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use bytes::Bytes;
use tell_durable::{DurableNode, DurableNodeConfig, FsDurability};
use tell_obs::Counter;
use tell_store::{Cell, Expect, NodeDurability, StoreClient, StoreCluster, StoreConfig, WriteOp};

/// Serialises the tests of this binary around the global counter.
static COUNTER: Mutex<()> = Mutex::new(());

fn fsyncs() -> u64 {
    tell_obs::global().counter(Counter::DurableFsyncs)
}

fn test_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tell-group-fsync-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

#[test]
fn an_18_op_multi_write_costs_at_most_one_fsync_per_node() {
    let _serial = COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let root = test_root("multi-write");
    let provider = FsDurability::new(root.clone(), DurableNodeConfig::default());
    let cluster = StoreCluster::new(StoreConfig::new(2).durability(provider as _));
    let client = StoreClient::unmetered(cluster);
    let ops: Vec<WriteOp> =
        (0..18).map(|i| WriteOp::put(b(&format!("stock-{i}")), Expect::Absent, b("row"))).collect();

    let before = fsyncs();
    let results = client.multi_write(ops).unwrap();
    let spent = fsyncs() - before;

    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    assert!((1..=2).contains(&spent), "18 records on 2 nodes took {spent} fsyncs");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_partition_reset_costs_one_fsync() {
    let _serial = COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let dir = test_root("reset");
    let (node, _) = DurableNode::open(dir.clone(), DurableNodeConfig::default()).unwrap();
    let cell = |token: u64| Cell { token, value: b("value") };
    for i in 0..8u64 {
        node.record(0, i + 1, &b(&format!("old-{i}")), Some(&cell(i + 1))).unwrap();
    }
    let entries: Vec<(Bytes, Cell)> =
        (0..32u64).map(|i| (b(&format!("key-{i:02}")), cell(100 + i))).collect();

    let before = fsyncs();
    node.reset_partition(0, 40, &entries).unwrap();
    assert_eq!(fsyncs() - before, 1, "a reset of 8 deletes and 32 puts syncs once");

    drop(node);
    let (_node, recovered) = DurableNode::open(dir.clone(), DurableNodeConfig::default()).unwrap();
    assert_eq!((recovered[0].applied_seq, &recovered[0].entries), (40, &entries));
    fs::remove_dir_all(&dir).unwrap();
}
