//! End-to-end: StoreCluster wired to the real log-structured engine via
//! [`FsDurability`] — acked writes survive killing every copy-holder and
//! restarting nodes from their data directories.

use std::fs;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use tell_common::Result;
use tell_common::SnId;
use tell_durable::{DurableNodeConfig, FsDurability, FsyncPolicy};
use tell_store::{Expect, StoreCluster, StoreConfig, Token, WriteOp};

fn test_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tell-durable-int-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tiny_engine_config() -> DurableNodeConfig {
    DurableNodeConfig { segment_bytes: 512, fsync: FsyncPolicy::Always, checkpoint_every: 32 }
}

fn durable_config(root: &Path, nodes: usize, rf: usize) -> StoreConfig {
    StoreConfig::new(nodes)
        .replication(rf)
        .durability(FsDurability::new(root.to_path_buf(), tiny_engine_config()) as _)
}

fn k(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// One conditional write: a one-op `srv_multi_write`.
fn write(c: &StoreCluster, op: WriteOp) -> Result<(Option<Token>, usize)> {
    c.srv_multi_write(vec![op]).pop().expect("one result per op")
}

#[test]
fn acked_writes_survive_whole_cluster_restart() {
    let root = test_root("cluster-restart");
    {
        let c = StoreCluster::new(durable_config(&root, 3, 2));
        for i in 0..100u32 {
            let key = Bytes::from(format!("key-{i:03}"));
            write(&c, WriteOp::put(key.clone(), Expect::Absent, k(&format!("val-{i}")))).unwrap();
        }
        // Overwrite some, delete some: recovery must replay the latest.
        for i in (0..100u32).step_by(7) {
            let key = format!("key-{i:03}");
            let (t, _) = c.srv_read(key.as_bytes()).unwrap().unwrap();
            write(&c, WriteOp::put(k(&key), Expect::Token(t), k("updated"))).unwrap();
        }
        for i in (0..100u32).step_by(11) {
            let key = format!("key-{i:03}");
            write(&c, WriteOp::delete(k(&key), Expect::Any)).unwrap();
        }
    }
    // Whole-process "restart": a fresh cluster over the same data dirs.
    let c = StoreCluster::new(durable_config(&root, 3, 2));
    for i in 0..100u32 {
        let key = format!("key-{i:03}");
        let got = c.srv_read(key.as_bytes()).unwrap();
        if i % 11 == 0 {
            assert_eq!(got, None, "{key} was deleted before the restart");
        } else if i % 7 == 0 {
            assert_eq!(got.unwrap().1, k("updated"), "{key} lost its last update");
        } else {
            assert_eq!(got.unwrap().1, k(&format!("val-{i}")), "{key} lost its value");
        }
    }
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn kill_all_copy_holders_then_restart_from_log() {
    let root = test_root("kill-all");
    let c = StoreCluster::new(durable_config(&root, 2, 2));
    for i in 0..40u32 {
        let key = Bytes::from(format!("k{i}"));
        write(&c, WriteOp::put(key.clone(), Expect::Absent, k("v"))).unwrap();
    }
    // Every copy-holder of every partition dies.
    c.kill_node(SnId(0));
    c.kill_node(SnId(1));
    assert!(c.srv_read(b"k0").is_err(), "nothing alive to serve");
    // In-memory-only, this was contract-excluded data loss. With the log
    // tier it is a recoverable scenario.
    c.restart_node_from_log(SnId(0)).unwrap();
    c.restart_node_from_log(SnId(1)).unwrap();
    for i in 0..40u32 {
        let key = format!("k{i}");
        assert!(c.srv_read(key.as_bytes()).unwrap().is_some(), "lost {key}");
    }
    // And the partitions accept new writes with monotonic tokens.
    let (t, _) = c.srv_read(b"k3").unwrap().unwrap();
    write(&c, WriteOp::put(k("k3"), Expect::Token(t), k("post-restart"))).unwrap();
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn restarted_node_does_not_resurrect_writes_acked_after_its_death() {
    let root = test_root("no-resurrect");
    let c = StoreCluster::new(durable_config(&root, 2, 2));
    write(&c, WriteOp::put(k("x"), Expect::Absent, k("first"))).unwrap();
    c.kill_node(SnId(0));
    // Acked while node 0 is down: only node 1's copy and log see it.
    let (t, _) = c.srv_read(b"x").unwrap().unwrap();
    write(&c, WriteOp::put(k("x"), Expect::Token(t), k("second"))).unwrap();
    // Node 0 restarts from a log that predates "second": its copy must
    // catch up from node 1 rather than serve "first".
    c.restart_node_from_log(SnId(0)).unwrap();
    c.kill_node(SnId(1));
    let (_, val) = c.srv_read(b"x").unwrap().unwrap();
    assert_eq!(val, k("second"));
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn increments_are_durable() {
    let root = test_root("counter");
    let key = tell_store::keys::counter("tid");
    {
        let c = StoreCluster::new(durable_config(&root, 1, 1));
        for _ in 0..10 {
            c.srv_increment(&key, 3).unwrap();
        }
        assert_eq!(c.srv_increment(&key, 0).unwrap(), 30);
    }
    let c = StoreCluster::new(durable_config(&root, 1, 1));
    assert_eq!(c.srv_increment(&key, 12).unwrap(), 42, "counter recovered then advanced");
    fs::remove_dir_all(&root).unwrap();
}
