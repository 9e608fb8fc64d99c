//! Batched writes against a durability engine: a multi-write's records
//! reach each engine in one `record_all` while the written partitions stay
//! locked, so no reader sees a value before it is durable, a failed engine
//! call is never reported as success, and overlapping batches never
//! deadlock.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use tell_common::{Error, Result, SnId};
use tell_store::{
    Cell, DurabilityProvider, Expect, NodeDurability, RecoveredNode, RecoveredPartition,
    StoreCluster, StoreConfig, Token, WriteOp,
};

type Record = (u32, u64, Bytes, Option<Cell>);

/// One conditional write: a one-op `srv_multi_write`.
fn write(c: &StoreCluster, op: WriteOp) -> Result<(Option<Token>, usize)> {
    c.srv_multi_write(vec![op]).pop().expect("one result per op")
}

/// Shared state of the test double: every node's log, and the faults.
#[derive(Debug, Default)]
struct Shared {
    logs: Mutex<HashMap<u32, Vec<Record>>>,
    /// `(node, n)`: that node's engine fails every record after the first
    /// `n` of a `record_all`, as a torn request would.
    fail_after: Mutex<Option<(u32, usize)>>,
    /// While set, `record_all` blocks after logging until it is cleared.
    hold: std::sync::Mutex<bool>,
    released: Condvar,
    entered: AtomicU64,
    returned: AtomicU64,
}

#[derive(Debug, Default)]
struct Provider(Arc<Shared>);

#[derive(Debug)]
struct Engine {
    node: u32,
    shared: Arc<Shared>,
}

impl NodeDurability for Engine {
    fn record(&self, pid: u32, seq: u64, key: &Bytes, cell: Option<&Cell>) -> Result<()> {
        self.shared.logs.lock().entry(self.node).or_default().push((
            pid,
            seq,
            key.clone(),
            cell.cloned(),
        ));
        Ok(())
    }

    fn record_all(&self, records: &[(u32, u64, &Bytes, Option<&Cell>)]) -> Result<()> {
        self.shared.entered.fetch_add(1, Ordering::SeqCst);
        let limit = match *self.shared.fail_after.lock() {
            Some((node, n)) if node == self.node => n,
            _ => usize::MAX,
        };
        for (i, &(pid, seq, key, cell)) in records.iter().enumerate() {
            if i >= limit {
                return Err(Error::Unavailable("engine i/o error".into()));
            }
            self.record(pid, seq, key, cell)?;
        }
        let mut hold = self.shared.hold.lock().unwrap();
        while *hold {
            hold = self.shared.released.wait(hold).unwrap();
        }
        self.shared.returned.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn reset_partition(&self, pid: u32, seq: u64, entries: &[(Bytes, Cell)]) -> Result<()> {
        let mut logs = self.shared.logs.lock();
        let log = logs.entry(self.node).or_default();
        log.retain(|r| r.0 != pid);
        log.extend(entries.iter().map(|(k, c)| (pid, seq, k.clone(), Some(c.clone()))));
        Ok(())
    }
}

impl DurabilityProvider for Provider {
    fn open_node(&self, node: SnId) -> Result<RecoveredNode> {
        let mut parts: BTreeMap<u32, RecoveredPartition> = BTreeMap::new();
        let mut maps: BTreeMap<u32, BTreeMap<Bytes, Cell>> = BTreeMap::new();
        for (pid, seq, key, cell) in self.0.logs.lock().get(&node.raw()).into_iter().flatten() {
            let part = parts.entry(*pid).or_insert(RecoveredPartition {
                pid: *pid,
                applied_seq: 0,
                max_token: 0,
                entries: Vec::new(),
            });
            part.applied_seq = part.applied_seq.max(*seq);
            let map = maps.entry(*pid).or_default();
            match cell {
                Some(c) => {
                    part.max_token = part.max_token.max(c.token);
                    map.insert(key.clone(), c.clone());
                }
                None => {
                    map.remove(key);
                }
            }
        }
        for (pid, map) in maps {
            parts.get_mut(&pid).expect("partition seen").entries = map.into_iter().collect();
        }
        let engine = Arc::new(Engine { node: node.raw(), shared: Arc::clone(&self.0) });
        Ok(RecoveredNode { engine, partitions: parts.into_values().collect() })
    }
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn open(provider: &Arc<Provider>, nodes: usize, rf: usize) -> Arc<StoreCluster> {
    StoreCluster::new(StoreConfig::new(nodes).replication(rf).durability(Arc::clone(provider) as _))
}

fn value(c: &StoreCluster, key: &str) -> Option<Bytes> {
    c.srv_read(key.as_bytes()).unwrap().map(|(_, v)| v)
}

/// Keys whose partitions node `node` masters on a fresh RF1 cluster of
/// `nodes` nodes (placement: partition `p` lives on node `p % nodes`).
fn keys_on(c: &StoreCluster, nodes: usize, node: u32, n: usize, tag: &str) -> Vec<String> {
    (0..)
        .map(|i| format!("{tag}{i}"))
        .filter(|k| c.route(k.as_bytes()).raw() as usize % nodes == node as usize)
        .take(n)
        .collect()
}

#[test]
fn a_reader_never_sees_a_batch_before_its_record_all_returned() {
    let provider = Arc::new(Provider::default());
    let c = open(&provider, 1, 1);
    write(&c, WriteOp::put(b("a"), Expect::Absent, b("old"))).unwrap();

    *provider.0.hold.lock().unwrap() = true;
    let entered = provider.0.entered.load(Ordering::SeqCst);
    let writer = {
        let c = Arc::clone(&c);
        thread::spawn(move || {
            c.srv_multi_write(vec![
                WriteOp::put(b("a"), Expect::Any, b("new")),
                WriteOp::put(b("b"), Expect::Absent, b("fresh")),
            ])
        })
    };
    while provider.0.entered.load(Ordering::SeqCst) == entered {
        thread::yield_now();
    }
    // The batch is applied in RAM and blocked inside its engine call.
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (c, shared, done) = (Arc::clone(&c), Arc::clone(&provider.0), Arc::clone(&done));
        thread::spawn(move || {
            let seen = value(&c, "a");
            let durable = shared.returned.load(Ordering::SeqCst);
            done.store(true, Ordering::SeqCst);
            (seen, durable)
        })
    };
    thread::sleep(Duration::from_millis(50));
    assert!(!done.load(Ordering::SeqCst), "a read completed while the batch was not durable");

    let returned = provider.0.returned.load(Ordering::SeqCst);
    *provider.0.hold.lock().unwrap() = false;
    provider.0.released.notify_all();
    let results = writer.join().unwrap();
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    let (seen, durable) = reader.join().unwrap();
    assert_eq!(seen, Some(b("new")), "the blocked read sees the batch once it is durable");
    assert!(durable > returned, "new value read before record_all returned");
}

#[test]
fn a_failed_record_all_fails_that_engines_ops_and_leaves_partitions_fresh() {
    const NODES: usize = 2;
    let provider = Arc::new(Provider::default());
    let c = open(&provider, NODES, 1);
    let on0 = keys_on(&c, NODES, 0, 3, "zero-");
    let on1 = keys_on(&c, NODES, 1, 3, "one-");
    for k in on0.iter().chain(&on1) {
        let op = WriteOp::put(b(k), Expect::Absent, b("old"));
        c.srv_multi_write(vec![op]).pop().unwrap().unwrap();
    }

    // Node 0's engine logs the first record of the request, then fails.
    *provider.0.fail_after.lock() = Some((0, 1));
    let ops: Vec<WriteOp> = on0
        .iter()
        .zip(&on1)
        .flat_map(|(k0, k1)| [(k0, "new0"), (k1, "new1")])
        .map(|(k, v)| WriteOp::put(b(k), Expect::Any, b(v)))
        .collect();
    let results = c.srv_multi_write(ops);
    for (i, r) in results.iter().enumerate() {
        if i % 2 == 0 {
            assert!(matches!(r, Err(Error::Unavailable(_))), "op {i} on the failed engine: {r:?}");
        } else {
            assert!(r.is_ok(), "op {i} on the healthy engine: {r:?}");
        }
    }
    for k in &on0 {
        assert_eq!(value(&c, k), Some(b("old")), "{k} kept its old value");
    }
    for k in &on1 {
        assert_eq!(value(&c, k), Some(b("new1")));
    }

    // The partitions stay fresh: once the engine heals, writes succeed.
    *provider.0.fail_after.lock() = None;
    for k in &on0 {
        let (t, _) = c.srv_read(k.as_bytes()).unwrap().unwrap();
        let op = WriteOp::put(b(k), Expect::Token(t), b("healed"));
        c.srv_multi_write(vec![op]).pop().unwrap().unwrap();
    }
    drop(c);
    let c = open(&provider, NODES, 1);
    for k in &on0 {
        assert_eq!(value(&c, k), Some(b("healed")), "{k} after reopen");
    }
    for k in &on1 {
        assert_eq!(value(&c, k), Some(b("new1")), "{k} survives a reopen");
    }
}

#[test]
fn an_18_op_batch_calls_each_engine_once() {
    const NODES: usize = 2;
    let provider = Arc::new(Provider::default());
    let c = open(&provider, NODES, 1);
    let keys: Vec<Bytes> = (0..18).map(|i| b(&format!("k{i}"))).collect();
    let mut masters: Vec<usize> = keys.iter().map(|k| c.route(k).raw() as usize % NODES).collect();
    masters.sort_unstable();
    masters.dedup();
    let before = provider.0.entered.load(Ordering::SeqCst);
    let ops = keys.into_iter().map(|k| WriteOp::put(k, Expect::Any, b("v"))).collect();
    assert!(c.srv_multi_write(ops).iter().all(|r| r.is_ok()));
    assert_eq!(provider.0.entered.load(Ordering::SeqCst) - before, masters.len() as u64);
}

#[test]
fn overlapping_batches_in_opposite_orders_never_hang() {
    const KEYS: usize = 24;
    const ROUNDS: usize = 150;
    let provider = Arc::new(Provider::default());
    let c = open(&provider, 3, 2);
    let keys: Vec<Bytes> = (0..KEYS).map(|i| b(&format!("hot{i}"))).collect();
    let (tx, rx) = mpsc::channel();
    let mut spawned = 0;
    for t in 0..4 {
        let (c, keys, tx) = (Arc::clone(&c), keys.clone(), tx.clone());
        spawned += 1;
        thread::spawn(move || {
            for round in 0..ROUNDS {
                let mut ops: Vec<WriteOp> = keys
                    .iter()
                    .map(|k| WriteOp::put(k.clone(), Expect::Any, b(&format!("{t}/{round}"))))
                    .collect();
                if t % 2 == 1 {
                    ops.reverse();
                }
                assert!(c.srv_multi_write(ops).iter().all(|r| r.is_ok()));
            }
            tx.send(()).unwrap();
        });
    }
    {
        let (c, keys, tx) = (Arc::clone(&c), keys.clone(), tx.clone());
        spawned += 1;
        thread::spawn(move || {
            let counter = b("counter");
            for round in 0..ROUNDS {
                let k = &keys[round % KEYS];
                write(&c, WriteOp::put(k.clone(), Expect::Any, b("single"))).unwrap();
                assert_eq!(c.srv_increment(&counter, 1).unwrap(), round as u64 + 1);
                assert!(c.srv_read(k).unwrap().is_some());
                c.srv_scan(b"hot", Some(b"hou"), usize::MAX, false, None).unwrap();
            }
            tx.send(()).unwrap();
        });
    }
    drop(tx);
    for _ in 0..spawned {
        rx.recv_timeout(Duration::from_secs(60)).expect("a writer hung or panicked");
    }
}
