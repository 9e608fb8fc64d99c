//! Model-based property tests of the store: a sequence of operations on a
//! replicated, partitioned cluster behaves exactly like a single HashMap
//! with tokens — including across node failures under RF2 — a batched
//! multi-write behaves exactly like its ops applied one at a time, and a
//! range read behaves like a sorted map's range, filtered.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::prelude::*;
use tell_common::{Error, Result, SnId};
use tell_store::{
    Cell, CmpOp, DurabilityProvider, Expect, NodeDurability, Predicate, RecoveredNode, StoreApi,
    StoreClient, StoreCluster, StoreConfig, Token, WriteOp,
};

#[derive(Clone, Debug)]
enum Op {
    Put(u8, Vec<u8>),
    Insert(u8, Vec<u8>),
    /// Store-conditional against the *current* token (should succeed) or a
    /// stale token (should conflict).
    Sc(u8, Vec<u8>, bool),
    Delete(u8),
    Get(u8),
    Increment(u8, u16),
    /// Kill + revive a node mid-sequence (RF2 keeps everything available).
    Bounce(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..24)).prop_map(|(k, v)| Op::Put(k, v)),
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..24), any::<bool>())
            .prop_map(|(k, v, fresh)| Op::Sc(k, v, fresh)),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::Get),
        (any::<u8>(), any::<u16>()).prop_map(|(k, d)| Op::Increment(k, d)),
        (0u8..3).prop_map(Op::Bounce),
    ]
}

fn key(k: u8) -> Bytes {
    Bytes::from(vec![b'k', k])
}

fn ctr_key(k: u8) -> Bytes {
    Bytes::from(vec![b'c', k])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_matches_map_model(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let cluster = StoreCluster::new(StoreConfig::new(3).replication(2));
        let client = StoreClient::unmetered(Arc::clone(&cluster));
        // Model: key -> (token, value); counters separately.
        let mut model: HashMap<u8, (u64, Vec<u8>)> = HashMap::new();
        let mut counters: HashMap<u8, u64> = HashMap::new();
        let mut stale_tokens: HashMap<u8, u64> = HashMap::new();

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let token = client.put(&key(k), Bytes::from(v.clone())).unwrap();
                    if let Some((old, _)) = model.get(&k) {
                        stale_tokens.insert(k, *old);
                    }
                    model.insert(k, (token, v));
                }
                Op::Insert(k, v) => {
                    let result = client.insert(&key(k), Bytes::from(v.clone()));
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(k) {
                        e.insert((result.unwrap(), v));
                    } else {
                        prop_assert_eq!(result.unwrap_err(), Error::Conflict);
                    }
                }
                Op::Sc(k, v, fresh) => {
                    if fresh {
                        if let Some((token, _)) = model.get(&k).cloned() {
                            let new = client
                                .store_conditional(&key(k), token, Bytes::from(v.clone()))
                                .unwrap();
                            stale_tokens.insert(k, token);
                            model.insert(k, (new, v));
                        }
                    } else if let Some(&stale) = stale_tokens.get(&k) {
                        // A genuinely stale token must conflict.
                        let r = client.store_conditional(&key(k), stale, Bytes::from(v));
                        prop_assert_eq!(r.unwrap_err(), Error::Conflict);
                    }
                }
                Op::Delete(k) => {
                    client.delete(&key(k)).unwrap();
                    if let Some((old, _)) = model.remove(&k) {
                        stale_tokens.insert(k, old);
                    }
                }
                Op::Get(k) => {
                    let got = client.get(&key(k)).unwrap();
                    match model.get(&k) {
                        Some((token, v)) => {
                            let (t, raw) = got.unwrap();
                            prop_assert_eq!(&t, token);
                            prop_assert_eq!(raw.as_ref(), &v[..]);
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                Op::Increment(k, d) => {
                    let new = client.increment(&ctr_key(k), d as u64).unwrap();
                    let c = counters.entry(k).or_insert(0);
                    *c += d as u64;
                    prop_assert_eq!(new, *c);
                }
                Op::Bounce(n) => {
                    // RF2 over 3 nodes survives any single failure; revive
                    // re-syncs the copies.
                    cluster.kill_node(SnId(n as u32));
                    cluster.revive_node(SnId(n as u32));
                }
            }
        }

        // Final sweep: every model entry is present with the right bytes.
        for (k, (token, v)) in &model {
            let (t, raw) = client.get(&key(*k)).unwrap().unwrap();
            prop_assert_eq!(&t, token);
            prop_assert_eq!(raw.as_ref(), &v[..]);
        }
        // And the prefix scan sees exactly the model's keys, ordered.
        let rows = client.scan_prefix(b"k", usize::MAX).unwrap();
        prop_assert_eq!(rows.len(), model.len());
        prop_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    }
}

/// One op of a batched multi-write. Store-conditionals and conditional
/// deletes name the token the key held *before* the batch (`fresh`) or one
/// that never existed.
#[derive(Clone, Debug)]
enum WOp {
    Put(u8, Vec<u8>),
    Insert(u8, Vec<u8>),
    Sc(u8, Vec<u8>, bool),
    Delete(u8, Option<bool>),
}

fn wop_strategy() -> impl Strategy<Value = WOp> {
    // Few keys, so batches often hold two ops on one key.
    let k = 0u8..10;
    let v = || prop::collection::vec(any::<u8>(), 0..16);
    prop_oneof![
        (k.clone(), v()).prop_map(|(k, v)| WOp::Put(k, v)),
        (k.clone(), v()).prop_map(|(k, v)| WOp::Insert(k, v)),
        (k.clone(), v(), any::<bool>()).prop_map(|(k, v, fresh)| WOp::Sc(k, v, fresh)),
        (k, prop::option::of(any::<bool>())).prop_map(|(k, fresh)| WOp::Delete(k, fresh)),
    ]
}

/// A logged mutation: partition, sequence, key, new cell.
type Record = (u32, u64, Bytes, Option<(Token, Bytes)>);

/// Durability double that only remembers what it was handed, in order.
#[derive(Debug, Default)]
struct Recorder(Arc<Mutex<Vec<Record>>>);

impl NodeDurability for Recorder {
    fn record(&self, pid: u32, seq: u64, key: &Bytes, cell: Option<&Cell>) -> Result<()> {
        let cell = cell.map(|c| (c.token, c.value.clone()));
        self.0.lock().push((pid, seq, key.clone(), cell));
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        Ok(())
    }
    fn reset_partition(&self, _: u32, _: u64, _: &[(Bytes, Cell)]) -> Result<()> {
        Ok(())
    }
}

#[derive(Debug, Default)]
struct RecorderProvider(Arc<Mutex<Vec<Record>>>);

impl DurabilityProvider for RecorderProvider {
    fn open_node(&self, _: SnId) -> Result<RecoveredNode> {
        let engine = Arc::new(Recorder(Arc::clone(&self.0)));
        Ok(RecoveredNode { engine, partitions: Vec::new() })
    }
}

/// One-at-a-time model of the store: per-partition token counters and
/// acked sequences, the live map, and the log every mutation produces.
#[derive(Default)]
struct SerialModel {
    next_token: HashMap<u32, Token>,
    seq: HashMap<u32, u64>,
    map: BTreeMap<Bytes, (Token, Bytes)>,
    log: Vec<Record>,
}

impl SerialModel {
    fn apply(&mut self, pid: u32, op: &WriteOp) -> Result<Option<Token>> {
        let current = self.map.get(&op.key).map(|(t, _)| *t);
        match (op.expect, current) {
            (Expect::Absent, Some(_)) | (Expect::Token(_), None) => return Err(Error::Conflict),
            (Expect::Token(t), Some(c)) if t != c => return Err(Error::Conflict),
            _ => {}
        }
        let token = match &op.value {
            Some(v) => {
                let next = self.next_token.entry(pid).or_insert(1);
                let token = *next;
                *next += 1;
                self.map.insert(op.key.clone(), (token, v.clone()));
                Some(token)
            }
            None if current.is_none() => return Ok(None),
            None => {
                self.map.remove(&op.key);
                None
            }
        };
        let seq = self.seq.entry(pid).or_insert(0);
        *seq += 1;
        let cell = token.map(|t| (t, op.value.clone().expect("a put has a value")));
        self.log.push((pid, *seq, op.key.clone(), cell));
        Ok(token)
    }
}

/// Records grouped by partition, each partition's in log order.
fn by_partition(log: &[Record]) -> BTreeMap<u32, Vec<Record>> {
    let mut out: BTreeMap<u32, Vec<Record>> = BTreeMap::new();
    for r in log {
        out.entry(r.0).or_default().push(r.clone());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batches through `srv_multi_write` give the same per-op results, the
    /// same final map, the same per-partition token order and the same
    /// acked sequence per partition as the ops applied one at a time.
    #[test]
    fn multi_write_matches_one_at_a_time(
        batches in prop::collection::vec(prop::collection::vec(wop_strategy(), 1..24), 1..6),
    ) {
        let provider = Arc::new(RecorderProvider::default());
        let cluster =
            StoreCluster::new(StoreConfig::new(3).durability(Arc::clone(&provider) as _));
        let mut model = SerialModel::default();
        for batch in batches {
            // Tokens a conditional op names are read before the batch.
            let before = |k: u8| model.map.get(&key(k)).map(|(t, _)| *t);
            let named = |k: u8, fresh: bool| match (fresh, before(k)) {
                (true, Some(t)) => Expect::Token(t),
                _ => Expect::Token(u64::MAX - k as u64),
            };
            let ops: Vec<WriteOp> = batch
                .iter()
                .map(|op| match op {
                    WOp::Put(k, v) => WriteOp::put(key(*k), Expect::Any, Bytes::from(v.clone())),
                    WOp::Insert(k, v) => {
                        WriteOp::put(key(*k), Expect::Absent, Bytes::from(v.clone()))
                    }
                    WOp::Sc(k, v, fresh) => {
                        WriteOp::put(key(*k), named(*k, *fresh), Bytes::from(v.clone()))
                    }
                    WOp::Delete(k, None) => WriteOp::delete(key(*k), Expect::Any),
                    WOp::Delete(k, Some(fresh)) => WriteOp::delete(key(*k), named(*k, *fresh)),
                })
                .collect();
            let expected: Vec<Result<Option<Token>>> =
                ops.iter().map(|op| model.apply(cluster.route(&op.key).raw(), op)).collect();
            let got: Vec<Result<Option<Token>>> = cluster
                .srv_multi_write(ops)
                .into_iter()
                .map(|r| r.map(|(token, _)| token))
                .collect();
            prop_assert_eq!(got, expected);
        }
        let (rows, _, _) = cluster.srv_scan(b"", None, usize::MAX, false, None).unwrap();
        let rows: Vec<(Bytes, Token, Bytes)> = rows;
        let want: Vec<(Bytes, Token, Bytes)> =
            model.map.iter().map(|(k, (t, v))| (k.clone(), *t, v.clone())).collect();
        prop_assert_eq!(rows, want);
        prop_assert_eq!(by_partition(&provider.0.lock()), by_partition(&model.log));
    }
}

/// A pushed-down filter over the scan test's one-byte values or its keys.
fn filter_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        any::<u8>().prop_map(|b| Predicate::value_compare(0, CmpOp::Lt, vec![b])),
        prop::collection::vec(0u8..4, 0..2).prop_map(|p| Predicate::KeyPrefix(Bytes::from(p))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `srv_scan` against a `BTreeMap` model, over keys spread across 32
    /// partitions: the rows are the model's `[start, end)` range, filtered,
    /// in the asked direction, cut to `limit` *admitted* rows; `examined`
    /// counts every row of the range, admitted or not.
    #[test]
    fn srv_scan_matches_a_sorted_map(
        rows in prop::collection::btree_map(
            prop::collection::vec(0u8..4, 0..4), any::<u8>(), 0..40),
        start in prop::collection::vec(0u8..4, 0..3),
        end in prop::option::of(prop::collection::vec(0u8..4, 0..3)),
        limit in prop_oneof![0usize..5, Just(usize::MAX)],
        reverse in any::<bool>(),
        filter in prop::option::of(filter_strategy()),
    ) {
        let cluster = StoreCluster::new(StoreConfig::new(4));
        let mut model: BTreeMap<Bytes, (Token, Bytes)> = BTreeMap::new();
        for (k, v) in rows {
            let (k, v) = (Bytes::from(k), Bytes::from(vec![v]));
            let put = WriteOp::put(k.clone(), Expect::Any, v.clone());
            let (token, _) = cluster.srv_multi_write(vec![put]).pop().unwrap().unwrap();
            model.insert(k, (token.unwrap(), v));
        }
        let in_range: Vec<(Bytes, Token, Bytes)> = model
            .iter()
            .filter(|(k, _)| {
                k.as_ref() >= &start[..] && end.as_ref().is_none_or(|e| k.as_ref() < &e[..])
            })
            .map(|(k, (t, v))| (k.clone(), *t, v.clone()))
            .collect();
        let mut want: Vec<(Bytes, Token, Bytes)> = in_range
            .iter()
            .filter(|(k, _, v)| filter.as_ref().is_none_or(|f| f.matches(k, v)))
            .cloned()
            .collect();
        if reverse {
            want.reverse();
        }
        want.truncate(limit);
        let (got, _, examined) =
            cluster.srv_scan(&start, end.as_deref(), limit, reverse, filter.as_ref()).unwrap();
        prop_assert_eq!(got, want);
        prop_assert_eq!(examined, in_range.len());
    }
}
