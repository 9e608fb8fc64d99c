//! Model-based property tests of the store: a sequence of operations on a
//! replicated, partitioned cluster behaves exactly like a single HashMap
//! with tokens — including across node failures under RF2.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use tell_common::{Error, SnId};
use tell_store::{StoreApi, StoreClient, StoreCluster, StoreConfig};

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
