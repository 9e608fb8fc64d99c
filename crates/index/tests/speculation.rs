//! Leaf speculation is never wrong: a handle whose node cache holds leaves
//! that another handle has since changed must still answer every lookup
//! and range exactly as a handle with an empty cache does. The cached leaf
//! only predicts which records may ride the leaf read's frame; the answer
//! always comes from the leaf as read from the store.
//!
//! Writers may go further: an insert's load-link is the cached leaf, which
//! the store-conditional validates. A stale cache must still never lose or
//! duplicate an entry.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use tell_common::IndexId;
use tell_index::{insert_grouped, BTreeConfig, DistributedBTree};
use tell_store::{StoreClient, StoreCluster, StoreConfig};

const IDX: IndexId = IndexId(1);

fn cfg() -> BTreeConfig {
    BTreeConfig { max_entries: 4, max_retries: 10_000 }
}

/// A writer handle, a second handle on the same tree, and the cluster.
fn two_handles() -> (DistributedBTree, DistributedBTree, Arc<StoreCluster>) {
    let cluster = StoreCluster::new(StoreConfig::new(2));
    let writer =
        DistributedBTree::create(StoreClient::unmetered(Arc::clone(&cluster)), IDX, cfg()).unwrap();
    let warm =
        DistributedBTree::open(StoreClient::unmetered(Arc::clone(&cluster)), IDX, cfg()).unwrap();
    (writer, warm, cluster)
}

/// A handle with an empty cache: what every answer must equal.
fn uncached(cluster: &Arc<StoreCluster>) -> DistributedBTree {
    DistributedBTree::open(StoreClient::unmetered(Arc::clone(cluster)), IDX, cfg()).unwrap()
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn k(i: u32) -> Bytes {
    b(&format!("k{i:04}"))
}

fn assert_lookup_as_uncached(warm: &DistributedBTree, cluster: &Arc<StoreCluster>, key: &Bytes) {
    let expected = uncached(cluster).lookup(key).unwrap();
    assert_eq!(warm.lookup(key).unwrap(), expected, "lookup {key:?}");
}

fn assert_range_as_uncached(
    warm: &DistributedBTree,
    cluster: &Arc<StoreCluster>,
    start: &Bytes,
    end: &Bytes,
) {
    let expected = uncached(cluster).range(start, Some(end), usize::MAX).unwrap();
    assert_eq!(warm.range(start, Some(end), usize::MAX).unwrap(), expected);
}

#[test]
fn key_inserted_after_caching_is_found() {
    let (writer, warm, cluster) = two_handles();
    for i in (0..40).step_by(2) {
        writer.insert(k(i), i as u64).unwrap();
    }
    assert!(warm.lookup(&k(21)).unwrap().is_empty());
    let hits = warm.cache().stats().hits.load(std::sync::atomic::Ordering::Relaxed);
    assert!(warm.lookup(&k(21)).unwrap().is_empty());
    assert!(
        warm.cache().stats().hits.load(std::sync::atomic::Ordering::Relaxed) > hits,
        "the second lookup descends through the cached leaf"
    );
    writer.insert(k(21), 21).unwrap();
    assert_eq!(warm.lookup(&k(21)).unwrap(), vec![21]);
    assert_lookup_as_uncached(&warm, &cluster, &k(21));
}

#[test]
fn key_removed_after_caching_is_gone() {
    let (writer, warm, cluster) = two_handles();
    for i in 0..40 {
        writer.insert(k(i), i as u64).unwrap();
    }
    assert_eq!(warm.lookup(&k(17)).unwrap(), vec![17]);
    writer.remove(&k(17), 17).unwrap();
    assert!(warm.lookup(&k(17)).unwrap().is_empty());
    assert_lookup_as_uncached(&warm, &cluster, &k(17));
}

#[test]
fn key_moved_right_by_a_split_is_followed() {
    let (writer, warm, cluster) = two_handles();
    for i in (0..400).step_by(100) {
        writer.insert(k(i), i as u64).unwrap();
    }
    // One leaf holds every key; the warm handle caches it.
    assert_eq!(warm.lookup(&k(300)).unwrap(), vec![300]);
    // The writer splits that leaf many times over, moving k(300) right of
    // the leaf the warm handle still routes to.
    for i in 0..300 {
        if i % 100 != 0 {
            writer.insert(k(i), i as u64).unwrap();
        }
    }
    assert_eq!(warm.lookup(&k(300)).unwrap(), vec![300]);
    for i in (0..300).step_by(7) {
        assert_lookup_as_uncached(&warm, &cluster, &k(i));
    }
}

#[test]
fn range_over_a_chain_split_mid_chain_is_complete() {
    let (writer, warm, cluster) = two_handles();
    for i in (0..60).step_by(3) {
        writer.insert(k(i), i as u64).unwrap();
    }
    // Warm the chain of leaves under [k(0), k(60)).
    assert_eq!(warm.range(&k(0), Some(&k(60)), usize::MAX).unwrap().len(), 20);
    // Split a leaf in the middle of the chain.
    for i in [28, 29, 31, 32, 34, 35] {
        writer.insert(k(i), i as u64).unwrap();
    }
    assert_eq!(warm.range(&k(0), Some(&k(60)), usize::MAX).unwrap().len(), 26);
    assert_range_as_uncached(&warm, &cluster, &k(0), &k(60));
    assert_range_as_uncached(&warm, &cluster, &k(20), &k(40));
    // A limit that ends inside the split part of the chain.
    let expected = uncached(&cluster).range(&k(0), Some(&k(60)), 13).unwrap();
    assert_eq!(warm.range(&k(0), Some(&k(60)), 13).unwrap(), expected);
}

#[test]
fn entries_ending_at_the_high_fence() {
    let (writer, warm, cluster) = two_handles();
    // Duplicates of one key span several leaves, so some leaf's high fence
    // carries that key: the lookup must continue right.
    for rid in 0..12u64 {
        writer.insert(b("dup"), rid).unwrap();
    }
    writer.insert(b("aaa"), 100).unwrap();
    writer.insert(b("zzz"), 101).unwrap();
    let all: Vec<u64> = (0..12).collect();
    assert_eq!(warm.lookup(&b("dup")).unwrap(), all);
    writer.insert(b("dup"), 12).unwrap();
    writer.remove(&b("dup"), 0).unwrap();
    let all: Vec<u64> = (1..13).collect();
    assert_eq!(warm.lookup(&b("dup")).unwrap(), all);
    assert_lookup_as_uncached(&warm, &cluster, &b("dup"));

    // A key that is the last entry of its leaf: the next leaf starts above
    // it, and the lookup still sees rids added there by the other handle.
    let (writer, warm, cluster) = two_handles();
    for i in 0..40 {
        writer.insert(k(i), i as u64).unwrap();
    }
    for i in 0..40 {
        assert_eq!(warm.lookup(&k(i)).unwrap(), vec![i as u64]);
    }
    for i in 0..40 {
        writer.insert(k(i), 1000 + i as u64).unwrap();
    }
    for i in 0..40 {
        assert_eq!(warm.lookup(&k(i)).unwrap(), vec![i as u64, 1000 + i as u64], "key {i}");
        assert_lookup_as_uncached(&warm, &cluster, &k(i));
    }
}

/// Insert `(key, rid)` pairs through `tree` as one grouped insert.
fn insert_group(tree: &DistributedBTree, entries: &[(Bytes, u64)]) -> Vec<bool> {
    let batch: Vec<_> = entries.iter().map(|e| (tree, e.clone())).collect();
    insert_grouped(&batch, true).unwrap()
}

#[test]
fn entry_removed_behind_a_cached_leaf_is_written_again() {
    let (a, b_handle, cluster) = two_handles();
    for i in 0..3 {
        a.insert(k(i), i as u64).unwrap();
    }
    // A's cache holds the leaf with (k1, 1); B removes that entry, as index
    // GC on another node would.
    assert_eq!(a.lookup(&k(1)).unwrap(), vec![1]);
    assert!(b_handle.remove(&k(1), 1).unwrap());
    // The cached leaf still claims the entry: trusting it would answer
    // "already present" and lose it.
    assert!(a.insert(k(1), 1).unwrap(), "the entry was gone from the store");
    assert_eq!(uncached(&cluster).lookup(&k(1)).unwrap(), vec![1]);

    // The same inside a group that writes the leaf anyway: the SC on the
    // stale cached leaf fails, and the retry writes both entries.
    assert!(b_handle.remove(&k(2), 2).unwrap());
    assert_eq!(insert_group(&a, &[(k(2), 2), (k(3), 3)]), vec![true, true]);
    assert_eq!(uncached(&cluster).lookup(&k(2)).unwrap(), vec![2]);
    assert_eq!(a.check_invariants().unwrap(), 4);
}

#[test]
fn entry_present_in_a_fresh_leaf_is_not_duplicated() {
    let (a, b_handle, cluster) = two_handles();
    a.insert(k(5), 5).unwrap();
    // B's insert moves the leaf's token on; A's cached copy lacks k6.
    b_handle.insert(k(6), 6).unwrap();
    assert_eq!(insert_group(&a, &[(k(6), 6), (k(5), 5), (k(6), 6)]), vec![false, false, false]);
    assert_eq!(uncached(&cluster).lookup(&k(6)).unwrap(), vec![6]);
    assert_eq!(a.check_invariants().unwrap(), 2);
}

#[test]
fn group_into_a_leaf_another_handle_split() {
    let (a, b_handle, cluster) = two_handles();
    for i in (0..400).step_by(100) {
        a.insert(k(i), i as u64).unwrap();
    }
    // A caches the one leaf; B splits it many times over.
    assert_eq!(a.lookup(&k(300)).unwrap(), vec![300]);
    for i in (0..400).step_by(10) {
        if i % 100 != 0 {
            b_handle.insert(k(i), i as u64).unwrap();
        }
    }
    // A's group spans keys now held by many leaves to the right of the one
    // it cached, and overflows some of them.
    let group: Vec<(Bytes, u64)> = (0..400).step_by(7).map(|i| (k(i), i as u64)).collect();
    let fresh = insert_group(&a, &group);
    let expected: Vec<bool> = (0..400).step_by(7).map(|i| i % 10 != 0).collect();
    assert_eq!(fresh, expected);
    let total = 40 + group.iter().filter(|(_, rid)| rid % 10 != 0).count();
    assert_eq!(a.check_invariants().unwrap(), total);
    for (key, rid) in &group {
        assert_eq!(uncached(&cluster).lookup(key).unwrap(), vec![*rid]);
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(usize, u8, u8),
    InsertGroup(usize, Vec<(u8, u8)>),
    Remove(usize, u8, u8),
    Lookup(usize, u8),
    Range(usize, u8, u8, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small key space with a few rids per key: splits, duplicates across
    // leaf boundaries and stale cached leaves all come up quickly.
    prop_oneof![
        (0usize..2, 0u8..24, 0u8..4).prop_map(|(h, k, r)| Op::Insert(h, k, r)),
        (0usize..2, prop::collection::vec((0u8..24, 0u8..4), 1..=12))
            .prop_map(|(h, entries)| Op::InsertGroup(h, entries)),
        (0usize..2, 0u8..24, 0u8..4).prop_map(|(h, k, r)| Op::Remove(h, k, r)),
        (0usize..2, 0u8..24).prop_map(|(h, k)| Op::Lookup(h, k)),
        (0usize..2, 0u8..24, 0u8..24, 0usize..12).prop_map(|(h, a, b, l)| Op::Range(h, a, b, l)),
    ]
}

fn key(k: u8) -> Vec<u8> {
    format!("p{k:02}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn two_handles_match_the_model(
        ops in prop::collection::vec(op_strategy(), 0..200),
        fanout in 3usize..8,
    ) {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let config = BTreeConfig { max_entries: fanout, max_retries: 10_000 };
        let first = DistributedBTree::create(
            StoreClient::unmetered(Arc::clone(&cluster)),
            IDX,
            config.clone(),
        )
        .unwrap();
        let second =
            DistributedBTree::open(StoreClient::unmetered(Arc::clone(&cluster)), IDX, config)
                .unwrap();
        let handles = [&first, &second];
        let mut model: BTreeMap<Vec<u8>, BTreeSet<u64>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(h, k, r) => {
                    let fresh = handles[h].insert(Bytes::from(key(k)), r as u64).unwrap();
                    prop_assert_eq!(fresh, model.entry(key(k)).or_default().insert(r as u64));
                }
                Op::InsertGroup(h, entries) => {
                    let group: Vec<(Bytes, u64)> =
                        entries.iter().map(|(k, r)| (Bytes::from(key(*k)), *r as u64)).collect();
                    let fresh = insert_group(handles[h], &group);
                    let expected: Vec<bool> = entries
                        .iter()
                        .map(|(k, r)| model.entry(key(*k)).or_default().insert(*r as u64))
                        .collect();
                    prop_assert_eq!(fresh, expected);
                }
                Op::Remove(h, k, r) => {
                    let removed = handles[h].remove(&Bytes::from(key(k)), r as u64).unwrap();
                    let expected = model.get_mut(&key(k)).is_some_and(|rids| rids.remove(&(r as u64)));
                    prop_assert_eq!(removed, expected);
                }
                Op::Lookup(h, k) => {
                    let got = handles[h].lookup(&Bytes::from(key(k))).unwrap();
                    let expected: Vec<u64> =
                        model.get(&key(k)).map(|rids| rids.iter().copied().collect()).unwrap_or_default();
                    prop_assert_eq!(got, expected);
                }
                Op::Range(h, a, b, limit) => {
                    let (lo, hi) = (key(a.min(b)), key(a.max(b)));
                    let limit = if limit == 0 { usize::MAX } else { limit };
                    let got = handles[h]
                        .range(&Bytes::from(lo.clone()), Some(&Bytes::from(hi.clone())), limit)
                        .unwrap();
                    let expected: Vec<(Bytes, u64)> = model
                        .range(lo..hi)
                        .flat_map(|(mk, rids)| rids.iter().map(|r| (Bytes::from(mk.clone()), *r)))
                        .take(limit)
                        .collect();
                    prop_assert_eq!(got, expected);
                }
            }
        }
        prop_assert_eq!(first.check_invariants().unwrap(), model.values().map(BTreeSet::len).sum::<usize>());
    }
}
