//! The distributed latch-free B+tree.

use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use tell_common::{Error, IndexId, Result};
use tell_store::cell::Token;
use tell_store::{apply_writes, keys, Expect, StoreApi, StoreClient, StoreOp, WriteOp};

use crate::cache::NodeCache;
use crate::node::{cmp_entry, min_key, EntryKey, NodeData};

/// Tree tuning knobs.
#[derive(Clone, Debug)]
pub struct BTreeConfig {
    /// Maximum entries per node before it splits.
    pub max_entries: usize,
    /// Upper bound on optimistic retries before reporting contention. The
    /// algorithm is latch-free (some operation always makes progress); this
    /// bound only turns a livelocked *test* into an error instead of a hang.
    pub max_retries: usize,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig { max_entries: 64, max_retries: 10_000 }
    }
}

/// A node as this PN last saw it: the token it was read under, and its body.
type Seen = (Token, Arc<NodeData>);

#[derive(Clone)]
struct Descent {
    leaf_id: u64,
    /// The leaf, as read from the store unless `cached`.
    leaf: Seen,
    /// The leaf came from the node cache: it predicts or load-links an
    /// insert, it does not answer.
    cached: bool,
    /// Ancestor node ids, root first.
    path: Vec<u64>,
}

/// A handle to one distributed B+tree for one processing node.
///
/// The tree's nodes live in the shared store; any number of handles (on any
/// number of PNs) can operate concurrently. Each handle carries the PN-local
/// node cache. Generic over the storage client so the same tree code
/// runs against the in-process store or a remote one via `tell-rpc`.
pub struct DistributedBTree<C: StoreApi = StoreClient> {
    index_id: IndexId,
    client: C,
    cache: Arc<NodeCache>,
    config: BTreeConfig,
    root_hint: Mutex<Option<u64>>,
}

impl<C: StoreApi> DistributedBTree<C> {
    /// Create a brand-new tree in the store (an empty root leaf).
    pub fn create(client: C, index_id: IndexId, config: BTreeConfig) -> Result<Self> {
        let tree = DistributedBTree {
            index_id,
            client,
            cache: Arc::new(NodeCache::new()),
            config,
            root_hint: Mutex::new(None),
        };
        let root_id = tree.alloc_node_ids(1)?;
        tree.client.insert(&tree.node_key(root_id), NodeData::empty_root_leaf().encode())?;
        tree.client.insert(&tree.root_ptr_key(), Bytes::copy_from_slice(&root_id.to_le_bytes()))?;
        *tree.root_hint.lock() = Some(root_id);
        Ok(tree)
    }

    /// Open an existing tree (a second handle, e.g. on another PN).
    pub fn open(client: C, index_id: IndexId, config: BTreeConfig) -> Result<Self> {
        let tree = DistributedBTree {
            index_id,
            client,
            cache: Arc::new(NodeCache::new()),
            config,
            root_hint: Mutex::new(None),
        };
        tree.read_root()?; // fail fast if the tree does not exist
        Ok(tree)
    }

    /// The PN-local cache (for stats and explicit invalidation).
    pub fn cache(&self) -> &Arc<NodeCache> {
        &self.cache
    }

    /// This tree's index id.
    pub fn index_id(&self) -> IndexId {
        self.index_id
    }

    fn node_key(&self, node_id: u64) -> Bytes {
        keys::index_node(self.index_id, node_id)
    }

    fn root_ptr_key(&self) -> Bytes {
        keys::meta(&format!("idx/{}/root", self.index_id.raw()))
    }

    /// Allocate `n` fresh node ids; returns the first of them.
    fn alloc_node_ids(&self, n: u64) -> Result<u64> {
        let key = keys::counter(&format!("idx/{}/next", self.index_id.raw()));
        Ok(self.client.increment(&key, n)? - n + 1)
    }

    fn read_root(&self) -> Result<(Token, u64)> {
        let (token, raw) = self
            .client
            .get(&self.root_ptr_key())?
            .ok_or_else(|| Error::corrupt("index root pointer missing"))?;
        let id = u64::from_le_bytes(
            raw.as_ref().try_into().map_err(|_| Error::corrupt("bad root pointer"))?,
        );
        *self.root_hint.lock() = Some(id);
        Ok((token, id))
    }

    fn root_id(&self) -> Result<u64> {
        if let Some(id) = *self.root_hint.lock() {
            return Ok(id);
        }
        Ok(self.read_root()?.1)
    }

    /// Read a node from the store, leaving the cache alone: the load-link
    /// of a write, which caches what it wrote instead.
    fn read(&self, node_id: u64) -> Result<Seen> {
        decode_node(node_id, self.client.get(&self.node_key(node_id))?)
    }

    /// Read a node from the store, refreshing its cache entry.
    fn fetch(&self, node_id: u64) -> Result<Seen> {
        let cell = self.client.get(&self.node_key(node_id))?;
        self.accept(node_id, cell)
    }

    /// Decode a node's store cell and refresh its cache entry with it.
    fn accept(&self, node_id: u64, cell: Option<(Token, Bytes)>) -> Result<Seen> {
        let seen = decode_node(node_id, cell)?;
        self.cache.put(node_id, seen.0, Arc::clone(&seen.1));
        Ok(seen)
    }

    /// Route `k` from the root to its leaf. With `use_cache`, nodes come
    /// from the cache where they can; a cached leaf ends the descent marked
    /// `cached`, for the caller to read fresh or speculate on.
    fn descend(&self, k: &EntryKey, use_cache: bool) -> Result<Descent> {
        let mut node_id = self.root_id()?;
        let mut path = Vec::new();
        let mut hops = 0usize;
        for _ in 0..self.config.max_retries {
            let hit = if use_cache { self.cache.get(node_id) } else { None };
            let cached = hit.is_some();
            let (token, node) = match hit {
                Some(seen) => seen,
                None => self.fetch(node_id)?,
            };
            if node.beyond_high(k) {
                // B-link right hop: the node split since our routing info was
                // read. If a *cached* inner node sent us here, it is stale.
                let right =
                    node.right.ok_or_else(|| Error::corrupt("high fence without right sibling"))?;
                node_id = right;
                hops += 1;
                continue;
            }
            if node.is_leaf {
                if hops > 0 && use_cache {
                    self.refresh_path(&path);
                }
                return Ok(Descent { leaf_id: node_id, leaf: (token, node), cached, path });
            }
            path.push(node_id);
            node_id = node.route(k);
        }
        Err(Error::Unavailable("index descend retry limit exceeded".into()))
    }

    /// A right hop showed the cached `path` stale. §5.3.1: "the parent
    /// nodes are recursively updated to keep the cache consistent".
    /// Dropping them re-fetches the latest versions on the next descent.
    fn refresh_path(&self, path: &[u64]) {
        for id in path {
            self.cache.invalidate(*id);
        }
        let _ = self.read_root();
    }

    /// Finish a descent on `fresh`, a store read of `d.leaf_id`: hop right
    /// (B-link) while `k` lies beyond the leaf's high fence.
    fn settle(&self, mut d: Descent, k: &EntryKey, mut fresh: Seen) -> Result<Descent> {
        let mut hops = 0usize;
        while fresh.1.beyond_high(k) {
            if hops == self.config.max_retries {
                return Err(Error::Unavailable("index descend retry limit exceeded".into()));
            }
            d.leaf_id =
                fresh.1.right.ok_or_else(|| Error::corrupt("high fence without right sibling"))?;
            fresh = self.fetch(d.leaf_id)?;
            hops += 1;
        }
        if hops > 0 {
            self.refresh_path(&d.path);
        }
        d.leaf = fresh;
        d.cached = false;
        Ok(d)
    }

    /// Descend to `k`'s leaf as read from the store: the load-link of a
    /// removal, which must not trust a cached leaf to hold the entry.
    fn descend_fresh(&self, k: &EntryKey) -> Result<Descent> {
        let d = self.descend(k, true)?;
        if !d.cached {
            return Ok(d);
        }
        let fresh = self.read(d.leaf_id)?;
        self.settle(d, k, fresh)
    }

    /// Insert `(key, rid)`. Returns `false` if the exact entry already
    /// existed. A batch of one of [`insert_grouped`].
    pub fn insert(&self, key: Bytes, rid: u64) -> Result<bool> {
        Ok(insert_grouped(&[(self, (key, rid))], true)?[0])
    }

    /// Remove `(key, rid)`. Returns `false` if it was not present.
    pub fn remove(&self, key: &Bytes, rid: u64) -> Result<bool> {
        let k: EntryKey = (key.clone(), rid);
        for _ in 0..self.config.max_retries {
            // Deletions always verify against a fresh leaf.
            let d = self.descend_fresh(&k)?;
            let (token, leaf) = d.leaf;
            let pos = match leaf.search(&k) {
                Ok(p) => p,
                Err(_) => return Ok(false),
            };
            let mut leaf = Arc::unwrap_or_clone(leaf);
            leaf.entries.remove(pos);
            tell_obs::incr(tell_obs::Counter::IndexLeafWrites);
            match self.client.store_conditional(&self.node_key(d.leaf_id), token, leaf.encode()) {
                Ok(t) => {
                    self.cache.put(d.leaf_id, t, leaf);
                    return Ok(true);
                }
                Err(Error::Conflict) => tell_obs::incr(tell_obs::Counter::IndexLeafConflicts),
                Err(e) => return Err(e),
            }
        }
        Err(Error::Unavailable("index remove retry limit exceeded".into()))
    }

    /// All rids indexed under exactly `key`, in rid order.
    pub fn lookup(&self, key: &Bytes) -> Result<Vec<u64>> {
        Ok(self.lookup_prefetch(key, |_| ())?.0)
    }

    /// [`lookup`](Self::lookup) that hands `prefetch` the rids a cached
    /// leaf predicts before the leaf read is waited on, so whatever it
    /// submits rides the leaf read's frame. Returns `prefetch`'s result when
    /// it was called; the prediction may be wrong, so the caller keeps only
    /// what it fetched for rids the lookup returns.
    pub fn lookup_prefetch<P>(
        &self,
        key: &Bytes,
        prefetch: impl FnOnce(&[u64]) -> P,
    ) -> Result<(Vec<u64>, Option<P>)> {
        let (entries, prefetched) =
            self.scan((key.clone(), 0), |k| k > key.as_ref(), usize::MAX, prefetch)?;
        Ok((entries.into_iter().map(|(_, rid)| rid).collect(), prefetched))
    }

    /// Entries with `start <= key < end` (end `None` = unbounded), up to
    /// `limit`.
    pub fn range(
        &self,
        start: &Bytes,
        end: Option<&Bytes>,
        limit: usize,
    ) -> Result<Vec<(Bytes, u64)>> {
        Ok(self.range_prefetch(start, end, limit, |_| ())?.0)
    }

    /// [`range`](Self::range) with a prefetch of the rids the cached chain
    /// of leaves predicts, as in [`lookup_prefetch`](Self::lookup_prefetch).
    pub fn range_prefetch<P>(
        &self,
        start: &Bytes,
        end: Option<&Bytes>,
        limit: usize,
        prefetch: impl FnOnce(&[u64]) -> P,
    ) -> Result<(Vec<EntryKey>, Option<P>)> {
        let past = |k: &[u8]| end.is_some_and(|e| k >= e.as_ref());
        self.scan((start.clone(), 0), past, limit, prefetch)
    }

    /// Total number of entries (test/diagnostic helper; full leaf walk).
    pub fn len(&self) -> Result<usize> {
        Ok(self.scan(min_key(), |_| false, usize::MAX, |_| ())?.0.len())
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Leaf entries `>= from` in order, up to the first whose key is
    /// `past` or until `limit` are collected.
    ///
    /// Every leaf the entries come from is read from the store (§5.3.1).
    /// When the descent lands on a cached leaf the scan speculates: it
    /// submits reads of the chain of cached leaves it expects to visit,
    /// hands `prefetch` the rids that chain names — so what `prefetch`
    /// submits rides the same frame — and only then waits. A leaf whose
    /// token is unchanged is the cached copy; one whose token moved is
    /// decoded, re-cached, and the scan goes on from it (right hops, fresh
    /// reads) exactly as it would have without the cache.
    fn scan<P>(
        &self,
        from: EntryKey,
        past: impl Fn(&[u8]) -> bool,
        limit: usize,
        prefetch: impl FnOnce(&[u64]) -> P,
    ) -> Result<(Vec<EntryKey>, Option<P>)> {
        let d = self.descend(&from, true)?;
        let (d, mut frame, prefetched) = if d.cached {
            let (chain, predicted) = self.cached_chain(d.leaf_id, &d.leaf, &from, &past, limit);
            let reads: Vec<_> = chain
                .into_iter()
                .map(|(id, seen)| {
                    (id, seen, self.client.submit(StoreOp::Get { key: self.node_key(id) }))
                })
                .collect();
            let rids: Vec<u64> = predicted.iter().map(|(_, rid)| *rid).collect();
            let prefetched = prefetch(&rids);
            let mut frame = Vec::new();
            for (id, seen, read) in reads {
                match read.wait()?.into_cell()? {
                    Some((token, _)) if token == seen.0 => frame.push((id, seen)),
                    Some(cell) => frame.push((id, self.accept(id, Some(cell))?)),
                    None => self.cache.invalidate(id),
                }
            }
            let first = match take(&mut frame, d.leaf_id) {
                Some(fresh) => fresh,
                None => self.fetch(d.leaf_id)?,
            };
            (self.settle(d, &from, first)?, frame, Some(prefetched))
        } else {
            (d, Vec::new(), None)
        };
        let mut out = Vec::new();
        let mut leaf = d.leaf.1;
        while scan_leaf(&leaf, &from, &past, limit, &mut out) {
            let right =
                leaf.right.ok_or_else(|| Error::corrupt("high fence without right sibling"))?;
            leaf = match take(&mut frame, right) {
                Some(fresh) => fresh.1,
                None => self.fetch(right)?.1,
            };
        }
        Ok((out, prefetched))
    }

    /// The chain of cached leaves a scan starting in `first` would visit,
    /// each linked to the one before by its fences (`low` equals the
    /// previous `high`), and the entries the chain predicts the scan
    /// returns. The chain ends where the scan would stop, or at the first
    /// right sibling that is not cached.
    fn cached_chain(
        &self,
        first_id: u64,
        first: &Seen,
        from: &EntryKey,
        past: &impl Fn(&[u8]) -> bool,
        limit: usize,
    ) -> (Vec<(u64, Seen)>, Vec<EntryKey>) {
        let mut predicted = Vec::new();
        let mut chain = vec![(first_id, first.clone())];
        loop {
            let leaf = Arc::clone(&chain[chain.len() - 1].1 .1);
            if !scan_leaf(&leaf, from, past, limit, &mut predicted) {
                break;
            }
            let (Some(high), Some(right)) = (&leaf.high, leaf.right) else { break };
            match self.cache.get(right) {
                Some(next) if next.1.is_leaf && next.1.low == *high => chain.push((right, next)),
                _ => break,
            }
        }
        (chain, predicted)
    }

    fn add_separator(
        &self,
        ancestors: &[u64],
        split_node: u64,
        sep: EntryKey,
        new_child: u64,
    ) -> Result<()> {
        match ancestors.split_last() {
            Some((&parent, rest)) => self.insert_into_inner(parent, rest, sep, new_child),
            None => self.grow_root_or_find_parent(split_node, sep, new_child),
        }
    }

    fn insert_into_inner(
        &self,
        mut parent_id: u64,
        ancestors: &[u64],
        sep: EntryKey,
        child: u64,
    ) -> Result<()> {
        for _ in 0..self.config.max_retries {
            let (token, node) = self.read(parent_id)?; // always fresh for writes
            if node.beyond_high(&sep) {
                parent_id = node
                    .right
                    .ok_or_else(|| Error::corrupt("inner high fence without right sibling"))?;
                continue;
            }
            if node.is_leaf {
                return Err(Error::corrupt("separator insert reached a leaf"));
            }
            let mut node = Arc::unwrap_or_clone(node);
            match node.search(&sep) {
                Ok(_) => return Ok(()), // idempotent
                Err(pos) => node.entries.insert(pos, (sep.clone(), child)),
            }
            if node.entries.len() <= self.config.max_entries {
                match self.client.store_conditional(&self.node_key(parent_id), token, node.encode())
                {
                    Ok(t) => {
                        self.cache.put(parent_id, t, node);
                        return Ok(());
                    }
                    Err(Error::Conflict) => continue,
                    Err(e) => return Err(e),
                }
            }
            // Parent overflows: split it too (recursing toward the root).
            let new_pid = self.alloc_node_ids(1)?;
            let (psep, pright) = node.split(new_pid);
            self.client.insert(&self.node_key(new_pid), pright.encode())?;
            match self.client.store_conditional(&self.node_key(parent_id), token, node.encode()) {
                Ok(t) => {
                    self.cache.put(parent_id, t, node);
                    self.cache.invalidate(new_pid);
                    self.add_separator(ancestors, parent_id, psep, new_pid)?;
                    return Ok(());
                }
                Err(Error::Conflict) => {
                    let _ = self.client.delete(&self.node_key(new_pid));
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(Error::Unavailable("separator insert retry limit exceeded".into()))
    }

    fn grow_root_or_find_parent(
        &self,
        split_node: u64,
        sep: EntryKey,
        new_child: u64,
    ) -> Result<()> {
        for _ in 0..self.config.max_retries {
            let (root_token, root_id) = self.read_root()?;
            if root_id == split_node {
                // We split the root: grow the tree by one level.
                let new_root_id = self.alloc_node_ids(1)?;
                let new_root = NodeData {
                    is_leaf: false,
                    low: min_key(),
                    high: None,
                    right: None,
                    entries: vec![(min_key(), split_node), (sep.clone(), new_child)],
                };
                self.client.insert(&self.node_key(new_root_id), new_root.encode())?;
                match self.client.store_conditional(
                    &self.root_ptr_key(),
                    root_token,
                    Bytes::copy_from_slice(&new_root_id.to_le_bytes()),
                ) {
                    Ok(_) => {
                        *self.root_hint.lock() = Some(new_root_id);
                        return Ok(());
                    }
                    Err(Error::Conflict) => {
                        let _ = self.client.delete(&self.node_key(new_root_id));
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            // Someone grew the tree first: our split node now has a parent.
            if let Some(parent) = self.find_parent(root_id, split_node, &sep)? {
                return self.insert_into_inner(parent, &[], sep, new_child);
            }
            // Racing structure change; retry from the (re-read) root.
        }
        Err(Error::Unavailable("root grow retry limit exceeded".into()))
    }

    /// Locate the inner node whose child pointer routes `sep` to
    /// `split_node`.
    fn find_parent(&self, root_id: u64, split_node: u64, sep: &EntryKey) -> Result<Option<u64>> {
        let mut node_id = root_id;
        for _ in 0..self.config.max_retries {
            let (_, node) = self.fetch(node_id)?;
            if node.beyond_high(sep) {
                node_id = match node.right {
                    Some(r) => r,
                    None => return Ok(None),
                };
                continue;
            }
            if node.is_leaf {
                return Ok(None);
            }
            let child = node.route(sep);
            if child == split_node {
                return Ok(Some(node_id));
            }
            node_id = child;
        }
        Ok(None)
    }

    /// Structural invariant check used by tests: walks the whole tree and
    /// verifies fence chaining, entry ordering and fence containment.
    pub fn check_invariants(&self) -> Result<usize> {
        // Find the leftmost leaf by descending on the minimum key.
        let d = self.descend(&min_key(), false)?;
        let mut node = d.leaf.1;
        let mut count = 0usize;
        let mut prev: Option<EntryKey> = None;
        loop {
            for w in node.entries.windows(2) {
                if cmp_entry(&w[0].0, &w[1].0) != Ordering::Less {
                    return Err(Error::corrupt("leaf entries out of order"));
                }
            }
            for (ek, _) in &node.entries {
                if !node.covers(ek) {
                    return Err(Error::corrupt("entry outside node fences"));
                }
                if let Some(p) = &prev {
                    if cmp_entry(p, ek) != Ordering::Less {
                        return Err(Error::corrupt("entries out of order across leaves"));
                    }
                }
                prev = Some(ek.clone());
                count += 1;
            }
            match (node.high.clone(), node.right) {
                (Some(h), Some(r)) => {
                    let (_, next) = self.fetch(r)?;
                    if next.low != h {
                        return Err(Error::corrupt("fence chain broken between siblings"));
                    }
                    node = next;
                }
                (None, None) => return Ok(count),
                _ => return Err(Error::corrupt("high fence and right pointer disagree")),
            }
        }
    }
}

/// Entries of a grouped insert headed for one leaf.
struct Group {
    /// Which of the batch's trees the leaf belongs to.
    tree: usize,
    /// The leaf and its load-link: read from the store unless `cached`.
    d: Descent,
    /// Positions in the batch, in the order they joined.
    entries: Vec<usize>,
}

/// One leaf's new image, built on its group's load-link.
struct LeafWrite {
    g: Group,
    /// The leaf with the group's new entries; the left part if it splits.
    leaf: NodeData,
    /// Entries the load-link already held: present once the SC succeeds.
    present: Vec<usize>,
    /// New right siblings in chain order, with their separators.
    siblings: Vec<(EntryKey, u64, NodeData)>,
}

/// Insert every `(tree, (key, rid))` of `batch` into trees that share one
/// store. Returns, per entry, `false` if the exact entry already existed.
///
/// Entries descend through the node cache and group by the leaf they land
/// on, and each leaf is written with one store-conditional carrying all of
/// its group: with `one_frame` every leaf of every tree rides one
/// `multi_write` exchange, without it (the batching ablation) each leaf is
/// its own exchange. A cached leaf is the load-link: the SC fails if the
/// leaf changed since it was cached, as tokens never repeat. A leaf whose
/// SC conflicts is re-read, and only its entries retry. A group that finds
/// all of its entries present in a cached leaf writes nothing, so a fresh
/// read confirms them (a cached leaf cannot prove what the store holds). A
/// group that overflows its leaf splits it in the same pass, in B-link
/// order: the new siblings first, then the leaf's SC, then the parent's
/// separators.
pub fn insert_grouped<C: StoreApi, T: Deref<Target = DistributedBTree<C>>>(
    batch: &[(T, EntryKey)],
    one_frame: bool,
) -> Result<Vec<bool>> {
    let mut trees: Vec<&DistributedBTree<C>> = Vec::new();
    let tree_of: Vec<usize> = batch
        .iter()
        .map(|(t, _)| {
            let t = &**t;
            trees.iter().position(|u| std::ptr::eq(*u, t)).unwrap_or_else(|| {
                trees.push(t);
                trees.len() - 1
            })
        })
        .collect();
    let Some(client) = trees.first().map(|t| &t.client) else { return Ok(Vec::new()) };
    let rounds = trees.iter().map(|t| t.config.max_retries).max().unwrap_or(0);
    let mut answers: Vec<Option<bool>> = vec![None; batch.len()];
    let mut unplaced: Vec<usize> = (0..batch.len()).collect();
    let mut groups: Vec<Group> = Vec::new();
    for _ in 0..rounds {
        for i in std::mem::take(&mut unplaced) {
            let d = trees[tree_of[i]].descend(&batch[i].1, true)?;
            join(&mut groups, tree_of[i], d, i);
        }
        if groups.is_empty() {
            return Ok(answers.into_iter().map(|a| a.expect("every entry is answered")).collect());
        }
        // Each group's new leaf image. `reread` collects the groups whose
        // leaf must be read fresh before they go on.
        let mut writes = Vec::new();
        let mut reread = Vec::new();
        for g in groups.drain(..) {
            let mut leaf = NodeData::clone(&g.d.leaf.1);
            let (mut added, mut present) = (Vec::new(), Vec::new());
            for &i in &g.entries {
                let k = &batch[i].1;
                if !leaf.covers(k) {
                    // Joined under another load-link of this leaf whose
                    // fences no longer hold the key: descend again.
                    unplaced.push(i);
                    continue;
                }
                match leaf.search(k) {
                    Ok(_) => present.push(i),
                    Err(pos) => {
                        leaf.entries.insert(pos, (k.clone(), k.1));
                        added.push(i);
                    }
                }
            }
            if added.is_empty() {
                if g.d.cached {
                    reread.push(Group { entries: present, ..g });
                } else {
                    present.into_iter().for_each(|i| answers[i] = Some(false));
                }
                continue;
            }
            writes.push(LeafWrite {
                g: Group { entries: added, ..g },
                leaf,
                present,
                siblings: Vec::new(),
            });
        }
        // Overflowing leaves split into as many near-equal parts as their
        // entries need, with one id allocation per tree.
        let parts =
            |w: &LeafWrite| w.leaf.entries.len().div_ceil(trees[w.g.tree].config.max_entries);
        for (t, tree) in trees.iter().enumerate() {
            let need: usize = writes.iter().filter(|w| w.g.tree == t).map(|w| parts(w) - 1).sum();
            if need == 0 {
                continue;
            }
            let mut next = tree.alloc_node_ids(need as u64)?;
            for w in writes.iter_mut().filter(|w| w.g.tree == t) {
                let ids: Vec<u64> = (next..).take(parts(w) - 1).collect();
                next += ids.len() as u64;
                w.siblings = w.leaf.split_many(&ids);
            }
        }
        // B-link order: the new siblings exist (unreachable until their
        // leaf's SC links them) before any leaf SC is sent.
        let sibling_ops: Vec<WriteOp> = writes
            .iter()
            .flat_map(|w| {
                let tree = trees[w.g.tree];
                w.siblings.iter().map(move |(_, id, node)| {
                    WriteOp::put(tree.node_key(*id), Expect::Absent, node.encode())
                })
            })
            .collect();
        let mut sibling_tokens = Vec::with_capacity(sibling_ops.len());
        if !sibling_ops.is_empty() {
            for result in apply_writes(client, sibling_ops, one_frame)? {
                sibling_tokens.push(written_token(result)?);
            }
        }
        let mut sibling_tokens = sibling_tokens.into_iter();
        let ops: Vec<WriteOp> = writes
            .iter()
            .map(|w| {
                let key = trees[w.g.tree].node_key(w.g.d.leaf_id);
                WriteOp::put(key, Expect::Token(w.g.d.leaf.0), w.leaf.encode())
            })
            .collect();
        tell_obs::add(tell_obs::Counter::IndexLeafWrites, ops.len() as u64);
        let results =
            if ops.is_empty() { Vec::new() } else { apply_writes(client, ops, one_frame)? };
        let mut orphans = Vec::new();
        let mut separators = Vec::new();
        for (w, result) in writes.into_iter().zip(results) {
            let tree = trees[w.g.tree];
            let tokens: Vec<Token> = sibling_tokens.by_ref().take(w.siblings.len()).collect();
            match written_token(result) {
                Ok(token) => {
                    // The PN's own write must not make its next read
                    // mis-speculate.
                    tree.cache.put(w.g.d.leaf_id, token, w.leaf);
                    let mut left = w.g.d.leaf_id;
                    for ((sep, id, node), token) in w.siblings.into_iter().zip(tokens) {
                        tree.cache.put(id, token, node);
                        separators.push((w.g.tree, w.g.d.path.clone(), left, sep, id));
                        left = id;
                    }
                    w.g.entries.iter().for_each(|&i| answers[i] = Some(true));
                    w.present.iter().for_each(|&i| answers[i] = Some(false));
                }
                Err(Error::Conflict) => {
                    tell_obs::incr(tell_obs::Counter::IndexLeafConflicts);
                    orphans.extend(
                        w.siblings
                            .iter()
                            .map(|(_, id, _)| WriteOp::delete(tree.node_key(*id), Expect::Any)),
                    );
                    let mut entries = w.g.entries;
                    entries.extend(w.present);
                    reread.push(Group { entries, ..w.g });
                }
                Err(e) => return Err(e),
            }
        }
        if !orphans.is_empty() {
            // Lost the race: the siblings were never linked.
            let _ = apply_writes(client, orphans, one_frame);
        }
        for (t, path, left, sep, id) in separators {
            trees[t].add_separator(&path, left, sep, id)?;
        }
        groups = reread_groups(&trees, client, reread, batch)?;
    }
    Err(Error::Unavailable("index insert retry limit exceeded".into()))
}

/// Add entry `i`, which descended to `d`, to the group of `d`'s leaf. A
/// fresh read of the leaf replaces the group's load-link.
fn join(groups: &mut Vec<Group>, tree: usize, d: Descent, i: usize) {
    match groups.iter_mut().find(|g| g.tree == tree && g.d.leaf_id == d.leaf_id) {
        Some(g) => {
            if !d.cached {
                g.d = d;
            }
            g.entries.push(i);
        }
        None => groups.push(Group { tree, d, entries: vec![i] }),
    }
}

/// Read every group's leaf fresh, in one exchange, and regroup its entries
/// on the leaves that hold their keys now (B-link right hops, in key
/// order, so each sibling is read once).
fn reread_groups<C: StoreApi, T>(
    trees: &[&DistributedBTree<C>],
    client: &C,
    reread: Vec<Group>,
    batch: &[(T, EntryKey)],
) -> Result<Vec<Group>> {
    let reads: Vec<_> = reread
        .iter()
        .map(|g| client.submit(StoreOp::Get { key: trees[g.tree].node_key(g.d.leaf_id) }))
        .collect();
    let mut groups = Vec::new();
    for (g, read) in reread.into_iter().zip(reads) {
        let tree = trees[g.tree];
        let fresh = tree.accept(g.d.leaf_id, read.wait()?.into_cell()?)?;
        let mut entries = g.entries;
        entries.sort_by(|a, b| cmp_entry(&batch[*a].1, &batch[*b].1));
        let mut d = Descent { leaf: fresh, cached: false, ..g.d };
        for i in entries {
            let leaf = d.leaf.clone();
            d = tree.settle(d, &batch[i].1, leaf)?;
            join(&mut groups, g.tree, d.clone(), i);
        }
    }
    Ok(groups)
}

/// The token a successful put-shaped write returned.
fn written_token(result: Result<Option<Token>>) -> Result<Token> {
    result?.ok_or_else(|| Error::corrupt("index node write returned no token"))
}

/// Append `leaf`'s entries `>= from` to `out`, stopping before the first
/// key that is `past` or once `out` holds `limit`. True when the scan must go
/// on into the right sibling: nothing stopped it here, and the high fence is
/// not `past` (keys at or above the fence live to the right).
fn scan_leaf(
    leaf: &NodeData,
    from: &EntryKey,
    past: &impl Fn(&[u8]) -> bool,
    limit: usize,
    out: &mut Vec<EntryKey>,
) -> bool {
    let start = leaf.entries.partition_point(|(ek, _)| cmp_entry(ek, from) == Ordering::Less);
    for (ek, _) in &leaf.entries[start..] {
        if out.len() >= limit || past(&ek.0) {
            return false;
        }
        out.push(ek.clone());
    }
    out.len() < limit && leaf.high.as_ref().is_some_and(|h| !past(&h.0))
}

/// Decode a node's store cell; a missing node is corruption.
fn decode_node(node_id: u64, cell: Option<(Token, Bytes)>) -> Result<Seen> {
    let (token, raw) =
        cell.ok_or_else(|| Error::corrupt(format!("index node {node_id} missing")))?;
    Ok((token, Arc::new(NodeData::decode(&raw)?)))
}

/// Remove and return the read of node `id` from a speculation's frame.
fn take(frame: &mut Vec<(u64, Seen)>, id: u64) -> Option<Seen> {
    let pos = frame.iter().position(|(i, _)| *i == id)?;
    Some(frame.swap_remove(pos).1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tell_store::{StoreCluster, StoreConfig};

    fn small_tree() -> DistributedBTree {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let client = StoreClient::unmetered(cluster);
        DistributedBTree::create(
            client,
            IndexId(1),
            BTreeConfig { max_entries: 4, max_retries: 10_000 },
        )
        .unwrap()
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn insert_lookup_remove() {
        let t = small_tree();
        assert!(t.insert(b("apple"), 1).unwrap());
        assert!(t.insert(b("banana"), 2).unwrap());
        assert!(!t.insert(b("apple"), 1).unwrap(), "duplicate entry rejected");
        assert_eq!(t.lookup(&b("apple")).unwrap(), vec![1]);
        assert_eq!(t.lookup(&b("cherry")).unwrap(), Vec::<u64>::new());
        assert!(t.remove(&b("apple"), 1).unwrap());
        assert!(!t.remove(&b("apple"), 1).unwrap());
        assert_eq!(t.lookup(&b("apple")).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn duplicate_keys_collect_all_rids() {
        let t = small_tree();
        for rid in [5u64, 1, 9, 3] {
            assert!(t.insert(b("dup"), rid).unwrap());
        }
        assert_eq!(t.lookup(&b("dup")).unwrap(), vec![1, 3, 5, 9]);
        t.remove(&b("dup"), 3).unwrap();
        assert_eq!(t.lookup(&b("dup")).unwrap(), vec![1, 5, 9]);
    }

    #[test]
    fn splits_cascade_and_order_is_kept() {
        let t = small_tree();
        let n = 500;
        for i in 0..n {
            assert!(t.insert(b(&format!("key{:05}", (i * 7919) % n)), i as u64).unwrap());
        }
        assert_eq!(t.check_invariants().unwrap(), n);
        assert_eq!(t.len().unwrap(), n);
        // Every key is findable.
        for i in 0..n {
            let key = b(&format!("key{:05}", i));
            assert_eq!(t.lookup(&key).unwrap().len(), 1, "missing {i}");
        }
    }

    #[test]
    fn range_scan_is_ordered_and_bounded() {
        let t = small_tree();
        for i in 0..100 {
            t.insert(b(&format!("r{:03}", i)), i as u64).unwrap();
        }
        let rows = t.range(&b("r010"), Some(&b("r020")), 1000).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].0, b("r010"));
        assert_eq!(rows[9].0, b("r019"));
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        // Limit applies.
        let limited = t.range(&b("r000"), None, 5).unwrap();
        assert_eq!(limited.len(), 5);
    }

    #[test]
    fn second_handle_sees_writes() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let t1 = DistributedBTree::create(
            StoreClient::unmetered(Arc::clone(&cluster)),
            IndexId(9),
            BTreeConfig { max_entries: 4, max_retries: 10_000 },
        )
        .unwrap();
        for i in 0..50 {
            t1.insert(b(&format!("x{:03}", i)), i).unwrap();
        }
        let t2 = DistributedBTree::open(
            StoreClient::unmetered(cluster),
            IndexId(9),
            BTreeConfig { max_entries: 4, max_retries: 10_000 },
        )
        .unwrap();
        assert_eq!(t2.len().unwrap(), 50);
        assert_eq!(t2.lookup(&b("x025")).unwrap(), vec![25]);
    }

    #[test]
    fn stale_cache_is_corrected_not_wrong() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let cfg = BTreeConfig { max_entries: 4, max_retries: 10_000 };
        let t1 = DistributedBTree::create(
            StoreClient::unmetered(Arc::clone(&cluster)),
            IndexId(3),
            cfg.clone(),
        )
        .unwrap();
        // Warm a second handle's cache with the small tree.
        let t2 =
            DistributedBTree::open(StoreClient::unmetered(Arc::clone(&cluster)), IndexId(3), cfg)
                .unwrap();
        for i in 0..10 {
            t1.insert(b(&format!("w{:04}", i)), i).unwrap();
        }
        t2.lookup(&b("w0005")).unwrap();
        // t1 grows the tree massively: t2's cached inner nodes are now stale.
        for i in 10..400 {
            t1.insert(b(&format!("w{:04}", i)), i).unwrap();
        }
        // t2 must still find everything through right-hops + path refresh.
        for i in (0..400).step_by(37) {
            assert_eq!(t2.lookup(&b(&format!("w{:04}", i))).unwrap(), vec![i as u64], "key {i}");
        }
        assert_eq!(t2.check_invariants().unwrap(), 400);
    }

    #[test]
    fn concurrent_inserts_lose_nothing() {
        let cluster = StoreCluster::new(StoreConfig::new(4));
        let cfg = BTreeConfig { max_entries: 8, max_retries: 100_000 };
        let t = DistributedBTree::create(
            StoreClient::unmetered(Arc::clone(&cluster)),
            IndexId(5),
            cfg.clone(),
        )
        .unwrap();
        let threads = 4;
        let per = 150;
        let mut handles = Vec::new();
        for th in 0..threads {
            let cluster = Arc::clone(&cluster);
            let cfg = cfg.clone();
            handles.push(std::thread::spawn(move || {
                let t = DistributedBTree::open(StoreClient::unmetered(cluster), IndexId(5), cfg)
                    .unwrap();
                // Groups of 1 to 10 entries, each spanning several leaves
                // that the other threads are writing and splitting too.
                let entries: Vec<_> = (0..per)
                    .map(|i| (&t, (b(&format!("c{:03}-{:03}", i, th)), (th * per + i) as u64)))
                    .collect();
                let mut rest = &entries[..];
                while !rest.is_empty() {
                    let (group, tail) = rest.split_at(rest.len().min(1 + (rest.len() + th) % 10));
                    assert!(insert_grouped(group, true).unwrap().iter().all(|fresh| *fresh));
                    rest = tail;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.check_invariants().unwrap(), threads * per);
        for th in 0..threads {
            for i in 0..per {
                let key = b(&format!("c{:03}-{:03}", i, th));
                assert_eq!(t.lookup(&key).unwrap(), vec![(th * per + i) as u64]);
            }
        }
    }

    #[test]
    fn concurrent_inserts_and_removes() {
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let cfg = BTreeConfig { max_entries: 8, max_retries: 100_000 };
        let t = DistributedBTree::create(
            StoreClient::unmetered(Arc::clone(&cluster)),
            IndexId(6),
            cfg.clone(),
        )
        .unwrap();
        for i in 0..200u64 {
            t.insert(b(&format!("d{:03}", i)), i).unwrap();
        }
        let remover = {
            let cluster = Arc::clone(&cluster);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let t = DistributedBTree::open(StoreClient::unmetered(cluster), IndexId(6), cfg)
                    .unwrap();
                for i in (0..200u64).step_by(2) {
                    assert!(t.remove(&b(&format!("d{:03}", i)), i).unwrap());
                }
            })
        };
        let inserter = {
            let cluster = Arc::clone(&cluster);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let t = DistributedBTree::open(StoreClient::unmetered(cluster), IndexId(6), cfg)
                    .unwrap();
                for i in 200..300u64 {
                    assert!(t.insert(b(&format!("d{:03}", i)), i).unwrap());
                }
            })
        };
        remover.join().unwrap();
        inserter.join().unwrap();
        // 200 - 100 removed + 100 added
        assert_eq!(t.check_invariants().unwrap(), 200);
        assert!(t.lookup(&b("d000")).unwrap().is_empty());
        assert_eq!(t.lookup(&b("d299")).unwrap(), vec![299]);
    }

    #[test]
    fn cache_reduces_store_reads() {
        use tell_common::SimClock;
        use tell_netsim::{NetMeter, NetworkProfile, TrafficStats};
        let cluster = StoreCluster::new(StoreConfig::new(2));
        let clock = SimClock::new();
        let stats = TrafficStats::new();
        let meter = NetMeter::new(NetworkProfile::infiniband(), clock.clone(), Arc::clone(&stats));
        let t = DistributedBTree::create(
            StoreClient::new(Arc::clone(&cluster), meter),
            IndexId(8),
            BTreeConfig { max_entries: 8, max_retries: 10_000 },
        )
        .unwrap();
        for i in 0..300 {
            t.insert(b(&format!("h{:04}", i)), i).unwrap();
        }
        let before = stats.request_count();
        for i in 0..300 {
            t.lookup(&b(&format!("h{:04}", i))).unwrap();
        }
        let with_cache = stats.request_count() - before;
        assert!(t.cache().stats().hit_ratio() > 0.5);
        // Cold path: a fresh handle with cache disabled conceptually — use
        // uncached descends by clearing the cache every lookup.
        let before = stats.request_count();
        for i in 0..300 {
            t.cache().clear();
            t.lookup(&b(&format!("h{:04}", i))).unwrap();
        }
        let without_cache = stats.request_count() - before;
        assert!(
            with_cache * 2 <= without_cache,
            "caching inner nodes must save requests: {with_cache} vs {without_cache}"
        );
    }

    #[test]
    fn empty_tree_operations() {
        let t = small_tree();
        assert!(t.is_empty().unwrap());
        assert_eq!(t.lookup(&b("nope")).unwrap(), Vec::<u64>::new());
        assert_eq!(t.range(&b(""), None, 10).unwrap(), Vec::new());
        assert!(!t.remove(&b("nope"), 0).unwrap());
        assert_eq!(t.check_invariants().unwrap(), 0);
    }
}
