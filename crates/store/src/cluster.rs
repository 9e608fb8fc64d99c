//! The storage cluster: logical partitions, replication, fail-over.
//!
//! The cluster is the *server side* of the store. It is a self-contained
//! system (§2.1 "the storage layer is autonomous"): it manages data
//! distribution and replication transparently; processing nodes only talk to
//! it through [`crate::client::StoreClient`], which adds network cost
//! metering.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use tell_common::{Error, PartitionId, Result, SnId};
use tell_netsim::NetworkProfile;

use crate::cell::{Cell, Token};
use crate::client::WriteOp;
use crate::durability::{DurabilityProvider, NodeDurability};
use crate::keys::Key;
use crate::node::{CopyStore, StorageNode};
use crate::predicate::Predicate;

/// One row returned by a scan: key, its LL/SC token, and the value.
pub type ScanRow = (Key, Token, Bytes);

/// Precondition of a conditional write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The key must not exist (insert).
    Absent,
    /// The key must exist with exactly this token (LL/SC store-conditional).
    Token(Token),
    /// No precondition (unconditional upsert; used for loading and for
    /// single-writer state like commit-manager snapshots).
    Any,
}

/// What one op of a batched mutation does to its key, decided from the
/// key's current cell under its partition's write lock.
enum Change {
    /// Store these bytes under a fresh token.
    Put(Bytes),
    /// Remove the (present) key.
    Delete,
    /// Leave the key as it is (an unconditional delete of a missing key).
    Keep,
}

/// A partition a batch writes, resolved before the batch takes any write
/// lock. The host list and the other copies are snapshots, so no
/// partition-level lock is taken while copy locks are held.
struct Resolved {
    master: SnId,
    /// Alive replicas at resolution: what the caller charges replication for.
    replicas: usize,
    copy: Arc<CopyStore>,
    hosts: Vec<SnId>,
    peers: Vec<(SnId, Arc<CopyStore>)>,
}

/// One mutation as [`NodeDurability::record_all`] takes it.
type Record<'a> = (u32, u64, &'a Key, Option<&'a Cell>);

/// A mutation a batch applied to a locked master copy, kept until its
/// record is durable so it can be logged, undone or replicated.
struct Applied {
    /// Index of the op in the batch.
    op: usize,
    /// Index of its partition among the batch's touched partitions.
    part: usize,
    seq: u64,
    /// The new cell, `None` for a delete.
    cell: Option<Cell>,
    /// What the key held before, for undo.
    prev: Option<Cell>,
    /// Footprint change on every node holding the copy.
    delta: isize,
}

/// One logical partition of the key space with its replica copies.
struct LogicalPartition {
    /// Monotonic token source for this partition. Shared by all copies so a
    /// fail-over never reuses a token.
    next_token: AtomicU64,
    /// Acked-mutation sequence: bumped (under the master copy's write lock)
    /// for every mutation the partition acknowledges. A copy whose
    /// `applied_seq` equals this is *fresh*; only fresh copies serve.
    seq: AtomicU64,
    /// Hosting nodes; the first *alive and fresh* entry is the master.
    assignment: RwLock<Vec<SnId>>,
    /// Physical copies, indexed by node id.
    copies: RwLock<Vec<(SnId, Arc<CopyStore>)>>,
}

impl LogicalPartition {
    fn copy_of(&self, node: SnId) -> Option<Arc<CopyStore>> {
        self.copies.read().iter().find(|(id, _)| *id == node).map(|(_, c)| Arc::clone(c))
    }
}

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of storage nodes.
    pub nodes: usize,
    /// Replication factor: number of copies of every partition (1 = no
    /// redundancy). Matches the paper's RF1/RF2/RF3 configurations.
    pub replication_factor: usize,
    /// Logical partitions. More partitions = finer write-lock granularity.
    pub partitions: usize,
    /// Optional per-node memory capacity in bytes (drives Fig 7).
    pub node_capacity_bytes: Option<usize>,
    /// Fabric connecting PNs and SNs.
    pub profile: NetworkProfile,
    /// Optional persistence tier: every acked mutation is recorded to the
    /// hosting nodes' engines, and [`StoreCluster::restart_node_from_log`]
    /// can rebuild a node from its log. `None` (the default) keeps the
    /// store pure in-memory.
    pub durability: Option<Arc<dyn DurabilityProvider>>,
}

impl StoreConfig {
    /// Reasonable defaults for `nodes` storage nodes.
    pub fn new(nodes: usize) -> Self {
        StoreConfig {
            nodes,
            replication_factor: 1,
            partitions: (nodes * 8).max(8),
            node_capacity_bytes: None,
            profile: NetworkProfile::infiniband(),
            durability: None,
        }
    }

    /// Set the replication factor.
    pub fn replication(mut self, rf: usize) -> Self {
        self.replication_factor = rf;
        self
    }

    /// Set per-node capacity.
    pub fn capacity(mut self, bytes: usize) -> Self {
        self.node_capacity_bytes = Some(bytes);
        self
    }

    /// Set the network profile.
    pub fn profile(mut self, profile: NetworkProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Attach a persistence tier.
    pub fn durability(mut self, provider: Arc<dyn DurabilityProvider>) -> Self {
        self.durability = Some(provider);
        self
    }
}

/// The distributed record store.
pub struct StoreCluster {
    nodes: Vec<Arc<StorageNode>>,
    partitions: Vec<LogicalPartition>,
    profile: NetworkProfile,
    replication_factor: usize,
    durability: Option<Arc<dyn DurabilityProvider>>,
    /// Per-node durability engines (all `None` without a provider).
    engines: RwLock<Vec<Option<Arc<dyn NodeDurability>>>>,
}

impl StoreCluster {
    /// Build a cluster per `config`. Partition `p` is hosted on nodes
    /// `p % n, (p+1) % n, ...` (RF entries), mirroring RamCloud's
    /// master/backup placement. Panics on a durability recovery error; use
    /// [`StoreCluster::open`] to handle those.
    pub fn new(config: StoreConfig) -> Arc<Self> {
        StoreCluster::open(config).expect("store durability recovery failed")
    }

    /// Like [`StoreCluster::new`], but surfaces durability recovery errors
    /// (corrupt checkpoint, unreadable data dir) instead of panicking. With
    /// a provider configured, each node's engine is opened and any
    /// recovered partition images are loaded before the cluster serves.
    pub fn open(config: StoreConfig) -> Result<Arc<Self>> {
        assert!(config.nodes > 0, "need at least one storage node");
        assert!(
            config.replication_factor >= 1 && config.replication_factor <= config.nodes,
            "replication factor must be between 1 and the node count"
        );
        let nodes: Vec<Arc<StorageNode>> = (0..config.nodes)
            .map(|i| Arc::new(StorageNode::new(SnId(i as u32), config.node_capacity_bytes)))
            .collect();
        let partitions: Vec<LogicalPartition> = (0..config.partitions)
            .map(|p| {
                let hosts: Vec<SnId> = (0..config.replication_factor)
                    .map(|r| SnId(((p + r) % config.nodes) as u32))
                    .collect();
                let copies = hosts.iter().map(|&id| (id, Arc::new(CopyStore::new()))).collect();
                LogicalPartition {
                    next_token: AtomicU64::new(1),
                    seq: AtomicU64::new(0),
                    assignment: RwLock::new(hosts),
                    copies: RwLock::new(copies),
                }
            })
            .collect();
        let cluster = Arc::new(StoreCluster {
            engines: RwLock::new(vec![None; nodes.len()]),
            nodes,
            partitions,
            profile: config.profile,
            replication_factor: config.replication_factor,
            durability: config.durability,
        });
        if cluster.durability.is_some() {
            for i in 0..cluster.nodes.len() {
                cluster.load_node_from_log(SnId(i as u32))?;
            }
        }
        Ok(cluster)
    }

    /// Open `id`'s durability engine and load whatever it recovered into
    /// the node's copies. The partition's acked sequence only ratchets up,
    /// so a copy recovered behind its peers is correctly stale.
    fn load_node_from_log(&self, id: SnId) -> Result<()> {
        let provider = self.durability.as_ref().expect("durability configured");
        let recovered = provider.open_node(id)?;
        let node = self.node(id);
        let mut total = 0usize;
        for image in recovered.partitions {
            let Some(part) = self.partitions.get(image.pid as usize) else { continue };
            // Placement is deterministic, but a partition re-homed by
            // restore_replication in a previous life may no longer map
            // here; those images are simply not loaded.
            let Some(copy) = part.copy_of(id) else { continue };
            let mut map = copy.map.write();
            map.clear();
            for (key, cell) in image.entries {
                total += Cell::footprint(key.len(), cell.value.len());
                map.insert(key, cell);
            }
            copy.applied_seq.store(image.applied_seq, Ordering::Release);
            part.seq.fetch_max(image.applied_seq, Ordering::Relaxed);
            part.next_token.fetch_max(image.max_token + 1, Ordering::Relaxed);
        }
        node.reset_accounting(total);
        self.engines.write()[id.raw() as usize] = Some(recovered.engine);
        Ok(())
    }

    /// The durability engine serving `id`, if any.
    fn engine_of(&self, id: SnId) -> Option<Arc<dyn NodeDurability>> {
        self.durability.as_ref()?;
        self.engines.read()[id.raw() as usize].clone()
    }

    /// Whether a persistence tier is attached.
    pub fn durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The fabric profile the cluster was built with.
    pub fn network_profile(&self) -> &NetworkProfile {
        &self.profile
    }

    /// Configured replication factor.
    pub fn replication_factor(&self) -> usize {
        self.replication_factor
    }

    /// All storage nodes.
    pub fn nodes(&self) -> &[Arc<StorageNode>] {
        &self.nodes
    }

    /// Number of logical partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total bytes stored across all alive nodes.
    pub fn total_used_bytes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_alive()).map(|n| n.used_bytes()).sum()
    }

    #[inline]
    fn partition_id(&self, key: &[u8]) -> usize {
        // FNV-1a; cheap, uniform enough for routing.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % self.partitions.len() as u64) as usize
    }

    /// Partition a key routes to (exposed for placement-aware tests).
    pub fn route(&self, key: &[u8]) -> PartitionId {
        PartitionId(self.partition_id(key) as u32)
    }

    fn node(&self, id: SnId) -> &Arc<StorageNode> {
        &self.nodes[id.raw() as usize]
    }

    /// Master (first alive *fresh* host) and alive replica count of a
    /// partition. A copy is fresh when it has applied every acked mutation;
    /// an alive-but-stale copy (revived while no fresh peer was up) must
    /// not serve, or it would resurrect data the partition already moved
    /// past. The check takes the copy's read lock briefly, which fences it
    /// against an in-flight write on the same copy.
    fn master_of(&self, pid: usize) -> Result<(SnId, usize)> {
        let part = &self.partitions[pid];
        let assignment = part.assignment.read();
        let mut master = None;
        let mut alive = 0usize;
        let mut saw_stale = false;
        for &host in assignment.iter() {
            if !self.node(host).is_alive() {
                continue;
            }
            alive += 1;
            if master.is_some() {
                continue;
            }
            let Some(copy) = part.copy_of(host) else { continue };
            let _guard = copy.map.read();
            if copy.applied_seq.load(Ordering::Acquire) == part.seq.load(Ordering::Acquire) {
                master = Some(host);
            } else {
                saw_stale = true;
            }
        }
        match master {
            Some(m) => Ok((m, alive - 1)),
            None if saw_stale => Err(Error::Unavailable(format!(
                "no fresh replica for partition {pid} (alive copies are stale)"
            ))),
            None => Err(Error::Unavailable(format!("no alive replica for partition {pid}"))),
        }
    }

    // ---------------------------------------------------------------
    // Server-side operations (no metering; the client layer charges).
    // ---------------------------------------------------------------

    /// Read a key from the partition master. Returns `(token, value)`.
    pub fn srv_read(&self, key: &[u8]) -> Result<Option<(Token, Bytes)>> {
        let pid = self.partition_id(key);
        let (master, _) = self.master_of(pid)?;
        let copy = self.partitions[pid]
            .copy_of(master)
            .ok_or_else(|| Error::Unavailable("master copy missing".into()))?;
        let map = copy.map.read();
        Ok(map.get(key).map(|c| (c.token, c.value.clone())))
    }

    /// Apply a batch of conditional writes with independent per-op results
    /// (the batch is a network optimisation, not an atomic unit — commit
    /// atomicity lives in the transaction layer above, §4.3). Each `Ok`
    /// carries the new token (`None` for deletes) and the number of
    /// replicas written. Ops see each other in op order, exactly as one
    /// write at a time would. This is the one write rule: a single write is
    /// a one-op batch, so a delete with `Expect::Absent` answers
    /// `Error::InvalidOperation` and a failed precondition
    /// `Error::Conflict` whether the op comes alone or batched. Each node's engine gets all of the batch's
    /// records on that node in one [`NodeDurability::record_all`], and
    /// the written partitions stay write-locked until then, so no reader
    /// sees a write before it is durable.
    pub fn srv_multi_write(&self, ops: Vec<WriteOp>) -> Vec<Result<(Option<Token>, usize)>> {
        let (keys, mut writes): (Vec<Key>, Vec<(Expect, Option<Bytes>)>) =
            ops.into_iter().map(|op| (op.key, (op.expect, op.value))).unzip();
        self.mutate(&keys, |i, existing| {
            let (expect, value) = &mut writes[i];
            match (*expect, existing) {
                (Expect::Absent, _) if value.is_none() => {
                    return Err(Error::invalid("delete with Expect::Absent is meaningless"))
                }
                (Expect::Absent, Some(_)) | (Expect::Token(_), None) => {
                    return Err(Error::Conflict)
                }
                (Expect::Token(t), Some(c)) if c.token != t => return Err(Error::Conflict),
                _ => {}
            }
            match value.take() {
                Some(v) => Ok(Change::Put(v)),
                None if existing.is_some() => Ok(Change::Delete),
                // Deleting a missing key unconditionally is a no-op.
                None if *expect == Expect::Any => Ok(Change::Keep),
                None => Err(Error::Conflict),
            }
        })
    }

    /// Atomic fetch-and-add on a counter cell (u64, little-endian). Missing
    /// counters start at zero. Returns the post-increment value.
    pub fn srv_increment(&self, key: &Key, delta: u64) -> Result<u64> {
        let mut new = 0;
        self.mutate(std::slice::from_ref(key), |_, existing| {
            let current = match existing {
                Some(c) => {
                    let bytes: [u8; 8] = c
                        .value
                        .as_ref()
                        .try_into()
                        .map_err(|_| Error::corrupt("counter cell is not 8 bytes"))?;
                    u64::from_le_bytes(bytes)
                }
                None => 0,
            };
            new = current.checked_add(delta).ok_or_else(|| Error::invalid("counter overflow"))?;
            Ok(Change::Put(Bytes::copy_from_slice(&new.to_le_bytes())))
        })
        .pop()
        .expect("one result per op")?;
        Ok(new)
    }

    /// The one mutation path. `change` decides, for each of `keys` in
    /// order and from the key's current cell, what the op does; `mutate`
    /// applies it:
    ///
    /// 1. resolve every touched partition's master — before any write
    ///    lock, because `master_of` read-locks copies;
    /// 2. write-lock those master copies in ascending partition order, so
    ///    two batches cannot deadlock;
    /// 3. check, allocate and apply each op in op order;
    /// 4. hand each master's durability engine all its records in one
    ///    [`NodeDurability::record_all`] — one fsync per node per request;
    /// 5. if an engine fails, undo its ops and roll their partitions'
    ///    sequences back, so each of those ops returns the error and the
    ///    partitions stay fresh (safe: only a fresh master allocates, and
    ///    it is locked);
    /// 6. replicate to every in-sync replica, then unlock.
    ///
    /// Readers need the master's read lock, so no reader sees a cell before
    /// its record is durable ([`NodeDurability`] says why that matters).
    fn mutate(
        &self,
        keys: &[Key],
        mut change: impl FnMut(usize, Option<&Cell>) -> Result<Change>,
    ) -> Vec<Result<(Option<Token>, usize)>> {
        let pids: Vec<usize> = keys.iter().map(|k| self.partition_id(k)).collect();
        let mut touched = pids.clone();
        touched.sort_unstable();
        touched.dedup();
        let resolved: Vec<Result<Resolved>> =
            touched.iter().map(|&pid| self.resolve(pid)).collect();
        let mut maps: Vec<Result<_>> = resolved
            .iter()
            .zip(&touched)
            .map(|(r, &pid)| {
                let r = r.as_ref().map_err(Clone::clone)?;
                let map = r.copy.map.write();
                if r.copy.applied_seq.load(Ordering::Acquire)
                    != self.partitions[pid].seq.load(Ordering::Acquire)
                {
                    return Err(Error::Unavailable(format!(
                        "master copy of partition {pid} went stale"
                    )));
                }
                Ok(map)
            })
            .collect();
        // Under the locks: each partition's sequence before the batch, and
        // the replicas current through it (only those receive the batch).
        let bases: Vec<u64> =
            touched.iter().map(|&pid| self.partitions[pid].seq.load(Ordering::Acquire)).collect();
        let in_sync: Vec<Vec<(SnId, Arc<CopyStore>)>> = resolved
            .iter()
            .zip(&bases)
            .map(|(r, &base)| match r {
                Ok(r) => r
                    .peers
                    .iter()
                    .filter(|(host, copy)| {
                        self.node(*host).is_alive()
                            && copy.applied_seq.load(Ordering::Acquire) == base
                    })
                    .cloned()
                    .collect(),
                Err(_) => Vec::new(),
            })
            .collect();

        let mut results = Vec::with_capacity(keys.len());
        let mut applied: Vec<Applied> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let p = touched.binary_search(&pids[i]).expect("every pid is touched");
            let map = match &mut maps[p] {
                Ok(map) => map,
                Err(e) => {
                    results.push(Err(e.clone()));
                    continue;
                }
            };
            let r = resolved[p].as_ref().expect("a locked partition resolved");
            let part = &self.partitions[pids[i]];
            let existing = map.get(key.as_ref());
            let old_footprint =
                existing.map_or(0, |c| Cell::footprint(key.len(), c.value.len()) as isize);
            let (token, cell, delta) = match change(i, existing) {
                Err(e) => {
                    results.push(Err(e));
                    continue;
                }
                Ok(Change::Keep) => {
                    results.push(Ok((None, 0)));
                    continue;
                }
                Ok(Change::Delete) => (None, None, -old_footprint),
                Ok(Change::Put(value)) => {
                    let delta = Cell::footprint(key.len(), value.len()) as isize - old_footprint;
                    // Capacity check against every hosting alive node before
                    // the write becomes visible anywhere.
                    let full = r
                        .hosts
                        .iter()
                        .map(|&h| self.node(h))
                        .find(|n| delta > 0 && n.is_alive() && n.would_exceed(delta as usize));
                    if let Some(n) = full {
                        results.push(Err(Error::CapacityExceeded {
                            node: n.id.raw(),
                            capacity: n.capacity_bytes().unwrap_or(0),
                        }));
                        continue;
                    }
                    let token = part.next_token.fetch_add(1, Ordering::Relaxed);
                    (Some(token), Some(Cell { token, value }), delta)
                }
            };
            let seq = part.seq.fetch_add(1, Ordering::AcqRel) + 1;
            let prev = match &cell {
                Some(c) => map.insert(key.clone(), c.clone()),
                None => map.remove(key.as_ref()),
            };
            r.copy.applied_seq.store(seq, Ordering::Release);
            self.node(r.master).account(delta);
            for (host, _) in &in_sync[p] {
                self.node(*host).account(delta);
            }
            applied.push(Applied { op: i, part: p, seq, cell, prev, delta });
            results.push(Ok((token, r.replicas)));
        }

        let master = |p: usize| resolved[p].as_ref().expect("applied partitions resolved").master;
        let mut masters: Vec<SnId> = applied.iter().map(|a| master(a.part)).collect();
        masters.sort_unstable();
        masters.dedup();
        for m in masters {
            let Some(engine) = self.engine_of(m) else { continue };
            let records: Vec<_> = applied
                .iter()
                .filter(|a| master(a.part) == m)
                .map(|a| (touched[a.part] as u32, a.seq, &keys[a.op], a.cell.as_ref()))
                .collect();
            let Err(e) = engine.record_all(&records) else { continue };
            for a in applied.iter_mut().rev().filter(|a| master(a.part) == m) {
                let map = maps[a.part].as_mut().expect("applied partitions are locked");
                let key = &keys[a.op];
                match a.prev.take() {
                    Some(c) => map.insert(key.clone(), c),
                    None => map.remove(key.as_ref()),
                };
                self.node(m).account(-a.delta);
                for (host, _) in &in_sync[a.part] {
                    self.node(*host).account(-a.delta);
                }
                results[a.op] = Err(e.clone());
            }
            for (p, r) in resolved.iter().enumerate() {
                match (r, &maps[p]) {
                    (Ok(r), Ok(_)) if r.master == m => {
                        self.partitions[touched[p]].seq.store(bases[p], Ordering::Release);
                        r.copy.applied_seq.store(bases[p], Ordering::Release);
                    }
                    _ => {}
                }
            }
            applied.retain(|a| master(a.part) != m);
        }

        self.replicate(&touched, &bases, &in_sync, keys, &applied);
        drop(maps);
        results
    }

    /// Apply a batch's durable mutations to every replica that was current
    /// through the batch's base sequence when the batch locked its masters,
    /// then log them: one `record_all` per replica node. A replica that
    /// died or moved meanwhile is skipped — applying the batch would not
    /// make it fresh, and advancing its `applied_seq` would falsely mark it
    /// so.
    fn replicate(
        &self,
        touched: &[usize],
        bases: &[u64],
        in_sync: &[Vec<(SnId, Arc<CopyStore>)>],
        keys: &[Key],
        applied: &[Applied],
    ) {
        let mut logs: Vec<(SnId, Vec<Record>)> = Vec::new();
        for (p, replicas) in in_sync.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
            let ops: Vec<&Applied> = applied.iter().filter(|a| a.part == p).collect();
            let Some(last) = ops.last() else { continue };
            for (host, copy) in replicas {
                let mut m = copy.map.write();
                if !self.node(*host).is_alive()
                    || copy.applied_seq.load(Ordering::Acquire) != bases[p]
                {
                    drop(m);
                    self.node(*host).account(-ops.iter().map(|a| a.delta).sum::<isize>());
                    continue;
                }
                for a in &ops {
                    match &a.cell {
                        Some(c) => m.insert(keys[a.op].clone(), c.clone()),
                        None => m.remove(keys[a.op].as_ref()),
                    };
                }
                copy.applied_seq.store(last.seq, Ordering::Release);
                drop(m);
                let at = match logs.iter().position(|(h, _)| h == host) {
                    Some(at) => at,
                    None => {
                        logs.push((*host, Vec::new()));
                        logs.len() - 1
                    }
                };
                let pid = touched[p] as u32;
                logs[at].1.extend(ops.iter().map(|a| (pid, a.seq, &keys[a.op], a.cell.as_ref())));
            }
        }
        for (host, records) in logs {
            // A replica engine that cannot log the records is equivalent to
            // a log that lost its tail in a crash: the copy stays fresh in
            // RAM, and a later restart-from-log recovers behind and re-syncs
            // from a fresh peer. Failing the batch instead would leave the
            // *remaining* replicas permanently stale.
            let Some(engine) = self.engine_of(host) else { continue };
            if engine.record_all(&records).is_err() {
                tell_obs::add(
                    tell_obs::Counter::DurableReplicaRecordsDropped,
                    records.len() as u64,
                );
            }
        }
    }

    /// A partition's master and its other copies, resolved before a batch
    /// takes any write lock.
    fn resolve(&self, pid: usize) -> Result<Resolved> {
        let (master, replicas) = self.master_of(pid)?;
        let part = &self.partitions[pid];
        let copies = part.copies.read();
        let copy = copies
            .iter()
            .find(|(id, _)| *id == master)
            .map(|(_, c)| Arc::clone(c))
            .ok_or_else(|| Error::Unavailable("master copy missing".into()))?;
        let peers = copies.iter().filter(|(id, _)| *id != master).cloned().collect();
        drop(copies);
        let hosts = part.assignment.read().clone();
        Ok(Resolved { master, replicas, copy, hosts, peers })
    }

    /// The one range read: an ordered scan of `[start, end)` across all
    /// partitions (scatter-gather from every master, merged). Each master
    /// tests its rows against `filter` before the merge — §5.2's selection
    /// pushdown — so `limit` counts admitted rows only. Returns at most
    /// `limit` rows in ascending key order (descending when `reverse`),
    /// plus, for cost accounting, the number of distinct master nodes
    /// contacted and the number of rows examined (every row in the range).
    /// An empty range (`end` before `start`) reads nothing.
    pub fn srv_scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        reverse: bool,
        filter: Option<&Predicate>,
    ) -> Result<(Vec<ScanRow>, usize, usize)> {
        if end.is_some_and(|e| e < start) {
            return Ok((Vec::new(), 0, 0));
        }
        let range = (Bound::Included(start), end.map_or(Bound::Unbounded, Bound::Excluded));
        let mut out: Vec<ScanRow> = Vec::new();
        let mut masters = std::collections::HashSet::new();
        let mut examined = 0;
        for pid in 0..self.partitions.len() {
            let (master, _) = self.master_of(pid)?;
            masters.insert(master);
            let copy = self.partitions[pid]
                .copy_of(master)
                .ok_or_else(|| Error::Unavailable("master copy missing".into()))?;
            let map = copy.map.read();
            for (k, c) in map.range::<[u8], _>(range) {
                examined += 1;
                if filter.is_none_or(|f| f.matches(k, &c.value)) {
                    out.push((k.clone(), c.token, c.value.clone()));
                }
            }
        }
        if reverse {
            out.sort_by(|a, b| b.0.cmp(&a.0));
        } else {
            out.sort_by(|a, b| a.0.cmp(&b.0));
        }
        out.truncate(limit);
        Ok((out, masters.len(), examined))
    }

    // ---------------------------------------------------------------
    // Failure handling.
    // ---------------------------------------------------------------

    /// Crash-stop a node. Partitions it mastered fail over to their first
    /// alive replica; with RF1 those partitions become unavailable.
    pub fn kill_node(&self, id: SnId) {
        self.node(id).kill();
    }

    /// Revive a failed node, re-syncing every copy it hosts from a *fresh*
    /// peer so it is consistent before serving again. Copies with no fresh
    /// peer to sync from are left untouched: if mutations were acked while
    /// the node was down they stay stale (and unserved); if none were, they
    /// are still fresh and serve immediately.
    pub fn revive_node(&self, id: SnId) {
        let node = self.node(id);
        let mut total = 0usize;
        for (pid, part) in self.partitions.iter().enumerate() {
            let Some(copy) = part.copy_of(id) else { continue };
            self.resync_copy_from_fresh_peer(pid, part, id, &copy);
            total += copy.footprint();
        }
        node.reset_accounting(total);
        node.revive();
    }

    /// If a fresh alive peer of partition `pid` exists, clone its state
    /// into `copy` (hosted on `id`) and re-align `id`'s durability log.
    fn resync_copy_from_fresh_peer(
        &self,
        pid: usize,
        part: &LogicalPartition,
        id: SnId,
        copy: &Arc<CopyStore>,
    ) {
        let assignment = part.assignment.read();
        let peers: Vec<SnId> =
            assignment.iter().filter(|h| **h != id && self.node(**h).is_alive()).copied().collect();
        drop(assignment);
        for peer in peers {
            let Some(src) = part.copy_of(peer) else { continue };
            let src_map = src.map.read();
            let src_seq = src.applied_seq.load(Ordering::Acquire);
            if src_seq != part.seq.load(Ordering::Acquire) {
                continue; // stale peer: not a legal sync source
            }
            let snapshot: BTreeMap<Bytes, Cell> = src_map.clone();
            drop(src_map);
            *copy.map.write() = snapshot.clone();
            copy.applied_seq.store(src_seq, Ordering::Release);
            if let Some(engine) = self.engine_of(id) {
                let entries: Vec<(Bytes, Cell)> = snapshot.into_iter().collect();
                // A re-alignment failure is safe to tolerate: the log's
                // recovered applied_seq stays behind the partition's, so a
                // future restart-from-log yields a correctly-stale copy
                // rather than resurrecting this state inconsistently.
                let _ = engine.reset_partition(pid as u32, src_seq, &entries);
            }
            return;
        }
    }

    /// Re-establish the replication factor after failures by placing new
    /// copies of under-replicated partitions on alive nodes ("the system
    /// re-organizes itself and restores the replication level", §4.4.2).
    /// Returns the number of copies created.
    pub fn restore_replication(&self) -> usize {
        let mut created = 0;
        for (pid, part) in self.partitions.iter().enumerate() {
            let mut copies = part.copies.write();
            let alive: Vec<SnId> =
                copies.iter().map(|(h, _)| *h).filter(|h| self.node(*h).is_alive()).collect();
            if alive.len() >= self.replication_factor || alive.is_empty() {
                continue;
            }
            let have: std::collections::HashSet<SnId> = copies.iter().map(|(h, _)| *h).collect();
            let candidates: Vec<SnId> = self
                .nodes
                .iter()
                .filter(|n| n.is_alive() && !have.contains(&n.id))
                .map(|n| n.id)
                .collect();
            // New copies must be cloned from a *fresh* source, or the new
            // replica would be born already holding resurrected state.
            let part_seq = part.seq.load(Ordering::Acquire);
            let Some(src) = copies
                .iter()
                .filter(|(h, _)| alive.contains(h))
                .find(|(_, c)| c.applied_seq.load(Ordering::Acquire) == part_seq)
                .map(|(_, c)| Arc::clone(c))
            else {
                continue;
            };
            for target in candidates.into_iter().take(self.replication_factor - alive.len()) {
                let snapshot: BTreeMap<Bytes, Cell> = src.map.read().clone();
                let src_seq = src.applied_seq.load(Ordering::Acquire);
                let fp: usize =
                    snapshot.iter().map(|(k, c)| Cell::footprint(k.len(), c.value.len())).sum();
                let new_copy = Arc::new(CopyStore::new());
                *new_copy.map.write() = snapshot.clone();
                new_copy.applied_seq.store(src_seq, Ordering::Release);
                copies.push((target, new_copy));
                part.assignment.write().push(target);
                self.node(target).account(fp as isize);
                if let Some(engine) = self.engine_of(target) {
                    let entries: Vec<(Bytes, Cell)> = snapshot.into_iter().collect();
                    let _ = engine.reset_partition(pid as u32, src_seq, &entries);
                }
                created += 1;
            }
        }
        created
    }

    /// Restart a node *from its durability log* instead of a peer re-sync:
    /// the crash-recovery path for a node whose RAM is gone. Its engine is
    /// closed and re-opened (replaying checkpoint + segments), every copy
    /// it hosts is rebuilt from the recovered images, and copies that are
    /// behind the partition's acked sequence are then re-synced from fresh
    /// peers where available. With every copy-holder of a partition dead,
    /// this is the only path that brings the partition back without data
    /// loss.
    pub fn restart_node_from_log(&self, id: SnId) -> Result<()> {
        if self.durability.is_none() {
            return Err(Error::invalid("restart_node_from_log requires a durability provider"));
        }
        // Drop the old engine handle first so the provider can re-open the
        // node's files exclusively (and its background threads stop).
        self.engines.write()[id.raw() as usize] = None;
        // A restart models RAM loss: wipe every hosted copy before loading
        // the recovered images.
        for part in &self.partitions {
            if let Some(copy) = part.copy_of(id) {
                copy.map.write().clear();
                copy.applied_seq.store(0, Ordering::Release);
            }
        }
        self.load_node_from_log(id)?;
        // Recovered-but-behind copies catch up from fresh peers (the node
        // missed writes while down, or its engine dropped replica records).
        for (pid, part) in self.partitions.iter().enumerate() {
            let Some(copy) = part.copy_of(id) else { continue };
            if copy.applied_seq.load(Ordering::Acquire) != part.seq.load(Ordering::Acquire) {
                self.resync_copy_from_fresh_peer(pid, part, id, &copy);
            }
        }
        let node = self.node(id);
        let total: usize =
            self.partitions.iter().filter_map(|p| p.copy_of(id)).map(|c| c.footprint()).sum();
        node.reset_accounting(total);
        node.revive();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(nodes: usize, rf: usize) -> Arc<StoreCluster> {
        StoreCluster::new(StoreConfig::new(nodes).replication(rf))
    }

    fn k(s: &str) -> Key {
        Bytes::copy_from_slice(s.as_bytes())
    }
    fn v(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// One conditional write: a one-op `srv_multi_write`.
    fn write(c: &StoreCluster, op: WriteOp) -> Result<(Option<Token>, usize)> {
        c.srv_multi_write(vec![op]).pop().expect("one result per op")
    }

    #[test]
    fn write_then_read() {
        let c = cluster(3, 1);
        let (t, _) = write(&c, WriteOp::put(k("a"), Expect::Absent, v("1"))).unwrap();
        let (token, val) = c.srv_read(b"a").unwrap().unwrap();
        assert_eq!(Some(token), t);
        assert_eq!(val, v("1"));
        assert_eq!(c.srv_read(b"missing").unwrap(), None);
    }

    #[test]
    fn insert_twice_conflicts() {
        let c = cluster(1, 1);
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("1"))).unwrap();
        let err = write(&c, WriteOp::put(k("a"), Expect::Absent, v("2"))).unwrap_err();
        assert_eq!(err, Error::Conflict);
    }

    #[test]
    fn store_conditional_detects_intervening_write() {
        let c = cluster(1, 1);
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("1"))).unwrap();
        let (t1, _) = c.srv_read(b"a").unwrap().unwrap();
        // Another writer sneaks in.
        write(&c, WriteOp::put(k("a"), Expect::Token(t1), v("2"))).unwrap();
        // First writer's SC must now fail.
        let err = write(&c, WriteOp::put(k("a"), Expect::Token(t1), v("3"))).unwrap_err();
        assert_eq!(err, Error::Conflict);
    }

    #[test]
    fn llsc_solves_aba() {
        // Delete + re-insert of the *same value* must still fail an SC that
        // load-linked before the delete (§4.1: LL/SC is stronger than CAS).
        let c = cluster(1, 1);
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("same"))).unwrap();
        let (t1, val1) = c.srv_read(b"a").unwrap().unwrap();
        write(&c, WriteOp::delete(k("a"), Expect::Token(t1))).unwrap();
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("same"))).unwrap();
        let (t2, val2) = c.srv_read(b"a").unwrap().unwrap();
        assert_eq!(val1, val2, "value is byte-identical (the ABA scenario)");
        assert_ne!(t1, t2, "but the token moved");
        let err = write(&c, WriteOp::put(k("a"), Expect::Token(t1), v("x"))).unwrap_err();
        assert_eq!(err, Error::Conflict);
    }

    #[test]
    fn conditional_delete() {
        let c = cluster(1, 1);
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("1"))).unwrap();
        let (t, _) = c.srv_read(b"a").unwrap().unwrap();
        assert_eq!(
            write(&c, WriteOp::delete(k("a"), Expect::Token(t + 99))).unwrap_err(),
            Error::Conflict
        );
        write(&c, WriteOp::delete(k("a"), Expect::Token(t))).unwrap();
        assert_eq!(c.srv_read(b"a").unwrap(), None);
        // Unconditional delete of a missing key is a no-op.
        let (none, _) = write(&c, WriteOp::delete(k("a"), Expect::Any)).unwrap();
        assert_eq!(none, None);
        // Conditional delete of a missing key conflicts.
        assert_eq!(
            write(&c, WriteOp::delete(k("a"), Expect::Token(t))).unwrap_err(),
            Error::Conflict
        );
    }

    #[test]
    fn increment_is_sequential() {
        let c = cluster(2, 1);
        let key = crate::keys::counter("tid");
        assert_eq!(c.srv_increment(&key, 5).unwrap(), 5);
        assert_eq!(c.srv_increment(&key, 256).unwrap(), 261);
        let (_, raw) = c.srv_read(&key).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(raw.as_ref().try_into().unwrap()), 261);
    }

    #[test]
    fn scan_is_ordered_across_partitions() {
        let c = cluster(4, 1);
        for i in 0..50u32 {
            let key = Bytes::from(format!("scan/{i:04}"));
            write(&c, WriteOp::put(key.clone(), Expect::Absent, v("x"))).unwrap();
        }
        let (rows, masters, examined) =
            c.srv_scan(b"scan/", Some(b"scan0"), 1000, false, None).unwrap();
        assert_eq!(rows.len(), 50);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(masters >= 1);
        assert_eq!(examined, 50);
        // Reverse scan with limit.
        let (rev, _, _) = c.srv_scan(b"scan/", Some(b"scan0"), 10, true, None).unwrap();
        assert_eq!(rev.len(), 10);
        assert!(rev.windows(2).all(|w| w[0].0 > w[1].0));
        assert_eq!(rev[0].0, Bytes::from("scan/0049"));
    }

    #[test]
    fn failover_to_replica_preserves_data() {
        let c = cluster(3, 2);
        for i in 0..100u32 {
            let key = Bytes::from(format!("k{i}"));
            write(&c, WriteOp::put(key.clone(), Expect::Absent, v("d"))).unwrap();
        }
        c.kill_node(SnId(0));
        // Every key must still be readable (RF2 tolerates one failure).
        for i in 0..100u32 {
            let key = format!("k{i}");
            assert!(c.srv_read(key.as_bytes()).unwrap().is_some(), "lost {key}");
        }
        // And writable: tokens keep increasing after failover.
        let (t, _) = c.srv_read(b"k1").unwrap().unwrap();
        write(&c, WriteOp::put(k("k1"), Expect::Token(t), v("new"))).unwrap();
    }

    #[test]
    fn rf1_failure_makes_some_partitions_unavailable() {
        let c = cluster(2, 1);
        for i in 0..64u32 {
            let key = Bytes::from(format!("k{i}"));
            write(&c, WriteOp::put(key.clone(), Expect::Absent, v("d"))).unwrap();
        }
        c.kill_node(SnId(0));
        let mut unavailable = 0;
        for i in 0..64u32 {
            if c.srv_read(format!("k{i}").as_bytes()).is_err() {
                unavailable += 1;
            }
        }
        assert!(unavailable > 0, "RF1 cannot survive a node failure");
    }

    #[test]
    fn revive_resyncs_stale_copies() {
        let c = cluster(2, 2);
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("1"))).unwrap();
        c.kill_node(SnId(0));
        // Update while node 0 is down: its copy goes stale.
        let (t, _) = c.srv_read(b"a").unwrap().unwrap();
        write(&c, WriteOp::put(k("a"), Expect::Token(t), v("2"))).unwrap();
        c.revive_node(SnId(0));
        c.kill_node(SnId(1));
        // Node 0 is master again and must serve the *new* value.
        let (_, val) = c.srv_read(b"a").unwrap().unwrap();
        assert_eq!(val, v("2"));
    }

    #[test]
    fn restore_replication_creates_new_copies() {
        let c = cluster(3, 2);
        for i in 0..30u32 {
            let key = Bytes::from(format!("k{i}"));
            write(&c, WriteOp::put(key.clone(), Expect::Absent, v("d"))).unwrap();
        }
        c.kill_node(SnId(0));
        let created = c.restore_replication();
        assert!(created > 0);
        // Now even a second failure must not lose data.
        c.kill_node(SnId(1));
        for i in 0..30u32 {
            let key = format!("k{i}");
            assert!(c.srv_read(key.as_bytes()).unwrap().is_some(), "lost {key}");
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let c = StoreCluster::new(StoreConfig::new(1).capacity(4096));
        let big = Bytes::from(vec![0u8; 2000]);
        write(&c, WriteOp::put(k("a"), Expect::Absent, big.clone())).unwrap();
        let err = write(&c, WriteOp::put(k("b"), Expect::Absent, Bytes::from(vec![0u8; 3000])));
        assert!(matches!(err, Err(Error::CapacityExceeded { .. })));
        // Overwriting in place (same size) still fits.
        let (t, _) = c.srv_read(b"a").unwrap().unwrap();
        write(&c, WriteOp::put(k("a"), Expect::Token(t), big)).unwrap();
        // Deleting frees space.
        write(&c, WriteOp::delete(k("a"), Expect::Any)).unwrap();
        write(&c, WriteOp::put(k("b"), Expect::Absent, Bytes::from(vec![0u8; 3000]))).unwrap();
    }

    #[test]
    fn replication_keeps_copies_identical() {
        let c = cluster(3, 3);
        write(&c, WriteOp::put(k("x"), Expect::Absent, v("1"))).unwrap();
        let (t0, v0) = c.srv_read(b"x").unwrap().unwrap();
        // Kill the master twice; every surviving replica must agree.
        c.kill_node(SnId(c.route(b"x").raw() % 3));
        let (t1, v1) = c.srv_read(b"x").unwrap().unwrap();
        assert_eq!((t0, v0), (t1, v1));
    }

    #[test]
    fn stale_revived_copy_is_unavailable_not_resurrected() {
        // RF2 on 2 nodes. Kill n0, ack a write (only n1 applied it), kill
        // n1, revive n0 with no fresh peer: n0 is alive but stale and must
        // refuse to serve the partition rather than hand back old state.
        let c = cluster(2, 2);
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("old"))).unwrap();
        c.kill_node(SnId(0));
        let (t, _) = c.srv_read(b"a").unwrap().unwrap();
        write(&c, WriteOp::put(k("a"), Expect::Token(t), v("new"))).unwrap();
        c.kill_node(SnId(1));
        c.revive_node(SnId(0));
        let err = c.srv_read(b"a").unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "stale copy served: {err:?}");
        // The fresh copy-holder coming back makes the partition serve the
        // acked value again (and n0 re-syncs next time it revives).
        c.revive_node(SnId(1));
        let (_, val) = c.srv_read(b"a").unwrap().unwrap();
        assert_eq!(val, v("new"));
    }

    // -----------------------------------------------------------------
    // Durability-seam tests against an in-memory mock provider (the real
    // log-structured engine is exercised from tell-durable's tests).
    // -----------------------------------------------------------------

    use crate::durability::{
        DurabilityProvider, NodeDurability, RecoveredNode, RecoveredPartition,
    };
    use parking_lot::Mutex;
    use std::collections::HashMap;

    #[derive(Debug)]
    enum MemOp {
        Record(u32, u64, Bytes, Option<Cell>),
        Reset(u32, u64, Vec<(Bytes, Cell)>),
    }

    /// In-memory stand-in for a persistence tier: one op log per node.
    /// Nodes listed in `failing` get an erroring engine (I/O fault stand-in).
    #[derive(Debug, Default)]
    struct MemProvider {
        logs: Arc<Mutex<HashMap<u32, Vec<MemOp>>>>,
        failing: Arc<Mutex<std::collections::HashSet<u32>>>,
    }

    #[derive(Debug)]
    struct MemEngine {
        logs: Arc<Mutex<HashMap<u32, Vec<MemOp>>>>,
        failing: Arc<Mutex<std::collections::HashSet<u32>>>,
        node: u32,
    }

    impl NodeDurability for MemEngine {
        fn record(&self, pid: u32, seq: u64, key: &Bytes, cell: Option<&Cell>) -> Result<()> {
            if self.failing.lock().contains(&self.node) {
                return Err(Error::Unavailable("engine i/o error".into()));
            }
            self.logs.lock().entry(self.node).or_default().push(MemOp::Record(
                pid,
                seq,
                key.clone(),
                cell.cloned(),
            ));
            Ok(())
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
        fn reset_partition(&self, pid: u32, seq: u64, entries: &[(Bytes, Cell)]) -> Result<()> {
            self.logs.lock().entry(self.node).or_default().push(MemOp::Reset(
                pid,
                seq,
                entries.to_vec(),
            ));
            Ok(())
        }
    }

    impl DurabilityProvider for MemProvider {
        fn open_node(&self, node: SnId) -> Result<RecoveredNode> {
            let mut parts: BTreeMap<u32, (u64, u64, BTreeMap<Bytes, Cell>)> = BTreeMap::new();
            let logs = self.logs.lock();
            for op in logs.get(&node.raw()).into_iter().flatten() {
                match op {
                    MemOp::Record(pid, seq, key, cell) => {
                        let p = parts.entry(*pid).or_default();
                        p.0 = p.0.max(*seq);
                        match cell {
                            Some(c) => {
                                p.1 = p.1.max(c.token);
                                p.2.insert(key.clone(), c.clone());
                            }
                            None => {
                                p.2.remove(key);
                            }
                        }
                    }
                    MemOp::Reset(pid, seq, entries) => {
                        let p = parts.entry(*pid).or_default();
                        p.0 = p.0.max(*seq);
                        p.2 = entries.iter().cloned().collect();
                        for (_, c) in entries {
                            p.1 = p.1.max(c.token);
                        }
                    }
                }
            }
            let partitions = parts
                .into_iter()
                .map(|(pid, (applied_seq, max_token, map))| RecoveredPartition {
                    pid,
                    applied_seq,
                    max_token,
                    entries: map.into_iter().collect(),
                })
                .collect();
            Ok(RecoveredNode {
                engine: Arc::new(MemEngine {
                    logs: Arc::clone(&self.logs),
                    failing: Arc::clone(&self.failing),
                    node: node.raw(),
                }),
                partitions,
            })
        }
    }

    fn durable_cluster(nodes: usize, rf: usize) -> (Arc<StoreCluster>, Arc<MemProvider>) {
        let provider = Arc::new(MemProvider::default());
        let c = StoreCluster::new(
            StoreConfig::new(nodes).replication(rf).durability(Arc::clone(&provider) as _),
        );
        (c, provider)
    }

    #[test]
    fn restart_from_log_rebuilds_a_fully_dead_partition() {
        let (c, _provider) = durable_cluster(1, 1);
        write(&c, WriteOp::put(k("keep"), Expect::Absent, v("v1"))).unwrap();
        write(&c, WriteOp::put(k("gone"), Expect::Absent, v("v2"))).unwrap();
        let (t, _) = c.srv_read(b"keep").unwrap().unwrap();
        write(&c, WriteOp::put(k("keep"), Expect::Token(t), v("v1-new"))).unwrap();
        write(&c, WriteOp::delete(k("gone"), Expect::Any)).unwrap();
        c.kill_node(SnId(0));
        assert!(c.srv_read(b"keep").is_err(), "RF1 with its only holder dead");
        c.restart_node_from_log(SnId(0)).unwrap();
        let (t_rec, val) = c.srv_read(b"keep").unwrap().unwrap();
        assert_eq!(val, v("v1-new"));
        assert_eq!(c.srv_read(b"gone").unwrap(), None, "delete replayed, not resurrected");
        // Tokens restart strictly above every recovered one (no ABA): a
        // post-restart write to the same partition observes a larger token.
        let (t_new, _) = write(&c, WriteOp::put(k("keep"), Expect::Token(t_rec), v("x"))).unwrap();
        assert!(t_new.unwrap() > t_rec);
    }

    #[test]
    fn master_engine_failure_keeps_write_invisible_and_partition_healthy() {
        let (c, provider) = durable_cluster(1, 1);
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("v1"))).unwrap();
        provider.failing.lock().insert(0);
        let err = write(&c, WriteOp::put(k("a"), Expect::Any, v("v2"))).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "got {err:?}");
        // The failed write never became visible: readers still see v1, and
        // the partition is not wedged by a leaked sequence number.
        let (_, val) = c.srv_read(b"a").unwrap().unwrap();
        assert_eq!(val, v("v1"));
        provider.failing.lock().remove(&0);
        write(&c, WriteOp::put(k("a"), Expect::Any, v("v3"))).unwrap();
        let (_, val) = c.srv_read(b"a").unwrap().unwrap();
        assert_eq!(val, v("v3"));
    }

    #[test]
    fn replica_engine_failure_does_not_abort_replication() {
        let (c, provider) = durable_cluster(3, 3);
        let p = c.route(b"a").raw() as usize;
        // Placement is deterministic: hosts are p, p+1, p+2 (mod 3).
        let (m, r1) = ((p % 3) as u32, ((p + 1) % 3) as u32);
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("v1"))).unwrap();
        provider.failing.lock().insert(r1);
        write(&c, WriteOp::put(k("a"), Expect::Any, v("v2"))).unwrap();
        // The replica *after* the failing one still applied the write: with
        // the master and the failing replica dead, the last copy is fresh
        // and serves the acked value.
        c.kill_node(SnId(m));
        c.kill_node(SnId(r1));
        let (_, val) = c.srv_read(b"a").unwrap().unwrap();
        assert_eq!(val, v("v2"));
    }

    #[test]
    fn cluster_reopen_recovers_from_provider() {
        let provider = Arc::new(MemProvider::default());
        {
            let c = StoreCluster::new(
                StoreConfig::new(2).replication(2).durability(Arc::clone(&provider) as _),
            );
            for i in 0..20u32 {
                let key = Bytes::from(format!("k{i}"));
                write(&c, WriteOp::put(key.clone(), Expect::Absent, v("d"))).unwrap();
            }
        }
        let c = StoreCluster::new(
            StoreConfig::new(2).replication(2).durability(Arc::clone(&provider) as _),
        );
        for i in 0..20u32 {
            let key = format!("k{i}");
            assert!(c.srv_read(key.as_bytes()).unwrap().is_some(), "lost {key} across reopen");
        }
    }

    #[test]
    fn restart_from_log_catches_up_from_fresh_peers() {
        // n0 dies, writes continue on n1, n0 restarts from its (behind)
        // log: recovered copies are stale and must re-sync from n1 before
        // serving.
        let (c, _provider) = durable_cluster(2, 2);
        write(&c, WriteOp::put(k("a"), Expect::Absent, v("one"))).unwrap();
        c.kill_node(SnId(0));
        let (t, _) = c.srv_read(b"a").unwrap().unwrap();
        write(&c, WriteOp::put(k("a"), Expect::Token(t), v("two"))).unwrap();
        c.restart_node_from_log(SnId(0)).unwrap();
        c.kill_node(SnId(1));
        let (_, val) = c.srv_read(b"a").unwrap().unwrap();
        assert_eq!(val, v("two"), "restarted node caught up past its log");
    }

    #[test]
    fn unavailable_killed_partition_revives_durably_after_everyone_dies() {
        // Both copy-holders die; restart them from their logs; everything
        // acked must be back and the stale-data window closed.
        let (c, _provider) = durable_cluster(2, 2);
        for i in 0..16u32 {
            let key = Bytes::from(format!("k{i}"));
            write(&c, WriteOp::put(key.clone(), Expect::Absent, v("d"))).unwrap();
        }
        c.kill_node(SnId(0));
        c.kill_node(SnId(1));
        assert!(c.srv_read(b"k0").is_err());
        c.restart_node_from_log(SnId(0)).unwrap();
        c.restart_node_from_log(SnId(1)).unwrap();
        for i in 0..16u32 {
            let key = format!("k{i}");
            assert!(c.srv_read(key.as_bytes()).unwrap().is_some(), "lost {key}");
        }
    }
}
