//! Database construction and administration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use tell_commitmgr::manager::CmConfig;
use tell_commitmgr::{CmCluster, CmEndpoint, CommitService};
use tell_common::{Error, IndexId, PnId, Result, Rid, SimClock, TableId, TxnId};
use tell_index::{BTreeConfig, DistributedBTree};
use tell_netsim::{NetMeter, NetworkProfile, TrafficStats};
use tell_store::{keys, Expect, StoreApi, StoreCluster, StoreConfig, StoreEndpoint, WriteOp};

use crate::buffer::BufferConfig;
use crate::catalog::{Catalog, KeyExtractor, TableDef};
use crate::pn::{PnGroup, ProcessingNode};
use crate::record::VersionedRecord;

/// Everything needed to build a Tell deployment.
#[derive(Clone)]
pub struct TellConfig {
    /// Number of storage nodes.
    pub storage_nodes: usize,
    /// Replication factor (RF1/RF2/RF3 in the paper's experiments).
    pub replication_factor: usize,
    /// Number of commit managers (Table 3 varies this).
    pub commit_managers: usize,
    /// Logical store partitions; default derives from node count.
    pub partitions: Option<usize>,
    /// Optional per-SN memory capacity (Fig 7).
    pub node_capacity_bytes: Option<usize>,
    /// Network fabric (Fig 10 compares InfiniBand and 10 GbE).
    pub profile: NetworkProfile,
    /// Buffering strategy for processing nodes (Fig 11).
    pub buffer: BufferConfig,
    /// Commit-manager tuning.
    pub cm: CmConfig,
    /// Records ids allocated per counter round trip.
    pub rid_range: u64,
    /// B+tree node capacity / retry limits.
    pub btree: BTreeConfig,
    /// Combine storage operations into single exchanges (§5.1 "Tell
    /// aggressively batches operations"). Disabled only by the batching
    /// ablation benchmark.
    pub batching: bool,
    /// Optional storage-node persistence tier (see
    /// [`tell_store::durability`]). `None` keeps storage pure in-memory —
    /// the paper's base configuration, where durability is replication.
    pub store_durability: Option<Arc<dyn tell_store::DurabilityProvider>>,
    /// Default isolation level for transactions begun via
    /// [`crate::pn::ProcessingNode::begin`]; individual transactions can
    /// override it with `begin_at`. The paper's contract is SI.
    pub isolation: tell_common::IsolationLevel,
}

impl Default for TellConfig {
    fn default() -> Self {
        TellConfig {
            storage_nodes: 3,
            replication_factor: 1,
            commit_managers: 1,
            partitions: None,
            node_capacity_bytes: None,
            profile: NetworkProfile::infiniband(),
            buffer: BufferConfig::TransactionOnly,
            cm: CmConfig::default(),
            rid_range: 1024,
            btree: BTreeConfig::default(),
            batching: true,
            store_durability: None,
            isolation: tell_common::IsolationLevel::Si,
        }
    }
}

/// One index to create with a table: name, uniqueness, and the extractor
/// that derives the indexed key bytes from a row image.
pub struct IndexSpec {
    pub name: String,
    pub unique: bool,
    pub extractor: KeyExtractor,
}

impl IndexSpec {
    /// Convenience constructor.
    pub fn new(
        name: &str,
        unique: bool,
        extractor: impl Fn(&[u8]) -> Option<Bytes> + Send + Sync + 'static,
    ) -> Self {
        IndexSpec { name: name.to_string(), unique, extractor: Arc::new(extractor) }
    }
}

/// A running Tell database: the storage endpoint, the commit service, and
/// the shared catalog. Processing nodes are spawned from it.
///
/// Generic over the storage endpoint: the default `Arc<StoreCluster>` runs
/// everything in-process (the simulation harness); `tell-rpc`'s remote
/// endpoint runs the same code against storage nodes across TCP.
pub struct Database<E: StoreEndpoint = Arc<StoreCluster>> {
    endpoint: E,
    commit: Arc<dyn CommitService>,
    /// Local commit managers, when this process hosts them (built by
    /// [`Database::create`]). Remote deployments administer their commit
    /// managers in the server process and leave this empty.
    cms: Option<Arc<CmCluster<E>>>,
    catalog: Arc<Catalog>,
    extractors: RwLock<HashMap<IndexId, KeyExtractor>>,
    traffic: Arc<TrafficStats>,
    config: TellConfig,
    next_pn: AtomicU32,
}

impl Database {
    /// Build a fresh in-process deployment (storage cluster plus commit
    /// managers, all in this process).
    pub fn create(config: TellConfig) -> Arc<Database> {
        let mut store_cfg = StoreConfig::new(config.storage_nodes)
            .replication(config.replication_factor)
            .profile(config.profile.clone());
        if let Some(p) = config.partitions {
            store_cfg.partitions = p;
        }
        if let Some(c) = config.node_capacity_bytes {
            store_cfg = store_cfg.capacity(c);
        }
        if let Some(d) = &config.store_durability {
            store_cfg = store_cfg.durability(Arc::clone(d));
        }
        let store = StoreCluster::new(store_cfg);
        let cms = CmCluster::new(Arc::clone(&store), config.commit_managers, config.cm.clone());
        Arc::new(Database {
            endpoint: store,
            commit: Arc::clone(&cms) as Arc<dyn CommitService>,
            cms: Some(cms),
            catalog: Arc::new(Catalog::new()),
            extractors: RwLock::new(HashMap::new()),
            traffic: TrafficStats::new(),
            config,
            next_pn: AtomicU32::new(0),
        })
    }

    /// The storage cluster (in-process deployments only).
    pub fn store(&self) -> &Arc<StoreCluster> {
        &self.endpoint
    }
}

impl<E: StoreEndpoint> Database<E> {
    /// Open a database over an arbitrary storage endpoint and commit
    /// endpoint — the entry point for processing nodes that talk to remote
    /// storage nodes and commit managers (see `tell-rpc`). The two sides
    /// are symmetric: a local deployment passes (`Arc<StoreCluster>`,
    /// `Arc<CmCluster>`), a remote one (`RemoteEndpoint`,
    /// `Arc<RemoteCmClient>`): any `Arc` of a commit service is its own
    /// endpoint, a bare `Arc<dyn CommitService>` included.
    pub fn open<C: CmEndpoint>(endpoint: E, commit: C, config: TellConfig) -> Arc<Self> {
        Arc::new(Database {
            endpoint,
            commit: commit.commit_service(),
            cms: None,
            catalog: Arc::new(Catalog::new()),
            extractors: RwLock::new(HashMap::new()),
            traffic: TrafficStats::new(),
            config,
            next_pn: AtomicU32::new(0),
        })
    }

    /// The storage endpoint processing nodes mint their clients from.
    pub fn endpoint(&self) -> &E {
        &self.endpoint
    }

    /// The commit service transactions start against.
    pub fn commit_service(&self) -> &Arc<dyn CommitService> {
        &self.commit
    }

    /// The local commit managers. Panics on a remote deployment — those
    /// administer commit managers in the server process; use
    /// [`Database::commit_service`] for the operations every deployment has.
    pub fn commit_managers(&self) -> &Arc<CmCluster<E>> {
        self.cms.as_ref().expect(
            "no local commit managers: this database was opened over a remote \
             commit service; use commit_service() instead",
        )
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Deployment configuration.
    pub fn config(&self) -> &TellConfig {
        &self.config
    }

    /// Cluster-wide traffic counters (every PN meter feeds these).
    pub fn traffic(&self) -> &Arc<TrafficStats> {
        &self.traffic
    }

    /// An unmetered client for administrative work (DDL, loading, tests).
    pub fn admin_client(&self) -> E::Client {
        self.endpoint.unmetered_client()
    }

    /// Create a table together with its indexes and register the key
    /// extractors. The first index spec is the primary key.
    pub fn create_table(&self, name: &str, specs: Vec<IndexSpec>) -> Result<Arc<TableDef>> {
        let client = self.admin_client();
        let index_meta: Vec<(&str, bool)> =
            specs.iter().map(|s| (s.name.as_str(), s.unique)).collect();
        let def = self.catalog.create_table(&client, name, &index_meta)?;
        let mut extractors = self.extractors.write();
        for (idx, spec) in def.indexes.iter().zip(specs) {
            DistributedBTree::create(self.admin_client(), idx.id, self.config.btree.clone())?;
            extractors.insert(idx.id, spec.extractor);
        }
        Ok(def)
    }

    /// Add a secondary index to an existing table (`CREATE INDEX`):
    /// updates the catalog, creates the B+tree, registers the extractor
    /// and backfills entries for every stored version of every record.
    /// Concurrent writers should be quiesced, as in any online DDL.
    pub fn add_index(&self, table: &str, spec: IndexSpec) -> Result<Arc<TableDef>> {
        let client = self.admin_client();
        let (def, id) = self.catalog.add_index(&client, table, &spec.name, spec.unique)?;
        let tree = DistributedBTree::create(self.admin_client(), id, self.config.btree.clone())?;
        self.extractors.write().insert(id, Arc::clone(&spec.extractor));
        // Backfill from every stored version, so older snapshots can also
        // find their rows through the new index.
        let rows = client.scan_prefix(&keys::record_prefix(def.id), usize::MAX)?;
        for (key, _, raw) in rows {
            let Some((_, rid)) = keys::parse_record(&key) else { continue };
            let rec = VersionedRecord::decode(&raw)?;
            for v in rec.versions() {
                if let Some(p) = &v.payload {
                    if let Some(k) = (spec.extractor)(p) {
                        tree.insert(k, rid.raw())?;
                    }
                }
            }
        }
        Ok(def)
    }

    /// Extractor for an index (re-registered per process; see
    /// [`Database::register_extractor`] for attaching to pre-existing data).
    pub fn extractor(&self, id: IndexId) -> Option<KeyExtractor> {
        self.extractors.read().get(&id).cloned()
    }

    /// Attach an extractor for an index created elsewhere (another process
    /// opened the database; extractors are code, not data).
    pub fn register_extractor(&self, id: IndexId, f: KeyExtractor) {
        self.extractors.write().insert(id, f);
    }

    /// Spawn a processing node (one worker). Must be called on the thread
    /// that will use it — the node owns a thread-local virtual clock.
    pub fn processing_node(self: &Arc<Self>) -> ProcessingNode<E> {
        let group = Arc::new(PnGroup::new(self.config.buffer.clone()));
        self.processing_node_in_group(&group)
    }

    /// Spawn a worker that shares PN-level state (record buffer, V_max)
    /// with other workers of the same *logical* processing node. The paper's
    /// PNs run several worker threads; a [`PnGroup`] models one such PN.
    pub fn processing_node_in_group(self: &Arc<Self>, group: &Arc<PnGroup>) -> ProcessingNode<E> {
        let id = PnId(self.next_pn.fetch_add(1, Ordering::Relaxed));
        let clock = SimClock::new();
        let meter =
            NetMeter::new(self.config.profile.clone(), clock.clone(), Arc::clone(&self.traffic));
        ProcessingNode::new(id, Arc::clone(self), meter, Arc::clone(group))
    }

    /// Fresh PN group (a logical processing node's shared state).
    pub fn pn_group(&self) -> Arc<PnGroup> {
        Arc::new(PnGroup::new(self.config.buffer.clone()))
    }

    /// Bulk-load rows into a table outside any transaction (initial
    /// population, version 0). Returns the assigned rids. Maintains indexes.
    pub fn bulk_load(&self, table: &TableDef, rows: Vec<Bytes>) -> Result<Vec<Rid>> {
        let client = self.admin_client();
        let n = rows.len() as u64;
        if n == 0 {
            return Ok(Vec::new());
        }
        let hi = client.increment(&keys::counter(&format!("rid/{}", table.id.raw())), n)?;
        let base = hi - n + 1;
        let mut trees = Vec::new();
        for idx in &table.indexes {
            let tree =
                DistributedBTree::open(self.admin_client(), idx.id, self.config.btree.clone())?;
            let ex = self
                .extractor(idx.id)
                .ok_or_else(|| Error::invalid(format!("no extractor for index {}", idx.id)))?;
            trees.push((tree, ex));
        }
        // Record images go in as batched writes in chunks: one
        // batched frame per chunk on a remote endpoint instead of one
        // round trip per row (§5.1).
        const CHUNK: usize = 128;
        let mut rids = Vec::with_capacity(rows.len());
        let mut ops = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let rid = Rid(base + i as u64);
            let record = VersionedRecord::with_initial(TxnId::BOOTSTRAP, row.clone());
            ops.push(WriteOp::put(keys::record(table.id, rid), Expect::Absent, record.encode()));
            rids.push(rid);
        }
        while !ops.is_empty() {
            let tail = ops.split_off(ops.len().min(CHUNK));
            let chunk = std::mem::replace(&mut ops, tail);
            for result in client.multi_write(chunk)? {
                result?;
            }
        }
        for (rid, row) in rids.iter().zip(&rows) {
            for (tree, ex) in &trees {
                if let Some(key) = ex(row) {
                    tree.insert(key, rid.raw())?;
                }
            }
        }
        Ok(rids)
    }

    /// Allocate a rid range for a PN (`[lo, hi]` inclusive).
    pub(crate) fn alloc_rid_range(&self, client: &E::Client, table: TableId) -> Result<(u64, u64)> {
        let n = self.config.rid_range;
        let hi = client.increment(&keys::counter(&format!("rid/{}", table.raw())), n)?;
        Ok((hi - n + 1, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk_extractor() -> impl Fn(&[u8]) -> Option<Bytes> + Send + Sync {
        |row: &[u8]| row.get(..4).map(Bytes::copy_from_slice)
    }

    #[test]
    fn create_table_creates_trees_and_extractors() {
        let db = Database::create(TellConfig::default());
        let t = db.create_table("items", vec![IndexSpec::new("pk", true, pk_extractor())]).unwrap();
        assert_eq!(t.name, "items");
        let idx = t.primary_index().id;
        assert!(db.extractor(idx).is_some());
        // The tree exists and is empty.
        let tree = DistributedBTree::open(db.admin_client(), idx, BTreeConfig::default()).unwrap();
        assert!(tree.is_empty().unwrap());
    }

    #[test]
    fn bulk_load_populates_records_and_indexes() {
        let db = Database::create(TellConfig::default());
        let t = db.create_table("items", vec![IndexSpec::new("pk", true, pk_extractor())]).unwrap();
        let rows: Vec<Bytes> = (0..20u32)
            .map(|i| {
                let mut r = i.to_be_bytes().to_vec();
                r.extend_from_slice(b"payload");
                Bytes::from(r)
            })
            .collect();
        let rids = db.bulk_load(&t, rows).unwrap();
        assert_eq!(rids.len(), 20);
        let tree =
            DistributedBTree::open(db.admin_client(), t.primary_index().id, BTreeConfig::default())
                .unwrap();
        assert_eq!(tree.len().unwrap(), 20);
        let hits = tree.lookup(&Bytes::copy_from_slice(&7u32.to_be_bytes())).unwrap();
        assert_eq!(hits, vec![rids[7].raw()]);
    }

    #[test]
    fn rid_ranges_do_not_overlap() {
        let db = Database::create(TellConfig { rid_range: 16, ..TellConfig::default() });
        let t = db.create_table("t", vec![IndexSpec::new("pk", true, pk_extractor())]).unwrap();
        let c = db.admin_client();
        let (a_lo, a_hi) = db.alloc_rid_range(&c, t.id).unwrap();
        let (b_lo, b_hi) = db.alloc_rid_range(&c, t.id).unwrap();
        assert_eq!(a_hi - a_lo + 1, 16);
        assert!(b_lo > a_hi);
        assert_eq!(b_hi - b_lo + 1, 16);
    }
}
