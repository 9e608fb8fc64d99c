//! Processing nodes (§2.1, Fig 3).
//!
//! A [`ProcessingNode`] here is one *worker* with a synchronous processing
//! model ("a thread processes a transaction at a time", §6.1). The paper's
//! physical PNs run several such workers; workers of the same logical PN
//! share a [`PnGroup`] — the PN-wide record buffer and the `V_max` snapshot
//! the buffering strategies need.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tell_commitmgr::SnapshotDescriptor;
use tell_common::{IndexId, IsolationLevel, PnId, Result, SimClock, TableId};
use tell_index::DistributedBTree;
use tell_netsim::NetMeter;
use tell_store::{StoreCluster, StoreEndpoint};

use tell_obs::{Counter, Probe, Site, SpanStatus};

use crate::buffer::{BufferConfig, RecordBuffer};
use crate::catalog::TableDef;
use crate::database::Database;
use crate::metrics::PnMetrics;
use crate::txn::Transaction;

/// State shared by every worker of one logical processing node.
pub struct PnGroup {
    buffer: RecordBuffer,
    /// Snapshot of the most recently started transaction on this PN
    /// (`V_max` in §5.5.2).
    latest_snapshot: Mutex<SnapshotDescriptor>,
}

impl PnGroup {
    /// Fresh group with the given buffering strategy.
    pub fn new(buffer: BufferConfig) -> Self {
        PnGroup {
            buffer: RecordBuffer::new(buffer),
            latest_snapshot: Mutex::new(SnapshotDescriptor::bootstrap()),
        }
    }

    /// The PN-wide record buffer.
    pub fn buffer(&self) -> &RecordBuffer {
        &self.buffer
    }

    /// Current `V_max`.
    pub fn v_max(&self) -> SnapshotDescriptor {
        self.latest_snapshot.lock().clone()
    }

    pub(crate) fn note_started(&self, snapshot: &SnapshotDescriptor) {
        let mut latest = self.latest_snapshot.lock();
        if snapshot.base() >= latest.base() {
            *latest = snapshot.clone();
        }
    }
}

/// One worker of a processing node.
pub struct ProcessingNode<E: StoreEndpoint = Arc<StoreCluster>> {
    id: PnId,
    db: Arc<Database<E>>,
    client: E::Client,
    meter: NetMeter,
    group: Arc<PnGroup>,
    metrics: PnMetrics,
    trees: RefCell<HashMap<IndexId, Arc<DistributedBTree<E::Client>>>>,
    rid_ranges: RefCell<HashMap<TableId, (u64, u64)>>,
}

impl<E: StoreEndpoint> ProcessingNode<E> {
    pub(crate) fn new(
        id: PnId,
        db: Arc<Database<E>>,
        meter: NetMeter,
        group: Arc<PnGroup>,
    ) -> Self {
        let client = db.endpoint().client(meter.clone());
        ProcessingNode {
            id,
            db,
            client,
            meter,
            group,
            metrics: PnMetrics::new(),
            trees: RefCell::new(HashMap::new()),
            rid_ranges: RefCell::new(HashMap::new()),
        }
    }

    /// This worker's id.
    pub fn id(&self) -> PnId {
        self.id
    }

    /// The database this worker belongs to.
    pub fn database(&self) -> &Arc<Database<E>> {
        &self.db
    }

    /// The worker's metered storage client.
    pub fn client(&self) -> &E::Client {
        &self.client
    }

    /// The worker's network meter / virtual clock.
    pub fn meter(&self) -> &NetMeter {
        &self.meter
    }

    /// Virtual clock (microseconds of simulated time this worker has spent).
    pub fn clock(&self) -> &SimClock {
        self.meter.clock()
    }

    /// Shared PN state (buffer, V_max).
    pub fn group(&self) -> &Arc<PnGroup> {
        &self.group
    }

    /// Transaction metrics of this worker.
    pub fn metrics(&self) -> &PnMetrics {
        &self.metrics
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableDef>> {
        self.db.catalog().table(&self.client, name)
    }

    /// Begin a transaction (§4.3 step 1: contact the commit manager for a
    /// tid, a snapshot descriptor, and the lav). The worker stays pinned to
    /// one commit manager ("each node interacts with a dedicated
    /// authority", §4.1) so its own commits are always in its snapshots;
    /// fail-over to the next manager is automatic.
    pub fn begin(&self) -> Result<Transaction<'_, E>> {
        self.begin_at(self.db.config().isolation)
    }

    /// [`begin`](Self::begin) at an explicit isolation level, overriding
    /// the database-wide default for this one transaction. The level
    /// selects the snapshot the commit manager serves (stale-cached for
    /// NMSI) and the transaction's read rule and commit-time validation
    /// (per-read refresh at RC, read-set promotion at Serializable).
    pub fn begin_at(&self, level: IsolationLevel) -> Result<Transaction<'_, E>> {
        tell_obs::incr(Counter::TxnBegun);
        // The transaction's trace and root probe: the phase probes (and,
        // over the remote transport, RPC client spans) nest under it. Held
        // by the Transaction until completion so the root span covers the
        // whole lifetime, parked gaps included.
        let root = Probe::trace_root(self.clock().now_us());
        let begin = Probe::sampled(Site::TxnBegin, root.sample(), self.clock().now_us());
        // On failure the transaction never existed: dropping the probes
        // records nothing, discards whatever the trace's RPC attempts left
        // pending, and unpins the trace.
        let (start, cm) =
            self.db.commit_service().start_pinned(self.id.raw() as usize, level, &self.meter)?;
        begin.finish(self.clock().now_us(), 0, SpanStatus::Ok);
        self.group.note_started(&start.snapshot);
        Ok(Transaction::new(self, start, cm, level, root))
    }

    /// Run `body` inside a transaction, retrying on optimistic-concurrency
    /// conflicts up to `max_attempts` times. This is the idiom OLTP drivers
    /// use: SI aborts are expected and retried.
    pub fn run<T>(
        &self,
        max_attempts: usize,
        mut body: impl FnMut(&mut Transaction<'_, E>) -> Result<T>,
    ) -> Result<T> {
        let mut last = tell_common::Error::Conflict;
        for _ in 0..max_attempts {
            let mut txn = self.begin()?;
            match body(&mut txn) {
                Ok(value) => match txn.commit() {
                    Ok(()) => return Ok(value),
                    Err(e) if e.is_retryable() => {
                        last = e;
                        tell_obs::incr(Counter::TxnRetries);
                        // Let competitors finish their commits before we
                        // re-read; reduces optimistic-CC starvation when
                        // many workers share few cores.
                        std::thread::yield_now();
                        continue;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    if txn.is_running() {
                        txn.abort()?;
                    }
                    if e.is_retryable() {
                        last = e;
                        tell_obs::incr(Counter::TxnRetries);
                        std::thread::yield_now();
                        continue;
                    }
                    return Err(e);
                }
            }
        }
        Err(last)
    }

    /// The worker's handle to a B+tree (opened lazily, inner-node cache
    /// local to this worker per §5.3.1).
    pub fn tree(&self, index: IndexId) -> Result<Arc<DistributedBTree<E::Client>>> {
        if let Some(t) = self.trees.borrow().get(&index) {
            return Ok(Arc::clone(t));
        }
        let tree = Arc::new(DistributedBTree::open(
            self.client.clone(),
            index,
            self.db.config().btree.clone(),
        )?);
        self.trees.borrow_mut().insert(index, Arc::clone(&tree));
        Ok(tree)
    }

    /// Allocate a fresh record id for `table` from the worker's range
    /// (ranges come from the store's atomic counter).
    pub fn alloc_rid(&self, table: TableId) -> Result<u64> {
        let mut ranges = self.rid_ranges.borrow_mut();
        let range = ranges.entry(table).or_insert((1, 0));
        if range.0 > range.1 {
            *range = self.db.alloc_rid_range(&self.client, table)?;
        }
        let rid = range.0;
        range.0 += 1;
        Ok(rid)
    }
}
