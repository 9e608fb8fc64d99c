//! The PN-side storage client.
//!
//! Every processing node (and every worker thread inside one) holds its own
//! `StoreClient`. The client is where network time is spent: each call
//! charges the worker's virtual clock through a [`NetMeter`]. Batched calls
//! ([`StoreClient::multi_get`], [`StoreClient::multi_write`]) charge a
//! *single* exchange — this implements the paper's claim that "batching
//! enables transactions to access multiple records with a single request"
//! (§5.1).

use std::sync::Arc;

use bytes::Bytes;
use tell_common::Result;
use tell_netsim::NetMeter;
use tell_obs::{Probe, Site, SpanStatus};

use crate::api::StoreApi;
use crate::cell::Token;
use crate::cluster::{ScanRow, StoreCluster};
use crate::keys::{prefix_end, Key};
use crate::op::{OpHandle, OpResult, StoreOp};
use crate::predicate::Predicate;

pub use crate::cluster::Expect;

/// Fixed protocol overhead charged per operation in a request.
const OP_OVERHEAD: usize = 32;
/// Size of a bare acknowledgement.
const ACK_BYTES: usize = 16;
/// Server-side CPU per row touched by a sequential scan, in µs. Much
/// cheaper than a point operation: scans stream through the ordered map.
const SCAN_ROW_CPU_US: f64 = 0.05;

/// One operation inside a batched write.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteOp {
    /// Target key.
    pub key: Key,
    /// Precondition.
    pub expect: Expect,
    /// `Some(bytes)` to put, `None` to delete.
    pub value: Option<Bytes>,
}

impl WriteOp {
    /// Conditional put.
    pub fn put(key: Key, expect: Expect, value: Bytes) -> Self {
        WriteOp { key, expect, value: Some(value) }
    }

    /// Conditional delete.
    pub fn delete(key: Key, expect: Expect) -> Self {
        WriteOp { key, expect, value: None }
    }

    fn payload_len(&self) -> usize {
        self.key.len() + self.value.as_ref().map(|v| v.len()).unwrap_or(0) + OP_OVERHEAD
    }
}

/// Handle to the storage cluster for one worker.
#[derive(Clone)]
pub struct StoreClient {
    cluster: Arc<StoreCluster>,
    meter: NetMeter,
}

impl StoreClient {
    /// New client charging `meter`.
    pub fn new(cluster: Arc<StoreCluster>, meter: NetMeter) -> Self {
        StoreClient { cluster, meter }
    }

    /// Client with free (zero-cost) metering, for tests.
    pub fn unmetered(cluster: Arc<StoreCluster>) -> Self {
        StoreClient { cluster, meter: NetMeter::free() }
    }

    /// The cluster this client talks to.
    pub fn cluster(&self) -> &Arc<StoreCluster> {
        &self.cluster
    }

    /// The meter charging this worker's clock.
    pub fn meter(&self) -> &NetMeter {
        &self.meter
    }

    /// Submit an operation. The local cluster is in-process memory, so the
    /// operation executes *now* — through the methods below, the one place
    /// each point operation is charged — and the returned handle is already
    /// complete. `StoreApi`'s blocking point methods are this plus `wait`,
    /// so their simulated-clock accounting is this method's. Overlap is a
    /// remote-transport phenomenon; in the simulation it is already priced
    /// into the batched multi-op charges (§5.1).
    pub fn submit(&self, op: StoreOp) -> OpHandle {
        let result = match op {
            StoreOp::Get { key } => self.get(&key).map(OpResult::Cell),
            StoreOp::MultiGet { keys } => self.multi_get(&keys).map(OpResult::Cells),
            StoreOp::Write { op } => self.write_one(op).map(OpResult::Written),
            StoreOp::MultiWrite { ops } => self.multi_write(ops).map(OpResult::WriteResults),
            StoreOp::Increment { key, delta } => self.increment(&key, delta).map(OpResult::Counter),
        };
        OpHandle::ready(result)
    }

    /// Load-link: read `key`, returning its token and value. The token is
    /// the link for a later
    /// [`StoreApi::store_conditional`].
    pub fn get(&self, key: &Key) -> Result<Option<(Token, Bytes)>> {
        let probe = Probe::enter(Site::StoreRead);
        self.meter.stats().note_reads(1);
        tell_obs::incr(tell_obs::Counter::StoreReadOps);
        let res = self.cluster.srv_read(key)?;
        let inn = res.as_ref().map(|(_, v)| v.len()).unwrap_or(0) + ACK_BYTES;
        self.meter.charge_request(key.len() + OP_OVERHEAD, inn, 1);
        probe.finish(0.0, 1, SpanStatus::Ok);
        Ok(res)
    }

    /// Batched load-link of several keys: **one** network exchange.
    pub fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<(Token, Bytes)>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let probe = Probe::enter(Site::StoreRead);
        self.meter.stats().note_reads(keys.len() as u64);
        tell_obs::add(tell_obs::Counter::StoreReadOps, keys.len() as u64);
        let mut out = Vec::with_capacity(keys.len());
        let mut in_bytes = ACK_BYTES;
        let mut out_bytes = 0;
        for key in keys {
            out_bytes += key.len() + OP_OVERHEAD;
            let res = self.cluster.srv_read(key)?;
            in_bytes += res.as_ref().map(|(_, v)| v.len()).unwrap_or(0) + 8;
            out.push(res);
        }
        self.meter.charge_request(out_bytes, in_bytes, keys.len());
        probe.finish(0.0, keys.len() as u32, SpanStatus::Ok);
        Ok(out)
    }

    /// One conditional write: put / insert / store-conditional / delete /
    /// delete-conditional, by the op's precondition and value.
    fn write_one(&self, op: WriteOp) -> Result<Option<Token>> {
        let payload = op.payload_len();
        // Charge the exchange whether or not it conflicts: a failed SC costs
        // a round trip too.
        let probe = Probe::enter(Site::StoreWrite);
        self.meter.stats().note_writes(1);
        tell_obs::incr(tell_obs::Counter::StoreWriteOps);
        self.meter.charge_request(payload, ACK_BYTES, 1);
        let written = self.cluster.srv_multi_write(vec![op]).pop().expect("one result per op");
        let status = if written.is_ok() { SpanStatus::Ok } else { SpanStatus::Conflict };
        probe.finish(0.0, 1, status);
        let (token, replicas) = written?;
        if replicas > 0 {
            self.meter.charge_replication(replicas, payload);
        }
        Ok(token)
    }

    /// Batched conditional writes: one exchange, independent per-op results
    /// (the batch is a network optimisation, not an atomic unit — commit
    /// atomicity lives in the transaction layer above, §4.3).
    pub fn multi_write(&self, ops: Vec<WriteOp>) -> Result<Vec<Result<Option<Token>>>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        // On a storage node serving a remote frame, the apply work gets its
        // own span under the dispatch span (site policy; the PN's in-process
        // path stays span-free, the install phase already covers it).
        let probe = Probe::enter(Site::StoreWrite);
        let op_count = ops.len() as u32;
        let payloads: Vec<usize> = ops.iter().map(|o| o.payload_len()).collect();
        self.meter.stats().note_writes(ops.len() as u64);
        tell_obs::add(tell_obs::Counter::StoreWriteOps, ops.len() as u64);
        self.meter.charge_request(payloads.iter().sum(), ACK_BYTES + 8 * ops.len(), ops.len());
        let results: Vec<Result<Option<Token>>> = self
            .cluster
            .srv_multi_write(ops)
            .into_iter()
            .zip(payloads)
            .map(|(result, payload)| {
                let (token, replicas) = result?;
                if replicas > 0 {
                    // Synchronous replication is per written object: the
                    // batch amortizes the client round trip, but every
                    // object still travels master -> backups before the
                    // ack (the dominant RF3 cost, Fig 5).
                    self.meter.charge_replication(replicas, payload);
                }
                Ok(token)
            })
            .collect();
        let status =
            if results.iter().any(|r| r.is_err()) { SpanStatus::Conflict } else { SpanStatus::Ok };
        probe.finish(0.0, op_count, status);
        Ok(results)
    }

    /// Atomic fetch-and-add, used to allocate tid/rid ranges (§4.2 "PNs can
    /// increment the counter by a high value to acquire a range").
    pub fn increment(&self, key: &Key, delta: u64) -> Result<u64> {
        self.meter.stats().note_writes(1);
        tell_obs::incr(tell_obs::Counter::StoreWriteOps);
        self.meter.charge_request(key.len() + 8 + OP_OVERHEAD, ACK_BYTES + 8, 1);
        self.cluster.srv_increment(key, delta)
    }

    /// Scan every key starting with `prefix`.
    pub fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Result<Vec<ScanRow>> {
        self.scan(prefix, prefix_end(prefix).as_deref(), limit, false, None)
    }

    /// The one range read every scan form is: the cluster filters and
    /// merges, and the client charges the exchange. The fan-out requests
    /// run in parallel, so one round trip carries the start key to every
    /// master contacted and the admitted rows back; the masters' CPU is
    /// charged per row examined, admitted or not — §5.2's pushdown trades
    /// storage-node CPU for bandwidth.
    fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        reverse: bool,
        filter: Option<&Predicate>,
    ) -> Result<Vec<ScanRow>> {
        let (rows, masters, examined) =
            self.cluster.srv_scan(start, end, limit, reverse, filter)?;
        let in_bytes: usize =
            rows.iter().map(|(k, _, v)| k.len() + v.len() + 16).sum::<usize>() + ACK_BYTES;
        self.meter.charge_request((start.len() + OP_OVERHEAD) * masters.max(1), in_bytes, 1);
        self.meter.charge_cpu(examined as f64 * SCAN_ROW_CPU_US);
        Ok(rows)
    }
}

impl StoreApi for StoreClient {
    fn submit(&self, op: StoreOp) -> OpHandle {
        StoreClient::submit(self, op)
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> Result<Vec<ScanRow>> {
        self.scan(start, end, limit, false, None)
    }

    fn scan_range_rev(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<ScanRow>> {
        self.scan(start, end, limit, true, None)
    }

    fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Result<Vec<ScanRow>> {
        StoreClient::scan_prefix(self, prefix, limit)
    }

    fn scan_prefix_pushdown(
        &self,
        prefix: &[u8],
        limit: usize,
        filter: &Predicate,
    ) -> Result<Vec<ScanRow>> {
        self.scan(prefix, prefix_end(prefix).as_deref(), limit, false, Some(filter))
    }

    fn meter(&self) -> &NetMeter {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StoreApi;
    use crate::cluster::StoreConfig;
    use tell_common::{Error, SimClock};
    use tell_netsim::{NetworkProfile, TrafficStats};

    fn client() -> StoreClient {
        StoreClient::unmetered(StoreCluster::new(StoreConfig::new(2)))
    }

    fn metered(rf: usize) -> (StoreClient, SimClock) {
        let clock = SimClock::new();
        let meter = NetMeter::new(NetworkProfile::infiniband(), clock.clone(), TrafficStats::new());
        let cluster = StoreCluster::new(StoreConfig::new(3).replication(rf));
        (StoreClient::new(cluster, meter), clock)
    }

    fn k(s: &str) -> Key {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn llsc_happy_path() {
        let c = client();
        let t0 = c.insert(&k("a"), Bytes::from_static(b"v1")).unwrap();
        let (t, v) = c.get(&k("a")).unwrap().unwrap();
        assert_eq!(t, t0);
        assert_eq!(v.as_ref(), b"v1");
        let t2 = c.store_conditional(&k("a"), t, Bytes::from_static(b"v2")).unwrap();
        assert!(t2 > t);
        assert_eq!(
            c.store_conditional(&k("a"), t, Bytes::from_static(b"v3")).unwrap_err(),
            Error::Conflict
        );
    }

    #[test]
    fn multi_get_preserves_order_and_misses() {
        let c = client();
        c.insert(&k("a"), Bytes::from_static(b"1")).unwrap();
        c.insert(&k("c"), Bytes::from_static(b"3")).unwrap();
        let res = c.multi_get(&[k("a"), k("b"), k("c")]).unwrap();
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].as_ref().unwrap().1.as_ref(), b"1");
        assert!(res[1].is_none());
        assert_eq!(res[2].as_ref().unwrap().1.as_ref(), b"3");
    }

    #[test]
    fn multi_write_results_are_independent() {
        let c = client();
        c.insert(&k("a"), Bytes::from_static(b"1")).unwrap();
        let (ta, _) = c.get(&k("a")).unwrap().unwrap();
        let results = c
            .multi_write(vec![
                WriteOp::put(k("a"), Expect::Token(ta), Bytes::from_static(b"2")),
                WriteOp::put(k("a"), Expect::Token(ta), Bytes::from_static(b"3")), // stale now
                WriteOp::put(k("b"), Expect::Absent, Bytes::from_static(b"new")),
            ])
            .unwrap();
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err(), &Error::Conflict);
        assert!(results[2].is_ok());
        assert_eq!(c.get(&k("a")).unwrap().unwrap().1.as_ref(), b"2");
    }

    #[test]
    fn batching_saves_virtual_time() {
        let (c, clock) = metered(1);
        let keys: Vec<Key> = (0..20).map(|i| k(&format!("key{i}"))).collect();
        for key in &keys {
            c.insert(key, Bytes::from_static(b"v")).unwrap();
        }
        clock.reset();
        c.multi_get(&keys).unwrap();
        let batched = clock.now_us();
        clock.reset();
        for key in &keys {
            c.get(key).unwrap();
        }
        let single = clock.now_us();
        assert!(batched * 3.0 < single, "batched={batched} single={single}");
    }

    #[test]
    fn replication_costs_time_on_writes_not_reads() {
        let (c1, clock1) = metered(1);
        let (c3, clock3) = metered(3);
        c1.insert(&k("x"), Bytes::from(vec![0u8; 200])).unwrap();
        c3.insert(&k("x"), Bytes::from(vec![0u8; 200])).unwrap();
        assert!(clock3.now_us() > clock1.now_us(), "RF3 writes are slower");
        clock1.reset();
        clock3.reset();
        c1.get(&k("x")).unwrap();
        c3.get(&k("x")).unwrap();
        // Reads go to the master only (§6.3.1): equal cost.
        assert!((clock1.now_us() - clock3.now_us()).abs() < 1e-9);
    }

    #[test]
    fn increment_allocates_ranges() {
        let c = client();
        let key = crate::keys::counter("tids");
        let hi = c.increment(&key, 256).unwrap();
        assert_eq!(hi, 256);
        let hi2 = c.increment(&key, 256).unwrap();
        assert_eq!(hi2, 512);
    }

    #[test]
    fn prefix_scan_returns_only_prefix() {
        let c = client();
        c.insert(&k("p/a"), Bytes::from_static(b"1")).unwrap();
        c.insert(&k("p/b"), Bytes::from_static(b"2")).unwrap();
        c.insert(&k("q/a"), Bytes::from_static(b"3")).unwrap();
        let rows = c.scan_prefix(b"p/", 100).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(key, _, _)| key.starts_with(b"p/")));
    }

    #[test]
    fn pushdown_scan_saves_bandwidth_not_server_work() {
        let (c, clock) = metered(1);
        for i in 0..100u32 {
            let key = Bytes::from(format!("t/{i:03}"));
            c.insert(&key, Bytes::from(vec![i as u8; 500])).unwrap();
        }
        clock.reset();
        let all = c.scan_prefix(b"t/", usize::MAX).unwrap();
        let full_cost = clock.now_us();
        assert_eq!(all.len(), 100);
        clock.reset();
        // v[0] == 0 or v[0] == 50: matches exactly rows 000 and 050.
        let pred = Predicate::Any(vec![
            Predicate::value_eq(0, vec![0u8]),
            Predicate::value_eq(0, vec![50u8]),
        ]);
        let filtered = c.scan_prefix_pushdown(b"t/", usize::MAX, &pred).unwrap();
        let pushdown_cost = clock.now_us();
        assert_eq!(filtered.len(), 2);
        assert!(
            pushdown_cost < full_cost * 0.6,
            "pushdown must be cheaper: {pushdown_cost} vs {full_cost}"
        );
    }

    #[test]
    fn submit_completes_immediately_with_identical_accounting() {
        let (c, clock) = metered(1);
        let keys: Vec<Key> = (0..8).map(|i| k(&format!("key{i}"))).collect();
        for key in &keys {
            c.insert(key, Bytes::from_static(b"v")).unwrap();
        }
        clock.reset();
        let blocking = c.multi_get(&keys).unwrap();
        let blocking_cost = clock.now_us();
        clock.reset();
        let h = c.submit(StoreOp::MultiGet { keys: keys.clone() });
        let asynced = h.wait().unwrap().into_cells().unwrap();
        let async_cost = clock.now_us();
        assert_eq!(blocking, asynced);
        assert!((blocking_cost - async_cost).abs() < 1e-9, "same virtual charge both ways");
    }

    #[test]
    fn submit_surfaces_typed_errors_in_the_handle() {
        let c = client();
        c.insert(&k("a"), Bytes::from_static(b"1")).unwrap();
        let (ta, _) = c.get(&k("a")).unwrap().unwrap();
        c.store_conditional(&k("a"), ta, Bytes::from_static(b"2")).unwrap();
        let op = WriteOp::put(k("a"), Expect::Token(ta), Bytes::from_static(b"x"));
        assert_eq!(c.submit(StoreOp::Write { op }).wait().unwrap_err(), Error::Conflict);
        let op = WriteOp::delete(k("a"), Expect::Absent);
        let h = c.submit(StoreOp::Write { op });
        assert!(matches!(h.wait().unwrap_err(), Error::InvalidOperation(_)));
    }

    #[test]
    fn concurrent_store_conditional_has_single_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cluster = StoreCluster::new(StoreConfig::new(4));
        let c0 = StoreClient::unmetered(Arc::clone(&cluster));
        c0.insert(&k("hot"), Bytes::from_static(b"0")).unwrap();
        let (token, _) = c0.get(&k("hot")).unwrap().unwrap();
        let wins = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..8 {
            let cluster = Arc::clone(&cluster);
            let wins = Arc::clone(&wins);
            handles.push(std::thread::spawn(move || {
                let c = StoreClient::unmetered(cluster);
                let val = Bytes::from(format!("w{i}"));
                if c.store_conditional(&k("hot"), token, val).is_ok() {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::Relaxed), 1, "exactly one SC wins per link");
    }
}
