//! The sharded metrics registry.
//!
//! Hot-path design: every metric id is a compile-time enum discriminant, so
//! recording is an index into a fixed array — no hashing, no allocation, no
//! name lookup. Counters live in per-shard `AtomicU64`s updated with relaxed
//! ordering; histograms live in per-shard mutexes that are effectively
//! uncontended because each thread is pinned to one shard. A snapshot walks
//! all shards and merges, paying the synchronization cost on the cold read
//! side instead of the hot write side.
//!
//! The registry can be disabled (`set_enabled(false)`), which reduces every
//! recording call to a single relaxed atomic load — this is the "no-op
//! registry" used to bound instrumentation overhead in `benches/micro.rs`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use tell_common::Histogram;

use crate::snapshot::MetricsSnapshot;

id_enum! {
    /// Monotonic counter ids.
    Counter {
        /// Transactions started on any PN.
        TxnBegun => "txn_begun_total",
        /// Transactions committed.
        TxnCommitted => "txn_committed_total",
        /// Transactions aborted (conflict or user).
        TxnAborted => "txn_aborted_total",
        /// Aborts caused by an LL/SC conflict specifically.
        TxnConflicts => "txn_conflicts_total",
        /// Retry attempts beyond the first in `ProcessingNode::run`.
        TxnRetries => "txn_retries_total",
        /// Completed garbage-collection sweeps.
        GcCycles => "gc_cycles_total",
        /// Superseded versions dropped by GC.
        GcVersionsReclaimed => "gc_versions_reclaimed_total",
        /// Whole records deleted by GC.
        GcRecordsDeleted => "gc_records_deleted_total",
        /// Stale index entries removed by GC.
        GcIndexEntriesRemoved => "gc_index_entries_removed_total",
        /// Transaction-log entries truncated by GC.
        GcLogEntriesTruncated => "gc_log_entries_truncated_total",
        /// PN record-buffer hits.
        BufferHits => "buffer_hits_total",
        /// PN record-buffer misses.
        BufferMisses => "buffer_misses_total",
        /// Index node-cache hits.
        IndexCacheHits => "index_cache_hits_total",
        /// Index node-cache misses.
        IndexCacheMisses => "index_cache_misses_total",
        /// Index node-cache invalidations.
        IndexCacheInvalidations => "index_cache_invalidations_total",
        /// Point/multi-get reads issued by storage clients.
        StoreReadOps => "store_read_ops_total",
        /// Conditional writes issued by storage clients.
        StoreWriteOps => "store_write_ops_total",
        /// Frames decoded by RPC servers.
        RpcServerFramesIn => "rpc_server_frames_in_total",
        /// Frames written by RPC servers.
        RpcServerFramesOut => "rpc_server_frames_out_total",
        /// Payload bytes received by RPC servers.
        RpcServerBytesIn => "rpc_server_bytes_in_total",
        /// Payload bytes sent by RPC servers.
        RpcServerBytesOut => "rpc_server_bytes_out_total",
        /// Frames sent by RPC clients.
        RpcClientFramesOut => "rpc_client_frames_out_total",
        /// Frames received by RPC clients.
        RpcClientFramesIn => "rpc_client_frames_in_total",
        /// Payload bytes sent by RPC clients.
        RpcClientBytesOut => "rpc_client_bytes_out_total",
        /// Payload bytes received by RPC clients.
        RpcClientBytesIn => "rpc_client_bytes_in_total",
        /// `Request::Get` frames served.
        ReqGet => "rpc_req_get_total",
        /// `Request::MultiGet` frames served.
        ReqMultiGet => "rpc_req_multi_get_total",
        /// `Request::Write` frames served.
        ReqWrite => "rpc_req_write_total",
        /// `Request::MultiWrite` frames served.
        ReqMultiWrite => "rpc_req_multi_write_total",
        /// `Request::Increment` frames served.
        ReqIncrement => "rpc_req_increment_total",
        /// `Request::Scan` frames served.
        ReqScan => "rpc_req_scan_total",
        /// `Request::Ping` frames served.
        ReqPing => "rpc_req_ping_total",
        /// `Request::Batch` frames served (the envelope, not its inner ops).
        ReqBatch => "rpc_req_batch_total",
        /// Inner operations carried inside `Request::Batch` frames.
        ReqBatchInnerOps => "rpc_req_batch_inner_ops_total",
        /// `Request::CmStart` frames served.
        ReqCmStart => "rpc_req_cm_start_total",
        /// `Request::CmComplete` frames served.
        ReqCmComplete => "rpc_req_cm_complete_total",
        /// `Request::CmLav` frames served.
        ReqCmLav => "rpc_req_cm_lav_total",
        /// `Request::CmSync` frames served.
        ReqCmSync => "rpc_req_cm_sync_total",
        /// `Request::CmResolve` frames served.
        ReqCmResolve => "rpc_req_cm_resolve_total",
        /// `Request::Metrics` frames served.
        ReqMetrics => "rpc_req_metrics_total",
        /// `Request::Spans` frames served.
        ReqSpans => "rpc_req_spans_total",
        /// `Request::Telemetry` frames served.
        ReqTelemetry => "rpc_req_telemetry_total",
        /// Telemetry rollup ticks (time-series points appended to the ring).
        TelemetryRollups => "telemetry_rollups_total",
        /// Finished spans promoted to the span ring.
        SpansRecorded => "spans_recorded_total",
        /// Spans lost to ring eviction or pending-buffer overflow.
        SpansDropped => "spans_dropped_total",
        /// Traces retained for running over the slow-op budget.
        SlowOps => "slow_ops_total",
        /// Invocations of PN failure recovery.
        RecoveryRuns => "recovery_runs_total",
        /// Dangling write intents reverted during abort or recovery.
        RecoveryRevertedWrites => "recovery_reverted_writes_total",
        /// Records appended to durable segment logs.
        DurableAppends => "durable_log_appends_total",
        /// Payload bytes appended to durable segment logs.
        DurableAppendBytes => "durable_log_append_bytes_total",
        /// fsync calls issued by the durable tier.
        DurableFsyncs => "durable_fsyncs_total",
        /// Segments sealed (rotated out of the active write position).
        DurableSegmentsSealed => "durable_segments_sealed_total",
        /// Sealed segments deleted after a checkpoint subsumed them.
        DurableSegmentsRecycled => "durable_segments_recycled_total",
        /// Checkpoints completed by the durable tier.
        DurableCheckpoints => "durable_checkpoints_total",
        /// Live records written into checkpoint files.
        DurableCheckpointRecords => "durable_checkpoint_records_total",
        /// Records replayed from checkpoint + segments during recovery.
        DurableRecoveredRecords => "durable_recovered_records_total",
        /// Torn segment tails truncated away during recovery.
        DurableTornTailsTruncated => "durable_torn_tails_truncated_total",
        /// Replica-side durability records dropped because the replica's
        /// engine errored; the copy stays fresh in RAM and its log catches
        /// up via peer re-sync after a restart.
        DurableReplicaRecordsDropped => "durable_replica_records_dropped_total",
        /// Commit-manager state publishes deferred because the store was
        /// unavailable (marked pending, republished by the next operation).
        CmPublishDeferred => "cm_publish_deferred_total",
        /// Commit-manager periodic syncs skipped on store unavailability.
        CmSyncDeferred => "cm_sync_deferred_total",
        /// Reactor epoll_wait returns (one per wakeup, however many events).
        ReactorWakeups => "rpc_reactor_wakeups_total",
        /// Ready events delivered across all reactor wakeups.
        ReactorReadyEvents => "rpc_reactor_ready_events_total",
        /// Connections paused for reading because their buffered replies
        /// exceeded the write cap (slow-reader protection).
        ConnBackpressure => "rpc_conn_backpressure_total",
        /// `ProfMutex` acquires that found the lock held.
        LockContended => "lock_contended_total",
        /// Microseconds spent waiting in contended `ProfMutex` acquires.
        LockWaitUs => "lock_wait_us_total",
    }
}

id_enum! {
    /// Last-write-wins gauge ids (set, not accumulated; not sharded).
    Gauge {
        /// Lowest tid any snapshot may still observe (the GC horizon).
        CmLav => "cm_lav",
        /// Completion frontier: every tid below it has committed or aborted.
        CmBase => "cm_base",
        /// Highest tid handed out by the commit manager.
        CmWatermark => "cm_watermark",
        /// Upper end of the commit manager's pre-allocated tid range.
        CmTidLimit => "cm_tid_limit",
        /// Transactions currently in flight.
        CmActiveTxns => "cm_active_txns",
        /// `base - lav`: how far the GC horizon trails the completion
        /// frontier (a long-running snapshot shows up here).
        CmLavLag => "cm_lav_lag",
        /// `tid_limit - watermark`: tids remaining before the CM must fetch
        /// a fresh range.
        CmTidRangeRemaining => "cm_tid_range_remaining",
        /// Reply bytes buffered toward slow peers across all reactors.
        ReactorBufferedWriteBytes => "rpc_reactor_buffered_write_bytes",
    }
}

id_enum! {
    /// Histogram ids. Values are microseconds unless the name says
    /// otherwise.
    Phase {
        /// Transaction begin: snapshot acquisition from the commit manager.
        Begin => "txn_phase_begin_us",
        /// Read-set fetch: load-link reads against storage.
        ReadSetFetch => "txn_phase_read_us",
        /// Validation: write-set assembly and version checks on the PN.
        Validate => "txn_phase_validate_us",
        /// LL/SC install: the conditional multi-write round trip.
        LlscInstall => "txn_phase_install_us",
        /// Commit-manager completion: `set_committed` / `set_aborted`.
        CmComplete => "txn_phase_cm_complete_us",
        /// Whole transaction, begin to completion.
        TxnTotal => "txn_total_us",
        /// Operations coalesced per flushed async batch window (a size, not
        /// a latency).
        BatchWindow => "rpc_batch_window_ops",
        /// Wall-clock duration of one GC sweep.
        GcCycle => "gc_cycle_us",
    }
}

/// Number of shards. A small power of two: enough to keep a few dozen
/// worker threads from colliding, small enough that snapshots stay cheap.
pub const SHARDS: usize = 16;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The shard this thread records into. Assigned round-robin on first use so
/// worker threads spread evenly regardless of thread-id distribution.
pub(crate) fn shard_index() -> usize {
    SHARD_IDX.with(|c| {
        let mut idx = c.get();
        if idx == usize::MAX {
            idx = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            c.set(idx);
        }
        idx
    })
}

struct Shard {
    counters: [AtomicU64; Counter::COUNT],
    hists: [crate::prof::ProfMutex<Histogram>; Phase::COUNT],
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| {
                crate::prof::ProfMutex::new("obs.hist_shard", Histogram::new())
            }),
        }
    }
}

/// A sharded, enable-switchable metrics registry.
pub struct Registry {
    shards: Vec<Shard>,
    gauges: [AtomicU64; Gauge::COUNT],
    enabled: AtomicBool,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// New enabled registry.
    pub fn new() -> Self {
        Registry {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            enabled: AtomicBool::new(true),
        }
    }

    /// Turn recording on or off. Disabled, every recording call is a single
    /// relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if !self.enabled() {
            return;
        }
        self.shards[shard_index()].counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Set a gauge (last write wins).
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        if !self.enabled() {
            return;
        }
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&self, p: Phase, v: f64) {
        if !self.enabled() {
            return;
        }
        self.shards[shard_index()].hists[p as usize].lock().record(v);
    }

    /// Current value of one counter, summed across shards.
    pub fn counter(&self, c: Counter) -> u64 {
        self.shards.iter().map(|s| s.counters[c as usize].load(Ordering::Relaxed)).sum()
    }

    /// Current value of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Merged view of one histogram across shards.
    pub fn histogram(&self, p: Phase) -> Histogram {
        let mut out = Histogram::new();
        for s in &self.shards {
            out.merge(&s.hists[p as usize].lock());
        }
        out
    }

    /// Merge all shards into a point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters =
            Counter::ALL.iter().map(|&c| (c.name().to_string(), self.counter(c))).collect();
        let gauges = Gauge::ALL.iter().map(|&g| (g.name().to_string(), self.gauge(g))).collect();
        let mut histograms = Vec::with_capacity(Phase::COUNT);
        let mut buckets = Vec::new();
        for p in Phase::ALL {
            let h = self.histogram(p);
            histograms.push((p.name().to_string(), h.summary()));
            let nz = h.nonzero_buckets();
            if !nz.is_empty() {
                buckets.push((p.name().to_string(), nz));
            }
        }
        MetricsSnapshot { counters, gauges, histograms, buckets, locks: Vec::new() }
    }

    /// Zero every counter, gauge, and histogram. For tests and benches.
    pub fn reset(&self) {
        for s in &self.shards {
            for c in &s.counters {
                c.store(0, Ordering::Relaxed);
            }
            for h in &s.hists {
                *h.lock() = Histogram::new();
            }
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
    }
}

/// The process-wide registry every instrumentation point records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

thread_local! {
    /// This thread's shard of the *global* registry, resolved once. Skips
    /// the `OnceLock` + shard lookup on every global recording call.
    static GLOBAL_SHARD: Cell<Option<&'static Shard>> = const { Cell::new(None) };
}

#[inline]
fn global_shard() -> &'static Shard {
    GLOBAL_SHARD.with(|cell| match cell.get() {
        Some(s) => s,
        None => {
            let s = &global().shards[shard_index()];
            cell.set(Some(s));
            s
        }
    })
}

/// Fast-path `add` against the global registry.
#[inline]
pub(crate) fn global_add(c: Counter, n: u64) {
    if !global().enabled() {
        return;
    }
    global_shard().counters[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Fast-path `observe` against the global registry.
#[inline]
pub(crate) fn global_observe(p: Phase, v: f64) {
    if !global().enabled() {
        return;
    }
    global_shard().hists[p as usize].lock().record(v);
}

/// Help text for an exposition name (as produced by `Counter::name` and
/// friends), from the id's doc comment. Linear scan over the three small
/// namespaces — this only runs on the cold exposition path.
pub fn help_for(name: &str) -> Option<&'static str> {
    Counter::ALL
        .iter()
        .find(|c| c.name() == name)
        .map(|c| c.help())
        .or_else(|| Gauge::ALL.iter().find(|g| g.name() == name).map(|g| g.help()))
        .or_else(|| Phase::ALL.iter().find(|p| p.name() == name).map(|p| p.help()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.incr(Counter::TxnCommitted);
                    }
                });
            }
        });
        assert_eq!(reg.counter(Counter::TxnCommitted), 8000);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        reg.set_enabled(false);
        reg.incr(Counter::TxnAborted);
        reg.observe(Phase::Begin, 10.0);
        reg.set_gauge(Gauge::CmBase, 7);
        assert_eq!(reg.counter(Counter::TxnAborted), 0);
        assert_eq!(reg.histogram(Phase::Begin).count(), 0);
        assert_eq!(reg.gauge(Gauge::CmBase), 0);
        reg.set_enabled(true);
        reg.incr(Counter::TxnAborted);
        assert_eq!(reg.counter(Counter::TxnAborted), 1);
    }

    #[test]
    fn histograms_merge_across_threads() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let reg = &reg;
                s.spawn(move || {
                    for i in 0..100 {
                        global(); // touch the global too, must not interfere
                        reg.observe(Phase::LlscInstall, (t * 100 + i) as f64);
                    }
                });
            }
        });
        let h = reg.histogram(Phase::LlscInstall);
        assert_eq!(h.count(), 400);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 399.0);
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Registry::new();
        reg.incr(Counter::GcCycles);
        reg.observe(Phase::GcCycle, 3.0);
        reg.set_gauge(Gauge::CmWatermark, 9);
        reg.reset();
        assert_eq!(reg.counter(Counter::GcCycles), 0);
        assert_eq!(reg.histogram(Phase::GcCycle).count(), 0);
        assert_eq!(reg.gauge(Gauge::CmWatermark), 0);
    }

    #[test]
    fn every_metric_has_single_line_help() {
        let all = Counter::ALL
            .iter()
            .map(|c| c.help())
            .chain(Gauge::ALL.iter().map(|g| g.help()))
            .chain(Phase::ALL.iter().map(|p| p.help()));
        for h in all {
            assert!(!h.is_empty());
            assert!(!h.contains('\n'));
            assert!(!h.starts_with(' '));
        }
        assert_eq!(help_for("txn_begun_total"), Some("Transactions started on any PN."));
        assert_eq!(help_for("cm_lav"), Some(Gauge::CmLav.help()));
        assert_eq!(help_for("no_such_metric"), None);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(Phase::ALL.iter().map(|p| p.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
