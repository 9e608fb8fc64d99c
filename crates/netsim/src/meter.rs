//! Per-worker request metering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tell_common::SimClock;

use crate::profile::NetworkProfile;

/// Cluster-wide traffic counters, shared across all [`NetMeter`]s of a run.
/// Lets the harness report per-SN bandwidth the way §6.6 does ("total
/// bandwidth usage of one SN is ... MB/s").
#[derive(Debug, Default)]
pub struct TrafficStats {
    pub requests: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub bytes_received: AtomicU64,
    pub replication_bytes: AtomicU64,
    /// Read record operations (get / multi-get / scans), for workload
    /// write-ratio reporting (Table 2 of the paper).
    pub read_ops: AtomicU64,
    /// Write record operations (puts, conditional writes, increments).
    pub write_ops: AtomicU64,
}

impl TrafficStats {
    /// Fresh counters.
    pub fn new() -> Arc<Self> {
        Arc::new(TrafficStats::default())
    }

    /// Total bytes moved in either direction (excluding replication traffic).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed) + self.bytes_received.load(Ordering::Relaxed)
    }

    /// Number of request/response exchanges.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Fraction of record operations that are writes.
    pub fn write_ratio(&self) -> f64 {
        let r = self.read_ops.load(Ordering::Relaxed) as f64;
        let w = self.write_ops.load(Ordering::Relaxed) as f64;
        if r + w == 0.0 {
            0.0
        } else {
            w / (r + w)
        }
    }

    /// Count `n` read operations.
    pub fn note_reads(&self, n: u64) {
        self.read_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` write operations.
    pub fn note_writes(&self, n: u64) {
        self.write_ops.fetch_add(n, Ordering::Relaxed);
    }
}

/// Charges network costs for one worker thread against its [`SimClock`].
///
/// One `NetMeter` exists per storage-client handle; all meters of a benchmark
/// run share a [`TrafficStats`].
#[derive(Clone)]
pub struct NetMeter {
    profile: NetworkProfile,
    clock: SimClock,
    stats: Arc<TrafficStats>,
}

impl NetMeter {
    /// New meter over `profile`, charging `clock`.
    pub fn new(profile: NetworkProfile, clock: SimClock, stats: Arc<TrafficStats>) -> Self {
        NetMeter { profile, clock, stats }
    }

    /// Meter with zero-cost profile, for unit tests.
    pub fn free() -> Self {
        NetMeter::new(NetworkProfile::zero(), SimClock::new(), TrafficStats::new())
    }

    /// The fabric this meter charges for.
    pub fn profile(&self) -> &NetworkProfile {
        &self.profile
    }

    /// The worker clock being charged.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Shared traffic counters.
    pub fn stats(&self) -> &Arc<TrafficStats> {
        &self.stats
    }

    /// Charge one request/response exchange: `out` bytes to the server,
    /// `inn` bytes back, plus `server_ops` served operations (a batch of `k`
    /// gets is one exchange with `k` server ops). Returns the cost charged.
    pub fn charge_request(&self, out: usize, inn: usize, server_ops: usize) -> f64 {
        let bytes = out + inn;
        let cost = self.profile.rtt_us
            + bytes as f64 / self.profile.bandwidth_bytes_per_us
            + self.profile.server_op_us * server_ops.max(1) as f64;
        self.clock.advance(cost);
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_sent.fetch_add(out as u64, Ordering::Relaxed);
        self.stats.bytes_received.fetch_add(inn as u64, Ordering::Relaxed);
        cost
    }

    /// Charge synchronous replication of `bytes` to `replicas` backups.
    pub fn charge_replication(&self, replicas: usize, bytes: usize) -> f64 {
        let cost = self.profile.replication_cost_us(replicas, bytes);
        self.clock.advance(cost);
        self.stats.replication_bytes.fetch_add((replicas * bytes) as u64, Ordering::Relaxed);
        cost
    }

    /// Charge pure local CPU work (record deserialization, predicate
    /// evaluation...). Kept on the meter so all time flows through one place.
    pub fn charge_cpu(&self, us: f64) {
        self.clock.advance(us);
    }

    /// Record an exchange that happened over a *real* transport (tell-rpc).
    /// Wall-clock time was already spent on the wire, so the virtual clock
    /// is **not** advanced — charging simulated latency on top of real
    /// latency would double-count. Only the shared traffic counters are
    /// updated, so bandwidth/write-ratio reporting keeps working when PNs
    /// run against remote storage nodes.
    pub fn charge_real(&self, out: usize, inn: usize) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_sent.fetch_add(out as u64, Ordering::Relaxed);
        self.stats.bytes_received.fetch_add(inn as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_charges_clock_and_counters() {
        let clock = SimClock::new();
        let stats = TrafficStats::new();
        let m = NetMeter::new(NetworkProfile::infiniband(), clock.clone(), Arc::clone(&stats));
        let c = m.charge_request(100, 400, 1);
        assert!(c > 0.0);
        assert_eq!(clock.now_us(), c);
        assert_eq!(stats.request_count(), 1);
        assert_eq!(stats.total_bytes(), 500);
    }

    #[test]
    fn batch_is_cheaper_than_individual_requests() {
        let profile = NetworkProfile::infiniband();
        let batched = {
            let m = NetMeter::new(profile.clone(), SimClock::new(), TrafficStats::new());
            m.charge_request(10 * 64, 10 * 256, 10);
            m.clock().now_us()
        };
        let individual = {
            let m = NetMeter::new(profile, SimClock::new(), TrafficStats::new());
            for _ in 0..10 {
                m.charge_request(64, 256, 1);
            }
            m.clock().now_us()
        };
        assert!(
            batched < individual / 3.0,
            "batching must amortize round trips: batched={batched} individual={individual}"
        );
    }

    #[test]
    fn replication_tracked_separately() {
        let stats = TrafficStats::new();
        let m = NetMeter::new(NetworkProfile::infiniband(), SimClock::new(), Arc::clone(&stats));
        m.charge_replication(2, 1000);
        assert_eq!(stats.replication_bytes.load(Ordering::Relaxed), 2000);
        assert_eq!(stats.total_bytes(), 0);
        assert!(m.clock().now_us() > 0.0);
    }

    #[test]
    fn charge_real_counts_traffic_without_advancing_time() {
        let stats = TrafficStats::new();
        let m = NetMeter::new(NetworkProfile::infiniband(), SimClock::new(), Arc::clone(&stats));
        m.charge_real(128, 512);
        assert_eq!(m.clock().now_us(), 0.0, "real transport must not advance virtual time");
        assert_eq!(stats.request_count(), 1);
        assert_eq!(stats.total_bytes(), 640);
    }

    #[test]
    fn free_meter_is_free() {
        let m = NetMeter::free();
        m.charge_request(1 << 20, 1 << 20, 100);
        m.charge_replication(3, 1 << 20);
        assert_eq!(m.clock().now_us(), 0.0);
    }
}
