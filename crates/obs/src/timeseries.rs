//! Per-node telemetry time series: fixed-cadence rollups of the metrics
//! registry into a bounded ring of [`TsPoint`]s.
//!
//! The registry answers "what is the value *now*"; every interesting
//! question in the paper — throughput ramps (Tables 2–3), latency tails
//! (Table 5 TP99/TP999), abort-rate spikes — is about *rates and tails over
//! a window*. A [`Rollup`] closes that gap: every interval it reads the
//! registry once, subtracts the previous reading, and appends one point
//! holding **counter deltas**, **gauge samples**, and **per-phase quantile
//! digests** (p50/p99/p999 computed from the raw bucket difference, so the
//! digest describes only the samples recorded in that window, not the
//! process lifetime).
//!
//! Design rules:
//!
//! * **No hot-path cost.** Nothing here is called from transaction or RPC
//!   code; the rollup is a periodic reader of the same sharded registry the
//!   hot path already writes. The only new cost is the merge the rollup
//!   pays, on its own thread (or its own sim turn).
//! * **O(1) append, bounded memory.** The ring is a drop-oldest `VecDeque`
//!   with a monotonically increasing sequence number per point; readers
//!   scrape incrementally with [`TsRing::since`] and a cursor, so a scrape
//!   never re-transfers history and eviction never blocks the writer.
//! * **Two clocks.** Under tell-sim the turnstile drives [`Rollup::roll`]
//!   on the virtual clock with `wall_us = 0`, keeping the produced history
//!   bit-reproducible per seed. Everywhere else a background thread
//!   ([`ensure_wall_driver`]) rolls the global registry on the wall clock.
//!
//! The wire shape ([`TelemetryPage`], served by `Request::Telemetry`)
//! carries the points indexed by the metric declaration order every node
//! of a cluster shares; an id past the end of a point reads 0.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use tell_common::codec::{Reader, Writer};
use tell_common::{bucket_quantile, Error, Result};

use crate::registry::{Counter, Gauge, Phase, Registry};

/// Points kept per ring. At the default wall cadence (250 ms) this is a
/// little over two minutes of history — enough for any rate/trend rule
/// window while keeping a ring under ~400 KiB.
pub const DEFAULT_RING_POINTS: usize = 512;

/// Default wall-clock rollup interval in milliseconds (override with the
/// `TELL_TELEMETRY_MS` environment variable).
pub const DEFAULT_WALL_INTERVAL_MS: u64 = 250;

/// Hard cap on points returned per [`TelemetryPage`] (and accepted per
/// decoded page): incremental scrape, not bulk export.
pub const MAX_PAGE_POINTS: usize = 1024;

/// Quantile digest of one histogram over one rollup interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseDigest {
    /// Samples recorded during the interval.
    pub count: u64,
    /// Median estimate over the interval (bucket upper bound; 0 when the
    /// interval recorded no samples).
    pub p50: f64,
    /// TP99 estimate over the interval.
    pub p99: f64,
    /// TP999 estimate over the interval.
    pub p999: f64,
}

impl PhaseDigest {
    fn encode(&self, w: &mut impl Writer) {
        w.put_u64(self.count);
        w.put_f64(self.p50);
        w.put_f64(self.p99);
        w.put_f64(self.p999);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(PhaseDigest { count: r.u64()?, p50: r.f64()?, p99: r.f64()?, p999: r.f64()? })
    }
}

/// One telemetry interval: counter deltas, gauge samples, and phase digests,
/// in the producing registry's declaration order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TsPoint {
    /// Ring-assigned sequence number, monotonically increasing from 1 and
    /// never reused; the scrape cursor is "highest seq seen".
    pub seq: u64,
    /// Virtual clock at the rollup (microseconds; 0 under the wall driver).
    pub virt_us: f64,
    /// Wall clock at the rollup (microseconds since the Unix epoch; 0 under
    /// tell-sim so seeded histories stay bit-reproducible).
    pub wall_us: u64,
    /// Counter *deltas* since the previous point, indexed like
    /// `Counter::ALL`.
    pub counters: Vec<u64>,
    /// Gauge values sampled at the rollup, indexed like `Gauge::ALL`.
    pub gauges: Vec<u64>,
    /// Per-histogram interval digests, indexed like `Phase::ALL`.
    pub phases: Vec<PhaseDigest>,
}

impl TsPoint {
    /// Counter delta by id (0 past the end of the point).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c as usize).copied().unwrap_or(0)
    }

    /// Gauge sample by id.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges.get(g as usize).copied().unwrap_or(0)
    }

    /// Phase digest by id.
    pub fn phase(&self, p: Phase) -> PhaseDigest {
        self.phases.get(p as usize).copied().unwrap_or_default()
    }

    /// Append the wire encoding.
    pub fn encode(&self, w: &mut impl Writer) {
        w.put_u64(self.seq);
        w.put_f64(self.virt_us);
        w.put_u64(self.wall_us);
        w.put_u32(self.counters.len() as u32);
        for v in &self.counters {
            w.put_u64(*v);
        }
        w.put_u32(self.gauges.len() as u32);
        for v in &self.gauges {
            w.put_u64(*v);
        }
        w.put_u32(self.phases.len() as u32);
        for d in &self.phases {
            d.encode(w);
        }
    }

    /// Decode one point from the reader.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let seq = r.u64()?;
        let virt_us = r.f64()?;
        let wall_us = r.u64()?;
        let mut p = TsPoint { seq, virt_us, wall_us, ..TsPoint::default() };
        let n = check_len(r.u32()?)?;
        for _ in 0..n {
            p.counters.push(r.u64()?);
        }
        let n = check_len(r.u32()?)?;
        for _ in 0..n {
            p.gauges.push(r.u64()?);
        }
        let n = check_len(r.u32()?)?;
        for _ in 0..n {
            p.phases.push(PhaseDigest::decode(r)?);
        }
        Ok(p)
    }
}

/// Metric sets, and a histogram's buckets, are small; any larger length in
/// a decoded point or snapshot is a corrupt or hostile frame, rejected
/// before allocating.
pub(crate) fn check_len(n: u32) -> Result<u32> {
    if n > 4096 {
        return Err(Error::corrupt(format!("decoded vector length {n} exceeds 4096")));
    }
    Ok(n)
}

struct RingInner {
    points: VecDeque<TsPoint>,
    capacity: usize,
    next_seq: u64,
    evicted: u64,
}

/// Bounded drop-oldest ring of [`TsPoint`]s with cursor-based incremental
/// reads. One mutex, held only for O(1) append or an O(returned) copy —
/// never on any transaction or RPC path.
pub struct TsRing {
    inner: Mutex<RingInner>,
}

impl TsRing {
    /// Empty ring holding at most `capacity` points.
    pub fn new(capacity: usize) -> Self {
        TsRing {
            inner: Mutex::new(RingInner {
                points: VecDeque::with_capacity(capacity.min(DEFAULT_RING_POINTS)),
                capacity: capacity.max(1),
                next_seq: 1,
                evicted: 0,
            }),
        }
    }

    /// Append one point, assigning its sequence number (the point's `seq`
    /// field on entry is ignored). Returns the assigned seq.
    pub fn push(&self, mut point: TsPoint) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        point.seq = seq;
        if inner.points.len() == inner.capacity {
            inner.points.pop_front();
            inner.evicted += 1;
        }
        inner.points.push_back(point);
        seq
    }

    /// Points with `seq > cursor` (oldest first, at most `max`), plus the
    /// next cursor to pass (the highest seq returned, or the highest seq in
    /// the ring when nothing is newer). A cursor from a previous process
    /// incarnation that is *ahead* of this ring resets to the beginning, so
    /// a restarted node's history is not silently skipped.
    pub fn since(&self, cursor: u64, max: usize) -> (Vec<TsPoint>, u64) {
        let inner = self.inner.lock();
        let latest = inner.next_seq - 1;
        let cursor = if cursor > latest { 0 } else { cursor };
        let out: Vec<TsPoint> =
            inner.points.iter().filter(|p| p.seq > cursor).take(max).cloned().collect();
        let next = out.last().map(|p| p.seq).unwrap_or(latest);
        (out, next)
    }

    /// The most recent point, if any.
    pub fn latest(&self) -> Option<TsPoint> {
        self.inner.lock().points.back().cloned()
    }

    /// Highest sequence number assigned so far (0 when empty).
    pub fn latest_seq(&self) -> u64 {
        self.inner.lock().next_seq - 1
    }

    /// Points currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().points.len()
    }

    /// True when no points are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points dropped to the capacity bound since creation.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().evicted
    }
}

/// Periodic rollup driver: reads a registry, subtracts its previous
/// reading, and appends one [`TsPoint`] per call to a ring.
///
/// Baselines start at zero, so the first `roll` reports totals since the
/// registry was created — a point like any other. Counter regressions
/// (`Registry::reset` mid-run) clamp to zero instead of wrapping.
pub struct Rollup {
    ring: Arc<TsRing>,
    prev_counters: Vec<u64>,
    prev_buckets: Vec<Vec<u64>>,
    prev_phase_counts: Vec<u64>,
}

impl Rollup {
    /// Rollup appending into `ring`.
    pub fn new(ring: Arc<TsRing>) -> Self {
        Rollup {
            ring,
            prev_counters: vec![0; Counter::COUNT],
            prev_buckets: vec![Vec::new(); Phase::COUNT],
            prev_phase_counts: vec![0; Phase::COUNT],
        }
    }

    /// The ring this rollup appends to.
    pub fn ring(&self) -> &Arc<TsRing> {
        &self.ring
    }

    /// Take one rollup: read `reg`, append the interval point stamped with
    /// the given clocks, and return it (with its assigned seq).
    ///
    /// Bumps `Counter::TelemetryRollups` in `reg` *before* reading, so the
    /// tick's own increment lands in its own delta deterministically.
    pub fn roll(&mut self, reg: &Registry, virt_us: f64, wall_us: u64) -> TsPoint {
        reg.incr(Counter::TelemetryRollups);
        let mut counters = Vec::with_capacity(Counter::COUNT);
        for (i, &c) in Counter::ALL.iter().enumerate() {
            let now = reg.counter(c);
            counters.push(now.saturating_sub(self.prev_counters[i]));
            self.prev_counters[i] = now;
        }
        let gauges: Vec<u64> = Gauge::ALL.iter().map(|&g| reg.gauge(g)).collect();
        let mut phases = Vec::with_capacity(Phase::COUNT);
        for (i, &p) in Phase::ALL.iter().enumerate() {
            let h = reg.histogram(p);
            let now = h.bucket_counts();
            let prev = &self.prev_buckets[i];
            let delta: Vec<u64> = if prev.is_empty() {
                now.to_vec()
            } else {
                now.iter().zip(prev.iter()).map(|(a, b)| a.saturating_sub(*b)).collect()
            };
            phases.push(PhaseDigest {
                count: h.count().saturating_sub(self.prev_phase_counts[i]),
                p50: bucket_quantile(&delta, 0.50),
                p99: bucket_quantile(&delta, 0.99),
                p999: bucket_quantile(&delta, 0.999),
            });
            self.prev_buckets[i] = now.to_vec();
            self.prev_phase_counts[i] = h.count();
        }
        let mut point = TsPoint { seq: 0, virt_us, wall_us, counters, gauges, phases };
        point.seq = self.ring.push(point.clone());
        point
    }
}

/// One incremental telemetry scrape, as carried by `Response::Telemetry`.
/// Its points are indexed by this build's `Counter::ALL`, `Gauge::ALL` and
/// `Phase::ALL`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryPage {
    /// Points newer than the request's cursor, oldest first.
    pub points: Vec<TsPoint>,
    /// Cursor to pass in the next scrape.
    pub next_cursor: u64,
}

impl TelemetryPage {
    /// Append the wire encoding.
    pub fn encode(&self, w: &mut impl Writer) {
        w.put_u32(self.points.len() as u32);
        for p in &self.points {
            p.encode(w);
        }
        w.put_u64(self.next_cursor);
    }

    /// Decode one page from the reader.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let mut page = TelemetryPage::default();
        let n = r.u32()?;
        if n as usize > MAX_PAGE_POINTS {
            return Err(Error::corrupt(format!("telemetry page of {n} points exceeds cap")));
        }
        for _ in 0..n {
            page.points.push(TsPoint::decode(r)?);
        }
        page.next_cursor = r.u64()?;
        Ok(page)
    }
}

/// The process-wide telemetry ring every server answers
/// `Request::Telemetry` from.
pub fn global_ring() -> &'static Arc<TsRing> {
    static RING: OnceLock<Arc<TsRing>> = OnceLock::new();
    RING.get_or_init(|| Arc::new(TsRing::new(DEFAULT_RING_POINTS)))
}

/// Build a [`TelemetryPage`] from the global ring for the given cursor.
pub fn page_since(cursor: u64) -> TelemetryPage {
    let (points, next_cursor) = global_ring().since(cursor, MAX_PAGE_POINTS);
    TelemetryPage { points, next_cursor }
}

fn global_rollup() -> &'static Mutex<Rollup> {
    static ROLLUP: OnceLock<Mutex<Rollup>> = OnceLock::new();
    ROLLUP.get_or_init(|| Mutex::new(Rollup::new(Arc::clone(global_ring()))))
}

/// Roll the global registry into the global ring right now (wall-clock
/// stamped). Used by the wall driver each interval, and directly by tests
/// and one-shot scrapers that cannot wait a full interval.
pub fn roll_global_now() -> TsPoint {
    global_rollup().lock().roll(crate::global(), 0.0, crate::span::wall_now_us())
}

/// Start the process-wide wall-clock rollup driver (idempotent): a daemon
/// thread rolling the global registry every [`DEFAULT_WALL_INTERVAL_MS`]
/// (override with `TELL_TELEMETRY_MS`; `0` disables the driver). Servers
/// call this at startup so their history exists before the first scrape.
pub fn ensure_wall_driver() {
    static STARTED: OnceLock<()> = OnceLock::new();
    STARTED.get_or_init(|| {
        let ms = std::env::var("TELL_TELEMETRY_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_WALL_INTERVAL_MS);
        if ms == 0 {
            return;
        }
        std::thread::Builder::new()
            .name("tell-telemetry".into())
            .spawn(move || loop {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                roll_global_now();
            })
            .expect("spawn telemetry rollup thread");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(v: u64) -> TsPoint {
        TsPoint { counters: vec![v], ..TsPoint::default() }
    }

    #[test]
    fn ring_assigns_monotonic_seqs_and_evicts_oldest() {
        let ring = TsRing::new(3);
        for v in 0..5 {
            ring.push(point(v));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 2);
        assert_eq!(ring.latest_seq(), 5);
        let (all, next) = ring.since(0, 100);
        assert_eq!(all.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(next, 5);
    }

    #[test]
    fn since_is_incremental_and_bounded() {
        let ring = TsRing::new(10);
        for v in 0..6 {
            ring.push(point(v));
        }
        let (first, c1) = ring.since(0, 2);
        assert_eq!(first.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![1, 2]);
        let (second, c2) = ring.since(c1, 100);
        assert_eq!(second.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        let (rest, c3) = ring.since(c2, 100);
        assert!(rest.is_empty());
        assert_eq!(c3, 6);
    }

    #[test]
    fn cursor_ahead_of_ring_resets_to_start() {
        let ring = TsRing::new(10);
        ring.push(point(1));
        ring.push(point(2));
        // A cursor from a previous incarnation of the node.
        let (pts, next) = ring.since(900, 100);
        assert_eq!(pts.len(), 2);
        assert_eq!(next, 2);
    }

    #[test]
    fn rollup_produces_deltas_not_totals() {
        let reg = Registry::new();
        let ring = Arc::new(TsRing::new(16));
        let mut rollup = Rollup::new(Arc::clone(&ring));

        reg.add(Counter::TxnCommitted, 10);
        let p1 = rollup.roll(&reg, 100.0, 0);
        assert_eq!(p1.counter(Counter::TxnCommitted), 10);
        assert_eq!(p1.seq, 1);

        reg.add(Counter::TxnCommitted, 5);
        reg.set_gauge(Gauge::CmLav, 77);
        let p2 = rollup.roll(&reg, 200.0, 0);
        assert_eq!(p2.counter(Counter::TxnCommitted), 5);
        assert_eq!(p2.gauge(Gauge::CmLav), 77);
        // the rollup's own tick counter shows up as exactly 1 per interval
        assert_eq!(p2.counter(Counter::TelemetryRollups), 1);

        // a reset (counter regression) clamps to zero, no wrap
        reg.reset();
        let p3 = rollup.roll(&reg, 300.0, 0);
        assert_eq!(p3.counter(Counter::TxnCommitted), 0);
    }

    #[test]
    fn rollup_digests_cover_only_the_interval() {
        let reg = Registry::new();
        let ring = Arc::new(TsRing::new(16));
        let mut rollup = Rollup::new(Arc::clone(&ring));

        for _ in 0..100 {
            reg.observe(Phase::TxnTotal, 10.0);
        }
        let p1 = rollup.roll(&reg, 0.0, 0);
        let d1 = p1.phase(Phase::TxnTotal);
        assert_eq!(d1.count, 100);
        assert!((d1.p50 - 10.0).abs() / 10.0 < 0.05, "p50={}", d1.p50);

        // Second interval records only much slower samples; the digest must
        // reflect them alone, not the lifetime mix.
        for _ in 0..100 {
            reg.observe(Phase::TxnTotal, 5000.0);
        }
        let p2 = rollup.roll(&reg, 0.0, 0);
        let d2 = p2.phase(Phase::TxnTotal);
        assert_eq!(d2.count, 100);
        assert!((d2.p50 - 5000.0).abs() / 5000.0 < 0.05, "p50={}", d2.p50);

        // An empty interval digests to zero.
        let p3 = rollup.roll(&reg, 0.0, 0);
        let d3 = p3.phase(Phase::TxnTotal);
        assert_eq!((d3.count, d3.p50, d3.p99), (0, 0.0, 0.0));
    }

    #[test]
    fn page_round_trips_through_the_codec() {
        let reg = Registry::new();
        let ring = Arc::new(TsRing::new(4));
        let mut rollup = Rollup::new(Arc::clone(&ring));
        reg.add(Counter::TxnCommitted, 3);
        reg.observe(Phase::TxnTotal, 42.0);
        rollup.roll(&reg, 1.5, 7);
        rollup.roll(&reg, 2.5, 8);

        let (points, next_cursor) = ring.since(0, MAX_PAGE_POINTS);
        let page = TelemetryPage { points, next_cursor };
        let mut buf = Vec::new();
        page.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = TelemetryPage::decode(&mut r).expect("decode");
        assert!(r.is_exhausted());
        assert_eq!(back, page);
    }

    #[test]
    fn decode_rejects_oversized_vectors() {
        let mut buf = Vec::new();
        buf.put_u64(1); // seq
        buf.put_f64(0.0);
        buf.put_u64(0);
        buf.put_u32(1 << 30); // counters length: hostile
        assert!(TsPoint::decode(&mut Reader::new(&buf)).is_err());
    }
}
