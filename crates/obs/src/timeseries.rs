//! Telemetry intervals: the difference of two metrics snapshots.
//!
//! The registry answers "what is the value *now*"; every interesting
//! question in the paper — throughput ramps (Tables 2–3), latency tails
//! (Table 5 TP99/TP999), abort-rate spikes — is about *rates and tails over
//! a window*. A server keeps only its cumulative registry and ships it over
//! `Request::Metrics`; the reader does the interval arithmetic. A
//! [`Rollup`] diffs each [`MetricsSnapshot`] it is fed against the previous
//! one into a [`TsPoint`] holding **counter deltas**, **gauge samples**,
//! **per-phase quantile digests** (p50/p99/p999 computed from the raw bucket
//! difference, so the digest describes only the samples recorded in that
//! window, not the process lifetime) and the **length of the interval** on
//! the clock the reader stamps its readings with.
//!
//! Two readers feed it: `tell-monitor`'s collector, one `Request::Metrics`
//! reply per node per poll stamped with the poll's wall clock, and
//! tell-sim's scrape, the sim-local registry on the virtual clock (so the
//! produced history is bit-reproducible per seed). Nothing here is called
//! from transaction or RPC code.

use tell_common::{bucket_quantile, histogram_bucket_upper, HISTOGRAM_BUCKETS};

use crate::registry::{Counter, Gauge, Phase};
use crate::snapshot::MetricsSnapshot;

/// Quantile digest of one histogram over one interval.
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

/// One telemetry interval: counter deltas, gauge samples, and phase digests,
/// in this build's declaration order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TsPoint {
    /// Clock of the reading that closed the interval (microseconds; virtual
    /// under tell-sim, the poll's wall clock in the collector).
    pub at_us: f64,
    /// Length of the interval on the same clock. 0 when the reading was
    /// diffed against zero — the first reading, or one taken after the node
    /// restarted — because the deltas then cover an unknown stretch.
    pub interval_us: f64,
    /// Counter *deltas* over the interval, indexed like `Counter::ALL`.
    pub counters: Vec<u64>,
    /// Gauge values sampled at the reading, indexed like `Gauge::ALL`.
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
}

/// The interval differ: holds the previous reading and turns each new one
/// into a [`TsPoint`].
///
/// Snapshots are matched to this build's metric ids by name, so a node
/// running a build with fewer (or other) metrics reads 0 for the ones it
/// lacks. The first reading is diffed against zero, and so is a reading
/// whose counters went backwards: the node restarted, and its new totals
/// are the interval's deltas.
#[derive(Default)]
pub struct Rollup {
    prev: Option<(f64, MetricsSnapshot)>,
}

/// `entries`' value under `name`; a snapshot of this build keeps
/// declaration order, so the `i`-th entry is checked first.
fn lookup<'a, T>(entries: &'a [(String, T)], i: usize, name: &str) -> Option<&'a T> {
    match entries.get(i) {
        Some((n, v)) if n == name => Some(v),
        _ => entries.iter().find(|(n, _)| n == name).map(|(_, v)| v),
    }
}

fn counters(snap: &MetricsSnapshot) -> impl Iterator<Item = u64> + '_ {
    Counter::ALL
        .iter()
        .enumerate()
        .map(|(i, c)| lookup(&snap.counters, i, c.name()).copied().unwrap_or(0))
}

/// Dense bucket counts (the layout `bucket_quantile` reads) of one phase's
/// sparse `(upper_bound, count)` pairs.
fn dense_buckets(snap: &MetricsSnapshot, p: Phase) -> Vec<u64> {
    let mut out = vec![0; HISTOGRAM_BUCKETS];
    let Some((_, pairs)) = snap.buckets.iter().find(|(n, _)| n == p.name()) else {
        return out;
    };
    for &(upper, n) in pairs {
        // The first bucket whose bound reaches `upper` is the pair's own.
        let (mut lo, mut hi) = (0, HISTOGRAM_BUCKETS - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if histogram_bucket_upper(mid) < upper {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        out[lo] += n;
    }
    out
}

impl Rollup {
    /// A differ with no previous reading.
    pub fn new() -> Self {
        Rollup::default()
    }

    /// Diff `snap`, read at `at_us`, against the previous reading, and keep
    /// it as the baseline for the next call.
    pub fn diff(&mut self, snap: MetricsSnapshot, at_us: f64) -> TsPoint {
        let now: Vec<u64> = counters(&snap).collect();
        let base = self
            .prev
            .take()
            .filter(|(_, prev)| counters(prev).zip(&now).all(|(before, now)| before <= *now));
        let interval_us = base.as_ref().map_or(0.0, |(t, _)| at_us - t);
        let prev = base.map(|(_, prev)| prev).unwrap_or_default();
        let counters = now.iter().zip(counters(&prev)).map(|(now, before)| now - before).collect();
        let gauges = Gauge::ALL
            .iter()
            .enumerate()
            .map(|(i, g)| lookup(&snap.gauges, i, g.name()).copied().unwrap_or(0))
            .collect();
        let phases = Phase::ALL
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let count =
                    |s: &MetricsSnapshot| lookup(&s.histograms, i, p.name()).map_or(0, |h| h.count);
                let count = count(&snap).saturating_sub(count(&prev));
                if count == 0 {
                    return PhaseDigest::default();
                }
                let delta: Vec<u64> = dense_buckets(&snap, p)
                    .iter()
                    .zip(dense_buckets(&prev, p))
                    .map(|(now, before)| now.saturating_sub(before))
                    .collect();
                PhaseDigest {
                    count,
                    p50: bucket_quantile(&delta, 0.50),
                    p99: bucket_quantile(&delta, 0.99),
                    p999: bucket_quantile(&delta, 0.999),
                }
            })
            .collect();
        self.prev = Some((at_us, snap));
        TsPoint { at_us, interval_us, counters, gauges, phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn rollup_produces_deltas_not_totals() {
        let reg = Registry::new();
        let mut rollup = Rollup::new();

        reg.add(Counter::TxnCommitted, 10);
        let p1 = rollup.diff(reg.snapshot(), 100.0);
        assert_eq!(p1.counter(Counter::TxnCommitted), 10);
        assert_eq!((p1.at_us, p1.interval_us), (100.0, 0.0), "the first reading has no interval");

        reg.add(Counter::TxnCommitted, 5);
        reg.set_gauge(Gauge::CmLav, 77);
        let p2 = rollup.diff(reg.snapshot(), 250.0);
        assert_eq!(p2.counter(Counter::TxnCommitted), 5);
        assert_eq!(p2.gauge(Gauge::CmLav), 77);
        assert_eq!(p2.interval_us, 150.0);
    }

    #[test]
    fn counter_regression_reads_as_restart() {
        let reg = Registry::new();
        let mut rollup = Rollup::new();
        reg.add(Counter::TxnCommitted, 10);
        reg.add(Counter::TxnAborted, 4);
        rollup.diff(reg.snapshot(), 100.0);

        // The node restarts and commits 3 before the next reading: its new
        // totals are the interval's deltas, not a wrapped or clamped diff.
        reg.reset();
        reg.add(Counter::TxnCommitted, 3);
        reg.add(Counter::TxnAborted, 9);
        let p = rollup.diff(reg.snapshot(), 200.0);
        assert_eq!(p.counter(Counter::TxnCommitted), 3);
        assert_eq!(p.counter(Counter::TxnAborted), 9);
        assert_eq!(p.interval_us, 0.0);

        // Diffing resumes from the restarted node's reading.
        reg.add(Counter::TxnCommitted, 2);
        let p = rollup.diff(reg.snapshot(), 300.0);
        assert_eq!(p.counter(Counter::TxnCommitted), 2);
        assert_eq!(p.interval_us, 100.0);
    }

    #[test]
    fn rollup_digests_cover_only_the_interval() {
        let reg = Registry::new();
        let mut rollup = Rollup::new();

        for _ in 0..100 {
            reg.observe(Phase::TxnTotal, 10.0);
        }
        let d1 = rollup.diff(reg.snapshot(), 0.0).phase(Phase::TxnTotal);
        assert_eq!(d1.count, 100);
        assert!((d1.p50 - 10.0).abs() / 10.0 < 0.05, "p50={}", d1.p50);

        // Second interval records only much slower samples; the digest must
        // reflect them alone, not the lifetime mix.
        for _ in 0..100 {
            reg.observe(Phase::TxnTotal, 5000.0);
        }
        let d2 = rollup.diff(reg.snapshot(), 1.0).phase(Phase::TxnTotal);
        assert_eq!(d2.count, 100);
        assert!((d2.p50 - 5000.0).abs() / 5000.0 < 0.05, "p50={}", d2.p50);

        // The digest is the registry's own bucket arithmetic: the same as
        // `bucket_quantile` over the live histogram's bucket difference.
        let before = reg.histogram(Phase::TxnTotal).bucket_counts().to_vec();
        for v in [0.5, 3.0, 70.0, 70.0, 9000.0] {
            reg.observe(Phase::TxnTotal, v);
        }
        let after = reg.histogram(Phase::TxnTotal);
        let delta: Vec<u64> =
            after.bucket_counts().iter().zip(&before).map(|(a, b)| a - b).collect();
        let d3 = rollup.diff(reg.snapshot(), 2.0).phase(Phase::TxnTotal);
        assert_eq!(d3.count, 5);
        assert_eq!(d3.p50, bucket_quantile(&delta, 0.50));
        assert_eq!(d3.p99, bucket_quantile(&delta, 0.99));

        // An empty interval digests to zero.
        let d4 = rollup.diff(reg.snapshot(), 3.0).phase(Phase::TxnTotal);
        assert_eq!((d4.count, d4.p50, d4.p99), (0, 0.0, 0.0));
    }
}
