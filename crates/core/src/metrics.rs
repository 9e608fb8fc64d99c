//! Per-processing-node transaction metrics.
//!
//! Counts are relaxed atomics, so two workers recording into a shared
//! `PnMetrics` (or a worker recording while a driver thread reads) never
//! serialize on the record path. Recording also feeds the process-global
//! registry, so a `Request::Metrics` scrape sees the same commits and
//! aborts; latency lives in the registry's phase histograms.

use std::sync::atomic::{AtomicU64, Ordering};

use tell_obs::Counter;

/// Commit and abort counts for one processing node (worker).
#[derive(Default)]
pub struct PnMetrics {
    committed: AtomicU64,
    aborted: AtomicU64,
    conflicts: AtomicU64,
}

impl PnMetrics {
    /// Fresh metrics.
    pub fn new() -> Self {
        PnMetrics::default()
    }

    /// Record a commit.
    pub(crate) fn record_commit(&self) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        tell_obs::incr(Counter::TxnCommitted);
    }

    /// Record an abort. `conflict` distinguishes optimistic-CC losers from
    /// manual aborts.
    pub(crate) fn record_abort(&self, conflict: bool) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
        tell_obs::incr(Counter::TxnAborted);
        if conflict {
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            tell_obs::incr(Counter::TxnConflicts);
        }
    }

    /// Committed transaction count.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Aborted transaction count.
    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Write-write conflict aborts.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_rates() {
        let m = PnMetrics::new();
        m.record_commit();
        m.record_commit();
        m.record_abort(true);
        m.record_abort(false);
        assert_eq!(m.committed(), 2);
        assert_eq!(m.aborted(), 2);
        assert_eq!(m.conflicts(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = PnMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = &m;
                s.spawn(|| {
                    for i in 0..500 {
                        if i % 5 == 0 {
                            m.record_abort(i % 10 == 0);
                        } else {
                            m.record_commit();
                        }
                    }
                });
            }
        });
        assert_eq!(m.committed() + m.aborted(), 2000);
        assert_eq!(m.aborted(), 4 * 100);
        assert_eq!(m.conflicts(), 4 * 50);
    }
}
