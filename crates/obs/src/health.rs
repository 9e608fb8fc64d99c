//! Declarative health rules over telemetry time series.
//!
//! A [`HealthEngine`] consumes one [`NodeTick`] per node per telemetry
//! interval — reachability plus that interval's [`TsPoint`] — and evaluates
//! a fixed catalog of rules (see [`RuleKind`]). Every rule is a pure
//! function of the tick stream, with **hysteresis** (a condition must hold
//! for `fire_after` consecutive ticks to fire and clear for `resolve_after`
//! ticks to resolve) and **deduplication** (only the firing→resolved
//! transitions emit [`HealthEvent`]s, never the steady state).
//!
//! Determinism is a design requirement, not an accident: given the same
//! tick stream the engine emits a byte-identical event sequence
//! ([`HealthEvent::render`]), which is how tell-sim proves observability
//! itself is reproducible (an `SnKill` window must fire
//! `ReplicaUnavailable` and resolve after the revive — see the sim e2e
//! tests). No wall clock, no randomness, no hash-map iteration order
//! reaches any decision or any emitted byte.

use std::collections::{BTreeMap, VecDeque};

use crate::registry::{Counter, Gauge};
use crate::timeseries::TsPoint;

/// The rule catalog. Labels are stable wire/rendered names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleKind {
    /// A node stopped answering scrapes (or the sim killed it).
    ReplicaUnavailable,
    /// Commit-manager saturation: lav lag trending up across the window
    /// while commits/interval stays flat or falls — the GC horizon cannot
    /// keep up with the completion frontier (the Table 3 ceiling).
    CmSaturation,
    /// Slow-reader backpressure engaging on RPC connections
    /// (`rpc_conn_backpressure_total` moving).
    SlowReaderBackpressure,
    /// Replica copies falling behind durably (replica-side durability
    /// records dropped; the copy re-syncs only on restart).
    ReplicationStaleness,
    /// Abort ratio over threshold at meaningful volume.
    AbortRateSpike,
    /// Lock-wait spike: the interval's `lock_wait_us_total` delta exceeds
    /// a fraction of the interval itself (waiting ~10% of wall time on
    /// locks) while commit volume is above the min-volume guard — the
    /// contended-lock signal `ProfMutex` accounting feeds
    /// (DESIGN.md §8.3).
    LockWaitSpike,
}

impl RuleKind {
    /// Stable human/machine name.
    pub fn label(&self) -> &'static str {
        match self {
            RuleKind::ReplicaUnavailable => "replica_unavailable",
            RuleKind::CmSaturation => "cm_saturation",
            RuleKind::SlowReaderBackpressure => "slow_reader_backpressure",
            RuleKind::ReplicationStaleness => "replication_staleness",
            RuleKind::AbortRateSpike => "abort_rate_spike",
            RuleKind::LockWaitSpike => "lock_wait_spike",
        }
    }

    /// Every rule, in evaluation (and rendering) order.
    pub const ALL: &'static [RuleKind] = &[
        RuleKind::ReplicaUnavailable,
        RuleKind::CmSaturation,
        RuleKind::SlowReaderBackpressure,
        RuleKind::ReplicationStaleness,
        RuleKind::AbortRateSpike,
        RuleKind::LockWaitSpike,
    ];
}

/// One node's contribution to one telemetry interval.
#[derive(Clone, Debug)]
pub struct NodeTick {
    /// Stable node name (`sn0`, `cm0`, `pn0`, or a collector target name).
    pub node: String,
    /// Whether the node answered this interval (sim: whether it is alive).
    pub reachable: bool,
    /// The node's point for this interval, when one was obtained. Metric
    /// rules hold their state when it is `None`.
    pub point: Option<TsPoint>,
}

/// A firing or resolved transition of one rule on one node.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// Engine-assigned ordinal, increasing from 1.
    pub seq: u64,
    /// Virtual clock of the tick that transitioned the rule.
    pub virt_us: f64,
    /// Wall clock of that tick (0 under tell-sim).
    pub wall_us: u64,
    /// Which rule transitioned.
    pub rule: RuleKind,
    /// Which node it concerns.
    pub node: String,
    /// `true` on firing, `false` on resolve.
    pub firing: bool,
    /// Deterministic rendering of the triggering values.
    pub detail: String,
}

impl HealthEvent {
    /// One-line stable rendering; the sim's byte-reproducibility tests
    /// compare exactly these strings, so the format must stay a pure
    /// function of the event fields (no wall clock — it is 0 in the sim
    /// and nondeterministic elsewhere).
    pub fn render(&self) -> String {
        format!(
            "#{seq} t={t:.0}us {state} {rule} node={node} {detail}",
            seq = self.seq,
            t = self.virt_us,
            state = if self.firing { "FIRING" } else { "resolved" },
            rule = self.rule.label(),
            node = self.node,
            detail = self.detail,
        )
    }
}

/// Rule thresholds. Defaults are deliberately conservative; the sim and
/// tests tighten them to exercise transitions quickly.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Consecutive bad ticks before a rule fires.
    pub fire_after: u32,
    /// Consecutive good ticks before a firing rule resolves.
    pub resolve_after: u32,
    /// Backpressure engagements per interval that count as bad.
    pub backpressure_per_tick: u64,
    /// Abort ratio (aborts / finished) above which an interval is bad…
    pub abort_ratio: f64,
    /// …given at least this many finished transactions in the interval.
    pub abort_min_txns: u64,
    /// Intervals in the CM-saturation trend window.
    pub saturation_window: usize,
    /// Minimum lav-lag growth (tids) across the window to count as
    /// "trending up".
    pub saturation_lag_growth: u64,
    /// Fraction of the interval spent waiting on locks above which the
    /// interval is bad (0.10 = more than 100ms of lock wait per second)…
    pub lock_wait_fraction: f64,
    /// …given at least this many commits in the interval (idle or
    /// draining nodes never spike).
    pub lock_wait_min_txns: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            fire_after: 2,
            resolve_after: 2,
            backpressure_per_tick: 1,
            abort_ratio: 0.5,
            abort_min_txns: 20,
            saturation_window: 4,
            saturation_lag_growth: 8,
            lock_wait_fraction: 0.10,
            lock_wait_min_txns: 20,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct RuleState {
    bad: u32,
    good: u32,
    firing: bool,
}

/// Tri-state rule verdict for one interval.
enum Verdict {
    Bad(String),
    Good,
    /// Not enough data this interval; hold the state unchanged.
    Hold,
}

/// The collector-side rule evaluator. Feed it ticks with
/// [`HealthEngine::observe`]; it returns the transitions that tick caused.
pub struct HealthEngine {
    cfg: HealthConfig,
    states: BTreeMap<(RuleKind, String), RuleState>,
    /// Per node: (lav_lag, commits_delta) for the last `saturation_window`
    /// intervals.
    trend: BTreeMap<String, VecDeque<(u64, u64)>>,
    next_seq: u64,
}

impl HealthEngine {
    /// Engine with the given thresholds.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthEngine { cfg, states: BTreeMap::new(), trend: BTreeMap::new(), next_seq: 1 }
    }

    /// Evaluate one telemetry interval. `ticks` must arrive in a stable
    /// node order (the sim and collector both iterate their fixed target
    /// lists), and the returned events preserve (node, rule) order.
    /// `virt_us` and `wall_us` only stamp the events; interval-relative
    /// rules read the interval from each tick's point.
    pub fn observe(&mut self, virt_us: f64, wall_us: u64, ticks: &[NodeTick]) -> Vec<HealthEvent> {
        let mut events = Vec::new();
        for tick in ticks {
            for &rule in RuleKind::ALL {
                let verdict = self.judge(rule, tick);
                self.step(rule, tick, verdict, virt_us, wall_us, &mut events);
            }
        }
        events
    }

    /// Currently firing `(rule, node)` pairs, in stable sorted order.
    pub fn active(&self) -> Vec<(RuleKind, String)> {
        self.states.iter().filter(|(_, s)| s.firing).map(|((r, n), _)| (*r, n.clone())).collect()
    }

    /// Events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.next_seq - 1
    }

    fn judge(&mut self, rule: RuleKind, tick: &NodeTick) -> Verdict {
        if rule == RuleKind::ReplicaUnavailable {
            return if tick.reachable {
                Verdict::Good
            } else {
                Verdict::Bad("node not answering".to_string())
            };
        }
        let Some(point) = &tick.point else {
            return Verdict::Hold;
        };
        match rule {
            RuleKind::ReplicaUnavailable => unreachable!("handled above"),
            RuleKind::CmSaturation => {
                let lag = point.gauge(Gauge::CmLavLag);
                let commits = point.counter(Counter::TxnCommitted);
                let window = self.trend.entry(tick.node.clone()).or_default();
                window.push_back((lag, commits));
                if window.len() > self.cfg.saturation_window {
                    window.pop_front();
                }
                if window.len() < self.cfg.saturation_window {
                    return Verdict::Hold;
                }
                let lag_up = window.iter().zip(window.iter().skip(1)).all(|(a, b)| b.0 >= a.0)
                    && window.back().unwrap().0 - window.front().unwrap().0
                        >= self.cfg.saturation_lag_growth;
                let commits_flat = window.back().unwrap().1 <= window.front().unwrap().1;
                if lag_up && commits_flat {
                    Verdict::Bad(format!(
                        "lav_lag {}->{} while commits/interval {}->{}",
                        window.front().unwrap().0,
                        window.back().unwrap().0,
                        window.front().unwrap().1,
                        window.back().unwrap().1
                    ))
                } else {
                    Verdict::Good
                }
            }
            RuleKind::SlowReaderBackpressure => {
                let engaged = point.counter(Counter::ConnBackpressure);
                if engaged >= self.cfg.backpressure_per_tick {
                    Verdict::Bad(format!("backpressure engaged {engaged}x this interval"))
                } else {
                    Verdict::Good
                }
            }
            RuleKind::ReplicationStaleness => {
                let dropped = point.counter(Counter::DurableReplicaRecordsDropped);
                if dropped > 0 {
                    Verdict::Bad(format!("{dropped} replica records dropped"))
                } else {
                    Verdict::Good
                }
            }
            RuleKind::AbortRateSpike => {
                let aborts = point.counter(Counter::TxnAborted);
                let commits = point.counter(Counter::TxnCommitted);
                let finished = aborts + commits;
                if finished >= self.cfg.abort_min_txns {
                    let ratio = aborts as f64 / finished as f64;
                    if ratio > self.cfg.abort_ratio {
                        return Verdict::Bad(format!(
                            "abort ratio {ratio:.2} over {finished} txns"
                        ));
                    }
                }
                Verdict::Good
            }
            RuleKind::LockWaitSpike => {
                // A point diffed against zero (a node's first reading, or
                // its first after a restart) has no interval; hold rather
                // than guess.
                let interval = point.interval_us;
                if interval <= 0.0 {
                    return Verdict::Hold;
                }
                let wait = point.counter(Counter::LockWaitUs);
                let commits = point.counter(Counter::TxnCommitted);
                if commits < self.cfg.lock_wait_min_txns {
                    return Verdict::Good;
                }
                let fraction = wait as f64 / interval;
                if fraction > self.cfg.lock_wait_fraction {
                    Verdict::Bad(format!(
                        "lock wait {wait}us = {pct:.0}% of the interval over {commits} commits",
                        pct = fraction * 100.0
                    ))
                } else {
                    Verdict::Good
                }
            }
        }
    }

    fn step(
        &mut self,
        rule: RuleKind,
        tick: &NodeTick,
        verdict: Verdict,
        virt_us: f64,
        wall_us: u64,
        events: &mut Vec<HealthEvent>,
    ) {
        let state = self.states.entry((rule, tick.node.clone())).or_default();
        match verdict {
            Verdict::Hold => {}
            Verdict::Bad(detail) => {
                state.bad += 1;
                state.good = 0;
                if !state.firing && state.bad >= self.cfg.fire_after {
                    state.firing = true;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    events.push(HealthEvent {
                        seq,
                        virt_us,
                        wall_us,
                        rule,
                        node: tick.node.clone(),
                        firing: true,
                        detail,
                    });
                }
            }
            Verdict::Good => {
                state.good += 1;
                state.bad = 0;
                if state.firing && state.good >= self.cfg.resolve_after {
                    state.firing = false;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    events.push(HealthEvent {
                        seq,
                        virt_us,
                        wall_us,
                        rule,
                        node: tick.node.clone(),
                        firing: false,
                        detail: "condition cleared".to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Counter, Gauge};

    fn point_with(counters: &[(Counter, u64)], gauges: &[(Gauge, u64)]) -> TsPoint {
        let mut p = TsPoint {
            counters: vec![0; Counter::COUNT],
            gauges: vec![0; Gauge::COUNT],
            ..TsPoint::default()
        };
        for (c, v) in counters {
            p.counters[*c as usize] = *v;
        }
        for (g, v) in gauges {
            p.gauges[*g as usize] = *v;
        }
        p
    }

    fn tick(node: &str, reachable: bool, point: Option<TsPoint>) -> NodeTick {
        NodeTick { node: node.to_string(), reachable, point }
    }

    #[test]
    fn unavailable_fires_with_hysteresis_and_resolves() {
        let mut eng = HealthEngine::new(HealthConfig::default());
        // one bad tick: below fire_after=2, nothing yet
        let ev = eng.observe(100.0, 0, &[tick("sn0", false, None)]);
        assert!(ev.is_empty());
        // second consecutive bad tick fires
        let ev = eng.observe(200.0, 0, &[tick("sn0", false, None)]);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].firing);
        assert_eq!(ev[0].rule, RuleKind::ReplicaUnavailable);
        assert_eq!(ev[0].node, "sn0");
        // still dead: deduplicated, no new event
        let ev = eng.observe(300.0, 0, &[tick("sn0", false, None)]);
        assert!(ev.is_empty());
        assert_eq!(eng.active(), vec![(RuleKind::ReplicaUnavailable, "sn0".to_string())]);
        // revive: resolves after resolve_after=2 good ticks
        let ev = eng.observe(400.0, 0, &[tick("sn0", true, None)]);
        assert!(ev.is_empty());
        let ev = eng.observe(500.0, 0, &[tick("sn0", true, None)]);
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].firing);
        assert!(eng.active().is_empty());
        assert_eq!(eng.events_emitted(), 2);
    }

    #[test]
    fn abort_spike_needs_volume_and_ratio() {
        let cfg = HealthConfig { fire_after: 1, ..HealthConfig::default() };
        let mut eng = HealthEngine::new(cfg);
        // high ratio but tiny volume: good
        let p = point_with(&[(Counter::TxnAborted, 3), (Counter::TxnCommitted, 1)], &[]);
        assert!(eng.observe(0.0, 0, &[tick("pn0", true, Some(p))]).is_empty());
        // volume + ratio: fires
        let p = point_with(&[(Counter::TxnAborted, 30), (Counter::TxnCommitted, 10)], &[]);
        let ev = eng.observe(1.0, 0, &[tick("pn0", true, Some(p))]);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].rule, RuleKind::AbortRateSpike);
    }

    #[test]
    fn cm_saturation_requires_lag_trend_with_flat_commits() {
        let cfg = HealthConfig { fire_after: 1, ..HealthConfig::default() };
        let mut eng = HealthEngine::new(cfg);
        // lag climbing 0,10,20,30 while commits flat at 50
        for (i, lag) in [0u64, 10, 20, 30].iter().enumerate() {
            let p = point_with(&[(Counter::TxnCommitted, 50)], &[(Gauge::CmLavLag, *lag)]);
            let ev = eng.observe(i as f64, 0, &[tick("cm0", true, Some(p))]);
            if i < 3 {
                assert!(ev.is_empty(), "tick {i} fired early");
            } else {
                assert_eq!(ev.len(), 1, "window full should fire");
                assert_eq!(ev[0].rule, RuleKind::CmSaturation);
            }
        }
        // commits growing with the lag: healthy ramp, resolves
        for (i, lag) in [40u64, 50, 60, 70].iter().enumerate() {
            let p = point_with(
                &[(Counter::TxnCommitted, 100 + 50 * i as u64)],
                &[(Gauge::CmLavLag, *lag)],
            );
            eng.observe(10.0 + i as f64, 0, &[tick("cm0", true, Some(p))]);
        }
        assert!(eng.active().is_empty());
    }

    #[test]
    fn missing_point_holds_metric_rules() {
        let cfg = HealthConfig { fire_after: 1, resolve_after: 1, ..HealthConfig::default() };
        let mut eng = HealthEngine::new(cfg);
        let p = point_with(&[(Counter::ConnBackpressure, 5)], &[]);
        let ev = eng.observe(0.0, 0, &[tick("sn0", true, Some(p))]);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].rule, RuleKind::SlowReaderBackpressure);
        // no point (scrape failed): the alert neither re-fires nor resolves
        let ev = eng.observe(1.0, 0, &[tick("sn0", true, None)]);
        assert!(ev.is_empty());
        assert_eq!(eng.active().len(), 1);
    }

    /// `point_with` over an interval of `interval_us`.
    fn interval_point(interval_us: f64, counters: &[(Counter, u64)]) -> TsPoint {
        TsPoint { interval_us, ..point_with(counters, &[]) }
    }

    #[test]
    fn lock_wait_spike_needs_interval_volume_and_fraction() {
        let cfg = HealthConfig { fire_after: 1, resolve_after: 1, ..HealthConfig::default() };
        let mut eng = HealthEngine::new(cfg);
        let busy = [(Counter::LockWaitUs, 200_000), (Counter::TxnCommitted, 50)];
        // A point diffed against zero has no interval: the rule holds
        // regardless of values.
        let ev = eng.observe(0.0, 0, &[tick("cm0", true, Some(interval_point(0.0, &busy)))]);
        assert!(ev.is_empty(), "no interval on the first reading");
        // 1s interval: 200ms of lock wait = 20% > 10%, fires.
        let ev =
            eng.observe(1_000_000.0, 0, &[tick("cm0", true, Some(interval_point(1e6, &busy)))]);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].rule, RuleKind::LockWaitSpike);
        assert!(ev[0].detail.contains("20%"), "detail renders the fraction: {}", ev[0].detail);
        // Same waits without commit volume: the min-volume guard clears it.
        let idle = [(Counter::LockWaitUs, 200_000), (Counter::TxnCommitted, 3)];
        let ev =
            eng.observe(2_000_000.0, 0, &[tick("cm0", true, Some(interval_point(1e6, &idle)))]);
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].firing);
        // Busy but barely waiting: stays quiet.
        let clean = [(Counter::LockWaitUs, 5_000), (Counter::TxnCommitted, 50)];
        let ev =
            eng.observe(3_000_000.0, 0, &[tick("cm0", true, Some(interval_point(1e6, &clean)))]);
        assert!(ev.is_empty());
        assert!(eng.active().is_empty());
    }

    /// A live collector stamps events with its poll ordinal, not a clock.
    /// The lock-wait fraction must come from the point's own interval: 5us
    /// of wait over a 1s poll is 0.0005%, however close the ordinals are.
    #[test]
    fn lock_wait_spike_reads_the_interval_from_the_point_not_the_tick_clock() {
        let mut eng = HealthEngine::new(HealthConfig::default());
        let quiet = [(Counter::LockWaitUs, 5), (Counter::TxnCommitted, 1000)];
        for poll in 1..=4 {
            let point = interval_point(1e6, &quiet);
            let ev = eng.observe(poll as f64, 0, &[tick("cm0", true, Some(point))]);
            assert!(ev.is_empty(), "poll {poll} fired on 5us of wait: {ev:?}");
        }
        let waiting = [(Counter::LockWaitUs, 200_000), (Counter::TxnCommitted, 1000)];
        let mut fired = Vec::new();
        for poll in 5..=6 {
            let point = interval_point(1e6, &waiting);
            fired.extend(eng.observe(poll as f64, 0, &[tick("cm0", true, Some(point))]));
        }
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert!(fired[0].firing);
        assert_eq!(fired[0].rule, RuleKind::LockWaitSpike);
        assert!(fired[0].detail.contains("20%"), "{}", fired[0].detail);
    }

    /// Feeds `bad` points until the rule fires, then `good` points until it
    /// resolves, checking the hysteresis counts of the default config.
    fn fires_and_resolves(rule: RuleKind, bad: TsPoint, good: TsPoint) {
        let cfg = HealthConfig::default();
        let mut eng = HealthEngine::new(cfg);
        let mut t = 0.0;
        let mut feed = |eng: &mut HealthEngine, p: &TsPoint| {
            t += 1.0;
            eng.observe(t, 0, &[tick("sn0", true, Some(p.clone()))])
        };
        for i in 1..cfg.fire_after {
            assert!(feed(&mut eng, &bad).is_empty(), "fired after {i} bad ticks");
        }
        let ev = feed(&mut eng, &bad);
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert_eq!((ev[0].rule, ev[0].firing), (rule, true));
        for i in 1..cfg.resolve_after {
            assert!(feed(&mut eng, &good).is_empty(), "resolved after {i} good ticks");
        }
        let ev = feed(&mut eng, &good);
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert_eq!((ev[0].rule, ev[0].firing), (rule, false));
        assert!(eng.active().is_empty());
    }

    #[test]
    fn slow_reader_backpressure_fires_and_resolves() {
        fires_and_resolves(
            RuleKind::SlowReaderBackpressure,
            point_with(&[(Counter::ConnBackpressure, 3)], &[]),
            point_with(&[], &[]),
        );
    }

    #[test]
    fn replication_staleness_fires_and_resolves() {
        fires_and_resolves(
            RuleKind::ReplicationStaleness,
            point_with(&[(Counter::DurableReplicaRecordsDropped, 1)], &[]),
            point_with(&[], &[]),
        );
    }

    #[test]
    fn render_is_stable() {
        let ev = HealthEvent {
            seq: 3,
            virt_us: 1500.5,
            wall_us: 999,
            rule: RuleKind::ReplicaUnavailable,
            node: "sn1".to_string(),
            firing: true,
            detail: "node not answering".to_string(),
        };
        // wall clock must not appear: it is nondeterministic outside the sim
        assert_eq!(
            ev.render(),
            "#3 t=1500us FIRING replica_unavailable node=sn1 node not answering"
        );
    }
}
