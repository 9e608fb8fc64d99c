//! Cluster-wide telemetry collection and health evaluation.
//!
//! A [`Collector`] owns a fixed list of scrape [`Target`]s (every PN, SN,
//! and CM endpoint in the deployment), pulls each node's time-series ring
//! incrementally over `Request::Telemetry` with a per-node cursor, and
//! merges the pages into a cluster view: bounded per-node point history
//! plus a [`HealthEngine`] run over one [`NodeTick`] per node per poll.
//! `tell_top` renders exactly this view; nothing in here draws.
//!
//! A page's points are indexed by this build's metric declarations, and an
//! id past the end of a point reads 0.
//!
//! A target that refuses the connection or fails the call is marked
//! unreachable for that poll — which is precisely what feeds the
//! `replica_unavailable` health rule — and the connection is re-dialed on
//! the next poll.

use std::collections::VecDeque;

use tell_obs::{HealthConfig, HealthEngine, HealthEvent, NodeTick, RuleKind, TsPoint};
use tell_rpc::client::Connection;
use tell_rpc::{Request, Response};

/// One scrape endpoint.
#[derive(Clone, Debug)]
pub struct Target {
    /// Stable display/health name (`sn0`, `cm0`, …). Health-event
    /// sequences are keyed by it, so keep it unique per collector.
    pub name: String,
    /// `host:port` of the node's RPC server.
    pub addr: String,
}

impl Target {
    pub fn new(name: impl Into<String>, addr: impl Into<String>) -> Target {
        Target { name: name.into(), addr: addr.into() }
    }
}

/// Collapse one scrape page's points (possibly several intervals of
/// catch-up) into a single interval for rule evaluation: counter deltas
/// sum, gauges and phase digests take the newest point's values, and the
/// clock fields come from the newest point.
pub fn merge_points(points: &[TsPoint]) -> Option<TsPoint> {
    let last = points.last()?;
    let mut merged = last.clone();
    for p in &points[..points.len() - 1] {
        for (i, v) in p.counters.iter().enumerate() {
            if let Some(slot) = merged.counters.get_mut(i) {
                *slot = slot.saturating_add(*v);
            }
        }
    }
    Some(merged)
}

/// One node's collected state: scrape cursor, reachability, and a bounded
/// history of points (newest last).
pub struct NodeView {
    pub target: Target,
    /// Whether the last poll reached the node.
    pub reachable: bool,
    /// Last error message, for display; cleared on a successful poll.
    pub last_error: Option<String>,
    /// Points, oldest first, at most `history_cap`.
    pub history: VecDeque<TsPoint>,
    cursor: u64,
    conn: Option<Connection>,
    history_cap: usize,
}

impl NodeView {
    fn new(target: Target, history_cap: usize) -> NodeView {
        NodeView {
            target,
            reachable: false,
            last_error: None,
            history: VecDeque::new(),
            cursor: 0,
            conn: None,
            history_cap: history_cap.max(1),
        }
    }

    /// The newest collected point, if any.
    pub fn latest(&self) -> Option<&TsPoint> {
        self.history.back()
    }

    /// Scrape once; returns the interval's merged point.
    fn scrape(&mut self) -> Result<Option<TsPoint>, String> {
        if self.conn.as_ref().is_none_or(|c| c.is_dead()) {
            self.conn = Some(Connection::connect(&self.target.addr).map_err(|e| e.to_string())?);
        }
        let conn = self.conn.as_ref().expect("connected above");
        let page = match conn.call(&Request::Telemetry { since: self.cursor }) {
            Ok((Response::Telemetry(page), _, _)) => page,
            Ok((resp, _, _)) => {
                // The peer may keep answering other requests; drop the
                // connection so the error is visible, not sticky.
                self.conn = None;
                return Err(format!("unexpected telemetry response: {resp:?}"));
            }
            Err(e) => {
                self.conn = None;
                return Err(e.to_string());
            }
        };
        self.cursor = page.next_cursor;
        for p in &page.points {
            if self.history.len() == self.history_cap {
                self.history.pop_front();
            }
            self.history.push_back(p.clone());
        }
        Ok(merge_points(&page.points))
    }
}

/// The cluster collector: polls every target, keeps the merged view, and
/// runs the health rules.
pub struct Collector {
    nodes: Vec<NodeView>,
    engine: HealthEngine,
    events: Vec<HealthEvent>,
    polls: u64,
}

/// Per-node points retained for display (sparklines need tens, not
/// thousands).
pub const DEFAULT_HISTORY_POINTS: usize = 256;

impl Collector {
    /// Collector over `targets` with default thresholds and history depth.
    pub fn new(targets: Vec<Target>) -> Collector {
        Collector::with_config(targets, HealthConfig::default(), DEFAULT_HISTORY_POINTS)
    }

    /// Collector with explicit health thresholds and history depth.
    pub fn with_config(targets: Vec<Target>, cfg: HealthConfig, history_cap: usize) -> Collector {
        Collector {
            nodes: targets.into_iter().map(|t| NodeView::new(t, history_cap)).collect(),
            engine: HealthEngine::new(cfg),
            events: Vec::new(),
            polls: 0,
        }
    }

    /// Scrape every target once, feed the health engine, and return the
    /// transitions this poll caused (also appended to [`Collector::events`]).
    /// The engine's "virtual clock" for live collection is the poll
    /// ordinal — wall time never reaches a health decision or event byte.
    pub fn poll(&mut self) -> Vec<HealthEvent> {
        self.polls += 1;
        let mut ticks = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            let (reachable, point) = match node.scrape() {
                Ok(point) => {
                    node.last_error = None;
                    (true, point)
                }
                Err(e) => {
                    node.last_error = Some(e);
                    (false, None)
                }
            };
            node.reachable = reachable;
            ticks.push(NodeTick { node: node.target.name.clone(), reachable, point });
        }
        let wall_us =
            self.nodes.iter().filter_map(|n| n.latest().map(|p| p.wall_us)).max().unwrap_or(0);
        let new = self.engine.observe(self.polls as f64, wall_us, &ticks);
        self.events.extend(new.iter().cloned());
        new
    }

    /// Per-node views, in target order.
    pub fn nodes(&self) -> &[NodeView] {
        &self.nodes
    }

    /// Every health transition observed so far, oldest first.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Currently-firing (rule, node) pairs, in deterministic order.
    pub fn active(&self) -> Vec<(RuleKind, String)> {
        self.engine.active()
    }

    /// Polls completed.
    pub fn polls(&self) -> u64 {
        self.polls
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use tell_obs::registry::{Counter, Gauge, Phase};
    use tell_obs::TelemetryPage;
    use tell_rpc::{ReactorConfig, ReplySink, RequestCtx, RpcServer, RpcService};

    use super::*;

    /// Answers each telemetry scrape with one new point that carries only
    /// the first two counters (`txn_begun_total`, `txn_committed_total`)
    /// and no gauges or phases.
    struct ShortPoints {
        seq: AtomicU64,
    }

    impl RpcService for ShortPoints {
        fn call(&self, request: Request, _ctx: &RequestCtx, reply: ReplySink) {
            if let Request::Telemetry { .. } = request {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
                let point = TsPoint {
                    seq,
                    wall_us: seq * 1_000_000,
                    counters: vec![5, 40],
                    ..TsPoint::default()
                };
                reply.send(Response::Telemetry(TelemetryPage {
                    points: vec![point],
                    next_cursor: seq,
                }));
            }
        }
    }

    #[test]
    fn short_points_read_zero_for_missing_ids_and_feed_the_health_rules() {
        let service = Arc::new(ShortPoints { seq: AtomicU64::new(0) });
        let server =
            RpcServer::serve_service("127.0.0.1:0", service, ReactorConfig::default()).unwrap();
        let mut collector =
            Collector::new(vec![Target::new("sn0", server.local_addr().to_string())]);
        for _ in 0..4 {
            assert!(collector.poll().is_empty(), "a healthy node raises nothing");
        }
        let node = &collector.nodes()[0];
        assert!(node.reachable, "{:?}", node.last_error);
        assert_eq!(node.history.len(), 4);
        let latest = node.latest().unwrap();
        assert!(latest.counters.len() < Counter::COUNT);
        assert_eq!(latest.counter(Counter::TxnCommitted), 40);
        assert_eq!(latest.counter(Counter::TxnAborted), 0);
        assert_eq!(latest.counter(Counter::ALL[Counter::COUNT - 1]), 0);
        assert_eq!(latest.gauge(Gauge::CmLav), 0);
        assert_eq!(latest.phase(Phase::TxnTotal).count, 0);
        assert!(collector.active().is_empty());
    }

    #[test]
    fn merge_sums_counters_and_keeps_newest_gauges() {
        let a = TsPoint { seq: 1, counters: vec![5, 1], gauges: vec![10], ..TsPoint::default() };
        let b = TsPoint {
            seq: 2,
            virt_us: 9.0,
            counters: vec![3, 0],
            gauges: vec![4],
            ..TsPoint::default()
        };
        let m = merge_points(&[a, b]).unwrap();
        assert_eq!(m.counters, vec![8, 1]);
        assert_eq!(m.gauges, vec![4]);
        assert_eq!(m.seq, 2);
        assert_eq!(m.virt_us, 9.0);
        assert!(merge_points(&[]).is_none());
    }
}
