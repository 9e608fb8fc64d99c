//! Cluster-wide telemetry collection and health evaluation.
//!
//! A [`Collector`] owns a fixed list of scrape [`Target`]s (every PN, SN,
//! and CM endpoint in the deployment). Each poll sends every node one
//! `Request::Metrics`, stamps the cumulative snapshot it gets back with the
//! poll's wall clock, and diffs it against that node's previous reply into
//! one [`TsPoint`] per node per poll. It keeps a bounded per-node history
//! of those points and runs a [`HealthEngine`] over one [`NodeTick`] per
//! node per poll. `tell_top` renders exactly this view; nothing in here
//! draws.
//!
//! Snapshots carry metric names; a point is indexed by this build's metric
//! declarations, and a name the node does not report reads 0.
//!
//! A target that refuses the connection or fails the call is marked
//! unreachable for that poll — which is precisely what feeds the
//! `replica_unavailable` health rule — and the connection is re-dialed on
//! the next poll.

use std::collections::VecDeque;
use std::time::{SystemTime, UNIX_EPOCH};

use tell_obs::{HealthConfig, HealthEngine, HealthEvent, NodeTick, Rollup, RuleKind, TsPoint};
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

/// One node's collected state: reachability, the differ holding its last
/// snapshot, and a bounded history of points (newest last).
pub struct NodeView {
    pub target: Target,
    /// Whether the last poll reached the node.
    pub reachable: bool,
    /// Last error message, for display; cleared on a successful poll.
    pub last_error: Option<String>,
    /// One point per successful poll, oldest first, at most `history_cap`.
    pub history: VecDeque<TsPoint>,
    rollup: Rollup,
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
            rollup: Rollup::new(),
            conn: None,
            history_cap: history_cap.max(1),
        }
    }

    /// The newest collected point, if any.
    pub fn latest(&self) -> Option<&TsPoint> {
        self.history.back()
    }

    /// Scrape once at `at_us`; returns the interval's point.
    fn scrape(&mut self, at_us: f64) -> Result<TsPoint, String> {
        if self.conn.as_ref().is_none_or(|c| c.is_dead()) {
            self.conn = Some(Connection::connect(&self.target.addr).map_err(|e| e.to_string())?);
        }
        let conn = self.conn.as_ref().expect("connected above");
        let snapshot = match conn.call(&Request::Metrics) {
            Ok((Response::Metrics(snapshot), _, _)) => snapshot,
            Ok((resp, _, _)) => {
                // The peer may keep answering other requests; drop the
                // connection so the error is visible, not sticky.
                self.conn = None;
                return Err(format!("unexpected metrics response: {resp:?}"));
            }
            Err(e) => {
                self.conn = None;
                return Err(e.to_string());
            }
        };
        let point = self.rollup.diff(snapshot, at_us);
        if self.history.len() == self.history_cap {
            self.history.pop_front();
        }
        self.history.push_back(point.clone());
        Ok(point)
    }
}

/// The cluster collector: polls every target, keeps the per-node views,
/// and runs the health rules.
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
    /// Every reply of one poll is stamped with the same wall clock, which
    /// sets the points' intervals; the engine's event clock is the poll
    /// ordinal, so wall time never reaches a rendered event byte.
    pub fn poll(&mut self) -> Vec<HealthEvent> {
        self.polls += 1;
        let wall_us =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros()) as u64;
        let mut ticks = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            let point = match node.scrape(wall_us as f64) {
                Ok(point) => {
                    node.last_error = None;
                    Some(point)
                }
                Err(e) => {
                    node.last_error = Some(e);
                    None
                }
            };
            node.reachable = point.is_some();
            ticks.push(NodeTick {
                node: node.target.name.clone(),
                reachable: node.reachable,
                point,
            });
        }
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
    use tell_obs::MetricsSnapshot;
    use tell_rpc::{ReactorConfig, ReplySink, RequestCtx, RpcServer, RpcService};

    use super::*;

    /// Answers each metrics scrape with a snapshot that carries only two
    /// counters, `txn_begun_total` and `txn_committed_total`, growing by 5
    /// and 40 per scrape, and no gauges or histograms.
    struct ShortSnapshots {
        scrapes: AtomicU64,
    }

    impl RpcService for ShortSnapshots {
        fn call(&self, request: Request, _ctx: &RequestCtx, reply: ReplySink) {
            if let Request::Metrics = request {
                let n = self.scrapes.fetch_add(1, Ordering::Relaxed) + 1;
                reply.send(Response::Metrics(MetricsSnapshot {
                    counters: vec![
                        ("txn_begun_total".into(), 5 * n),
                        ("txn_committed_total".into(), 40 * n),
                    ],
                    ..MetricsSnapshot::default()
                }));
            }
        }
    }

    #[test]
    fn short_points_read_zero_for_missing_ids_and_feed_the_health_rules() {
        let service = Arc::new(ShortSnapshots { scrapes: AtomicU64::new(0) });
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
        assert_eq!(latest.counter(Counter::TxnBegun), 5);
        assert_eq!(latest.counter(Counter::TxnCommitted), 40);
        assert_eq!(latest.counter(Counter::TxnAborted), 0);
        assert_eq!(latest.counter(Counter::ALL[Counter::COUNT - 1]), 0);
        assert_eq!(latest.gauge(Gauge::CmLav), 0);
        assert_eq!(latest.phase(Phase::TxnTotal).count, 0);
        assert_eq!(node.history[0].interval_us, 0.0, "the first reply is diffed against zero");
        assert!(collector.active().is_empty());
    }

    #[test]
    fn history_keeps_one_point_per_poll_and_drops_the_oldest() {
        let service = Arc::new(ShortSnapshots { scrapes: AtomicU64::new(0) });
        let server =
            RpcServer::serve_service("127.0.0.1:0", service, ReactorConfig::default()).unwrap();
        let target = Target::new("sn0", server.local_addr().to_string());
        let mut collector = Collector::with_config(vec![target], HealthConfig::default(), 3);
        for _ in 0..5 {
            collector.poll();
        }
        let history = &collector.nodes()[0].history;
        assert_eq!(history.len(), 3, "bounded at the history cap");
        // Polls 3..=5 survive: each read the same 40-commit step, and the
        // first of them still has the interval back to poll 2.
        assert!(history.iter().all(|p| p.counter(Counter::TxnCommitted) == 40));
        assert!(history.iter().all(|p| p.interval_us > 0.0));
        let ats: Vec<f64> = history.iter().map(|p| p.at_us).collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]), "oldest first: {ats:?}");
    }
}
