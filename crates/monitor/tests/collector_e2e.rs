//! End-to-end collector test: a real loopback `RpcServer` answering
//! `Request::Metrics`, plus an unreachable target driving the
//! `replica_unavailable` rule through its firing transition.

use tell_monitor::{Collector, Target};
use tell_obs::registry::Counter;
use tell_obs::RuleKind;
use tell_rpc::{RpcServer, Services};

#[test]
fn collector_scrapes_live_node_and_fires_on_unreachable_target() {
    let server = RpcServer::serve("127.0.0.1:0", Services { store: None, commit: None }).unwrap();
    let addr = server.local_addr().to_string();

    // The server shares this process's registry: a commit recorded here is
    // one the server reports.
    tell_obs::global().incr(Counter::TxnCommitted);

    // Port 1 refuses connections: a permanently dead replica.
    let mut collector =
        Collector::new(vec![Target::new("live0", &addr), Target::new("dead0", "127.0.0.1:1")]);

    collector.poll();
    let live = &collector.nodes()[0];
    assert!(live.reachable, "live node must answer: {:?}", live.last_error);
    let first = live.latest().expect("first scrape yields a point");
    assert!(first.counter(Counter::TxnCommitted) >= 1, "first point is diffed against zero");
    assert_eq!(first.interval_us, 0.0);
    let dead = &collector.nodes()[1];
    assert!(!dead.reachable);
    assert!(dead.last_error.is_some());
    assert!(dead.history.is_empty());

    // Default hysteresis fires after 2 consecutive bad ticks.
    tell_obs::global().add(Counter::TxnCommitted, 3);
    let events = collector.poll();
    assert!(
        events
            .iter()
            .any(|e| e.rule == RuleKind::ReplicaUnavailable && e.node == "dead0" && e.firing),
        "expected replica_unavailable to fire for dead0, got {events:?}"
    );
    assert!(collector.active().contains(&(RuleKind::ReplicaUnavailable, "dead0".to_string())));
    // The live node never fires it.
    assert!(!collector
        .events()
        .iter()
        .any(|e| e.rule == RuleKind::ReplicaUnavailable && e.node == "live0"));

    // One point per poll, and with no other commit traffic the deltas tile
    // the server's cumulative counter: nothing is counted twice or lost.
    collector.poll();
    let history = &collector.nodes()[0].history;
    assert_eq!(history.len(), 3);
    assert_eq!(history[1].counter(Counter::TxnCommitted), 3);
    assert_eq!(history[2].counter(Counter::TxnCommitted), 0);
    assert!(history.iter().skip(1).all(|p| p.interval_us > 0.0), "later points span a poll");
    let committed: u64 = history.iter().map(|p| p.counter(Counter::TxnCommitted)).sum();
    assert_eq!(committed, tell_obs::global().counter(Counter::TxnCommitted));
}
