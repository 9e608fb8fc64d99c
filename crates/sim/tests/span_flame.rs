//! The simulator's flame graph: spans of the tick-kept transactions,
//! folded on the virtual clock, are a pure function of the seed.
//!
//! A binary of its own because the span ring is process-global: another
//! test's transactions in this process would land in the fold.

use tell_obs::export::{fold_self_time, SpanClock};
use tell_sim::{run, FaultMix, SimConfig};

/// Run the plan on a fresh thread (the span tick is per thread, so a fresh
/// one replays the same sample) and fold what the run left in the ring.
fn folded_run(cfg: SimConfig) -> String {
    std::thread::spawn(move || {
        tell_obs::span::global_ring().drain();
        let outcome = run(&cfg);
        assert!(outcome.ok(), "violation: {:?}", outcome.violation);
        let spans = tell_obs::span::global_ring().drain();
        fold_self_time(&spans, SpanClock::Virtual).to_folded()
    })
    .join()
    .unwrap()
}

#[test]
fn snchurn_seed19_span_flame_matches_golden() {
    let cfg = SimConfig {
        seed: 19,
        virtual_secs: 0.05,
        mix: FaultMix::SnChurn,
        workers: 3,
        keys: 12,
        ..SimConfig::default()
    };
    let a = folded_run(cfg.clone());
    let b = folded_run(cfg);
    assert!(a.contains("txn;txn."), "the fold must contain transaction phases: {a}");
    assert_eq!(a, b, "same seed must give a bit-identical flame graph");
    let golden = include_str!("../golden/span_flame_snchurn_seed19.folded");
    assert_eq!(a, golden, "folded flame graph drifted from the golden");
}
