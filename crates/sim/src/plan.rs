//! Fault plans: a seed expands into a schedule of timed fault events.
//!
//! Times are in **virtual microseconds** — the same clock the workers'
//! `NetMeter`s charge — so a plan scales with the workload, not with the
//! host machine. The driver fires an event when the globally-slowest
//! worker's clock passes the event time, which makes the (event, workload)
//! interleaving a pure function of the seed.

use rand::{Rng, SeedableRng, StdRng};

/// One injected fault (or maintenance action — GC runs ride the same
/// schedule: they are not faults, but they interact with every fault).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Kill storage node `n` (fail-stop; replicas keep serving).
    SnKill(u32),
    /// Revive storage node `n` (resyncs its copies from current masters).
    SnRevive(u32),
    /// Restart storage node `n` from its durable log (only generated when
    /// the topology is durable): the node's RAM image is discarded and
    /// rebuilt from the persistence tier, then caught up from any fresh
    /// peer. Unlike [`FaultKind::SnRevive`], this works even when every
    /// copy-holder of a partition died — the log is the source of truth.
    SnRestart(u32),
    /// Re-create missing replicas on the surviving nodes (§4.4.2).
    RestoreReplication,
    /// Crash-stop the lowest-id live commit manager (skipped when it is
    /// the last one — a zero-manager system is just blocked, §4.4.3).
    CmKill,
    /// Spawn a replacement commit manager that recovers from peer state
    /// and the transaction log (no-op at full strength).
    CmRecover,
    /// A processing node dies mid-commit: log entry written, one update
    /// applied, commit flag never set (§4.4.1). Leaves the dirty state in
    /// the store until the paired [`FaultKind::PnRecover`].
    PnCrash,
    /// Run the PN recovery process for the oldest crashed PN: roll back
    /// its write set and force-resolve its tid everywhere.
    PnRecover,
    /// Run a garbage-collection pass (§5.4) — the driver checks that no
    /// version a live snapshot can read disappears.
    GcRun,
}

impl FaultKind {
    /// Compact single-token rendering used by plan summaries and dumps.
    pub fn label(&self) -> String {
        match self {
            FaultKind::SnKill(n) => format!("sn-kill:{n}"),
            FaultKind::SnRevive(n) => format!("sn-revive:{n}"),
            FaultKind::SnRestart(n) => format!("sn-restart:{n}"),
            FaultKind::RestoreReplication => "re-replicate".into(),
            FaultKind::CmKill => "cm-kill".into(),
            FaultKind::CmRecover => "cm-recover".into(),
            FaultKind::PnCrash => "pn-crash".into(),
            FaultKind::PnRecover => "pn-recover".into(),
            FaultKind::GcRun => "gc".into(),
        }
    }
}

/// A fault scheduled at a virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Virtual time (µs) at which the driver fires the event.
    pub at_us: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Which classes of faults a plan draws from. Mirrors the `--faults` flag
/// of `examples/tell_sim.rs` and the four `scripts/check.sh --sim` seeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMix {
    /// No faults — GC runs only. The SI baseline every other mix is
    /// measured against.
    None,
    /// Storage-node churn: kill/revive/re-replicate cycles.
    SnChurn,
    /// Commit-manager kill + recover-from-log cycles.
    CmRestart,
    /// Everything: SN churn, CM restarts, PN crashes mid-commit.
    All,
}

impl FaultMix {
    /// Parse the `--faults` flag value.
    pub fn parse(s: &str) -> Option<FaultMix> {
        match s {
            "none" => Some(FaultMix::None),
            "sn" => Some(FaultMix::SnChurn),
            "cm" => Some(FaultMix::CmRestart),
            "all" => Some(FaultMix::All),
            _ => None,
        }
    }

    /// The flag spelling of this mix.
    pub fn name(&self) -> &'static str {
        match self {
            FaultMix::None => "none",
            FaultMix::SnChurn => "sn",
            FaultMix::CmRestart => "cm",
            FaultMix::All => "all",
        }
    }
}

/// The topology facts plan generation needs to emit only sensible events.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// Storage nodes in the cluster.
    pub storage_nodes: u32,
    /// Replication factor (bounds how many SNs may be down at once).
    pub replication_factor: u32,
    /// Commit managers at full strength.
    pub commit_managers: u32,
    /// Whether storage nodes have a durable log tier. Durable topologies
    /// relax the SN death budget — any number of nodes may be down at once
    /// because [`FaultKind::SnRestart`] rebuilds them from their logs — and
    /// mix restart-from-log into the revival schedule.
    pub durable: bool,
}

/// A seeded, ordered schedule of fault events.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was expanded from (0 for hand-built plans).
    pub seed: u64,
    /// Events in non-decreasing `at_us` order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Expand `seed` into a schedule over `[0, horizon_us)`.
    ///
    /// Generation keeps a model of the cluster (which SNs are down, how
    /// many CMs are live, whether a PN crash is pending) so every emitted
    /// event is *applicable* when fired in order: at most `rf - 1` storage
    /// nodes are ever down together, the last commit manager is never
    /// killed, and every crash has its matching recover.
    pub fn generate(seed: u64, mix: FaultMix, horizon_us: f64, topo: Topology) -> FaultPlan {
        // XOR with a constant so the plan stream never coincides with the
        // per-worker workload streams derived from the same seed.
        let mut rng = StdRng::seed_from_u64(seed ^ PLAN_STREAM);
        let mut events = Vec::new();

        // GC runs in every mix: 4–8 passes spread over the horizon.
        let gc_passes = rng.random_range(4..=8);
        for i in 0..gc_passes {
            let slot = horizon_us / gc_passes as f64;
            let at = slot * i as f64 + rng.random_range(0.0..slot);
            events.push(FaultEvent { at_us: at, kind: FaultKind::GcRun });
        }

        let sn_faults = matches!(mix, FaultMix::SnChurn | FaultMix::All);
        let cm_faults = matches!(mix, FaultMix::CmRestart | FaultMix::All);
        let pn_faults = matches!(mix, FaultMix::All);

        if sn_faults && topo.storage_nodes > 1 && topo.replication_factor > 1 {
            // Kill/revive cycles. In-memory-only, with RF `r`, up to r-1
            // concurrent deaths keep every partition reachable (transient
            // Unavailable is still expected while a kill propagates). With
            // a durable log tier the budget is the whole cluster: even a
            // partition whose every copy-holder died comes back via
            // restart-from-log.
            let death_budget =
                if topo.durable { topo.storage_nodes } else { topo.replication_factor - 1 };
            let mut t = rng.random_range(0.05..0.25) * horizon_us;
            // Nodes currently scheduled to be dead, with their revive
            // times. A node counts as down until its revive event fires,
            // so a kill is only scheduled while the number of nodes whose
            // revive lies in the future stays within the budget — without
            // durability, exceeding rf-1 could leave a revive no alive
            // copy to resync from and resurrect stale data (real data
            // loss, not an SI bug the checker should flag).
            let mut down: Vec<(u32, f64)> = Vec::new();
            while t < horizon_us * 0.9 {
                down.retain(|(_, revive_at)| *revive_at > t);
                if (down.len() as u32) < death_budget {
                    let alive: Vec<u32> = (0..topo.storage_nodes)
                        .filter(|n| !down.iter().any(|(d, _)| d == n))
                        .collect();
                    let victim = alive[rng.random_range(0..alive.len())];
                    events.push(FaultEvent { at_us: t, kind: FaultKind::SnKill(victim) });
                    let dead_for = rng.random_range(0.05..0.2) * horizon_us;
                    let revive_at = (t + dead_for).min(horizon_us * 0.95);
                    // Durable nodes usually restart from their log (the
                    // interesting path); plain revive still appears so the
                    // resync-from-peer path stays exercised. A revived
                    // copy that finds no fresh peer just stays stale —
                    // unavailability, never resurrection.
                    let revive_kind = if topo.durable && rng.random_bool(0.7) {
                        FaultKind::SnRestart(victim)
                    } else {
                        FaultKind::SnRevive(victim)
                    };
                    events.push(FaultEvent { at_us: revive_at, kind: revive_kind });
                    if rng.random_bool(0.5) {
                        events.push(FaultEvent {
                            at_us: revive_at + 1.0,
                            kind: FaultKind::RestoreReplication,
                        });
                    }
                    down.push((victim, revive_at));
                }
                t += rng.random_range(0.1..0.3) * horizon_us;
            }
        }

        if cm_faults && topo.commit_managers > 1 {
            let mut t = rng.random_range(0.1..0.3) * horizon_us;
            while t < horizon_us * 0.85 {
                events.push(FaultEvent { at_us: t, kind: FaultKind::CmKill });
                let recover_at = t + rng.random_range(0.05..0.15) * horizon_us;
                events.push(FaultEvent {
                    at_us: recover_at.min(horizon_us * 0.95),
                    kind: FaultKind::CmRecover,
                });
                t = recover_at + rng.random_range(0.1..0.3) * horizon_us;
            }
        }

        if pn_faults {
            let crashes = rng.random_range(1..=3);
            for _ in 0..crashes {
                let t = rng.random_range(0.1..0.8) * horizon_us;
                events.push(FaultEvent { at_us: t, kind: FaultKind::PnCrash });
                events.push(FaultEvent {
                    at_us: t + rng.random_range(0.02..0.1) * horizon_us,
                    kind: FaultKind::PnRecover,
                });
            }
        }

        events.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
        FaultPlan { seed, events }
    }

    /// First `n` events of the plan (the shrinker's unit of reduction).
    pub fn prefix(&self, n: usize) -> FaultPlan {
        FaultPlan { seed: self.seed, events: self.events[..n.min(self.events.len())].to_vec() }
    }

    /// One line per event, for failure dumps.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("  {:>12.1}us {}\n", e.at_us, e.kind.label()));
        }
        out
    }
}

/// Domain-separation constant for the plan RNG stream.
const PLAN_STREAM: u64 = 0x5e1f_00d5_fa17_7000;

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology { storage_nodes: 4, replication_factor: 2, commit_managers: 2, durable: false }
    }

    fn durable_topo() -> Topology {
        Topology { durable: true, ..topo() }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::generate(42, FaultMix::All, 2e6, topo());
        let b = FaultPlan::generate(42, FaultMix::All, 2e6, topo());
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, FaultMix::SnChurn, 2e6, topo());
        let b = FaultPlan::generate(2, FaultMix::SnChurn, 2e6, topo());
        assert_ne!(a, b);
    }

    #[test]
    fn events_are_time_ordered() {
        let plan = FaultPlan::generate(7, FaultMix::All, 3e6, topo());
        for pair in plan.events.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us);
        }
    }

    #[test]
    fn none_mix_is_gc_only() {
        let plan = FaultPlan::generate(9, FaultMix::None, 2e6, topo());
        assert!(plan.events.iter().all(|e| e.kind == FaultKind::GcRun));
        assert!(!plan.events.is_empty());
    }

    #[test]
    fn sn_churn_never_exceeds_the_replication_budget() {
        // Replaying any plan's kills/revives in event order must keep the
        // number of simultaneously-dead nodes within rf - 1; losing every
        // copy of a partition is data loss, not a fault the SI checker is
        // meant to exercise.
        for seed in 0..50u64 {
            for mix in [FaultMix::SnChurn, FaultMix::All] {
                let plan = FaultPlan::generate(seed, mix, 2e6, topo());
                let mut dead = std::collections::HashSet::new();
                for e in &plan.events {
                    match e.kind {
                        FaultKind::SnKill(n) => {
                            assert!(dead.insert(n), "seed {seed}: kill of dead node {n}");
                            assert!(
                                dead.len() < topo().replication_factor as usize,
                                "seed {seed}: {} nodes dead at once",
                                dead.len()
                            );
                        }
                        FaultKind::SnRevive(n) => {
                            assert!(dead.remove(&n), "seed {seed}: revive of live node {n}");
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn durable_churn_restarts_from_log_and_may_exceed_the_old_budget() {
        // Across seeds, durable plans must (a) never kill an already-dead
        // node or revive a live one, (b) stay within the whole-cluster
        // budget, and (c) actually use restart-from-log. At least one seed
        // should exceed the in-memory rf-1 budget — that is the point of
        // the relaxation.
        let mut saw_restart = false;
        let mut saw_over_budget = false;
        for seed in 0..50u64 {
            let plan = FaultPlan::generate(seed, FaultMix::SnChurn, 2e6, durable_topo());
            let mut dead = std::collections::HashSet::new();
            for e in &plan.events {
                match e.kind {
                    FaultKind::SnKill(n) => {
                        assert!(dead.insert(n), "seed {seed}: kill of dead node {n}");
                        assert!(dead.len() <= durable_topo().storage_nodes as usize);
                        if dead.len() >= durable_topo().replication_factor as usize {
                            saw_over_budget = true;
                        }
                    }
                    FaultKind::SnRevive(n) => {
                        assert!(dead.remove(&n), "seed {seed}: revive of live node {n}");
                    }
                    FaultKind::SnRestart(n) => {
                        assert!(dead.remove(&n), "seed {seed}: restart of live node {n}");
                        saw_restart = true;
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_restart, "no durable plan used sn-restart");
        assert!(saw_over_budget, "no durable plan exceeded the rf-1 budget");
    }

    #[test]
    fn non_durable_plans_never_restart_from_log() {
        for seed in 0..20u64 {
            let plan = FaultPlan::generate(seed, FaultMix::All, 2e6, topo());
            assert!(
                plan.events.iter().all(|e| !matches!(e.kind, FaultKind::SnRestart(_))),
                "seed {seed}: sn-restart in a non-durable plan"
            );
        }
    }

    #[test]
    fn prefix_truncates() {
        let plan = FaultPlan::generate(3, FaultMix::All, 2e6, topo());
        let p = plan.prefix(2);
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.events[..], plan.events[..2]);
        assert_eq!(plan.prefix(10_000).events.len(), plan.events.len());
    }
}
