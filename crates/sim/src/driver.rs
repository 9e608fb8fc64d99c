//! The deterministic simulation driver.
//!
//! Worker threads run real transactions against a full in-process
//! PN/SN/CM deployment, but execution is *turn-based*: a turnstile (one
//! mutex + condvar) admits exactly one thread at a time — either one worker
//! performing exactly one transaction step, or the scheduler deciding who
//! goes next. The scheduler always grants the turn to the worker with the
//! smallest virtual clock (ties break toward the lowest index), fires fault
//! events from the [`FaultPlan`] when that minimum crosses an event's time,
//! and takes periodic commit-manager scrapes. Because every shared-state
//! mutation happens inside some turn, the whole run — interleaving, fault
//! timing, history — is a pure function of the seed.
//!
//! Virtual time: each worker's clock advances by the network time its PN's
//! meter charged during its step plus a fixed per-turn think time
//! (`TURN_THINK_US`). Nothing reads the wall clock on any decision path;
//! the commit managers are configured with an effectively-infinite
//! wall-clock sync interval and sync on (deterministic) operation counts
//! instead.

use std::sync::{Arc, Condvar, Mutex};

use rand::{Rng, SeedableRng, StdRng};
use tell_commitmgr::manager::CmConfig;
use tell_commitmgr::SnapshotDescriptor;
use tell_common::{CmId, Error, IsolationLevel, SnId, TxnId};
use tell_core::database::IndexSpec;
use tell_core::{Database, TableDef, TellConfig, VersionedRecord};
use tell_durable::{DurableNodeConfig, FsDurability, FsyncPolicy};
use tell_obs::timeseries::DEFAULT_RING_POINTS;
use tell_obs::{
    Counter, Gauge, HealthConfig, HealthEngine, HealthEvent, NodeTick, Registry, Rollup, TsPoint,
    TsRing,
};
use tell_store::{keys, StoreApi, StoreCluster};

use crate::checker::{self, CheckStats, Violation};
use crate::history::{row_value, row_writer, History, LavScrape, TxnRecord};
use crate::plan::{FaultEvent, FaultKind, FaultMix, FaultPlan, Topology};

/// Think time charged per turn, µs of virtual time. Dominates the virtual
/// clock; the horizon divided by this bounds the total number of turns.
const TURN_THINK_US: f64 = 20.0;
/// Extra virtual penalty when a step fails transiently (begin retry).
const BACKOFF_US: f64 = 100.0;
/// Domain-separation constants: worker workload streams and the
/// scheduler's own stream must not collide with the plan stream.
const WORKER_STREAM: u64 = 0x0a11_ce00_77ea_4e15;
const SCHED_STREAM: u64 = 0x5c_4ed0_1e55_77e1;

/// Everything a simulation run needs to know.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed: fault plan, workloads and interleaving all derive from
    /// it.
    pub seed: u64,
    /// Virtual horizon in seconds (virtual time, not wall time).
    pub virtual_secs: f64,
    /// Which fault classes to inject.
    pub mix: FaultMix,
    /// Worker threads (each is one PN worker running transactions).
    pub workers: usize,
    /// Keyspace size. Small on purpose: contention is what makes lost
    /// updates and torn snapshots reachable.
    pub keys: u64,
    /// Storage nodes.
    pub storage_nodes: u32,
    /// Replication factor (the plan keeps at most `rf - 1` SNs dead).
    pub replication_factor: u32,
    /// Commit managers at full strength.
    pub commit_managers: u32,
    /// Give every storage node a durable log tier (`tell-durable`) in a
    /// per-run temp directory. Durable plans may kill *all* copy-holders
    /// at once and revive them with [`FaultKind::SnRestart`] — restart
    /// from log — instead of only peer resync.
    pub durable: bool,
    /// Isolation level every worker transaction runs at. The post-run
    /// history check uses the matching oracle ([`checker::check_at`]).
    pub isolation: IsolationLevel,
    /// Zipfian skew of the YCSB-style key chooser (0 = uniform). Hot keys
    /// are the low ids; skew is what makes write-write conflicts and
    /// level-separating anomalies reachable in short runs.
    pub zipf_theta: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            virtual_secs: 0.5,
            mix: FaultMix::None,
            workers: 4,
            keys: 32,
            storage_nodes: 4,
            replication_factor: 2,
            commit_managers: 2,
            durable: false,
            isolation: IsolationLevel::Si,
            zipf_theta: 0.8,
        }
    }
}

impl SimConfig {
    /// The virtual horizon in microseconds.
    pub fn horizon_us(&self) -> f64 {
        self.virtual_secs * 1e6
    }

    /// The topology facts the plan generator needs.
    pub fn topology(&self) -> Topology {
        Topology {
            storage_nodes: self.storage_nodes,
            replication_factor: self.replication_factor,
            commit_managers: self.commit_managers,
            durable: self.durable,
        }
    }
}

/// Aggregate counters of a run (all deterministic for a given seed).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Transactions completed (committed + aborted).
    pub txns: usize,
    /// Committed transactions.
    pub commits: usize,
    /// Aborted transactions (conflicts and fault-induced).
    pub aborts: usize,
    /// Reads recorded.
    pub reads: usize,
    /// Keys written by committed transactions.
    pub writes: usize,
    /// Fault events actually fired.
    pub events_fired: usize,
    /// Commit-manager scrapes taken.
    pub scrapes: usize,
    /// Cluster lav at the end of the run.
    pub final_lav: u64,
    /// Virtual time when the run wound down.
    pub virtual_end_us: f64,
}

/// The telemetry a run produced: one rolled time-series point per
/// commit-manager scrape (virtual clock, wall 0) and every health-rule
/// transition the engine emitted. Both are pure functions of the seed —
/// the observability e2e tests compare them byte for byte across runs.
#[derive(Clone, Debug, Default)]
pub struct SimTelemetry {
    /// One point per scrape, oldest first.
    pub points: Vec<TsPoint>,
    /// Health transitions, in emission order.
    pub events: Vec<HealthEvent>,
}

impl SimTelemetry {
    /// Stable one-line renderings of every health event, in order — the
    /// byte-reproducibility comparand.
    pub fn rendered_events(&self) -> Vec<String> {
        self.events.iter().map(HealthEvent::render).collect()
    }
}

/// The full result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The (possibly shrunk) fault plan that was executed.
    pub plan: FaultPlan,
    /// Everything the run observed.
    pub history: History,
    /// Aggregate counters.
    pub stats: SimStats,
    /// Time-series points and health events (see [`SimTelemetry`]).
    pub telemetry: SimTelemetry,
    /// `None` means the history checked clean.
    pub violation: Option<Violation>,
    /// Checker statistics when the check ran to completion.
    pub check: Option<CheckStats>,
}

impl SimOutcome {
    /// Did the run satisfy the SI oracle?
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// Generate the fault plan for `config` and run it.
pub fn run(config: &SimConfig) -> SimOutcome {
    let plan = FaultPlan::generate(config.seed, config.mix, config.horizon_us(), config.topology());
    run_with_plan(config, plan)
}

// ---------------------------------------------------------------------
// Turnstile.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Turn {
    Scheduler,
    Worker(usize),
}

struct LiveTxn {
    snapshot: SnapshotDescriptor,
    /// History length at begin — filled in by [`Shared::release`] under the
    /// turnstile lock, so it is exact.
    begin_seq: usize,
    /// CM membership epoch at begin.
    epoch: u32,
}

struct TurnState {
    turn: Turn,
    clocks: Vec<f64>,
    done: Vec<bool>,
    stop: bool,
    live: Vec<Option<LiveTxn>>,
    history: History,
    /// CM membership epoch (bumped on kill/recover) — lives here so both
    /// the scheduler's scrapes and begin-time stamping read one source.
    epoch: u32,
    violation: Option<Violation>,
}

struct Shared {
    state: Mutex<TurnState>,
    cv: Condvar,
}

/// What a worker step wants applied to the shared state at turn release.
enum Effect {
    None,
    Began(LiveTxn),
    Finished(TxnRecord),
    Broke(Violation),
}

impl Shared {
    /// Block until worker `w` is granted the turn. Returns the stop flag.
    fn acquire(&self, w: usize) -> bool {
        let mut st = self.state.lock().unwrap();
        while st.turn != Turn::Worker(w) {
            st = self.cv.wait(st).unwrap();
        }
        st.stop
    }

    /// Release worker `w`'s turn back to the scheduler, advancing its
    /// clock by `delta_us` and applying `effect`.
    fn release(&self, w: usize, delta_us: f64, effect: Effect) {
        let mut st = self.state.lock().unwrap();
        st.clocks[w] += TURN_THINK_US + delta_us;
        match effect {
            Effect::None => {}
            Effect::Began(mut live) => {
                // The worker held the turn since it took the snapshot, so
                // nothing completed in between: the current history length
                // is exactly the set of transactions done before begin.
                live.begin_seq = st.history.txns.len();
                live.epoch = st.epoch;
                st.live[w] = Some(live);
            }
            Effect::Finished(mut rec) => {
                if let Some(live) = st.live[w].take() {
                    rec.begin_seq = live.begin_seq;
                    rec.epoch = live.epoch;
                }
                st.history.txns.push(rec);
            }
            Effect::Broke(v) => {
                st.live[w] = None;
                if st.violation.is_none() {
                    st.violation = Some(v);
                }
                st.stop = true;
            }
        }
        st.turn = Turn::Scheduler;
        self.cv.notify_all();
    }

    /// Mark worker `w` finished and hand the turn back for good.
    fn finish(&self, w: usize) {
        let mut st = self.state.lock().unwrap();
        st.done[w] = true;
        st.live[w] = None;
        st.turn = Turn::Scheduler;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Worker workload.
// ---------------------------------------------------------------------

/// One transaction's script: which keys to read, whether to write them
/// back, and how many idle turns to insert between reads (long readers
/// hold their snapshot open across fault events and GC runs).
struct Work {
    keys: Vec<u64>,
    write: bool,
    idle_between: u32,
}

/// YCSB-style Zipfian key chooser: weight of key `i` is `1/(i+1)^theta`,
/// picked by CDF inversion over precomputed cumulative weights. Theta 0 is
/// uniform; the standard YCSB skew is ~0.99. Hot keys are the low ids —
/// the sim's keyspace is small and anonymous, so scrambling adds nothing.
struct KeyPicker {
    cum: Vec<f64>,
}

impl KeyPicker {
    fn new(keyspace: u64, theta: f64) -> Self {
        let mut cum = Vec::with_capacity(keyspace as usize);
        let mut total = 0.0;
        for i in 0..keyspace {
            total += 1.0 / ((i + 1) as f64).powf(theta);
            cum.push(total);
        }
        KeyPicker { cum }
    }

    fn pick(&self, rng: &mut StdRng) -> u64 {
        let total = *self.cum.last().expect("non-empty keyspace");
        let r: f64 = rng.random::<f64>() * total;
        self.cum.partition_point(|&c| c <= r) as u64 % self.cum.len() as u64
    }
}

fn plan_work(rng: &mut StdRng, picker: &KeyPicker, keyspace: u64) -> Work {
    let roll: f64 = rng.random();
    if roll >= 0.90 {
        // Long scan: a contiguous slice of the keyspace read with idle
        // turns in between — the snapshot stays open across fault events,
        // GC runs and (at weak levels) many foreign commits.
        let len = (rng.random_range(4..=8usize) as u64).min(keyspace) as usize;
        let start = picker.pick(rng);
        let keys: Vec<u64> = (0..len as u64).map(|i| (start + i) % keyspace).collect();
        return Work { keys, write: false, idle_between: 2 };
    }
    let (nkeys, write, idle_between) = if roll < 0.25 {
        (rng.random_range(1..=3usize), false, 0) // read-only
    } else if roll < 0.80 {
        (rng.random_range(1..=2usize), true, 0) // read-modify-write
    } else {
        // Long reader: many skewed keys, idle turns in between, sometimes
        // a write at the end (an old snapshot trying to commit is exactly
        // the first-committer-wins case).
        (rng.random_range(4..=8usize), rng.random_bool(0.5), 2)
    };
    let nkeys = (nkeys as u64).min(keyspace) as usize;
    let mut keys = Vec::with_capacity(nkeys);
    while keys.len() < nkeys {
        let k = picker.pick(rng);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    Work { keys, write, idle_between }
}

fn is_transient(e: &Error) -> bool {
    matches!(e, Error::Conflict | Error::Unavailable(_))
}

#[allow(clippy::too_many_arguments)]
fn worker_main(
    w: usize,
    shared: &Shared,
    db: &std::sync::Arc<Database>,
    table: &std::sync::Arc<TableDef>,
    rids: &[tell_common::Rid],
    picker: &KeyPicker,
    cfg: &SimConfig,
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ WORKER_STREAM ^ ((w as u64) << 32 | w as u64));

    // First turn: create the PN here so PnId assignment follows the
    // deterministic grant order, and the PN's virtual clock lives on this
    // thread.
    shared.acquire(w);
    let pn = db.processing_node();
    let mut last_now = pn.clock().now_us();
    shared.release(w, 0.0, Effect::None);

    let mut txn: Option<tell_core::Transaction<'_, std::sync::Arc<StoreCluster>>> = None;
    let mut work = Work { keys: Vec::new(), write: false, idle_between: 0 };
    let mut read_pos = 0usize;
    let mut write_pos = 0usize;
    let mut idle_left = 0u32;
    let mut reads: Vec<(u64, u64)> = Vec::new();

    loop {
        let stop = shared.acquire(w);
        let mut effect = Effect::None;
        let mut extra_us = 0.0;
        let mut finished = false;

        match txn.as_mut() {
            None if stop => {
                shared.finish(w);
                return;
            }
            None => match pn.begin_at(cfg.isolation) {
                Ok(t) => {
                    work = plan_work(&mut rng, picker, cfg.keys);
                    read_pos = 0;
                    write_pos = 0;
                    idle_left = 0;
                    reads = Vec::new();
                    effect = Effect::Began(LiveTxn {
                        snapshot: t.snapshot().clone(),
                        begin_seq: 0, // stamped by release under the lock
                        epoch: 0,
                    });
                    txn = Some(t);
                }
                Err(e) if is_transient(&e) => extra_us = BACKOFF_US,
                Err(e) => {
                    effect = Effect::Broke(Violation::UnexpectedError {
                        worker: w,
                        message: e.to_string(),
                    });
                    finished = true;
                }
            },
            Some(t) => {
                let tid = t.tid().raw();
                let snapshot = t.snapshot().clone();
                // A stop request ends the transaction on its next turn.
                let step: Result<Option<bool>, Error> = if stop {
                    t.abort().map(|_| Some(false))
                } else if idle_left > 0 {
                    idle_left -= 1;
                    Ok(None)
                } else if read_pos < work.keys.len() {
                    let k = work.keys[read_pos];
                    t.get(table, rids[k as usize]).map(|row| {
                        let observed = row.as_deref().and_then(row_writer).unwrap_or(u64::MAX);
                        reads.push((k, observed));
                        read_pos += 1;
                        idle_left = work.idle_between;
                        None
                    })
                } else if work.write && write_pos < work.keys.len() {
                    let k = work.keys[write_pos];
                    t.update(table, rids[k as usize], row_value(tid, k).into()).map(|_| {
                        write_pos += 1;
                        None
                    })
                } else {
                    t.commit().map(|_| Some(true))
                };
                match step {
                    Ok(None) => {}
                    Ok(Some(committed)) => {
                        effect = Effect::Finished(TxnRecord {
                            worker: w,
                            tid,
                            isolation: cfg.isolation,
                            snapshot,
                            begin_seq: 0, // stamped by release from LiveTxn
                            epoch: 0,
                            reads: std::mem::take(&mut reads),
                            writes: if committed && work.write {
                                work.keys.clone()
                            } else {
                                Vec::new()
                            },
                            committed,
                        });
                        txn = None;
                    }
                    Err(e) if is_transient(&e) => {
                        // Conflict (or a fault-window unavailability): the
                        // transaction is over. `commit` aborts internally
                        // before returning `Err`; a failed read/update
                        // leaves the txn running, so abort it explicitly.
                        let t = txn.as_mut().expect("txn present in step");
                        if t.is_running() {
                            if let Err(abort_err) = t.abort() {
                                if !is_transient(&abort_err) {
                                    effect = Effect::Broke(Violation::UnexpectedError {
                                        worker: w,
                                        message: abort_err.to_string(),
                                    });
                                    finished = true;
                                }
                            }
                        }
                        if !finished {
                            effect = Effect::Finished(TxnRecord {
                                worker: w,
                                tid,
                                isolation: cfg.isolation,
                                snapshot,
                                begin_seq: 0, // stamped by release from LiveTxn
                                epoch: 0,
                                reads: std::mem::take(&mut reads),
                                writes: Vec::new(),
                                committed: false,
                            });
                        }
                        txn = None;
                    }
                    Err(e) => {
                        effect = Effect::Broke(Violation::UnexpectedError {
                            worker: w,
                            message: e.to_string(),
                        });
                        txn = None;
                        finished = true;
                    }
                }
            }
        }

        let now = pn.clock().now_us();
        let delta = (now - last_now).max(0.0) + extra_us;
        last_now = now;
        if finished {
            // Apply the final effect, then bow out.
            shared.release(w, delta, effect);
            shared.acquire(w);
            shared.finish(w);
            return;
        }
        shared.release(w, delta, effect);
    }
}

// ---------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------

struct Scheduler<'a> {
    cfg: &'a SimConfig,
    db: &'a std::sync::Arc<Database>,
    table: &'a std::sync::Arc<TableDef>,
    rids: &'a [tell_common::Rid],
    rng: StdRng,
    /// CM instance ids handed to recovered managers (fresh, never reused).
    next_cm_id: u32,
    /// Ids of killed managers whose stale published state we keep erasing
    /// (in-flight transactions they issued republish it on completion; a
    /// real deployment's management node performs the same janitorial
    /// delete).
    killed_cms: Vec<u32>,
    /// PN crashes awaiting their recovery event: `(pn, tid, key)`.
    pending_crashes: Vec<(tell_common::PnId, TxnId, u64)>,
    stats: SimStats,
    /// Sim-local metrics registry, updated from turnstile state at each
    /// scrape. Deliberately NOT `tell_obs::global()`: parallel tests in
    /// one process pollute the global registry, and the telemetry history
    /// must be a pure function of the seed.
    reg: Registry,
    /// Rollup over the sim's own ring, ticked at the scrape cadence.
    rollup: Rollup,
    /// Health rules over the rolled points plus per-SN liveness.
    health: HealthEngine,
    telemetry: SimTelemetry,
    /// Committed/aborted totals already folded into `reg`.
    last_commits: u64,
    last_aborts: u64,
}

impl Scheduler<'_> {
    fn apply_event(&mut self, st: &mut TurnState, event: &FaultEvent) {
        self.stats.events_fired += 1;
        match event.kind {
            FaultKind::SnKill(n) => {
                if n < self.cfg.storage_nodes {
                    self.db.store().kill_node(SnId(n));
                }
            }
            FaultKind::SnRevive(n) => {
                if n < self.cfg.storage_nodes {
                    self.db.store().revive_node(SnId(n));
                }
            }
            FaultKind::SnRestart(n) => {
                if n < self.cfg.storage_nodes {
                    if self.cfg.durable {
                        match self.db.store().restart_node_from_log(SnId(n)) {
                            Ok(()) => {}
                            Err(e) => self.break_run(
                                st,
                                Violation::UnexpectedError {
                                    worker: usize::MAX,
                                    message: format!("sn-restart {n} failed: {e}"),
                                },
                            ),
                        }
                    } else {
                        // Hand-built plan on an in-memory deployment: the
                        // closest applicable action is a plain revive.
                        self.db.store().revive_node(SnId(n));
                    }
                }
            }
            FaultKind::RestoreReplication => {
                self.db.store().restore_replication();
            }
            FaultKind::CmKill => {
                let members = self.db.commit_managers().members();
                if members.len() > 1 {
                    let victim = members[0].0;
                    if self.db.commit_managers().fail(victim).is_ok() {
                        self.killed_cms.push(victim.raw());
                        st.epoch += 1;
                    }
                }
            }
            FaultKind::CmRecover => {
                let cluster = self.db.commit_managers();
                if (cluster.len() as u32) < self.cfg.commit_managers {
                    let id = CmId(self.next_cm_id);
                    self.next_cm_id += 1;
                    if cluster.spawn_recovered(id).is_ok() {
                        st.epoch += 1;
                    }
                }
            }
            FaultKind::PnCrash => match self.crash_pn_mid_commit() {
                Ok(()) => {}
                // The victim transaction's partition happened to be in a
                // fault window — no crash to inject this time.
                Err(e) if is_transient(&e) => {}
                Err(e) => self.break_run(
                    st,
                    Violation::UnexpectedError {
                        worker: usize::MAX,
                        message: format!("pn-crash injection failed: {e}"),
                    },
                ),
            },
            FaultKind::PnRecover => {
                if self.pending_crashes.is_empty() {
                    return;
                }
                let crash = self.pending_crashes.remove(0);
                match tell_core::recovery::recover_failed_pn(self.db, crash.0) {
                    Ok(_) => {}
                    // A partition the rollback needs is unavailable right
                    // now. Keep the crash queued: its tid stays active at
                    // the commit manager, pinning the lav below it, so GC
                    // cannot reclaim around the dirty version while we
                    // wait for a later recover (or the end of the run).
                    Err(e) if is_transient(&e) => self.pending_crashes.insert(0, crash),
                    Err(e) => self.break_run(
                        st,
                        Violation::UnexpectedError {
                            worker: usize::MAX,
                            message: format!("pn recovery failed: {e}"),
                        },
                    ),
                }
            }
            FaultKind::GcRun => match tell_core::gc::run_gc(self.db) {
                Ok(_) => self.check_gc_reachability(st),
                // A durable blackout window may leave partitions with no
                // fresh copy up; GC simply skips this pass and the next
                // scheduled run retries after restarts.
                Err(e) if is_transient(&e) => {}
                Err(e) => self.break_run(
                    st,
                    Violation::UnexpectedError {
                        worker: usize::MAX,
                        message: format!("gc failed: {e}"),
                    },
                ),
            },
        }
    }

    /// Reproduce §4.4.1's failure window: a PN that has written its log
    /// entry and applied one update, then dies before setting the commit
    /// flag. The dirty version stays in the store (invisible — its tid is
    /// committed nowhere) until the paired recovery event rolls it back.
    fn crash_pn_mid_commit(&mut self) -> tell_common::Result<()> {
        let crash_pn = self.db.processing_node();
        let pn_id = crash_pn.id();
        let txn = crash_pn.begin()?;
        let tid = txn.tid();
        let key = self.rng.random_range(0..self.cfg.keys);
        let rid = self.rids[key as usize];
        let client = self.db.admin_client();
        tell_core::txlog::append(
            &client,
            &tell_core::txlog::LogEntry {
                tid,
                pn: pn_id,
                timestamp_us: 0,
                write_set: vec![(self.table.id, rid)],
                committed: false,
            },
        )?;
        let record_key = keys::record(self.table.id, rid);
        let (token, raw) =
            client.get(&record_key)?.ok_or_else(|| Error::invalid("sim record missing"))?;
        let mut rec = VersionedRecord::decode(&raw)?;
        rec.add_version(tid, Some(row_value(tid.raw(), key).into()));
        client.store_conditional(&record_key, token, rec.encode())?;
        std::mem::forget(txn); // the PN is gone; nobody completes the tid
        self.pending_crashes.push((pn_id, tid, key));
        Ok(())
    }

    /// After a GC pass: every live snapshot must still be able to read its
    /// visible winner for every key (§5.4 keeps the newest version at or
    /// below the lav precisely so this holds).
    fn check_gc_reachability(&mut self, st: &mut TurnState) {
        // Committed writers per key, from the history recorded so far.
        let mut writers: std::collections::HashMap<u64, Vec<u64>> =
            std::collections::HashMap::new();
        for t in st.history.txns.iter().filter(|t| t.committed) {
            for &k in &t.writes {
                writers.entry(k).or_default().push(t.tid);
            }
        }
        let client = self.db.admin_client();
        for live in st.live.iter().flatten() {
            for key in 0..self.cfg.keys {
                let winner = writers
                    .get(&key)
                    .into_iter()
                    .flatten()
                    .filter(|tid| live.snapshot.contains(**tid))
                    .copied()
                    .max()
                    .unwrap_or(0);
                let record_key = keys::record(self.table.id, self.rids[key as usize]);
                let present = match client.get(&record_key) {
                    Ok(Some((_, raw))) => match VersionedRecord::decode(&raw) {
                        Ok(rec) => rec.has_version(winner),
                        Err(_) => false,
                    },
                    // The key's partition is inside a fault window (e.g. a
                    // durable blackout): unreachable, not reclaimed. Skip
                    // it — the next GC pass re-checks once it is back.
                    Err(e) if is_transient(&e) => continue,
                    _ => false,
                };
                if !present {
                    self.break_run(st, Violation::GcReachability { key, version: winner });
                    return;
                }
            }
        }
    }

    fn scrape(&mut self, st: &mut TurnState, at_us: f64) {
        // Janitor: erase state republished by killed managers (their
        // in-flight transactions re-create the key on completion), so the
        // cluster lav is computed over live members only.
        let client = self.db.admin_client();
        for id in &self.killed_cms {
            let _ = client.delete(&keys::cm_state(*id));
        }
        let cluster = self.db.commit_managers();
        let bases: Vec<(u32, u64)> =
            cluster.members().iter().map(|(id, base)| (id.raw(), *base)).collect();
        let lav = cluster.current_lav();
        st.history.scrapes.push(LavScrape { at_us, epoch: st.epoch, lav, bases });
        self.stats.scrapes += 1;

        // Telemetry rollup tick: fold turnstile state into the sim-local
        // registry, roll a point (virtual clock, wall 0 — reproducible
        // byte for byte), and run the health rules. Reachability is judged
        // per storage node; the cluster-wide metrics ride a synthetic
        // "cluster" tick so rate rules are evaluated once per interval,
        // not once per node.
        let commits = st.history.txns.iter().filter(|t| t.committed).count() as u64;
        let aborts = st.history.txns.len() as u64 - commits;
        self.reg.add(Counter::TxnCommitted, commits.saturating_sub(self.last_commits));
        self.reg.add(Counter::TxnAborted, aborts.saturating_sub(self.last_aborts));
        self.last_commits = commits;
        self.last_aborts = aborts;
        let max_tid = st.history.txns.iter().map(|t| t.tid).max().unwrap_or(lav);
        self.reg.set_gauge(Gauge::CmLavLag, max_tid.saturating_sub(lav));
        let point = self.rollup.roll(&self.reg, at_us, 0);
        let mut ticks: Vec<NodeTick> = self
            .db
            .store()
            .nodes()
            .iter()
            .map(|node| NodeTick {
                node: format!("sn{}", node.id.raw()),
                reachable: node.is_alive(),
                point: None,
            })
            .collect();
        ticks.push(NodeTick {
            node: "cluster".into(),
            reachable: true,
            point: Some(point.clone()),
        });
        let events = self.health.observe(at_us, 0, &ticks);
        self.telemetry.points.push(point);
        self.telemetry.events.extend(events);
    }

    fn break_run(&mut self, st: &mut TurnState, v: Violation) {
        if st.violation.is_none() {
            st.violation = Some(v);
        }
        st.stop = true;
    }
}

/// Monotonic counter making every durable run's temp directory unique —
/// the shrinker replays many plans in one process, and each replay must
/// start from empty logs.
static DURABLE_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Run `plan` against a fresh deployment described by `config`.
pub fn run_with_plan(config: &SimConfig, plan: FaultPlan) -> SimOutcome {
    // A durable run gets a fresh per-run data root; recovery content is a
    // pure function of the writes, so determinism is unaffected. Tiny
    // segments + a low checkpoint threshold make rotation, checkpointing
    // and multi-segment replay all happen inside even a short sim. Fsync
    // is off: restarts here re-open files written by a live process, so
    // the knob only costs wall time (crash-at-a-syscall coverage lives in
    // tell-durable's own proptests).
    let data_root = config.durable.then(|| {
        std::env::temp_dir().join(format!(
            "tell-sim-durable-{}-{}-{}",
            std::process::id(),
            config.seed,
            DURABLE_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    });
    let store_durability = data_root.as_ref().map(|root| {
        FsDurability::new(
            root.clone(),
            DurableNodeConfig {
                segment_bytes: 4096,
                fsync: FsyncPolicy::Never,
                checkpoint_every: 64,
            },
        ) as std::sync::Arc<dyn tell_store::DurabilityProvider>
    });
    let db = Database::create(TellConfig {
        storage_nodes: config.storage_nodes as usize,
        replication_factor: config.replication_factor as usize,
        commit_managers: config.commit_managers as usize,
        store_durability,
        cm: CmConfig {
            // Wall-clock syncing would be nondeterministic; sync on
            // operation counts instead.
            sync_interval: std::time::Duration::from_secs(3600),
            sync_every_ops: 4,
            ..CmConfig::default()
        },
        ..TellConfig::default()
    });
    let table = db
        .create_table(
            "sim",
            vec![IndexSpec::new("pk", true, |r: &[u8]| {
                r.get(8..16).map(bytes::Bytes::copy_from_slice)
            })],
        )
        .expect("create sim table");
    let rows: Vec<bytes::Bytes> = (0..config.keys).map(|k| row_value(0, k).into()).collect();
    let rids = db.bulk_load(&table, rows).expect("bulk load sim rows");

    let shared = Shared {
        state: Mutex::new(TurnState {
            turn: Turn::Scheduler,
            clocks: vec![0.0; config.workers],
            done: vec![false; config.workers],
            stop: false,
            live: (0..config.workers).map(|_| None).collect(),
            history: History::default(),
            epoch: 0,
            violation: None,
        }),
        cv: Condvar::new(),
    };

    let horizon = config.horizon_us();
    let mut scheduler = Scheduler {
        cfg: config,
        db: &db,
        table: &table,
        rids: &rids,
        rng: StdRng::seed_from_u64(config.seed ^ SCHED_STREAM),
        next_cm_id: 100,
        killed_cms: Vec::new(),
        pending_crashes: Vec::new(),
        stats: SimStats::default(),
        reg: Registry::new(),
        rollup: Rollup::new(Arc::new(TsRing::new(DEFAULT_RING_POINTS))),
        health: HealthEngine::new(HealthConfig::default()),
        telemetry: SimTelemetry::default(),
        last_commits: 0,
        last_aborts: 0,
    };
    let scrape_interval = horizon / 24.0;
    let mut next_scrape = scrape_interval;
    let mut event_idx = 0usize;

    let picker = KeyPicker::new(config.keys, config.zipf_theta);

    let (history, violation, mut stats, telemetry) = std::thread::scope(|scope| {
        for w in 0..config.workers {
            let shared = &shared;
            let db = &db;
            let table = &table;
            let rids = &rids[..];
            let picker = &picker;
            scope.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    worker_main(w, shared, db, table, rids, picker, config);
                }));
                if let Err(panic) = result {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".into());
                    let mut st = shared.state.lock().unwrap();
                    if st.violation.is_none() {
                        st.violation = Some(Violation::UnexpectedError { worker: w, message });
                    }
                    st.stop = true;
                    st.done[w] = true;
                    st.live[w] = None;
                    st.turn = Turn::Scheduler;
                    shared.cv.notify_all();
                }
            });
        }

        let mut st = shared.state.lock().unwrap();
        loop {
            while st.turn != Turn::Scheduler {
                st = shared.cv.wait(st).unwrap();
            }
            if st.done.iter().all(|d| *d) {
                break;
            }
            // Next turn: the live worker with the smallest virtual clock.
            let (next, min_clock) = st
                .clocks
                .iter()
                .enumerate()
                .filter(|(w, _)| !st.done[*w])
                .map(|(w, c)| (w, *c))
                .fold(
                    (usize::MAX, f64::INFINITY),
                    |best, (w, c)| {
                        if c < best.1 {
                            (w, c)
                        } else {
                            best
                        }
                    },
                );
            if !st.stop {
                if min_clock >= horizon {
                    st.stop = true;
                } else {
                    while event_idx < plan.events.len()
                        && plan.events[event_idx].at_us <= min_clock
                        && !st.stop
                    {
                        let event = plan.events[event_idx];
                        event_idx += 1;
                        scheduler.apply_event(&mut st, &event);
                    }
                    while next_scrape <= min_clock {
                        scheduler.scrape(&mut st, next_scrape);
                        next_scrape += scrape_interval;
                    }
                }
            }
            st.turn = Turn::Worker(next);
            shared.cv.notify_all();
        }
        let end = st.clocks.iter().cloned().fold(0.0f64, f64::max);
        scheduler.stats.virtual_end_us = end;
        (
            std::mem::take(&mut st.history),
            st.violation.take(),
            scheduler.stats,
            std::mem::take(&mut scheduler.telemetry),
        )
    });

    stats.final_lav = db.commit_managers().current_lav();
    stats.txns = history.txns.len();
    stats.commits = history.txns.iter().filter(|t| t.committed).count();
    stats.aborts = stats.txns - stats.commits;
    stats.reads = history.txns.iter().map(|t| t.reads.len()).sum();
    stats.writes = history.txns.iter().filter(|t| t.committed).map(|t| t.writes.len()).sum();

    // A live violation (GC reachability, unexpected error) trumps the
    // post-hoc check; otherwise the history faces the oracle matching the
    // level the run executed at.
    let (violation, check) = match violation {
        Some(v) => (Some(v), None),
        None => match checker::check_at(config.isolation, &history) {
            Ok(stats) => (None, Some(stats)),
            Err(v) => (Some(v), None),
        },
    };

    // The engines keep their files open, so unlinking the per-run root is
    // safe even before the deployment drops.
    if let Some(root) = data_root {
        let _ = std::fs::remove_dir_all(root);
    }

    SimOutcome { plan, history, stats, telemetry, violation, check }
}

/// Shrink a failing plan to the smallest failing prefix by bisection and
/// return that minimal run. If the full plan does not fail, its (passing)
/// outcome is returned unchanged.
pub fn shrink_plan(config: &SimConfig, plan: &FaultPlan) -> SimOutcome {
    let full = run_with_plan(config, plan.clone());
    if full.ok() {
        return full;
    }
    // Invariant: prefix(hi) fails; lo is the largest known-passing length.
    let mut lo = 0usize;
    let mut hi = plan.events.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if run_with_plan(config, plan.prefix(mid)).ok() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    run_with_plan(config, plan.prefix(hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mix: FaultMix, seed: u64) -> SimConfig {
        SimConfig { seed, virtual_secs: 0.05, mix, workers: 3, keys: 12, ..SimConfig::default() }
    }

    fn digest(outcome: &SimOutcome) -> Vec<(u64, bool, usize, usize)> {
        outcome
            .history
            .txns
            .iter()
            .map(|t| (t.tid, t.committed, t.reads.len(), t.writes.len()))
            .collect()
    }

    #[test]
    fn fault_free_run_passes_the_oracle() {
        let outcome = run(&tiny(FaultMix::None, 11));
        assert!(outcome.ok(), "violation: {:?}", outcome.violation);
        assert!(outcome.stats.commits > 0, "no commits in {:?}", outcome.stats);
        assert!(outcome.check.unwrap().reads_checked > 0);
    }

    #[test]
    fn every_level_passes_its_own_oracle() {
        for level in IsolationLevel::ALL {
            let cfg = SimConfig { isolation: level, ..tiny(FaultMix::None, 11) };
            let outcome = run(&cfg);
            assert!(outcome.ok(), "{level}: violation {:?}", outcome.violation);
            assert!(outcome.stats.commits > 0, "{level}: no commits in {:?}", outcome.stats);
        }
    }

    #[test]
    fn same_seed_is_bit_reproducible() {
        let cfg = tiny(FaultMix::SnChurn, 7);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.plan, b.plan);
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.stats.events_fired, b.stats.events_fired);
    }

    #[test]
    fn sn_churn_run_passes_the_oracle() {
        let outcome = run(&tiny(FaultMix::SnChurn, 3));
        assert!(outcome.ok(), "violation: {:?}", outcome.violation);
        assert!(outcome.stats.events_fired > 0);
    }

    #[test]
    fn cm_restart_run_passes_the_oracle() {
        let outcome = run(&tiny(FaultMix::CmRestart, 5));
        assert!(outcome.ok(), "violation: {:?}", outcome.violation);
    }

    #[test]
    fn full_mix_run_passes_the_oracle() {
        let outcome = run(&tiny(FaultMix::All, 9));
        assert!(outcome.ok(), "violation: {:?}", outcome.violation);
    }

    fn tiny_durable(mix: FaultMix, seed: u64) -> SimConfig {
        SimConfig { durable: true, ..tiny(mix, seed) }
    }

    #[test]
    fn durable_sn_churn_run_passes_the_oracle() {
        let outcome = run(&tiny_durable(FaultMix::SnChurn, 3));
        assert!(outcome.ok(), "violation: {:?}", outcome.violation);
        assert!(outcome.stats.events_fired > 0);
        assert!(outcome.stats.commits > 0, "no commits in {:?}", outcome.stats);
    }

    #[test]
    fn durable_full_mix_run_passes_the_oracle() {
        let outcome = run(&tiny_durable(FaultMix::All, 9));
        assert!(outcome.ok(), "violation: {:?}", outcome.violation);
    }

    #[test]
    fn durable_run_is_bit_reproducible() {
        let cfg = tiny_durable(FaultMix::SnChurn, 7);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.plan, b.plan);
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.stats.events_fired, b.stats.events_fired);
    }

    #[test]
    fn kill_all_copy_holders_then_restart_from_log_passes_the_oracle() {
        // The scenario the in-memory budget forbids: every storage node —
        // and therefore every copy of every partition — dies inside the
        // run, and the cluster comes back purely from the durable logs.
        let cfg = tiny_durable(FaultMix::None, 21);
        let horizon = cfg.horizon_us();
        let mut events = Vec::new();
        for n in 0..cfg.storage_nodes {
            events.push(FaultEvent { at_us: horizon * 0.3, kind: FaultKind::SnKill(n) });
        }
        for n in 0..cfg.storage_nodes {
            events.push(FaultEvent {
                at_us: horizon * (0.45 + 0.02 * n as f64),
                kind: FaultKind::SnRestart(n),
            });
        }
        events.push(FaultEvent { at_us: horizon * 0.6, kind: FaultKind::GcRun });
        let plan = FaultPlan { seed: 0, events };
        let total = plan.events.len();
        let outcome = run_with_plan(&cfg, plan);
        assert!(outcome.ok(), "violation: {:?}", outcome.violation);
        assert_eq!(outcome.stats.events_fired, total, "all events must fire");
        // The run must regain liveness after the blackout: some commits
        // recorded strictly after every node restarted.
        let check = outcome.check.expect("checker ran");
        assert!(check.reads_checked > 0);
        assert!(outcome.stats.commits > 0, "no commits in {:?}", outcome.stats);
        assert!(
            outcome.stats.virtual_end_us >= horizon * 0.9,
            "run wound down early at {}us",
            outcome.stats.virtual_end_us
        );
    }

    #[test]
    fn telemetry_history_is_bit_reproducible() {
        // The observability acceptance bar: same seed, same fault mix —
        // byte-identical telemetry points AND byte-identical rendered
        // health-event sequence across two runs.
        let cfg = tiny(FaultMix::SnChurn, 17);
        let a = run(&cfg);
        let b = run(&cfg);
        assert!(a.ok(), "violation: {:?}", a.violation);
        assert!(!a.telemetry.points.is_empty(), "scrapes must roll points");
        assert_eq!(a.telemetry.points.len(), a.stats.scrapes);
        assert_eq!(a.telemetry.points, b.telemetry.points);
        assert_eq!(a.telemetry.rendered_events(), b.telemetry.rendered_events());
        // ... and identical to what earlier builds rendered for this seed.
        let golden: Vec<&str> =
            include_str!("../golden/health_snchurn_seed17.txt").lines().collect();
        assert_eq!(a.telemetry.rendered_events(), golden, "health events drifted from the golden");
        // Commit/abort deltas in the points tile the run's totals.
        let commits: u64 =
            a.telemetry.points.iter().map(|p| p.counter(Counter::TxnCommitted)).sum();
        assert!(commits <= a.stats.commits as u64);
        assert!(commits > 0 || a.stats.commits == 0, "scrape deltas must carry the run's commits");
    }

    #[test]
    fn sn_kill_window_fires_and_resolves_replica_unavailable() {
        // Hand-built plan: SN 0 dies for the middle of the run. The health
        // engine must fire replica_unavailable for sn0 inside the window
        // and resolve it after the revive — in that order, exactly once
        // each.
        let cfg = tiny(FaultMix::None, 23);
        let horizon = cfg.horizon_us();
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent { at_us: horizon * 0.2, kind: FaultKind::SnKill(0) },
                FaultEvent { at_us: horizon * 0.6, kind: FaultKind::SnRevive(0) },
            ],
        };
        let outcome = run_with_plan(&cfg, plan);
        assert!(outcome.ok(), "violation: {:?}", outcome.violation);
        let rendered = outcome.telemetry.rendered_events();
        let firing: Vec<usize> = rendered
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("FIRING replica_unavailable node=sn0"))
            .map(|(i, _)| i)
            .collect();
        let resolved: Vec<usize> = rendered
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("resolved replica_unavailable node=sn0"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(firing.len(), 1, "exactly one firing transition: {rendered:?}");
        assert_eq!(resolved.len(), 1, "exactly one resolve transition: {rendered:?}");
        assert!(firing[0] < resolved[0], "fire before resolve: {rendered:?}");
        // Replay of the identical plan reproduces the identical sequence.
        let again = run_with_plan(
            &cfg,
            FaultPlan {
                seed: 0,
                events: vec![
                    FaultEvent { at_us: horizon * 0.2, kind: FaultKind::SnKill(0) },
                    FaultEvent { at_us: horizon * 0.6, kind: FaultKind::SnRevive(0) },
                ],
            },
        );
        assert_eq!(again.telemetry.rendered_events(), rendered);
    }

    #[test]
    fn shrink_returns_passing_outcome_for_clean_plan() {
        let cfg = tiny(FaultMix::None, 13);
        let plan = FaultPlan::generate(cfg.seed, cfg.mix, cfg.horizon_us(), cfg.topology());
        let outcome = shrink_plan(&cfg, &plan);
        assert!(outcome.ok());
        assert_eq!(outcome.plan.events.len(), plan.events.len());
    }
}
