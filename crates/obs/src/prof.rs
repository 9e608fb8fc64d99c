//! `tell-prof`: the always-on logical-stack sampling profiler.
//!
//! Histograms (PR 3) and telemetry rings (PR 8) show *that* a percentile
//! moved; this module shows *where the microseconds go*. It is not a native
//! profiler — there is no frame-pointer walking and no signal handling.
//! Instead, every [`crate::Probe`] pushes its one-byte [`Site`] code onto a
//! per-thread logical stack (cost: one thread-local read plus one relaxed
//! store per push/pop), and a dedicated sampler thread walks a fixed
//! registry of those stacks at `TELL_PROF_HZ` (default [`DEFAULT_HZ`] = 99,
//! deliberately co-prime with common timer frequencies), folding what it
//! sees into a bounded [`CollapsedTable`] of
//! `frame;frame;frame count` rows — the collapsed-stack format inferno and
//! speedscope ingest directly. Wakes are capped at `WAKE_HZ_CAP` per
//! second; higher rates credit multiple periods per wake, because the
//! cost of a wake is the preemption it inflicts, not the walk.
//!
//! Three dimensions share the site vocabulary:
//!
//! * **CPU-ish time**: the sampler credits one sample per tick to each
//!   live thread's current stack (`idle` when the stack is empty).
//! * **Lock contention**: [`ProfMutex`] wraps `parking_lot::Mutex` with a
//!   `try_lock` fast path; a contended acquire records the wait per named
//!   lock, bumps the `lock_contended_total` / `lock_wait_us_total`
//!   registry counters, and — while the live profiler runs — charges
//!   `wait / period` synthetic samples to the blocking stack capped with a
//!   [`Site::LockWait`] frame, so lock wait shows up inside the
//!   flamegraph exactly where it was paid.
//!
//! Determinism under the simulator: wall-clock sampling is useless there
//! (the turnstile parks workers between steps with their phase frames
//! popped) and nondeterministic besides. Instead a [`SimProfile`] samples
//! on the **virtual clock**: worker threads attach with [`sim_attach`] and
//! every simulated-cost charge point calls [`sim_tick`] with the thread's
//! virtual now, which credits `floor(elapsed / period)` samples to the
//! stack *at charge time* — inside the phase frames that paid the cost.
//! Same seed, same charges, same stacks: the folded profile is
//! bit-identical across replays. Sim-attached threads set a non-zero
//! domain tag on their slot so the wall-clock sampler skips them.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use tell_common::{Error, Result};

use crate::registry::Counter;
use crate::Site;

/// Deepest logical stack the profiler records; deeper pushes still balance
/// but the excess frames are not sampled.
pub const MAX_DEPTH: usize = 16;

/// Fixed thread-slot pool. Threads past the pool size run unprofiled —
/// far above any realistic worker count in this workspace.
const MAX_THREADS: usize = 256;

struct ThreadSlot {
    in_use: AtomicBool,
    /// 0 = live thread (wall-clock sampled); non-zero = sim-attached
    /// (virtual-clock sampled, skipped by the wall sampler).
    domain: AtomicU64,
    depth: AtomicUsize,
    frames: [AtomicU8; MAX_DEPTH],
}

impl ThreadSlot {
    #[allow(clippy::declare_interior_mutable_const)]
    const INIT: ThreadSlot = ThreadSlot {
        in_use: AtomicBool::new(false),
        domain: AtomicU64::new(0),
        depth: AtomicUsize::new(0),
        frames: [const { AtomicU8::new(0) }; MAX_DEPTH],
    };
}

static SLOTS: [ThreadSlot; MAX_THREADS] = [ThreadSlot::INIT; MAX_THREADS];

/// One past the highest slot index ever claimed. The sampler walks only
/// this prefix — with a handful of threads that is a handful of loads per
/// wake, not `MAX_THREADS`. Monotonic: released slots stay inside the
/// prefix (their `in_use` flag gates them out) so a racing claim can
/// never escape the walk.
static SLOT_HWM: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's claimed slot. Const-init and never dropped, so it is
    /// safe to *read* from the counting allocator without recursion.
    static SLOT: Cell<Option<&'static ThreadSlot>> = const { Cell::new(None) };
    /// Companion with a destructor: releases the slot at thread exit.
    static SLOT_RELEASE: SlotRelease = const { SlotRelease { slot: Cell::new(None) } };
}

struct SlotRelease {
    slot: Cell<Option<&'static ThreadSlot>>,
}

impl Drop for SlotRelease {
    fn drop(&mut self) {
        if let Some(s) = self.slot.get() {
            let _ = SLOT.try_with(|c| c.set(None));
            s.depth.store(0, Ordering::Relaxed);
            s.domain.store(0, Ordering::Relaxed);
            s.in_use.store(false, Ordering::Release);
        }
    }
}

/// This thread's slot, claiming one from the pool on first use. `None`
/// when the pool is exhausted or thread-local storage is tearing down.
fn my_slot() -> Option<&'static ThreadSlot> {
    SLOT.try_with(|c| {
        if let Some(s) = c.get() {
            return Some(s);
        }
        for (i, slot) in SLOTS.iter().enumerate() {
            if slot
                .in_use
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                slot.depth.store(0, Ordering::Relaxed);
                slot.domain.store(0, Ordering::Relaxed);
                SLOT_HWM.fetch_max(i + 1, Ordering::Relaxed);
                c.set(Some(slot));
                let _ = SLOT_RELEASE.try_with(|r| r.slot.set(Some(slot)));
                return Some(slot);
            }
        }
        None
    })
    .ok()
    .flatten()
}

/// This thread's current stack as frame codes (shallowest first).
fn current_stack_codes() -> Vec<u8> {
    let Some(slot) = my_slot() else {
        return Vec::new();
    };
    let d = slot.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
    (0..d).map(|i| slot.frames[i].load(Ordering::Relaxed)).collect()
}

/// RAII frame on the logical stack, held by a [`crate::Probe`]. Push and
/// pop are each one thread-local read plus one relaxed/release store; there
/// is no check of whether any sampler is running — the frames *are* the
/// always-on part.
///
/// Guards normally nest like scopes. A guard dropped on another thread
/// (e.g. a transaction root moved across threads) or out of order simply
/// truncates the originating slot's stack back to its saved depth — that
/// smears a few samples, it cannot corrupt memory.
pub(crate) struct FrameGuard {
    slot: Option<&'static ThreadSlot>,
    prev_depth: usize,
}

impl FrameGuard {
    /// Push `site` onto this thread's logical stack.
    #[inline]
    pub(crate) fn enter(site: Site) -> FrameGuard {
        let slot = my_slot();
        let mut prev_depth = 0;
        if let Some(s) = slot {
            let d = s.depth.load(Ordering::Relaxed);
            prev_depth = d;
            if d < MAX_DEPTH {
                s.frames[d].store(site as u8, Ordering::Relaxed);
            }
            // Release so a sampler that observes the new depth also
            // observes the frame byte written above.
            s.depth.store(d + 1, Ordering::Release);
        }
        FrameGuard { slot, prev_depth }
    }

    /// A guard that pushed nothing.
    pub(crate) fn empty() -> FrameGuard {
        FrameGuard { slot: None, prev_depth: 0 }
    }

    /// Pop the frame now (idempotent; the drop then does nothing).
    #[inline]
    pub(crate) fn pop(&mut self) {
        if let Some(s) = self.slot.take() {
            s.depth.store(self.prev_depth, Ordering::Release);
        }
    }
}

impl Drop for FrameGuard {
    #[inline]
    fn drop(&mut self) {
        self.pop();
    }
}

// ---------------------------------------------------------------------------
// Collapsed-stack table
// ---------------------------------------------------------------------------

/// Default bound on distinct stacks held by a table. The frame taxonomy is
/// small, so real profiles sit far below this; the bound exists so a bug
/// (or a hostile `parse_folded` input) cannot balloon memory.
pub const DEFAULT_MAX_STACKS: usize = 512;

/// Bounded aggregation of sampled stacks: `frame-code sequence → count`.
///
/// Keys are ordered byte sequences, so iteration — and therefore
/// [`CollapsedTable::to_folded`] — is deterministic with no sorting step.
/// Once `max_stacks` distinct stacks exist, samples for *new* stacks are
/// tallied in `dropped` instead of silently lost.
#[derive(Clone, Debug, PartialEq)]
pub struct CollapsedTable {
    max_stacks: usize,
    stacks: BTreeMap<Vec<u8>, u64>,
    dropped: u64,
}

impl CollapsedTable {
    /// Empty table bounded to `max_stacks` distinct stacks.
    pub const fn new(max_stacks: usize) -> CollapsedTable {
        CollapsedTable { max_stacks, stacks: BTreeMap::new(), dropped: 0 }
    }

    /// Credit `n` samples to the stack `key` (frame codes, shallowest
    /// first). Over the cardinality bound, the samples go to the drop
    /// counter.
    pub fn add(&mut self, key: &[u8], n: u64) {
        if let Some(v) = self.stacks.get_mut(key) {
            *v += n;
        } else if self.stacks.len() < self.max_stacks {
            self.stacks.insert(key.to_vec(), n);
        } else {
            self.dropped += n;
        }
    }

    /// Fold another table into this one.
    pub fn merge(&mut self, other: &CollapsedTable) {
        for (k, v) in &other.stacks {
            self.add(k, *v);
        }
        self.dropped += other.dropped;
    }

    /// Number of distinct stacks.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// Whether no stack has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Samples lost to the cardinality bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sum of all recorded sample counts (excluding dropped).
    pub fn total(&self) -> u64 {
        self.stacks.values().sum()
    }

    /// `(stack names, count)` rows in deterministic (key) order.
    pub fn rows(&self) -> Vec<(Vec<&'static str>, u64)> {
        self.stacks
            .iter()
            .map(|(k, v)| {
                let names =
                    k.iter().map(|&c| Site::from_u8(c).map(|f| f.name()).unwrap_or("?")).collect();
                (names, *v)
            })
            .collect()
    }

    /// Render in collapsed-stack ("folded") format, one
    /// `frame;frame;frame count` line per stack, deterministically
    /// ordered. Inferno's `flamegraph --from folded` and speedscope both
    /// ingest this directly.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (names, count) in self.rows() {
            out.push_str(&names.join(";"));
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse folded text produced by [`CollapsedTable::to_folded`] (or by
    /// hand). Unknown frame names, malformed counts, and empty stacks are
    /// corruption; samples past `max_stacks` land in the drop counter,
    /// same as [`CollapsedTable::add`].
    pub fn parse_folded(text: &str, max_stacks: usize) -> Result<CollapsedTable> {
        let mut table = CollapsedTable::new(max_stacks);
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (stack, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| Error::corrupt(format!("folded line without count: {line:?}")))?;
            let count: u64 = count
                .parse()
                .map_err(|_| Error::corrupt(format!("bad folded count: {count:?}")))?;
            let key = stack
                .split(';')
                .map(|name| Site::from_name(name).map(|k| k as u8))
                .collect::<Result<Vec<u8>>>()?;
            if key.is_empty() {
                return Err(Error::corrupt("empty stack in folded line".to_string()));
            }
            table.add(&key, count);
        }
        Ok(table)
    }
}

// ---------------------------------------------------------------------------
// Profile report (the scrape payload)
// ---------------------------------------------------------------------------

/// Contention totals for one named lock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockStat {
    /// Registration name (e.g. `cm.state`).
    pub name: String,
    /// Acquires that found the lock held.
    pub contended: u64,
    /// Total microseconds spent waiting in those acquires.
    pub wait_us: u64,
}

/// Everything one profiler scrape returns; `Response::Profile` carries
/// this across the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// Whether the sampler was running at fetch time.
    pub running: bool,
    /// Sampling rate the profiler was (last) started with.
    pub hz: f64,
    /// Samples credited to non-empty stacks (equals the folded total plus
    /// `dropped`).
    pub samples: u64,
    /// Samples that found an empty stack (thread alive but outside any
    /// instrumented region).
    pub idle: u64,
    /// Samples lost to the stack-cardinality bound.
    pub dropped: u64,
    /// The collapsed-stack table, rendered (deterministically ordered).
    pub folded: String,
    /// Per-lock contention totals, busiest (by wait) first.
    pub locks: Vec<LockStat>,
}

impl ProfileReport {
    /// Merge several nodes' reports into one cluster profile. Stacks,
    /// sample, idle and drop counts add up; lock stats add up by name,
    /// busiest (by wait) first. The rate is the first report's, and the
    /// merge is running if any part is.
    /// `None` for no parts; an error for a malformed folded payload.
    pub fn merge(parts: Vec<ProfileReport>) -> Result<Option<ProfileReport>> {
        let mut table = CollapsedTable::new(usize::MAX);
        let mut merged: Option<ProfileReport> = None;
        for part in parts {
            table.merge(&CollapsedTable::parse_folded(&part.folded, usize::MAX)?);
            let Some(acc) = merged.as_mut() else {
                merged = Some(part);
                continue;
            };
            acc.running |= part.running;
            acc.samples += part.samples;
            acc.idle += part.idle;
            acc.dropped += part.dropped;
            for lock in part.locks {
                match acc.locks.iter_mut().find(|l| l.name == lock.name) {
                    Some(l) => {
                        l.contended += lock.contended;
                        l.wait_us += lock.wait_us;
                    }
                    None => acc.locks.push(lock),
                }
            }
        }
        Ok(merged.map(|mut report| {
            report.folded = table.to_folded();
            report.locks.sort_by(|a, b| b.wait_us.cmp(&a.wait_us).then(a.name.cmp(&b.name)));
            report
        }))
    }
}

// ---------------------------------------------------------------------------
// Live (wall-clock) sampler
// ---------------------------------------------------------------------------

/// Default sampling rate when `TELL_PROF_HZ` is unset: 99 Hz, co-prime
/// with common periodic work so samples do not phase-lock to it.
pub const DEFAULT_HZ: f64 = 99.0;

/// Sampling rate from `TELL_PROF_HZ`, falling back to [`DEFAULT_HZ`].
pub fn default_hz() -> f64 {
    std::env::var("TELL_PROF_HZ")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(DEFAULT_HZ)
}

struct LiveProfiler {
    running: AtomicBool,
    period_us_bits: AtomicU64,
    samples: AtomicU64,
    idle: AtomicU64,
    table: Mutex<CollapsedTable>,
}

static LIVE: LiveProfiler = LiveProfiler {
    running: AtomicBool::new(false),
    period_us_bits: AtomicU64::new(0),
    samples: AtomicU64::new(0),
    idle: AtomicU64::new(0),
    table: Mutex::new(CollapsedTable::new(DEFAULT_MAX_STACKS)),
};

static SAMPLER: Mutex<Option<std::thread::JoinHandle<()>>> = Mutex::new(None);

/// Whether the live sampler is currently running.
#[inline]
pub fn is_running() -> bool {
    LIVE.running.load(Ordering::Relaxed)
}

/// The live sampling period in microseconds (0 when never started).
fn live_period_us() -> f64 {
    f64::from_bits(LIVE.period_us_bits.load(Ordering::Relaxed))
}

/// Start the wall-clock sampler at `hz` (`None`: `TELL_PROF_HZ` /
/// [`DEFAULT_HZ`]), resetting any previous profile. Returns `false` if it
/// was already running (the running profile is untouched).
pub fn start(hz: Option<f64>) -> bool {
    let hz = hz.filter(|h| *h > 0.0).unwrap_or_else(default_hz);
    if LIVE.running.swap(true, Ordering::SeqCst) {
        return false;
    }
    let period_us = 1e6 / hz;
    LIVE.period_us_bits.store(period_us.to_bits(), Ordering::Relaxed);
    LIVE.samples.store(0, Ordering::Relaxed);
    LIVE.idle.store(0, Ordering::Relaxed);
    *LIVE.table.lock() = CollapsedTable::new(DEFAULT_MAX_STACKS);
    // Above WAKE_HZ_CAP the sampler sleeps `credit` periods per wake and
    // credits each observed stack `credit` samples — the same charge-time
    // crediting the sim sampler uses. The dominant cost of a wake is not
    // the walk but the preemption itself (the interrupted thread resumes
    // with cold caches, and the damage scales with its working set), so
    // capping the wake rate is what keeps high-hz profiles cheap.
    let credit = (hz / WAKE_HZ_CAP).ceil().max(1.0) as u64;
    let handle = std::thread::Builder::new()
        .name("tell-prof".into())
        .spawn(move || {
            let sleep =
                std::time::Duration::from_secs_f64((credit as f64 * period_us / 1e6).max(50e-6));
            while LIVE.running.load(Ordering::Relaxed) {
                std::thread::sleep(sleep);
                sample_all_live(credit);
            }
        })
        .expect("spawn tell-prof sampler");
    *SAMPLER.lock() = Some(handle);
    true
}

/// Stop the sampler (the accumulated profile stays fetchable). Returns
/// `false` if it was not running.
pub fn stop() -> bool {
    if !LIVE.running.swap(false, Ordering::SeqCst) {
        return false;
    }
    if let Some(h) = SAMPLER.lock().take() {
        let _ = h.join();
    }
    true
}

/// Most sampler wakes per second, regardless of the requested rate. Each
/// wake preempts whatever thread holds the core, and the preempted thread
/// resumes with cold caches — a cost proportional to its working set, not
/// to anything the sampler does. Above the cap, rate is preserved by
/// crediting multiple periods per wake ([`start`]).
const WAKE_HZ_CAP: f64 = 250.0;

/// One sampler tick: walk every live (domain-0) slot, crediting `n`
/// samples per observed stack.
fn sample_all_live(n: u64) {
    let mut key = Vec::with_capacity(MAX_DEPTH);
    // The table lock is taken at most once per wake (lazily, on the first
    // non-idle stack) and held across the walk — the walk is a few dozen
    // atomic loads, and keeping wakes cheap matters more than lock-hold
    // granularity on a sampler that fires hundreds of times a second.
    let mut table = None;
    let hwm = SLOT_HWM.load(Ordering::Relaxed).min(MAX_THREADS);
    for slot in SLOTS[..hwm].iter() {
        if !slot.in_use.load(Ordering::Acquire) || slot.domain.load(Ordering::Relaxed) != 0 {
            continue;
        }
        let d = slot.depth.load(Ordering::Acquire).min(MAX_DEPTH);
        if d == 0 {
            LIVE.idle.fetch_add(n, Ordering::Relaxed);
            continue;
        }
        key.clear();
        for i in 0..d {
            key.push(slot.frames[i].load(Ordering::Relaxed));
        }
        LIVE.samples.fetch_add(n, Ordering::Relaxed);
        table.get_or_insert_with(|| LIVE.table.lock()).add(&key, n);
    }
}

/// Snapshot the current profile (running or stopped).
pub fn fetch() -> ProfileReport {
    let (folded, dropped) = {
        let t = LIVE.table.lock();
        (t.to_folded(), t.dropped())
    };
    let period = live_period_us();
    ProfileReport {
        running: is_running(),
        hz: if period > 0.0 { 1e6 / period } else { 0.0 },
        samples: LIVE.samples.load(Ordering::Relaxed),
        idle: LIVE.idle.load(Ordering::Relaxed),
        dropped,
        folded,
        locks: lock_snapshot(),
    }
}

// ---------------------------------------------------------------------------
// Lock-contention accounting
// ---------------------------------------------------------------------------

/// Contention counters for one lock name, shared by every [`ProfMutex`]
/// registered under it (e.g. all sixteen histogram shards).
pub struct LockStats {
    name: &'static str,
    contended: AtomicU64,
    wait_us: AtomicU64,
}

impl LockStats {
    /// Account one contended acquire that started waiting at `t0`: bump
    /// the per-name totals and the registry counters, and — while the
    /// live profiler runs — charge the wait as [`Site::LockWait`]
    /// samples on the blocking stack.
    #[cold]
    fn account_wait(&self, t0: Instant) {
        let wait_us = (t0.elapsed().as_secs_f64() * 1e6) as u64;
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.wait_us.fetch_add(wait_us, Ordering::Relaxed);
        crate::add(Counter::LockContended, 1);
        crate::add(Counter::LockWaitUs, wait_us);
        if is_running() {
            let period = live_period_us();
            if period > 0.0 {
                let n = (wait_us as f64 / period).round() as u64;
                if n > 0 {
                    let mut key = current_stack_codes();
                    key.truncate(MAX_DEPTH - 1);
                    key.push(Site::LockWait as u8);
                    LIVE.samples.fetch_add(n, Ordering::Relaxed);
                    LIVE.table.lock().add(&key, n);
                }
            }
        }
    }
}

static LOCK_REGISTRY: Mutex<Vec<&'static LockStats>> = Mutex::new(Vec::new());

/// The shared [`LockStats`] for `name`, registering it on first use.
pub fn lock_stats(name: &'static str) -> &'static LockStats {
    let mut reg = LOCK_REGISTRY.lock();
    if let Some(s) = reg.iter().find(|s| s.name == name) {
        return s;
    }
    let s: &'static LockStats = Box::leak(Box::new(LockStats {
        name,
        contended: AtomicU64::new(0),
        wait_us: AtomicU64::new(0),
    }));
    reg.push(s);
    s
}

/// Per-lock contention totals, heaviest waiter first.
pub fn lock_snapshot() -> Vec<LockStat> {
    let mut out: Vec<LockStat> = LOCK_REGISTRY
        .lock()
        .iter()
        .map(|s| LockStat {
            name: s.name.to_string(),
            contended: s.contended.load(Ordering::Relaxed),
            wait_us: s.wait_us.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by(|a, b| b.wait_us.cmp(&a.wait_us).then(a.name.cmp(&b.name)));
    out
}

/// A named `parking_lot::Mutex` that accounts contention.
///
/// The uncontended path is one `try_lock` — same cost class as a plain
/// lock. A contended acquire times the wait, feeds the per-name
/// [`LockStats`] and the `lock_contended_total` / `lock_wait_us_total`
/// registry counters, and — while the live profiler runs — charges the
/// wait to this thread's logical stack under a [`Site::LockWait`]
/// leaf so flamegraphs show *where* the wait was suffered.
pub struct ProfMutex<T> {
    stats: &'static LockStats,
    inner: Mutex<T>,
}

impl<T> ProfMutex<T> {
    /// New mutex accounted under `name`.
    pub fn new(name: &'static str, value: T) -> ProfMutex<T> {
        ProfMutex { stats: lock_stats(name), inner: Mutex::new(value) }
    }

    /// Lock, accounting the acquire if it had to wait.
    #[inline]
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, T> {
        match self.inner.try_lock() {
            Some(g) => g,
            None => self.lock_contended(),
        }
    }

    #[cold]
    fn lock_contended(&self) -> parking_lot::MutexGuard<'_, T> {
        let t0 = Instant::now();
        let guard = self.inner.lock();
        self.stats.account_wait(t0);
        guard
    }

    /// Non-blocking acquire; never counts as contention.
    #[inline]
    pub fn try_lock(&self) -> Option<parking_lot::MutexGuard<'_, T>> {
        self.inner.try_lock()
    }

    /// Consume the mutex, returning its value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> ProfMutex<T> {
    /// Default value accounted under `name`.
    pub fn with_default(name: &'static str) -> ProfMutex<T> {
        ProfMutex::new(name, T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ProfMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfMutex")
            .field("name", &self.stats.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// [`ProfMutex`]'s reader-writer sibling, for the partition maps. Both
/// acquire directions count contention; the accounting (per-name stats,
/// registry counters, live-profile attribution) is identical.
pub struct ProfRwLock<T> {
    stats: &'static LockStats,
    inner: parking_lot::RwLock<T>,
}

impl<T> ProfRwLock<T> {
    /// New rwlock accounted under `name`.
    pub fn new(name: &'static str, value: T) -> ProfRwLock<T> {
        ProfRwLock { stats: lock_stats(name), inner: parking_lot::RwLock::new(value) }
    }

    /// Shared acquire, accounting if it had to wait for a writer.
    #[inline]
    pub fn read(&self) -> parking_lot::RwLockReadGuard<'_, T> {
        match self.inner.try_read() {
            Some(g) => g,
            None => {
                let t0 = Instant::now();
                let g = self.inner.read();
                self.stats.account_wait(t0);
                g
            }
        }
    }

    /// Exclusive acquire, accounting if it had to wait.
    #[inline]
    pub fn write(&self) -> parking_lot::RwLockWriteGuard<'_, T> {
        match self.inner.try_write() {
            Some(g) => g,
            None => {
                let t0 = Instant::now();
                let g = self.inner.write();
                self.stats.account_wait(t0);
                g
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ProfRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfRwLock")
            .field("name", &self.stats.name)
            .field("inner", &self.inner)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Deterministic (virtual-clock) sampling for the simulator
// ---------------------------------------------------------------------------

/// A virtual-clock profile shared by the worker threads of one simulated
/// run. Workers [`sim_attach`] at spawn; every simulated-cost charge
/// point calls [`sim_tick`] with the worker's virtual now, crediting
/// whole sampling periods to the stack that paid the cost. Everything is
/// a pure function of the (seeded, deterministic) virtual clocks, so the
/// report is bit-identical across replays of the same plan.
pub struct SimProfile {
    period_us: f64,
    samples: AtomicU64,
    idle: AtomicU64,
    table: Mutex<CollapsedTable>,
}

impl SimProfile {
    /// New profile sampling at `hz` on the virtual clock.
    pub fn new(hz: f64) -> Arc<SimProfile> {
        let hz = if hz > 0.0 { hz } else { DEFAULT_HZ };
        Arc::new(SimProfile {
            period_us: 1e6 / hz,
            samples: AtomicU64::new(0),
            idle: AtomicU64::new(0),
            table: Mutex::new(CollapsedTable::new(DEFAULT_MAX_STACKS)),
        })
    }

    /// Snapshot as a [`ProfileReport`] (locks stay empty: lock wait is a
    /// wall-clock phenomenon with no deterministic meaning in the sim).
    pub fn report(&self) -> ProfileReport {
        let t = self.table.lock();
        ProfileReport {
            running: false,
            hz: 1e6 / self.period_us,
            samples: self.samples.load(Ordering::Relaxed),
            idle: self.idle.load(Ordering::Relaxed),
            dropped: t.dropped(),
            folded: t.to_folded(),
            locks: Vec::new(),
        }
    }
}

struct SimAttach {
    prof: Arc<SimProfile>,
    next_due_us: f64,
}

thread_local! {
    static SIM: RefCell<Option<SimAttach>> = const { RefCell::new(None) };
}

/// Attach this thread to `prof`, with the thread's virtual clock at
/// `now_us`. Marks the thread's slot with a non-zero domain so the
/// wall-clock sampler ignores it.
pub fn sim_attach(prof: &Arc<SimProfile>, now_us: f64) {
    if let Some(slot) = my_slot() {
        slot.domain.store(1, Ordering::Relaxed);
    }
    SIM.with(|s| {
        *s.borrow_mut() =
            Some(SimAttach { prof: prof.clone(), next_due_us: now_us + prof.period_us });
    });
}

/// Detach this thread from its [`SimProfile`] and rejoin the wall-clock
/// sampling domain.
pub fn sim_detach() {
    let _ = SIM.try_with(|s| s.borrow_mut().take());
    if let Ok(Some(slot)) = SLOT.try_with(|c| c.get()) {
        slot.domain.store(0, Ordering::Relaxed);
    }
}

/// Virtual-clock charge hook: called with this thread's virtual now after
/// simulated cost has been charged. Credits every whole sampling period
/// since the last credit to the current logical stack. One thread-local
/// read and a float compare when profiling; the same when detached.
#[inline]
pub fn sim_tick(now_us: f64) {
    let _ = SIM.try_with(|s| {
        let mut b = s.borrow_mut();
        let Some(st) = b.as_mut() else {
            return;
        };
        if now_us < st.next_due_us {
            return;
        }
        let n = ((now_us - st.next_due_us) / st.prof.period_us) as u64 + 1;
        st.next_due_us += n as f64 * st.prof.period_us;
        let key = current_stack_codes();
        if key.is_empty() {
            st.prof.idle.fetch_add(n, Ordering::Relaxed);
        } else {
            st.prof.samples.fetch_add(n, Ordering::Relaxed);
            st.prof.table.lock().add(&key, n);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_and_unwind() {
        let read_stack = || current_stack_codes();
        assert!(read_stack().is_empty());
        let g1 = FrameGuard::enter(Site::Txn);
        let g2 = FrameGuard::enter(Site::TxnRead);
        assert_eq!(read_stack(), vec![Site::Txn as u8, Site::TxnRead as u8]);
        drop(g2);
        assert_eq!(read_stack(), vec![Site::Txn as u8]);
        drop(g1);
        assert!(read_stack().is_empty());
    }

    #[test]
    fn deep_stacks_stay_balanced() {
        let mut guards = Vec::new();
        for _ in 0..(MAX_DEPTH + 4) {
            guards.push(FrameGuard::enter(Site::Txn));
        }
        assert_eq!(current_stack_codes().len(), MAX_DEPTH);
        while let Some(g) = guards.pop() {
            drop(g); // unwind innermost-first, like real scopes
        }
        assert!(current_stack_codes().is_empty());
    }

    #[test]
    fn collapsed_table_bounds_cardinality() {
        let mut t = CollapsedTable::new(2);
        t.add(&[0], 1);
        t.add(&[0, 2], 2);
        t.add(&[0, 3], 5); // third distinct stack: dropped
        t.add(&[0], 1); // existing stack still counts
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 5);
        assert_eq!(t.total(), 4);
        let folded = t.to_folded();
        assert_eq!(folded, "txn 2\ntxn;txn.read 2\n");
    }

    #[test]
    fn folded_round_trips() {
        let mut t = CollapsedTable::new(64);
        t.add(&[Site::Txn as u8, Site::TxnInstall as u8], 7);
        t.add(&[Site::GcPass as u8], 3);
        let parsed = CollapsedTable::parse_folded(&t.to_folded(), 64).unwrap();
        assert_eq!(parsed, t);
        assert!(CollapsedTable::parse_folded("nonsense_frame 1", 64).is_err());
        assert!(CollapsedTable::parse_folded("txn notanumber", 64).is_err());
        assert!(CollapsedTable::parse_folded("txn", 64).is_err());
    }

    #[test]
    fn prof_mutex_accounts_contention() {
        let m = Arc::new(ProfMutex::new("test.contended", 0u64));
        let before = lock_snapshot()
            .into_iter()
            .find(|s| s.name == "test.contended")
            .map(|s| s.contended)
            .unwrap_or(0);
        let m2 = m.clone();
        let g = m.lock();
        let h = std::thread::spawn(move || {
            *m2.lock() += 1;
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g);
        h.join().unwrap();
        let after = lock_snapshot().into_iter().find(|s| s.name == "test.contended").unwrap();
        assert!(after.contended > before);
        assert!(after.wait_us > 0);
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn sim_profile_is_deterministic() {
        let run = || {
            let p = SimProfile::new(100.0); // 10_000 µs period
            sim_attach(&p, 0.0);
            {
                let _t = FrameGuard::enter(Site::Txn);
                {
                    let _r = FrameGuard::enter(Site::TxnRead);
                    sim_tick(25_000.0); // 2 periods due
                }
                sim_tick(40_000.0); // 2 more at depth 1
            }
            sim_tick(65_000.0); // idle credit
            sim_detach();
            p.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a.folded, b.folded);
        assert_eq!(a.samples, 4);
        assert_eq!(a.idle, 2);
        assert_eq!(a.folded, "txn 2\ntxn;txn.read 2\n");
    }

    #[test]
    fn live_sampler_sees_a_held_frame() {
        let _g = FrameGuard::enter(Site::GcPass);
        assert!(start(Some(2000.0)));
        assert!(!start(None)); // second start is a no-op
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(stop());
        assert!(!stop());
        let report = fetch();
        assert!(!report.running);
        assert!(report.samples > 0, "sampler never saw the frame: {report:?}");
        assert!(report.folded.contains("gc.pass"), "folded: {}", report.folded);
    }

    #[test]
    fn merge_sums_tables_counts_and_locks_by_name() {
        let lock =
            |name: &str, contended, wait_us| LockStat { name: name.into(), contended, wait_us };
        let report = |folded: &str, samples, idle, locks| ProfileReport {
            running: false,
            hz: 99.0,
            samples,
            idle,
            dropped: 1,
            folded: folded.to_string(),
            locks,
        };
        let a = report("txn 2\ntxn;txn.read 3\n", 5, 4, vec![lock("cm.state", 2, 30)]);
        let b = report(
            "gc.pass 1\ntxn;txn.read 4\n",
            5,
            1,
            vec![lock("store.shard", 1, 10), lock("cm.state", 1, 5)],
        );
        let mut parts = CollapsedTable::new(usize::MAX);
        for r in [&a, &b] {
            parts.merge(&CollapsedTable::parse_folded(&r.folded, usize::MAX).unwrap());
        }

        let merged = ProfileReport::merge(vec![a.clone(), b]).unwrap().unwrap();
        assert_eq!(merged.folded, parts.to_folded());
        assert_eq!(merged.folded, "txn 2\ntxn;txn.read 7\ngc.pass 1\n");
        assert_eq!((merged.samples, merged.idle, merged.dropped), (10, 5, 2));
        assert_eq!(merged.locks, vec![lock("cm.state", 3, 35), lock("store.shard", 1, 10)]);
        // One part merges to itself; no parts merge to nothing.
        assert_eq!(ProfileReport::merge(vec![a.clone()]).unwrap(), Some(a));
        assert_eq!(ProfileReport::merge(Vec::new()).unwrap(), None);
        let bad = report("no_such_frame 1\n", 1, 0, Vec::new());
        assert!(ProfileReport::merge(vec![bad]).is_err());
    }
}
