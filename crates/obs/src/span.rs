//! The span model: per-transaction causality across PN, SN, and CM.
//!
//! A [`Span`] is one timed operation inside a trace — a txn phase, an RPC
//! round trip, a server dispatch, a batch flush, a GC pass. Spans carry both
//! clocks the workspace runs on: the virtual clock (`SimClock` microseconds,
//! what the cost model charges) and a wall clock anchored to the Unix epoch
//! at process start (what Perfetto renders). Spans are opened by
//! [`crate::Probe`]s; parent links are maintained by a thread-local
//! current-span register, so nested probes produce a correctly-shaped tree
//! without any caller bookkeeping, and `tell-rpc` stamps the client-call
//! span id into outgoing frames so server-side dispatch spans on other nodes
//! parent onto the client call that caused them.
//!
//! Retention is **tail-based**: spans are buffered per thread while their
//! transaction runs, and only promoted to the process-wide sharded ring when
//! the trace closes *interesting* — slower than the slow-op budget
//! ([`slow_budget_us`], `TELL_SLOW_OP_US`), aborted on an LL/SC conflict, or
//! picked by the 1-in-[`crate::SPAN_SAMPLE_EVERY`] fast-trace sample. A
//! retained slow trace is the one record of a slow transaction: its root
//! span carries the elapsed time and its children each phase's. Server
//! threads cannot know how a trace will end, so they flush after every
//! dispatched frame and rely on the bounded drop-oldest ring as the
//! backstop (approximate tail sampling: a scrape sees all recent server
//! spans, but only interesting client-side trees).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Once, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use tell_common::codec::{Reader, Writer};
use tell_common::Result;

use crate::registry::{self, Counter, SHARDS};
use crate::Site;

/// How the spanned operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum SpanStatus {
    /// Completed normally.
    #[default]
    Ok = 0,
    /// Aborted on an LL/SC conflict (the tail-retention trigger).
    Conflict = 1,
    /// Failed with a non-conflict error.
    Error = 2,
}

impl SpanStatus {
    fn from_u8(v: u8) -> Result<SpanStatus> {
        match v {
            0 => Ok(SpanStatus::Ok),
            1 => Ok(SpanStatus::Conflict),
            2 => Ok(SpanStatus::Error),
            _ => Err(tell_common::Error::corrupt(format!("unknown span status {v}"))),
        }
    }
}

/// The small fixed attribute set every span carries. No strings, no maps:
/// a count (records read, ops written, versions reclaimed — whatever the
/// kind measures) and a status.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct SpanAttrs {
    /// Kind-specific magnitude (ops in a batch, records in a read, …).
    pub count: u32,
    /// How the operation ended.
    pub status: SpanStatus,
}

/// One finished timed operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id (non-zero).
    pub id: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// What was measured.
    pub kind: Site,
    /// Start on the virtual clock, microseconds (0 on server threads,
    /// which have no virtual clock).
    pub start_virt_us: f64,
    /// End on the virtual clock, microseconds.
    pub end_virt_us: f64,
    /// Start on the wall clock, microseconds since the Unix epoch.
    pub start_wall_us: u64,
    /// End on the wall clock, microseconds since the Unix epoch.
    pub end_wall_us: u64,
    /// Fixed attribute set.
    pub attrs: SpanAttrs,
}

impl Span {
    /// Wall-clock duration in microseconds (saturating).
    pub fn wall_dur_us(&self) -> u64 {
        self.end_wall_us.saturating_sub(self.start_wall_us)
    }

    /// Virtual-clock duration in microseconds.
    pub fn virt_dur_us(&self) -> f64 {
        (self.end_virt_us - self.start_virt_us).max(0.0)
    }

    /// Append the wire encoding (fixed 54 bytes).
    pub fn encode(&self, w: &mut impl Writer) {
        w.put_u64(self.trace);
        w.put_u64(self.id);
        w.put_u64(self.parent);
        w.put_u8(self.kind as u8);
        w.put_f64(self.start_virt_us);
        w.put_f64(self.end_virt_us);
        w.put_u64(self.start_wall_us);
        w.put_u64(self.end_wall_us);
        w.put_u32(self.attrs.count);
        w.put_u8(self.attrs.status as u8);
    }

    /// Decode one span from the reader.
    pub fn decode(r: &mut Reader<'_>) -> Result<Span> {
        Ok(Span {
            trace: r.u64()?,
            id: r.u64()?,
            parent: r.u64()?,
            kind: Site::from_u8(r.u8()?)?,
            start_virt_us: r.f64()?,
            end_virt_us: r.f64()?,
            start_wall_us: r.u64()?,
            end_wall_us: r.u64()?,
            attrs: SpanAttrs { count: r.u32()?, status: SpanStatus::from_u8(r.u8()?)? },
        })
    }
}

// ---------------------------------------------------------------------------
// Wall clock: one `SystemTime` read at first use anchors a monotonic
// `Instant`, so every later stamp is a single `Instant::now()`.

fn wall_anchor() -> &'static (u64, Instant) {
    static ANCHOR: OnceLock<(u64, Instant)> = OnceLock::new();
    ANCHOR.get_or_init(|| {
        let epoch_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (epoch_us, Instant::now())
    })
}

/// Microseconds since the anchor: the one wall-clock read a probe takes at
/// each end (`as_secs_f64` keeps u128 division off the hot path).
pub(crate) fn wall_stamp() -> f64 {
    wall_anchor().1.elapsed().as_secs_f64() * 1e6
}

/// A [`wall_stamp`] as microseconds since the Unix epoch.
pub(crate) fn epoch_us(stamp: f64) -> u64 {
    wall_anchor().0 + stamp as u64
}

/// Microseconds since the Unix epoch, via the monotonic anchor.
pub(crate) fn wall_now_us() -> u64 {
    epoch_us(wall_stamp())
}

// ---------------------------------------------------------------------------
// Span-id minting: threads grab blocks of sequence numbers from one global
// counter and whiten them with splitmix64, so ids are unique without a
// contended atomic per span.

const ID_BLOCK: u64 = 256;

static NEXT_ID_BLOCK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ID_RANGE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mint a fresh non-zero span id.
pub(crate) fn next_span_id() -> u64 {
    let seq = ID_RANGE.with(|c| {
        let (next, end) = c.get();
        if next < end {
            c.set((next + 1, end));
            next
        } else {
            let start = NEXT_ID_BLOCK.fetch_add(ID_BLOCK, Ordering::Relaxed);
            c.set((start + 1, start + ID_BLOCK));
            start
        }
    });
    let salt = (std::process::id() as u64) << 40;
    let id = splitmix64(seq ^ salt);
    if id != 0 {
        id
    } else {
        // splitmix64 maps exactly one input to 0; perturb and force odd.
        splitmix64(seq ^ salt ^ 1) | 1
    }
}

// ---------------------------------------------------------------------------
// Current-span register: who the next child should parent onto.

thread_local! {
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// The span id children started on this thread will parent onto (0 = none).
pub fn current_span() -> u64 {
    CURRENT_SPAN.with(|c| c.get())
}

/// Install `id` as the parent of spans opened next on this thread,
/// returning the previous value.
pub(crate) fn swap_current_span(id: u64) -> u64 {
    CURRENT_SPAN.with(|c| c.replace(id))
}

// ---------------------------------------------------------------------------
// Server-dispatch flag: storage-engine and commit-manager internals only
// record their own spans when running under an RPC dispatch. The in-process
// simulation path (the hot benchmark path) skips them entirely.

thread_local! {
    static IN_SERVER: Cell<bool> = const { Cell::new(false) };
}

/// True while this thread is dispatching an RPC frame.
pub(crate) fn in_server_dispatch() -> bool {
    IN_SERVER.with(|c| c.get())
}

/// Mark (or unmark) this thread as dispatching, returning the previous
/// flag; a dispatch [`crate::Probe`] holds it for its scope.
pub(crate) fn set_server_dispatch(on: bool) -> bool {
    IN_SERVER.with(|c| c.replace(on))
}

// ---------------------------------------------------------------------------
// SpanTimer: the recording half of a probe.

/// An open span. While open, children started on this thread parent onto
/// it; the owning probe supplies both clock stamps at each end.
pub(crate) struct SpanTimer {
    trace: u64,
    id: u64,
    parent: u64,
    site: Site,
    start_virt_us: f64,
    start_wall_us: u64,
}

impl SpanTimer {
    /// Open a span of `site` in `trace`, parenting onto this thread's
    /// current span and becoming it.
    pub(crate) fn open(trace: u64, site: Site, virt_us: f64, wall_us: u64) -> SpanTimer {
        let id = next_span_id();
        let parent = swap_current_span(id);
        SpanTimer { trace, id, parent, site, start_virt_us: virt_us, start_wall_us: wall_us }
    }

    /// This span's id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Close the span at the given stamps and buffer it on this thread's
    /// pending list.
    pub(crate) fn close(self, virt_us: f64, wall_us: u64, count: u32, status: SpanStatus) {
        push_pending(Span {
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            kind: self.site,
            start_virt_us: self.start_virt_us,
            end_virt_us: virt_us.max(self.start_virt_us),
            start_wall_us: self.start_wall_us,
            end_wall_us: wall_us,
            attrs: SpanAttrs { count, status },
        });
        // `self` drops here and restores the current-span register.
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        // Restore the register even when `close` was skipped (an error
        // return unwound past it); otherwise later spans on this thread
        // would parent onto a dead id.
        let (id, parent) = (self.id, self.parent);
        CURRENT_SPAN.with(|c| {
            if c.get() == id {
                c.set(parent);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Slow-op budget: a trace whose root runs longer is retained.

// f64 bits of the budget; 0 (== 0.0) means unset.
static BUDGET_BITS: AtomicU64 = AtomicU64::new(0);
static BUDGET_ENV: Once = Once::new();

fn budget_from_env() {
    BUDGET_ENV.call_once(|| {
        let env = std::env::var("TELL_SLOW_OP_US").ok();
        if let Some(us) = env.and_then(|v| v.trim().parse().ok()) {
            set_budget_bits(us);
        }
    });
}

fn set_budget_bits(us: f64) {
    BUDGET_BITS.store(if us > 0.0 { us.to_bits() } else { 0 }, Ordering::Relaxed);
}

/// The slow-op budget in microseconds, or `None` when unset. It starts
/// from the `TELL_SLOW_OP_US` environment variable. While it is set, every
/// transaction records its spans, and a trace whose root runs longer is
/// retained and counted in `slow_ops_total`.
pub fn slow_budget_us() -> Option<f64> {
    budget_from_env();
    let bits = BUDGET_BITS.load(Ordering::Relaxed);
    (bits != 0).then(|| f64::from_bits(bits))
}

/// Set (or with `None` / non-positive, clear) the slow-op budget.
pub fn set_slow_budget_us(us: Option<f64>) {
    budget_from_env(); // settle env handling so a later read cannot overwrite
    set_budget_bits(us.unwrap_or(0.0));
}

// ---------------------------------------------------------------------------
// Pending buffer + tail-based retention.

/// Per-thread pending cap: a trace recording more open work than this is
/// pathological; overflow increments the drop counter.
const PENDING_CAP: usize = 1024;

thread_local! {
    static PENDING: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// Mirrors `!PENDING.is_empty()`. [`settle_pending`] runs on every
    /// transaction close and dispatch (usually with nothing buffered), and
    /// a `Cell` read is cheaper than a `RefCell` borrow.
    static HAS_PENDING: Cell<bool> = const { Cell::new(false) };
}

fn push_pending(span: Span) {
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() >= PENDING_CAP {
            global_ring().dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        p.push(span);
    });
    HAS_PENDING.with(|c| c.set(true));
}

/// Settle this thread's buffered spans: promote them to the ring when
/// `keep`, discard them otherwise. A trace root settles once, after its own
/// span closed; server threads promote after every dispatch, since they
/// never learn how a trace ends and the bounded ring is their retention
/// policy.
pub(crate) fn settle_pending(keep: bool) {
    if !HAS_PENDING.with(|c| c.replace(false)) {
        return;
    }
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        if keep {
            let spans = std::mem::take(&mut *p);
            global_ring().push_all(spans);
        } else {
            p.clear();
        }
    });
}

/// Put one already-built span straight into the ring, bypassing the
/// pending buffer. Used for the root span synthesized when an *unsampled*
/// transaction aborts on an LL/SC conflict: nothing was recorded while it
/// ran, but the abort itself must stay visible to a scrape.
pub(crate) fn record_to_ring(span: Span) {
    if !registry::global().enabled() {
        return;
    }
    global_ring().push_all(vec![span]);
}

// ---------------------------------------------------------------------------
// The sharded bounded ring.

/// Total ring capacity across all shards.
pub const RING_CAPACITY: usize = 8192;

struct RingShard {
    spans: Mutex<VecDeque<Span>>,
}

/// A sharded, bounded, drop-oldest buffer of finished spans. Writers touch
/// one shard (their thread's registry shard); a drain walks all shards.
pub struct SpanRing {
    shards: Vec<RingShard>,
    per_shard_cap: usize,
    dropped: AtomicU64,
}

impl SpanRing {
    fn new(capacity: usize) -> Self {
        SpanRing {
            shards: (0..SHARDS).map(|_| RingShard { spans: Mutex::new(VecDeque::new()) }).collect(),
            per_shard_cap: capacity.div_ceil(SHARDS),
            dropped: AtomicU64::new(0),
        }
    }

    fn push_all(&self, spans: Vec<Span>) {
        let n = spans.len() as u64;
        let shard = &self.shards[registry::shard_index()];
        let mut q = shard.spans.lock();
        for span in spans {
            if q.len() >= self.per_shard_cap {
                q.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
                registry::global_add(Counter::SpansDropped, 1);
            }
            q.push_back(span);
        }
        drop(q);
        registry::global_add(Counter::SpansRecorded, n);
    }

    /// Take every buffered span, oldest first per shard.
    pub fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.spans.lock().drain(..));
        }
        out
    }

    /// Copy every buffered span without removing anything, oldest first per
    /// shard. This is the default scrape (`Request::Spans` peek), so a
    /// monitoring poller never steals the traces a one-shot exporter like
    /// `tell_top trace` is about to drain.
    pub fn peek(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.spans.lock().iter().cloned());
        }
        out
    }

    /// Spans currently buffered.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.spans.lock().len()).sum()
    }

    /// True when no span is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted (ring overflow) or refused (pending overflow) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The process-wide span ring `Request::Spans` scrapes.
pub fn global_ring() -> &'static SpanRing {
    static RING: OnceLock<SpanRing> = OnceLock::new();
    RING.get_or_init(|| SpanRing::new(RING_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace, Probe};

    #[test]
    fn span_ids_are_nonzero_and_distinct() {
        let mut ids: Vec<u64> = (0..2000).map(|_| next_span_id()).collect();
        assert!(ids.iter().all(|&id| id != 0));
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total);
    }

    #[test]
    fn span_encoding_round_trips() {
        for kind in Site::ALL {
            let span = Span {
                trace: 0xdead_beef,
                id: 42,
                parent: 7,
                kind,
                start_virt_us: 1.5,
                end_virt_us: 9.25,
                start_wall_us: 1_000_000,
                end_wall_us: 1_000_040,
                attrs: SpanAttrs { count: 3, status: SpanStatus::Conflict },
            };
            let mut buf = Vec::new();
            span.encode(&mut buf);
            let mut r = Reader::new(&buf);
            let back = Span::decode(&mut r).unwrap();
            assert!(r.is_exhausted());
            assert_eq!(back, span);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        // capacity is split across SHARDS and push_all targets one shard,
        // so give each shard room for both spans
        let ring = SpanRing::new(SHARDS * 2);
        let span = Span {
            trace: 9,
            id: 1,
            parent: 0,
            kind: Site::Txn,
            start_virt_us: 0.0,
            end_virt_us: 1.0,
            start_wall_us: 0,
            end_wall_us: 1,
            attrs: SpanAttrs::default(),
        };
        ring.push_all(vec![span.clone(), span.clone()]);
        assert_eq!(ring.peek().len(), 2);
        assert_eq!(ring.peek().len(), 2, "peek must not remove spans");
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.peek().is_empty());
    }

    #[test]
    fn unknown_kind_and_status_are_rejected() {
        let span = Span {
            trace: 1,
            id: 2,
            parent: 0,
            kind: Site::Txn,
            start_virt_us: 0.0,
            end_virt_us: 0.0,
            start_wall_us: 0,
            end_wall_us: 0,
            attrs: SpanAttrs::default(),
        };
        let mut buf = Vec::new();
        span.encode(&mut buf);
        let mut bad_kind = buf.clone();
        bad_kind[24] = 0xEE;
        assert!(Span::decode(&mut Reader::new(&bad_kind)).is_err());
        let mut bad_status = buf.clone();
        *bad_status.last_mut().unwrap() = 0xEE;
        assert!(Span::decode(&mut Reader::new(&bad_status)).is_err());
    }

    #[test]
    fn timers_nest_and_parent_correctly() {
        // Thread-isolated: CURRENT/PENDING are thread-locals, and the kept
        // spans are filtered by trace id before assertions.
        let trace = trace::next_trace_id(false);
        std::thread::spawn(move || {
            let _guard = trace::TraceGuard::enter(trace);
            let root = Probe::enter(Site::Txn);
            let root_id = root.span_id();
            assert_eq!(current_span(), root_id);
            let child = Probe::enter(Site::TxnRead);
            let child_id = child.span_id();
            assert_eq!(current_span(), child_id);
            let grandchild = Probe::enter(Site::RpcClientCall);
            grandchild.finish(0.0, 1, SpanStatus::Ok);
            assert_eq!(current_span(), child_id);
            child.finish(0.0, 2, SpanStatus::Ok);
            assert_eq!(current_span(), root_id);
            root.finish(0.0, 0, SpanStatus::Ok);
            assert_eq!(current_span(), 0);
            settle_pending(true);
            (root_id, child_id)
        })
        .join()
        .unwrap();
        let spans: Vec<Span> =
            global_ring().drain().into_iter().filter(|s| s.trace == trace).collect();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.kind == Site::Txn).unwrap();
        let child = spans.iter().find(|s| s.kind == Site::TxnRead).unwrap();
        let grand = spans.iter().find(|s| s.kind == Site::RpcClientCall).unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert_eq!(grand.parent, child.id);
    }

    #[test]
    fn dropped_timer_restores_parent_register() {
        let trace = trace::next_trace_id(false);
        std::thread::spawn(move || {
            let _guard = trace::TraceGuard::enter(trace);
            let root = Probe::enter(Site::Txn);
            let root_id = root.span_id();
            {
                let _child = Probe::enter(Site::TxnValidate);
                // dropped without finish — the error path
            }
            assert_eq!(current_span(), root_id);
            root.finish(0.0, 0, SpanStatus::Error);
            settle_pending(false); // dropped trace leaves no spans behind
        })
        .join()
        .unwrap();
        assert!(global_ring().drain().iter().all(|s| s.trace != trace));
    }

    #[test]
    fn disabled_registry_records_no_spans() {
        let trace = trace::next_trace_id(false);
        std::thread::spawn(move || {
            let _guard = trace::TraceGuard::enter(trace);
            registry::global().set_enabled(false);
            let probe = Probe::enter(Site::Txn);
            registry::global().set_enabled(true);
            assert_eq!(probe.span_id(), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn no_trace_means_no_span() {
        std::thread::spawn(|| {
            assert!(trace::current().is_none());
            assert_eq!(Probe::enter(Site::GcPass).span_id(), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let ring = SpanRing::new(SHARDS * 4); // 4 per shard
        let mk = |i: u64| Span {
            trace: 9,
            id: i,
            parent: 0,
            kind: Site::GcPass,
            start_virt_us: 0.0,
            end_virt_us: 0.0,
            start_wall_us: 0,
            end_wall_us: 0,
            attrs: SpanAttrs::default(),
        };
        ring.push_all((1..=6).map(mk).collect());
        assert_eq!(ring.dropped(), 2);
        let left = ring.drain();
        assert_eq!(left.len(), 4);
        assert_eq!(left.first().unwrap().id, 3); // 1 and 2 were evicted
    }

    #[test]
    fn server_dispatch_scope_nests() {
        assert!(!in_server_dispatch());
        {
            let _outer = Probe::enter(Site::RpcDispatch);
            assert!(in_server_dispatch());
            {
                let _inner = Probe::enter(Site::RpcDispatch);
                assert!(in_server_dispatch());
            }
            assert!(in_server_dispatch());
        }
        assert!(!in_server_dispatch());
    }
}
