//! In-memory spans and the wrappers that record them from outside the
//! program: every layer boundary the benchmark can reach is a public trait,
//! so a wrapper implementing the same trait times the call and forwards it.
//!
//! Spans nest through a per-thread stack, so a span's parent is whatever
//! span the same thread had open when it started: a `core.*` span on a
//! client thread parents the store and commit-manager calls `core` makes;
//! a `cm.serve` span on a commit-server worker parents the publish calls
//! the manager makes; an `sn.serve` span parents `durable.record`.
//! Nothing links a client span to the server span it caused except the
//! trace id both carry — the budget needs only per-name totals.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use parking_lot::Mutex;
use tell_commitmgr::{CommitParticipant, CommitService, TxnStart};
use tell_common::{IsolationLevel, Result, SnId, TxnId};
use tell_netsim::NetMeter;
use tell_rpc::{ReplySink, Request, RequestCtx, RpcService};
use tell_store::keys::tag;
use tell_store::{
    BatchDriver, Cell, DurabilityProvider, Key, NodeDurability, OpHandle, OpResult, Predicate,
    RecoveredNode, StoreApi, StoreEndpoint, StoreOp, Token, WriteOp,
};

/// One finished span. Times are nanoseconds since [`now_ns`]'s epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Client transaction sequence number (0 on server threads).
    pub txn: u64,
    /// `tell_obs` trace id: the transaction's on client spans, the frame's
    /// `RequestCtx.trace` on server spans; 0 when there is none.
    pub trace: u64,
}

/// A span that has started; `Copy` so a reply closure can carry it to
/// whichever thread sends the reply.
#[derive(Clone, Copy)]
struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    txn: u64,
    trace: u64,
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static THREADS: AtomicU64 = AtomicU64::new(1);
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

struct Local {
    buffer: Arc<Mutex<Vec<Span>>>,
    stack: Vec<u64>,
    next_id: u64,
    txn: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let buffer = Arc::new(Mutex::new(Vec::new()));
            BUFFERS.lock().push(Arc::clone(&buffer));
            // Thread number in the high bits keeps ids unique without a
            // shared counter on the recording path.
            let thread = THREADS.fetch_add(1, Ordering::Relaxed);
            Local { buffer, stack: Vec::new(), next_id: thread << 40, txn: 0 }
        });
        f(local)
    })
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off. Off, every wrapper is one relaxed load
/// and a forwarded call.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Tag this thread's following spans with a client transaction number.
pub fn set_txn(seq: u64) {
    if recording() {
        with_local(|l| l.txn = seq);
    }
}

/// Start a span on this thread; `None` while recording is off. `trace`
/// overrides the thread's current `tell_obs` trace id (server side).
fn enter(name: &'static str, trace: Option<u64>) -> Option<Open> {
    if !recording() {
        return None;
    }
    let trace = trace.or_else(tell_obs::current_trace).unwrap_or(0);
    Some(with_local(|l| {
        l.next_id += 1;
        let open = Open {
            id: l.next_id,
            parent: l.stack.last().copied().unwrap_or(0),
            name,
            start_ns: now_ns(),
            txn: l.txn,
            trace,
        };
        l.stack.push(open.id);
        open
    }))
}

/// Stop parenting new spans onto `open` (it may still be waiting for its
/// end time, see [`record`]).
fn leave(open: &Open) {
    with_local(|l| {
        if l.stack.last() == Some(&open.id) {
            l.stack.pop();
        }
    });
}

/// Stamp `open`'s end time and keep it.
fn record(open: Open) {
    let span = Span {
        id: open.id,
        parent: open.parent,
        name: open.name,
        start_ns: open.start_ns,
        end_ns: now_ns(),
        txn: open.txn,
        trace: open.trace,
    };
    with_local(|l| l.buffer.lock().push(span));
}

/// Run `f` inside a span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let open = enter(name, None);
    let out = f();
    if let Some(open) = open {
        leave(&open);
        record(open);
    }
    out
}

/// Take every span recorded so far, from every thread.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buffer in BUFFERS.lock().iter() {
        all.append(&mut buffer.lock());
    }
    all
}

/// Cut spans down to the parts inside `windows` (ascending, disjoint),
/// dropping spans that touch none. Recording is switched at the window
/// edges while transactions are in flight, so a span can start inside a
/// window and end after it; uncut, its tail would be charged to a window
/// that does not count its transaction.
pub fn clip(spans: &[Span], windows: &[(u64, u64)]) -> Vec<Span> {
    let clipped = |s: &Span| {
        let &(from, to) = windows.iter().find(|&&(from, to)| s.start_ns < to && s.end_ns > from)?;
        Some(Span { start_ns: s.start_ns.max(from), end_ns: s.end_ns.min(to), ..*s })
    };
    spans.iter().filter_map(clipped).collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part covered by direct children, ns.
    pub self_ns: u64,
}

/// Aggregate spans by name. A span's self time is its duration minus the
/// summed durations of its direct children (children on one thread never
/// overlap, so the sum is the covered part), floored at 0.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, NameTotal> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: HashMap<&'static str, NameTotal> = HashMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Write spans as a JSON array, one object per line.
pub fn write_json(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"txn\":{},\"trace\":{}}}{comma}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.txn, s.trace
        )?;
    }
    writeln!(out, "]")
}

// ---------------------------------------------------------------------------
// StoreEndpoint / StoreApi / BatchDriver seam.

/// Span names for one caller of the store, by key-namespace tag.
#[derive(Clone, Copy)]
pub struct StoreNames {
    record: &'static str,
    index: &'static str,
    txnlog: &'static str,
    cmstate: &'static str,
    other: &'static str,
}

/// Store calls made by a processing node.
pub const PN_STORE: StoreNames = StoreNames {
    record: "pn.record",
    index: "pn.index",
    txnlog: "pn.txnlog",
    cmstate: "pn.other",
    other: "pn.other",
};

/// Store calls made by the commit manager.
pub const CM_STORE: StoreNames = StoreNames {
    record: "cm.other",
    index: "cm.other",
    txnlog: "cm.other",
    cmstate: "cm.publish",
    other: "cm.other",
};

/// Every store-client span name; their summed time is the client-observed
/// half of `rpc.transport_us`.
pub const STORE_CALLS: [&str; 6] =
    ["pn.record", "pn.index", "pn.txnlog", "pn.other", "cm.publish", "cm.other"];

impl StoreNames {
    fn of_key(&self, key: &[u8]) -> &'static str {
        match key.first() {
            Some(&tag::RECORD) => self.record,
            Some(&tag::INDEX) => self.index,
            Some(&tag::TXNLOG) => self.txnlog,
            Some(&tag::CMSTATE) => self.cmstate,
            _ => self.other,
        }
    }

    fn of_op(&self, op: &StoreOp) -> &'static str {
        match op {
            StoreOp::Get { key } | StoreOp::Increment { key, .. } => self.of_key(key),
            StoreOp::Write { op } => self.of_key(&op.key),
            StoreOp::MultiGet { keys } => keys.first().map_or(self.other, |k| self.of_key(k)),
            StoreOp::MultiWrite { ops } => ops.first().map_or(self.other, |o| self.of_key(&o.key)),
        }
    }
}

/// A [`StoreEndpoint`] whose clients record one span per store call.
#[derive(Clone)]
pub struct TracedEndpoint<E> {
    pub inner: E,
    pub names: StoreNames,
}

impl<E: StoreEndpoint> StoreEndpoint for TracedEndpoint<E> {
    type Client = TracedClient<E::Client>;

    fn client(&self, meter: NetMeter) -> Self::Client {
        TracedClient {
            inner: self.inner.client(meter),
            names: self.names,
            window: Rc::new(TracedWindow::default()),
        }
    }
}

#[derive(Clone)]
pub struct TracedClient<C> {
    inner: C,
    names: StoreNames,
    window: Rc<TracedWindow>,
}

/// Submitted operations whose `wait` has not happened yet. The inner
/// client does the work inside `wait`, so that is where the span goes.
#[derive(Default)]
struct TracedWindow {
    next: std::cell::Cell<u64>,
    pending: RefCell<HashMap<u64, (OpHandle, &'static str)>>,
}

impl BatchDriver for TracedWindow {
    fn resolve(&self, ticket: u64) -> Result<OpResult> {
        let (handle, name) = self
            .pending
            .borrow_mut()
            .remove(&ticket)
            .expect("a traced handle resolves once, through the window that issued it");
        span(name, || handle.wait())
    }
}

impl<C: StoreApi> TracedClient<C> {
    fn keyed<T>(&self, key: &[u8], f: impl FnOnce(&C) -> T) -> T {
        span(self.names.of_key(key), || f(&self.inner))
    }
}

impl<C: StoreApi> StoreApi for TracedClient<C> {
    fn submit(&self, op: StoreOp) -> OpHandle {
        if !recording() {
            return self.inner.submit(op);
        }
        let name = self.names.of_op(&op);
        let ticket = self.window.next.get();
        self.window.next.set(ticket + 1);
        self.window.pending.borrow_mut().insert(ticket, (self.inner.submit(op), name));
        OpHandle::pending(Rc::clone(&self.window) as Rc<dyn BatchDriver>, ticket)
    }

    fn get(&self, key: &Key) -> Result<Option<(Token, Bytes)>> {
        self.keyed(key, |c| c.get(key))
    }

    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<(Token, Bytes)>>> {
        self.keyed(keys.first().map_or(&[][..], |k| k), |c| c.multi_get(keys))
    }

    fn put(&self, key: &Key, value: Bytes) -> Result<Token> {
        self.keyed(key, |c| c.put(key, value))
    }

    fn insert(&self, key: &Key, value: Bytes) -> Result<Token> {
        self.keyed(key, |c| c.insert(key, value))
    }

    fn store_conditional(&self, key: &Key, token: Token, value: Bytes) -> Result<Token> {
        self.keyed(key, |c| c.store_conditional(key, token, value))
    }

    fn delete_conditional(&self, key: &Key, token: Token) -> Result<()> {
        self.keyed(key, |c| c.delete_conditional(key, token))
    }

    fn delete(&self, key: &Key) -> Result<()> {
        self.keyed(key, |c| c.delete(key))
    }

    fn multi_write(&self, ops: Vec<WriteOp>) -> Result<Vec<Result<Option<Token>>>> {
        let name = ops.first().map_or(self.names.other, |o| self.names.of_key(&o.key));
        span(name, || self.inner.multi_write(ops))
    }

    fn increment(&self, key: &Key, delta: u64) -> Result<u64> {
        self.keyed(key, |c| c.increment(key, delta))
    }

    fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        self.keyed(start, |c| c.scan_range(start, end, limit))
    }

    fn scan_range_rev(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        self.keyed(start, |c| c.scan_range_rev(start, end, limit))
    }

    fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Result<Vec<(Key, Token, Bytes)>> {
        self.keyed(prefix, |c| c.scan_prefix(prefix, limit))
    }

    fn scan_prefix_pushdown(
        &self,
        prefix: &[u8],
        limit: usize,
        filter: &Predicate,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        self.keyed(prefix, |c| c.scan_prefix_pushdown(prefix, limit, filter))
    }

    fn meter(&self) -> &NetMeter {
        self.inner.meter()
    }
}

// ---------------------------------------------------------------------------
// CommitService seam (the processing node's view of the commit manager).

pub struct TracedCommit(pub Arc<dyn CommitService>);

struct TracedParticipant(Arc<dyn CommitParticipant>);

impl CommitService for TracedCommit {
    fn start_pinned(
        &self,
        hint: usize,
        level: IsolationLevel,
        meter: &NetMeter,
    ) -> Result<(TxnStart, Arc<dyn CommitParticipant>)> {
        let (start, participant) = span("pn.cm_start", || self.0.start_pinned(hint, level, meter))?;
        Ok((start, Arc::new(TracedParticipant(participant))))
    }

    fn current_lav(&self) -> Result<u64> {
        self.0.current_lav()
    }

    fn force_resolve(&self, tid: TxnId, committed: bool) -> Result<()> {
        self.0.force_resolve(tid, committed)
    }

    fn sync_all(&self, meter: &NetMeter) -> Result<()> {
        self.0.sync_all(meter)
    }
}

impl CommitParticipant for TracedParticipant {
    fn set_committed(&self, tid: TxnId, meter: &NetMeter) -> Result<()> {
        span("pn.cm_complete", || self.0.set_committed(tid, meter))
    }

    fn set_aborted(&self, tid: TxnId, meter: &NetMeter) -> Result<()> {
        span("pn.cm_complete", || self.0.set_aborted(tid, meter))
    }

    fn refresh_snapshot(
        &self,
        meter: &NetMeter,
    ) -> Result<Option<tell_commitmgr::SnapshotDescriptor>> {
        self.0.refresh_snapshot(meter)
    }
}

// ---------------------------------------------------------------------------
// RpcService seam (server side).

/// Times a served request from `RpcService::call` entry to the reply
/// leaving through the sink.
pub struct TracedService {
    pub inner: Arc<dyn RpcService>,
    /// `"sn.serve"` or `"cm.serve"`.
    pub name: &'static str,
}

impl RpcService for TracedService {
    fn call(&self, request: Request, ctx: &RequestCtx, reply: ReplySink) {
        let Some(open) = enter(self.name, ctx.trace.map(|t| t.trace)) else {
            return self.inner.call(request, ctx, reply);
        };
        let timed = ReplySink::new(move |response| {
            reply.send(response);
            record(open);
        });
        self.inner.call(request, ctx, timed);
        leave(&open);
    }
}

// ---------------------------------------------------------------------------
// DurabilityProvider / NodeDurability seam.

#[derive(Debug)]
pub struct TracedDurability(pub Arc<dyn DurabilityProvider>);

#[derive(Debug)]
struct TracedNode(Arc<dyn NodeDurability>);

impl DurabilityProvider for TracedDurability {
    fn open_node(&self, node: SnId) -> Result<RecoveredNode> {
        let RecoveredNode { engine, partitions } = self.0.open_node(node)?;
        Ok(RecoveredNode { engine: Arc::new(TracedNode(engine)), partitions })
    }
}

impl NodeDurability for TracedNode {
    fn record(&self, pid: u32, seq: u64, key: &Bytes, cell: Option<&Cell>) -> Result<()> {
        span("durable.record", || self.0.record(pid, seq, key, cell))
    }

    fn sync(&self) -> Result<()> {
        span("durable.sync", || self.0.sync())
    }

    fn reset_partition(&self, pid: u32, applied_seq: u64, entries: &[(Bytes, Cell)]) -> Result<()> {
        self.0.reset_partition(pid, applied_seq, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, start_ns, end_ns, txn: 0, trace: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            s(1, 0, "core.commit", 0, 100),
            s(2, 1, "pn.txnlog", 10, 30),
            s(3, 1, "pn.record", 40, 90),
            // A grandchild shrinks its parent's self time, not the root's.
            s(4, 3, "inner", 50, 60),
            s(5, 0, "core.commit", 200, 250),
        ];
        let t = totals(&spans);
        assert_eq!(t["core.commit"], NameTotal { count: 2, total_ns: 150, self_ns: 30 + 50 });
        assert_eq!(t["pn.record"], NameTotal { count: 1, total_ns: 50, self_ns: 40 });
        assert_eq!(t["pn.txnlog"].self_ns, 20);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // A reply sent from another thread can end after its parent.
        let spans = [s(1, 0, "cm.serve", 0, 10), s(2, 1, "cm.publish", 2, 30)];
        assert_eq!(totals(&spans)["cm.serve"].self_ns, 0);
    }

    #[test]
    fn clipping_keeps_only_the_part_inside_a_window() {
        let windows = [(100, 200), (300, 400)];
        let spans = [
            s(1, 0, "before", 10, 90),
            s(2, 0, "tail_outside", 150, 260),
            s(3, 0, "inside", 310, 320),
            s(4, 0, "head_outside", 290, 330),
            s(5, 0, "between", 210, 290),
        ];
        let kept: Vec<(u64, u64, u64)> =
            clip(&spans, &windows).iter().map(|s| (s.id, s.start_ns, s.end_ns)).collect();
        assert_eq!(kept, vec![(2, 150, 200), (3, 310, 320), (4, 300, 330)]);
    }

    #[test]
    fn spans_nest_on_the_thread_stack_and_vanish_when_off() {
        // Own thread: recording state is process-wide, other tests use it.
        std::thread::spawn(|| {
            set_recording(false);
            span("off", || ());
            set_recording(true);
            set_txn(9);
            span("outer", || span("inner", || ()));
            set_recording(false);
            let mine: Vec<Span> = drain().into_iter().filter(|s| s.txn == 9).collect();
            assert_eq!(mine.len(), 2);
            let (inner, outer) = (mine[0], mine[1]);
            assert_eq!((inner.name, outer.name), ("inner", "outer"));
            assert_eq!(inner.parent, outer.id);
            assert_eq!(outer.parent, 0);
            assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        })
        .join()
        .unwrap();
    }
}
