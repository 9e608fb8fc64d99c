//! Client side of the transport: pipelined connections, the remote storage
//! client/endpoint, and the remote commit-manager client.
//!
//! A [`Connection`] multiplexes many in-flight requests over one TCP
//! stream: callers stamp a fresh correlation id and register a reply slot.
//! There is no reader thread. A caller waiting for its reply reads the
//! socket itself when nobody else is (leader/follower), fills the slot of
//! every reply it reads and wakes that slot's caller, and before it
//! leaves wakes one still-parked caller to take over reading — so a sole
//! waiter reads its own reply with no thread handoff. When the stream
//! dies, every parked caller — and every later one — gets a typed
//! [`Error::Unavailable`] instead of a hang.
//!
//! [`RpcChannel`] is the one transport primitive above a connection: a
//! round-robin pool with transparent replacement of dead connections,
//! traffic charging and error lifting. Both remote clients are thin
//! protocol adapters over it.
//!
//! [`RemoteStoreClient`] implements `tell_store::StoreApi` over a channel
//! and [`RemoteEndpoint`] implements `StoreEndpoint`, so a
//! `tell_core::Database` opened over them runs the exact transaction code
//! paths it runs in-process. The remote client implements only `submit`,
//! the scans and `meter`: submitted operations gather in a per-client
//! *submission window* and cross the wire as **one** `Request::Batch`
//! frame when the first handle is awaited — N logical operations, one
//! frame each way (§5.1's aggressive batching). The blocking point methods
//! come from `StoreApi` as submit-then-wait, so a blocking call issued
//! while handles are outstanding joins their batch instead of racing it.
//! [`RemoteCmClient`] likewise implements the
//! `CommitService`/`CommitParticipant` pair over one connection per commit
//! server, with the same fail-over-to-the-next-manager behavior as the
//! local `CmCluster` (§4.4.3).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};

use bytes::Bytes;
use parking_lot::Mutex;
use tell_commitmgr::{CommitParticipant, CommitService, TxnStart};
use tell_common::{Error, IsolationLevel, Result, TxnId};
use tell_netsim::NetMeter;
use tell_store::keys::prefix_end;
use tell_store::{
    BatchDriver, OpHandle, OpResult, Predicate, ScanRow, StoreApi, StoreEndpoint, StoreOp,
};

use tell_obs::{Counter, Phase, Probe, Sample, Site, SpanStatus};

use crate::wire::{encode_frame, FrameDecoder, Request, Response, TraceContext, FRAME_HEADER};

fn unavailable(what: impl std::fmt::Display) -> Error {
    Error::Unavailable(what.to_string())
}

// ---------------------------------------------------------------------------
// Connection: one TCP stream, many in-flight requests.

/// What a caller gets back per call: the decoded response and the received
/// frame size.
type Reply = (Response, usize);

/// Socket read chunk for whichever caller is reading.
const READ_CHUNK: usize = 16 << 10;

/// One in-flight call.
#[derive(Default)]
struct Slot {
    /// Filled by whichever caller read the reply off the socket.
    reply: Option<Reply>,
    /// The caller parked on this slot, if it is parked.
    waiter: Option<Thread>,
}

/// The receive half of a connection. A caller checks it out to read, so
/// one thread reads at a time and no lock is held across the read.
struct RecvHalf {
    decoder: FrameDecoder,
    chunk: Vec<u8>,
    /// Frames decoded by the current read, delivered in one locked pass.
    ready: Vec<(u64, Reply)>,
}

struct Calls {
    slots: HashMap<u64, Slot>,
    /// `None` while a caller is reading.
    recv: Option<RecvHalf>,
}

struct ConnShared {
    addr: String,
    stream: TcpStream,
    /// Serializes frame writes; reads need no lock (see [`RecvHalf`]).
    write: Mutex<()>,
    calls: Mutex<Calls>,
    next_corr: AtomicU64,
    dead: AtomicBool,
}

impl ConnShared {
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        // Every parked caller wakes, finds the connection dead and surfaces
        // Unavailable — unless its reply got here first.
        for slot in self.calls.lock().slots.values_mut() {
            if let Some(waiter) = slot.waiter.take() {
                waiter.unpark();
            }
        }
    }

    /// Block until `corr_id`'s reply is in its slot. A caller that finds
    /// nobody reading reads itself (leader/follower): a sole waiter reads
    /// its own reply with no thread handoff at all.
    fn wait_for(&self, corr_id: u64) -> Result<Reply> {
        let mut calls = self.calls.lock();
        loop {
            let state = &mut *calls;
            let Some(slot) = state.slots.get_mut(&corr_id) else {
                return Err(Error::corrupt("reply awaited twice or never registered"));
            };
            if let Some(reply) = slot.reply.take() {
                state.slots.remove(&corr_id);
                return Ok(reply);
            }
            if self.dead.load(Ordering::SeqCst) {
                state.slots.remove(&corr_id);
                return Err(unavailable(format!("connection to {} dropped mid-call", self.addr)));
            }
            match state.recv.take() {
                Some(recv) => {
                    drop(calls);
                    self.read_until(corr_id, recv);
                }
                None => {
                    slot.waiter = Some(thread::current());
                    drop(calls);
                    thread::park();
                }
            }
            calls = self.calls.lock();
        }
    }

    /// Read as the connection's reader until `corr_id`'s reply arrives or
    /// the stream fails, filling every slot a reply arrives for and waking
    /// its caller. Then hand the receive half back and wake one caller
    /// still parked without a reply to take over reading.
    fn read_until(&self, corr_id: u64, mut recv: RecvHalf) {
        loop {
            let healthy = match (&self.stream).read(&mut recv.chunk) {
                Ok(0) => false,
                Ok(n) => {
                    recv.decoder.push(&recv.chunk[..n]);
                    decode_replies(&mut recv.decoder, &mut recv.ready)
                }
                Err(e) => e.kind() == std::io::ErrorKind::Interrupted,
            };
            let mut calls = self.calls.lock();
            let mut done = false;
            for (id, reply) in recv.ready.drain(..) {
                // A slot that is gone belonged to a dropped `PendingReply`.
                if let Some(slot) = calls.slots.get_mut(&id) {
                    slot.reply = Some(reply);
                    if let Some(waiter) = slot.waiter.take() {
                        waiter.unpark();
                    }
                    done |= id == corr_id;
                }
            }
            if !healthy {
                calls.recv = Some(recv);
                drop(calls);
                return self.mark_dead();
            }
            if done {
                let mut parked = calls.slots.values_mut().filter(|s| s.reply.is_none());
                if let Some(waiter) = parked.find_map(|s| s.waiter.take()) {
                    waiter.unpark();
                }
                calls.recv = Some(recv);
                return;
            }
        }
    }
}

/// Drain every complete frame from `decoder` into `ready`. Returns false
/// when the stream is desynchronized: a rejected header, or a frame that
/// parses as a frame but not as a message — that one still reaches its
/// caller, as the decode error.
fn decode_replies(decoder: &mut FrameDecoder, ready: &mut Vec<(u64, Reply)>) -> bool {
    loop {
        let (corr_id, body) = match decoder.next_frame() {
            Ok(Some((corr_id, _, body))) => (corr_id, body),
            Ok(None) => return true,
            Err(_) => return false,
        };
        let received = FRAME_HEADER + body.len();
        match Response::decode(&body) {
            Ok(response) => ready.push((corr_id, (response, received))),
            Err(e) => {
                ready.push((corr_id, (Response::Error(e), received)));
                return false;
            }
        }
    }
}

/// A pipelined connection to one tell-rpc server.
pub struct Connection {
    shared: Arc<ConnShared>,
}

impl Connection {
    /// Connect. No thread is started: callers waiting for replies take
    /// turns reading them.
    pub fn connect(addr: &str) -> Result<Connection> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| unavailable(format!("connect to {addr} failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        let recv = RecvHalf {
            decoder: FrameDecoder::new(),
            chunk: vec![0u8; READ_CHUNK],
            ready: Vec::new(),
        };
        let shared = Arc::new(ConnShared {
            addr: addr.to_string(),
            stream,
            write: Mutex::new(()),
            calls: Mutex::new(Calls { slots: HashMap::new(), recv: Some(recv) }),
            next_corr: AtomicU64::new(1),
            dead: AtomicBool::new(false),
        });
        Ok(Connection { shared })
    }

    /// True once the stream has failed — including a peer that closed it
    /// while nothing was in flight, which this checks for without blocking.
    /// The connection never recovers (callers reconnect through their
    /// pool).
    pub fn is_dead(&self) -> bool {
        let shared = &self.shared;
        let idle = {
            let calls = shared.calls.lock();
            calls.slots.is_empty() && calls.recv.is_some()
        };
        // Idle means nobody is reading, so nobody else would notice the
        // close until the next request is lost.
        if idle && !shared.dead.load(Ordering::SeqCst) {
            let closed = match crate::sys::peek_nonblocking(shared.stream.as_raw_fd()) {
                Ok(n) => n == 0,
                Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
            };
            if closed {
                shared.mark_dead();
            }
        }
        shared.dead.load(Ordering::SeqCst)
    }

    /// The address this connection was opened against.
    pub fn peer(&self) -> &str {
        &self.shared.addr
    }

    /// Send one request and wait for its response. Returns the response
    /// plus the frame sizes sent and received, for traffic accounting.
    /// The thread's trace id is stamped into the frame when the work under
    /// it records spans; an unrecorded transaction's frames carry none.
    pub fn call(&self, request: &Request) -> Result<(Response, usize, usize)> {
        // One span per round trip of a recording trace. Its id rides the
        // frame so the server's dispatch span parents onto it; the span
        // itself parents onto whatever is current on this thread (a txn
        // phase, a batch flush). Client calls have no virtual clock, so
        // virtual timestamps are 0.
        let probe = Probe::enter(Site::RpcClientCall);
        let ctx = tell_obs::recording_trace()
            .map(|trace| TraceContext { trace, parent_span: probe.span_id() });
        let outcome = self.send(request, ctx).and_then(PendingReply::wait);
        let (count, status) = match &outcome {
            Ok((response, ..)) => (1, response_status(response)),
            Err(_) => (0, SpanStatus::Error),
        };
        probe.finish(0.0, count, status);
        outcome
    }

    /// Send one request without waiting for its reply. The returned
    /// [`PendingReply`] waits for the response later, so a caller can keep
    /// several requests in flight over one connection and overlap server
    /// work with its own — the client half of pipelining. Untraced: a
    /// pipelined caller is a throughput path, not a waterfall.
    pub fn call_async(&self, request: &Request) -> Result<PendingReply> {
        self.send(request, None)
    }

    /// [`Connection::call`] charging `meter` for the traffic and lifting a
    /// top-level `Response::Error` into a typed `Err` — the shape every
    /// non-windowed caller wants.
    pub fn request(&self, request: &Request, meter: &NetMeter) -> Result<Response> {
        let (response, sent, received) = self.call(request)?;
        meter.charge_real(sent, received);
        match response {
            Response::Error(e) => Err(e),
            other => Ok(other),
        }
    }

    /// The one send path: register a reply slot, then write the whole
    /// frame with a single `write_all`.
    fn send(&self, request: &Request, ctx: Option<TraceContext>) -> Result<PendingReply> {
        let shared = &self.shared;
        if shared.dead.load(Ordering::SeqCst) {
            return Err(unavailable(format!("connection to {} is closed", shared.addr)));
        }
        let corr_id = shared.next_corr.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(corr_id, ctx, &request.encode())?;
        shared.calls.lock().slots.insert(corr_id, Slot::default());
        // From here the slot is the `PendingReply`'s to remove, on any path.
        let pending = PendingReply { shared: Arc::clone(shared), corr_id, sent: frame.len() };
        // Re-check after registering: if the connection died in between,
        // nobody will ever fill the slot.
        if shared.dead.load(Ordering::SeqCst) {
            return Err(unavailable(format!("connection to {} is closed", shared.addr)));
        }
        let written = {
            let _write = shared.write.lock();
            (&shared.stream).write_all(&frame)
        };
        if let Err(e) = written {
            shared.mark_dead();
            return Err(unavailable(format!("send to {} failed: {e}", shared.addr)));
        }
        tell_obs::incr(Counter::RpcClientFramesOut);
        tell_obs::add(Counter::RpcClientBytesOut, frame.len() as u64);
        Ok(pending)
    }

    /// Shut the connection down, failing in-flight and future calls.
    pub fn close(&self) {
        self.shared.mark_dead();
    }
}

/// The receiving half of a [`Connection::call_async`]: a reply that is on
/// its way but has not been waited on yet. Dropping one abandons the reply
/// (its slot goes, and the reply is discarded on arrival); the connection
/// stays healthy.
pub struct PendingReply {
    shared: Arc<ConnShared>,
    corr_id: u64,
    sent: usize,
}

impl PendingReply {
    /// Block for the reply. Returns the response plus the frame sizes sent
    /// and received, exactly like [`Connection::call`].
    pub fn wait(self) -> Result<(Response, usize, usize)> {
        let (response, received) = self.shared.wait_for(self.corr_id)?;
        tell_obs::incr(Counter::RpcClientFramesIn);
        tell_obs::add(Counter::RpcClientBytesIn, received as u64);
        Ok((response, self.sent, received))
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        self.shared.calls.lock().slots.remove(&self.corr_id);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// RpcChannel: the one client-side transport primitive.

/// The generic client-side channel to one server: a fixed-size pool of
/// lazily-opened pipelined connections handed out round-robin, with a dead
/// connection transparently replaced on the next checkout — so a server
/// restart heals without client restarts.
///
/// This is the single piece of connect/pool/retry/frame plumbing every
/// remote client shares. [`RemoteStoreClient`] runs its submission window
/// over one, [`RemoteCmClient`] holds one per commit server; neither
/// carries its own connection management anymore.
pub struct RpcChannel {
    addr: String,
    slots: Mutex<Vec<Option<Arc<Connection>>>>,
    next: AtomicUsize,
}

impl RpcChannel {
    /// Channel of `size` connections to `addr` (opened on first use).
    pub fn new(addr: impl Into<String>, size: usize) -> Arc<RpcChannel> {
        Arc::new(RpcChannel {
            addr: addr.into(),
            slots: Mutex::new(vec![None; size.max(1)]),
            next: AtomicUsize::new(0),
        })
    }

    /// The server this channel connects to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Check out a live connection, opening or replacing one if needed.
    pub fn connection(&self) -> Result<Arc<Connection>> {
        let mut slots = self.slots.lock();
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % slots.len();
        if let Some(conn) = &slots[idx] {
            if !conn.is_dead() {
                return Ok(Arc::clone(conn));
            }
        }
        let fresh = Arc::new(Connection::connect(&self.addr)?);
        slots[idx] = Some(Arc::clone(&fresh));
        Ok(fresh)
    }

    /// One round trip on a pooled connection. Returns the response plus
    /// the frame sizes sent and received, for traffic accounting.
    pub fn call(&self, request: &Request) -> Result<(Response, usize, usize)> {
        self.connection()?.call(request)
    }

    /// [`Connection::request`] on a pooled connection.
    pub fn request(&self, request: &Request, meter: &NetMeter) -> Result<Response> {
        self.connection()?.request(request, meter)
    }
}

// ---------------------------------------------------------------------------
// Submission window: the per-client request scheduler.

struct WindowState {
    next_ticket: u64,
    /// Operations submitted but not yet flushed, in submission order. The
    /// ticket is `None` once its handle was dropped: the op still ships,
    /// its completion is not parked.
    queued: Vec<(Option<u64>, StoreOp)>,
    /// Completions parked for tickets whose handles have not been waited.
    done: HashMap<u64, Result<OpResult>>,
}

/// Coalesces every operation submitted between two waits into one
/// `Request::Batch` frame. Deliberately `!Send` (like the meter): one
/// window per worker thread, no locks on the submit path. The window
/// flushes when the *first* outstanding handle is awaited; completions for
/// the others are parked until their own `wait`.
struct SubmitWindow {
    channel: Arc<RpcChannel>,
    meter: NetMeter,
    state: RefCell<WindowState>,
}

impl SubmitWindow {
    fn new(channel: Arc<RpcChannel>, meter: NetMeter) -> SubmitWindow {
        SubmitWindow {
            channel,
            meter,
            state: RefCell::new(WindowState {
                next_ticket: 0,
                queued: Vec::new(),
                done: HashMap::new(),
            }),
        }
    }

    fn enqueue(&self, op: StoreOp) -> u64 {
        let mut state = self.state.borrow_mut();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queued.push((Some(ticket), op));
        ticket
    }

    /// Send everything queued as one frame (a bare request when the window
    /// holds a single op — framing a batch of one would only add bytes) and
    /// park the per-op completions. Transport failure fails every ticket
    /// with the same typed error; nobody hangs.
    fn flush(&self) {
        // Take the queue out before any I/O: `conn.call` blocks, and a
        // `RefCell` borrow held across it would poison reentrant submits.
        let queued = std::mem::take(&mut self.state.borrow_mut().queued);
        if queued.is_empty() {
            return;
        }
        let (tickets, ops): (Vec<Option<u64>>, Vec<StoreOp>) = queued.into_iter().unzip();
        let mut requests: Vec<Request> = ops.iter().map(op_to_request).collect();
        let n = requests.len();
        tell_obs::observe(Phase::BatchWindow, n as f64);
        let single = n == 1;
        let request = if single {
            requests.pop().expect("one request")
        } else {
            Request::Batch { ops: requests }
        };
        // The flush is a probe of its own so the waterfall shows how many
        // ops one frame coalesced; the `RpcClientCall` underneath it is
        // the wire round trip.
        let probe = Probe::sampled(Site::BatchFlush, Sample::ALL, self.meter.clock().now_us());
        let outcome = self.channel.call(&request);
        let status = if outcome.is_ok() { SpanStatus::Ok } else { SpanStatus::Error };
        probe.finish(self.meter.clock().now_us(), n as u32, status);
        let per_op = outcome.and_then(|(response, sent, received)| {
            self.meter.charge_real(sent, received);
            match response {
                response if single => Ok(vec![response]),
                Response::Batch { results } if results.len() == n => Ok(results),
                Response::Batch { results } => Err(Error::corrupt(format!(
                    "batch of {n} ops answered with {} results",
                    results.len()
                ))),
                // A top-level error (e.g. "this node does not serve
                // storage") applies to every op in the frame.
                Response::Error(e) => Err(e),
                other => Err(unexpected("batch", other)),
            }
        });
        let mut state = self.state.borrow_mut();
        match per_op {
            Ok(per_op) => {
                for ((ticket, op), response) in tickets.into_iter().zip(&ops).zip(per_op) {
                    if let Some(ticket) = ticket {
                        state.done.insert(ticket, complete_op(op, response));
                    }
                }
            }
            Err(e) => {
                for ticket in tickets.into_iter().flatten() {
                    state.done.insert(ticket, Err(e.clone()));
                }
            }
        }
    }
}

impl BatchDriver for SubmitWindow {
    fn resolve(&self, ticket: u64) -> Result<OpResult> {
        if !self.state.borrow().done.contains_key(&ticket) {
            self.flush();
        }
        self.state
            .borrow_mut()
            .done
            .remove(&ticket)
            .unwrap_or_else(|| Err(Error::corrupt("op handle resolved twice or never enqueued")))
    }

    fn forget(&self, ticket: u64) {
        let mut state = self.state.borrow_mut();
        if state.done.remove(&ticket).is_none() {
            if let Some(queued) = state.queued.iter_mut().find(|(t, _)| *t == Some(ticket)) {
                queued.0 = None;
            }
        }
    }
}

fn op_to_request(op: &StoreOp) -> Request {
    match op {
        StoreOp::Get { key } => Request::Get { key: key.clone() },
        StoreOp::MultiGet { keys } => Request::MultiGet { keys: keys.clone() },
        StoreOp::Write { op } => Request::Write { op: op.clone() },
        StoreOp::MultiWrite { ops } => Request::MultiWrite { ops: ops.clone() },
        StoreOp::Increment { key, delta } => Request::Increment { key: key.clone(), delta: *delta },
    }
}

/// Map one nested response back to its op's completion, losslessly: a
/// nested `Response::Error` becomes that op's typed `Err` without touching
/// its window-mates; a shape mismatch is a protocol corruption.
fn complete_op(op: &StoreOp, response: Response) -> Result<OpResult> {
    match (op, response) {
        (_, Response::Error(e)) => Err(e),
        (StoreOp::Get { .. }, Response::Cell(cell)) => Ok(OpResult::Cell(cell)),
        (StoreOp::MultiGet { .. }, Response::Cells(cells)) => Ok(OpResult::Cells(cells)),
        (StoreOp::Write { .. }, Response::Written(token)) => Ok(OpResult::Written(token)),
        (StoreOp::MultiWrite { .. }, Response::WriteResults(results)) => {
            Ok(OpResult::WriteResults(results))
        }
        (StoreOp::Increment { .. }, Response::Counter(v)) => Ok(OpResult::Counter(v)),
        (_, other) => Err(unexpected("batched op", other)),
    }
}

fn unexpected(context: &str, response: Response) -> Error {
    Error::corrupt(format!("unexpected response to {context}: {response:?}"))
}

/// How a response ends the span of the call (or dispatch) it answers.
pub(crate) fn response_status(response: &Response) -> SpanStatus {
    match response {
        Response::Error(Error::Conflict) => SpanStatus::Conflict,
        Response::Error(_) => SpanStatus::Error,
        _ => SpanStatus::Ok,
    }
}

// ---------------------------------------------------------------------------
// Remote storage client + endpoint.

/// `StoreApi` over TCP. Mirrors the in-process `StoreClient` operation for
/// operation; the meter records real traffic (`charge_real`) instead of
/// simulated time — the network is no longer a model, it is there.
///
/// Point operations route through the client's submission window: `submit`
/// queues, the first `wait` flushes the whole window as one frame. The
/// trait's blocking point methods are submit-then-wait, so they cost one
/// frame alone but share a frame with any outstanding handles. Scans call
/// directly (their payload dwarfs framing) after flushing the window,
/// preserving program order between a submitted write and a subsequent
/// scan.
#[derive(Clone)]
pub struct RemoteStoreClient {
    window: Rc<SubmitWindow>,
    meter: NetMeter,
}

impl RemoteStoreClient {
    /// Client over `channel`, charging traffic to `meter`.
    pub fn new(channel: Arc<RpcChannel>, meter: NetMeter) -> RemoteStoreClient {
        let window = Rc::new(SubmitWindow::new(channel, meter.clone()));
        RemoteStoreClient { window, meter }
    }

    /// Direct (non-windowed) exchange, for scans and probes. Flushes the
    /// window first so previously submitted operations are applied before
    /// this request reaches the server.
    fn call(&self, request: &Request) -> Result<Response> {
        self.window.flush();
        self.window.channel.request(request, &self.meter)
    }
}

impl StoreApi for RemoteStoreClient {
    fn submit(&self, op: StoreOp) -> OpHandle {
        let ticket = self.window.enqueue(op);
        OpHandle::pending(Rc::clone(&self.window) as Rc<dyn BatchDriver>, ticket)
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> Result<Vec<ScanRow>> {
        self.scan(start, end, limit, false, None)
    }

    fn scan_range_rev(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<ScanRow>> {
        self.scan(start, end, limit, true, None)
    }

    fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Result<Vec<ScanRow>> {
        self.scan(prefix, prefix_end(prefix).as_deref(), limit, false, None)
    }

    fn scan_prefix_pushdown(
        &self,
        prefix: &[u8],
        limit: usize,
        filter: &Predicate,
    ) -> Result<Vec<ScanRow>> {
        self.scan(prefix, prefix_end(prefix).as_deref(), limit, false, Some(filter))
    }

    fn meter(&self) -> &NetMeter {
        &self.meter
    }
}

impl RemoteStoreClient {
    /// The one range read every scan form sends as a `Request::Scan`. A
    /// filter travels in the request, so the storage node tests it next to
    /// the data and only admitted rows cross the network (§5.2).
    fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        reverse: bool,
        filter: Option<&Predicate>,
    ) -> Result<Vec<ScanRow>> {
        if let Some(f) = filter {
            // Validate encodability up front (depth limit): `Request::encode`
            // must be infallible by the time the frame is built.
            f.encode_into(&mut Vec::new())?;
        }
        let request = Request::Scan {
            start: Bytes::copy_from_slice(start),
            end: end.map(Bytes::copy_from_slice),
            limit: limit as u64,
            reverse,
            filter: filter.cloned(),
        };
        match self.call(&request)? {
            Response::Rows(rows) => Ok(rows),
            other => Err(unexpected("scan", other)),
        }
    }
}

/// `StoreEndpoint` over TCP: the `Send + Sync` handle a shared `Database`
/// stores, from which each worker thread mints its own client.
#[derive(Clone)]
pub struct RemoteEndpoint {
    channel: Arc<RpcChannel>,
}

impl RemoteEndpoint {
    /// Endpoint talking to the storage server at `addr` through a channel
    /// of `pool_size` connections (opened lazily, so this cannot fail —
    /// unreachable servers surface as `Unavailable` on the first call).
    pub fn connect(addr: impl Into<String>, pool_size: usize) -> RemoteEndpoint {
        RemoteEndpoint { channel: RpcChannel::new(addr, pool_size) }
    }

    /// The storage server's address.
    pub fn addr(&self) -> &str {
        self.channel.addr()
    }
}

impl StoreEndpoint for RemoteEndpoint {
    type Client = RemoteStoreClient;

    fn client(&self, meter: NetMeter) -> RemoteStoreClient {
        RemoteStoreClient::new(Arc::clone(&self.channel), meter)
    }
}

// ---------------------------------------------------------------------------
// Remote commit-manager client.

/// `CommitService` over TCP: one [`RpcChannel`] per commit server, pinning
/// by hint with fail-over to the next server, exactly like the local
/// cluster. The per-server connection management that used to live here
/// (`CmTarget`) is gone — a channel of size one is the same thing.
pub struct RemoteCmClient {
    targets: Vec<Arc<RpcChannel>>,
}

impl RemoteCmClient {
    /// Client over the commit servers at `addrs` (connected lazily).
    pub fn connect(addrs: impl IntoIterator<Item = impl Into<String>>) -> RemoteCmClient {
        let targets: Vec<_> = addrs.into_iter().map(|a| RpcChannel::new(a, 1)).collect();
        assert!(!targets.is_empty(), "need at least one commit-server address");
        RemoteCmClient { targets }
    }

    /// Call `request` on every commit server, charging `meter`, and hand
    /// each answer to `accept`, which gives back an answer of the wrong
    /// shape. Unreachable servers are skipped; any other error fails the
    /// call, and so does reaching none.
    fn fan_out(
        &self,
        request: &Request,
        meter: &NetMeter,
        what: &str,
        mut accept: impl FnMut(Response) -> std::result::Result<(), Response>,
    ) -> Result<()> {
        let mut reached = false;
        for target in &self.targets {
            match target.request(request, meter) {
                Ok(response) => {
                    accept(response).map_err(|other| unexpected(&format!("cm_{what}"), other))?;
                    reached = true;
                }
                Err(Error::Unavailable(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if reached {
            Ok(())
        } else {
            Err(unavailable(format!("no commit server reachable for {what}")))
        }
    }
}

impl CommitService for RemoteCmClient {
    fn start_pinned(
        &self,
        hint: usize,
        level: IsolationLevel,
        meter: &NetMeter,
    ) -> Result<(TxnStart, Arc<dyn CommitParticipant>)> {
        let n = self.targets.len();
        let mut last_err = unavailable("no commit server reachable");
        for i in 0..n {
            let idx = (hint + i) % n;
            let conn = match self.targets[idx].connection() {
                Ok(c) => c,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            match conn.request(&Request::CmStart { hint: hint as u64, level }, meter) {
                Ok(Response::TxnStarted { tid, lav, snapshot }) => {
                    let participant = Arc::new(RemoteParticipant { conn });
                    return Ok((TxnStart { tid, snapshot, lav }, participant));
                }
                Ok(other) => return Err(unexpected("cm_start", other)),
                Err(Error::Unavailable(w)) => {
                    last_err = Error::Unavailable(w);
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    fn current_lav(&self) -> Result<u64> {
        let mut lav = u64::MAX;
        self.fan_out(&Request::CmLav, &NetMeter::free(), "lav", |response| match response {
            Response::Lav(v) => {
                lav = lav.min(v);
                Ok(())
            }
            other => Err(other),
        })?;
        Ok(lav)
    }

    fn force_resolve(&self, tid: TxnId, committed: bool) -> Result<()> {
        let request = Request::CmResolve { tid, committed };
        self.fan_out(&request, &NetMeter::free(), "resolve", unit)
    }

    fn sync_all(&self, meter: &NetMeter) -> Result<()> {
        self.fan_out(&Request::CmSync, meter, "sync", unit)
    }
}

/// `Response::Unit`, or the answer handed back as the wrong shape.
fn unit(response: Response) -> std::result::Result<(), Response> {
    match response {
        Response::Unit => Ok(()),
        other => Err(other),
    }
}

/// Finish-side handle to the server (and through it, the manager) that
/// issued a tid. Reporting goes back over the same connection the start
/// came from, so the server's tid routing table finds the right manager.
struct RemoteParticipant {
    conn: Arc<Connection>,
}

impl RemoteParticipant {
    fn complete(&self, tid: TxnId, committed: bool, meter: &NetMeter) -> Result<()> {
        match self.conn.request(&Request::CmComplete { tid, committed }, meter)? {
            Response::Unit => Ok(()),
            other => Err(unexpected("cm_complete", other)),
        }
    }
}

impl CommitParticipant for RemoteParticipant {
    fn set_committed(&self, tid: TxnId, meter: &NetMeter) -> Result<()> {
        self.complete(tid, true, meter)
    }

    fn set_aborted(&self, tid: TxnId, meter: &NetMeter) -> Result<()> {
        self.complete(tid, false, meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RpcServer;
    use tell_common::SimClock;
    use tell_netsim::{NetworkProfile, TrafficStats};
    use tell_store::{Expect, Key, StoreClient, StoreCluster, StoreConfig, Token, WriteOp};

    fn key(s: &str) -> Key {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// A one-node store seeded with record `k`, whose token is returned.
    fn seeded() -> (Arc<StoreCluster>, Token) {
        let store = StoreCluster::new(StoreConfig::new(1));
        let token =
            StoreClient::unmetered(Arc::clone(&store)).insert(&key("k"), val("v0")).unwrap();
        (store, token)
    }

    /// A seeded store behind a loopback server, and a remote client of it.
    fn served() -> (Arc<StoreCluster>, RpcServer, RemoteStoreClient, Token) {
        let (store, token) = seeded();
        let server = RpcServer::serve_store("127.0.0.1:0", Arc::clone(&store)).unwrap();
        let client = RemoteEndpoint::connect(server.local_addr().to_string(), 1).unmetered_client();
        (store, server, client, token)
    }

    /// The nine point methods `StoreApi` provides, each against the seeded
    /// record `k` (token `t`).
    #[derive(Clone, Copy, Debug)]
    enum Point {
        Get,
        MultiGet,
        Put,
        Insert,
        StoreConditional,
        DeleteConditional,
        Delete,
        MultiWrite,
        Increment,
    }

    const POINTS: [Point; 9] = [
        Point::Get,
        Point::MultiGet,
        Point::Put,
        Point::Insert,
        Point::StoreConditional,
        Point::DeleteConditional,
        Point::Delete,
        Point::MultiWrite,
        Point::Increment,
    ];

    impl Point {
        /// Call the provided method, lifting its result into `OpResult`.
        fn call<C: StoreApi>(self, c: &C, t: Token) -> Result<OpResult> {
            let k = key("k");
            let written = |t: Token| OpResult::Written(Some(t));
            match self {
                Point::Get => c.get(&k).map(OpResult::Cell),
                Point::MultiGet => c.multi_get(&[k, key("absent")]).map(OpResult::Cells),
                Point::Put => c.put(&k, val("v1")).map(written),
                Point::Insert => c.insert(&key("new"), val("v1")).map(written),
                Point::StoreConditional => c.store_conditional(&k, t, val("v1")).map(written),
                Point::DeleteConditional => {
                    c.delete_conditional(&k, t).map(|()| OpResult::Written(None))
                }
                Point::Delete => c.delete(&k).map(|()| OpResult::Written(None)),
                Point::MultiWrite => c.multi_write(Point::writes(t)).map(OpResult::WriteResults),
                Point::Increment => c.increment(&key("ctr"), 5).map(OpResult::Counter),
            }
        }

        /// The same operation in its `submit` form.
        fn op(self, t: Token) -> StoreOp {
            let k = key("k");
            let write = |op| StoreOp::Write { op };
            match self {
                Point::Get => StoreOp::Get { key: k },
                Point::MultiGet => StoreOp::MultiGet { keys: vec![k, key("absent")] },
                Point::Put => write(WriteOp::put(k, Expect::Any, val("v1"))),
                Point::Insert => write(WriteOp::put(key("new"), Expect::Absent, val("v1"))),
                Point::StoreConditional => write(WriteOp::put(k, Expect::Token(t), val("v1"))),
                Point::DeleteConditional => write(WriteOp::delete(k, Expect::Token(t))),
                Point::Delete => write(WriteOp::delete(k, Expect::Any)),
                Point::MultiWrite => StoreOp::MultiWrite { ops: Point::writes(t) },
                Point::Increment => StoreOp::Increment { key: key("ctr"), delta: 5 },
            }
        }

        /// A batch whose second write fails its precondition, so per-op
        /// errors are compared too.
        fn writes(t: Token) -> Vec<WriteOp> {
            vec![
                WriteOp::put(key("k"), Expect::Token(t), val("v1")),
                WriteOp::put(key("k"), Expect::Absent, val("v2")),
            ]
        }
    }

    #[test]
    fn local_point_methods_match_their_submit_form_result_and_charge() {
        for point in POINTS {
            let [(direct, direct_us), (submitted, submitted_us)] = [false, true].map(|submit| {
                let (store, t) = seeded();
                let clock = SimClock::new();
                let profile = NetworkProfile::infiniband();
                let client = StoreClient::new(
                    store,
                    NetMeter::new(profile, clock.clone(), TrafficStats::new()),
                );
                let result =
                    if submit { client.submit(point.op(t)).wait() } else { point.call(&client, t) };
                (result, clock.now_us())
            });
            assert!(direct.is_ok(), "{point:?}: {direct:?}");
            assert_eq!(direct, submitted, "{point:?}");
            assert!(direct_us > 0.0, "{point:?} charges the virtual clock");
            assert!((direct_us - submitted_us).abs() < 1e-9, "{point:?}: same charge both ways");
        }
    }

    #[test]
    fn local_and_remote_scans_return_the_same_rows() {
        // Two nodes, 16 partitions: every range read gathers from several.
        let store = StoreCluster::new(StoreConfig::new(2));
        let local = StoreClient::unmetered(Arc::clone(&store));
        for i in 0..40u8 {
            let k = Bytes::from(format!("{}/{i:02}", ["a", "b"][usize::from(i % 2)]));
            local.put(&k, Bytes::from(vec![i % 4, i])).unwrap();
        }
        let server = RpcServer::serve_store("127.0.0.1:0", Arc::clone(&store)).unwrap();
        let addr = server.local_addr().to_string();
        let remote = RemoteEndpoint::connect(addr.clone(), 1).unmetered_client();
        let filters = [
            Predicate::value_eq(0, vec![1]),
            Predicate::Not(Box::new(Predicate::KeyPrefix(key("a/1")))),
        ];
        let mut rows_seen = 0;
        for limit in [0, 1, 3, usize::MAX] {
            for end in [Some(&b"b/31"[..]), None] {
                let start = b"a/05";
                let (l, r) =
                    (local.scan_range(start, end, limit), remote.scan_range(start, end, limit));
                assert_eq!(l, r, "scan_range to {end:?}, limit {limit}");
                rows_seen += l.unwrap().len();
                let (l, r) = (
                    local.scan_range_rev(start, end, limit),
                    remote.scan_range_rev(start, end, limit),
                );
                assert_eq!(l, r, "scan_range_rev to {end:?}, limit {limit}");
                rows_seen += l.unwrap().len();
            }
            // The empty prefix has no end: an unbounded prefix scan.
            for prefix in [&b"a/"[..], b""] {
                let (l, r) = (local.scan_prefix(prefix, limit), remote.scan_prefix(prefix, limit));
                assert_eq!(l, r, "scan_prefix {prefix:?}, limit {limit}");
                rows_seen += l.unwrap().len();
                for f in &filters {
                    let l = local.scan_prefix_pushdown(prefix, limit, f);
                    assert_eq!(l, remote.scan_prefix_pushdown(prefix, limit, f), "{f:?}, {limit}");
                    rows_seen += l.unwrap().len();
                }
            }
        }
        assert!(rows_seen > 100, "the forms read rows: {rows_seen}");
        // The wire's one range read also takes shapes no `StoreApi` form
        // sends (a filtered reverse scan, a filtered bounded range): the
        // server answers each exactly as the cluster does.
        let conn = Connection::connect(&addr).unwrap();
        for limit in [0, 1, 3, usize::MAX] {
            for reverse in [false, true] {
                for end in [Some(key("b/31")), None] {
                    for filter in [None, Some(filters[0].clone()), Some(filters[1].clone())] {
                        let want = store
                            .srv_scan(b"a/05", end.as_deref(), limit, reverse, filter.as_ref())
                            .unwrap()
                            .0;
                        let request = Request::Scan {
                            start: key("a/05"),
                            end: end.clone(),
                            limit: limit as u64,
                            reverse,
                            filter,
                        };
                        let (response, _, _) = conn.call(&request).unwrap();
                        assert_eq!(response, Response::Rows(want), "{request:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_delete_expecting_absence_is_invalid_alone_batched_and_remote() {
        let invalid = |r: &Result<Option<Token>>| matches!(r, Err(Error::InvalidOperation(_)));
        let (store, server, remote, t) = served();
        let local = StoreClient::unmetered(Arc::clone(&store));
        let conn = Connection::connect(&server.local_addr().to_string()).unwrap();
        // A present and a missing key: neither shape may answer `Conflict`.
        for k in [key("k"), key("missing")] {
            let op = WriteOp::delete(k.clone(), Expect::Absent);
            let alone = local.submit(StoreOp::Write { op: op.clone() }).wait();
            assert!(invalid(&alone.and_then(OpResult::into_written)), "alone, {k:?}");
            let batched = local.multi_write(vec![op.clone()]).unwrap();
            assert!(invalid(&batched[0]), "in a multi_write, {k:?}: {batched:?}");
            let remote_alone = remote.submit(StoreOp::Write { op: op.clone() }).wait();
            assert!(invalid(&remote_alone.and_then(OpResult::into_written)), "remote, {k:?}");
            let request = Request::Batch {
                ops: vec![Request::Write { op: op.clone() }, Request::MultiWrite { ops: vec![op] }],
            };
            let (response, _, _) = conn.call(&request).unwrap();
            let Response::Batch { results } = response else { panic!("{response:?}") };
            assert!(
                matches!(&results[0], Response::Error(Error::InvalidOperation(_))),
                "{results:?}"
            );
            let Response::WriteResults(inner) = &results[1] else { panic!("{results:?}") };
            assert!(invalid(&inner[0]), "in a remote batch, {k:?}: {inner:?}");
        }
        assert_eq!(local.get(&key("k")).unwrap(), Some((t, val("v0"))), "k untouched");
        assert_eq!(local.get(&key("missing")).unwrap(), None, "nothing created");
    }

    #[test]
    fn remote_point_methods_match_their_submit_form_and_join_the_open_window() {
        for point in POINTS {
            let (_store, server, client, t) = served();
            let outstanding = client.submit(StoreOp::Get { key: key("k") });
            let before = server.frames_served();
            let direct = point.call(&client, t);
            assert_eq!(server.frames_served() - before, 1, "{point:?} rides the open window");
            assert_eq!(outstanding.wait(), Ok(OpResult::Cell(Some((t, val("v0"))))));
            assert!(direct.is_ok(), "{point:?}: {direct:?}");

            let (_store, _server, client, t) = served();
            assert_eq!(direct, client.submit(point.op(t)).wait(), "{point:?}");
        }
    }

    #[test]
    fn dropped_handles_park_nothing_and_their_ops_still_run() {
        let (store, _server, client, _) = served();
        let put = |k: &str| {
            client.submit(StoreOp::Write { op: WriteOp::put(key(k), Expect::Any, val("x")) })
        };
        let (a, b, c) = (put("a"), put("b"), put("c"));
        // One handle goes before the flush, one after its completion parked.
        drop(a);
        c.wait().unwrap();
        drop(b);
        let local = StoreClient::unmetered(store);
        for k in ["a", "b"] {
            assert_eq!(local.get(&key(k)).unwrap().map(|(_, v)| v), Some(val("x")), "{k} applied");
        }
        let state = client.window.state.borrow();
        assert_eq!(state.done.len(), 0, "the window parks no completion nobody can collect");
        assert!(state.queued.is_empty());
    }
}
