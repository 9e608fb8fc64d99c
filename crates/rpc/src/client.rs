//! Client side of the transport: pipelined connections, the remote storage
//! client/endpoint, and the remote commit-manager client.
//!
//! A [`Connection`] multiplexes many in-flight requests over one TCP
//! stream: callers stamp a fresh correlation id, park on a channel, and a
//! reader thread routes each response frame back to its caller. When the
//! stream dies, every parked caller — and every later one — gets a typed
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
//! paths it runs in-process. Asynchronously submitted operations gather in
//! a per-client *submission window* and cross the wire as **one**
//! `Request::Batch` frame when the first handle is awaited — N logical
//! operations, one frame each way (§5.1's aggressive batching). The
//! blocking `StoreApi` methods are submit-then-wait wrappers, so a
//! blocking call issued while async handles are outstanding joins their
//! batch instead of racing it. [`RemoteCmClient`] likewise implements the
//! `CommitService`/`CommitParticipant` pair over one connection per commit
//! server, with the same fail-over-to-the-next-manager behavior as the
//! local `CmCluster` (§4.4.3).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use bytes::Bytes;
use parking_lot::Mutex;
use tell_commitmgr::{CmEndpoint, CommitParticipant, CommitService, TxnStart};
use tell_common::{Error, IsolationLevel, Result, TxnId};
use tell_netsim::NetMeter;
use tell_store::{
    BatchDriver, Expect, Key, OpHandle, OpResult, Predicate, StoreApi, StoreEndpoint, StoreOp,
    Token, WriteOp,
};

use tell_obs::{Counter, Phase, Probe, Sample, Site, SpanStatus};

use crate::wire::{encode_frame, FrameDecoder, Request, Response, TraceContext, FRAME_HEADER};

fn unavailable(what: impl std::fmt::Display) -> Error {
    Error::Unavailable(what.to_string())
}

// ---------------------------------------------------------------------------
// Connection: one TCP stream, many in-flight requests.

/// What the reader thread hands back per call: the decoded response and
/// the received frame size.
type Reply = (Response, usize);

/// Socket read chunk for a connection's reader thread.
const READ_CHUNK: usize = 16 << 10;

struct ConnShared {
    addr: String,
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, mpsc::Sender<Reply>>>,
    next_corr: AtomicU64,
    dead: AtomicBool,
}

impl ConnShared {
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
        // Dropping the senders wakes every parked caller with a RecvError,
        // which they surface as Unavailable.
        self.pending.lock().clear();
    }
}

/// A pipelined connection to one tell-rpc server.
pub struct Connection {
    shared: Arc<ConnShared>,
}

impl Connection {
    /// Connect and start the demultiplexing reader thread.
    pub fn connect(addr: &str) -> Result<Connection> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| unavailable(format!("connect to {addr} failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        let read_half = stream
            .try_clone()
            .map_err(|e| unavailable(format!("clone stream to {addr} failed: {e}")))?;
        let shared = Arc::new(ConnShared {
            addr: addr.to_string(),
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            next_corr: AtomicU64::new(1),
            dead: AtomicBool::new(false),
        });
        let reader_shared = Arc::clone(&shared);
        thread::Builder::new()
            .name(format!("tell-rpc-reader-{addr}"))
            .spawn(move || reader_loop(read_half, reader_shared))
            .map_err(|e| unavailable(format!("spawn reader failed: {e}")))?;
        Ok(Connection { shared })
    }

    /// True once the stream has failed; the connection never recovers
    /// (callers reconnect through their pool).
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::SeqCst)
    }

    /// The address this connection was opened against.
    pub fn peer(&self) -> &str {
        &self.shared.addr
    }

    /// Send one request and wait for its response. Returns the response
    /// plus the frame sizes sent and received, for traffic accounting.
    /// The thread's current trace id (if any) is stamped into the frame.
    pub fn call(&self, request: &Request) -> Result<(Response, usize, usize)> {
        // One span per round trip. Its id rides the frame so the server's
        // dispatch span parents onto it; the span itself parents onto
        // whatever is current on this thread (a txn phase, a batch flush).
        // Client calls have no virtual clock, so virtual timestamps are 0.
        let probe = Probe::enter(Site::RpcClientCall);
        let ctx = tell_obs::current_trace()
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
    /// [`PendingReply`] parks on the response later, so a caller can keep
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
            Response::Error(e) => Err(e.into()),
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
        let (tx, rx) = mpsc::channel();
        shared.pending.lock().insert(corr_id, tx);
        // Re-check after registering: if the reader died in between, it may
        // already have drained `pending` without seeing our entry.
        if shared.dead.load(Ordering::SeqCst) {
            shared.pending.lock().remove(&corr_id);
            return Err(unavailable(format!("connection to {} is closed", shared.addr)));
        }
        let written = shared.writer.lock().write_all(&frame);
        if let Err(e) = written {
            shared.mark_dead();
            return Err(unavailable(format!("send to {} failed: {e}", shared.addr)));
        }
        tell_obs::incr(Counter::RpcClientFramesOut);
        tell_obs::add(Counter::RpcClientBytesOut, frame.len() as u64);
        Ok(PendingReply { shared: Arc::clone(shared), rx, sent: frame.len() })
    }

    /// Shut the connection down, failing in-flight and future calls.
    pub fn close(&self) {
        self.shared.mark_dead();
    }
}

/// The receiving half of a [`Connection::call_async`]: a reply that is on
/// its way but has not been waited on yet. Dropping one abandons the reply
/// (the reader discards it on arrival); the connection stays healthy.
pub struct PendingReply {
    shared: Arc<ConnShared>,
    rx: mpsc::Receiver<Reply>,
    sent: usize,
}

impl PendingReply {
    /// Block for the reply. Returns the response plus the frame sizes sent
    /// and received, exactly like [`Connection::call`].
    pub fn wait(self) -> Result<(Response, usize, usize)> {
        match self.rx.recv() {
            Ok((response, received)) => {
                tell_obs::incr(Counter::RpcClientFramesIn);
                tell_obs::add(Counter::RpcClientBytesIn, received as u64);
                Ok((response, self.sent, received))
            }
            Err(_) => {
                Err(unavailable(format!("connection to {} dropped mid-call", self.shared.addr)))
            }
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

fn reader_loop(mut stream: TcpStream, shared: Arc<ConnShared>) {
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    'read: loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => decoder.push(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        loop {
            let (corr_id, body) = match decoder.next_frame() {
                Ok(Some((corr_id, _, body))) => (corr_id, body),
                Ok(None) => break,
                // A rejected header: the stream is desynchronized.
                Err(_) => break 'read,
            };
            let received = FRAME_HEADER + body.len();
            let decoded = Response::decode(&body);
            let failed = decoded.is_err();
            // A frame that parses as a frame but not as a message means
            // the stream is desynchronized too: surface the error to the
            // waiting caller, then kill the connection.
            let response = decoded.unwrap_or_else(|e| Response::Error(e.into()));
            if let Some(tx) = shared.pending.lock().remove(&corr_id) {
                let _ = tx.send((response, received));
            }
            if failed {
                break 'read;
            }
        }
    }
    shared.mark_dead();
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
    /// Operations submitted but not yet flushed, in submission order.
    queued: Vec<(u64, StoreOp)>,
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
        state.queued.push((ticket, op));
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
        let (tickets, ops): (Vec<u64>, Vec<StoreOp>) = queued.into_iter().unzip();
        let mut requests: Vec<Request> = ops.iter().map(op_to_request).collect();
        let n = requests.len();
        tell_obs::observe(Phase::BatchWindow, n as f64);
        let single = n == 1;
        let request = if single {
            requests.pop().expect("one request")
        } else {
            Request::Batch { ops: requests }
        };
        // Injected batch-flush stall (simulation harness): widens the
        // window in which the server side can fail underneath queued ops.
        let stall = crate::fault::flush_stall_us();
        if stall > 0 {
            thread::sleep(std::time::Duration::from_micros(stall));
        }
        // The flush is a probe of its own so the waterfall shows how many
        // ops one frame coalesced; the `RpcClientCall` underneath it is
        // the wire round trip.
        let probe = Probe::sampled(Site::BatchFlush, Sample::ALL, self.meter.clock().now_us());
        let outcome = self.channel.call(&request);
        let status = if outcome.is_ok() { SpanStatus::Ok } else { SpanStatus::Error };
        probe.finish(self.meter.clock().now_us(), n as u32, status);
        let mut state = self.state.borrow_mut();
        match outcome {
            Err(e) => {
                for ticket in tickets {
                    state.done.insert(ticket, Err(e.clone()));
                }
            }
            Ok((response, sent, received)) => {
                self.meter.charge_real(sent, received);
                let per_op: Vec<Response> = if single {
                    vec![response]
                } else {
                    match response {
                        Response::Batch { results } if results.len() == n => results,
                        Response::Batch { results } => {
                            let e = Error::corrupt(format!(
                                "batch of {n} ops answered with {} results",
                                results.len()
                            ));
                            for ticket in tickets {
                                state.done.insert(ticket, Err(e.clone()));
                            }
                            return;
                        }
                        // A top-level error (e.g. "this node does not serve
                        // storage") applies to every op in the frame.
                        Response::Error(e) => {
                            let e: Error = e.into();
                            for ticket in tickets {
                                state.done.insert(ticket, Err(e.clone()));
                            }
                            return;
                        }
                        other => {
                            let e = unexpected("batch", other);
                            for ticket in tickets {
                                state.done.insert(ticket, Err(e.clone()));
                            }
                            return;
                        }
                    }
                };
                for ((ticket, op), response) in tickets.into_iter().zip(&ops).zip(per_op) {
                    state.done.insert(ticket, complete_op(op, response));
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
        (_, Response::Error(e)) => Err(e.into()),
        (StoreOp::Get { .. }, Response::Cell(cell)) => Ok(OpResult::Cell(cell)),
        (StoreOp::MultiGet { .. }, Response::Cells(cells)) => Ok(OpResult::Cells(cells)),
        (StoreOp::Write { .. }, Response::Written(token)) => Ok(OpResult::Written(token)),
        (StoreOp::MultiWrite { .. }, Response::WriteResults(results)) => {
            Ok(OpResult::WriteResults(results.into_iter().map(|r| r.map_err(Into::into)).collect()))
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
        Response::Error(crate::wire::WireError::Conflict) => SpanStatus::Conflict,
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
/// blocking methods are submit-then-wait, so they cost one frame alone but
/// share a frame with any outstanding async handles. Scans call directly
/// (their payload dwarfs framing) after flushing the window, preserving
/// program order between a submitted write and a subsequent scan.
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

    fn unexpected(context: &str, response: Response) -> Error {
        unexpected(context, response)
    }
}

impl StoreApi for RemoteStoreClient {
    fn submit(&self, op: StoreOp) -> OpHandle {
        let ticket = self.window.enqueue(op);
        OpHandle::pending(Rc::clone(&self.window) as Rc<dyn BatchDriver>, ticket)
    }

    fn get(&self, key: &Key) -> Result<Option<(Token, Bytes)>> {
        self.get_async(key).wait()
    }

    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<(Token, Bytes)>>> {
        self.multi_get_async(keys).wait()
    }

    fn put(&self, key: &Key, value: Bytes) -> Result<Token> {
        self.write_expecting_token(WriteOp::put(key.clone(), Expect::Any, value), "put")
    }

    fn insert(&self, key: &Key, value: Bytes) -> Result<Token> {
        self.write_expecting_token(WriteOp::put(key.clone(), Expect::Absent, value), "insert")
    }

    fn store_conditional(&self, key: &Key, token: Token, value: Bytes) -> Result<Token> {
        self.write_expecting_token(
            WriteOp::put(key.clone(), Expect::Token(token), value),
            "store_conditional",
        )
    }

    fn delete_conditional(&self, key: &Key, token: Token) -> Result<()> {
        self.write_async(WriteOp::delete(key.clone(), Expect::Token(token))).wait().map(|_| ())
    }

    fn delete(&self, key: &Key) -> Result<()> {
        self.write_async(WriteOp::delete(key.clone(), Expect::Any)).wait().map(|_| ())
    }

    fn multi_write(&self, ops: Vec<WriteOp>) -> Result<Vec<Result<Option<Token>>>> {
        self.multi_write_async(ops).wait()
    }

    fn increment(&self, key: &Key, delta: u64) -> Result<u64> {
        self.increment_async(key, delta).wait()
    }

    fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        self.scan(start, end, limit, false)
    }

    fn scan_range_rev(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        self.scan(start, end, limit, true)
    }

    fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Result<Vec<(Key, Token, Bytes)>> {
        let request =
            Request::ScanPrefix { prefix: Bytes::copy_from_slice(prefix), limit: limit as u64 };
        match self.call(&request)? {
            Response::Rows(rows) => Ok(rows),
            other => Err(Self::unexpected("scan_prefix", other)),
        }
    }

    /// The predicate is serializable, so it travels in the request and the
    /// storage node evaluates it before framing the response: only matching
    /// rows cross the network — the paper's §5.2 selection pushdown, now
    /// real on the remote path too.
    fn scan_prefix_pushdown(
        &self,
        prefix: &[u8],
        limit: usize,
        filter: &Predicate,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        // Validate encodability up front (depth limit): `Request::encode`
        // must be infallible by the time the frame is built.
        let mut scratch = Vec::new();
        filter.encode_into(&mut scratch)?;
        let request = Request::ScanPrefixFiltered {
            prefix: Bytes::copy_from_slice(prefix),
            limit: limit as u64,
            predicate: filter.clone(),
        };
        match self.call(&request)? {
            Response::Rows(rows) => Ok(rows),
            other => Err(Self::unexpected("scan_prefix_pushdown", other)),
        }
    }

    fn meter(&self) -> &NetMeter {
        &self.meter
    }
}

impl RemoteStoreClient {
    fn write_expecting_token(&self, op: WriteOp, context: &str) -> Result<Token> {
        match self.write_async(op).wait()? {
            Some(token) => Ok(token),
            None => Err(Error::corrupt(format!("{context} returned no token"))),
        }
    }

    fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        reverse: bool,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        let request = Request::Scan {
            start: Bytes::copy_from_slice(start),
            end: end.map(Bytes::copy_from_slice),
            limit: limit as u64,
            reverse,
        };
        match self.call(&request)? {
            Response::Rows(rows) => Ok(rows),
            other => Err(Self::unexpected("scan", other)),
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

    /// Call `request` on target `idx`, charging `meter` for the traffic.
    fn call_on(&self, idx: usize, request: &Request, meter: &NetMeter) -> Result<Response> {
        self.targets[idx].request(request, meter)
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
                Ok(other) => return Err(RemoteStoreClient::unexpected("cm_start", other)),
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
        let meter = NetMeter::free();
        let mut lav: Option<u64> = None;
        for idx in 0..self.targets.len() {
            match self.call_on(idx, &Request::CmLav, &meter) {
                Ok(Response::Lav(v)) => lav = Some(lav.map_or(v, |cur| cur.min(v))),
                Ok(other) => return Err(RemoteStoreClient::unexpected("cm_lav", other)),
                Err(Error::Unavailable(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        lav.ok_or_else(|| unavailable("no commit server reachable for lav"))
    }

    fn force_resolve(&self, tid: TxnId, committed: bool) -> Result<()> {
        let meter = NetMeter::free();
        let request = Request::CmResolve { tid, committed };
        let mut reached = false;
        for idx in 0..self.targets.len() {
            match self.call_on(idx, &request, &meter) {
                Ok(Response::Unit) => reached = true,
                Ok(other) => return Err(RemoteStoreClient::unexpected("cm_resolve", other)),
                Err(Error::Unavailable(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        if reached {
            Ok(())
        } else {
            Err(unavailable("no commit server reachable for resolve"))
        }
    }

    fn sync_all(&self, meter: &NetMeter) -> Result<()> {
        let mut reached = false;
        for idx in 0..self.targets.len() {
            match self.call_on(idx, &Request::CmSync, meter) {
                Ok(Response::Unit) => reached = true,
                Ok(other) => return Err(RemoteStoreClient::unexpected("cm_sync", other)),
                Err(Error::Unavailable(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        if reached {
            Ok(())
        } else {
            Err(unavailable("no commit server reachable for sync"))
        }
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
            other => Err(RemoteStoreClient::unexpected("cm_complete", other)),
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

/// `CmEndpoint` over TCP — the commit-manager mirror of [`RemoteEndpoint`],
/// so `Database::open` takes (store endpoint, commit endpoint) symmetrically
/// for both deployments instead of a hand-wrapped trait object on one side.
#[derive(Clone)]
pub struct RemoteCmEndpoint {
    client: Arc<RemoteCmClient>,
}

impl RemoteCmEndpoint {
    /// Endpoint over the commit servers at `addrs` (connected lazily).
    pub fn connect(addrs: impl IntoIterator<Item = impl Into<String>>) -> RemoteCmEndpoint {
        RemoteCmEndpoint { client: Arc::new(RemoteCmClient::connect(addrs)) }
    }
}

impl CmEndpoint for RemoteCmEndpoint {
    fn commit_service(&self) -> Arc<dyn CommitService> {
        Arc::clone(&self.client) as Arc<dyn CommitService>
    }
}
