//! The epoll-driven reactor: one event-loop thread owning every socket's
//! readiness, a bounded worker pool executing dispatch, and per-connection
//! buffers built on `bytes` so request frames are sliced zero-copy out of
//! the receive buffer.
//!
//! Division of labor:
//!
//! * The **reactor thread** blocks in `epoll_wait`, accepts new
//!   connections, reads ready sockets into each connection's
//!   [`FrameDecoder`], and queues connections holding complete frames for
//!   the workers. It is the only thread that reads sockets or touches the
//!   decoder, so the receive path needs no locks.
//! * **Workers** pull queued connections, decode + dispatch their frames
//!   through `dispatch_frame`, and append encoded replies to the
//!   connection's write buffer — flushing opportunistically so the common
//!   case (peer keeps up) never bounces through the reactor. Only a
//!   partial write arms `EPOLLOUT` and hands the remainder to the reactor.
//! * An **eventfd** wakes the reactor for shutdown and for connections a
//!   worker condemned; this replaces the old throwaway-connection hack.
//!
//! Ordering: a connection is queued to at most one worker at a time
//! (`queued` flag), and that worker drains its frames FIFO — so per-
//! connection dispatch order matches the old thread-per-connection loop
//! exactly, while different connections dispatch in parallel.
//!
//! Backpressure (slow-reader protection): replies buffered toward a peer
//! are capped; past the cap the connection's `EPOLLIN` interest is dropped
//! so the server stops reading — TCP flow control then pushes back on the
//! peer — and resumes below a low-water mark once the peer drains. A flood
//! of decoded-but-undispatched frames pauses reading the same way, so one
//! connection cannot balloon the dispatch queue.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use tell_common::{Error, Result};
use tell_obs::{Counter, Gauge};

use crate::service::{dispatch_frame, RpcService};
use crate::sys::{
    epoll_ctl_op, epoll_event, epoll_wait_events, Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN,
    EPOLLOUT, EPOLLRDHUP, EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
};
use crate::wire::{encode_frame, FrameDecoder, TraceContext, FRAME_HEADER};

/// Tuning knobs for a reactor-backed server.
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Dispatch worker threads; 0 picks a default from the machine's
    /// parallelism (clamped to a small pool — dispatch is memory-resident
    /// work, more threads past the core count only thrash).
    pub workers: usize,
    /// Per-connection cap on buffered reply bytes before the server stops
    /// reading from that connection (slow-reader protection).
    pub write_buf_cap: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig { workers: 0, write_buf_cap: 8 << 20 }
    }
}

impl ReactorConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        thread::available_parallelism().map_or(2, |n| n.get()).clamp(2, 8)
    }
}

const TOKEN_WAKE: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Socket read chunk. One scratch buffer per reactor, reused across reads.
const READ_CHUNK: usize = 64 << 10;

/// Frames one worker slice dispatches before rotating the connection to
/// the back of the queue (fairness across busy pipelined connections).
const FRAME_BUDGET: usize = 32;

/// Decoded-but-undispatched frames past which reading pauses.
const PENDING_PAUSE: usize = 256;

/// `epoll_wait` batch size.
const EVENT_BATCH: usize = 64;

struct ConnIo {
    /// Encoded reply bytes not yet written, contiguous — so one `write`
    /// syscall drains every reply a worker batch produced (the syscall
    /// coalescing a thread-per-connection server cannot do).
    wbuf: BytesMut,
    /// Interest set currently registered with epoll.
    interest: u32,
    /// In write-cap backpressure (hysteresis + transition counting).
    paused: bool,
}

struct Conn {
    token: u64,
    stream: TcpStream,
    peer: SocketAddr,
    io: Mutex<ConnIo>,
    /// Complete frames decoded but not yet dispatched.
    pending: Mutex<VecDeque<(u64, Option<TraceContext>, Bytes)>>,
    /// On the dispatch queue or being drained by a worker. At most one
    /// worker owns a connection at a time — that is the FIFO guarantee.
    queued: AtomicBool,
    dead: AtomicBool,
    /// Peer sent EOF; retire once pending work and buffered replies drain.
    eof: AtomicBool,
}

impl Conn {
    fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }
}

struct Shared {
    service: Arc<dyn RpcService>,
    epoll: Epoll,
    wake: EventFd,
    /// Dispatch queue. std primitives rather than `parking_lot` because the
    /// workers park on a condvar (the vendored `parking_lot` stand-in has
    /// none) — poisoning is impossible here, lock holders never panic.
    queue: std::sync::Mutex<VecDeque<Arc<Conn>>>,
    queue_cv: std::sync::Condvar,
    /// Connections a worker condemned; the reactor deregisters and closes
    /// them on its next wakeup. Workers never close sockets — the fd must
    /// stay valid for as long as any thread may pass it to `epoll_ctl`.
    dying: Mutex<Vec<Arc<Conn>>>,
    shutdown: AtomicBool,
    frames: AtomicU64,
    /// Reply bytes buffered across all connections (the gauge's source).
    buffered: AtomicU64,
    write_buf_cap: usize,
}

impl Shared {
    fn note_buffered_add(&self, n: usize) {
        let now = self.buffered.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        tell_obs::set_gauge(Gauge::ReactorBufferedWriteBytes, now);
    }

    fn note_buffered_sub(&self, n: usize) {
        let now = self.buffered.fetch_sub(n as u64, Ordering::Relaxed) - n as u64;
        tell_obs::set_gauge(Gauge::ReactorBufferedWriteBytes, now);
    }
}

/// A running reactor: the event-loop thread plus its worker pool.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    reactor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Reactor {
    pub(crate) fn start(
        listener: TcpListener,
        service: Arc<dyn RpcService>,
        config: ReactorConfig,
    ) -> Result<Reactor> {
        let unavailable = |what: &str, e: io::Error| Error::Unavailable(format!("{what}: {e}"));
        listener.set_nonblocking(true).map_err(|e| unavailable("nonblocking listener", e))?;
        let epoll = Epoll::new().map_err(|e| unavailable("epoll_create1", e))?;
        let wake = EventFd::new().map_err(|e| unavailable("eventfd", e))?;
        epoll_ctl_op(epoll.fd(), EPOLL_CTL_ADD, wake.fd(), EPOLLIN, TOKEN_WAKE)
            .map_err(|e| unavailable("register eventfd", e))?;
        epoll_ctl_op(epoll.fd(), EPOLL_CTL_ADD, listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .map_err(|e| unavailable("register listener", e))?;
        let shared = Arc::new(Shared {
            service,
            epoll,
            wake,
            queue: std::sync::Mutex::new(VecDeque::new()),
            queue_cv: std::sync::Condvar::new(),
            dying: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            frames: AtomicU64::new(0),
            buffered: AtomicU64::new(0),
            write_buf_cap: config.write_buf_cap.max(FRAME_HEADER),
        });
        let port = listener.local_addr().map(|a| a.port()).unwrap_or(0);
        let reactor_shared = Arc::clone(&shared);
        let reactor = thread::Builder::new()
            .name(format!("tell-rpc-reactor-{port}"))
            .spawn(move || reactor_loop(listener, reactor_shared))
            .map_err(|e| Error::Unavailable(format!("spawn reactor failed: {e}")))?;
        let mut workers = Vec::new();
        for i in 0..config.resolved_workers() {
            let worker_shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("tell-rpc-worker-{port}-{i}"))
                .spawn(move || worker_loop(worker_shared))
                .map_err(|e| Error::Unavailable(format!("spawn worker failed: {e}")))?;
            workers.push(handle);
        }
        Ok(Reactor { shared, reactor: Some(reactor), workers })
    }

    pub(crate) fn frames_served(&self) -> u64 {
        self.shared.frames.load(Ordering::SeqCst)
    }

    /// Stop the loop, sever every connection, join all threads. Idempotent:
    /// a second call finds the handles already taken and returns.
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify();
        self.shared.queue_cv.notify_all();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Reactor thread: accept, read, decode, queue.

/// Reactor-thread-only connection state: the shared handle plus the
/// receive-side decoder nothing else touches.
struct ConnEntry {
    conn: Arc<Conn>,
    decoder: FrameDecoder,
}

fn reactor_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conns: HashMap<u64, ConnEntry> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut events = vec![epoll_event { events: 0, u64: 0 }; EVENT_BATCH];
    while let Ok(n) = epoll_wait_events(shared.epoll.fd(), &mut events, -1) {
        tell_obs::incr(Counter::ReactorWakeups);
        tell_obs::add(Counter::ReactorReadyEvents, n as u64);
        for &ev in events.iter().take(n) {
            let (revents, token) = (ev.events, ev.u64);
            match token {
                TOKEN_WAKE => shared.wake.drain(),
                TOKEN_LISTENER => accept_ready(&listener, &shared, &mut conns, &mut next_token),
                token => {
                    let keep = handle_conn_event(&shared, &mut conns, token, revents, &mut scratch);
                    if !keep {
                        close_conn(&shared, &mut conns, token);
                    }
                }
            }
        }
        for conn in shared.dying.lock().drain(..) {
            close_conn(&shared, &mut conns, conn.token);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    // Teardown: sever everything. Parked clients observe EOF and surface
    // typed Unavailable through their pools, same as the threaded server.
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        close_conn(&shared, &mut conns, token);
    }
}

fn accept_ready(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, ConnEntry>,
    next_token: &mut u64,
) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        let interest = EPOLLIN | EPOLLRDHUP;
        let conn = Arc::new(Conn {
            token,
            stream,
            peer,
            io: Mutex::new(ConnIo { wbuf: BytesMut::new(), interest, paused: false }),
            pending: Mutex::new(VecDeque::new()),
            queued: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            eof: AtomicBool::new(false),
        });
        if epoll_ctl_op(shared.epoll.fd(), EPOLL_CTL_ADD, conn.fd(), interest, token).is_err() {
            continue;
        }
        conns.insert(token, ConnEntry { conn, decoder: FrameDecoder::new() });
    }
}

/// React to readiness on one connection. Returns false when the connection
/// must close now (fatal read/write error or decode desync).
fn handle_conn_event(
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, ConnEntry>,
    token: u64,
    revents: u32,
    scratch: &mut [u8],
) -> bool {
    let Some(entry) = conns.get_mut(&token) else { return true };
    if entry.conn.dead.load(Ordering::Relaxed) {
        return false;
    }
    if revents & EPOLLERR != 0 {
        return false;
    }
    if revents & EPOLLOUT != 0 {
        let pending_len = entry.conn.pending.lock().len();
        let mut io = entry.conn.io.lock();
        if flush_locked(shared, &entry.conn, &mut io).is_err() {
            return false;
        }
        set_interest_locked(shared, &entry.conn, &mut io, pending_len);
    }
    if revents & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 && !read_ready(shared, entry, scratch) {
        return false;
    }
    // A drained EOF connection with nothing queued retires here (the
    // workers retire it otherwise, once they finish its backlog).
    let conn = Arc::clone(&entry.conn);
    if conn.eof.load(Ordering::Relaxed) && !conn.queued.load(Ordering::Acquire) {
        maybe_retire(shared, &conn);
    }
    true
}

/// Drain the socket into the decoder and the decoder into the dispatch
/// queue. Returns false on a fatal error (reset, desynchronized stream).
fn read_ready(shared: &Arc<Shared>, entry: &mut ConnEntry, scratch: &mut [u8]) -> bool {
    let conn = &entry.conn;
    if conn.eof.load(Ordering::Relaxed) {
        return true;
    }
    loop {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                conn.eof.store(true, Ordering::Relaxed);
                break;
            }
            Ok(n) => {
                entry.decoder.push(&scratch[..n]);
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    let mut decoded = 0usize;
    let pending_len = loop {
        match entry.decoder.next_frame() {
            Ok(Some((corr_id, ctx, body))) => {
                shared.frames.fetch_add(1, Ordering::SeqCst);
                tell_obs::incr(Counter::RpcServerFramesIn);
                tell_obs::add(Counter::RpcServerBytesIn, body.len() as u64);
                let mut pending = conn.pending.lock();
                pending.push_back((corr_id, ctx, body));
                decoded += 1;
            }
            Ok(None) => break conn.pending.lock().len(),
            Err(_) => return false,
        }
    };
    if decoded > 0 {
        enqueue_dispatch(shared, conn);
    }
    let mut io = conn.io.lock();
    set_interest_locked(shared, conn, &mut io, pending_len);
    true
}

fn enqueue_dispatch(shared: &Shared, conn: &Arc<Conn>) {
    if !conn.queued.swap(true, Ordering::AcqRel) {
        let mut queue = shared.queue.lock().expect("queue lock");
        queue.push_back(Arc::clone(conn));
        tell_obs::set_gauge(Gauge::ReactorQueueDepth, queue.len() as u64);
        shared.queue_cv.notify_one();
    }
}

/// Deregister, sever and forget a connection. Reactor thread only: the
/// `TcpStream` (and with it the fd) stays alive until the last `Arc<Conn>`
/// drops, so a worker still holding the connection can never touch a
/// recycled descriptor.
fn close_conn(shared: &Shared, conns: &mut HashMap<u64, ConnEntry>, token: u64) {
    let Some(entry) = conns.remove(&token) else { return };
    entry.conn.dead.store(true, Ordering::SeqCst);
    let _ = epoll_ctl_op(shared.epoll.fd(), EPOLL_CTL_DEL, entry.conn.fd(), 0, 0);
    let dropped = {
        let mut io = entry.conn.io.lock();
        let dropped = io.wbuf.len();
        io.wbuf.clear();
        dropped
    };
    if dropped > 0 {
        shared.note_buffered_sub(dropped);
    }
    entry.conn.pending.lock().clear();
    let _ = entry.conn.stream.shutdown(std::net::Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Write path + interest management (reactor and workers, under `io`).

/// Write as much buffered reply data as the socket accepts — the whole
/// backlog per syscall, since the buffer is contiguous. Leftovers wait for
/// `EPOLLOUT` (armed by the caller's interest update).
fn flush_locked(shared: &Shared, conn: &Conn, io: &mut ConnIo) -> io::Result<()> {
    while !io.wbuf.is_empty() {
        match (&conn.stream).write(&io.wbuf[..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                io.wbuf.advance(n);
                shared.note_buffered_sub(n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Recompute and (when changed) re-register this connection's interest
/// set. Holds the write-cap hysteresis: reads pause above the cap and
/// resume below half of it, counting each pause transition.
fn set_interest_locked(shared: &Shared, conn: &Conn, io: &mut ConnIo, pending_len: usize) {
    if conn.dead.load(Ordering::Relaxed) {
        return;
    }
    let cap = shared.write_buf_cap;
    let buffered = io.wbuf.len();
    let write_full = if io.paused { buffered > cap / 2 } else { buffered > cap };
    if write_full && !io.paused {
        tell_obs::incr(Counter::ConnBackpressure);
    }
    io.paused = write_full;
    let mut want = EPOLLRDHUP;
    if !write_full && pending_len <= PENDING_PAUSE && !conn.eof.load(Ordering::Relaxed) {
        want |= EPOLLIN;
    }
    if !io.wbuf.is_empty() {
        want |= EPOLLOUT;
    }
    if want != io.interest {
        io.interest = want;
        let _ = epoll_ctl_op(shared.epoll.fd(), EPOLL_CTL_MOD, conn.fd(), want, conn.token);
    }
}

/// Condemn a connection from a worker: mark it dead, drop its backlog and
/// let the reactor deregister + close it on the next wakeup.
fn sever(shared: &Shared, conn: &Arc<Conn>) {
    if conn.dead.swap(true, Ordering::AcqRel) {
        return;
    }
    conn.pending.lock().clear();
    shared.dying.lock().push(Arc::clone(conn));
    shared.wake.notify();
}

/// Retire a connection whose peer sent EOF once all its work is done:
/// every decoded frame dispatched and every reply written.
fn maybe_retire(shared: &Shared, conn: &Arc<Conn>) {
    if !conn.eof.load(Ordering::Relaxed) || conn.dead.load(Ordering::Relaxed) {
        return;
    }
    let drained = conn.pending.lock().is_empty() && conn.io.lock().wbuf.is_empty();
    if drained {
        sever(shared, conn);
    }
}

// ---------------------------------------------------------------------------
// Worker pool: dispatch off the reactor thread.

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(conn) = queue.pop_front() {
                    tell_obs::set_gauge(Gauge::ReactorQueueDepth, queue.len() as u64);
                    break conn;
                }
                queue = shared.queue_cv.wait(queue).expect("queue lock");
            }
        };
        drain_conn(&shared, conn);
    }
}

/// Dispatch up to one budget's worth of this connection's frames, FIFO.
/// The connection stays exclusively ours until we clear `queued` — the
/// per-connection ordering guarantee.
fn drain_conn(shared: &Arc<Shared>, conn: Arc<Conn>) {
    for _ in 0..FRAME_BUDGET {
        if shared.shutdown.load(Ordering::SeqCst) || conn.dead.load(Ordering::Relaxed) {
            break;
        }
        let Some((corr_id, ctx, body)) = conn.pending.lock().pop_front() else { break };
        process_frame(shared, &conn, corr_id, ctx, &body);
    }
    if conn.dead.load(Ordering::Relaxed) {
        conn.pending.lock().clear();
        let _io = conn.io.lock();
        conn.queued.store(false, Ordering::Release);
        return;
    }
    let remaining = conn.pending.lock().len();
    // One flush for the whole batch: every reply the loop above buffered
    // goes out in a single syscall. Reads may also resume now that the
    // backlog shrank.
    let flushed = {
        let mut io = conn.io.lock();
        let flushed = flush_locked(shared, &conn, &mut io).is_ok();
        if flushed {
            set_interest_locked(shared, &conn, &mut io, remaining);
        }
        if !flushed || remaining == 0 {
            // Release ownership under the `io` lock: any deferred reply
            // that skipped its own flush because it saw `queued` set has
            // already appended under this lock, so the flush above (or the
            // close below) covered it.
            conn.queued.store(false, Ordering::Release);
        }
        flushed
    };
    if !flushed {
        sever(shared, &conn);
        return;
    }
    if remaining > 0 {
        // Budget exhausted: rotate to the back of the line, still owned.
        let mut queue = shared.queue.lock().expect("queue lock");
        queue.push_back(conn);
        tell_obs::set_gauge(Gauge::ReactorQueueDepth, queue.len() as u64);
        shared.queue_cv.notify_one();
        return;
    }
    // Re-check: the reactor may have pushed a frame after our emptiness
    // check but skipped the queue because we still held `queued`.
    if !conn.pending.lock().is_empty() {
        enqueue_dispatch(shared, &conn);
        return;
    }
    maybe_retire(shared, &conn);
}

/// Fault-inject, dispatch, and route the reply into the write buffer.
fn process_frame(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    corr_id: u64,
    ctx: Option<TraceContext>,
    body: &[u8],
) {
    // The fault injector (when armed by the simulation harness) acts on
    // the frame as a unit, before any dispatch side effects: a dropped
    // frame kills the stream like a broken link would, a delayed frame
    // holds up everything pipelined behind it on this connection, a
    // duplicated frame re-dispatches — at-least-once delivery the
    // protocol must absorb.
    let injected = crate::fault::server_action();
    if injected == crate::fault::ServerFault::Drop {
        sever(shared, conn);
        return;
    }
    if let crate::fault::ServerFault::DelayUs(us) = injected {
        thread::sleep(std::time::Duration::from_micros(us));
    }
    let duplicate = injected == crate::fault::ServerFault::Duplicate;
    let reply_shared = Arc::clone(shared);
    let reply_conn = Arc::clone(conn);
    dispatch_frame(
        shared.service.as_ref(),
        duplicate,
        Some(conn.peer),
        ctx,
        body,
        move |response| {
            let out = response.encode();
            tell_obs::incr(Counter::RpcServerFramesOut);
            tell_obs::add(Counter::RpcServerBytesOut, out.len() as u64);
            match encode_frame(corr_id, ctx, &out) {
                Ok(framed) => enqueue_write(&reply_shared, &reply_conn, framed),
                // Response exceeds MAX_FRAME: unframeable, the stream cannot
                // stay synchronized.
                Err(_) => sever(&reply_shared, &reply_conn),
            }
        },
    );
}

/// Append an encoded frame to the connection's write buffer and flush
/// opportunistically. On `WouldBlock` the interest update arms `EPOLLOUT`
/// and the reactor finishes the job; past the write cap the interest
/// update also stops reading (backpressure).
fn enqueue_write(shared: &Arc<Shared>, conn: &Arc<Conn>, framed: Vec<u8>) {
    if conn.dead.load(Ordering::Relaxed) {
        return;
    }
    let pending_len = conn.pending.lock().len();
    let mut io = conn.io.lock();
    io.wbuf.extend_from_slice(&framed);
    shared.note_buffered_add(framed.len());
    // A worker owns this connection while `queued` is set, and it flushes
    // the whole accumulated batch in one syscall as it releases ownership
    // (both under this `io` lock) — so appending is all that's needed here.
    if conn.queued.load(Ordering::Acquire) {
        return;
    }
    if flush_locked(shared, conn, &mut io).is_err() {
        drop(io);
        sever(shared, conn);
        return;
    }
    set_interest_locked(shared, conn, &mut io, pending_len);
}
