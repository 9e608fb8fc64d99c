//! The epoll-driven reactor: serving threads over one epoll instance, each
//! running the connection it woke for from read to reply, and
//! per-connection buffers built on `bytes` so request frames are sliced
//! zero-copy out of the receive buffer.
//!
//! * Every **serving thread** blocks in `epoll_wait`. The listener and the
//!   connections are registered `EPOLLONESHOT`, so the thread an event
//!   wakes *owns* that connection until it re-arms it — per-connection
//!   FIFO, different connections in parallel. The owner reads one chunk
//!   (the fairness budget), dispatches its complete frames inline and in
//!   order, flushes all the replies with one `write`, and re-arms with the
//!   recomputed interest set. A blocking request occupies one thread.
//! * A reply **completed on another thread** (a deferred
//!   [`ReplySink`](crate::service::ReplySink)) appends under the `io`
//!   lock; while the connection is owned the owner flushes it, otherwise
//!   it flushes itself and arms `EPOLLOUT` on a partial write.
//! * **Any thread may close** a connection: mark it dead, `EPOLL_CTL_DEL`,
//!   shut the socket down. The fd stays valid while an `Arc<Conn>` lives.
//! * An **eventfd**, left readable, wakes every thread for shutdown.
//!
//! Backpressure (slow-reader protection): past a cap on buffered reply
//! bytes the connection's `EPOLLIN` interest is dropped — TCP flow control
//! then pushes back on the peer — until the peer drains below half of it.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use bytes::BytesMut;
use parking_lot::Mutex;
use tell_common::{Error, Result};
use tell_obs::{Counter, Gauge};

use crate::service::{dispatch_frame, RpcService};
use crate::sys::{
    epoll_ctl_op, epoll_event, epoll_wait_events, Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN,
    EPOLLONESHOT, EPOLLOUT, EPOLLRDHUP, EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
};
use crate::wire::{encode_frame, FrameDecoder, TraceContext, FRAME_HEADER};

/// Tuning knobs for a reactor-backed server.
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Serving threads; 0 picks a default from the machine's parallelism
    /// (clamped to a small pool — serving is memory-resident work, more
    /// threads past the core count only thrash).
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

/// Socket read chunk: what one wake reads from one connection. One scratch
/// buffer per serving thread, reused across reads.
const READ_CHUNK: usize = 64 << 10;

#[derive(Default)]
struct ConnIo {
    /// Encoded reply bytes not yet written, contiguous — so one `write`
    /// syscall drains every reply a wake produced (the syscall coalescing
    /// a thread-per-connection server cannot do).
    wbuf: BytesMut,
    /// A serving thread woke for this connection and has not re-armed it.
    owned: bool,
    /// In write-cap backpressure (hysteresis + transition counting).
    paused: bool,
    /// Peer sent EOF: read no more, close once the buffered replies are out.
    eof: bool,
}

struct Conn {
    token: u64,
    stream: TcpStream,
    peer: SocketAddr,
    /// Receive buffer. Only the owning thread touches it, so the lock is
    /// never contended.
    decoder: Mutex<FrameDecoder>,
    io: Mutex<ConnIo>,
    dead: AtomicBool,
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
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_token: AtomicU64,
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

/// A running reactor: its serving threads.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
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
        arm_listener(epoll.fd(), EPOLL_CTL_ADD, &listener)
            .map_err(|e| unavailable("register listener", e))?;
        let port = listener.local_addr().map(|a| a.port()).unwrap_or(0);
        let shared = Arc::new(Shared {
            service,
            epoll,
            wake,
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(FIRST_CONN_TOKEN),
            shutdown: AtomicBool::new(false),
            frames: AtomicU64::new(0),
            buffered: AtomicU64::new(0),
            write_buf_cap: config.write_buf_cap.max(FRAME_HEADER),
        });
        // Built before spawning so a failed spawn drops it, which shuts
        // down and joins the threads already running. The serving threads
        // share the listener, so it closes when the last of them exits.
        let mut reactor = Reactor { shared, threads: Vec::new() };
        let listener = Arc::new(listener);
        for i in 0..config.resolved_workers() {
            let shared = Arc::clone(&reactor.shared);
            let listener = Arc::clone(&listener);
            let handle = thread::Builder::new()
                .name(format!("tell-rpc-serve-{port}-{i}"))
                .spawn(move || serve_loop(&shared, &listener))
                .map_err(|e| Error::Unavailable(format!("spawn serving thread failed: {e}")))?;
            reactor.threads.push(handle);
        }
        Ok(reactor)
    }

    pub(crate) fn frames_served(&self) -> u64 {
        self.shared.frames.load(Ordering::SeqCst)
    }

    /// Stop serving, join every thread, sever every connection. Idempotent:
    /// a second call finds the threads already joined and nothing to close.
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Parked clients observe EOF and surface typed Unavailable through
        // their pools.
        let conns: Vec<Arc<Conn>> = self.shared.conns.lock().values().cloned().collect();
        for conn in conns {
            close_conn(&self.shared, &conn);
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Serving threads: wake, own, read, dispatch, flush, re-arm.

fn serve_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut scratch = vec![0u8; READ_CHUNK];
    // One event per wake: a thread that took several would run them in
    // series, and one blocking request would hold up the rest while the
    // other threads idle.
    let mut events = [epoll_event { events: 0, u64: 0 }];
    while let Ok(n) = epoll_wait_events(shared.epoll.fd(), &mut events, -1) {
        tell_obs::incr(Counter::ReactorWakeups);
        tell_obs::add(Counter::ReactorReadyEvents, n as u64);
        // The eventfd is never drained, so once shutdown is signalled
        // every thread's next wait returns at once and lands here.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        for &ev in events.iter().take(n) {
            let (revents, token) = (ev.events, ev.u64);
            match token {
                TOKEN_WAKE => {}
                TOKEN_LISTENER => accept_ready(shared, listener),
                token => serve_conn(shared, token, revents, &mut scratch),
            }
        }
    }
}

fn accept_ready(shared: &Shared, listener: &TcpListener) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(Conn {
            token,
            stream,
            peer,
            decoder: Mutex::new(FrameDecoder::new()),
            io: Mutex::new(ConnIo::default()),
            dead: AtomicBool::new(false),
        });
        // Into the map before the fd is armed: the first event may wake
        // another thread before `epoll_ctl` even returns here.
        shared.conns.lock().insert(token, Arc::clone(&conn));
        let interest = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
        if epoll_ctl_op(shared.epoll.fd(), EPOLL_CTL_ADD, conn.fd(), interest, token).is_err() {
            shared.conns.lock().remove(&token);
        }
    }
    let _ = arm_listener(shared.epoll.fd(), EPOLL_CTL_MOD, listener);
}

/// Register (`EPOLL_CTL_ADD`) or re-arm (`EPOLL_CTL_MOD`) the listener for
/// one accepting wake.
fn arm_listener(epfd: i32, op: i32, listener: &TcpListener) -> io::Result<()> {
    epoll_ctl_op(epfd, op, listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER)
}

/// Serve one readiness event on a connection: claim it, read and dispatch
/// one chunk, then flush and re-arm it (or close it).
fn serve_conn(shared: &Arc<Shared>, token: u64, revents: u32, scratch: &mut [u8]) {
    let Some(conn) = shared.conns.lock().get(&token).cloned() else { return };
    {
        let mut io = conn.io.lock();
        // Already owned: a deferred reply's `EPOLLOUT` re-armed the fd
        // under the owner. The owner re-arms it again as it finishes,
        // which comes after this event, so dropping the event loses none.
        if io.owned || conn.dead.load(Ordering::Relaxed) {
            return;
        }
        io.owned = true;
    }
    let healthy = revents & EPOLLERR == 0
        && (revents & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) == 0
            || read_and_dispatch(shared, &conn, scratch));
    if healthy {
        release(shared, &conn);
    } else {
        close_conn(shared, &conn);
    }
}

/// Read one chunk and dispatch every complete frame in it, in order.
/// Returns false on a fatal error (reset, desynchronized stream).
fn read_and_dispatch(shared: &Arc<Shared>, conn: &Arc<Conn>, scratch: &mut [u8]) -> bool {
    let mut decoder = conn.decoder.lock();
    loop {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                conn.io.lock().eof = true;
                return true;
            }
            Ok(n) => {
                decoder.push(&scratch[..n]);
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    while !conn.dead.load(Ordering::Relaxed) {
        match decoder.next_frame() {
            Ok(Some((corr_id, ctx, body))) => {
                shared.frames.fetch_add(1, Ordering::SeqCst);
                tell_obs::incr(Counter::RpcServerFramesIn);
                tell_obs::add(Counter::RpcServerBytesIn, body.len() as u64);
                process_frame(shared, conn, corr_id, ctx, &body);
            }
            Ok(None) => break,
            Err(_) => return false,
        }
    }
    true
}

/// End ownership: one flush for every reply this wake produced, then
/// re-arm with the recomputed interest set — or retire the connection once
/// its peer sent EOF and every reply is written.
fn release(shared: &Shared, conn: &Conn) {
    let mut io = conn.io.lock();
    io.owned = false;
    if conn.dead.load(Ordering::Relaxed) {
        return;
    }
    if flush_locked(shared, conn, &mut io).is_err() || (io.eof && io.wbuf.is_empty()) {
        drop(io);
        close_conn(shared, conn);
        return;
    }
    arm_locked(shared, conn, &mut io);
}

/// Deregister and sever a connection; any thread may call it, and only the
/// first call acts. The `TcpStream` (and with it the fd) stays alive until
/// the last `Arc<Conn>` drops, so a thread still holding the connection can
/// never touch a recycled descriptor.
fn close_conn(shared: &Shared, conn: &Conn) {
    if conn.dead.swap(true, Ordering::AcqRel) {
        return;
    }
    shared.conns.lock().remove(&conn.token);
    let _ = epoll_ctl_op(shared.epoll.fd(), EPOLL_CTL_DEL, conn.fd(), 0, 0);
    let dropped = {
        let mut io = conn.io.lock();
        let dropped = io.wbuf.len();
        io.wbuf.clear();
        dropped
    };
    if dropped > 0 {
        shared.note_buffered_sub(dropped);
    }
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Write path + interest management (under `io`).

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

/// Recompute this connection's interest set and arm it. Holds the
/// write-cap hysteresis: reads pause above the cap and resume below half
/// of it, counting each pause transition.
fn arm_locked(shared: &Shared, conn: &Conn, io: &mut ConnIo) {
    let cap = shared.write_buf_cap;
    let buffered = io.wbuf.len();
    let write_full = if io.paused { buffered > cap / 2 } else { buffered > cap };
    if write_full && !io.paused {
        tell_obs::incr(Counter::ConnBackpressure);
    }
    io.paused = write_full;
    let mut want = EPOLLONESHOT;
    if !write_full && !io.eof {
        want |= EPOLLIN | EPOLLRDHUP;
    }
    if buffered > 0 {
        want |= EPOLLOUT;
    }
    let _ = epoll_ctl_op(shared.epoll.fd(), EPOLL_CTL_MOD, conn.fd(), want, conn.token);
}

/// Dispatch one frame and route its reply into the write buffer.
fn process_frame(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    corr_id: u64,
    ctx: Option<TraceContext>,
    body: &[u8],
) {
    let reply_shared = Arc::clone(shared);
    let reply_conn = Arc::clone(conn);
    dispatch_frame(shared.service.as_ref(), Some(conn.peer), ctx, body, move |response| {
        let out = response.encode();
        tell_obs::incr(Counter::RpcServerFramesOut);
        tell_obs::add(Counter::RpcServerBytesOut, out.len() as u64);
        match encode_frame(corr_id, ctx, &out) {
            Ok(framed) => enqueue_write(&reply_shared, &reply_conn, &framed),
            // Response exceeds MAX_FRAME: unframeable, the stream cannot
            // stay synchronized.
            Err(_) => close_conn(&reply_shared, &reply_conn),
        }
    });
}

/// Append an encoded reply to the connection's write buffer. The owner
/// flushes it as it re-arms; a reply completed while nobody owns the
/// connection flushes itself and, on a partial write, arms `EPOLLOUT` so a
/// serving thread finishes the job.
fn enqueue_write(shared: &Shared, conn: &Conn, framed: &[u8]) {
    if conn.dead.load(Ordering::Relaxed) {
        return;
    }
    let mut io = conn.io.lock();
    io.wbuf.extend_from_slice(framed);
    shared.note_buffered_add(framed.len());
    if io.owned {
        return;
    }
    if flush_locked(shared, conn, &mut io).is_err() {
        drop(io);
        close_conn(shared, conn);
        return;
    }
    if !io.wbuf.is_empty() {
        arm_locked(shared, conn, &mut io);
    }
}
