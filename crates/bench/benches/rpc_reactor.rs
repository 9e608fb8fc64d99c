//! Real-wire server comparison: the epoll reactor (`RpcServer`) against
//! a thread-per-connection baseline (`BlockingServer`, defined here), measured in
//! committed transactions per wall second. Not a paper figure — it gates
//! the reactor rewrite: the paper's scale-out argument (§7) needs
//! processing nodes to stay network-bound, so the server must not ceiling
//! on per-connection threads and blocking syscall round trips before the
//! wire does.
//!
//! Topology per run: a storage server and a commit server on loopback
//! (both using the server model under test, the commit managers keeping
//! their recoverable state in the storage server across the wire, as
//! deployed), and N workers each holding one TCP connection to each
//! server. A worker's transaction is the paper's minimal commit cycle —
//! `CmStart` for a tid + snapshot, one storage write, `CmComplete` — and
//! each worker keeps `DEPTH` such cycles in flight over its connections
//! via `Connection::call_async` (the paper's processing nodes likewise
//! multiplex many fibers over shared links, §4.1). Almost no client-side
//! compute: the server's I/O model is what's on the clock.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use tell_bench::{fmt_k, section, table_header, table_row};
use tell_commitmgr::manager::CmConfig;
use tell_commitmgr::{CmCluster, CommitService};
use tell_common::IsolationLevel;
use tell_rpc::service::dispatch_frame;
use tell_rpc::wire::encode_frame;
use tell_rpc::{
    Connection, FrameDecoder, PendingReply, ReactorConfig, RemoteEndpoint, Request, Response,
    Router, RpcServer, RpcService, Services,
};
use tell_store::{StoreCluster, StoreConfig};

/// In-flight commit cycles per worker connection pair.
const DEPTH: usize = 8;

/// Commit managers behind the commit server. Several, so the commit server
/// carries the multi-manager publish path: each completion publishes state
/// to storage under its manager's lock, a nested round trip the server must
/// serve without stalling. (One manager keeps its state in memory and
/// makes no store call at all.)
const MANAGERS: usize = 8;

#[derive(Clone, Copy, PartialEq)]
enum Model {
    Reactor,
    Blocking,
}

impl Model {
    fn name(self) -> &'static str {
        match self {
            Model::Reactor => "reactor",
            Model::Blocking => "thread-per-conn",
        }
    }
}

enum Server {
    Reactor(RpcServer),
    Blocking(BlockingServer),
}

impl Server {
    fn serve(model: Model, services: Services) -> Server {
        match model {
            // Commit handlers block on nested wire calls to storage (state
            // publication), so the serving threads need depth beyond the
            // core count — the knob exists for exactly this deployment.
            Model::Reactor => {
                let config = ReactorConfig { workers: 8, ..ReactorConfig::default() };
                Server::Reactor(RpcServer::serve_with("127.0.0.1:0", services, config).unwrap())
            }
            Model::Blocking => Server::Blocking(BlockingServer::serve(services)),
        }
    }

    fn addr(&self) -> String {
        match self {
            Server::Reactor(s) => s.local_addr().to_string(),
            Server::Blocking(s) => s.addr.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// BlockingServer: the thread-per-connection baseline.

/// Thread-per-connection blocking server over the same [`Router`], frame
/// parser and dispatch path as [`RpcServer`] — only the I/O model differs:
/// every connection costs a thread and blocking syscall round trips per
/// request. Dropping it stops accepting and severs every connection.
struct BlockingServer {
    addr: SocketAddr,
    shared: Arc<BlockingShared>,
    accept: Option<thread::JoinHandle<()>>,
}

struct BlockingShared {
    service: Arc<dyn RpcService>,
    shutting_down: AtomicBool,
    /// Live connections keyed by peer address, so `drop` can sever them.
    /// Each handler removes its own entry when it exits; leaving dead
    /// clones here would hold the socket open (no FIN to the peer).
    conns: Mutex<HashMap<SocketAddr, TcpStream>>,
}

impl BlockingServer {
    fn serve(services: Services) -> BlockingServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = Arc::new(BlockingShared {
            service: Arc::new(Router::new(services)),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || accept_loop(listener, accept_shared));
        BlockingServer { addr, shared, accept: Some(accept) }
    }
}

impl Drop for BlockingServer {
    fn drop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // The blocking accept has no eventfd to poke: unblock it with a
        // throwaway self-connection.
        let _ = TcpStream::connect(self.addr);
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<BlockingShared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(peer) = stream.peer_addr() else { continue };
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(peer, clone);
        }
        let conn_shared = Arc::clone(&shared);
        thread::spawn(move || handle_connection(stream, peer, conn_shared));
    }
}

fn handle_connection(mut stream: TcpStream, peer: SocketAddr, shared: Arc<BlockingShared>) {
    let Ok(write_half) = stream.try_clone() else { return };
    // The writer is shared with the per-frame reply closure (which must be
    // `Send + 'static`); `Router` dispatch is synchronous, so the closure
    // always fires before the next read.
    let writer = Arc::new(Mutex::new(write_half));
    let broken = Arc::new(AtomicBool::new(false));
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; 16 << 10];
    'read: while let Ok(n @ 1..) = stream.read(&mut chunk) {
        decoder.push(&chunk[..n]);
        loop {
            let (corr_id, ctx, body) = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => break 'read,
            };
            let reply_writer = Arc::clone(&writer);
            let reply_broken = Arc::clone(&broken);
            let service = shared.service.as_ref();
            dispatch_frame(service, Some(peer), ctx, &body, move |response| {
                let sent = encode_frame(corr_id, ctx, &response.encode())
                    .map(|frame| reply_writer.lock().write_all(&frame));
                if !matches!(sent, Ok(Ok(()))) {
                    reply_broken.store(true, Ordering::SeqCst);
                }
            });
            if broken.load(Ordering::SeqCst) {
                break 'read;
            }
        }
    }
    // Drop our registration and actively close: the clone held for
    // `drop` must not outlive the handler, or the peer never sees EOF.
    shared.conns.lock().remove(&peer);
    let _ = writer.lock().shutdown(std::net::Shutdown::Both);
}

/// One full commit over the wire: tid + snapshot from the commit manager,
/// a storage write under that tid, the outcome reported back.
fn commit_once(
    sn: &Connection,
    cm: &Connection,
    key: &Bytes,
    hint: u64,
) -> Result<(), tell_common::Error> {
    let (started, _, _) = cm.call(&Request::CmStart { hint, level: IsolationLevel::Si })?;
    let tid = match started {
        Response::TxnStarted { tid, .. } => tid,
        other => panic!("CmStart answered {other:?}"),
    };
    sn.call(&Request::Increment { key: key.clone(), delta: 1 })?;
    cm.call(&Request::CmComplete { tid, committed: true })?;
    Ok(())
}

/// One commit cycle's position in the three-round-trip protocol, holding
/// the reply it is parked on.
enum Cycle {
    Starting(PendingReply),
    Writing(PendingReply, tell_common::TxnId),
    Completing(PendingReply),
}

impl Cycle {
    fn start(cm: &Connection, hint: u64) -> Result<Cycle, tell_common::Error> {
        Ok(Cycle::Starting(cm.call_async(&Request::CmStart { hint, level: IsolationLevel::Si })?))
    }

    /// Wait out this cycle's pending reply and issue the next request.
    /// Returns whether the step completed a commit.
    fn step(
        self,
        sn: &Connection,
        cm: &Connection,
        key: &Bytes,
        hint: u64,
    ) -> Result<(Cycle, bool), tell_common::Error> {
        match self {
            Cycle::Starting(reply) => {
                let tid = match reply.wait()?.0 {
                    Response::TxnStarted { tid, .. } => tid,
                    other => panic!("CmStart answered {other:?}"),
                };
                let next = sn.call_async(&Request::Increment { key: key.clone(), delta: 1 })?;
                Ok((Cycle::Writing(next, tid), false))
            }
            Cycle::Writing(reply, tid) => {
                reply.wait()?;
                let next = cm.call_async(&Request::CmComplete { tid, committed: true })?;
                Ok((Cycle::Completing(next), false))
            }
            Cycle::Completing(reply) => {
                reply.wait()?;
                Ok((Cycle::start(cm, hint)?, true))
            }
        }
    }
}

/// Run one configuration and return committed transactions per wall second.
fn run(model: Model, conns: usize, measure: Duration) -> f64 {
    let store = StoreCluster::new(StoreConfig::new(4));
    let sn = Server::serve(model, Services { store: Some(store), commit: None });
    let sn_addr = sn.addr();

    let cm_cluster =
        CmCluster::new(RemoteEndpoint::connect(sn_addr.clone(), 2), MANAGERS, CmConfig::default());
    let cm = Server::serve(
        model,
        Services { store: None, commit: Some(cm_cluster as Arc<dyn CommitService>) },
    );
    let cm_addr = cm.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(std::sync::Barrier::new(conns + 1));
    let handles: Vec<_> = (0..conns)
        .map(|w| {
            let sn_addr = sn_addr.clone();
            let cm_addr = cm_addr.clone();
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let sn = Connection::connect(&sn_addr).unwrap();
                let cm = Connection::connect(&cm_addr).unwrap();
                let key = Bytes::from(format!("bench/{w:04}"));
                // Pin this worker's transactions to one manager (§4.4
                // hint routing), spreading workers across all of them.
                let hint = w as u64;
                // Warm both connections before the clock runs.
                commit_once(&sn, &cm, &key, hint).unwrap();
                started.wait();
                // DEPTH interleaved commit cycles: stepping slot i blocks
                // on its reply while the other slots' requests are already
                // on the wire, so the servers always see a full pipeline.
                let mut cycles: Vec<Option<Cycle>> =
                    (0..DEPTH).map(|_| Some(Cycle::start(&cm, hint).unwrap())).collect();
                let mut commits = 0u64;
                'outer: loop {
                    for cycle in cycles.iter_mut() {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        let slot = cycle.take().expect("cycle in flight");
                        let (next, committed) = slot.step(&sn, &cm, &key, hint).unwrap();
                        *cycle = Some(next);
                        if committed {
                            commits += 1;
                        }
                    }
                }
                commits
            })
        })
        .collect();

    started.wait();
    let clock = Instant::now();
    std::thread::sleep(measure);
    stop.store(true, Ordering::Relaxed);
    let commits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let wall = clock.elapsed().as_secs_f64();
    commits as f64 / wall
}

fn main() {
    let tiny = std::env::var("TELL_BENCH_SCALE").as_deref() == Ok("tiny");
    let measure = if tiny { Duration::from_millis(200) } else { Duration::from_millis(1500) };
    let conn_counts: &[usize] = &[4, 64];

    section(
        "rpc_reactor — real-wire commits/s, epoll reactor vs thread-per-connection",
        "not in paper; gates the crates/rpc reactor rewrite (ROADMAP: raw speed)",
    );
    table_header(&["connections", "server", "commits/s", "vs blocking"]);
    let mut rows = Vec::new();
    for &conns in conn_counts {
        let blocking = run(Model::Blocking, conns, measure);
        let reactor = run(Model::Reactor, conns, measure);
        for (model, rate) in [(Model::Blocking, blocking), (Model::Reactor, reactor)] {
            table_row(&[
                conns.to_string(),
                model.name().into(),
                fmt_k(rate),
                if model == Model::Reactor {
                    format!("{:.2}x", rate / blocking.max(1e-9))
                } else {
                    "1.00x".into()
                },
            ]);
            rows.push(format!(
                "{{\"server\":\"{}\",\"connections\":{conns},\
                 \"commits_per_wall_sec\":{rate:.1}}}",
                model.name()
            ));
        }
    }

    if let Ok(dir) = std::env::var("TELL_BENCH_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"rpc_reactor\",\n  \"measure_ms\": {},\n  \"rows\": [\n    {}\n  ]\n}}\n",
            measure.as_millis(),
            rows.join(",\n    ")
        );
        let path = std::path::Path::new(&dir).join("BENCH_rpc_reactor.json");
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("  wrote {}", path.display()),
            Err(e) => eprintln!("  (failed to write {}: {e})", path.display()),
        }
    }
}
