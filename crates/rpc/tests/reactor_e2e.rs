//! End-to-end tests for the epoll reactor itself: shutdown under
//! concurrent load, peers dying mid-frame, slow-reader backpressure,
//! replies completed on other threads — the failure shapes the event loop
//! must absorb without hanging anyone.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tell_common::Error;
use tell_obs::Counter;
use tell_rpc::wire::encode_frame;
use tell_rpc::{
    Connection, FrameDecoder, ReactorConfig, ReplySink, Request, RequestCtx, Response, RpcServer,
    RpcService, Services,
};
use tell_store::{Expect, StoreCluster, StoreConfig, WriteOp};

fn serve(nodes: usize) -> (RpcServer, String) {
    let store = StoreCluster::new(StoreConfig::new(nodes));
    let server = RpcServer::serve_store("127.0.0.1:0", store).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Join a thread with a deadline: the whole point of these tests is that
/// nothing ever blocks forever, so a plain `join()` would turn a regression
/// into a CI timeout instead of a failure message.
fn join_within<T: Send + 'static>(
    handle: std::thread::JoinHandle<T>,
    timeout: Duration,
    what: &str,
) -> T {
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    let joined = rx.recv_timeout(timeout).unwrap_or_else(|_| panic!("{what} hung"));
    waiter.join().unwrap();
    joined.unwrap_or_else(|_| panic!("{what} panicked"))
}

#[test]
fn shutdown_under_concurrent_clients_surfaces_typed_unavailable() {
    let (mut server, addr) = serve(2);

    // One raw peer parks mid-frame: a length prefix promising 100 bytes,
    // then silence. The reactor is holding a partial frame for it when the
    // server dies — exactly the state the old thread-per-connection stop
    // hack could wedge on.
    let mut mid_frame = TcpStream::connect(&addr).unwrap();
    mid_frame.write_all(&100u32.to_le_bytes()).unwrap();
    mid_frame.flush().unwrap();

    // K clients hammer the server until it goes away; each must come back
    // with a typed error, never a hang.
    const K: usize = 8;
    let stop_failed = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..K)
        .map(|_| {
            let addr = addr.clone();
            let stop_failed = Arc::clone(&stop_failed);
            std::thread::spawn(move || -> Result<(), Error> {
                let conn = Connection::connect(&addr)?;
                loop {
                    match conn.call(&Request::Ping) {
                        Ok((Response::Pong, _, _)) => {}
                        Ok((other, _, _)) => panic!("ping answered {other:?}"),
                        Err(e) => {
                            stop_failed.store(true, Ordering::SeqCst);
                            return Err(e);
                        }
                    }
                }
            })
        })
        .collect();

    // Let every client get in flight, then pull the plug.
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();
    // Idempotent: a second call (and the implicit one on drop) is a no-op.
    server.shutdown();

    for handle in handles {
        let err = join_within(handle, Duration::from_secs(10), "client thread")
            .expect_err("server is gone");
        assert!(matches!(err, Error::Unavailable(_)), "got {err:?}");
    }
    assert!(stop_failed.load(Ordering::SeqCst));
}

#[test]
fn peer_dying_mid_frame_leaves_other_connections_serving() {
    let (_server, addr) = serve(1);

    // A peer starts a frame and dies mid-way through it.
    let mut dying = TcpStream::connect(&addr).unwrap();
    let framed = encode_frame(42, None, &Request::Ping.encode()).unwrap();
    dying.write_all(&framed[..framed.len() - 3]).unwrap();
    dying.flush().unwrap();
    drop(dying);

    // Another peer parks mid-frame and stays connected.
    let mut parked = TcpStream::connect(&addr).unwrap();
    parked.write_all(&16u32.to_le_bytes()).unwrap();
    parked.flush().unwrap();

    // Neither disturbs a healthy connection.
    let conn = Connection::connect(&addr).unwrap();
    for _ in 0..16 {
        let (response, _, _) = conn.call(&Request::Ping).unwrap();
        assert_eq!(response, Response::Pong);
    }
}

#[test]
fn slow_reader_hits_backpressure_and_drains_after_catching_up() {
    let store = StoreCluster::new(StoreConfig::new(1));
    let services = Services { store: Some(store), commit: None };
    // Tiny write cap so a peer that stops reading trips the pause quickly.
    let config = ReactorConfig { workers: 2, write_buf_cap: 4 << 10 };
    let mut server = RpcServer::serve_with("127.0.0.1:0", services, config).unwrap();
    let addr = server.local_addr().to_string();

    // Plant a value big enough that a handful of replies overflows both
    // the socket buffer and the 4 KiB write cap.
    let key = Bytes::copy_from_slice(b"big");
    let value = Bytes::from(vec![0xAB; 256 << 10]);
    let conn = Connection::connect(&addr).unwrap();
    let write = Request::Write {
        op: WriteOp { key: key.clone(), expect: Expect::Any, value: Some(value.clone()) },
    };
    assert!(matches!(conn.call(&write).unwrap().0, Response::Written(_)));
    conn.close();

    // A raw client pipelines GETs for it and refuses to read the replies.
    const GETS: usize = 64;
    let before = tell_obs::global().counter(Counter::ConnBackpressure);
    let mut slow = TcpStream::connect(&addr).unwrap();
    let mut framed = Vec::new();
    for corr_id in 0..GETS as u64 {
        framed.extend(
            encode_frame(corr_id, None, &Request::Get { key: key.clone() }.encode()).unwrap(),
        );
    }
    slow.write_all(&framed).unwrap();
    slow.flush().unwrap();

    // The server must stop reading rather than buffer without bound.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while tell_obs::global().counter(Counter::ConnBackpressure) == before {
        assert!(std::time::Instant::now() < deadline, "backpressure never engaged");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Catching up releases the pause: every reply arrives, in order.
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; 64 << 10];
    for corr_id in 0..GETS as u64 {
        let (got_corr, _, body) = loop {
            if let Some(frame) = decoder.next_frame().unwrap() {
                break frame;
            }
            let n = slow.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed before reply {corr_id}");
            decoder.push(&chunk[..n]);
        };
        assert_eq!(got_corr, corr_id);
        match Response::decode(&body).unwrap() {
            Response::Cell(Some((_, got))) => assert_eq!(got, value),
            other => panic!("got {other:?}"),
        }
    }
    server.shutdown();
}

/// Answers pings inline and moves every other request's sink to a thread
/// of its own — the `RpcService` contract's "the sink may outlive the
/// call". Each such thread reports that it holds its sink, waits at `gate`,
/// then answers with the request's delta.
struct DeferredService {
    parked: Mutex<mpsc::Sender<()>>,
    gate: Arc<Barrier>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl RpcService for DeferredService {
    fn call(&self, request: Request, _ctx: &RequestCtx, reply: ReplySink) {
        match request {
            Request::Ping => reply.send(Response::Pong),
            Request::Increment { delta, .. } => {
                let parked = self.parked.lock().unwrap().clone();
                let gate = Arc::clone(&self.gate);
                self.threads.lock().unwrap().push(std::thread::spawn(move || {
                    parked.send(()).unwrap();
                    gate.wait();
                    reply.send(Response::Counter(delta));
                }));
            }
            other => panic!("unexpected request {other:?}"),
        }
    }
}

#[test]
fn deferred_replies_arrive_over_tcp_while_other_connections_keep_serving() {
    const PARKED: usize = 16;
    let (parked_tx, parked_rx) = mpsc::channel();
    let service = Arc::new(DeferredService {
        parked: Mutex::new(parked_tx),
        gate: Arc::new(Barrier::new(PARKED + 1)),
        threads: Mutex::new(Vec::new()),
    });
    let config = ReactorConfig { workers: 2, ..ReactorConfig::default() };
    let server = RpcServer::serve_service("127.0.0.1:0", service.clone(), config).unwrap();
    let addr = server.local_addr().to_string();
    let parked = Connection::connect(&addr).unwrap();
    let pinger = Connection::connect(&addr).unwrap();

    let key = Bytes::from_static(b"deferred");
    let pending: Vec<_> = (0..PARKED as u64)
        .map(|delta| parked.call_async(&Request::Increment { key: key.clone(), delta }).unwrap())
        .collect();
    for _ in 0..PARKED {
        parked_rx.recv_timeout(Duration::from_secs(10)).expect("every request dispatched");
    }
    // Every sink is parked on another thread; the serving threads are not,
    // so a second connection is answered at once. On a pinging thread, so
    // a server that held a serving thread per parked sink fails here
    // instead of hanging the test.
    let pings = std::thread::spawn(move || {
        for _ in 0..4 {
            let ping = Instant::now();
            assert_eq!(pinger.call(&Request::Ping).unwrap().0, Response::Pong);
            assert!(ping.elapsed() < Duration::from_secs(1), "ping took {:?}", ping.elapsed());
        }
    });
    join_within(pings, Duration::from_secs(10), "pings while sinks are parked");

    // Released together, sixteen threads complete sinks on a connection no
    // serving thread owns: every reply arrives, each to its own caller.
    service.gate.wait();
    for (delta, reply) in pending.into_iter().enumerate() {
        assert_eq!(reply.wait().unwrap().0, Response::Counter(delta as u64));
    }
    for handle in service.threads.lock().unwrap().drain(..) {
        handle.join().unwrap();
    }
}

/// Answers pings and panics on anything else: a service bug under
/// dispatch.
struct PanickingService;

impl RpcService for PanickingService {
    fn call(&self, request: Request, _ctx: &RequestCtx, reply: ReplySink) {
        match request {
            Request::Ping => reply.send(Response::Pong),
            other => panic!("service bug on {other:?}"),
        }
    }
}

#[test]
fn a_panicking_service_answers_with_an_error_and_keeps_serving_the_connection() {
    let config = ReactorConfig { workers: 2, ..ReactorConfig::default() };
    let server =
        RpcServer::serve_service("127.0.0.1:0", Arc::new(PanickingService), config).unwrap();
    let conn = Connection::connect(&server.local_addr().to_string()).unwrap();
    // On a thread of its own, so a connection the panic left unserved fails
    // the test instead of hanging it.
    let calls = std::thread::spawn(move || {
        let bug = Request::Increment { key: Bytes::from_static(b"k"), delta: 1 };
        let failed = conn.call(&bug).map(|(response, ..)| response);
        let pong = conn.call(&Request::Ping).map(|(response, ..)| response);
        (failed, pong)
    });
    let (failed, pong) = join_within(calls, Duration::from_secs(10), "calls after a panic");
    assert!(matches!(failed, Ok(Response::Error(_))), "panicking request answered {failed:?}");
    assert_eq!(pong.unwrap(), Response::Pong, "the same connection serves on");
}

#[test]
fn frames_served_counts_frames_not_operations() {
    let (server, addr) = serve(1);
    let conn = Connection::connect(&addr).unwrap();
    let before = server.frames_served();
    let batch = Request::Batch {
        ops: (0..8u64)
            .map(|i| Request::Get { key: Bytes::from(i.to_be_bytes().to_vec()) })
            .collect(),
    };
    match conn.call(&batch).unwrap().0 {
        Response::Batch { results } => assert_eq!(results.len(), 8),
        other => panic!("got {other:?}"),
    }
    assert_eq!(server.frames_served(), before + 1);
}
