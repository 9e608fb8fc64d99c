//! The unified dispatch seam: one [`RpcService`] trait every transport
//! dispatches through ([`dispatch_frame`]), so request handling is written
//! once whatever the I/O model.
//!
//! A service receives a decoded [`Request`] plus its [`RequestCtx`] and
//! answers through a one-shot [`ReplySink`]. The sink is the deferred-
//! completion seam: a synchronous handler calls it before returning, an
//! asynchronous one may move it to another thread, and a `Request::Batch`
//! fans one sink out into per-op sinks with [`ReplySink::batch`] so nested
//! replies can complete independently and still assemble into one
//! [`Response::Batch`] in submission order. A sink dropped without a reply
//! answers a typed error — a lost reply must never strand the caller's
//! correlation id. A service that panics drops its sink the same way:
//! [`dispatch_frame`] catches the unwind, so the caller gets that error and
//! the connection keeps serving.
//!
//! [`Router`] is the service the shipped servers run: storage requests go
//! to the wrapped `StoreCluster`, commit requests to the wrapped
//! `CommitService` (with the tid → participant routing table that used to
//! live on the server), and Ping/Metrics/Spans are answered by any node.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use tell_commitmgr::{CommitParticipant, CommitService};
use tell_common::Error;
use tell_netsim::NetMeter;
use tell_obs::Counter;
use tell_store::{OpResult, StoreClient, StoreCluster, StoreOp};

use crate::wire::{Request, Response, TraceContext};

/// What a server process exposes.
#[derive(Default)]
pub struct Services {
    /// Storage requests are served from this cluster.
    pub store: Option<Arc<StoreCluster>>,
    /// Commit requests are served from this service.
    pub commit: Option<Arc<dyn CommitService>>,
}

/// Everything a handler may want to know about the frame beyond the
/// request itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestCtx {
    /// Trace context carried in the frame, echoed on the response.
    pub trace: Option<TraceContext>,
    /// The connection's peer address, when the transport has one.
    pub peer: Option<SocketAddr>,
}

/// One-shot completion handle for a request. Consuming it (`send`) routes
/// the response back to whatever transport issued the request; dropping it
/// unconsumed sends a typed error instead, so a handler that loses a reply
/// path can never hang a correlation id.
pub struct ReplySink {
    complete: Option<Box<dyn FnOnce(Response) + Send>>,
}

impl ReplySink {
    /// Sink invoking `complete` with the response.
    pub fn new(complete: impl FnOnce(Response) + Send + 'static) -> ReplySink {
        ReplySink { complete: Some(Box::new(complete)) }
    }

    /// Complete the request.
    pub fn send(mut self, response: Response) {
        if let Some(complete) = self.complete.take() {
            complete(response);
        }
    }

    /// Split this sink into `n` per-op sinks whose responses assemble into
    /// one `Response::Batch` in index order once **all** have completed —
    /// the deferred-completion shape of §5.1 batching: one frame in, one
    /// frame out, however the per-op work is scheduled.
    pub fn batch(self, n: usize) -> Vec<ReplySink> {
        if n == 0 {
            self.send(Response::Batch { results: Vec::new() });
            return Vec::new();
        }
        struct BatchState {
            slots: Mutex<Vec<Option<Response>>>,
            remaining: AtomicUsize,
            parent: Mutex<Option<ReplySink>>,
        }
        let state = Arc::new(BatchState {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            remaining: AtomicUsize::new(n),
            parent: Mutex::new(Some(self)),
        });
        (0..n)
            .map(|i| {
                let state = Arc::clone(&state);
                ReplySink::new(move |response| {
                    state.slots.lock()[i] = Some(response);
                    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let results = state
                            .slots
                            .lock()
                            .iter_mut()
                            .map(|slot| slot.take().expect("all batch slots completed"))
                            .collect();
                        if let Some(parent) = state.parent.lock().take() {
                            parent.send(Response::Batch { results });
                        }
                    }
                })
            })
            .collect()
    }
}

impl Drop for ReplySink {
    fn drop(&mut self) {
        if let Some(complete) = self.complete.take() {
            complete(Response::Error(Error::invalid("request dropped without a reply")));
        }
    }
}

/// A request handler: decode happens in the transport, `call` maps one
/// request to one (eventual) reply. Implementations must tolerate the sink
/// outliving the call — that is the whole deferred-completion contract.
pub trait RpcService: Send + Sync {
    fn call(&self, request: Request, ctx: &RequestCtx, reply: ReplySink);
}

// ---------------------------------------------------------------------------
// Router: the service the shipped servers run.

/// Routes storage requests to a `StoreCluster`, commit requests to a
/// `CommitService`, and serves Ping/Metrics/Spans from any node. Requests
/// for an unhosted service answer `Unsupported`.
pub struct Router {
    store: Option<Arc<StoreCluster>>,
    commit: Option<CmRoute>,
}

struct CmRoute {
    commit: Arc<dyn CommitService>,
    /// tid → the manager that issued it, so `CmComplete` reports the
    /// outcome to the right manager regardless of which connection (or
    /// which PN) delivers it. Falls back to `force_resolve` when absent
    /// (e.g. resolution arriving after a server restart).
    participants: Mutex<HashMap<u64, Arc<dyn CommitParticipant>>>,
}

impl Router {
    pub fn new(services: Services) -> Router {
        Router {
            store: services.store,
            commit: services
                .commit
                .map(|commit| CmRoute { commit, participants: Mutex::new(HashMap::new()) }),
        }
    }

    fn call_one(&self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            // Served by every node regardless of hosted services: the
            // snapshot is of this process's global registry and its
            // per-lock contention rows.
            Request::Metrics => Response::Metrics(tell_obs::snapshot()),
            // Likewise process-wide. The default scrape peeks; draining is
            // destructive and must be asked for explicitly.
            Request::Spans { drain } => Response::Spans(if drain {
                tell_obs::span::global_ring().drain()
            } else {
                tell_obs::span::global_ring().peek()
            }),
            // The wire decoder already refuses nested batches; keep the
            // refusal here too so a future in-process caller cannot sneak
            // one in.
            Request::Batch { .. } => Response::Error(Error::invalid("Batch nested inside Batch")),
            Request::Get { .. }
            | Request::MultiGet { .. }
            | Request::Write { .. }
            | Request::MultiWrite { .. }
            | Request::Increment { .. }
            | Request::Scan { .. } => match &self.store {
                Some(cluster) => {
                    with_store_client(cluster, |client| dispatch_store(client, request))
                }
                None => {
                    Response::Error(Error::Unsupported("this node does not serve storage".into()))
                }
            },
            Request::CmStart { .. }
            | Request::CmComplete { .. }
            | Request::CmLav
            | Request::CmSync
            | Request::CmResolve { .. } => match &self.commit {
                Some(route) => dispatch_commit(route, request),
                None => Response::Error(Error::Unsupported(
                    "this node does not serve commit managers".into(),
                )),
            },
        }
    }
}

impl RpcService for Router {
    fn call(&self, request: Request, _ctx: &RequestCtx, reply: ReplySink) {
        match request {
            // One frame in, one frame out: each nested op dispatches
            // independently, so per-op failures travel as nested errors
            // instead of poisoning the whole window (§5.1 batching).
            Request::Batch { ops } => {
                let sinks = reply.batch(ops.len());
                for (op, sink) in ops.into_iter().zip(sinks) {
                    sink.send(self.call_one(op));
                }
            }
            other => reply.send(self.call_one(other)),
        }
    }
}

// The storage client is deliberately `!Send` (its meter models one worker's
// virtual clock), so a shared `Router` cannot hold one. Each dispatch
// thread caches its own unmetered client per cluster instead — the same
// lifetime the old thread-per-connection server got for free, since serving
// threads die with the server that spawned them.
thread_local! {
    static STORE_CLIENTS: std::cell::RefCell<Vec<(usize, StoreClient)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn with_store_client<R>(cluster: &Arc<StoreCluster>, f: impl FnOnce(&StoreClient) -> R) -> R {
    let key = Arc::as_ptr(cluster) as usize;
    STORE_CLIENTS.with(|cell| {
        let mut cache = cell.borrow_mut();
        if !cache.iter().any(|(k, _)| *k == key) {
            cache.push((key, StoreClient::unmetered(Arc::clone(cluster))));
        }
        let client = &cache.iter().find(|(k, _)| *k == key).expect("just inserted").1;
        f(client)
    })
}

fn dispatch_store(client: &StoreClient, request: Request) -> Response {
    let result = match request {
        Request::Get { key } => client.get(&key).map(Response::Cell),
        Request::MultiGet { keys } => client.multi_get(&keys).map(Response::Cells),
        // A local client's submit completes at once.
        Request::Write { op } => client
            .submit(StoreOp::Write { op })
            .wait()
            .and_then(OpResult::into_written)
            .map(Response::Written),
        Request::MultiWrite { ops } => client.multi_write(ops).map(Response::WriteResults),
        Request::Increment { key, delta } => client.increment(&key, delta).map(Response::Counter),
        // The range read goes straight to the cluster, which tests the
        // filter next to the data (§5.2), so only admitted rows are framed
        // into the response. A server's meter is free: nothing to charge.
        Request::Scan { start, end, limit, reverse, filter } => client
            .cluster()
            .srv_scan(&start, end.as_deref(), clamp_limit(limit), reverse, filter.as_ref())
            .map(|(rows, _, _)| Response::Rows(rows)),
        _ => unreachable!("non-storage request routed to dispatch_store"),
    };
    result.unwrap_or_else(Response::Error)
}

fn dispatch_commit(route: &CmRoute, request: Request) -> Response {
    // Server threads have no virtual clock; commit-side charges are free.
    let meter = NetMeter::free();
    let commit = route.commit.as_ref();
    let result = match request {
        Request::CmStart { hint, level } => {
            commit.start_pinned(hint as usize, level, &meter).map(|(start, participant)| {
                route.participants.lock().insert(start.tid.raw(), participant);
                Response::TxnStarted { tid: start.tid, lav: start.lav, snapshot: start.snapshot }
            })
        }
        Request::CmComplete { tid, committed } => {
            let participant = route.participants.lock().remove(&tid.raw());
            match participant {
                Some(p) if committed => p.set_committed(tid, &meter),
                Some(p) => p.set_aborted(tid, &meter),
                // The issuing manager is unknown here (restart, cross-server
                // resolution): resolve on every live manager instead.
                None => commit.force_resolve(tid, committed),
            }
            .map(|()| Response::Unit)
        }
        Request::CmLav => commit.current_lav().map(Response::Lav),
        Request::CmSync => commit.sync_all(&meter).map(|()| Response::Unit),
        Request::CmResolve { tid, committed } => {
            route.participants.lock().remove(&tid.raw());
            commit.force_resolve(tid, committed).map(|()| Response::Unit)
        }
        _ => unreachable!("non-commit request routed to dispatch_commit"),
    };
    result.unwrap_or_else(Response::Error)
}

fn clamp_limit(limit: u64) -> usize {
    usize::try_from(limit).unwrap_or(usize::MAX)
}

/// Per-request-type accounting. A `Batch` envelope counts once under its
/// own counter (mirroring the one-frame semantics of `frames_served`) and
/// each nested op counts under its own type plus the inner-ops total.
fn count_request(request: &Request) {
    let reg = tell_obs::global();
    let c = match request {
        Request::Get { .. } => Counter::ReqGet,
        Request::MultiGet { .. } => Counter::ReqMultiGet,
        Request::Write { .. } => Counter::ReqWrite,
        Request::MultiWrite { .. } => Counter::ReqMultiWrite,
        Request::Increment { .. } => Counter::ReqIncrement,
        Request::Scan { .. } => Counter::ReqScan,
        Request::Ping => Counter::ReqPing,
        Request::Batch { ops } => {
            reg.add(Counter::ReqBatchInnerOps, ops.len() as u64);
            for op in ops {
                count_request(op);
            }
            Counter::ReqBatch
        }
        Request::CmStart { .. } => Counter::ReqCmStart,
        Request::CmComplete { .. } => Counter::ReqCmComplete,
        Request::CmLav => Counter::ReqCmLav,
        Request::CmSync => Counter::ReqCmSync,
        Request::CmResolve { .. } => Counter::ReqCmResolve,
        Request::Metrics => Counter::ReqMetrics,
        Request::Spans { .. } => Counter::ReqSpans,
    };
    reg.incr(c);
}

// ---------------------------------------------------------------------------
// Frame-level dispatch, shared by every transport.

/// Decode one frame body and run it through `service`, handing the
/// response to `reply`. This is the single code path every transport
/// uses: decode → trace adoption → dispatch span → service call → span
/// status. `ctx` is the context the frame header carried; the transport
/// echoes it on the response.
pub fn dispatch_frame(
    service: &dyn RpcService,
    peer: Option<SocketAddr>,
    ctx: Option<TraceContext>,
    body: &[u8],
    reply: impl FnOnce(Response) + Send + 'static,
) {
    let request = match Request::decode(body) {
        Ok(request) => request,
        Err(e) => {
            reply(Response::Error(e));
            return;
        }
    };
    count_request(&request);
    // Expose the originating trace to everything this dispatch touches
    // (its spans included), parenting it onto the remote client-call
    // span carried in the frame.
    let _guard = ctx.map(|c| tell_obs::TraceGuard::adopt(c.trace, c.parent_span));
    // The dispatch probe: its dispatch scope (store/cm work done below
    // records spans under it) lasts until this function returns; its span
    // closes with the reply, which may come later and on another thread.
    // Dispatch spans skip tail retention: the thread never learns how the
    // trace ends, so the bounded ring is the server-side policy.
    let mut probe = tell_obs::Probe::enter(tell_obs::Site::RpcDispatch);
    let measured = probe.detach();
    let sink = ReplySink::new(move |response| {
        measured.finish(0.0, 0, crate::client::response_status(&response));
        reply(response);
    });
    let rctx = RequestCtx { trace: ctx, peer };
    // A panicking service must not take the calling thread down with it —
    // in the reactor that thread owns the connection, which would then
    // never be served again. The unwind drops the sink, which answers a
    // typed error, and the transport carries on.
    let _ = panic::catch_unwind(AssertUnwindSafe(|| service.call(request, &rctx, sink)));
}
