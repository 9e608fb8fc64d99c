//! The TCP server fronting an [`RpcService`].
//!
//! [`RpcServer`] runs the epoll reactor from [`crate::reactor`]: one
//! event-loop thread multiplexing every connection, a bounded worker pool
//! executing dispatch, zero-copy frame slicing and slow-reader
//! backpressure. A connection's requests dispatch in arrival order but a
//! client may keep many in flight — responses carry the request's
//! correlation id, so the client needs no lockstep (pipelining per §5.1's
//! batching spirit: the wire stays full).
//!
//! The same server can expose both services; the shipped binaries run them
//! separately (`tell_sn` serves storage, `tell_cm` serves commit managers)
//! the way the paper separates SNs from the commit manager.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;

use tell_commitmgr::CommitService;
use tell_common::{Error, Result};
use tell_store::StoreCluster;

use crate::reactor::Reactor;
pub use crate::reactor::ReactorConfig;
pub use crate::service::Services;
use crate::service::{Router, RpcService};

/// A running tell-rpc server over the epoll reactor. Dropping it shuts it
/// down.
pub struct RpcServer {
    addr: SocketAddr,
    reactor: Reactor,
}

impl RpcServer {
    /// Bind `addr` and serve `services` with default reactor tuning. Pass
    /// port 0 to let the OS choose; the bound address is available from
    /// [`RpcServer::local_addr`].
    pub fn serve(addr: impl ToSocketAddrs, services: Services) -> Result<RpcServer> {
        RpcServer::serve_with(addr, services, ReactorConfig::default())
    }

    /// [`RpcServer::serve`] with explicit reactor tuning (worker count,
    /// write-buffer cap).
    pub fn serve_with(
        addr: impl ToSocketAddrs,
        services: Services,
        config: ReactorConfig,
    ) -> Result<RpcServer> {
        RpcServer::serve_service(addr, Arc::new(Router::new(services)), config)
    }

    /// Serve an arbitrary [`RpcService`] — the seam a custom deployment
    /// (or a test) plugs its own handler into.
    pub fn serve_service(
        addr: impl ToSocketAddrs,
        service: Arc<dyn RpcService>,
        config: ReactorConfig,
    ) -> Result<RpcServer> {
        // Any serving process keeps a telemetry history for
        // `Request::Telemetry` to page out.
        tell_obs::timeseries::ensure_wall_driver();
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::Unavailable(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Unavailable(format!("no local address: {e}")))?;
        let reactor = Reactor::start(listener, service, config)?;
        Ok(RpcServer { addr, reactor })
    }

    /// Serve only storage requests.
    pub fn serve_store(addr: impl ToSocketAddrs, store: Arc<StoreCluster>) -> Result<RpcServer> {
        RpcServer::serve(addr, Services { store: Some(store), commit: None })
    }

    /// Serve only commit-manager requests.
    pub fn serve_commit(
        addr: impl ToSocketAddrs,
        commit: Arc<dyn CommitService>,
    ) -> Result<RpcServer> {
        RpcServer::serve(addr, Services { store: None, commit: Some(commit) })
    }

    /// The address the server accepts connections on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request frames served so far, across all connections. A `Batch` of
    /// N operations counts as one frame, so comparing this against logical
    /// op counts measures what §5.1's batching saves.
    pub fn frames_served(&self) -> u64 {
        self.reactor.frames_served()
    }

    /// Stop the reactor, sever every open connection and join the event
    /// loop plus workers. Idempotent; called automatically on drop. The
    /// wakeup is the reactor's eventfd — no throwaway self-connection.
    pub fn shutdown(&mut self) {
        self.reactor.shutdown();
    }
}
