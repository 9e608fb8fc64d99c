//! The deployment every workload runs on, in one process: a storage
//! server and a commit-manager server on loopback sockets, the commit
//! manager publishing its state to the storage server over its own
//! connection, as `tell_sn` + `tell_cm` are deployed.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tell_commitmgr::{CmCluster, CmConfig, CommitService};
use tell_common::Result;
use tell_core::{Database, TellConfig};
use tell_durable::{DurableNodeConfig, FsDurability};
use tell_rpc::{
    ReactorConfig, RemoteCmClient, RemoteEndpoint, Router, RpcServer, RpcService, Services,
};
use tell_store::{DurabilityProvider, StoreCluster, StoreConfig};

use crate::trace::{
    TracedCommit, TracedDurability, TracedEndpoint, TracedService, CM_STORE, PN_STORE,
};

pub const STORAGE_NODES: usize = 2;
/// Connections in each endpoint's pool.
const POOL: usize = 2;

pub struct Cluster {
    // Field order is drop order: stop serving before the services go away.
    sn_server: RpcServer,
    cm_server: RpcServer,
    _commit: Arc<dyn CommitService>,
    pub store: Arc<StoreCluster>,
}

/// The storage tier for `data_dir`: in-memory when `None`, else the log
/// tier with its defaults (`FsyncPolicy::Always`, checkpoint every 4096
/// records) — the flush policy is part of the workload.
pub fn open_store(data_dir: Option<&Path>, traced: bool) -> Result<Arc<StoreCluster>> {
    let mut config = StoreConfig::new(STORAGE_NODES);
    if let Some(dir) = data_dir {
        let fs: Arc<dyn DurabilityProvider> =
            FsDurability::new(dir.to_path_buf(), DurableNodeConfig::default());
        config = config.durability(if traced { Arc::new(TracedDurability(fs)) } else { fs });
    }
    StoreCluster::open(config)
}

fn serve(service: Arc<dyn RpcService>, traced_as: Option<&'static str>) -> Result<RpcServer> {
    let service: Arc<dyn RpcService> = match traced_as {
        Some(name) => Arc::new(TracedService { inner: service, name }),
        None => service,
    };
    RpcServer::serve_service("127.0.0.1:0", service, ReactorConfig::default())
}

impl Cluster {
    pub fn boot(data_dir: Option<&Path>, traced: bool) -> Result<Cluster> {
        let store = open_store(data_dir, traced)?;
        let sn_router = Router::new(Services { store: Some(Arc::clone(&store)), commit: None });
        let sn_server = serve(Arc::new(sn_router), traced.then_some("sn.serve"))?;

        let cm_store = RemoteEndpoint::connect(sn_server.local_addr().to_string(), POOL);
        let commit: Arc<dyn CommitService> = if traced {
            let endpoint = TracedEndpoint { inner: cm_store, names: CM_STORE };
            CmCluster::new(endpoint, 1, CmConfig::default())
        } else {
            CmCluster::new(cm_store, 1, CmConfig::default())
        };
        let cm_router = Router::new(Services { store: None, commit: Some(Arc::clone(&commit)) });
        let cm_server = serve(Arc::new(cm_router), traced.then_some("cm.serve"))?;
        Ok(Cluster { sn_server, cm_server, _commit: commit, store })
    }

    /// Address of the storage server.
    pub fn sn_addr(&self) -> String {
        self.sn_server.local_addr().to_string()
    }

    fn store_endpoint(&self) -> RemoteEndpoint {
        RemoteEndpoint::connect(self.sn_addr(), POOL)
    }

    fn commit_client(&self) -> Arc<RemoteCmClient> {
        Arc::new(RemoteCmClient::connect([self.cm_server.local_addr().to_string()]))
    }

    /// A processing-node database over the wire, as deployed.
    pub fn database(&self) -> Arc<Database<RemoteEndpoint>> {
        Database::open(self.store_endpoint(), self.commit_client(), TellConfig::default())
    }

    /// The same, with the store and commit-manager clients wrapped.
    pub fn traced_database(&self) -> Arc<Database<TracedEndpoint<RemoteEndpoint>>> {
        let endpoint = TracedEndpoint { inner: self.store_endpoint(), names: PN_STORE };
        let commit: Arc<dyn CommitService> = Arc::new(TracedCommit(self.commit_client()));
        Database::open(endpoint, commit, TellConfig::default())
    }
}

/// A fresh directory under the build's target directory — the one place
/// inside the checkout that is never committed.
pub fn fresh_data_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let dir = target.join("tell_e2e_data").join(format!(
        "{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Remove a directory from [`fresh_data_dir`], and the shared parent once
/// the last run's directory is gone.
pub fn remove_data_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}
