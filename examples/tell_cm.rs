//! A standalone commit-manager server (§4.2): issues transaction ids and
//! snapshot descriptors over the tell-rpc wire protocol. Several managers
//! merge their state through the storage nodes it is pointed at; one
//! manager keeps its state in memory. Either way a replacement recovers
//! from the transaction log in storage after a failure (§4.4.3).
//!
//! ```text
//! cargo run --release --example tell_cm -- \
//!     --listen 127.0.0.1:7801 --store 127.0.0.1:7701 --managers 2
//! ```
//!
//! Run `tell_sn` first; the commit managers talk to it over TCP exactly
//! like processing nodes do.

use std::sync::Arc;

use tell_commitmgr::manager::CmConfig;
use tell_commitmgr::{CmCluster, CommitService};
use tell_rpc::{ReactorConfig, RemoteEndpoint, RpcServer, Services};
use tell_store::{StoreApi, StoreEndpoint};

struct Args {
    listen: String,
    store: String,
    managers: usize,
    pool: usize,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7801".to_string(),
        store: "127.0.0.1:7701".to_string(),
        managers: 1,
        pool: 2,
        workers: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--store" => args.store = value("--store")?,
            "--managers" => {
                args.managers =
                    value("--managers")?.parse().map_err(|e| format!("--managers: {e}"))?;
            }
            "--pool" => {
                args.pool = value("--pool")?.parse().map_err(|e| format!("--pool: {e}"))?;
            }
            "--workers" => {
                args.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "tell_cm: serve commit managers over TCP\n\n\
                     options:\n  \
                     --listen ADDR     listen address (default 127.0.0.1:7801)\n  \
                     --store ADDR      storage server to share state through (default 127.0.0.1:7701)\n  \
                     --managers N      parallel commit managers (default 1)\n  \
                     --pool N          TCP connections to the storage server (default 2)\n  \
                     --workers N       serving threads (default: auto)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if args.managers == 0 {
        return Err("--managers must be at least 1".into());
    }
    if args.pool == 0 {
        return Err("--pool must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("tell_cm: {msg}");
            std::process::exit(2);
        }
    };
    let endpoint = RemoteEndpoint::connect(args.store.clone(), args.pool);
    // Probe before booting: several managers publish their state to the
    // store before serving, and every manager needs it to recover, so an
    // unreachable store is fatal — better a clean message than a panic out
    // of the initial state publish.
    if let Err(e) = endpoint.unmetered_client().get(&bytes::Bytes::from_static(b"\xffprobe")) {
        eprintln!("tell_cm: cannot reach storage server {}: {e}", args.store);
        std::process::exit(1);
    }
    let cluster = CmCluster::new(endpoint, args.managers, CmConfig::default());
    let services = Services { store: None, commit: Some(cluster as Arc<dyn CommitService>) };
    let config = ReactorConfig { workers: args.workers, ..ReactorConfig::default() };
    let server = match RpcServer::serve_with(&args.listen, services, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("tell_cm: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "tell_cm: {} commit manager(s) over store {} serving on {}",
        args.managers,
        args.store,
        server.local_addr()
    );
    loop {
        std::thread::park();
    }
}
