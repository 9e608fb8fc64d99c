//! A standalone storage-node server: the shared data store of §3, behind
//! the tell-rpc wire protocol.
//!
//! ```text
//! cargo run --release --example tell_sn -- --listen 127.0.0.1:7701 --nodes 4
//! ```
//!
//! With `--data-dir` every storage node also keeps a log-structured
//! persistence tier (`tell-durable`) under `DIR/sn-<n>/`; killing the
//! process and restarting it with the same directory recovers every
//! acknowledged write:
//!
//! ```text
//! cargo run --release --example tell_sn -- --data-dir /var/lib/tell --fsync always
//! ```
//!
//! Pair it with `tell_cm` (the commit manager server) and open a
//! `Database` over `RemoteEndpoint` / `RemoteCmClient` to run the full
//! stack across processes.

use std::sync::Arc;

use tell_durable::{DurableNodeConfig, FsDurability, FsyncPolicy};
use tell_rpc::{ReactorConfig, RpcServer, Services};
use tell_store::{DurabilityProvider, StoreCluster, StoreConfig};

struct Args {
    listen: String,
    nodes: usize,
    workers: usize,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7701".to_string(),
        nodes: 4,
        workers: 0,
        data_dir: None,
        fsync: FsyncPolicy::Always,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--nodes" => {
                args.nodes = value("--nodes")?.parse().map_err(|e| format!("--nodes: {e}"))?;
            }
            "--workers" => {
                args.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--fsync" => {
                let v = value("--fsync")?;
                args.fsync = FsyncPolicy::parse(&v).map_err(|e| format!("--fsync: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "tell_sn: serve a storage cluster over TCP\n\n\
                     options:\n  \
                     --listen ADDR   listen address (default 127.0.0.1:7701)\n  \
                     --nodes N       storage nodes in the cluster (default 4)\n  \
                     --workers N     serving threads (default: auto)\n  \
                     --data-dir DIR  durable log tier root (one subdir per node);\n  \
                                     restarting with the same dir recovers acked writes\n  \
                     --fsync POLICY  always | never (default always;\n  \
                                     only meaningful with --data-dir)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if args.nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("tell_sn: {msg}");
            std::process::exit(2);
        }
    };
    let mut config = StoreConfig::new(args.nodes);
    if let Some(dir) = &args.data_dir {
        let engine_config = DurableNodeConfig { fsync: args.fsync, ..DurableNodeConfig::default() };
        let provider = FsDurability::new(dir.clone(), engine_config) as Arc<dyn DurabilityProvider>;
        config = config.durability(provider);
    }
    let store = match StoreCluster::open(config) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("tell_sn: recovery failed: {e}");
            std::process::exit(1);
        }
    };
    let services = Services { store: Some(Arc::clone(&store)), commit: None };
    let config = ReactorConfig { workers: args.workers, ..ReactorConfig::default() };
    let server = match RpcServer::serve_with(&args.listen, services, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("tell_sn: {e}");
            std::process::exit(1);
        }
    };
    match &args.data_dir {
        Some(dir) => println!(
            "tell_sn: {} storage nodes serving on {} (durable, data-dir {dir})",
            args.nodes,
            server.local_addr()
        ),
        None => {
            println!("tell_sn: {} storage nodes serving on {}", args.nodes, server.local_addr())
        }
    }
    loop {
        std::thread::park();
    }
}
