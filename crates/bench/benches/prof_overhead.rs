//! Lock-contention probe: three workers commit update transactions
//! concurrently against an in-process database with **two** commit
//! managers, and the bench reports the most contended named locks.
//!
//! The subject is `cm.state`, a commit manager's state lock. With two
//! managers each one publishes its state to storage from inside that
//! lock, so concurrent starts and completions queue on it; a lone manager
//! keeps its state in memory and its critical sections are too short to
//! contend. The probe checks that `ProfMutex` accounting — the per-lock
//! rows a `Request::Metrics` snapshot carries, and the
//! `lock_contended_total` counter the `LockWaitSpike` health rule reads —
//! sees a real hot spot on the commit path.
//!
//! `TELL_BENCH_JSON=<dir>` writes `BENCH_prof_overhead.json` with the top
//! contended locks; `cm.state` must lead with nonzero contention.

use std::sync::Arc;

use bytes::Bytes;
use tell_core::database::IndexSpec;
use tell_core::{Database, TellConfig};

const WORKERS: usize = 3;
const COMMIT_MANAGERS: usize = 2;
/// Not scaled down for smoke runs: the whole probe takes well under a
/// second, and fewer transactions do not reliably overlap on `cm.state`.
const TXNS_PER_WORKER: u32 = 2_000;
const TOP_LOCKS: usize = 5;

fn main() {
    let config = TellConfig { commit_managers: COMMIT_MANAGERS, ..TellConfig::default() };
    let db = Database::create(config);
    let pk = IndexSpec::new("pk", true, |r: &[u8]| r.get(..8).map(Bytes::copy_from_slice));
    let table = db.create_table("bench", vec![pk]).unwrap();
    let pn = db.processing_node();
    let mut rids = Vec::new();
    {
        let mut txn = pn.begin().unwrap();
        for i in 0..WORKERS as u8 {
            rids.push(txn.insert(&table, Bytes::from(vec![i + 1; 64])).unwrap());
        }
        txn.commit().unwrap();
    }
    tell_obs::set_enabled(true);

    // Each worker updates its own row, so the transactions never conflict
    // on data: what they share is the commit managers.
    let workers: Vec<_> = rids
        .iter()
        .map(|&rid| {
            let db = Arc::clone(&db);
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let pn = db.processing_node();
                for _ in 0..TXNS_PER_WORKER {
                    let _ = pn.run(100, |txn| txn.update(&table, rid, Bytes::from(vec![7u8; 64])));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut locks = tell_obs::snapshot().locks;
    locks.truncate(TOP_LOCKS);
    let commit_lock_named = locks.iter().any(|l| l.name == "cm.state" && l.contended > 0);

    println!(
        "prof_overhead: {WORKERS} workers x {TXNS_PER_WORKER} update txns, \
         {COMMIT_MANAGERS} commit managers"
    );
    println!("top contended locks:");
    for l in &locks {
        println!("  {:<28} {:>8} contended {:>10} us waited", l.name, l.contended, l.wait_us);
    }
    if !commit_lock_named {
        println!("  warning: cm.state saw no contention this run");
    }

    if let Ok(dir) = std::env::var("TELL_BENCH_JSON") {
        let lock_rows: Vec<String> = locks
            .iter()
            .map(|l| {
                format!(
                    "    {{ \"name\": {:?}, \"contended\": {}, \"wait_us\": {} }}",
                    l.name, l.contended, l.wait_us
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"prof_overhead\",\n  \"workers\": {WORKERS},\n  \
             \"commit_managers\": {COMMIT_MANAGERS},\n  \
             \"txns_per_worker\": {TXNS_PER_WORKER},\n  \
             \"commit_path_lock_named\": {commit_lock_named},\n  \
             \"top_contended_locks\": [\n{}\n  ]\n}}\n",
            lock_rows.join(",\n")
        );
        let path = std::path::Path::new(&dir).join("BENCH_prof_overhead.json");
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("  wrote {}", path.display()),
            Err(e) => eprintln!("  (failed to write {}: {e})", path.display()),
        }
    }
}
