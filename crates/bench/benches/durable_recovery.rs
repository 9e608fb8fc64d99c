//! Durable-tier characterization: restart recovery time as a function of
//! log size, with and without checkpoints. Not a paper figure — the
//! paper's storage tier is RAMCloud — but the numbers gate the
//! tell-durable design: recovery must be log-linear and checkpoints must
//! flatten it.

use std::path::PathBuf;
use std::time::Instant;

use bytes::Bytes;
use tell_bench::{fmt_k, section, table_header, table_row};
use tell_durable::{DurableNode, DurableNodeConfig, FsyncPolicy};
use tell_store::{Cell, NodeDurability};

const PIDS: u32 = 8;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tell-bench-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(checkpoint_every: u64) -> DurableNodeConfig {
    DurableNodeConfig {
        segment_bytes: 1 << 20,
        // Recovery cost is what's measured; per-append fsync would just
        // stretch the (untimed) load phase.
        fsync: FsyncPolicy::Never,
        checkpoint_every,
    }
}

fn key(i: u64, keys: u64) -> Bytes {
    Bytes::from(format!("bench/{:08}", i % keys))
}

/// Append `records` puts (overwriting a rolling key set), drop the engine,
/// and time a cold `DurableNode::open`.
fn recovery_run(records: u64, checkpoint_every: u64) -> (f64, u64, u64) {
    let dir = bench_dir("recovery");
    let value = Bytes::from(vec![0xA5u8; 64]);
    {
        let (node, _) = DurableNode::open(dir.clone(), config(checkpoint_every)).unwrap();
        for i in 0..records {
            let cell = Cell { token: i + 1, value: value.clone() };
            node.record(i as u32 % PIDS, i / PIDS as u64 + 1, &key(i, records / 2), Some(&cell))
                .unwrap();
        }
    }
    let log_bytes: u64 =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum();
    let started = Instant::now();
    let (_node, parts) = DurableNode::open(dir.clone(), config(checkpoint_every)).unwrap();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let live: u64 = parts.iter().map(|p| p.entries.len() as u64).sum();
    std::fs::remove_dir_all(&dir).unwrap();
    (ms, log_bytes, live)
}

fn main() {
    let tiny = std::env::var("TELL_BENCH_SCALE").as_deref() == Ok("tiny");
    let sizes: &[u64] = if tiny { &[500, 2_000] } else { &[5_000, 20_000, 80_000] };

    section(
        "durable_recovery — restart cost vs log size",
        "not in paper; gates the tell-durable log/checkpoint design",
    );
    table_header(&["records", "checkpoints", "log bytes", "recover ms", "records/s", "live keys"]);
    let mut rows = Vec::new();
    for &records in sizes {
        for checkpoint_every in [0u64, 4_096] {
            let (ms, log_bytes, live) = recovery_run(records, checkpoint_every);
            table_row(&[
                records.to_string(),
                if checkpoint_every == 0 {
                    "off".into()
                } else {
                    format!("every {checkpoint_every}")
                },
                log_bytes.to_string(),
                format!("{ms:.2}"),
                fmt_k(records as f64 / (ms / 1e3).max(1e-9)),
                live.to_string(),
            ]);
            rows.push(format!(
                "{{\"records\":{records},\"checkpoint_every\":{checkpoint_every},\
                 \"log_bytes\":{log_bytes},\"recover_ms\":{ms:.3},\"live_keys\":{live}}}"
            ));
        }
    }

    if let Ok(dir) = std::env::var("TELL_BENCH_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"durable_recovery\",\n  \"recovery\": [\n    {}\n  ]\n}}\n",
            rows.join(",\n    ")
        );
        let path = std::path::Path::new(&dir).join("BENCH_durable_recovery.json");
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("  wrote {}", path.display()),
            Err(e) => eprintln!("  (failed to write {}: {e})", path.display()),
        }
    }
}
