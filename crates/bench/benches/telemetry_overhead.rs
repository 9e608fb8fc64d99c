//! Telemetry poll overhead: full update transactions with a background
//! poller taking a registry snapshot and diffing it against the previous
//! one at an aggressive cadence — what a collector's `Request::Metrics`
//! poll costs the serving process, plus the diff the collector does —
//! against the same transactions with the poller idle. Nothing on the
//! transaction path touches the snapshot, so even a 5 ms cadence (200×
//! `tell_top watch`'s 1 s default) must stay under the 5 % observability
//! budget.
//!
//! It also reports what one poll costs on its own: µs per
//! `tell_obs::snapshot()` and the bytes of one `Response::Metrics` frame.
//!
//! Methodology matches `micro.rs`'s `obs/txn_update_overhead`: process
//! speed drifts over a run (frequency scaling, co-tenant VMs), so the two
//! arms are interleaved in A-B-B-A blocks and the reported figure is the
//! median of per-block deltas — drift slower than a block cancels inside
//! the pair, and the median discards preemption bursts.
//!
//! `TELL_BENCH_JSON=<dir>` writes `BENCH_telemetry_overhead.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tell_core::database::IndexSpec;
use tell_core::{Database, TellConfig};
use tell_obs::Rollup;
use tell_rpc::wire::FRAME_HEADER;
use tell_rpc::Response;

/// Poller cadence under test.
const TICK_MS: u64 = 5;
/// Snapshots timed back to back for the per-poll cost.
const SNAPSHOTS: u32 = 200;
const TXNS_PER_BATCH: u32 = 2_000;
const BLOCKS: usize = 40;
const BOUND_PCT: f64 = 5.0;

fn main() {
    let scale = std::env::var("TELL_BENCH_SCALE").unwrap_or_default();
    let (txns, blocks) = if scale == "tiny" { (200, 10) } else { (TXNS_PER_BATCH, BLOCKS) };

    let db = Database::create(TellConfig::default());
    let pk = IndexSpec::new("pk", true, |r: &[u8]| r.get(..8).map(Bytes::copy_from_slice));
    let table = db.create_table("bench", vec![pk]).unwrap();
    let pn = db.processing_node();
    let rid = {
        let mut txn = pn.begin().unwrap();
        let rid = txn.insert(&table, Bytes::from(vec![1u8; 64])).unwrap();
        txn.commit().unwrap();
        rid
    };
    tell_obs::set_enabled(true);

    // The poller thread lives for the whole run; the `active` flag is the
    // only thing toggled between arms, so thread startup never lands
    // inside a timed batch. When active it does what a server and its
    // collector do per poll — the process snapshot, then the diff into an
    // interval point — every 5 ms.
    let active = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let active = Arc::clone(&active);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rollup = Rollup::new();
            let started = Instant::now();
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if active.load(Ordering::Relaxed) {
                    let at_us = started.elapsed().as_secs_f64() * 1e6;
                    std::hint::black_box(rollup.diff(tell_obs::snapshot(), at_us));
                    polls += 1;
                }
                std::thread::sleep(Duration::from_millis(TICK_MS));
            }
            polls
        })
    };

    let run_txn = |payload: u8| {
        let mut txn = pn.begin().unwrap();
        txn.update(&table, rid, Bytes::from(vec![payload; 64])).unwrap();
        txn.commit().unwrap();
    };
    // Warm both arms.
    for on in [false, true] {
        active.store(on, Ordering::Relaxed);
        for _ in 0..txns {
            run_txn(9);
        }
    }
    let time_batch = |on: bool| {
        active.store(on, Ordering::Relaxed);
        let t = Instant::now();
        for _ in 0..txns {
            run_txn(if on { 3 } else { 2 });
        }
        t.elapsed().as_nanos() as f64 / txns as f64
    };

    let mut deltas = Vec::with_capacity(blocks);
    let mut idle_ns = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        // A-B-B-A: linear drift within the block cancels exactly.
        let d1 = time_batch(false);
        let e1 = time_batch(true);
        let e2 = time_batch(true);
        let d2 = time_batch(false);
        deltas.push((e1 + e2 - d1 - d2) / 2.0);
        idle_ns.push((d1 + d2) / 2.0);
    }
    stop.store(true, Ordering::Relaxed);
    let polls = poller.join().unwrap();

    // One poll's cost on its own: the server's snapshot, and its frame.
    let t = Instant::now();
    for _ in 0..SNAPSHOTS {
        std::hint::black_box(tell_obs::snapshot());
    }
    let snapshot_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(SNAPSHOTS);
    let frame_bytes = FRAME_HEADER + Response::Metrics(tell_obs::snapshot()).encode().len();

    deltas.sort_by(|a, b| a.partial_cmp(b).unwrap());
    idle_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let delta = deltas[blocks / 2];
    let idle = idle_ns[blocks / 2];
    let polling = idle + delta;
    let overhead_pct = delta / idle * 100.0;

    println!("telemetry_overhead: update txn with a snapshot-and-diff poller at {TICK_MS}ms");
    println!("{:<44} {:>12.1} ns/txn", "telemetry/txn_update_poller_idle", idle);
    println!("{:<44} {:>12.1} ns/txn", "telemetry/txn_update_poller_active", polling);
    println!(
        "{:<44} {:>11.2} %  (bound: < {BOUND_PCT} %, {polls} polls)",
        "telemetry/poll_overhead", overhead_pct
    );
    println!("{:<44} {:>12.1} us", "telemetry/snapshot_us", snapshot_us);
    println!("{:<44} {:>12} B", "telemetry/metrics_frame_bytes", frame_bytes);

    if let Ok(dir) = std::env::var("TELL_BENCH_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"telemetry_overhead\",\n  \"tick_ms\": {TICK_MS},\n  \
             \"txns_per_batch\": {txns},\n  \"blocks\": {blocks},\n  \
             \"poller_idle_ns_per_txn\": {idle:.1},\n  \
             \"poller_active_ns_per_txn\": {polling:.1},\n  \"polls\": {polls},\n  \
             \"overhead_pct\": {overhead_pct:.3},\n  \"bound_pct\": {BOUND_PCT},\n  \
             \"snapshot_us\": {snapshot_us:.1},\n  \"metrics_frame_bytes\": {frame_bytes}\n}}\n"
        );
        let path = std::path::Path::new(&dir).join("BENCH_telemetry_overhead.json");
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("  wrote {}", path.display()),
            Err(e) => eprintln!("  (failed to write {}: {e})", path.display()),
        }
    }
}
