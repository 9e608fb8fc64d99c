//! The operator tool: one binary for everything a running cluster ships
//! over the wire.
//!
//! ```text
//! tell_top [watch]  live dashboard over every node's Request::Telemetry
//!                   ring and the health rules (--json: one snapshot)
//! tell_top metrics  one node's Request::Metrics as Prometheus text
//!                   (--json: the raw snapshot)
//! tell_top trace    run a few transactions, collect Request::Spans from
//!                   every process, print Chrome trace JSON for Perfetto
//! tell_top flame    collect Request::Spans from every process for one
//!                   second and fold them into a flame graph: folded
//!                   stacks on stdout (--json: speedscope), the hottest
//!                   stacks and contended locks on stderr
//!
//! # against a running cluster (tell_sn + tell_cm):
//! cargo run --release --example tell_top -- \
//!     --node sn0=127.0.0.1:7701 --node cm0=127.0.0.1:7801
//! cargo run --release --example tell_top -- metrics --node sn0=127.0.0.1:7701
//! cargo run --release --example tell_top -- trace \
//!     --store 127.0.0.1:7701 --cm 127.0.0.1:7801 > trace.json
//! cargo run --release --example tell_top -- flame \
//!     --node sn0=127.0.0.1:7701 --node cm0=127.0.0.1:7801 > flame.folded
//!
//! # self-contained: boot an SN + CM pair and a committing client in this
//! # process (the check.sh gates)
//! cargo run --release --example tell_top -- flame --loopback
//! ```
//!
//! The loopback servers share this process's registry and span ring, so
//! `metrics` and `flame` scrape that state from one target and `trace`
//! reads it from the local ring; scraping it once per server would count
//! it twice.
//!
//! No raw terminal mode, no curses, no dependencies: the dashboard refresh
//! is a cursor-home + clear-to-end escape, so the output degrades
//! gracefully when piped.

use std::collections::HashSet;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tell_core::database::IndexSpec;
use tell_core::{Database, TellConfig};
use tell_monitor::{Collector, NodeView, Target};
use tell_obs::export::{
    chrome_trace_json, fold_self_time, group_by_trace, orphan_parents, speedscope_json,
    validate_json, SourcedSpan, SpanClock,
};
use tell_obs::registry::{Counter, Phase};
use tell_obs::{CollapsedTable, LockStat, Span};
use tell_rpc::{Connection, RemoteCmClient, RemoteEndpoint, Request, Response, RpcServer};

#[derive(Clone, Copy, PartialEq)]
enum Command {
    Watch,
    Metrics,
    Trace,
    Flame,
}

struct Args {
    command: Command,
    nodes: Vec<Target>,
    loopback: bool,
    json: bool,
    interval_ms: u64,
    iterations: u64,
    store: String,
    cm: String,
    txns: u64,
}

const HELP: &str = "\
tell_top: the operator tool for a tell cluster

usage: tell_top [watch|metrics|trace|flame] [options]

  watch (default)   live telemetry dashboard with health alerts
  metrics           one node's metrics as Prometheus text
  trace             run transactions, emit Chrome trace JSON
  flame             flame graph of span self-time over one second: folded
                    stacks on stdout, summary on stderr

options:
  --node NAME=ADDR  add a scrape target (repeatable; metrics takes one)
  --loopback        boot an in-process loopback cluster with a background
                    workload and use that instead
  --json            watch: one snapshot as JSON; metrics: the raw JSON
                    snapshot; flame: speedscope JSON
  --interval MS     watch: refresh interval (default 1000)
  --iterations N    watch: stop after N refreshes (default: until ^C)
  --store ADDR      trace: storage server (default 127.0.0.1:7701)
  --cm ADDR         trace: commit server (default 127.0.0.1:7801)
  --txns N          trace: transactions to run (default 8)

trace and flame drain the span rings they read. flame folds only the
transactions the per-thread sampling tick kept; its server-side stacks
come from the frames those transactions sent.";

fn parse<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let command = match raw.first().map(String::as_str) {
        Some("watch") => Some(Command::Watch),
        Some("metrics") => Some(Command::Metrics),
        Some("trace") => Some(Command::Trace),
        Some("flame") => Some(Command::Flame),
        _ => None,
    };
    if command.is_some() {
        raw.remove(0);
    }
    let mut args = Args {
        command: command.unwrap_or(Command::Watch),
        nodes: Vec::new(),
        loopback: false,
        json: false,
        interval_ms: 1000,
        iterations: 0,
        store: "127.0.0.1:7701".to_string(),
        cm: "127.0.0.1:7801".to_string(),
        txns: 8,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--node" => {
                let spec = value("--node")?;
                let (name, addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--node wants NAME=ADDR, got {spec}"))?;
                args.nodes.push(Target::new(name, addr));
            }
            "--loopback" => args.loopback = true,
            "--json" => args.json = true,
            "--interval" => args.interval_ms = parse("--interval", value("--interval")?)?,
            "--iterations" => args.iterations = parse("--iterations", value("--iterations")?)?,
            "--store" => args.store = value("--store")?,
            "--cm" => args.cm = value("--cm")?,
            "--txns" => args.txns = parse("--txns", value("--txns")?)?,
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
    }
    if args.command != Command::Trace && args.nodes.is_empty() && !args.loopback {
        return Err("no targets: pass --node NAME=ADDR (or --loopback)".to_string());
    }
    if args.command == Command::Metrics && args.nodes.len() > 1 {
        return Err("metrics scrapes one node: pass one --node".to_string());
    }
    Ok(args)
}

// ---------------------------------------------------------------------------
// Loopback cluster: an in-process SN + CM pair, with a background workload
// for the subcommands that watch one, so every subcommand has live numbers
// without any external deployment.

struct Loopback {
    servers: Vec<RpcServer>,
    targets: Vec<Target>,
    stop: Arc<AtomicBool>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Loopback {
    /// Boot the pair; with `background`, also a client committing the demo
    /// workload until drop.
    fn boot(background: bool) -> Result<Loopback, String> {
        let store = tell_store::StoreCluster::new(tell_store::StoreConfig::new(2));
        let sn = RpcServer::serve_store("127.0.0.1:0", store).map_err(|e| e.to_string())?;
        let sn_addr = sn.local_addr().to_string();
        let cm_cluster = tell_commitmgr::CmCluster::new(
            RemoteEndpoint::connect(sn_addr.clone(), 2),
            1,
            tell_commitmgr::manager::CmConfig::default(),
        );
        let cm = RpcServer::serve_commit(
            "127.0.0.1:0",
            cm_cluster as Arc<dyn tell_commitmgr::CommitService>,
        )
        .map_err(|e| e.to_string())?;
        let cm_addr = cm.local_addr().to_string();

        let stop = Arc::new(AtomicBool::new(false));
        let worker = background.then(|| {
            let db = open_db(&sn_addr, &cm_addr);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let _ = loopback_workload(&db, u64::MAX, &stop);
            })
        });
        if background {
            // Let the workload commit a few transactions first.
            std::thread::sleep(Duration::from_millis(200));
        }
        Ok(Loopback {
            servers: vec![sn, cm],
            targets: vec![Target::new("sn0", &sn_addr), Target::new("cm0", &cm_addr)],
            stop,
            worker,
        })
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        self.servers.clear();
    }
}

fn open_db(store: &str, cm: &str) -> Arc<Database<RemoteEndpoint>> {
    let endpoint = RemoteEndpoint::connect(store.to_string(), 2);
    let commit: Arc<dyn tell_commitmgr::CommitService> =
        Arc::new(RemoteCmClient::connect([cm.to_string()]));
    Database::open(endpoint, commit, TellConfig::default())
}

/// The demo workload: insert one row into the `demo` table (created on
/// first use), then commit up to `txns` read-modify-write increments of its
/// balance, or until `stop` is set.
fn loopback_workload(
    db: &Arc<Database<RemoteEndpoint>>,
    txns: u64,
    stop: &AtomicBool,
) -> Result<(), String> {
    let pk = IndexSpec::new("pk", true, |row: &[u8]| row.get(8..16).map(Bytes::copy_from_slice));
    let pn = db.processing_node();
    // An earlier run against the same cluster may have created the table.
    let table = match db.create_table("demo", vec![pk]) {
        Ok(t) => t,
        Err(_) => pn.table("demo").map_err(|e| e.to_string())?,
    };
    let row = |balance: u64| {
        let mut b = balance.to_be_bytes().to_vec();
        b.extend_from_slice(&1u64.to_be_bytes());
        Bytes::from(b)
    };
    let rid =
        pn.run(100, |txn| txn.insert(&table, row(0))).map_err(|e| format!("insert failed: {e}"))?;
    for i in 1..=txns {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        pn.run(100, |txn| {
            let current = txn.get(&table, rid)?.expect("row inserted above");
            let balance = u64::from_be_bytes(current[..8].try_into().unwrap());
            txn.update(&table, rid, row(balance + 1))
        })
        .map_err(|e| format!("update failed: {e}"))?;
        if i.is_multiple_of(64) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok(())
}

/// Send `req` to every target in turn; a server error fails the call.
fn call_each(targets: &[Target], req: &Request) -> Result<Vec<Response>, String> {
    let mut out = Vec::with_capacity(targets.len());
    for t in targets {
        let conn = Connection::connect(&t.addr).map_err(|e| format!("{}: {e}", t.name))?;
        let (response, _, _) = conn.call(req).map_err(|e| format!("{}: {e}", t.name))?;
        if let Response::Error(msg) = &response {
            return Err(format!("{}: server error: {msg:?}", t.name));
        }
        out.push(response);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// watch: the dashboard.

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Commit-delta sparkline over the node's newest `width` points.
fn sparkline(node: &NodeView, width: usize) -> String {
    let deltas: Vec<u64> =
        node.history.iter().rev().take(width).map(|p| p.counter(Counter::TxnCommitted)).collect();
    let max = deltas.iter().copied().max().unwrap_or(0).max(1);
    deltas.iter().rev().map(|d| SPARK[((d * (SPARK.len() as u64 - 1)) / max) as usize]).collect()
}

/// Per-second rate of a counter from the node's two newest points (the
/// wall clocks bound the interval; virtual-clock histories show "-").
fn rate_per_sec(node: &NodeView, c: Counter) -> Option<f64> {
    let n = node.history.len();
    if n < 2 {
        return None;
    }
    let (prev, last) = (&node.history[n - 2], &node.history[n - 1]);
    let dt_us = last.wall_us.saturating_sub(prev.wall_us);
    if dt_us == 0 {
        return None;
    }
    Some(last.counter(c) as f64 * 1e6 / dt_us as f64)
}

fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.0}"),
        None => "-".to_string(),
    }
}

fn render(collector: &Collector, interval_ms: u64) -> String {
    let mut out = String::new();
    let active = collector.active();
    out.push_str(&format!(
        "tell_top — poll #{} every {}ms — {} node(s), {} active alert(s)\n\n",
        collector.polls(),
        interval_ms,
        collector.nodes().len(),
        active.len(),
    ));
    out.push_str(&format!(
        "{:<10} {:<6} {:>10} {:>10} {:>12}  {}\n",
        "NODE", "STATE", "COMMIT/S", "ABORT/S", "P99 TXN", "TREND"
    ));
    for node in collector.nodes() {
        let state = if node.reachable { "up" } else { "DOWN" };
        let p99 = node
            .latest()
            .map(|p| p.phase(Phase::TxnTotal).p99)
            .filter(|v| *v > 0.0)
            .map(|v| format!("{v:.0}us"))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:<10} {:<6} {:>10} {:>10} {:>12}  {}\n",
            node.target.name,
            state,
            fmt_rate(rate_per_sec(node, Counter::TxnCommitted)),
            fmt_rate(rate_per_sec(node, Counter::TxnAborted)),
            p99,
            sparkline(node, 24),
        ));
        if let Some(err) = &node.last_error {
            out.push_str(&format!("           └ {err}\n"));
        }
    }
    out.push('\n');
    if active.is_empty() {
        out.push_str("health: ok\n");
    } else {
        out.push_str("ACTIVE ALERTS:\n");
        for (rule, node) in &active {
            out.push_str(&format!("  ! {} node={}\n", rule.label(), node));
        }
    }
    let events = collector.events();
    if !events.is_empty() {
        out.push_str("\nrecent transitions:\n");
        for e in events.iter().rev().take(5).rev() {
            out.push_str(&format!("  {}\n", e.render()));
        }
    }
    out
}

/// One-shot machine-readable snapshot (hand-rolled JSON, same style as the
/// metrics exporter — no serde in the workspace).
fn render_json(collector: &Collector) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"polls\":{},\"nodes\":{{", collector.polls()));
    for (i, node) in collector.nodes().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let latest = node.latest();
        out.push_str(&format!(
            "\"{}\":{{\"reachable\":{},\"points\":{},\"last_seq\":{},\
             \"txn_committed_delta\":{},\"txn_aborted_delta\":{},\"txn_total_us_p99\":{:?}}}",
            node.target.name,
            node.reachable,
            node.history.len(),
            latest.map(|p| p.seq).unwrap_or(0),
            latest.map(|p| p.counter(Counter::TxnCommitted)).unwrap_or(0),
            latest.map(|p| p.counter(Counter::TxnAborted)).unwrap_or(0),
            latest.map(|p| p.phase(Phase::TxnTotal).p99).unwrap_or(0.0),
        ));
    }
    out.push_str("},\"active\":[");
    for (i, (rule, node)) in collector.active().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"rule\":\"{}\",\"node\":\"{}\"}}", rule.label(), node));
    }
    out.push_str("],\"events\":[");
    for (i, e) in collector.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", e.render()));
    }
    out.push_str("]}");
    out
}

fn watch(args: &Args, targets: Vec<Target>) -> Result<(), String> {
    let mut collector = Collector::new(targets);
    if args.json {
        if args.loopback {
            // Force a ring point so the very first scrape carries real
            // deltas (the wall driver's first tick may still be pending).
            tell_obs::timeseries::roll_global_now();
        }
        collector.poll();
        println!("{}", render_json(&collector));
        return Ok(());
    }
    let mut remaining = args.iterations;
    loop {
        collector.poll();
        // Cursor home + clear to end: a flicker-free refresh that still
        // degrades to plain sequential output when piped.
        print!("\x1b[H\x1b[J{}", render(&collector, args.interval_ms));
        let _ = std::io::stdout().flush();
        if args.iterations > 0 {
            remaining -= 1;
            if remaining == 0 {
                return Ok(());
            }
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}

// ---------------------------------------------------------------------------
// metrics: one Prometheus scrape.

fn metrics(target: &Target, json: bool) -> Result<(), String> {
    let response = call_each(std::slice::from_ref(target), &Request::Metrics)?.remove(0);
    let Response::Metrics(snapshot) = response else {
        return Err(format!("{}: unexpected response: {response:?}", target.name));
    };
    if json {
        print!("{}", snapshot.to_json());
    } else {
        print!("{}", snapshot.to_prometheus_text());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// trace: spans from every process, as Chrome trace JSON.
//
// Spans are tail-sampled (see `tell-obs`): kept traces are the ones over
// the `TELL_SLOW_OP_US` budget, LL/SC conflict aborts, and a 1-in-N sample
// of fast transactions — the
// first transaction on a fresh thread is always sampled, so a run always
// has at least one trace to show. `Request::Spans` drains a server's ring;
// each run is a one-shot snapshot.

fn trace(args: &Args, loopback: Option<&Loopback>) -> Result<(), String> {
    let (store, cm) = match loopback {
        Some(lb) => (lb.targets[0].addr.clone(), lb.targets[1].addr.clone()),
        None => (args.store.clone(), args.cm.clone()),
    };
    let db = open_db(&store, &cm);
    loopback_workload(&db, args.txns, &AtomicBool::new(false))?;

    // This process's ring holds the PN side; in loopback mode it holds the
    // servers' spans too.
    let mut spans: Vec<SourcedSpan> = tell_obs::span::global_ring()
        .drain()
        .into_iter()
        .map(|span| SourcedSpan { node: "pn".to_string(), span })
        .collect();
    if loopback.is_none() {
        let servers =
            [Target::new(format!("sn {store}"), &store), Target::new(format!("cm {cm}"), &cm)];
        let responses = call_each(&servers, &Request::Spans { drain: true })?;
        for (server, response) in servers.iter().zip(responses) {
            let Response::Spans(part) = response else {
                return Err(format!("{}: unexpected response: {response:?}", server.name));
            };
            spans.extend(
                part.into_iter().map(|span| SourcedSpan { node: server.name.clone(), span }),
            );
        }
    }
    if spans.is_empty() {
        return Err("no spans collected (is the registry enabled?)".to_string());
    }
    eprintln!(
        "tell_top: {} spans in {} traces ({} orphan parent links, {} dropped locally)",
        spans.len(),
        group_by_trace(spans.clone()).len(),
        orphan_parents(&spans),
        tell_obs::span::global_ring().dropped(),
    );
    let json = chrome_trace_json(&spans);
    validate_json(&json).map_err(|e| format!("emitted trace JSON failed validation: {e}"))?;
    println!("{json}");
    Ok(())
}

// ---------------------------------------------------------------------------
// flame: span self-time, folded.

/// How long `flame` collects spans.
const FLAME_WINDOW: Duration = Duration::from_secs(1);

/// How often `flame` drains the rings during its window. A ring shard holds
/// about 512 spans, which a busy thread fills in well under a second; one
/// pull at the end would fold each shard's newest spans, over windows of
/// different lengths for busy and quiet threads.
const FLAME_POLL: Duration = Duration::from_millis(100);

/// Drain every target's span ring.
fn drain_spans(targets: &[Target]) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (target, response) in
        targets.iter().zip(call_each(targets, &Request::Spans { drain: true })?)
    {
        let Response::Spans(part) = response else {
            return Err(format!("{}: unexpected response: {response:?}", target.name));
        };
        spans.extend(part);
    }
    Ok(spans)
}

/// Every target's per-lock contention rows from its metrics snapshot,
/// summed by lock name, heaviest waiter first.
fn lock_rows(targets: &[Target]) -> Result<Vec<LockStat>, String> {
    let mut locks: Vec<LockStat> = Vec::new();
    for (target, response) in targets.iter().zip(call_each(targets, &Request::Metrics)?) {
        let Response::Metrics(snapshot) = response else {
            return Err(format!("{}: unexpected response: {response:?}", target.name));
        };
        for lock in snapshot.locks {
            match locks.iter_mut().find(|l| l.name == lock.name) {
                Some(l) => {
                    l.contended += lock.contended;
                    l.wait_us += lock.wait_us;
                }
                None => locks.push(lock),
            }
        }
    }
    locks.sort_by(|a, b| b.wait_us.cmp(&a.wait_us).then(a.name.cmp(&b.name)));
    Ok(locks)
}

/// The human half of `flame`: totals, then the hottest stacks and the most
/// contended locks across every scraped node.
fn flame_summary(
    table: &CollapsedTable,
    locks: &[LockStat],
    nodes: usize,
    traces: usize,
) -> String {
    let mut out = format!(
        "tell_top flame — {nodes} node(s), {}s window: {traces} tick-sampled trace(s), \
         {}us of self-time ({}us over the stack bound)\n\nHOTTEST STACKS:\n",
        FLAME_WINDOW.as_secs_f64(),
        table.total(),
        table.dropped(),
    );
    let mut rows = table.rows();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let total = table.total().max(1);
    for (names, us) in rows.iter().take(10) {
        out.push_str(&format!(
            "  {:>5.1}% {:>8}us  {}\n",
            *us as f64 * 100.0 / total as f64,
            us,
            names.join(";")
        ));
    }
    if rows.is_empty() {
        out.push_str("  (no tick-sampled transaction in the window)\n");
    }
    out.push_str("\nCONTENDED LOCKS:\n");
    let contended: Vec<_> = locks.iter().filter(|l| l.contended > 0).take(10).collect();
    for lock in &contended {
        out.push_str(&format!(
            "  {:<24} contended={:<8} wait={}us\n",
            lock.name, lock.contended, lock.wait_us
        ));
    }
    if contended.is_empty() {
        out.push_str("  (no contention observed)\n");
    }
    out
}

fn flame(args: &Args, targets: &[Target]) -> Result<(), String> {
    // Empty the rings, then keep what they record during the window.
    drain_spans(targets)?;
    let start = Instant::now();
    let mut spans = Vec::new();
    while start.elapsed() < FLAME_WINDOW {
        std::thread::sleep(FLAME_POLL);
        spans.extend(drain_spans(targets)?);
    }
    let table = fold_self_time(&spans, SpanClock::Wall);
    let traces: HashSet<u64> =
        spans.iter().map(|s| s.trace).filter(|&t| tell_obs::trace::tick_kept(t)).collect();
    eprint!("{}", flame_summary(&table, &lock_rows(targets)?, targets.len(), traces.len()));
    if args.json {
        let json = speedscope_json(&table);
        validate_json(&json)
            .map_err(|e| format!("emitted speedscope JSON failed validation: {e}"))?;
        print!("{json}");
    } else {
        print!("{}", table.to_folded());
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    // The loopback cluster must outlive every call below. `trace` runs
    // transactions of its own; the others watch a background workload.
    let loopback =
        if args.loopback { Some(Loopback::boot(args.command != Command::Trace)?) } else { None };
    let mut targets = match &loopback {
        Some(lb) => lb.targets.clone(),
        None => args.nodes.clone(),
    };
    if loopback.is_some() && args.command != Command::Watch {
        // Process-global state: one target answers for the pair.
        targets.truncate(1);
    }
    match args.command {
        Command::Watch => watch(args, targets),
        Command::Metrics => metrics(&targets[0], args.json),
        Command::Trace => trace(args, loopback.as_ref()),
        Command::Flame => flame(args, &targets),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("tell_top: {msg}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = run(&args) {
        eprintln!("tell_top: {msg}");
        std::process::exit(1);
    }
}
