//! One benchmark run: set up, drive the closed loop, measure, check.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tell_common::{IsolationLevel, Result};
use tell_core::{Database, ProcessingNode};
use tell_obs::MetricsSnapshot;
use tell_store::StoreEndpoint;

use crate::cluster::{fresh_data_dir, open_store, remove_data_dir, Cluster};
use crate::gen::{input_digest, Params, Stream, CLIENTS, TRACED_CLIENTS};
use crate::stats::{median, percentile, split_blocks};
use crate::trace::{self, now_ns, span, NameTotal, STORE_CALLS};
use crate::workloads::{body, check_live, check_recovered, load, Schema, Workload};

/// Retry budget of `ProcessingNode::run` as OLTP drivers use it.
const MAX_ATTEMPTS: u32 = 100;
/// Discarded lead-in: connections open, index caches fill, tid ranges and
/// rid ranges are fetched.
const WARMUP_S: f64 = 2.0;
/// Every timed end-to-end metric is the median of this many equal blocks.
const BLOCKS: usize = 10;
/// A traced run's window is cut into this many slices; recording is off in
/// every fifth (the third of each five), which gives the untraced rate for
/// `trace.overhead_share` from the same minutes as the traced one.
const TRACE_SLICES: usize = 10;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A set-up this short is repeated more often, up to this many times or
/// this many seconds in total, or its median would be all timer noise.
const SETUPS_MAX: usize = 15;
const SETUPS_MIN_TOTAL_S: f64 = 1.5;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window, seconds (warm-up comes on top).
    pub seconds: f64,
    pub traced: bool,
    pub trace_out: Option<PathBuf>,
}

impl Options {
    fn clients(&self) -> usize {
        if self.traced {
            TRACED_CLIENTS
        } else {
            CLIENTS
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Printed for people, not part of the JSON result.
    pub notes: Vec<Metric>,
    /// Hash of the generated inputs; equal seeds must print equal digests.
    pub input_digest: u64,
}

struct Sample {
    end_ns: u64,
    latency_ns: u64,
    attempts: u32,
    /// Time spent in attempts that aborted, yield included.
    aborted_ns: u64,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Completion times of transactions that ran out of retries or hit a
    /// non-retryable error.
    failures: Vec<u64>,
    /// `neworder_durable`: orders whose commit was acknowledged.
    acked_orders: Vec<(u32, u32)>,
}

/// The process-wide clocks and counters at one block boundary.
struct Mark {
    at_ns: u64,
    cpu_us: f64,
    counters: MetricsSnapshot,
}

impl Mark {
    fn now() -> Mark {
        Mark { at_ns: now_ns(), cpu_us: cpu_us(), counters: tell_obs::snapshot() }
    }
}

/// What the conductor thread saw while the clients ran: block `i` lies
/// between `marks[i]` and `marks[i + 1]`.
struct Timeline {
    marks: Vec<Mark>,
    /// Per block of a traced run: recording was off (the overhead reference).
    reference: Vec<bool>,
}

impl Timeline {
    fn edges(&self) -> Vec<u64> {
        self.marks.iter().map(|m| m.at_ns).collect()
    }

    /// The blocks that are reference blocks (or are not), as pairs of marks.
    fn blocks(&self, reference: bool) -> impl Iterator<Item = (&Mark, &Mark)> {
        let pairs = self.marks.iter().zip(&self.marks[1..]);
        pairs.zip(&self.reference).filter(move |(_, &r)| r == reference).map(|(pair, _)| pair)
    }

    /// The measured time, as ascending disjoint windows: everything but the
    /// reference blocks, neighbours merged.
    fn windows(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (from, to) in self.blocks(false) {
            match out.last_mut() {
                Some(last) if last.1 == from.at_ns => last.1 = to.at_ns,
                _ => out.push((from.at_ns, to.at_ns)),
            }
        }
        out
    }
}

fn within(windows: &[(u64, u64)], at: u64) -> bool {
    windows.iter().any(|&(from, to)| at >= from && at < to)
}

fn seconds_in(windows: &[(u64, u64)]) -> f64 {
    windows.iter().map(|&(from, to)| (to - from) as f64 / 1e9).sum()
}

/// Everything `drive` learned; the recovery check and the extra set-ups
/// happen after the cluster is gone.
struct Outcome {
    schema: Schema,
    logs: Vec<ClientLog>,
    timeline: Timeline,
    live_check: bool,
    setup_s: f64,
    rss_mb: f64,
    store_bytes_per_user_byte: f64,
}

pub fn run(opts: &Options) -> Result<Report> {
    let started = Instant::now();
    let data_dir = opts.workload.durable().then(fresh_data_dir);
    let cluster = Cluster::boot(data_dir.as_deref(), opts.traced)?;
    let outcome = if opts.traced {
        drive(opts, &cluster, cluster.traced_database(), started)?
    } else {
        drive(opts, &cluster, cluster.database(), started)?
    };
    drop(cluster);

    let acked: Vec<(u32, u32)> =
        outcome.logs.iter().flat_map(|l| l.acked_orders.iter().copied()).collect();
    let mut correct = outcome.live_check;
    let mut recover_s = 0.0;
    if let Some(dir) = &data_dir {
        // Everything that held the directory open is dropped; recover from
        // the files alone, as a restarted `tell_sn --data-dir` would.
        let reopening = Instant::now();
        let recovered = open_store(Some(dir), false)?;
        recover_s = reopening.elapsed().as_secs_f64();
        correct = check_recovered(&recovered, &outcome.schema, &acked)?;
        drop(recovered);
        remove_data_dir(dir);
    }

    let mut setups = vec![outcome.setup_s];
    if !opts.traced {
        let wanted = |done: &[f64]| {
            done.len() < SETUPS
                || (done.len() < SETUPS_MAX && done.iter().sum::<f64>() < SETUPS_MIN_TOTAL_S)
        };
        while wanted(&setups) {
            setups.push(setup_only(opts.workload)?);
        }
    }
    Ok(report(opts, &outcome, correct, recover_s, median(&setups)))
}

/// Boot, load, tear down; returns the seconds boot + load took.
fn setup_only(workload: Workload) -> Result<f64> {
    let started = Instant::now();
    let data_dir = workload.durable().then(fresh_data_dir);
    let cluster = Cluster::boot(data_dir.as_deref(), false)?;
    load(workload, &cluster.database())?;
    let setup_s = started.elapsed().as_secs_f64();
    drop(cluster);
    if let Some(dir) = data_dir {
        remove_data_dir(&dir);
    }
    Ok(setup_s)
}

fn drive<E: StoreEndpoint>(
    opts: &Options,
    cluster: &Cluster,
    db: Arc<Database<E>>,
    started: Instant,
) -> Result<Outcome> {
    let schema = load(opts.workload, &db)?;
    let setup_s = started.elapsed().as_secs_f64();
    let rss_mb = rss_mb();
    let store_bytes_per_user_byte =
        cluster.store.total_used_bytes() as f64 / schema.loaded_bytes as f64;

    let stop = AtomicBool::new(false);
    let (logs, timeline) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..opts.clients())
            .map(|client| {
                let (db, schema, stop) = (&db, &schema, &stop);
                scope.spawn(move || client_loop(db, schema, opts, client, stop))
            })
            .collect();
        let timeline = conduct(opts);
        stop.store(true, Ordering::Relaxed);
        let logs: Vec<ClientLog> =
            clients.into_iter().map(|c| c.join().expect("client thread")).collect();
        (logs, timeline)
    });

    let live_check = if opts.workload.durable() {
        true // decided after reopening the data directory
    } else {
        let commits: usize = logs.iter().map(|l| l.samples.len()).sum();
        check_live(opts.workload, &db, &schema, commits as u64)?
    };
    Ok(Outcome { schema, logs, timeline, live_check, setup_s, rss_mb, store_bytes_per_user_byte })
}

/// Sleep through the run's phases, flipping span recording and sampling
/// the process-wide clocks and counters at each boundary.
fn conduct(opts: &Options) -> Timeline {
    std::thread::sleep(Duration::from_secs_f64(WARMUP_S));
    let reference: Vec<bool> = if opts.traced {
        (0..TRACE_SLICES).map(|slice| slice % 5 == 2).collect()
    } else {
        vec![false; BLOCKS]
    };
    let block = Duration::from_secs_f64(opts.seconds / reference.len() as f64);
    let mut marks = Vec::with_capacity(reference.len() + 1);
    for &is_reference in &reference {
        trace::set_recording(opts.traced && !is_reference);
        marks.push(Mark::now());
        std::thread::sleep(block);
    }
    marks.push(Mark::now());
    trace::set_recording(false);
    Timeline { marks, reference }
}

fn client_loop<E: StoreEndpoint>(
    db: &Arc<Database<E>>,
    schema: &Schema,
    opts: &Options,
    client: usize,
    stop: &AtomicBool,
) -> ClientLog {
    let pn = db.processing_node();
    let level = opts.workload.isolation();
    let mut stream = Stream::new(opts.workload, opts.seed, client);
    let mut log = ClientLog::default();
    let mut seq = (client as u64) << 40;
    while !stop.load(Ordering::Relaxed) {
        let params = stream.next_params();
        seq += 1;
        trace::set_txn(seq);
        let begun = now_ns();
        let (mut attempts, mut aborted_ns) = (0, 0);
        let result = loop {
            attempts += 1;
            let attempt_started = now_ns();
            match attempt(&pn, level, schema, &params) {
                Err(e) if e.is_retryable() && attempts < MAX_ATTEMPTS => {
                    // Let the competitor finish before re-reading.
                    span("core.abort", std::thread::yield_now);
                    aborted_ns += now_ns() - attempt_started;
                }
                done => break done,
            }
        };
        let end_ns = now_ns();
        match result {
            Ok(order) => {
                log.samples.push(Sample {
                    end_ns,
                    latency_ns: end_ns - begun,
                    attempts,
                    aborted_ns,
                });
                log.acked_orders.extend(order);
            }
            Err(e) => {
                if log.failures.is_empty() {
                    eprintln!("client {client}: transaction failed after {attempts} attempts: {e}");
                }
                log.failures.push(end_ns);
            }
        }
    }
    log
}

/// One attempt: begin, the workload's operations, commit; abort on error.
fn attempt<E: StoreEndpoint>(
    pn: &ProcessingNode<E>,
    level: IsolationLevel,
    schema: &Schema,
    params: &Params,
) -> Result<Option<(u32, u32)>> {
    let mut txn = span("core.begin", || pn.begin_at(level))?;
    match body(&mut txn, schema, params) {
        Ok(order) => span("core.commit", || txn.commit()).map(|()| order),
        Err(e) => {
            if txn.is_running() {
                span("core.abort", || txn.abort())?;
            }
            Err(e)
        }
    }
}

// ---------------------------------------------------------------------------
// Process-wide clocks.

/// utime + stime of this process, µs. Kernel ticks are 10 ms (`CLK_TCK` is
/// 100 on Linux); a measured block holds hundreds of them.
fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th from there.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 =
        after_comm.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks * 10_000.0
}

fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

// ---------------------------------------------------------------------------
// From logs, spans and counters to named metrics.

fn report(
    opts: &Options,
    outcome: &Outcome,
    correct: bool,
    recover_s: f64,
    setup_s: f64,
) -> Report {
    let windows = outcome.timeline.windows();
    let in_window = |at: u64| within(&windows, at);
    let samples: Vec<&Sample> =
        outcome.logs.iter().flat_map(|l| &l.samples).filter(|s| in_window(s.end_ns)).collect();
    let failed =
        outcome.logs.iter().flat_map(|l| &l.failures).filter(|&&at| in_window(at)).count() as u64;
    let attempted = samples.len() as u64 + failed;

    let attempts: f64 = samples.iter().map(|s| f64::from(s.attempts)).sum();
    let mut notes = vec![
        metric("failed_share", failed as f64 / attempted.max(1) as f64, "share"),
        metric("latency_samples", samples.len() as f64, "count"),
        // Also a layer metric, but a traced run has fewer clients.
        metric("abort_share", 1.0 - samples.len() as f64 / attempts.max(1.0), "share"),
        // How close the unluckiest transaction came to MAX_ATTEMPTS.
        metric(
            "max_attempts",
            samples.iter().map(|s| f64::from(s.attempts)).fold(0.0, f64::max),
            "count",
        ),
    ];
    let metrics = if opts.traced {
        let spans = trace::clip(&trace::drain(), &windows);
        if let Some(path) = &opts.trace_out {
            let written = std::fs::File::create(path)
                .and_then(|f| trace::write_json(&spans, &mut std::io::BufWriter::new(f)));
            if let Err(e) = written {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
        layer_metrics(opts, outcome, &samples, &spans, recover_s, &mut notes)
    } else {
        end_to_end_metrics(outcome, &samples, setup_s)
    };
    Report {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        input_digest: input_digest(opts.workload, opts.seed),
    }
}

fn end_to_end_metrics(outcome: &Outcome, samples: &[&Sample], setup_s: f64) -> Vec<Metric> {
    let marks = &outcome.timeline.marks;
    let latencies: Vec<(u64, f64)> =
        samples.iter().map(|s| (s.end_ns, s.latency_ns as f64 / 1e3)).collect();
    let blocks = split_blocks(&latencies, &outcome.timeline.edges());
    let block_s = |i: usize| (marks[i + 1].at_ns - marks[i].at_ns) as f64 / 1e9;
    let block_cpu_us = |i: usize| marks[i + 1].cpu_us - marks[i].cpu_us;
    // One value per block, printed so a disturbed run can be told from a
    // slow one, then reduced to the median block.
    let per_block = |name: &'static str, unit: &'static str, f: &dyn Fn(usize, &[f64]) -> f64| {
        let values: Vec<f64> = blocks.iter().enumerate().map(|(i, b)| f(i, b)).collect();
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
        eprintln!("{name} by block: {}", shown.join(" "));
        metric(name, median(&values), unit)
    };
    let cpu_per_commit = |i: usize, b: &[f64]| block_cpu_us(i) / b.len().max(1) as f64;
    vec![
        per_block("commits_per_s", "1/s", &|i, b| b.len() as f64 / block_s(i)),
        per_block("txn_p50_us", "us", &|_, b| percentile(b, 0.50)),
        per_block("txn_p95_us", "us", &|_, b| percentile(b, 0.95)),
        per_block("cpu_us_per_commit", "us", &cpu_per_commit),
        metric("rss_after_load_mb", outcome.rss_mb, "MB"),
        metric("setup_s", setup_s, "s"),
    ]
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counters.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v as f64)
}

fn layer_metrics(
    opts: &Options,
    outcome: &Outcome,
    samples: &[&Sample],
    spans: &[trace::Span],
    recover_s: f64,
    notes: &mut Vec<Metric>,
) -> Vec<Metric> {
    let timeline = &outcome.timeline;
    let commits = samples.len().max(1) as f64;
    let window_us = seconds_in(&timeline.windows()) * 1e6;

    let totals = trace::totals(spans);
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let sum = |names: &[&str]| {
        names.iter().map(|n| of(n)).fold(NameTotal::default(), |a, b| NameTotal {
            count: a.count + b.count,
            total_ns: a.total_ns + b.total_ns,
            self_ns: a.self_ns + b.self_ns,
        })
    };
    // µs per committed transaction.
    let per = |ns: u64| ns as f64 / 1e3 / commits;
    let core = sum(&["core.begin", "core.read", "core.write", "core.commit", "core.abort"]);
    let store_calls = sum(&STORE_CALLS);
    let cm_calls = sum(&["pn.cm_start", "pn.cm_complete"]);
    let calls = store_calls.count + cm_calls.count;
    let served_ns = of("sn.serve").total_ns + of("cm.serve").total_ns;
    let transport_ns = (store_calls.total_ns + cm_calls.total_ns).saturating_sub(served_ns);

    // Counted over the traced blocks only.
    let delta = |name: &str| -> f64 {
        let blocks = timeline.blocks(false);
        blocks.map(|(from, to)| counter(&to.counters, name) - counter(&from.counters, name)).sum()
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hit_ratio = |hits: &str, misses: &str| ratio(delta(hits), delta(hits) + delta(misses));

    let attempts: f64 = samples.iter().map(|s| f64::from(s.attempts)).sum();
    let aborted_ns: u64 = samples.iter().map(|s| s.aborted_ns).sum();
    let mut latencies: Vec<f64> = samples.iter().map(|s| s.latency_ns as f64 / 1e3).collect();
    latencies.sort_by(f64::total_cmp);

    // Budget: what the client threads' wall time per commit went to. Every
    // wait is synchronous and nested, and `rpc.transport_us` is defined as
    // what is left of a client's call once the server's serve time is taken
    // out, so the parts add up to the mean by construction: the table says
    // where the time went, it is not a check.
    let mean_txn_us = opts.clients() as f64 * window_us / commits;
    let driver_us = mean_txn_us - per(core.total_ns);
    let parts = [
        ("bench.driver_us", driver_us),
        ("core.self_us", per(core.self_ns)),
        ("rpc.transport_us", per(transport_ns)),
        ("store.self_us", per(of("sn.serve").self_ns)),
        ("commitmgr.self_us", per(of("cm.serve").self_ns)),
        ("durable.record_us", per(of("durable.record").total_ns)),
        ("durable.sync_us", per(of("durable.sync").total_ns)),
    ];
    eprintln!("budget {}: mean txn {mean_txn_us:.1} us =", opts.workload.name());
    for (name, us) in parts {
        eprintln!("  {name:<20} {us:>10.1} us  {:>5.1} %", 100.0 * us / mean_txn_us);
    }

    let all_samples = || outcome.logs.iter().flat_map(|l| &l.samples);
    let reference: Vec<(u64, u64)> =
        timeline.blocks(true).map(|(from, to)| (from.at_ns, to.at_ns)).collect();
    let reference_commits = all_samples().filter(|s| within(&reference, s.end_ns)).count();
    let reference_rate = ratio(reference_commits as f64, seconds_in(&reference));
    let traced_rate = samples.len() as f64 / (window_us / 1e6);
    notes.push(metric("traced_commits_per_s", traced_rate, "1/s"));
    notes.push(metric("untraced_commits_per_s", reference_rate, "1/s"));

    // Since boot, like the log-byte and checkpoint counters: load, warm-up
    // and every block.
    let end = timeline.marks.last().expect("a run has marks");
    let log_bytes = counter(&end.counters, "durable_log_append_bytes_total");
    let commits_since_boot = all_samples().filter(|s| s.end_ns < end.at_ns).count() as u64;
    let user_bytes =
        outcome.schema.loaded_bytes + commits_since_boot * opts.workload.user_bytes_per_commit();

    vec![
        metric("core.begin_us", per(of("core.begin").total_ns), "us"),
        metric("core.read_us", per(of("core.read").total_ns), "us"),
        metric("core.write_us", per(of("core.write").total_ns), "us"),
        metric("core.commit_us", per(of("core.commit").total_ns), "us"),
        metric("core.abort_us", per(aborted_ns), "us"),
        metric("core.self_us", per(core.self_ns), "us"),
        metric("core.record_call_us", per(of("pn.record").total_ns), "us"),
        metric("core.record_calls_per_commit", of("pn.record").count as f64 / commits, "count"),
        metric("core.txnlog_call_us", per(of("pn.txnlog").total_ns), "us"),
        metric("core.attempts_per_commit", attempts / commits, "count"),
        metric("core.abort_share", ratio(attempts - samples.len() as f64, attempts), "share"),
        metric("core.txn_p99_us", percentile(&latencies, 0.99), "us"),
        metric("core.txn_p999_us", percentile(&latencies, 0.999), "us"),
        metric("core.txn_max_us", latencies.last().copied().unwrap_or(0.0), "us"),
        metric(
            "core.buffer_hit_ratio",
            hit_ratio("buffer_hits_total", "buffer_misses_total"),
            "share",
        ),
        metric("index.node_call_us", per(of("pn.index").total_ns), "us"),
        metric("index.node_calls_per_commit", of("pn.index").count as f64 / commits, "count"),
        metric(
            "index.cache_hit_ratio",
            hit_ratio("index_cache_hits_total", "index_cache_misses_total"),
            "share",
        ),
        metric("commitmgr.start_call_us", per(of("pn.cm_start").total_ns), "us"),
        metric("commitmgr.complete_call_us", per(of("pn.cm_complete").total_ns), "us"),
        metric("commitmgr.serve_us", per(of("cm.serve").total_ns), "us"),
        metric("commitmgr.publish_call_us", per(of("cm.publish").total_ns), "us"),
        metric("commitmgr.self_us", per(of("cm.serve").self_ns), "us"),
        metric("rpc.frames_per_commit", delta("rpc_client_frames_out_total") / commits, "count"),
        metric(
            "rpc.bytes_per_commit",
            (delta("rpc_client_bytes_out_total") + delta("rpc_client_bytes_in_total")) / commits,
            "B",
        ),
        metric(
            "rpc.batch_ops_per_frame",
            ratio(delta("rpc_req_batch_inner_ops_total"), delta("rpc_req_batch_total")),
            "count",
        ),
        metric(
            "rpc.reactor_wakeups_per_commit",
            delta("rpc_reactor_wakeups_total") / commits,
            "count",
        ),
        metric("rpc.transport_us", per(transport_ns), "us"),
        metric("rpc.transport_us_per_call", ratio(transport_ns as f64 / 1e3, calls as f64), "us"),
        metric("store.serve_us", per(of("sn.serve").total_ns), "us"),
        metric("store.self_us", per(of("sn.serve").self_ns), "us"),
        metric("store.read_ops_per_commit", delta("store_read_ops_total") / commits, "count"),
        metric("store.write_ops_per_commit", delta("store_write_ops_total") / commits, "count"),
        metric("store.bytes_per_user_byte", outcome.store_bytes_per_user_byte, "ratio"),
        metric("durable.record_us", per(of("durable.record").total_ns), "us"),
        metric("durable.sync_us", per(of("durable.sync").total_ns), "us"),
        metric("durable.records_per_commit", delta("durable_log_appends_total") / commits, "count"),
        metric("durable.fsyncs_per_commit", delta("durable_fsyncs_total") / commits, "count"),
        metric("durable.log_bytes_per_user_byte", ratio(log_bytes, user_bytes as f64), "ratio"),
        metric("durable.checkpoints", counter(&end.counters, "durable_checkpoints_total"), "count"),
        metric("durable.recover_s", recover_s, "s"),
        metric("obs.lock_wait_us", delta("lock_wait_us_total") / commits, "us"),
        metric(
            "obs.lock_contended_per_kcommit",
            1e3 * delta("lock_contended_total") / commits,
            "count",
        ),
        metric("bench.driver_us", driver_us, "us"),
        metric("trace.overhead_share", 1.0 - ratio(traced_rate, reference_rate), "share"),
    ]
}
