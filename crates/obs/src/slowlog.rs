//! Threshold-based slow-operation logging.
//!
//! When a named operation exceeds the configured budget, one structured
//! JSON line is emitted (stderr by default) carrying the operation name,
//! the elapsed time, the budget, and the originating trace id — enough to
//! grep a storage node's log for the transaction that stalled. The budget
//! starts from the `TELL_SLOW_OP_US` environment variable and can be
//! changed at runtime; unset means slow-op logging is off.
//!
//! Emission is **rate limited per thread** by a token bucket
//! ([`set_rate_limit`]), so a pathological workload — every operation over
//! a tight budget — cannot turn the slow-op log into an I/O flood that
//! perturbs the very latencies it reports. Suppressed lines still count
//! the operation as slow (`Counter::SlowOps`, the `check*` return value)
//! and are tallied in `Counter::SlowlogSuppressed`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use crate::registry::Counter;
use crate::trace;

// f64 bits of the budget; 0 (== 0.0) means disabled.
static BUDGET_BITS: AtomicU64 = AtomicU64::new(0);
static ENV_INIT: Once = Once::new();

enum Sink {
    Stderr,
    Capture(Arc<Mutex<Vec<String>>>),
}

static SINK: Mutex<Sink> = Mutex::new(Sink::Stderr);

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var("TELL_SLOW_OP_US") {
            if let Ok(us) = v.trim().parse::<f64>() {
                if us > 0.0 {
                    BUDGET_BITS.store(us.to_bits(), Ordering::Relaxed);
                }
            }
        }
    });
}

/// The active budget in microseconds, or `None` when logging is off.
pub fn budget_us() -> Option<f64> {
    init_from_env();
    let bits = BUDGET_BITS.load(Ordering::Relaxed);
    if bits == 0 {
        None
    } else {
        Some(f64::from_bits(bits))
    }
}

/// Set (or with `None` / non-positive, clear) the slow-op budget.
pub fn set_budget_us(us: Option<f64>) {
    init_from_env(); // settle env handling so a later read cannot overwrite
    let bits = match us {
        Some(v) if v > 0.0 => v.to_bits(),
        _ => 0,
    };
    BUDGET_BITS.store(bits, Ordering::Relaxed);
}

/// Redirect slow-op lines into an in-memory buffer (for tests) and return
/// it. [`log_to_stderr`] restores the default.
pub fn capture() -> Arc<Mutex<Vec<String>>> {
    let buf = Arc::new(Mutex::new(Vec::new()));
    *SINK.lock() = Sink::Capture(buf.clone());
    buf
}

/// Route slow-op lines back to stderr (the default).
pub fn log_to_stderr() {
    *SINK.lock() = Sink::Stderr;
}

/// Default token-bucket refill rate: slow-op lines per second, per thread.
pub const DEFAULT_LINES_PER_SEC: f64 = 32.0;
/// Default token-bucket burst: lines a quiet thread may emit back to back.
pub const DEFAULT_BURST: f64 = 64.0;

/// `Some((per_sec, burst))`, or `None` for unlimited. Read only on the
/// already-slow emission path, so a mutex is fine.
static LIMIT: Mutex<Option<(f64, f64)>> = Mutex::new(Some((DEFAULT_LINES_PER_SEC, DEFAULT_BURST)));

thread_local! {
    /// This thread's bucket: (tokens, last refill). `None` until first use.
    static BUCKET: Cell<Option<(f64, Instant)>> = const { Cell::new(None) };
}

/// Set the per-thread emission rate limit: `Some((lines_per_sec, burst))`,
/// or `None` to emit every slow-op line. The default is
/// ([`DEFAULT_LINES_PER_SEC`], [`DEFAULT_BURST`]).
pub fn set_rate_limit(limit: Option<(f64, f64)>) {
    *LIMIT.lock() = limit.map(|(r, b)| (r.max(0.0), b.max(1.0)));
}

/// Take one emission token, refilling by elapsed wall time. Returns `false`
/// when this thread is over its budget and the line must be suppressed.
fn try_take_token() -> bool {
    let Some((per_sec, burst)) = *LIMIT.lock() else {
        return true;
    };
    BUCKET.with(|cell| {
        let now = Instant::now();
        let tokens = match cell.get() {
            // clamp to the current burst first, so shrinking the limit at
            // runtime takes effect immediately
            Some((t, last)) => {
                (t.min(burst) + now.duration_since(last).as_secs_f64() * per_sec).min(burst)
            }
            None => burst,
        };
        if tokens >= 1.0 {
            cell.set(Some((tokens - 1.0, now)));
            true
        } else {
            cell.set(Some((tokens, now)));
            false
        }
    })
}

/// Check one completed operation against the budget. Over budget: emit a
/// JSON line carrying this thread's current trace id, bump
/// [`Counter::SlowOps`], and return `true`.
pub fn check(op: &str, elapsed_us: f64) -> bool {
    check_closing(op, elapsed_us, None, &[])
}

/// [`check`] for an operation that closes a span: over budget, the line
/// additionally carries the closing span's id and a per-phase duration
/// breakdown (`"phases":{"txn.read":12.5,…}`, omitted when empty) so a slow
/// transaction is attributable without a span scrape.
pub fn check_closing(
    op: &str,
    elapsed_us: f64,
    span: Option<u64>,
    phases: &[(&'static str, f64)],
) -> bool {
    let Some(budget) = budget_us() else {
        return false;
    };
    if elapsed_us <= budget {
        return false;
    }
    // The operation is slow regardless of whether the line makes it out.
    crate::registry::global().incr(Counter::SlowOps);
    if !try_take_token() {
        crate::registry::global().incr(Counter::SlowlogSuppressed);
        return true;
    }
    let ts_us =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0);
    let trace = match trace::current() {
        Some(t) => format!("\"{}\"", trace::fmt_trace(t)),
        None => "null".to_string(),
    };
    let span = match span {
        Some(s) => format!("\"{s:016x}\""),
        None => "null".to_string(),
    };
    let mut breakdown = String::new();
    if !phases.is_empty() {
        breakdown.push_str(",\"phases\":{");
        for (i, (name, us)) in phases.iter().enumerate() {
            if i > 0 {
                breakdown.push(',');
            }
            let us = if us.is_finite() { *us } else { 0.0 };
            let _ = std::fmt::Write::write_fmt(&mut breakdown, format_args!("\"{name}\":{us:?}"));
        }
        breakdown.push('}');
    }
    // While the profiler runs, attach the top frames its sampler observed
    // on this thread during the op's window — ties the slow-op line to the
    // flamegraph with zero cost when the profiler is off (one relaxed
    // load inside `top_frames_in_window`).
    let frames = crate::prof::top_frames_in_window(elapsed_us, 3);
    if !frames.is_empty() {
        breakdown.push_str(",\"frames\":[");
        for (i, (name, _)) in frames.iter().enumerate() {
            if i > 0 {
                breakdown.push(',');
            }
            let _ = std::fmt::Write::write_fmt(&mut breakdown, format_args!("\"{name}\""));
        }
        breakdown.push(']');
    }
    let line = format!(
        "{{\"kind\":\"slow_op\",\"op\":\"{op}\",\"elapsed_us\":{elapsed_us:?},\
         \"budget_us\":{budget:?},\"trace\":{trace},\"span\":{span}{breakdown},\"ts_us\":{ts_us}}}"
    );
    match &*SINK.lock() {
        Sink::Stderr => eprintln!("{line}"),
        Sink::Capture(buf) => buf.lock().push(line),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole module: budget, sink, and trace field
    // are process-global state, so parallel tests would race.
    #[test]
    fn slow_ops_are_logged_with_trace_and_budget_is_respected() {
        let buf = capture();
        set_budget_us(Some(100.0));

        // Under budget: nothing logged.
        assert!(!check("txn.install", 50.0));
        assert!(buf.lock().is_empty());

        // Over budget with a trace attached.
        let _g = trace::TraceGuard::enter(0xabcd);
        assert!(check("txn.install", 250.0));
        {
            let lines = buf.lock();
            assert_eq!(lines.len(), 1);
            assert!(lines[0].contains("\"op\":\"txn.install\""));
            assert!(lines[0].contains("\"elapsed_us\":250.0"));
            assert!(lines[0].contains("\"trace\":\"000000000000abcd\""));
        }
        drop(_g);

        // Without a trace the field is null; ditto the span on plain check.
        assert!(check("net.exchange", 300.0));
        assert!(buf.lock()[1].contains("\"trace\":null"));
        assert!(buf.lock()[1].contains("\"span\":null"));
        assert!(!buf.lock()[1].contains("\"phases\""));

        // A closing check carries the span id and the phase breakdown.
        assert!(check_closing(
            "txn",
            400.0,
            Some(0xfeed),
            &[("txn.read", 120.5), ("txn.install", 33.0)],
        ));
        {
            let lines = buf.lock();
            let last = lines.last().unwrap();
            assert!(last.contains("\"span\":\"000000000000feed\""));
            assert!(last.contains("\"phases\":{\"txn.read\":120.5,\"txn.install\":33.0}"));
        }

        // Disabled: nothing logged regardless of elapsed time.
        set_budget_us(None);
        assert!(!check("txn.install", 1e9));
        assert_eq!(buf.lock().len(), 3);

        // Rate limiting: zero refill + burst of 2 means the third
        // consecutive slow op is suppressed — still reported slow and
        // counted, just not logged.
        set_budget_us(Some(100.0));
        set_rate_limit(Some((0.0, 2.0)));
        let suppressed_before = crate::global().counter(Counter::SlowlogSuppressed);
        let len_before = buf.lock().len();
        assert!(check("op.limited", 200.0));
        assert!(check("op.limited", 200.0));
        assert!(check("op.limited", 200.0));
        assert_eq!(buf.lock().len(), len_before + 2);
        assert_eq!(crate::global().counter(Counter::SlowlogSuppressed), suppressed_before + 1);
        // Unlimited: every line goes out again.
        set_rate_limit(None);
        assert!(check("op.unlimited", 200.0));
        assert_eq!(buf.lock().len(), len_before + 3);

        set_rate_limit(Some((DEFAULT_LINES_PER_SEC, DEFAULT_BURST)));
        set_budget_us(None);
        log_to_stderr();
    }
}
