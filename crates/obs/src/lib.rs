//! Observability for the `tell-rs` workspace: one probe per instrumented
//! site feeding a sharded lock-free metrics registry, causal spans with
//! tail-based retention of slow transactions, and flame graphs folded from
//! those spans, plus wire-level trace propagation and snapshot exposition
//! in Prometheus text and JSON.
//!
//! The paper evaluates Tell entirely through observables — per-layer
//! latency (Table 4 mean ± σ, Table 5 TP99/TP999), abort rates, message
//! counts, GC pressure — so the reproduction needs the same measurements to
//! be first-class. Design rules:
//!
//! * **One site, one probe.** Every instrumented place is a [`Site`]: one
//!   code and one dotted name shared by spans and flame graphs, carrying
//!   its phase histogram. The site opens one [`Probe`], which — by site
//!   policy and the transaction's [`Sample`] (one per-thread tick per
//!   transaction) — opens the span and feeds the histogram from a single
//!   pair of `max(virtual, wall)` clock reads.
//! * **Hot path pays almost nothing.** Metric ids are enum discriminants
//!   indexing fixed arrays; counters are relaxed per-shard atomics;
//!   histograms sit behind per-shard mutexes that threads pinned to
//!   distinct shards never contend on. A disabled registry reduces every
//!   call to one relaxed load (`set_enabled(false)`), which is how
//!   `benches/micro.rs` bounds the overhead.
//! * **Snapshots pay the merge.** [`snapshot()`] walks every shard and merges
//!   counters and histograms into a [`MetricsSnapshot`], rendered with
//!   [`MetricsSnapshot::to_prometheus_text`] or [`MetricsSnapshot::to_json`].
//! * **Traces ride a thread-local.** [`Probe::trace_root`] mints and pins an
//!   id at transaction begin; `tell-rpc` stamps [`recording_trace`] into
//!   every outgoing frame of a transaction that records spans, and an
//!   unrecorded one sends no context at all.
//! * **Spans make traces causal.** A probe's span nests through a
//!   thread-local register and across the wire (the client-call span id
//!   rides the frame, [`TraceGuard::adopt`] installs it server-side), so a
//!   scrape of every node's [`span::global_ring`] reassembles into
//!   per-transaction waterfalls. Retention is tail-based: only traces over
//!   the slow-op budget ([`span::slow_budget_us`], `TELL_SLOW_OP_US`),
//!   conflict-aborted, or 1-in-N-sampled keep their spans, so a retained
//!   trace is the one record of a slow transaction.
//! * **History lives in rings.** A [`Rollup`] snapshots the registry every
//!   interval into a bounded [`TsRing`] of counter deltas, gauge samples,
//!   and per-phase p50/p99/p999 digests; `Request::Telemetry` scrapes it
//!   incrementally by cursor, and a [`HealthEngine`] evaluates declarative
//!   rules over the stream into deduplicated firing/resolved events.
//! * **Flame graphs fold spans.** [`export::fold_self_time`] turns the
//!   tick-sampled traces a scrape collects into a collapsed-stack
//!   [`CollapsedTable`] weighted in microseconds of self-time, on the wall
//!   clock for a live cluster or the virtual clock under tell-sim (where
//!   the fold is bit-reproducible). [`ProfMutex`] counts lock contention
//!   per named lock; the rows ride the [`MetricsSnapshot`].

/// A fixed namespace of ids: a fieldless enum whose discriminants index
/// arrays (and, for [`Site`], are the wire code), with its names and the
/// doc comments as one-line descriptions.
macro_rules! id_enum {
    ($(#[$em:meta])* $name:ident { $($(#[doc = $doc:literal])+ $variant:ident => $label:literal,)+ }) => {
        $(#[$em])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl $name {
            /// Number of ids in this namespace.
            pub const COUNT: usize = [$($name::$variant,)+].len();
            /// All ids in declaration order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$variant,)+];

            /// The id's name: for metrics the exposition name (Prometheus
            /// metric name without the `tell_` prefix), for sites the
            /// dotted name.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// One-line description (the doc comment above the id); metric
            /// ids render it as their Prometheus `# HELP` line.
            pub fn help(self) -> &'static str {
                match self {
                    $($name::$variant => {
                        let s: &'static str = concat!($($doc),+);
                        s.trim_start()
                    })+
                }
            }
        }
    };
}

pub mod export;
pub mod health;
pub mod probe;
pub mod prof;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use health::{HealthConfig, HealthEngine, HealthEvent, NodeTick, RuleKind};
pub use probe::{Probe, Sample, Site, PHASE_SAMPLE_EVERY, SPAN_SAMPLE_EVERY};
pub use prof::{CollapsedTable, LockStat, ProfMutex, ProfRwLock};
pub use registry::{global, help_for, Counter, Gauge, Phase, Registry};
pub use snapshot::MetricsSnapshot;
pub use span::{current_span, Span, SpanAttrs, SpanStatus};
pub use timeseries::{PhaseDigest, Rollup, TelemetryPage, TsPoint, TsRing};
pub use trace::{
    current as current_trace, fmt_trace, next_trace_id, recording as recording_trace, TraceGuard,
};

/// Add `n` to a counter in the global registry (this thread's shard ref is
/// cached, so the cost is one relaxed load plus one relaxed `fetch_add`).
#[inline]
pub fn add(c: Counter, n: u64) {
    registry::global_add(c, n);
}

/// Increment a counter in the global registry.
#[inline]
pub fn incr(c: Counter) {
    registry::global_add(c, 1);
}

/// Set a gauge in the global registry.
#[inline]
pub fn set_gauge(g: Gauge, v: u64) {
    global().set_gauge(g, v);
}

/// Record a histogram sample in the global registry.
#[inline]
pub fn observe(p: Phase, v: f64) {
    registry::global_observe(p, v);
}

/// Snapshot the global registry, with this process's per-lock contention
/// rows.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot { locks: prof::lock_snapshot(), ..global().snapshot() }
}

/// Enable or disable the global registry.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the global registry is recording.
pub fn enabled() -> bool {
    global().enabled()
}
