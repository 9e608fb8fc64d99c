//! One probe per instrumented site.
//!
//! A [`Site`] names one place the workspace measures — a transaction
//! phase, an RPC round trip, a server dispatch, a storage or durable-tier
//! operation. It is the single vocabulary of span waterfalls (the span
//! wire code), flamegraphs (the frame code and dotted name) and phase
//! histograms ([`Site::phase`]).
//!
//! A [`Probe`] is the one guard every site opens. It always pushes the
//! site's profiler frame (one relaxed store each way — the profiler's value
//! is seeing the unsampled majority). By the site's policy and the
//! transaction's [`Sample`] it also opens a span and feeds the site's phase
//! histogram, both from one pair of clock reads taking the larger of the
//! virtual and the wall delta: the virtual clock is what a simulated
//! network charge advances, the wall clock what a real TCP round trip
//! advances. An unsampled probe reads no clock at all. A trace root's
//! close decides whether the transaction's spans are kept: when it ran
//! over the slow-op budget ([`span::slow_budget_us`]), aborted on a
//! conflict, or was tick-sampled.

use std::cell::Cell;

use tell_common::{Error, Result};

use crate::prof::FrameGuard;
use crate::registry::{self, Counter, Phase};
use crate::span::{self, Span, SpanAttrs, SpanStatus, SpanTimer};
use crate::trace;

id_enum! {
    /// An instrumented site. Discriminants (declaration order) are the span
    /// wire code and the profiler's stack-table code; [`Site::name`] is the
    /// dotted name both render.
    #[repr(u8)]
    Site {
        /// Whole transaction, begin to completion (the root).
        Txn => "txn",
        /// Snapshot acquisition from the commit manager.
        TxnBegin => "txn.begin",
        /// Read-set fetch against storage.
        TxnRead => "txn.read",
        /// Write-set assembly and version checks on the PN.
        TxnValidate => "txn.validate",
        /// The conditional LL/SC multi-write round trip.
        TxnInstall => "txn.install",
        /// Commit-manager completion (`set_committed` / `set_aborted`).
        TxnCmComplete => "txn.cm_complete",
        /// One RPC request/response round trip, client side.
        RpcClientCall => "rpc.client_call",
        /// One frame decoded, dispatched, and answered, server side.
        RpcDispatch => "rpc.dispatch",
        /// One async submit-window flush (possibly many coalesced ops).
        BatchFlush => "rpc.batch_flush",
        /// One garbage-collection sweep.
        GcPass => "gc.pass",
        /// Storage-engine write application.
        StoreWrite => "store.write",
        /// Commit-manager state transition.
        CmApply => "cm.apply",
        /// Storage-engine read (get / multi-get) service.
        StoreRead => "store.read",
        /// Durable-tier log append.
        DurableAppend => "durable.append",
        /// Durable-tier fsync.
        DurableFsync => "durable.fsync",
        /// Synthetic profiler leaf: time blocked on a contended lock.
        LockWait => "lock.wait",
    }
}

impl Site {
    /// Decode a wire / stack-table code.
    pub fn from_u8(v: u8) -> Result<Site> {
        Site::ALL
            .get(v as usize)
            .copied()
            .ok_or_else(|| Error::corrupt(format!("unknown site {v}")))
    }

    /// Reverse of [`Site::name`].
    pub fn from_name(name: &str) -> Result<Site> {
        Site::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| Error::corrupt(format!("unknown site name {name:?}")))
    }

    /// The histogram a measured probe at this site feeds.
    pub fn phase(self) -> Option<Phase> {
        match self {
            Site::Txn => Some(Phase::TxnTotal),
            Site::TxnBegin => Some(Phase::Begin),
            Site::TxnRead => Some(Phase::ReadSetFetch),
            Site::TxnValidate => Some(Phase::Validate),
            Site::TxnInstall => Some(Phase::LlscInstall),
            Site::TxnCmComplete => Some(Phase::CmComplete),
            Site::GcPass => Some(Phase::GcCycle),
            _ => None,
        }
    }

    /// Whether a probe here may open a span now: never at the profile-only
    /// sites; for storage writes and commit-manager transitions only under
    /// a server dispatch (on the PN the transaction phase already covers
    /// them); everywhere else whenever a trace is current.
    fn records_spans(self) -> bool {
        match self {
            Site::StoreRead | Site::DurableAppend | Site::DurableFsync | Site::LockWait => false,
            Site::StoreWrite | Site::CmApply => span::in_server_dispatch(),
            _ => true,
        }
    }
}

/// How often a transaction times its phases into the histograms: 1 in
/// `PHASE_SAMPLE_EVERY` per worker thread. Phase histograms stay
/// statistically faithful while the common transaction reads no clock.
pub const PHASE_SAMPLE_EVERY: u32 = 32;

/// How often a fast transaction's span tree is kept: 1 in
/// `SPAN_SAMPLE_EVERY` per thread. Only these record spans while no slow-op
/// budget is armed; arming `TELL_SLOW_OP_US` makes every transaction record
/// so an over-budget trace keeps complete phase detail, but the rest are
/// still discarded at close.
pub const SPAN_SAMPLE_EVERY: u32 = 64;

thread_local! {
    static TICK: Cell<u32> = const { Cell::new(0) };
}

/// Which of a probe's optional measurements an operation takes part in:
/// `timed` feeds the phase histograms, `spans` records spans, `kept` keeps
/// the recorded trace even when it closes fast and clean. A transaction
/// draws one per begin ([`Probe::trace_root`]); work outside a transaction
/// passes [`Sample::ALL`] and leaves the rest to site policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    timed: bool,
    spans: bool,
    kept: bool,
}

impl Sample {
    /// Everything the site's policy allows.
    pub const ALL: Sample = Sample { timed: true, spans: true, kept: true };
    /// The profiler frame only.
    pub const NONE: Sample = Sample { timed: false, spans: false, kept: false };

    /// Advance this thread's tick — once per transaction, and only while
    /// the registry records. The first transaction on a fresh thread is
    /// timed and kept, which keeps tests and examples deterministic.
    fn next() -> Sample {
        if !registry::global().enabled() {
            return Sample::NONE;
        }
        let t = TICK.with(|c| {
            let t = c.get();
            c.set(t.wrapping_add(1));
            t
        });
        let kept = t.is_multiple_of(SPAN_SAMPLE_EVERY);
        Sample {
            timed: t.is_multiple_of(PHASE_SAMPLE_EVERY),
            spans: kept || span::slow_budget_us().is_some(),
            kept,
        }
    }
}

/// The guard an instrumented site opens (see the module docs). Dropping a
/// probe without [`finish`](Probe::finish)ing it pops its frame and
/// records nothing else.
#[must_use = "a probe measures the scope it lives in"]
pub struct Probe {
    site: Site,
    sample: Sample,
    frame: FrameGuard,
    /// Dispatch probes mark the thread as serving a frame: the flag to
    /// restore.
    server: Option<bool>,
    span: Option<SpanTimer>,
    start_virt: f64,
    /// Wall stamp at open; `None` when nothing measures.
    start_wall: Option<f64>,
    /// A trace root's pinned trace id (0 for every other probe).
    trace: u64,
}

impl Probe {
    /// Open a probe at `site` for work outside any transaction's sampling:
    /// every measurement the site's policy allows, no virtual clock.
    #[inline]
    pub fn enter(site: Site) -> Probe {
        Probe::sampled(site, Sample::ALL, 0.0)
    }

    /// Open a probe at `site` measuring what `sample` and the site's policy
    /// allow; `virt_us` is the caller's virtual clock now.
    #[inline]
    pub fn sampled(site: Site, sample: Sample, virt_us: f64) -> Probe {
        let mut probe = Probe {
            site,
            sample,
            frame: FrameGuard::enter(site),
            server: (site == Site::RpcDispatch).then(|| span::set_server_dispatch(true)),
            span: None,
            start_virt: virt_us,
            start_wall: None,
            trace: 0,
        };
        let timed = sample.timed && site.phase().is_some();
        let spans = sample.spans && site.records_spans();
        if !(timed || spans) || !registry::global().enabled() {
            return probe;
        }
        let trace = if spans { trace::recording() } else { None };
        if timed || trace.is_some() {
            let wall = span::wall_stamp();
            probe.start_wall = Some(wall);
            probe.span = trace.map(|t| SpanTimer::open(t, site, virt_us, span::epoch_us(wall)));
        }
        probe
    }

    /// Open a transaction's trace: draw the transaction's [`Sample`] from
    /// this thread's tick, pin a fresh trace id to this thread (recording
    /// when the sample records spans: only then does every RPC the
    /// transaction issues stamp it into the frame), and open the root
    /// probe at [`Site::Txn`]. Close it
    /// with [`finish_trace`](Probe::finish_trace); dropping it instead
    /// discards whatever the trace buffered and unpins it.
    pub fn trace_root(virt_us: f64) -> Probe {
        let sample = Sample::next();
        let trace = trace::next_trace_id();
        trace::set_current(Some(trace), sample.spans);
        let mut root = Probe::sampled(Site::Txn, sample, virt_us);
        root.trace = trace;
        root
    }

    /// The site this probe measures.
    pub fn site(&self) -> Site {
        self.site
    }

    /// The sample this probe measures under (a root's is its
    /// transaction's).
    pub fn sample(&self) -> Sample {
        self.sample
    }

    /// This probe's span id (0 when it records no span) — what a client
    /// call stamps into its frame for the server's dispatch span to parent
    /// onto.
    pub fn span_id(&self) -> u64 {
        self.span.as_ref().map_or(0, SpanTimer::id)
    }

    /// Split off the measuring half — span and clocks — into a probe that
    /// may finish later and elsewhere (a dispatch's reply callback), leaving
    /// this one holding only the frame and the dispatch scope.
    pub fn detach(&mut self) -> Probe {
        Probe {
            site: self.site,
            sample: self.sample,
            frame: FrameGuard::empty(),
            server: None,
            span: self.span.take(),
            start_virt: self.start_virt,
            start_wall: self.start_wall.take(),
            trace: 0,
        }
    }

    /// Close the probe: pop its frame and, if it measured, feed the
    /// histogram and buffer the span (`count` is the site's magnitude —
    /// records read, ops written). Returns the elapsed microseconds when
    /// something measured.
    pub fn finish(mut self, virt_us: f64, count: u32, status: SpanStatus) -> Option<f64> {
        self.close(virt_us, count, status)
    }

    /// Close a [`trace_root`](Probe::trace_root) probe and its trace.
    /// Tail-based retention: the trace's buffered spans are kept when it
    /// ran over the slow-op budget (counted in `slow_ops_total`), when
    /// `keep` (a conflict abort), or when the transaction was tick-sampled,
    /// and discarded otherwise; an unrecorded `keep` still leaves a
    /// synthesized root span in the ring. Unpins the trace.
    pub fn finish_trace(mut self, virt_us: f64, count: u32, status: SpanStatus, keep: bool) {
        let unrecorded = self.span.is_none();
        let slow = self
            .close(virt_us, count, status)
            .zip(span::slow_budget_us())
            .is_some_and(|(us, budget)| us > budget);
        if slow {
            registry::global_add(Counter::SlowOps, 1);
        }
        if keep && unrecorded && self.trace != 0 {
            // Nothing was recorded while the transaction ran, but the
            // abort must stay visible to a scrape. The wall start is
            // back-computed from the virtual elapsed time: an exact stamp
            // would put a clock read on every unsampled transaction.
            let end_wall_us = span::wall_now_us();
            let virt = (virt_us - self.start_virt).max(0.0);
            span::record_to_ring(Span {
                trace: self.trace,
                id: span::next_span_id(),
                parent: 0,
                kind: self.site,
                start_virt_us: self.start_virt,
                end_virt_us: virt_us,
                start_wall_us: end_wall_us.saturating_sub(virt as u64),
                end_wall_us,
                attrs: SpanAttrs { count, status },
            });
        }
        self.end_trace(slow || keep || self.sample.kept);
    }

    /// Pop the frame, then measure from the second clock read: returns the
    /// elapsed time.
    fn close(&mut self, virt_us: f64, count: u32, status: SpanStatus) -> Option<f64> {
        self.frame.pop();
        let start_wall = self.start_wall.take()?;
        let end_wall = span::wall_stamp();
        let elapsed = (virt_us - self.start_virt).max(end_wall - start_wall).max(0.0);
        if let Some(phase) = self.site.phase().filter(|_| self.sample.timed) {
            registry::global_observe(phase, elapsed);
        }
        if let Some(span) = self.span.take() {
            span.close(virt_us, span::epoch_us(end_wall), count, status);
        }
        Some(elapsed)
    }

    fn end_trace(&mut self, keep: bool) {
        if self.trace != 0 {
            span::settle_pending(keep);
            trace::set_current(None, false);
            self.trace = 0;
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.end_trace(false);
        if let Some(prev) = self.server {
            span::set_server_dispatch(prev);
        }
        // A server thread never learns how a trace ends, and GC sweeps are
        // rare: their spans skip tail retention and go straight to the
        // bounded ring.
        if matches!(self.site, Site::RpcDispatch | Site::GcPass) {
            span::settle_pending(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The code and dotted name of every site, as the span wire format,
    /// folded profiles and `parse_folded` have always spelled them.
    const GOLDEN: [(u8, &str); 16] = [
        (0, "txn"),
        (1, "txn.begin"),
        (2, "txn.read"),
        (3, "txn.validate"),
        (4, "txn.install"),
        (5, "txn.cm_complete"),
        (6, "rpc.client_call"),
        (7, "rpc.dispatch"),
        (8, "rpc.batch_flush"),
        (9, "gc.pass"),
        (10, "store.write"),
        (11, "cm.apply"),
        (12, "store.read"),
        (13, "durable.append"),
        (14, "durable.fsync"),
        (15, "lock.wait"),
    ];

    #[test]
    fn site_codes_and_names_are_pinned() {
        assert_eq!(Site::ALL.len(), GOLDEN.len());
        for (site, (code, name)) in Site::ALL.into_iter().zip(GOLDEN) {
            assert_eq!((site as u8, site.name()), (code, name));
            assert_eq!(Site::from_u8(code).unwrap(), site);
            assert_eq!(Site::from_name(name).unwrap(), site);
        }
        assert!(Site::from_u8(16).is_err());
        assert!(Site::from_name("no.such").is_err());
    }

    #[test]
    fn unsampled_probe_pushes_only_its_frame() {
        let trace = trace::next_trace_id();
        std::thread::spawn(move || {
            let _guard = trace::TraceGuard::enter(trace);
            let probe = Probe::sampled(Site::TxnRead, Sample::NONE, 0.0);
            assert_eq!(probe.span_id(), 0);
            assert!(probe.finish(5.0, 1, SpanStatus::Ok).is_none());
            let probe = Probe::sampled(Site::TxnRead, Sample::ALL, 0.0);
            assert_ne!(probe.span_id(), 0);
            assert!(probe.finish(5.0, 1, SpanStatus::Ok).unwrap() >= 5.0);
        })
        .join()
        .unwrap();
    }

    /// An armed budget makes every transaction record spans, but a fast,
    /// clean trace is kept only when the tick sampled it; an over-budget
    /// one is kept and counted.
    #[test]
    fn armed_budget_keeps_only_slow_or_sampled_traces() {
        let slow_before = registry::global().counter(Counter::SlowOps);
        span::set_slow_budget_us(Some(1e6));
        let (fast, slow) = std::thread::spawn(|| {
            let run = |end_virt_us: f64| {
                let root = Probe::trace_root(0.0);
                let trace = trace::current().unwrap();
                let child = Probe::sampled(Site::TxnRead, root.sample(), 0.0);
                assert_ne!(child.span_id(), 0, "an armed budget records every transaction");
                child.finish(1.0, 1, SpanStatus::Ok);
                root.finish_trace(end_virt_us, 0, SpanStatus::Ok, false);
                trace
            };
            let fast: Vec<u64> = (0..10).map(|_| run(1.0)).collect();
            (fast, run(2e6))
        })
        .join()
        .unwrap();
        span::set_slow_budget_us(None);
        let ring = span::global_ring().peek();
        let kept = fast.iter().filter(|&&t| ring.iter().any(|s| s.trace == t)).count();
        assert_eq!(kept, 1, "only the first (tick-sampled) fast trace is kept");
        let slow: Vec<&Span> = ring.iter().filter(|s| s.trace == slow).collect();
        assert!(slow.iter().any(|s| s.kind == Site::Txn && s.parent == 0), "{slow:?}");
        assert!(slow.iter().any(|s| s.kind == Site::TxnRead));
        assert!(registry::global().counter(Counter::SlowOps) > slow_before);
    }
}
