//! Trace ids and their thread-local propagation.
//!
//! A trace id is a 64-bit token minted when a PN-originated unit of work
//! (normally a transaction attempt) begins. It rides a thread-local while
//! the work runs on the PN. When the work records spans, every RPC the
//! thread issues stamps the id into the wire frame (see `tell_rpc::wire`),
//! so the storage and commit-manager sides of one transaction are
//! attributable end-to-end; an unrecorded transaction keeps its id pinned
//! (a conflict abort still names it) but sends no context, so no server
//! records spans for it. Zero is reserved for "no trace".

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Whether the work under `CURRENT` records spans.
    static RECORDS: Cell<bool> = const { Cell::new(false) };
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mint a fresh non-zero trace id, unique within this process and salted
/// with the pid so ids from different processes in one deployment do not
/// collide in practice. The low bit is the tick mark (see [`tick_kept`]).
pub fn next_trace_id(tick_kept: bool) -> u64 {
    loop {
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(seq ^ ((std::process::id() as u64) << 32)) & !1 | u64::from(tick_kept);
        if id != 0 {
            return id;
        }
    }
}

/// Whether the per-thread 1-in-[`crate::SPAN_SAMPLE_EVERY`] tick kept
/// trace `t`, whatever else happened to it. Traces kept for running slow
/// or aborting on a conflict are a biased sample of where time goes; a
/// flame graph folds only tick-kept ones. The mark is the id's low bit, and
/// the id rides every frame, so the spans a server records for the trace
/// carry it too.
pub fn tick_kept(t: u64) -> bool {
    t & 1 == 1
}

/// The trace id attached to work on this thread, if any.
pub fn current() -> Option<u64> {
    let v = CURRENT.with(Cell::get);
    if v == 0 {
        None
    } else {
        Some(v)
    }
}

/// The trace id attached to work on this thread when that work records
/// spans: what probes open spans under and what an RPC stamps into its
/// frame.
pub fn recording() -> Option<u64> {
    if RECORDS.with(Cell::get) {
        current()
    } else {
        None
    }
}

/// Attach (or with `None`, detach) a trace id to this thread; `records`
/// says whether the work under it records spans (see [`recording`]).
pub fn set_current(t: Option<u64>, records: bool) {
    CURRENT.with(|c| c.set(t.unwrap_or(0)));
    RECORDS.with(|r| r.set(records));
}

/// Attach a trace id for a lexical scope; the previous id is restored on
/// drop, so nested traced scopes compose.
pub struct TraceGuard {
    prev: u64,
    prev_records: bool,
    /// The current-span register to restore, when [`TraceGuard::adopt`]
    /// replaced it.
    prev_span: Option<u64>,
}

impl TraceGuard {
    /// Set `t` as this thread's current, recording trace id until the
    /// guard drops.
    pub fn enter(t: u64) -> Self {
        let prev = CURRENT.with(|c| c.replace(t));
        let prev_records = RECORDS.with(|r| r.replace(true));
        TraceGuard { prev, prev_records, prev_span: None }
    }

    /// Adopt a trace that arrived on the wire: `t` becomes this thread's
    /// trace and `parent_span` (the remote caller's span, 0 = none) the
    /// parent of the spans opened here, until the guard drops.
    pub fn adopt(t: u64, parent_span: u64) -> Self {
        let mut guard = TraceGuard::enter(t);
        guard.prev_span = Some(crate::span::swap_current_span(parent_span));
        guard
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        RECORDS.with(|r| r.set(self.prev_records));
        if let Some(span) = self.prev_span {
            crate::span::swap_current_span(span);
        }
    }
}

/// Canonical rendering of a trace id: 16 lowercase hex digits.
pub fn fmt_trace(t: u64) -> String {
    format!("{t:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = next_trace_id(false);
        let b = next_trace_id(false);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        assert!(!tick_kept(a) && !tick_kept(b));
        assert!(tick_kept(next_trace_id(true)));
    }

    #[test]
    fn guard_restores_previous() {
        set_current(None, false);
        assert_eq!(current(), None);
        {
            let _g = TraceGuard::enter(7);
            assert_eq!(current(), Some(7));
            {
                let _inner = TraceGuard::enter(9);
                assert_eq!(current(), Some(9));
            }
            assert_eq!(current(), Some(7));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn an_unrecorded_trace_is_current_but_not_recording() {
        set_current(Some(5), false);
        assert_eq!((current(), recording()), (Some(5), None));
        {
            let _g = TraceGuard::enter(7);
            assert_eq!(recording(), Some(7));
        }
        assert_eq!((current(), recording()), (Some(5), None));
        set_current(None, false);
    }

    #[test]
    fn formatting_is_fixed_width_hex() {
        assert_eq!(fmt_trace(0xab), "00000000000000ab");
    }
}
