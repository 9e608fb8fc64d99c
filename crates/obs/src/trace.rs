//! Trace ids and their thread-local propagation.
//!
//! A trace id is a 64-bit token minted when a PN-originated unit of work
//! (normally a transaction attempt) begins. It rides a thread-local while
//! the work runs on the PN, and every RPC the thread issues stamps the
//! current id into the wire frame (see `tell_rpc::wire`), so the storage
//! and commit-manager sides of one transaction are attributable end-to-end.
//! Zero is reserved for "no trace".

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mint a fresh non-zero trace id, unique within this process and salted
/// with the pid so ids from different processes in one deployment do not
/// collide in practice.
pub fn next_trace_id() -> u64 {
    loop {
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(seq ^ ((std::process::id() as u64) << 32));
        if id != 0 {
            return id;
        }
    }
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

/// Attach (or with `None`, detach) a trace id to this thread.
pub fn set_current(t: Option<u64>) {
    CURRENT.with(|c| c.set(t.unwrap_or(0)));
}

/// Attach a trace id for a lexical scope; the previous id is restored on
/// drop, so nested traced scopes compose.
pub struct TraceGuard {
    prev: u64,
    /// The current-span register to restore, when [`TraceGuard::adopt`]
    /// replaced it.
    prev_span: Option<u64>,
}

impl TraceGuard {
    /// Set `t` as this thread's current trace id until the guard drops.
    pub fn enter(t: u64) -> Self {
        let prev = CURRENT.with(|c| c.replace(t));
        TraceGuard { prev, prev_span: None }
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
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn guard_restores_previous() {
        set_current(None);
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
    fn formatting_is_fixed_width_hex() {
        assert_eq!(fmt_trace(0xab), "00000000000000ab");
    }
}
