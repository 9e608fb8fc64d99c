//! Asynchronous submission surface: operations, handles and results.
//!
//! The paper's PNs issue storage requests asynchronously and aggressively
//! batch small messages into few large ones (§5.1); a strictly blocking
//! client API cannot express either. [`StoreOp`] reifies the point
//! operations of `StoreApi` as values, so a client can *submit* work and
//! collect it later through an [`OpHandle`]: `submit(op) -> OpHandle` is
//! the one point-operation entry, `OpHandle::wait()` the join, and every
//! blocking point method of `StoreApi` is the two in a row. Remote
//! clients coalesce every operation outstanding in the same submission
//! window into one wire frame; the local simulated client completes
//! immediately (its batching already happens in virtual-time accounting).
//!
//! There is no async runtime here — handles are deliberately plain values
//! resolved by a [`BatchDriver`], which keeps the whole workspace on
//! std-only threads as PR 1 established.

use std::rc::Rc;

use bytes::Bytes;
use tell_common::{Error, Result};

use crate::cell::Token;
use crate::client::WriteOp;
use crate::keys::Key;

/// A point operation submitted asynchronously. Scans are not included:
/// they are bulk transfers whose payload dominates framing, so batching
/// them buys nothing (§5.1 targets small messages).
#[derive(Clone, Debug, PartialEq)]
pub enum StoreOp {
    /// Load-link one key.
    Get {
        /// Key to read.
        key: Key,
    },
    /// Batched load-link, order-preserving.
    MultiGet {
        /// Keys to read.
        keys: Vec<Key>,
    },
    /// One conditional write (put / insert / SC / delete via `expect`).
    Write {
        /// The write to apply.
        op: WriteOp,
    },
    /// Batched conditional writes with independent per-op results.
    MultiWrite {
        /// The writes to apply.
        ops: Vec<WriteOp>,
    },
    /// Atomic fetch-and-add.
    Increment {
        /// Counter cell.
        key: Key,
        /// Amount to add.
        delta: u64,
    },
}

/// The completion of a [`StoreOp`], mirroring its shape.
#[derive(Clone, Debug, PartialEq)]
pub enum OpResult {
    /// Completion of [`StoreOp::Get`].
    Cell(Option<(Token, Bytes)>),
    /// Completion of [`StoreOp::MultiGet`].
    Cells(Vec<Option<(Token, Bytes)>>),
    /// Completion of [`StoreOp::Write`] (`None` for deletes).
    Written(Option<Token>),
    /// Completion of [`StoreOp::MultiWrite`].
    WriteResults(Vec<Result<Option<Token>>>),
    /// Completion of [`StoreOp::Increment`].
    Counter(u64),
}

impl OpResult {
    /// Extract a [`OpResult::Cell`]; any other shape is a protocol bug.
    pub fn into_cell(self) -> Result<Option<(Token, Bytes)>> {
        match self {
            OpResult::Cell(c) => Ok(c),
            other => Err(shape_error("Cell", &other)),
        }
    }

    /// Extract a [`OpResult::Cells`].
    pub fn into_cells(self) -> Result<Vec<Option<(Token, Bytes)>>> {
        match self {
            OpResult::Cells(c) => Ok(c),
            other => Err(shape_error("Cells", &other)),
        }
    }

    /// Extract a [`OpResult::Written`].
    pub fn into_written(self) -> Result<Option<Token>> {
        match self {
            OpResult::Written(t) => Ok(t),
            other => Err(shape_error("Written", &other)),
        }
    }

    /// Extract a [`OpResult::WriteResults`].
    pub fn into_write_results(self) -> Result<Vec<Result<Option<Token>>>> {
        match self {
            OpResult::WriteResults(r) => Ok(r),
            other => Err(shape_error("WriteResults", &other)),
        }
    }

    /// Extract a [`OpResult::Counter`].
    pub fn into_counter(self) -> Result<u64> {
        match self {
            OpResult::Counter(v) => Ok(v),
            other => Err(shape_error("Counter", &other)),
        }
    }
}

fn shape_error(wanted: &str, got: &OpResult) -> Error {
    let got = match got {
        OpResult::Cell(_) => "Cell",
        OpResult::Cells(_) => "Cells",
        OpResult::Written(_) => "Written",
        OpResult::WriteResults(_) => "WriteResults",
        OpResult::Counter(_) => "Counter",
    };
    Error::corrupt(format!("op completed with {got}, caller expected {wanted}"))
}

/// Resolves pending tickets. The remote client's submission window
/// implements this: the first `resolve` flushes every queued operation as
/// one batched frame and parks the per-op completions for later tickets.
pub trait BatchDriver {
    /// Produce the completion for `ticket`, flushing first if needed.
    fn resolve(&self, ticket: u64) -> Result<OpResult>;

    /// `ticket`'s handle was dropped unawaited: its operation still runs,
    /// but nobody will collect the completion, so the driver must not keep
    /// it. A driver that parks nothing has nothing to do.
    fn forget(&self, _ticket: u64) {}
}

enum HandleState {
    /// Completed at submission (local client, or submission-time error).
    Ready(Result<OpResult>),
    /// Outstanding in a driver's window.
    Pending { driver: Rc<dyn BatchDriver>, ticket: u64 },
    /// Handed to `wait`; nothing left to release on drop.
    Waited,
}

/// A submitted operation's future result. `wait` consumes the handle; an
/// unawaited handle is legal (the operation still executes and its
/// completion is discarded), so fire-and-forget writes need no ceremony.
pub struct OpHandle {
    state: HandleState,
}

impl OpHandle {
    /// A handle that completed at submission time.
    pub fn ready(result: Result<OpResult>) -> Self {
        OpHandle { state: HandleState::Ready(result) }
    }

    /// A handle resolved later by `driver` under `ticket`.
    pub fn pending(driver: Rc<dyn BatchDriver>, ticket: u64) -> Self {
        OpHandle { state: HandleState::Pending { driver, ticket } }
    }

    /// Block until the operation completes and return its result. For a
    /// window-batched handle this flushes *every* operation outstanding in
    /// the same window — one frame out, one back — then demultiplexes.
    pub fn wait(mut self) -> Result<OpResult> {
        match std::mem::replace(&mut self.state, HandleState::Waited) {
            HandleState::Ready(result) => result,
            HandleState::Pending { driver, ticket } => driver.resolve(ticket),
            HandleState::Waited => unreachable!("wait consumes the handle"),
        }
    }
}

impl Drop for OpHandle {
    fn drop(&mut self) {
        if let HandleState::Pending { driver, ticket } = &self.state {
            driver.forget(*ticket);
        }
    }
}

impl std::fmt::Debug for OpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            HandleState::Ready(r) => write!(f, "OpHandle::Ready({r:?})"),
            HandleState::Pending { ticket, .. } => write!(f, "OpHandle::Pending(ticket={ticket})"),
            HandleState::Waited => write!(f, "OpHandle::Waited"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn ready_handle_returns_its_result() {
        let h = OpHandle::ready(Ok(OpResult::Counter(7)));
        assert_eq!(h.wait().unwrap(), OpResult::Counter(7));
        let h = OpHandle::ready(Err(Error::Conflict));
        assert_eq!(h.wait().unwrap_err(), Error::Conflict);
    }

    #[test]
    fn typed_handles_reject_shape_mismatch() {
        let h = OpHandle::ready(Ok(OpResult::Cell(None)));
        assert!(matches!(h.wait().unwrap().into_counter().unwrap_err(), Error::Corrupt(_)));
        let h = OpHandle::ready(Ok(OpResult::Cell(None)));
        assert_eq!(h.wait().unwrap().into_cell().unwrap(), None);
    }

    #[derive(Default)]
    struct CountingDriver {
        calls: RefCell<u32>,
        forgotten: RefCell<Vec<u64>>,
    }

    impl BatchDriver for CountingDriver {
        fn resolve(&self, ticket: u64) -> Result<OpResult> {
            *self.calls.borrow_mut() += 1;
            Ok(OpResult::Counter(ticket))
        }

        fn forget(&self, ticket: u64) {
            self.forgotten.borrow_mut().push(ticket);
        }
    }

    #[test]
    fn pending_handle_resolves_through_its_driver() {
        let driver = Rc::new(CountingDriver::default());
        let h = OpHandle::pending(Rc::clone(&driver) as Rc<dyn BatchDriver>, 42);
        assert_eq!(h.wait().unwrap(), OpResult::Counter(42));
        assert_eq!(*driver.calls.borrow(), 1);
    }

    #[test]
    fn only_an_unawaited_pending_handle_is_forgotten_on_drop() {
        let driver = Rc::new(CountingDriver::default());
        let pending = |ticket| OpHandle::pending(Rc::clone(&driver) as Rc<dyn BatchDriver>, ticket);
        pending(1).wait().unwrap();
        drop(pending(2));
        drop(OpHandle::ready(Ok(OpResult::Counter(3))));
        assert_eq!(*driver.forgotten.borrow(), vec![2]);
    }
}
