//! `tell-sim` — deterministic fault-schedule simulation with a
//! snapshot-isolation history checker (DESIGN.md §9).
//!
//! The paper's recovery story (§4.4) and its SI protocol (§4.1) are easy to
//! exercise by hand and hard to exercise *systematically*: the interesting
//! bugs live in interleavings of transactions with storage-node deaths,
//! commit-manager restarts, half-finished commits and garbage collection.
//! This crate searches that space reproducibly:
//!
//! * [`plan`] — a seed expands into a [`plan::FaultPlan`]: timed fault
//!   events (SN kill/revive, CM kill/restart-from-log, PN crash mid-commit,
//!   GC runs) over the virtual-time horizon.
//! * [`driver`] — a turn-based deterministic scheduler: worker threads run
//!   real [`tell_core::txn::Transaction`]s against a full in-process
//!   PN/SN/CM stack, but only one worker holds the *turn* at a time and the
//!   next turn always goes to the worker with the smallest virtual clock.
//!   Same seed, same interleaving, same history — bit for bit.
//! * [`history`] + [`checker`] — every transaction's begin/read/write/
//!   commit/abort is recorded (values encode the writer's tid) and the
//!   checker validates the whole run against the oracle for the isolation
//!   level the run executed at ([`checker::check_at`]): dirty-read freedom
//!   at read committed; snapshot consistency and no lost updates at
//!   non-monotonic SI; per-worker session order at SI; serialization-graph
//!   acyclicity at serializable — plus tid uniqueness, lav/base
//!   monotonicity, and post-GC reachability at every level.
//!
//! The SI oracle follows "A Critique of Snapshot Isolation" (lost update
//! forbidden, write skew admitted) and the per-history characterization of
//! "On the Semantics of Snapshot Isolation": each read must return the
//! *maximal committed version visible in the reader's snapshot*, and two
//! committed transactions writing the same key must not be mutually
//! invisible. The rule sets are strictly containing, so the checkers'
//! acceptance sets form a lattice — the differential tests in
//! `tests/proptest_isolation.rs` and `tests/isolation_matrix.rs` pin it
//! from both sides.
//!
//! Entry point: [`driver::run`] (or `examples/tell_sim.rs` for the CLI with
//! seed replay and fault-plan shrinking).

pub mod checker;
pub mod driver;
pub mod history;
pub mod plan;

pub use checker::{check, check_at, CheckStats, Violation};
pub use driver::{run, run_with_plan, shrink_plan, SimConfig, SimOutcome, SimStats, SimTelemetry};
pub use history::{History, LavScrape, TxnRecord};
pub use plan::{FaultEvent, FaultKind, FaultMix, FaultPlan};
