//! `tell-store` — the shared record store.
//!
//! A from-scratch reimplementation of the storage substrate Tell runs on
//! (the paper uses RamCloud, §6.1): a strongly consistent, in-memory,
//! partitioned key-value store with
//!
//! * atomic `get`/`put` on single records,
//! * **LL/SC**: [`StoreApi::get`] is the load-link (it returns a store
//!   token alongside the value) and [`StoreApi::store_conditional`] is the
//!   store-conditional — it succeeds only if the token is unchanged. Tokens are
//!   partition-monotonic, so a delete/re-insert can never reuse a token and
//!   the ABA problem (§4.1) cannot occur,
//! * an atomic fetch-and-add counter primitive (tid/rid allocation),
//! * synchronous replication with configurable replication factor and
//!   transparent fail-over to replicas (§4.4.2),
//! * per-node memory capacity accounting (drives Fig 7's "3 SNs cannot hold
//!   the data" result),
//! * request **batching**: a multi-get / multi-write is one network
//!   exchange (§5.1 "Tell aggressively batches operations"),
//! * one write rule: every put and delete, alone or batched, in process
//!   or from the wire, is decided per op by
//!   [`StoreCluster::srv_multi_write`], and
//! * one range read, [`StoreCluster::srv_scan`], behind every scan form:
//!   `[start, end)`, either direction, a limit, and an optional
//!   serializable [`Predicate`] tested on the storage node before rows are
//!   merged (§5.2 selection pushdown).
//!
//! All network costs are charged in virtual time through
//! [`tell_netsim::NetMeter`]; the data structures themselves are real and
//! shared, so concurrent conflicts are genuine.

pub mod api;
pub mod cell;
pub mod client;
pub mod cluster;
pub mod durability;
pub mod keys;
pub mod node;
pub mod op;
pub mod predicate;

pub use api::{apply_writes, StoreApi, StoreEndpoint};
pub use cell::{Cell, Token};
pub use client::{Expect, StoreClient, WriteOp};
pub use cluster::{ScanRow, StoreCluster, StoreConfig};
pub use durability::{DurabilityProvider, NodeDurability, RecoveredNode, RecoveredPartition};
pub use keys::Key;
pub use op::{BatchDriver, OpHandle, OpResult, StoreOp};
pub use predicate::{CmpOp, Predicate};
