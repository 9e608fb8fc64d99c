//! `tell-durable` — the log-structured persistence tier for storage nodes.
//!
//! The paper's shared-data design (§3–4) makes storage nodes the durable
//! substrate processing nodes are rebuilt from, but `tell-store` alone is
//! pure in-memory: durability there is only replication, so losing every
//! copy-holder of a partition loses data. This crate adds the missing
//! tier, in the style main-memory engines pair with their RAM path
//! (Hekaton's log + checkpoint recovery): each storage node gets
//!
//! * an **append-only segment log** with CRC-framed records
//!   ([`segment`]), rotated at a size threshold, each file named by its
//!   monotonic `seg_seq`,
//! * **periodic checkpoints** that write the live set and commit through an
//!   atomically-replaced manifest ([`manifest`]), and
//! * **restart recovery** that loads the checkpoint and replays strictly
//!   newer segments, truncating a torn tail in the newest one ([`engine`]).
//!
//! The engine is a log, not a second store: `tell-store` keeps every
//! partition copy in RAM and serves every read, so the engine only writes
//! in normal operation and reads its files only at recovery. Its index
//! holds each live `Cell` as a refcounted clone of the bytes the store
//! already holds, which is what checkpoints are written from.
//!
//! It plugs into `tell-store` behind the [`tell_store::durability`] traits:
//! [`FsDurability`] is the provider a cluster is configured with, and the
//! default `None` keeps the pure in-memory path byte-for-byte unchanged.

pub mod engine;
pub mod manifest;
pub mod segment;

pub use engine::{DurableNode, DurableNodeConfig, FsDurability, FsyncPolicy};
pub use manifest::Manifest;
pub use segment::{crc32, LogRecord};
