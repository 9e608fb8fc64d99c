//! The durability seam between the in-memory store and a persistence tier.
//!
//! `tell-store` keeps every partition copy in RAM; durability is an
//! optional tier *behind* it (the paper's storage nodes are the durable
//! substrate PNs are rebuilt from, §3). A [`DurabilityProvider`] opens one
//! [`NodeDurability`] engine per storage node: the cluster feeds it every
//! acked mutation, and on a cold restart the provider hands back the
//! recovered partition images so the node rejoins with exactly the prefix
//! of writes it durably acknowledged.
//!
//! The trait objects keep the dependency direction clean: `tell-durable`
//! implements these traits on its log-structured engine, while the default
//! `None` provider preserves the pure in-memory behavior (and benches)
//! unchanged.

use std::sync::Arc;

use bytes::Bytes;
use tell_common::{Result, SnId};

use crate::cell::Cell;

/// Per-node durability engine: the write-ahead side of the seam.
///
/// The cluster hands an engine every record of one storage request in a
/// single [`NodeDurability::record_all`], so an engine that fsyncs pays one
/// sync per request, not one per record. It calls it while the written
/// partitions' master copies are still write-locked, and only unlocks once
/// it returned: a cell that readers could see before its record is durable
/// could be read, lost in a crash, and its LL/SC token handed out again
/// after a restart from the log — and a store-conditional against the
/// stale read would then succeed.
///
/// The seam has no read method: the cluster serves every read from its RAM
/// copies and only reads an engine's state back through
/// [`DurabilityProvider::open_node`]. An engine may keep, in RAM, the live
/// map its log would recover (the file engine does, to write checkpoints
/// from). That map covers every partition recorded on the node since it
/// opened, including one whose RAM copy has since moved off the node, until
/// the next restart.
pub trait NodeDurability: Send + Sync + std::fmt::Debug {
    /// Persist one acked mutation: `key` in partition `pid` now holds
    /// `cell` (`None` = delete) at partition mutation sequence `seq`.
    /// Returning `Ok` means the write is durable to the engine's configured
    /// fsync policy.
    fn record(&self, pid: u32, seq: u64, key: &Bytes, cell: Option<&Cell>) -> Result<()>;

    /// Persist several mutations, each as [`NodeDurability::record`] takes
    /// it, in order. Returning `Ok` means *every* record is durable to the
    /// engine's fsync policy; on `Err` the caller treats all of them as
    /// failed. The default records one at a time, which is right for a
    /// wrapper (a tracing shim, a test double) that forwards to an engine
    /// by record; an engine that syncs implements it to sync once.
    fn record_all(&self, records: &[(u32, u64, &Bytes, Option<&Cell>)]) -> Result<()> {
        records.iter().try_for_each(|&(pid, seq, key, cell)| self.record(pid, seq, key, cell))
    }

    /// Force everything recorded so far to stable storage.
    fn sync(&self) -> Result<()>;

    /// Re-align partition `pid`'s log with a snapshot taken from a fresh
    /// copy: after this, recovery must yield exactly `entries` at
    /// `applied_seq`. Called when a revived node re-syncs in RAM from a
    /// peer — its log missed those mutations (including deletes), so the
    /// engine logs the delta itself.
    fn reset_partition(&self, pid: u32, applied_seq: u64, entries: &[(Bytes, Cell)]) -> Result<()>;
}

/// Factory for per-node engines, plus the recovery entry point.
pub trait DurabilityProvider: Send + Sync + std::fmt::Debug {
    /// Open (or re-open) the engine for `node`, replaying its on-disk state.
    /// A fresh data dir yields an engine with no recovered partitions.
    fn open_node(&self, node: SnId) -> Result<RecoveredNode>;
}

/// What a provider recovered for one storage node.
pub struct RecoveredNode {
    /// The live engine to feed subsequent mutations into.
    pub engine: Arc<dyn NodeDurability>,
    /// Recovered partition images (empty on a fresh data dir).
    pub partitions: Vec<RecoveredPartition>,
}

/// One partition copy's recovered image.
pub struct RecoveredPartition {
    /// Logical partition id.
    pub pid: u32,
    /// The partition mutation sequence this image is current through.
    pub applied_seq: u64,
    /// Highest LL/SC token observed, so the partition's token counter can
    /// restart strictly above every recovered cell.
    pub max_token: u64,
    /// Live entries.
    pub entries: Vec<(Bytes, Cell)>,
}

impl std::fmt::Debug for RecoveredNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveredNode")
            .field("partitions", &self.partitions.len())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for RecoveredPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveredPartition")
            .field("pid", &self.pid)
            .field("applied_seq", &self.applied_seq)
            .field("max_token", &self.max_token)
            .field("entries", &self.entries.len())
            .finish()
    }
}
