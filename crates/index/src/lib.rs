//! `tell-index` — a latch-free distributed B+tree (§5.3 of the paper).
//!
//! Every tree node is stored as one key-value pair in the shared record
//! store and modified atomically with LL/SC, so the index can be read and
//! written by any number of processing nodes concurrently without latches.
//! The design follows the paper's Bw-tree-inspired description, realised as
//! a **B-link tree**:
//!
//! * every node carries a high fence key and a right-sibling pointer, so a
//!   reader that lands on a node that has since split simply hops right —
//!   no latch coupling, system-wide progress is guaranteed (§5.3);
//! * splits install the new right sibling *first*, then conditionally update
//!   the split node, then insert the separator into the parent — each step a
//!   single LL/SC, each retryable;
//! * inner nodes are cached on the processing node; when a leaf's fences
//!   show the cached parents are stale, the cached path is refreshed
//!   (§5.3.1 caching rule). Leaves are cached too. Readers and removals
//!   still read every leaf they answer from; a reader's cached leaf only
//!   predicts which records can be read in the same frame as the leaf.
//!   An insert's load-link *is* the cached leaf: its store-conditional
//!   fails if the leaf changed since it was cached, so the LL/SC token
//!   validates the cached copy either way;
//! * inserts are grouped by leaf ([`insert_grouped`]): one store-conditional
//!   per leaf carries all of that leaf's new entries, and a commit sends
//!   the leaves of all its indexes in one batched frame;
//! * entries are **version-unaware** `(key, rid)` pairs (§5.3.2): updates
//!   that do not change the indexed key touch no index node at all.
//!
//! Duplicate keys (secondary indexes) are supported by ordering entries on
//! the composite `(key, rid)`.

pub mod cache;
pub mod node;
pub mod tree;

pub use cache::{CacheStats, NodeCache};
pub use node::{EntryKey, NodeData};
pub use tree::{insert_grouped, BTreeConfig, DistributedBTree};
