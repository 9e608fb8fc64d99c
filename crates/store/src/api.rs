//! The storage abstraction the layers above program against.
//!
//! [`StoreApi`] is the operation surface of a storage client; it is
//! implemented by the in-process [`StoreClient`] and by `tell-rpc`'s
//! `RemoteStoreClient`, so a processing node runs unchanged against a local
//! simulated cluster or real storage nodes across TCP.
//!
//! Clients carry a [`NetMeter`] whose `SimClock` is deliberately `!Send`
//! (one virtual clock per worker thread), so a client can never be stored in
//! a shared `Database`. [`StoreEndpoint`] is the `Send + Sync` half: a cheap
//! handle to the storage service from which each worker mints its own
//! metered client.

use bytes::Bytes;
use std::sync::Arc;
use tell_common::{Error, Result};
use tell_netsim::NetMeter;

use crate::cell::Token;
use crate::client::{Expect, StoreClient, WriteOp};
use crate::cluster::StoreCluster;
use crate::keys::Key;
use crate::op::{OpHandle, OpResult, StoreOp};
use crate::predicate::Predicate;

/// Storage operations available to a processing node, commit manager or
/// index (LL/SC per §4.1, batching per §5.1; see [`StoreClient`] for cost
/// accounting).
///
/// An implementation supplies one point-operation entry, [`StoreApi::submit`],
/// plus the scans and its meter. `submit` hands an operation to the client
/// and returns an [`OpHandle`] immediately; independent operations
/// submitted before the first `wait` share one submission window, which a
/// remote client flushes as a *single* batched frame (§5.1's "aggressively
/// batches operations"). Every blocking point method below is provided
/// once, here, as submit-then-wait — so a blocking call issued while
/// submitted operations are outstanding rides the same frame as the window
/// it joins. Scans are not submitted: their payload dwarfs framing.
///
/// The four scan methods are forms of one range read — `[start, end)`, a
/// direction, a limit and an optional pushed-down [`Predicate`]. Both
/// implementations map every form onto that one read: the storage cluster
/// answers it in `StoreCluster::srv_scan`, and the wire carries it as one
/// `Scan` request.
pub trait StoreApi: Clone {
    /// Submit `op` for asynchronous execution. The returned handle may be
    /// waited on at any later point, or dropped to fire-and-forget.
    fn submit(&self, op: StoreOp) -> OpHandle;

    /// Load-link: read `key`, returning its token and value.
    fn get(&self, key: &Key) -> Result<Option<(Token, Bytes)>> {
        self.submit(StoreOp::Get { key: key.clone() }).wait()?.into_cell()
    }

    /// Batched load-link of several keys in one exchange.
    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<(Token, Bytes)>>> {
        self.submit(StoreOp::MultiGet { keys: keys.to_vec() }).wait()?.into_cells()
    }

    /// Unconditional upsert; returns the new token.
    fn put(&self, key: &Key, value: Bytes) -> Result<Token> {
        let op = WriteOp::put(key.clone(), Expect::Any, value);
        new_token(self.submit(StoreOp::Write { op }).wait()?, "put")
    }

    /// Insert; fails with `Conflict` if the key exists.
    fn insert(&self, key: &Key, value: Bytes) -> Result<Token> {
        let op = WriteOp::put(key.clone(), Expect::Absent, value);
        new_token(self.submit(StoreOp::Write { op }).wait()?, "insert")
    }

    /// Store-conditional: write only if the cell still carries `token`.
    fn store_conditional(&self, key: &Key, token: Token, value: Bytes) -> Result<Token> {
        let op = WriteOp::put(key.clone(), Expect::Token(token), value);
        new_token(self.submit(StoreOp::Write { op }).wait()?, "store_conditional")
    }

    /// Delete only if the cell still carries `token`.
    fn delete_conditional(&self, key: &Key, token: Token) -> Result<()> {
        let op = WriteOp::delete(key.clone(), Expect::Token(token));
        self.submit(StoreOp::Write { op }).wait()?.into_written().map(|_| ())
    }

    /// Unconditional delete (no-op when missing).
    fn delete(&self, key: &Key) -> Result<()> {
        let op = WriteOp::delete(key.clone(), Expect::Any);
        self.submit(StoreOp::Write { op }).wait()?.into_written().map(|_| ())
    }

    /// Batched conditional writes: one exchange, independent per-op results.
    fn multi_write(&self, ops: Vec<WriteOp>) -> Result<Vec<Result<Option<Token>>>> {
        self.submit(StoreOp::MultiWrite { ops }).wait()?.into_write_results()
    }

    /// Atomic fetch-and-add.
    fn increment(&self, key: &Key, delta: u64) -> Result<u64> {
        self.submit(StoreOp::Increment { key: key.clone(), delta }).wait()?.into_counter()
    }

    /// Ordered scan of `[start, end)`, at most `limit` entries.
    fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>>;

    /// Reverse-ordered scan of `[start, end)` (largest key first).
    fn scan_range_rev(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>>;

    /// Scan every key starting with `prefix`.
    fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Result<Vec<(Key, Token, Bytes)>>;

    /// Prefix scan with a [`Predicate`] pushed down to the storage nodes
    /// (§5.2): they test every row of the prefix next to the data, and only
    /// admitted rows cross the network. `limit` counts admitted rows.
    fn scan_prefix_pushdown(
        &self,
        prefix: &[u8],
        limit: usize,
        filter: &Predicate,
    ) -> Result<Vec<(Key, Token, Bytes)>>;

    /// The meter charging this worker's virtual clock.
    fn meter(&self) -> &NetMeter;
}

/// Apply `ops` with independent per-op results: with `batched`, in one
/// [`StoreApi::multi_write`] exchange; without (§5.1's batching ablation),
/// one exchange per op, each waited on before the next is sent.
pub fn apply_writes<C: StoreApi>(
    client: &C,
    ops: Vec<WriteOp>,
    batched: bool,
) -> Result<Vec<Result<Option<Token>>>> {
    if batched {
        return client.multi_write(ops);
    }
    Ok(ops
        .into_iter()
        .map(|op| client.submit(StoreOp::Write { op }).wait().and_then(OpResult::into_written))
        .collect())
}

/// The token a put-shaped write completes with. A completion without one
/// is a protocol corruption, reported as such rather than a panic.
fn new_token(done: OpResult, op: &str) -> Result<Token> {
    done.into_written()?.ok_or_else(|| Error::corrupt(format!("{op} returned no token")))
}

/// A `Send + Sync` handle to a storage service from which per-worker
/// clients are minted. The local endpoint is `Arc<StoreCluster>`; the
/// remote endpoint (in `tell-rpc`) is a TCP connection pool. The serving
/// side is the same seam in reverse: `tell-rpc`'s reactor exposes an
/// `Arc<StoreCluster>` over the wire by dispatching decoded requests
/// straight onto it, so local and remote deployments share every code
/// path below this trait.
pub trait StoreEndpoint: Clone + Send + Sync + 'static {
    /// The client type this endpoint produces.
    type Client: StoreApi;

    /// A client charging `meter`.
    fn client(&self, meter: NetMeter) -> Self::Client;

    /// A client with free (zero-cost) metering, for administrative work.
    fn unmetered_client(&self) -> Self::Client {
        self.client(NetMeter::free())
    }
}

impl StoreEndpoint for Arc<StoreCluster> {
    type Client = StoreClient;

    fn client(&self, meter: NetMeter) -> StoreClient {
        StoreClient::new(Arc::clone(self), meter)
    }
}
