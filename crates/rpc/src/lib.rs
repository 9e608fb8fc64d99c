//! `tell-rpc` — a real wire protocol and TCP transport for Tell.
//!
//! The rest of the workspace simulates the network (`tell-netsim` charges
//! virtual time per exchange). This crate replaces the simulation with an
//! actual one: storage nodes and commit managers served over TCP, and
//! remote clients that plug into the same `StoreApi` / `StoreEndpoint` /
//! `CommitService` traits the in-process deployment uses — so a
//! `tell_core::Database` opened over them runs the paper's architecture
//! (§3: processing nodes over a shared data store, with a lightweight
//! commit manager) across real sockets, std-only, no external deps.
//!
//! * [`wire`] — frames with one fixed header (length, correlation id for
//!   pipelining, trace context), tagged request/response messages, and
//!   [`FrameDecoder`], the one frame parser every receive path feeds.
//! * [`service`] — the [`RpcService`] dispatch seam every transport
//!   dispatches through, with deferred completion through [`ReplySink`].
//! * [`server`] — the epoll-reactor [`RpcServer`] fronting a
//!   `StoreCluster` and/or a commit service.
//! * [`reactor`] — the event loop itself: epoll + eventfd via `sys`,
//!   zero-copy frame slicing, a bounded worker pool, slow-reader
//!   backpressure.
//! * [`client`] — pipelined connections under the generic [`RpcChannel`],
//!   the remote storage client, and the remote commit-manager client with
//!   fail-over.
//! * [`fault`] — deterministic fault injection (drop/delay/duplicate frames,
//!   batch-flush stalls) for the simulation harness; off by default.

pub mod client;
pub mod fault;
pub mod reactor;
pub mod server;
pub mod service;
mod sys;
pub mod wire;

pub use client::{
    Connection, PendingReply, RemoteCmClient, RemoteCmEndpoint, RemoteEndpoint, RemoteStoreClient,
    RpcChannel,
};
pub use server::{ReactorConfig, RpcServer, Services};
pub use service::{ReplySink, RequestCtx, Router, RpcService};
pub use wire::{FrameDecoder, Request, Response, WireError, MAX_FRAME};
