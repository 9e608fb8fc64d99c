//! The tell-rpc wire format.
//!
//! Every exchange is one frame with a fixed 28-byte header:
//!
//! ```text
//! [len: u32 LE] [corr_id: u64 LE] [trace: u64 LE] [parent_span: u64 LE] [body: len - 24 bytes]
//! ```
//!
//! where `len` counts everything after itself and `corr_id` matches a
//! response to its request, so a client can keep many requests in flight
//! on one connection (pipelining). `trace` and `parent_span` attribute the
//! frame to the PN-side unit of work that caused it ([`TraceContext`]);
//! 0 means "none" in both (trace ids are never 0). Servers echo the
//! request's context on the response. The body is a tagged message — one
//! byte of message kind followed by a kind-specific payload — serialized
//! with `tell_common::codec`, the same little-endian codec every
//! persistent format in the workspace uses.
//!
//! [`encode_frame`] is the one frame encoder and [`FrameDecoder`] the one
//! parser, for the reactor and the client's reading caller alike.
//!
//! Decoding is strict: a message must consume its body exactly. Trailing
//! bytes, truncated fields, unknown tags and invalid codes are all
//! [`Error::Corrupt`], so a desynchronized stream is detected instead of
//! misread.

use bytes::{Bytes, BytesMut};
use tell_commitmgr::SnapshotDescriptor;
use tell_common::codec::{Reader, Writer};
use tell_common::{Error, IsolationLevel, Result, TxnId};
use tell_obs::{MetricsSnapshot, Span, TelemetryPage};
use tell_store::{Expect, Key, Predicate, Token, WriteOp};

/// Upper bound on a frame's `len` field. Generous — the largest legitimate
/// frames are scan results — while still rejecting garbage lengths from a
/// desynchronized or hostile peer before allocating.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes preceding the body on the wire: length prefix, correlation id,
/// trace id and parent span id.
pub const FRAME_HEADER: usize = 28;

/// The trace context a frame header carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace the frame belongs to; never 0 (0 on the wire means no trace).
    pub trace: u64,
    /// Span id of the sending operation; 0 when the sender recorded no
    /// span.
    pub parent_span: u64,
}

/// Operations a client may ask of a server. Storage requests (tags 1–9)
/// mirror `tell_store::StoreApi`; commit requests (tags 16–20) mirror
/// `tell_commitmgr::{CommitService, CommitParticipant}`.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Load-link one key.
    Get { key: Key },
    /// Batched load-link.
    MultiGet { keys: Vec<Key> },
    /// One conditional write; `op.expect`/`op.value` select between put,
    /// insert, store-conditional, delete and delete-conditional.
    Write { op: WriteOp },
    /// Batched conditional writes with independent per-op results.
    MultiWrite { ops: Vec<WriteOp> },
    /// Atomic fetch-and-add.
    Increment { key: Key, delta: u64 },
    /// The one range read: ordered scan of `[start, end)`; `reverse` walks
    /// largest-key-first. A `filter` is evaluated **on the storage node**
    /// (§5.2 selection pushdown): only rows it admits are framed into the
    /// response, and `limit` counts those. Every `StoreApi` scan form is
    /// this request; a prefix scan sends `[prefix, prefix_end(prefix))`.
    Scan { start: Key, end: Option<Key>, limit: u64, reverse: bool, filter: Option<Predicate> },
    /// Liveness / round-trip probe.
    Ping,
    /// Several independent point operations in **one** frame (§5.1
    /// "aggressively batches operations"): the server executes them in
    /// order and answers with a [`Response::Batch`] carrying one nested
    /// response per op. Nesting a `Batch` inside a `Batch` is a protocol
    /// error. The batch is a framing optimisation, not an atomic unit.
    Batch { ops: Vec<Request> },
    /// Begin a transaction at isolation `level` on the manager `hint` pins
    /// the caller to.
    CmStart { hint: u64, level: IsolationLevel },
    /// Report the outcome of a transaction this server issued.
    CmComplete { tid: TxnId, committed: bool },
    /// Lowest active version across this server's managers.
    CmLav,
    /// Force a commit-manager state synchronization.
    CmSync,
    /// Resolve a tid on every live manager (recovery path).
    CmResolve { tid: TxnId, committed: bool },
    /// Snapshot the server's metrics registry. Answered with
    /// [`Response::Metrics`]; any server answers it regardless of which
    /// services it hosts.
    Metrics,
    /// Scrape the server's span ring. Answered with [`Response::Spans`];
    /// any server answers it regardless of which services it hosts. The
    /// default (`drain: false`) is a non-destructive peek, so a background
    /// monitoring poller never steals the traces a one-shot exporter was
    /// about to collect; `drain: true` removes what it returns (each span
    /// scraped exactly once).
    Spans { drain: bool },
    /// Incremental telemetry scrape: the server's time-series ring points
    /// with `seq > since`. Answered with [`Response::Telemetry`]; any server answers it. Pass
    /// `since: 0` for history from the oldest retained point, then the
    /// returned `next_cursor` on every later scrape.
    Telemetry { since: u64 },
}

/// Server replies. `Error` may answer any request; the others pair with
/// specific requests (e.g. `Cell` answers `Get`).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The request failed; carries the typed error.
    Error(Error),
    /// Answer to `Get`.
    Cell(Option<(Token, Bytes)>),
    /// Answer to `MultiGet`.
    Cells(Vec<Option<(Token, Bytes)>>),
    /// Answer to `Write`: the new token, or `None` for a delete.
    Written(Option<Token>),
    /// Answer to `MultiWrite`: independent per-op outcomes.
    WriteResults(Vec<Result<Option<Token>>>),
    /// Answer to `Increment`.
    Counter(u64),
    /// Answer to `Scan`: the admitted rows in scan order, at most `limit`.
    Rows(Vec<(Key, Token, Bytes)>),
    /// Answer to `Ping`.
    Pong,
    /// Answer to `Request::Batch`: one nested response per nested op, in
    /// submission order. Per-op failures travel as nested
    /// [`Response::Error`]s, so one conflicting write does not poison its
    /// window-mates. Nesting a `Batch` inside a `Batch` is a protocol error.
    Batch { results: Vec<Response> },
    /// Answer to `CmStart`.
    TxnStarted { tid: TxnId, lav: u64, snapshot: SnapshotDescriptor },
    /// Answer to requests with no payload (`CmComplete`, `CmSync`, ...).
    Unit,
    /// Answer to `CmLav`.
    Lav(u64),
    /// Answer to `Request::Metrics`: the server's metrics snapshot (the
    /// wire stays renderer-agnostic; scrapers render Prometheus text or
    /// JSON locally).
    Metrics(MetricsSnapshot),
    /// Answer to `Request::Spans`: the server's span ring contents, oldest
    /// first per shard (removed only when the request asked to drain).
    Spans(Vec<Span>),
    /// Answer to `Request::Telemetry`: one incremental page of time-series
    /// points.
    Telemetry(TelemetryPage),
}

// ---------------------------------------------------------------------------
// Field-level helpers.

fn put_key(out: &mut Vec<u8>, key: &Key) {
    out.put_bytes(key.as_ref());
}

fn read_key(r: &mut Reader<'_>) -> Result<Key> {
    Ok(Bytes::copy_from_slice(r.bytes()?))
}

fn put_opt_key(out: &mut Vec<u8>, key: &Option<Key>) {
    match key {
        Some(k) => {
            out.put_u8(1);
            put_key(out, k);
        }
        None => out.put_u8(0),
    }
}

fn read_opt_key(r: &mut Reader<'_>) -> Result<Option<Key>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_key(r)?)),
        t => Err(Error::corrupt(format!("bad option tag {t}"))),
    }
}

fn put_cell(out: &mut Vec<u8>, cell: &Option<(Token, Bytes)>) {
    match cell {
        Some((token, value)) => {
            out.put_u8(1);
            out.put_u64(*token);
            out.put_bytes(value.as_ref());
        }
        None => out.put_u8(0),
    }
}

fn read_cell(r: &mut Reader<'_>) -> Result<Option<(Token, Bytes)>> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let token = r.u64()?;
            let value = Bytes::copy_from_slice(r.bytes()?);
            Ok(Some((token, value)))
        }
        t => Err(Error::corrupt(format!("bad cell tag {t}"))),
    }
}

fn put_write_op(out: &mut Vec<u8>, op: &WriteOp) {
    put_key(out, &op.key);
    match op.expect {
        Expect::Any => out.put_u8(0),
        Expect::Absent => out.put_u8(1),
        Expect::Token(t) => {
            out.put_u8(2);
            out.put_u64(t);
        }
    }
    match &op.value {
        Some(v) => {
            out.put_u8(1);
            out.put_bytes(v.as_ref());
        }
        None => out.put_u8(0),
    }
}

fn read_write_op(r: &mut Reader<'_>) -> Result<WriteOp> {
    let key = read_key(r)?;
    let expect = match r.u8()? {
        0 => Expect::Any,
        1 => Expect::Absent,
        2 => Expect::Token(r.u64()?),
        t => return Err(Error::corrupt(format!("bad expect tag {t}"))),
    };
    let value = match r.u8()? {
        0 => None,
        1 => Some(Bytes::copy_from_slice(r.bytes()?)),
        t => return Err(Error::corrupt(format!("bad value tag {t}"))),
    };
    Ok(WriteOp { key, expect, value })
}

/// `tell_common::Error` on the wire: a one-byte tag per variant, then the
/// variant's fields. Lossless both ways, so a remote call surfaces exactly
/// the error the server saw — `Conflict` in particular, which the
/// optimistic transaction layer's retry decision depends on.
fn put_error(out: &mut Vec<u8>, e: &Error) {
    match e {
        Error::Conflict => out.put_u8(1),
        Error::Aborted(r) => {
            out.put_u8(2);
            out.put_string(r);
        }
        Error::NotFound => out.put_u8(3),
        Error::Unavailable(w) => {
            out.put_u8(4);
            out.put_string(w);
        }
        Error::CapacityExceeded { node, capacity } => {
            out.put_u8(5);
            out.put_u32(*node);
            out.put_u64(*capacity as u64);
        }
        Error::Corrupt(w) => {
            out.put_u8(6);
            out.put_string(w);
        }
        Error::InvalidOperation(w) => {
            out.put_u8(7);
            out.put_string(w);
        }
        Error::Parse { message, position } => {
            out.put_u8(8);
            out.put_string(message);
            out.put_u64(*position as u64);
        }
        Error::Query(w) => {
            out.put_u8(9);
            out.put_string(w);
        }
        Error::Unsupported(w) => {
            out.put_u8(10);
            out.put_string(w);
        }
    }
}

fn read_error(r: &mut Reader<'_>) -> Result<Error> {
    Ok(match r.u8()? {
        1 => Error::Conflict,
        2 => Error::Aborted(r.string()?),
        3 => Error::NotFound,
        4 => Error::Unavailable(r.string()?),
        5 => Error::CapacityExceeded { node: r.u32()?, capacity: r.u64()? as usize },
        6 => Error::Corrupt(r.string()?),
        7 => Error::InvalidOperation(r.string()?),
        8 => Error::Parse { message: r.string()?, position: r.u64()? as usize },
        9 => Error::Query(r.string()?),
        10 => Error::Unsupported(r.string()?),
        t => return Err(Error::corrupt(format!("bad error tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Message encoding.

impl Request {
    /// Serialize into a fresh body buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Get { key } => {
                out.put_u8(1);
                put_key(&mut out, key);
            }
            Request::MultiGet { keys } => {
                out.put_u8(2);
                out.put_u32(keys.len() as u32);
                for k in keys {
                    put_key(&mut out, k);
                }
            }
            Request::Write { op } => {
                out.put_u8(3);
                put_write_op(&mut out, op);
            }
            Request::MultiWrite { ops } => {
                out.put_u8(4);
                out.put_u32(ops.len() as u32);
                for op in ops {
                    put_write_op(&mut out, op);
                }
            }
            Request::Increment { key, delta } => {
                out.put_u8(5);
                put_key(&mut out, key);
                out.put_u64(*delta);
            }
            Request::Scan { start, end, limit, reverse, filter } => {
                out.put_u8(6);
                put_key(&mut out, start);
                put_opt_key(&mut out, end);
                out.put_u64(*limit);
                out.put_u8(u8::from(*reverse));
                match filter {
                    Some(f) => {
                        out.put_u8(1);
                        f.encode_into(&mut out)
                            .expect("predicate depth is validated before sending");
                    }
                    None => out.put_u8(0),
                }
            }
            Request::Ping => out.put_u8(8),
            Request::Batch { ops } => {
                out.put_u8(9);
                out.put_u32(ops.len() as u32);
                for op in ops {
                    debug_assert!(
                        !matches!(op, Request::Batch { .. }),
                        "batches must not nest (encoder misuse)"
                    );
                    out.put_bytes(&op.encode());
                }
            }
            Request::CmStart { hint, level } => {
                out.put_u8(16);
                out.put_u64(*hint);
                out.put_u8(level.code());
            }
            Request::CmComplete { tid, committed } => {
                out.put_u8(17);
                out.put_u64(tid.raw());
                out.put_u8(u8::from(*committed));
            }
            Request::CmLav => out.put_u8(18),
            Request::CmSync => out.put_u8(19),
            Request::CmResolve { tid, committed } => {
                out.put_u8(20);
                out.put_u64(tid.raw());
                out.put_u8(u8::from(*committed));
            }
            Request::Metrics => out.put_u8(21),
            Request::Spans { drain } => {
                out.put_u8(22);
                out.put_u8(u8::from(*drain));
            }
            Request::Telemetry { since } => {
                out.put_u8(23);
                out.put_u64(*since);
            }
        }
        out
    }

    /// Parse a request body. The body must be consumed exactly.
    pub fn decode(body: &[u8]) -> Result<Request> {
        let mut r = Reader::new(body);
        let req = match r.u8()? {
            1 => Request::Get { key: read_key(&mut r)? },
            2 => {
                let n = r.u32()? as usize;
                let mut keys = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    keys.push(read_key(&mut r)?);
                }
                Request::MultiGet { keys }
            }
            3 => Request::Write { op: read_write_op(&mut r)? },
            4 => {
                let n = r.u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ops.push(read_write_op(&mut r)?);
                }
                Request::MultiWrite { ops }
            }
            5 => Request::Increment { key: read_key(&mut r)?, delta: r.u64()? },
            6 => Request::Scan {
                start: read_key(&mut r)?,
                end: read_opt_key(&mut r)?,
                limit: r.u64()?,
                reverse: read_bool(&mut r)?,
                filter: match r.u8()? {
                    0 => None,
                    1 => Some(Predicate::decode_from(&mut r)?),
                    t => return Err(Error::corrupt(format!("bad filter tag {t}"))),
                },
            },
            8 => Request::Ping,
            9 => {
                let n = r.u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let nested = r.bytes()?;
                    // Refuse recursion before descending: a hostile stream
                    // of nested batches must not consume decoder stack.
                    if nested.first() == Some(&9) {
                        return Err(Error::corrupt("Batch nested inside Batch"));
                    }
                    ops.push(Request::decode(nested)?);
                }
                Request::Batch { ops }
            }
            16 => Request::CmStart { hint: r.u64()?, level: read_level(&mut r)? },
            17 => Request::CmComplete { tid: TxnId(r.u64()?), committed: read_bool(&mut r)? },
            18 => Request::CmLav,
            19 => Request::CmSync,
            20 => Request::CmResolve { tid: TxnId(r.u64()?), committed: read_bool(&mut r)? },
            21 => Request::Metrics,
            22 => Request::Spans { drain: read_bool(&mut r)? },
            23 => Request::Telemetry { since: r.u64()? },
            t => return Err(Error::corrupt(format!("unknown request tag {t}"))),
        };
        expect_exhausted(&r)?;
        Ok(req)
    }
}

impl Response {
    /// Serialize into a fresh body buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Error(e) => {
                out.put_u8(0);
                put_error(&mut out, e);
            }
            Response::Cell(cell) => {
                out.put_u8(1);
                put_cell(&mut out, cell);
            }
            Response::Cells(cells) => {
                out.put_u8(2);
                out.put_u32(cells.len() as u32);
                for c in cells {
                    put_cell(&mut out, c);
                }
            }
            Response::Written(token) => {
                out.put_u8(3);
                match token {
                    Some(t) => {
                        out.put_u8(1);
                        out.put_u64(*t);
                    }
                    None => out.put_u8(0),
                }
            }
            Response::WriteResults(results) => {
                out.put_u8(4);
                out.put_u32(results.len() as u32);
                for res in results {
                    match res {
                        Ok(None) => out.put_u8(0),
                        Ok(Some(t)) => {
                            out.put_u8(1);
                            out.put_u64(*t);
                        }
                        Err(e) => {
                            out.put_u8(2);
                            put_error(&mut out, e);
                        }
                    }
                }
            }
            Response::Counter(v) => {
                out.put_u8(5);
                out.put_u64(*v);
            }
            Response::Rows(rows) => {
                out.put_u8(6);
                out.put_u32(rows.len() as u32);
                for (key, token, value) in rows {
                    put_key(&mut out, key);
                    out.put_u64(*token);
                    out.put_bytes(value.as_ref());
                }
            }
            Response::Pong => out.put_u8(7),
            Response::Batch { results } => {
                out.put_u8(8);
                out.put_u32(results.len() as u32);
                for res in results {
                    debug_assert!(
                        !matches!(res, Response::Batch { .. }),
                        "batches must not nest (encoder misuse)"
                    );
                    out.put_bytes(&res.encode());
                }
            }
            Response::TxnStarted { tid, lav, snapshot } => {
                out.put_u8(16);
                out.put_u64(tid.raw());
                out.put_u64(*lav);
                let mut snap = Vec::with_capacity(snapshot.encoded_len());
                snapshot.encode_into(&mut snap);
                out.put_bytes(&snap);
            }
            Response::Unit => out.put_u8(17),
            Response::Lav(v) => {
                out.put_u8(18);
                out.put_u64(*v);
            }
            Response::Metrics(snapshot) => {
                out.put_u8(19);
                snapshot.encode(&mut out);
            }
            Response::Spans(spans) => {
                out.put_u8(20);
                out.put_u32(spans.len() as u32);
                for s in spans {
                    s.encode(&mut out);
                }
            }
            Response::Telemetry(page) => {
                out.put_u8(21);
                page.encode(&mut out);
            }
        }
        out
    }

    /// Parse a response body. The body must be consumed exactly.
    pub fn decode(body: &[u8]) -> Result<Response> {
        let mut r = Reader::new(body);
        let resp = match r.u8()? {
            0 => Response::Error(read_error(&mut r)?),
            1 => Response::Cell(read_cell(&mut r)?),
            2 => {
                let n = r.u32()? as usize;
                let mut cells = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    cells.push(read_cell(&mut r)?);
                }
                Response::Cells(cells)
            }
            3 => Response::Written(match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                t => return Err(Error::corrupt(format!("bad token tag {t}"))),
            }),
            4 => {
                let n = r.u32()? as usize;
                let mut results = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    results.push(match r.u8()? {
                        0 => Ok(None),
                        1 => Ok(Some(r.u64()?)),
                        2 => Err(read_error(&mut r)?),
                        t => return Err(Error::corrupt(format!("bad result tag {t}"))),
                    });
                }
                Response::WriteResults(results)
            }
            5 => Response::Counter(r.u64()?),
            6 => {
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let key = read_key(&mut r)?;
                    let token = r.u64()?;
                    let value = Bytes::copy_from_slice(r.bytes()?);
                    rows.push((key, token, value));
                }
                Response::Rows(rows)
            }
            7 => Response::Pong,
            8 => {
                let n = r.u32()? as usize;
                let mut results = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let nested = r.bytes()?;
                    if nested.first() == Some(&8) {
                        return Err(Error::corrupt("Batch nested inside Batch"));
                    }
                    results.push(Response::decode(nested)?);
                }
                Response::Batch { results }
            }
            16 => {
                let tid = TxnId(r.u64()?);
                let lav = r.u64()?;
                let snap_bytes = r.bytes()?;
                let (snapshot, used) = SnapshotDescriptor::decode_from(snap_bytes)?;
                if used != snap_bytes.len() {
                    return Err(Error::corrupt("trailing bytes after snapshot descriptor"));
                }
                Response::TxnStarted { tid, lav, snapshot }
            }
            17 => Response::Unit,
            18 => Response::Lav(r.u64()?),
            19 => Response::Metrics(MetricsSnapshot::decode(&mut r)?),
            20 => {
                let n = r.u32()? as usize;
                let mut spans = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    spans.push(Span::decode(&mut r)?);
                }
                Response::Spans(spans)
            }
            21 => Response::Telemetry(TelemetryPage::decode(&mut r)?),
            t => return Err(Error::corrupt(format!("unknown response tag {t}"))),
        };
        expect_exhausted(&r)?;
        Ok(resp)
    }
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(Error::corrupt(format!("bad bool tag {t}"))),
    }
}

fn read_level(r: &mut Reader<'_>) -> Result<IsolationLevel> {
    let code = r.u8()?;
    IsolationLevel::from_code(code)
        .ok_or_else(|| Error::corrupt(format!("bad isolation level code {code}")))
}

fn expect_exhausted(r: &Reader<'_>) -> Result<()> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(Error::corrupt(format!(
            "{} trailing bytes after message at offset {}",
            r.remaining(),
            r.position()
        )))
    }
}

// ---------------------------------------------------------------------------
// Frames.

/// Encode one frame: the fixed header, then `body`. `None` writes 0 into
/// both context fields. A frame longer than [`MAX_FRAME`] is refused here,
/// since the receiver would refuse it anyway.
pub fn encode_frame(corr_id: u64, ctx: Option<TraceContext>, body: &[u8]) -> Result<Vec<u8>> {
    let len = FRAME_HEADER - 4 + body.len();
    if len > MAX_FRAME {
        return Err(Error::invalid(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let ctx = ctx.unwrap_or(TraceContext { trace: 0, parent_span: 0 });
    let mut frame = Vec::with_capacity(4 + len);
    frame.put_u32(len as u32);
    frame.put_u64(corr_id);
    frame.put_u64(ctx.trace);
    frame.put_u64(ctx.parent_span);
    frame.extend_from_slice(body);
    Ok(frame)
}

/// Incremental frame parser over an owned receive buffer. Push whatever
/// the transport produced — a nonblocking socket's chunks or a blocking
/// read's — then drain complete frames.
///
/// A `len` outside `[24, MAX_FRAME]`, or a parent span without a trace, is
/// [`Error::Corrupt`]: the stream is desynchronized and cannot be
/// resynchronized. Bytes short of a full frame simply wait for more input.
/// End-of-stream policy stays with the caller: EOF with
/// [`FrameDecoder::is_idle`] false means the peer closed mid-frame.
#[derive(Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes the transport produced.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True when no partial frame is pending — the state in which peer EOF
    /// is clean rather than mid-frame.
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pop the next complete frame as `(corr_id, context, body)`.
    /// `Ok(None)` means more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<(u64, Option<TraceContext>, Bytes)>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes checked")) as usize;
        if !(FRAME_HEADER - 4..=MAX_FRAME).contains(&len) {
            return Err(Error::corrupt(format!("invalid frame length {len}")));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.buf.split_to(4 + len);
        let field = |at: usize| {
            u64::from_le_bytes(frame[at..at + 8].try_into().expect("header length checked"))
        };
        let ctx = match (field(12), field(20)) {
            (0, 0) => None,
            (0, _) => return Err(Error::corrupt("parent span without a trace")),
            (trace, parent_span) => Some(TraceContext { trace, parent_span }),
        };
        Ok(Some((field(4), ctx, frame.slice(FRAME_HEADER..))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_covers_every_variant() {
        let key = Bytes::copy_from_slice(b"k");
        let reqs = vec![
            Request::Get { key: key.clone() },
            Request::MultiGet { keys: vec![key.clone(), Bytes::new()] },
            Request::Write {
                op: WriteOp {
                    key: key.clone(),
                    expect: Expect::Token(7),
                    value: Some(Bytes::copy_from_slice(b"v")),
                },
            },
            Request::MultiWrite {
                ops: vec![
                    WriteOp { key: key.clone(), expect: Expect::Absent, value: None },
                    WriteOp { key: key.clone(), expect: Expect::Any, value: Some(Bytes::new()) },
                ],
            },
            Request::Increment { key: key.clone(), delta: 42 },
            Request::Scan { start: key.clone(), end: None, limit: 10, reverse: true, filter: None },
            Request::Scan {
                start: Bytes::new(),
                end: Some(key.clone()),
                limit: u64::MAX,
                reverse: false,
                filter: None,
            },
            Request::Scan {
                start: key.clone(),
                end: Some(Bytes::copy_from_slice(b"l")),
                limit: 64,
                reverse: true,
                filter: Some(Predicate::All(vec![
                    Predicate::value_eq(4, vec![1, 2]),
                    Predicate::KeyPrefix(key.clone()),
                ])),
            },
            Request::Batch {
                ops: vec![
                    Request::Get { key: key.clone() },
                    Request::Increment { key: key.clone(), delta: 1 },
                    Request::Write {
                        op: WriteOp { key: key.clone(), expect: Expect::Any, value: None },
                    },
                ],
            },
            Request::Batch { ops: Vec::new() },
            Request::Ping,
            Request::CmStart { hint: 3, level: IsolationLevel::Si },
            Request::CmStart { hint: u64::MAX, level: IsolationLevel::ReadCommitted },
            Request::CmComplete { tid: TxnId(9), committed: true },
            Request::CmLav,
            Request::CmSync,
            Request::CmResolve { tid: TxnId(1), committed: false },
            Request::Metrics,
            Request::Spans { drain: false },
            Request::Spans { drain: true },
            Request::Telemetry { since: 0 },
            Request::Telemetry { since: u64::MAX },
        ];
        for req in reqs {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip_covers_every_variant() {
        let val = Bytes::copy_from_slice(b"payload");
        let resps = vec![
            Response::Error(Error::Conflict),
            Response::Error(Error::CapacityExceeded { node: 2, capacity: 4096 }),
            Response::Cell(None),
            Response::Cell(Some((5, val.clone()))),
            Response::Cells(vec![None, Some((1, Bytes::new()))]),
            Response::Written(None),
            Response::Written(Some(8)),
            Response::WriteResults(vec![Ok(None), Ok(Some(3)), Err(Error::NotFound)]),
            Response::Counter(77),
            Response::Rows(vec![(Bytes::copy_from_slice(b"a"), 1, val.clone())]),
            Response::Pong,
            Response::Batch {
                results: vec![
                    Response::Cell(Some((5, val.clone()))),
                    Response::Error(Error::Conflict),
                    Response::Counter(1),
                ],
            },
            Response::Batch { results: Vec::new() },
            Response::TxnStarted {
                tid: TxnId(12),
                lav: 4,
                snapshot: SnapshotDescriptor::bootstrap().with_added(TxnId(12)),
            },
            Response::Unit,
            Response::Lav(6),
            Response::Metrics(MetricsSnapshot::default()),
            Response::Metrics(tell_obs::Registry::new().snapshot()),
            Response::Metrics(tell_obs::MetricsSnapshot {
                locks: vec![
                    tell_obs::LockStat { name: "cm.state".into(), contended: 12, wait_us: 480 },
                    tell_obs::LockStat {
                        name: "store.partition.map".into(),
                        contended: 2,
                        wait_us: 9,
                    },
                ],
                ..tell_obs::MetricsSnapshot::default()
            }),
            Response::Spans(Vec::new()),
            Response::Spans(vec![
                Span {
                    trace: 0xabc,
                    id: 1,
                    parent: 0,
                    kind: tell_obs::Site::Txn,
                    start_virt_us: 0.0,
                    end_virt_us: 12.5,
                    start_wall_us: 100,
                    end_wall_us: 140,
                    attrs: tell_obs::SpanAttrs { count: 2, status: tell_obs::SpanStatus::Ok },
                },
                Span {
                    trace: 0xabc,
                    id: 2,
                    parent: 1,
                    kind: tell_obs::Site::RpcDispatch,
                    start_virt_us: 1.0,
                    end_virt_us: 2.0,
                    start_wall_us: 110,
                    end_wall_us: 120,
                    attrs: tell_obs::SpanAttrs { count: 0, status: tell_obs::SpanStatus::Conflict },
                },
            ]),
            Response::Telemetry(TelemetryPage { points: Vec::new(), next_cursor: 0 }),
            Response::Telemetry(TelemetryPage {
                points: vec![tell_obs::TsPoint {
                    seq: 3,
                    virt_us: 125.0,
                    wall_us: 9_000,
                    counters: vec![10, 2],
                    gauges: vec![7],
                    phases: vec![tell_obs::PhaseDigest {
                        count: 10,
                        p50: 4.0,
                        p99: 80.0,
                        p999: 81.0,
                    }],
                }],
                next_cursor: 3,
            }),
        ];
        for resp in resps {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_profile_bodies_are_rejected() {
        // Request tags 25-27 (profiler start/stop/fetch) and response tag 22
        // (the profile report) are retired with the stack sampler. No body
        // under those tags decodes, whole or cut, and none panics.
        let mut start = vec![25];
        start.put_f64(99.0);
        for body in [start, vec![26], vec![27]] {
            for cut in 1..=body.len() {
                assert!(Request::decode(&body[..cut]).is_err(), "{:?}", &body[..cut]);
            }
        }
        let mut report = vec![22, 1];
        report.put_f64(99.0);
        for n in [9, 1, 0] {
            report.put_u64(n);
        }
        report.put_string("txn 9\n");
        report.put_u32(1);
        report.put_string("cm.state");
        report.put_u64(1);
        report.put_u64(2);
        for cut in 1..=report.len() {
            assert!(Response::decode(&report[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(Error::Corrupt(_))));
    }

    #[test]
    fn retired_scan_tags_are_unknown() {
        // Tags 7 and 10 carried the old prefix scan forms; no peer sends
        // them, so they decode like any unknown tag. A filter flag other
        // than 0/1 is corrupt too.
        let mut old_prefix_scan = vec![7];
        put_key(&mut old_prefix_scan, &Bytes::copy_from_slice(b"p"));
        old_prefix_scan.put_u64(10);
        for body in [old_prefix_scan, vec![10]] {
            assert!(matches!(Request::decode(&body), Err(Error::Corrupt(_))), "{body:?}");
        }
        let scan = Request::Scan {
            start: Bytes::new(),
            end: None,
            limit: 1,
            reverse: false,
            filter: None,
        };
        let mut body = scan.encode();
        *body.last_mut().unwrap() = 2;
        assert!(matches!(Request::decode(&body), Err(Error::Corrupt(_))));
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let body = Request::Increment { key: Bytes::copy_from_slice(b"key"), delta: 1 }.encode();
        for cut in 0..body.len() {
            assert!(Request::decode(&body[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn truncated_batches_are_rejected() {
        let body = Request::Batch {
            ops: vec![
                Request::Get { key: Bytes::copy_from_slice(b"k") },
                Request::Increment { key: Bytes::copy_from_slice(b"c"), delta: 2 },
            ],
        }
        .encode();
        for cut in 0..body.len() {
            assert!(Request::decode(&body[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
        let body =
            Response::Batch { results: vec![Response::Counter(9), Response::Cell(None)] }.encode();
        for cut in 0..body.len() {
            assert!(Response::decode(&body[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn nested_batches_are_a_protocol_error() {
        // Hand-craft tag 9 → count 1 → nested bytes that are themselves a
        // Batch: the decoder must refuse without recursing.
        let inner = Request::Batch { ops: vec![Request::Ping] }.encode();
        let mut body = vec![9u8];
        body.put_u32(1);
        body.put_bytes(&inner);
        assert!(matches!(Request::decode(&body), Err(Error::Corrupt(_))));

        let inner = Response::Batch { results: vec![Response::Pong] }.encode();
        let mut body = vec![8u8];
        body.put_u32(1);
        body.put_bytes(&inner);
        assert!(matches!(Response::decode(&body), Err(Error::Corrupt(_))));
    }

    #[test]
    fn batch_per_op_errors_survive_the_roundtrip_losslessly() {
        let results = vec![
            Response::Error(Error::Conflict),
            Response::Error(Error::Unavailable("sn:1 down".into())),
            Response::Written(Some(3)),
        ];
        let body = Response::Batch { results: results.clone() }.encode();
        let Response::Batch { results: back } = Response::decode(&body).unwrap() else {
            panic!("expected a batch back");
        };
        assert_eq!(back, results);
    }

    /// Pins the header layout byte for byte: a traced request and an
    /// untraced response.
    #[test]
    fn frame_header_golden_bytes() {
        let level = IsolationLevel::Serializable;
        let body = Request::CmStart { hint: 3, level }.encode();
        let ctx = TraceContext { trace: 0x0102_0304_0506_0708, parent_span: 0x1112_1314 };
        let frame = encode_frame(0x2A, Some(ctx), &body).unwrap();
        #[rustfmt::skip]
        let expected: &[u8] = &[
            34, 0, 0, 0,                            // len = 24 + 10
            0x2A, 0, 0, 0, 0, 0, 0, 0,              // corr_id
            8, 7, 6, 5, 4, 3, 2, 1,                 // trace
            0x14, 0x13, 0x12, 0x11, 0, 0, 0, 0,     // parent_span
            16,                                     // CmStart
            3, 0, 0, 0, 0, 0, 0, 0,                 // hint
            4,                                      // Serializable
        ];
        assert_eq!(frame, expected);

        let frame = encode_frame(7, None, &Response::Pong.encode()).unwrap();
        #[rustfmt::skip]
        let expected: &[u8] = &[
            25, 0, 0, 0,                            // len = 24 + 1
            7, 0, 0, 0, 0, 0, 0, 0,                 // corr_id
            0, 0, 0, 0, 0, 0, 0, 0,                 // no trace
            0, 0, 0, 0, 0, 0, 0, 0,                 // no parent span
            7,                                      // Pong
        ];
        assert_eq!(frame, expected);
    }

    #[test]
    fn frames_roundtrip_through_the_decoder() {
        let ctx = TraceContext { trace: 0xdead_beef, parent_span: 0 };
        let mut stream = encode_frame(42, Some(ctx), b"hello").unwrap();
        stream.extend(encode_frame(43, None, b"").unwrap());
        let mut decoder = FrameDecoder::new();
        decoder.push(&stream[..stream.len() - 2]);
        let (corr, got_ctx, body) = decoder.next_frame().unwrap().unwrap();
        assert_eq!((corr, got_ctx, &body[..]), (42, Some(ctx), &b"hello"[..]));
        // A cut frame is not a frame yet, and not idle either.
        assert_eq!(decoder.next_frame().unwrap(), None);
        assert!(!decoder.is_idle());
        decoder.push(&stream[stream.len() - 2..]);
        let (corr, got_ctx, body) = decoder.next_frame().unwrap().unwrap();
        assert_eq!((corr, got_ctx, body.len()), (43, None, 0));
        assert!(decoder.is_idle());
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        for len in [0u32, 23, MAX_FRAME as u32 + 1] {
            let mut decoder = FrameDecoder::new();
            decoder.push(&len.to_le_bytes());
            assert!(decoder.next_frame().is_err(), "len {len} accepted");
        }
        let mut frame = encode_frame(1, None, &[]).unwrap();
        frame[20] = 1; // parent span without a trace
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame);
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn invalid_isolation_codes_are_corrupt() {
        let mut body = Request::CmStart { hint: 1, level: IsolationLevel::Si }.encode();
        for code in [0u8, 5, 0xFF] {
            *body.last_mut().unwrap() = code;
            assert!(matches!(Request::decode(&body), Err(Error::Corrupt(_))), "code {code}");
        }
    }

    #[test]
    fn wire_error_conversion_is_lossless() {
        let errors = vec![
            Error::Conflict,
            Error::Aborted("why".into()),
            Error::NotFound,
            Error::Unavailable("sn:0 down".into()),
            Error::CapacityExceeded { node: 1, capacity: 512 },
            Error::Corrupt("bad".into()),
            Error::InvalidOperation("nope".into()),
            Error::Parse { message: "eof".into(), position: 3 },
            Error::Query("unknown column".into()),
            Error::Unsupported("joins".into()),
        ];
        for e in errors {
            let body = Response::Error(e.clone()).encode();
            assert_eq!(Response::decode(&body).unwrap(), Response::Error(e));
        }
        // Tag 0 (error), tag 5 (capacity), node u32, capacity u64.
        let body = Response::Error(Error::CapacityExceeded { node: 2, capacity: 4096 }).encode();
        assert_eq!(body, [0, 5, 2, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0]);
    }
}
