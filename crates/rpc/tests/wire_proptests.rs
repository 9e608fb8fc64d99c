//! Property tests for the tell-rpc wire format: every message round-trips
//! through its encoding, no truncation of a valid message decodes, and no
//! input at all — valid, cut or random — panics a decoder or makes it
//! reserve memory the input does not pay for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use proptest::prelude::*;
use tell_commitmgr::SnapshotDescriptor;
use tell_common::{BitSet, Error, IsolationLevel, Summary, TxnId};
use tell_obs::{LockStat, MetricsSnapshot, Site, Span, SpanAttrs, SpanStatus};
use tell_rpc::wire::{encode_frame, TraceContext, FRAME_HEADER};
use tell_rpc::{FrameDecoder, Request, Response, MAX_FRAME};
use tell_store::{CmpOp, Expect, Predicate, WriteOp};

/// Keys up to the longest the system composes in practice (`keys::record`
/// and friends stay well under this), biased toward the interesting
/// boundary lengths 0 and max.
const MAX_KEY: usize = 256;

fn bytes_strategy(max: usize) -> impl Strategy<Value = Bytes> {
    prop_oneof![
        2 => Just(Bytes::new()),
        1 => prop::collection::vec(any::<u8>(), max).prop_map(Bytes::from),
        5 => prop::collection::vec(any::<u8>(), 0..32).prop_map(Bytes::from),
    ]
}

fn key_strategy() -> impl Strategy<Value = Bytes> {
    bytes_strategy(MAX_KEY)
}

fn expect_strategy() -> impl Strategy<Value = Expect> {
    prop_oneof![Just(Expect::Any), Just(Expect::Absent), any::<u64>().prop_map(Expect::Token),]
}

fn write_op_strategy() -> impl Strategy<Value = WriteOp> {
    (key_strategy(), expect_strategy(), prop::option::of(bytes_strategy(64)))
        .prop_map(|(key, expect, value)| WriteOp { key, expect, value })
}

fn error_strategy() -> impl Strategy<Value = Error> {
    let msg = || ".{0,24}".prop_map(String::from);
    prop_oneof![
        Just(Error::Conflict),
        msg().prop_map(Error::Aborted),
        Just(Error::NotFound),
        msg().prop_map(Error::Unavailable),
        (any::<u32>(), any::<usize>())
            .prop_map(|(node, capacity)| Error::CapacityExceeded { node, capacity }),
        msg().prop_map(Error::Corrupt),
        msg().prop_map(Error::InvalidOperation),
        (msg(), any::<usize>()).prop_map(|(message, position)| Error::Parse { message, position }),
        msg().prop_map(Error::Query),
        msg().prop_map(Error::Unsupported),
    ]
}

fn snapshot_strategy() -> impl Strategy<Value = SnapshotDescriptor> {
    (any::<u64>(), prop::collection::btree_set(0usize..256, 0..24)).prop_map(|(base, ones)| {
        let mut bits = BitSet::new();
        for n in ones {
            bits.set(n);
        }
        SnapshotDescriptor::new(base, bits)
    })
}

fn cell_strategy() -> impl Strategy<Value = Option<(u64, Bytes)>> {
    prop::option::of((any::<u64>(), bytes_strategy(64)))
}

fn cmp_op_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Predicate trees up to `depth` combinator levels deep (well inside
/// `MAX_PREDICATE_DEPTH`, which has its own dedicated unit tests).
fn predicate_strategy_at(depth: usize) -> BoxedStrategy<Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        key_strategy().prop_map(Predicate::KeyPrefix),
        bytes_strategy(32).prop_map(Predicate::ValuePrefix),
        (0usize..64, cmp_op_strategy(), bytes_strategy(16))
            .prop_map(|(offset, op, literal)| Predicate::ValueCompare { offset, op, literal }),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = predicate_strategy_at(depth - 1);
    prop_oneof![
        3 => leaf,
        1 => prop::collection::vec(inner.clone(), 0..4).prop_map(Predicate::All),
        1 => prop::collection::vec(inner.clone(), 0..4).prop_map(Predicate::Any),
        1 => inner.prop_map(|p| Predicate::Not(Box::new(p))),
    ]
    .boxed()
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    predicate_strategy_at(2)
}

fn site_strategy() -> impl Strategy<Value = Site> {
    (0..Site::ALL.len()).prop_map(|i| Site::ALL[i])
}

fn span_status_strategy() -> impl Strategy<Value = SpanStatus> {
    prop_oneof![Just(SpanStatus::Ok), Just(SpanStatus::Conflict), Just(SpanStatus::Error)]
}

/// Spans with finite virtual clocks (real timers never record NaN or
/// infinities, and `PartialEq` on the round-trip demands reflexive floats).
fn span_strategy() -> impl Strategy<Value = Span> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), site_strategy()),
        (0u32..1_000_000, 0u32..1_000_000, any::<u64>(), any::<u64>()),
        (any::<u32>(), span_status_strategy()),
    )
        .prop_map(|((trace, id, parent, kind), (sv, ev, sw, ew), (count, status))| Span {
            trace,
            id,
            parent,
            kind,
            start_virt_us: sv as f64,
            end_virt_us: ev as f64,
            start_wall_us: sw,
            end_wall_us: ew,
            attrs: SpanAttrs { count, status },
        })
}

/// Every `Request` variant, all fields randomized.
fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        key_strategy().prop_map(|key| Request::Get { key }),
        prop::collection::vec(key_strategy(), 0..6).prop_map(|keys| Request::MultiGet { keys }),
        write_op_strategy().prop_map(|op| Request::Write { op }),
        prop::collection::vec(write_op_strategy(), 0..6)
            .prop_map(|ops| Request::MultiWrite { ops }),
        (key_strategy(), any::<u64>()).prop_map(|(key, delta)| Request::Increment { key, delta }),
        (
            key_strategy(),
            prop::option::of(key_strategy()),
            any::<u64>(),
            any::<bool>(),
            prop::option::of(predicate_strategy()),
        )
            .prop_map(|(start, end, limit, reverse, filter)| Request::Scan {
                start,
                end,
                limit,
                reverse,
                filter
            }),
        Just(Request::Ping),
        (any::<u64>(), 0..IsolationLevel::ALL.len())
            .prop_map(|(hint, i)| Request::CmStart { hint, level: IsolationLevel::ALL[i] }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(tid, committed)| Request::CmComplete { tid: TxnId(tid), committed }),
        Just(Request::CmLav),
        Just(Request::CmSync),
        (any::<u64>(), any::<bool>())
            .prop_map(|(tid, committed)| Request::CmResolve { tid: TxnId(tid), committed }),
        any::<bool>().prop_map(|drain| Request::Spans { drain }),
    ]
}

fn metrics_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    let name = || "[a-z_]{1,24}".prop_map(String::from);
    let value = || 0.0..1e12f64;
    let summary =
        (any::<u64>(), prop::collection::vec(value(), 7)).prop_map(|(count, v)| Summary {
            count,
            min: v[0],
            max: v[1],
            mean: v[2],
            stddev: v[3],
            p50: v[4],
            p99: v[5],
            p999: v[6],
        });
    (
        prop::collection::vec((name(), any::<u64>()), 0..6),
        prop::collection::vec((name(), any::<u64>()), 0..6),
        prop::collection::vec((name(), summary), 0..4),
        prop::collection::vec((name(), prop::collection::vec((value(), any::<u64>()), 1..6)), 0..4),
        prop::collection::vec(
            (name(), any::<u64>(), any::<u64>()).prop_map(|(name, contended, wait_us)| LockStat {
                name,
                contended,
                wait_us,
            }),
            0..4,
        ),
    )
        .prop_map(|(counters, gauges, histograms, buckets, locks)| MetricsSnapshot {
            counters,
            gauges,
            histograms,
            buckets,
            locks,
        })
}

/// Every `Response` variant, all fields randomized.
fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        error_strategy().prop_map(Response::Error),
        cell_strategy().prop_map(Response::Cell),
        prop::collection::vec(cell_strategy(), 0..6).prop_map(Response::Cells),
        prop::option::of(any::<u64>()).prop_map(Response::Written),
        prop::collection::vec(
            prop_oneof![
                prop::option::of(any::<u64>()).prop_map(Ok),
                error_strategy().prop_map(Err),
            ],
            0..6,
        )
        .prop_map(Response::WriteResults),
        any::<u64>().prop_map(Response::Counter),
        prop::collection::vec((key_strategy(), any::<u64>(), bytes_strategy(64)), 0..6)
            .prop_map(Response::Rows),
        Just(Response::Pong),
        (any::<u64>(), any::<u64>(), snapshot_strategy()).prop_map(|(tid, lav, snapshot)| {
            Response::TxnStarted { tid: TxnId(tid), lav, snapshot }
        }),
        Just(Response::Unit),
        any::<u64>().prop_map(Response::Lav),
        metrics_strategy().prop_map(Response::Metrics),
        prop::collection::vec(span_strategy(), 0..6).prop_map(Response::Spans),
    ]
}

/// Any request the client can frame: a plain message, or a one-level batch
/// of plain messages (the protocol forbids deeper nesting).
fn any_request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        3 => request_strategy(),
        1 => prop::collection::vec(request_strategy(), 0..5)
            .prop_map(|ops| Request::Batch { ops }),
    ]
}

/// Any response the server can frame, including batches whose per-op slots
/// mix successes with typed errors.
fn any_response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        3 => response_strategy(),
        1 => prop::collection::vec(response_strategy(), 0..5)
            .prop_map(|results| Response::Batch { results }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrips(request in any_request_strategy()) {
        let encoded = request.encode();
        prop_assert_eq!(Request::decode(&encoded).unwrap(), request);
    }

    #[test]
    fn response_roundtrips(response in any_response_strategy()) {
        let encoded = response.encode();
        prop_assert_eq!(Response::decode(&encoded).unwrap(), response);
    }

    /// No strict prefix of a valid message decodes — a truncated body can
    /// never be mistaken for a (different) complete message.
    #[test]
    fn truncated_requests_never_decode(request in any_request_strategy()) {
        let encoded = request.encode();
        for cut in 0..encoded.len() {
            prop_assert!(
                Request::decode(&encoded[..cut]).is_err(),
                "prefix of length {} decoded", cut
            );
        }
    }

    #[test]
    fn truncated_responses_never_decode(response in any_response_strategy()) {
        let encoded = response.encode();
        for cut in 0..encoded.len() {
            prop_assert!(
                Response::decode(&encoded[..cut]).is_err(),
                "prefix of length {} decoded", cut
            );
        }
    }

    /// A batch response maps every nested per-op outcome — success or typed
    /// error — back to exactly the slot it was framed in.
    #[test]
    fn batch_slots_keep_their_order_and_errors(
        results in prop::collection::vec(response_strategy(), 0..5)
    ) {
        let encoded = Response::Batch { results: results.clone() }.encode();
        match Response::decode(&encoded).unwrap() {
            Response::Batch { results: decoded } => prop_assert_eq!(decoded, results),
            other => prop_assert!(false, "decoded to {:?}", other),
        }
    }

    /// A frame round-trips through the decoder, and no strict prefix of
    /// it surfaces as a frame: the decoder waits for the missing bytes.
    #[test]
    fn truncated_frames_never_surface(
        request in request_strategy(),
        corr_id in any::<u64>(),
        ctx in context_strategy(),
    ) {
        let body = request.encode();
        let framed = encode_frame(corr_id, ctx, &body).unwrap();
        prop_assert_eq!(framed.len(), FRAME_HEADER + body.len());
        for cut in 0..framed.len() {
            let mut decoder = FrameDecoder::new();
            decoder.push(&framed[..cut]);
            prop_assert!(decoder.next_frame().unwrap().is_none(), "prefix of {} surfaced", cut);
        }
        let mut decoder = FrameDecoder::new();
        decoder.push(&framed);
        let (got_corr, got_ctx, got_body) = decoder.next_frame().unwrap().unwrap();
        prop_assert_eq!((got_corr, got_ctx), (corr_id, ctx));
        prop_assert_eq!(&Request::decode(&got_body).unwrap(), &request);
        prop_assert!(decoder.is_idle());
    }

    /// The [`FrameDecoder`] recovers exactly what [`encode_frame`] framed,
    /// however the byte stream is cut: a run of traced and untraced frames
    /// fed one byte at a time — every split point a TCP segmentation could
    /// produce — and again in arbitrary chunk sizes, with no frame
    /// surfacing before its last byte arrives.
    #[test]
    fn frame_decoder_matches_encode_frame_at_every_split(
        frames in prop::collection::vec(
            (request_strategy(), any::<u64>(), context_strategy()),
            1..5,
        ),
        chunk_sizes in prop::collection::vec(1usize..9, 1..16),
    ) {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for (request, corr_id, ctx) in &frames {
            let body = request.encode();
            stream.extend(encode_frame(*corr_id, *ctx, &body).unwrap());
            expected.push((*corr_id, *ctx, body));
        }

        // Byte at a time: the worst case, hitting every split point.
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for &byte in &stream {
            decoder.push(&[byte]);
            while let Some((corr_id, ctx, body)) = decoder.next_frame().unwrap() {
                got.push((corr_id, ctx, body.to_vec()));
            }
        }
        prop_assert_eq!(&got, &expected);
        prop_assert!(decoder.is_idle(), "no partial frame may linger");

        // Arbitrary chunk sizes (cycled over the generated list).
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut offset = 0;
        for chunk in chunk_sizes.iter().cycle() {
            if offset >= stream.len() {
                break;
            }
            let end = (offset + chunk).min(stream.len());
            decoder.push(&stream[offset..end]);
            offset = end;
            while let Some((corr_id, ctx, body)) = decoder.next_frame().unwrap() {
                got.push((corr_id, ctx, body.to_vec()));
            }
        }
        prop_assert_eq!(&got, &expected);
        prop_assert!(decoder.is_idle());
    }

    /// The retired telemetry tags (request 23, response 21) decode to an
    /// error whatever follows them: readers diff `Metrics` snapshots now.
    #[test]
    fn retired_telemetry_tags_never_decode(
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut request = vec![23];
        request.extend(&tail);
        prop_assert!(Request::decode(&request).is_err());
        let mut response = vec![21];
        response.extend(&tail);
        prop_assert!(Response::decode(&response).is_err());
    }

    /// Arbitrary bytes — random, or a valid encoding with one field
    /// overwritten by a huge length — never panic a decoder, and never
    /// make it reserve more than the input plus the decoders' `min(1024)`
    /// element caps (and the few bytes of an error message).
    #[test]
    fn decoders_survive_arbitrary_bytes(input in hostile_input_strategy()) {
        let frame_bound = input.len() + ERROR_MESSAGE;
        let bound = frame_bound + 1024 * MAX_ELEMENT;
        let largest = largest_allocation_during(|| {
            let mut decoder = FrameDecoder::new();
            decoder.push(&input);
            while let Ok(Some(_)) = decoder.next_frame() {}
        });
        prop_assert!(largest <= frame_bound, "FrameDecoder reserved {} bytes", largest);
        let largest = largest_allocation_during(|| drop(Request::decode(&input)));
        prop_assert!(largest <= bound, "Request::decode reserved {} bytes", largest);
        let largest = largest_allocation_during(|| drop(Response::decode(&input)));
        prop_assert!(largest <= bound, "Response::decode reserved {} bytes", largest);
    }
}

fn context_strategy() -> impl Strategy<Value = Option<TraceContext>> {
    prop::option::of(
        (1..u64::MAX, any::<u64>())
            .prop_map(|(trace, parent_span)| TraceContext { trace, parent_span }),
    )
}

/// Random bytes, plus valid frames and message bodies with four bytes
/// replaced by a huge little-endian `u32` — the shape of a lying length or
/// count field. The overwrite favours the first bytes, where the frame
/// length and most message counts sit.
fn hostile_input_strategy() -> impl Strategy<Value = Vec<u8>> {
    let huge = prop_oneof![Just(u32::MAX), Just(MAX_FRAME as u32 + 1), 1u32 << 20..u32::MAX];
    let framed = (any_request_strategy(), any::<u64>(), context_strategy())
        .prop_map(|(request, corr_id, ctx)| encode_frame(corr_id, ctx, &request.encode()).unwrap());
    let valid = prop_oneof![
        framed,
        any_request_strategy().prop_map(|r| r.encode()),
        any_response_strategy().prop_map(|r| r.encode()),
        metrics_strategy().prop_map(|m| Response::Metrics(m).encode()),
    ];
    let offset = prop_oneof![0usize..8, any::<usize>()];
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..256),
        (valid, offset, huge).prop_map(|(mut bytes, at, huge)| {
            if bytes.len() >= 4 {
                let at = at % (bytes.len() - 3);
                bytes[at..at + 4].copy_from_slice(&huge.to_le_bytes());
            }
            bytes
        }),
    ]
}

/// Room for a decoder's error message, which names the offending value.
const ERROR_MESSAGE: usize = 256;

/// The largest element any decoder collects into a `Vec`: each decoder may
/// reserve `min(n, 1024)` of them before reading a single one.
const MAX_ELEMENT: usize = {
    let sizes = [
        std::mem::size_of::<Request>(),
        std::mem::size_of::<Response>(),
        std::mem::size_of::<WriteOp>(),
        std::mem::size_of::<Option<(u64, Bytes)>>(),
        std::mem::size_of::<Result<Option<u64>, Error>>(),
        std::mem::size_of::<(Bytes, u64, Bytes)>(),
        std::mem::size_of::<Span>(),
        std::mem::size_of::<LockStat>(),
        std::mem::size_of::<Predicate>(),
    ];
    let mut max = 0;
    let mut i = 0;
    while i < sizes.len() {
        if sizes[i] > max {
            max = sizes[i];
        }
        i += 1;
    }
    max
};

/// Records the largest single allocation made on the current thread, so a
/// test can bound what a decoder reserves.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees carry over; the only addition updates a
// thread-local `Cell` with a const initializer, which never allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.with(|largest| largest.set(0));
    f();
    LARGEST.with(Cell::get)
}

#[test]
fn zero_length_values_survive_the_full_cycle() {
    let op = WriteOp { key: Bytes::new(), expect: Expect::Absent, value: Some(Bytes::new()) };
    let request = Request::Write { op };
    assert_eq!(Request::decode(&request.encode()).unwrap(), request);

    let response = Response::Cell(Some((0, Bytes::new())));
    assert_eq!(Response::decode(&response.encode()).unwrap(), response);
}

#[test]
fn frame_decoder_rejects_desynchronized_lengths() {
    // len < 24 (no room for the header fields): corrupt, not "wait for more".
    for len in [3u32, FRAME_HEADER as u32 - 5] {
        let mut decoder = FrameDecoder::new();
        decoder.push(&len.to_le_bytes());
        assert!(decoder.next_frame().is_err());
    }

    // len > MAX_FRAME: corrupt immediately, before any body bytes arrive.
    let mut decoder = FrameDecoder::new();
    decoder.push(&((MAX_FRAME as u32) + 1).to_le_bytes());
    assert!(decoder.next_frame().is_err());

    // A mid-frame cut is not an error — just not a frame yet.
    let framed = encode_frame(7, None, &Request::Ping.encode()).unwrap();
    let mut decoder = FrameDecoder::new();
    decoder.push(&framed[..framed.len() - 1]);
    assert!(decoder.next_frame().unwrap().is_none());
    assert!(!decoder.is_idle());
    assert_eq!(decoder.buffered(), framed.len() - 1);
}

#[test]
fn megabyte_keys_roundtrip() {
    let key = Bytes::from(vec![0xa5u8; 1 << 20]);
    let request = Request::Get { key: key.clone() };
    assert_eq!(Request::decode(&request.encode()).unwrap(), request);

    let response = Response::Rows(vec![(key, 7, Bytes::from_static(b"v"))]);
    assert_eq!(Response::decode(&response.encode()).unwrap(), response);
}
