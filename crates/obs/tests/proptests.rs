//! Property tests for the snapshot wire codec — any snapshot must
//! round-trip bit-for-bit through `encode` / `decode`, and `decode` must
//! refuse arbitrary bytes without panicking — and for the
//! telemetry time-series ring: `since` must match a reference model under
//! arbitrary scrape cursors and ring wrap, and rollup deltas must tile the
//! counter totals exactly. The profiler's collapsed-stack encoder gets the
//! same treatment: folded text must round-trip, the cardinality bound must
//! hold, and no sample may vanish — every add lands in a stack or in the
//! drop counter.

use std::sync::Arc;

use proptest::prelude::*;
use tell_common::codec::Reader;
use tell_common::Summary;
use tell_obs::{CollapsedTable, Counter, MetricsSnapshot, Registry, Rollup, Site, TsPoint, TsRing};

fn metric_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,30}"
}

fn finite_f64() -> impl Strategy<Value = f64> {
    // Non-negative finite values, the domain Histogram::summary produces.
    prop_oneof![
        Just(0.0),
        0.0..1e12f64,
        (0u64..u64::MAX)
            .prop_map(|b| f64::from_bits(b).abs())
            .prop_filter("finite", |v| v.is_finite()),
    ]
}

fn summary() -> impl Strategy<Value = Summary> {
    (
        (any::<u64>(), finite_f64(), finite_f64(), finite_f64()),
        (finite_f64(), finite_f64(), finite_f64(), finite_f64()),
    )
        .prop_map(|((count, min, max, mean), (stddev, p50, p99, p999))| Summary {
            count,
            min,
            max,
            mean,
            stddev,
            p50,
            p99,
            p999,
        })
}

fn positive_finite_f64() -> impl Strategy<Value = f64> {
    // Bucket upper bounds: strictly positive finite values.
    finite_f64().prop_map(|v| if v > 0.0 { v } else { 1.0 })
}

fn snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec((metric_name(), any::<u64>()), 0..8),
        proptest::collection::vec((metric_name(), any::<u64>()), 0..8),
        proptest::collection::vec((metric_name(), summary()), 0..8),
        proptest::collection::vec(
            (metric_name(), proptest::collection::vec((positive_finite_f64(), any::<u64>()), 1..6)),
            0..4,
        ),
    )
        .prop_map(|(counters, gauges, histograms, buckets)| MetricsSnapshot {
            counters,
            gauges,
            histograms,
            buckets,
        })
}

proptest! {
    #[test]
    fn snapshot_round_trips_through_the_codec(snap in snapshot()) {
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = MetricsSnapshot::decode(&mut r).expect("encoded snapshot must decode");
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(back, snap);
    }

    /// A valid encoding cut anywhere and followed by arbitrary bytes.
    #[test]
    fn decode_never_panics(
        snap in snapshot(),
        cut in any::<usize>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        buf.truncate(cut % (buf.len() + 1));
        buf.extend(noise);
        let _ = MetricsSnapshot::decode(&mut Reader::new(&buf));
    }
}

// ---------------------------------------------------------------------------
// Time-series ring: `since` vs a reference model.

#[derive(Debug, Clone)]
enum RingOp {
    Push,
    Since { cursor: u64, max: usize },
}

fn ring_ops() -> impl Strategy<Value = Vec<RingOp>> {
    proptest::collection::vec(
        prop_oneof![
            2 => Just(RingOp::Push),
            1 => (0u64..60, 1usize..12)
                .prop_map(|(cursor, max)| RingOp::Since { cursor, max }),
        ],
        1..80,
    )
}

proptest! {
    /// The ring's cursor reads must agree with a trivially correct model:
    /// seqs are 1..=pushed, only the newest `capacity` survive the wrap, a
    /// scrape returns the kept seqs above the cursor (bounded by `max`),
    /// and a cursor ahead of the ring resets to the start.
    #[test]
    fn ring_since_matches_reference_model(
        capacity in 1usize..6,
        ops in ring_ops(),
    ) {
        let ring = TsRing::new(capacity);
        let mut pushed: u64 = 0;
        for op in ops {
            match op {
                RingOp::Push => {
                    pushed += 1;
                    prop_assert_eq!(ring.push(TsPoint::default()), pushed);
                }
                RingOp::Since { cursor, max } => {
                    let (points, next) = ring.since(cursor, max);
                    let latest = pushed;
                    let cur = if cursor > latest { 0 } else { cursor };
                    let oldest_kept = pushed.saturating_sub(capacity as u64) + 1;
                    let expect: Vec<u64> =
                        (oldest_kept.max(cur + 1)..=latest).take(max).collect();
                    let got: Vec<u64> = points.iter().map(|p| p.seq).collect();
                    prop_assert_eq!(&got, &expect);
                    prop_assert_eq!(next, expect.last().copied().unwrap_or(latest));
                }
            }
        }
    }

    /// Rollup deltas tile the counter totals: each point carries exactly
    /// what was added in its interval, and (with a ring big enough not to
    /// evict) the deltas sum to the registry's final total.
    #[test]
    fn rollup_deltas_match_reference_model(
        intervals in proptest::collection::vec(
            proptest::collection::vec(0u64..1000, 0..4),
            1..16,
        ),
    ) {
        let reg = Registry::new();
        let ring = Arc::new(TsRing::new(64));
        let mut rollup = Rollup::new(Arc::clone(&ring));
        for adds in &intervals {
            let mut sum = 0u64;
            for n in adds {
                reg.add(Counter::TxnCommitted, *n);
                sum += n;
            }
            let p = rollup.roll(&reg, 0.0, 0);
            prop_assert_eq!(p.counter(Counter::TxnCommitted), sum);
        }
        let (points, next) = ring.since(0, 1024);
        prop_assert_eq!(points.len(), intervals.len());
        prop_assert_eq!(next, intervals.len() as u64);
        let total: u64 = points.iter().map(|p| p.counter(Counter::TxnCommitted)).sum();
        prop_assert_eq!(total, reg.counter(Counter::TxnCommitted));
    }
}

// ---------------------------------------------------------------------------
// Profiler collapsed-stack encoder.

/// A logical stack: 1..=MAX_DEPTH frame codes, each a valid [`Site`].
fn stack() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..Site::ALL.len() as u8, 1..16)
}

fn adds() -> impl Strategy<Value = Vec<(Vec<u8>, u64)>> {
    proptest::collection::vec((stack(), 1u64..10_000), 0..64)
}

proptest! {
    /// Folded text is a faithful encoding: parsing what `to_folded`
    /// rendered reproduces the table exactly (same stacks, same counts,
    /// and — with an unbounded parse — nothing dropped).
    #[test]
    fn folded_encoding_round_trips(adds in adds()) {
        let mut table = CollapsedTable::new(usize::MAX);
        for (key, n) in &adds {
            table.add(key, *n);
        }
        let folded = table.to_folded();
        let back = CollapsedTable::parse_folded(&folded, usize::MAX)
            .expect("rendered folded text must parse");
        prop_assert_eq!(back.rows(), table.rows());
        prop_assert_eq!(back.total(), table.total());
        prop_assert_eq!(back.dropped(), 0);
    }

    /// The cardinality bound holds and the drop counter accounts exactly
    /// for what the bound rejected: distinct stacks never exceed
    /// `max_stacks`, and recorded + dropped equals the sum of all adds.
    #[test]
    fn cardinality_bound_and_drop_accounting(
        max_stacks in 1usize..8,
        adds in adds(),
    ) {
        let mut table = CollapsedTable::new(max_stacks);
        let mut total_added = 0u64;
        for (key, n) in &adds {
            table.add(key, *n);
            total_added += n;
        }
        prop_assert!(table.len() <= max_stacks);
        prop_assert_eq!(table.total() + table.dropped(), total_added);
        // A stack admitted once keeps accepting samples: re-adding every
        // recorded stack must not increase the drop counter.
        let dropped_before = table.dropped();
        let keys: Vec<Vec<u8>> = table
            .rows()
            .iter()
            .map(|(names, _)| {
                names
                    .iter()
                    .map(|n| Site::from_name(n).expect("rendered name decodes") as u8)
                    .collect()
            })
            .collect();
        for key in &keys {
            table.add(key, 1);
        }
        prop_assert_eq!(table.dropped(), dropped_before);
    }

    /// Merging preserves every sample: totals and drops are additive, and
    /// merge order cannot change the rendered output when capacity is
    /// unbounded.
    #[test]
    fn merge_is_lossless_and_order_independent(a in adds(), b in adds()) {
        let build = |adds: &[(Vec<u8>, u64)]| {
            let mut t = CollapsedTable::new(usize::MAX);
            for (key, n) in adds {
                t.add(key, *n);
            }
            t
        };
        let (ta, tb) = (build(&a), build(&b));
        let mut ab = ta.clone();
        ab.merge(&tb);
        let mut ba = tb.clone();
        ba.merge(&ta);
        prop_assert_eq!(ab.to_folded(), ba.to_folded());
        prop_assert_eq!(ab.total(), ta.total() + tb.total());
        prop_assert_eq!(ab.dropped(), 0);
    }

    /// The parser never panics, and whatever it accepts re-renders to the
    /// same parse (idempotent normalization).
    #[test]
    fn folded_parser_never_panics(text in "\\PC{0,200}") {
        if let Ok(table) = CollapsedTable::parse_folded(&text, 32) {
            let again = CollapsedTable::parse_folded(&table.to_folded(), 32)
                .expect("normalized folded text must parse");
            prop_assert_eq!(again.rows(), table.rows());
        }
    }
}
