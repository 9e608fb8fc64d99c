//! Property tests for the snapshot wire codec — any snapshot must
//! round-trip bit-for-bit through `encode` / `decode`, and `decode` must
//! refuse arbitrary bytes without panicking — and for the interval
//! differ: rollup deltas must tile the counter totals exactly. The flame graph's collapsed-stack table gets the
//! same treatment: folded text must encode it losslessly, the cardinality
//! bound must hold, and no weight may vanish — every add lands in a stack
//! or in the drop counter.

use proptest::prelude::*;
use tell_common::codec::Reader;
use tell_common::Summary;
use tell_obs::{CollapsedTable, Counter, LockStat, MetricsSnapshot, Registry, Rollup, Site};

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
        proptest::collection::vec(
            (metric_name(), any::<u64>(), any::<u64>())
                .prop_map(|(name, contended, wait_us)| LockStat { name, contended, wait_us }),
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
// Interval differ: deltas vs a reference model.

proptest! {
    /// Rollup deltas tile the counter totals: each point carries exactly
    /// what was added in its interval, so the deltas sum to the registry's
    /// final total, and each interval is the gap between its readings'
    /// clocks (0 for the first, which is diffed against zero).
    #[test]
    fn rollup_deltas_match_reference_model(
        intervals in proptest::collection::vec(
            (proptest::collection::vec(0u64..1000, 0..4), 1u32..1_000_000),
            1..16,
        ),
    ) {
        let reg = Registry::new();
        let mut rollup = Rollup::new();
        let mut at_us = 0.0;
        let mut total = 0u64;
        for (i, (adds, gap)) in intervals.iter().enumerate() {
            let mut sum = 0u64;
            for n in adds {
                reg.add(Counter::TxnCommitted, *n);
                sum += n;
            }
            at_us += f64::from(*gap);
            let p = rollup.diff(reg.snapshot(), at_us);
            prop_assert_eq!(p.counter(Counter::TxnCommitted), sum);
            prop_assert_eq!(p.interval_us, if i == 0 { 0.0 } else { f64::from(*gap) });
            total += p.counter(Counter::TxnCommitted);
        }
        prop_assert_eq!(total, reg.counter(Counter::TxnCommitted));
    }
}

// ---------------------------------------------------------------------------
// The flame graph's collapsed-stack table.

/// A stack: 1..=15 site codes, each a valid [`Site`].
fn stack() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..Site::ALL.len() as u8, 1..16)
}

fn adds() -> impl Strategy<Value = Vec<(Vec<u8>, u64)>> {
    proptest::collection::vec((stack(), 1u64..10_000), 0..64)
}

proptest! {
    /// Folded text is a faithful encoding: reading back what `to_folded`
    /// rendered — one `name;name weight` line per stack, names the sites'
    /// dotted names — reproduces the table exactly.
    #[test]
    fn folded_encoding_round_trips(adds in adds()) {
        let mut table = CollapsedTable::new(usize::MAX);
        for (key, n) in &adds {
            table.add(key, *n);
        }
        let mut back = CollapsedTable::new(usize::MAX);
        for line in table.to_folded().lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("a weight ends every line");
            let key: Vec<u8> = stack
                .split(';')
                .map(|name| Site::from_name(name).expect("rendered name decodes") as u8)
                .collect();
            back.add(&key, weight.parse().expect("weight is an integer"));
        }
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

    /// Folding two batches of spans into one table preserves every
    /// microsecond: totals are additive, and the order the batches arrive
    /// in (span rings drain shard by shard) cannot change the rendered
    /// output when capacity is unbounded.
    #[test]
    fn merge_is_lossless_and_order_independent(a in adds(), b in adds()) {
        let build = |first: &[(Vec<u8>, u64)], second: &[(Vec<u8>, u64)]| {
            let mut t = CollapsedTable::new(usize::MAX);
            for (key, n) in first.iter().chain(second) {
                t.add(key, *n);
            }
            t
        };
        let (ab, ba) = (build(&a, &b), build(&b, &a));
        prop_assert_eq!(ab.to_folded(), ba.to_folded());
        let sum = |adds: &[(Vec<u8>, u64)]| adds.iter().map(|(_, n)| n).sum::<u64>();
        prop_assert_eq!(ab.total(), sum(&a) + sum(&b));
        prop_assert_eq!(ab.dropped(), 0);
    }
}
