//! Point-in-time metric snapshots: their wire encoding (the
//! `Request::Metrics` answer, in the workspace's binary codec, which also
//! carries the per-lock contention rows) and their two renderings —
//! Prometheus text exposition for scrapes, and a JSON document for
//! machine-readable bench reports and `tell_top metrics --json`.
//!
//! The workspace vendors no serde, so the JSON writer is hand-rolled
//! against exactly the subset this format uses: one object of objects,
//! metric names as keys (they need no escapes), and numbers. Floats are
//! printed with Rust's shortest round-trip formatting (`{:?}`).

use std::fmt::Write as _;

use tell_common::codec::{Reader, Writer};
use tell_common::{Error, Result, Summary};

use crate::prof::LockStat;

/// Metric sets, and a histogram's buckets, are small; any larger length in
/// a decoded snapshot is a corrupt or hostile frame, rejected before
/// allocating.
fn check_len(n: u32) -> Result<u32> {
    if n > 4096 {
        return Err(Error::corrupt(format!("decoded vector length {n} exceeds 4096")));
    }
    Ok(n)
}

/// A merged view of every counter, gauge, and histogram in a registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, in registry declaration order.
    pub counters: Vec<(String, u64)>,
    /// Gauges, in registry declaration order.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries, in registry declaration order.
    pub histograms: Vec<(String, Summary)>,
    /// Sparse raw bucket data per histogram, as ascending
    /// `(upper_bound, count)` pairs. Only histograms with at least one
    /// sample appear.
    pub buckets: Vec<(String, Vec<(f64, u64)>)>,
    /// Contention per named lock, heaviest waiter first. Process-wide, so
    /// only the global snapshot ([`crate::snapshot()`]) fills it; carried on
    /// the wire, not rendered.
    pub locks: Vec<LockStat>,
}

fn f(v: f64) -> String {
    // {:?} is Rust's shortest representation that round-trips through
    // `str::parse::<f64>`, and (for finite values) is valid JSON.
    format!("{v:?}")
}

impl MetricsSnapshot {
    /// Render in the Prometheus text exposition format. Every metric name
    /// is prefixed `tell_`. Histograms with raw bucket data (the `buckets`
    /// section) render as native cumulative histograms — `_bucket{le=...}`
    /// series plus `le="+Inf"`, `_sum`, and `_count`; histograms without
    /// samples fall back to the summary rendering with `quantile="0"` /
    /// `quantile="1"` carrying the observed min and max. Names the local
    /// registry recognizes get a `# HELP` line from the metric id's doc
    /// comment (a snapshot decoded from a remote node may carry names this
    /// build does not know; those render without HELP).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let help = |out: &mut String, name: &str| {
            if let Some(h) = crate::registry::help_for(name) {
                let _ = writeln!(out, "# HELP tell_{name} {h}");
            }
        };
        for (name, v) in &self.counters {
            help(&mut out, name);
            let _ = writeln!(out, "# TYPE tell_{name} counter");
            let _ = writeln!(out, "tell_{name} {v}");
        }
        for (name, v) in &self.gauges {
            help(&mut out, name);
            let _ = writeln!(out, "# TYPE tell_{name} gauge");
            let _ = writeln!(out, "tell_{name} {v}");
        }
        for (name, s) in &self.histograms {
            help(&mut out, name);
            let raw = self.buckets.iter().find(|(n, _)| n == name).map(|(_, b)| b);
            match raw {
                Some(buckets) => {
                    let _ = writeln!(out, "# TYPE tell_{name} histogram");
                    let mut cum = 0u64;
                    for (upper, count) in buckets {
                        cum += count;
                        let _ = writeln!(out, "tell_{name}_bucket{{le=\"{}\"}} {cum}", f(*upper));
                    }
                    let _ = writeln!(out, "tell_{name}_bucket{{le=\"+Inf\"}} {}", s.count);
                }
                None => {
                    let _ = writeln!(out, "# TYPE tell_{name} summary");
                    let _ = writeln!(out, "tell_{name}{{quantile=\"0\"}} {}", f(s.min));
                    let _ = writeln!(out, "tell_{name}{{quantile=\"0.5\"}} {}", f(s.p50));
                    let _ = writeln!(out, "tell_{name}{{quantile=\"0.99\"}} {}", f(s.p99));
                    let _ = writeln!(out, "tell_{name}{{quantile=\"0.999\"}} {}", f(s.p999));
                    let _ = writeln!(out, "tell_{name}{{quantile=\"1\"}} {}", f(s.max));
                }
            }
            let _ = writeln!(out, "tell_{name}_sum {}", f(s.mean * s.count as f64));
            let _ = writeln!(out, "tell_{name}_count {}", s.count);
        }
        out
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"stddev\":{},\
                 \"p50\":{},\"p99\":{},\"p999\":{}}}",
                s.count,
                f(s.min),
                f(s.max),
                f(s.mean),
                f(s.stddev),
                f(s.p50),
                f(s.p99),
                f(s.p999),
            );
        }
        out.push('}');
        if !self.buckets.is_empty() {
            // Emitted only when non-empty: a snapshot without histogram
            // samples renders without the section.
            out.push_str(",\"buckets\":{");
            for (i, (name, pairs)) in self.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{{");
                for (j, (upper, count)) in pairs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{count}", f(*upper));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Append the wire encoding: each section as a count, then its entries.
    pub fn encode(&self, w: &mut impl Writer) {
        for section in [&self.counters, &self.gauges] {
            w.put_u32(section.len() as u32);
            for (name, v) in section {
                w.put_string(name);
                w.put_u64(*v);
            }
        }
        w.put_u32(self.histograms.len() as u32);
        for (name, s) in &self.histograms {
            w.put_string(name);
            w.put_u64(s.count);
            for v in [s.min, s.max, s.mean, s.stddev, s.p50, s.p99, s.p999] {
                w.put_f64(v);
            }
        }
        w.put_u32(self.buckets.len() as u32);
        for (name, pairs) in &self.buckets {
            w.put_string(name);
            w.put_u32(pairs.len() as u32);
            for (upper, count) in pairs {
                w.put_f64(*upper);
                w.put_u64(*count);
            }
        }
        w.put_u32(self.locks.len() as u32);
        for l in &self.locks {
            w.put_string(&l.name);
            w.put_u64(l.contended);
            w.put_u64(l.wait_us);
        }
    }

    /// Decode one snapshot from the reader.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let mut snap = MetricsSnapshot::default();
        for section in [&mut snap.counters, &mut snap.gauges] {
            for _ in 0..check_len(r.u32()?)? {
                section.push((r.string()?, r.u64()?));
            }
        }
        for _ in 0..check_len(r.u32()?)? {
            let name = r.string()?;
            let s = Summary {
                count: r.u64()?,
                min: r.f64()?,
                max: r.f64()?,
                mean: r.f64()?,
                stddev: r.f64()?,
                p50: r.f64()?,
                p99: r.f64()?,
                p999: r.f64()?,
            };
            snap.histograms.push((name, s));
        }
        for _ in 0..check_len(r.u32()?)? {
            let name = r.string()?;
            let mut pairs = Vec::new();
            for _ in 0..check_len(r.u32()?)? {
                pairs.push((r.f64()?, r.u64()?));
            }
            snap.buckets.push((name, pairs));
        }
        for _ in 0..check_len(r.u32()?)? {
            let lock = LockStat { name: r.string()?, contended: r.u64()?, wait_us: r.u64()? };
            snap.locks.push(lock);
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("txn_committed_total".into(), 42), ("gc_cycles_total".into(), 0)],
            gauges: vec![("cm_base".into(), 17)],
            histograms: vec![(
                "txn_total_us".into(),
                Summary {
                    count: 3,
                    min: 1.5,
                    max: 1e9,
                    mean: 12.25,
                    stddev: 0.001,
                    p50: 2.0,
                    p99: 1e9,
                    p999: 1e9,
                },
            )],
            buckets: vec![],
            locks: vec![],
        }
    }

    fn sample_with_buckets() -> MetricsSnapshot {
        let mut snap = sample();
        snap.buckets = vec![("txn_total_us".into(), vec![(2.0, 2), (1073741824.0, 1)])];
        snap.locks = vec![
            LockStat { name: "cm.state".into(), contended: 12, wait_us: 480 },
            LockStat { name: "store.partition.map".into(), contended: 0, wait_us: 0 },
        ];
        snap
    }

    fn round_trip(snap: &MetricsSnapshot) -> MetricsSnapshot {
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = MetricsSnapshot::decode(&mut r).expect("decode");
        assert!(r.is_exhausted());
        back
    }

    /// A scraper renders the snapshot it decoded: the JSON it prints is
    /// the JSON the server would have rendered.
    #[test]
    fn json_round_trips() {
        let snap = sample();
        let back = round_trip(&snap);
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), snap.to_json());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        assert_eq!(round_trip(&snap), snap);
        assert_eq!(snap.to_json(), r#"{"counters":{},"gauges":{},"histograms":{}}"#);
    }

    #[test]
    fn garbage_is_rejected() {
        let mut body = Vec::new();
        sample_with_buckets().encode(&mut body);
        for cut in 0..body.len() {
            assert!(MetricsSnapshot::decode(&mut Reader::new(&body[..cut])).is_err(), "cut {cut}");
        }
        // A hostile count fails before anything is allocated for it.
        let mut hostile = Vec::new();
        hostile.put_u32(1 << 30);
        assert!(MetricsSnapshot::decode(&mut Reader::new(&hostile)).is_err());
        // Names must be UTF-8.
        let mut bad = Vec::new();
        bad.put_u32(1);
        bad.put_bytes(&[0xff]);
        bad.put_u64(1);
        assert!(MetricsSnapshot::decode(&mut Reader::new(&bad)).is_err());
    }

    #[test]
    fn buckets_round_trip_through_json() {
        let snap = sample_with_buckets();
        let json = snap.to_json();
        assert!(json.contains("\"buckets\":{\"txn_total_us\":{\"2.0\":2,\"1073741824.0\":1}}"));
        assert!(!sample().to_json().contains("buckets"));
        let back = round_trip(&snap);
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json);
    }

    /// Nothing parses the JSON rendering back, so its bytes are pinned:
    /// `tell_top metrics --json` and the bench reports print exactly this.
    #[test]
    fn to_json_bytes_are_pinned() {
        let json = sample_with_buckets().to_json();
        assert_eq!(
            json,
            concat!(
                r#"{"counters":{"txn_committed_total":42,"gc_cycles_total":0},"#,
                r#""gauges":{"cm_base":17},"#,
                r#""histograms":{"txn_total_us":{"count":3,"min":1.5,"max":1000000000.0,"#,
                r#""mean":12.25,"stddev":0.001,"p50":2.0,"p99":1000000000.0,"#,
                r#""p999":1000000000.0}},"#,
                r#""buckets":{"txn_total_us":{"2.0":2,"1073741824.0":1}}}"#,
            )
        );
        crate::export::validate_json(&json).expect("well-formed JSON");
    }

    #[test]
    fn bucket_data_renders_as_native_histogram() {
        let text = sample_with_buckets().to_prometheus_text();
        assert!(text.contains("# TYPE tell_txn_total_us histogram"));
        // cumulative: 2, then 2+1
        assert!(text.contains("tell_txn_total_us_bucket{le=\"2.0\"} 2"));
        assert!(text.contains("tell_txn_total_us_bucket{le=\"1073741824.0\"} 3"));
        assert!(text.contains("tell_txn_total_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("tell_txn_total_us_count 3"));
        assert!(!text.contains("quantile"));
        // A live registry with samples exports native histograms end to end.
        let reg = crate::registry::Registry::new();
        reg.observe(crate::registry::Phase::TxnTotal, 10.0);
        reg.observe(crate::registry::Phase::TxnTotal, 20.0);
        let text = reg.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE tell_txn_total_us histogram"));
        assert!(text.contains("tell_txn_total_us_bucket{le=\"+Inf\"} 2"));
        // …while sample-less histograms keep the summary fallback.
        assert!(text.contains("# TYPE tell_gc_cycle_us summary"));
    }

    #[test]
    fn prometheus_text_has_expected_lines() {
        let text = sample().to_prometheus_text();
        assert!(text.contains("# TYPE tell_txn_committed_total counter"));
        assert!(text.contains("tell_txn_committed_total 42"));
        assert!(text.contains("# TYPE tell_cm_base gauge"));
        assert!(text.contains("tell_txn_total_us{quantile=\"0.99\"} 1000000000.0"));
        assert!(text.contains("tell_txn_total_us_count 3"));
    }

    #[test]
    fn prometheus_text_has_help_lines() {
        let text = sample().to_prometheus_text();
        // HELP precedes TYPE for every name the registry knows…
        assert!(text.contains(
            "# HELP tell_txn_committed_total Transactions committed.\n\
             # TYPE tell_txn_committed_total counter"
        ));
        assert!(text
            .contains(&format!("# HELP tell_cm_base {}", crate::registry::Gauge::CmBase.help())));
        assert!(text.contains(&format!(
            "# HELP tell_txn_total_us {}",
            crate::registry::Phase::TxnTotal.help()
        )));
        // …and a full registry snapshot has one HELP per metric.
        let full = crate::registry::Registry::new().snapshot().to_prometheus_text();
        let helps = full.matches("# HELP ").count();
        let types = full.matches("# TYPE ").count();
        assert_eq!(helps, types);
        // An unknown (remote-only) name renders without a HELP line.
        let mut alien = MetricsSnapshot::default();
        alien.counters.push(("alien_total".to_string(), 1));
        let text = alien.to_prometheus_text();
        assert!(text.contains("# TYPE tell_alien_total counter"));
        assert!(!text.contains("# HELP tell_alien_total"));
    }
}
