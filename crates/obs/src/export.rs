//! Trace assembly and the JSON exports: Chrome trace events and
//! speedscope profiles.
//!
//! A scrape (`tell_top trace`, or a test) drains span rings from several
//! processes, tags each span with the node it came from, and hands the pile
//! to this module: [`group_by_trace`] reassembles per-transaction trees,
//! [`chrome_trace_json`] renders them as Chrome trace-event JSON — one
//! Perfetto "process" per trace, one "thread" per node, so each transaction
//! reads as a waterfall across PN, SN, and CM. [`speedscope_json`] renders
//! a profiler report in the speedscope file format (`tell_top flame
//! --json`).
//!
//! [`validate_json`] is a dependency-free well-formedness check (RFC 8259
//! grammar, no schema) used by the e2e test and by `tell_top` to fail fast
//! on a malformed export.

use std::collections::HashMap;

use tell_common::{Error, Result};

use crate::prof::{CollapsedTable, ProfileReport};
use crate::span::Span;
use crate::trace::fmt_trace;

/// A span plus the node (scrape endpoint) it was drained from.
#[derive(Clone, Debug)]
pub struct SourcedSpan {
    /// Where the span was recorded ("pn", "sn 127.0.0.1:4321", …).
    pub node: String,
    /// The span itself.
    pub span: Span,
}

/// Group spans by trace id. Traces are ordered by their earliest wall-clock
/// start; spans within a trace by start time.
pub fn group_by_trace(spans: Vec<SourcedSpan>) -> Vec<(u64, Vec<SourcedSpan>)> {
    let mut by_trace: HashMap<u64, Vec<SourcedSpan>> = HashMap::new();
    for s in spans {
        by_trace.entry(s.span.trace).or_default().push(s);
    }
    let mut traces: Vec<(u64, Vec<SourcedSpan>)> = by_trace.into_iter().collect();
    for (_, spans) in &mut traces {
        spans.sort_by_key(|s| (s.span.start_wall_us, s.span.id));
    }
    traces.sort_by_key(|(id, spans)| (spans.first().map_or(0, |s| s.span.start_wall_us), *id));
    traces
}

/// Count parent links that do not resolve to a span of the same trace
/// (0-parent roots are fine). A nonzero result usually means a ring
/// overflowed mid-trace or a node was not scraped.
pub fn orphan_parents(spans: &[SourcedSpan]) -> usize {
    let mut ids: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in spans {
        ids.entry(s.span.trace).or_default().push(s.span.id);
    }
    spans
        .iter()
        .filter(|s| {
            s.span.parent != 0
                && !ids.get(&s.span.trace).is_some_and(|v| v.contains(&s.span.parent))
        })
        .count()
}

/// Escape `s` for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Render sourced spans as Chrome trace-event JSON (the `traceEvents`
/// object form Perfetto loads directly). Each trace becomes a Perfetto
/// process (pid = position in start order), each node a thread within it;
/// timestamps are wall-clock microseconds rebased to the earliest span.
pub fn chrome_trace_json(spans: &[SourcedSpan]) -> String {
    let t0 = spans.iter().map(|s| s.span.start_wall_us).min().unwrap_or(0);
    let traces = group_by_trace(spans.to_vec());
    let mut events: Vec<String> = Vec::new();
    for (pid0, (trace, spans)) in traces.iter().enumerate() {
        let pid = pid0 + 1;
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"trace {}"}}}}"#,
            fmt_trace(*trace)
        ));
        let mut tids: HashMap<&str, usize> = HashMap::new();
        for s in spans {
            let next = tids.len() + 1;
            let tid = *tids.entry(s.node.as_str()).or_insert(next);
            if tid == next {
                events.push(format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
                    json_escape(&s.node)
                ));
            }
            let sp = &s.span;
            let status = match sp.attrs.status {
                crate::span::SpanStatus::Ok => "ok",
                crate::span::SpanStatus::Conflict => "conflict",
                crate::span::SpanStatus::Error => "error",
            };
            events.push(format!(
                concat!(
                    r#"{{"name":"{name}","cat":"span","ph":"X","ts":{ts},"dur":{dur},"#,
                    r#""pid":{pid},"tid":{tid},"args":{{"span":"{id:016x}","parent":"{parent:016x}","#,
                    r#""status":"{status}","count":{count},"virt_us":{virt}}}}}"#
                ),
                name = sp.kind.name(),
                ts = sp.start_wall_us.saturating_sub(t0),
                dur = sp.wall_dur_us().max(1),
                pid = pid,
                tid = tid,
                id = sp.id,
                parent = sp.parent,
                status = status,
                count = sp.attrs.count,
                virt = finite(sp.virt_dur_us()),
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Render a profiler report in the speedscope file format
/// (<https://www.speedscope.app/file-format-schema.json>): a shared frame
/// table plus one sampled profile whose samples are frame-index stacks
/// with per-stack weights. Fails only on a malformed folded payload. The
/// `exporter` field keeps the name of the tool that first wrote these
/// files, so output stays byte-comparable with older profiles.
pub fn speedscope_json(report: &ProfileReport) -> Result<String> {
    let table = CollapsedTable::parse_folded(&report.folded, usize::MAX)?;
    let mut frames: Vec<&str> = Vec::new();
    let mut samples: Vec<String> = Vec::new();
    let mut weights: Vec<String> = Vec::new();
    let mut total = 0u64;
    for (names, count) in table.rows() {
        let stack: Vec<String> = names
            .iter()
            .map(|&name| {
                let i = frames.iter().position(|f| *f == name).unwrap_or_else(|| {
                    frames.push(name);
                    frames.len() - 1
                });
                i.to_string()
            })
            .collect();
        samples.push(format!("[{}]", stack.join(",")));
        weights.push(count.to_string());
        total += count;
    }
    let frames: Vec<String> =
        frames.iter().map(|f| format!("{{\"name\":\"{}\"}}", json_escape(f))).collect();
    Ok(format!(
        "{{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\
         \"shared\":{{\"frames\":[{}]}},\
         \"profiles\":[{{\"type\":\"sampled\",\"name\":\"tell ({:.0} Hz, {} samples)\",\
         \"unit\":\"none\",\"startValue\":0,\"endValue\":{total},\
         \"samples\":[{}],\"weights\":[{}]}}],\
         \"exporter\":\"tell_flame\"}}\n",
        frames.join(","),
        report.hz,
        report.samples,
        samples.join(","),
        weights.join(","),
    ))
}

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness validator.

struct Lint<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Lint<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::corrupt(format!("invalid JSON at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<()> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string(),
            b't' => self.literal(b"true"),
            b'f' => self.literal(b"false"),
            b'n' => self.literal(b"null"),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(&format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<()> {
        if self.b[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<()> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<()> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<()> {
        self.expect(b'"')?;
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or_else(|| self.err("truncated escape"))? {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => self.pos += 1,
                        b'u' => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("control byte in string")),
                _ => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<()> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if self.pos == start || self.b[self.pos - 1] == b'-' {
            return Err(self.err("bad number"));
        }
        Ok(())
    }
}

/// Check `text` is one well-formed JSON value with nothing trailing.
pub fn validate_json(text: &str) -> Result<()> {
    let mut l = Lint { b: text.as_bytes(), pos: 0 };
    l.value()?;
    l.skip_ws();
    if l.pos != l.b.len() {
        return Err(l.err("trailing bytes after JSON value"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanAttrs, SpanStatus};
    use crate::Site;

    fn span(trace: u64, id: u64, parent: u64, kind: Site, start: u64, end: u64) -> Span {
        Span {
            trace,
            id,
            parent,
            kind,
            start_virt_us: 0.0,
            end_virt_us: (end - start) as f64,
            start_wall_us: start,
            end_wall_us: end,
            attrs: SpanAttrs { count: 1, status: SpanStatus::Ok },
        }
    }

    fn sourced(node: &str, s: Span) -> SourcedSpan {
        SourcedSpan { node: node.to_string(), span: s }
    }

    #[test]
    fn grouping_orders_traces_and_spans_by_time() {
        let spans = vec![
            sourced("pn", span(2, 21, 0, Site::Txn, 500, 900)),
            sourced("pn", span(1, 11, 0, Site::Txn, 100, 400)),
            sourced("sn", span(1, 12, 11, Site::RpcDispatch, 150, 250)),
        ];
        let traces = group_by_trace(spans);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].0, 1);
        assert_eq!(traces[0].1.len(), 2);
        assert_eq!(traces[0].1[0].span.id, 11);
        assert_eq!(traces[1].0, 2);
    }

    #[test]
    fn orphan_parents_counts_unresolvable_links() {
        let spans = vec![
            sourced("pn", span(1, 11, 0, Site::Txn, 0, 10)),
            sourced("sn", span(1, 12, 11, Site::RpcDispatch, 1, 5)),
            sourced("sn", span(1, 13, 999, Site::StoreWrite, 2, 4)),
            // same id exists but in another trace: still an orphan
            sourced("pn", span(2, 21, 11, Site::Txn, 20, 30)),
        ];
        assert_eq!(orphan_parents(&spans), 2);
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_events() {
        let spans = vec![
            sourced("pn", span(1, 11, 0, Site::Txn, 1000, 1400)),
            sourced("sn 127.0.0.1:9\"x", span(1, 12, 11, Site::RpcDispatch, 1100, 1200)),
        ];
        let json = chrome_trace_json(&spans);
        validate_json(&json).unwrap();
        assert!(json.contains(r#""name":"txn""#));
        assert!(json.contains(r#""name":"rpc.dispatch""#));
        assert!(json.contains(r#""ph":"M""#));
        assert!(json.contains(r#""ts":0"#)); // rebased to the earliest span
        assert!(json.contains("\\\"x")); // node name escaped
    }

    #[test]
    fn chrome_export_bytes_are_pinned() {
        let spans = vec![
            sourced("pn", span(7, 11, 0, Site::Txn, 1000, 1400)),
            sourced("sn 127.0.0.1:9", span(7, 12, 11, Site::RpcDispatch, 1100, 1200)),
        ];
        let expected = concat!(
            "{\"traceEvents\":[\n",
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"#,
            r#""args":{"name":"trace 0000000000000007"}},"#,
            "\n",
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"pn"}},"#,
            "\n",
            r#"{"name":"txn","cat":"span","ph":"X","ts":0,"dur":400,"pid":1,"tid":1,"#,
            r#""args":{"span":"000000000000000b","parent":"0000000000000000","#,
            r#""status":"ok","count":1,"virt_us":400}},"#,
            "\n",
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"sn 127.0.0.1:9"}},"#,
            "\n",
            r#"{"name":"rpc.dispatch","cat":"span","ph":"X","ts":100,"dur":100,"pid":1,"tid":2,"#,
            r#""args":{"span":"000000000000000c","parent":"000000000000000b","#,
            r#""status":"ok","count":1,"virt_us":100}}"#,
            "\n]}\n"
        );
        assert_eq!(chrome_trace_json(&spans), expected);
    }

    #[test]
    fn speedscope_export_bytes_are_pinned() {
        let report = ProfileReport {
            running: true,
            hz: 99.0,
            samples: 21,
            idle: 7,
            dropped: 1,
            folded: "txn 5\ntxn;txn.read 12\nrpc.dispatch;cm.apply 3\n".to_string(),
            locks: Vec::new(),
        };
        let json = speedscope_json(&report).unwrap();
        validate_json(&json).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"$schema":"https://www.speedscope.app/file-format-schema.json","#,
                r#""shared":{"frames":[{"name":"txn"},{"name":"txn.read"},"#,
                r#"{"name":"rpc.dispatch"},{"name":"cm.apply"}]},"#,
                r#""profiles":[{"type":"sampled","name":"tell (99 Hz, 21 samples)","#,
                r#""unit":"none","startValue":0,"endValue":20,"#,
                r#""samples":[[0],[0,1],[2,3]],"weights":[5,12,3]}],"#,
                r#""exporter":"tell_flame"}"#,
                "\n"
            )
        );
        let bad = ProfileReport { folded: "no_such_frame 1\n".to_string(), ..report };
        assert!(speedscope_json(&bad).is_err());
    }

    #[test]
    fn empty_export_is_still_valid() {
        validate_json(&chrome_trace_json(&[])).unwrap();
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in
            ["{}", "[]", r#"{"a":[1,2.5,-3e9,true,false,null,"s\né"]}"#, "  [ {\"x\": {} } ]  "]
        {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "tru",
            "\"unterminated",
            "[1] extra",
            "-",
            "1.2.3",
            "\"bad \\q escape\"",
            "NaN",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
