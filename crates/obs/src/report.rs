//! Self-contained HTML reports from dumped trace/metrics JSON.
//!
//! The input is the line-oriented JSON the rest of this crate emits:
//! `render(ObsMode::Json)` lines (`counter`, `histogram`, `span`,
//! `event`) plus `TraceTree::render_json` lines (`trace`). The output
//! is one HTML string with inline CSS only — no scripts, no network
//! assets — so a dump taken on a server can be opened anywhere.
//!
//! The module carries its own tiny JSON parser ([`parse_json`]) so the
//! workspace stays dependency-free; it doubles as the validity checker
//! behind `qwm obs-report --check-only` and the CI stage that asserts
//! every emitted telemetry line is well-formed JSON.

use std::collections::HashMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn field_str(&self, key: &str) -> String {
        match self.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => fmt_num(*n),
            Some(Json::Bool(b)) => b.to_string(),
            _ => String::new(),
        }
    }

    fn field_f64(&self, key: &str) -> f64 {
        self.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, why: &str) -> String {
        format!("byte {}: {}", self.pos, why)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Combine surrogate pairs; lone surrogates
                            // are rejected (our emitters never produce
                            // them).
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        c => return Err(self.err(&format!("bad escape `\\{}`", c as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }
}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns a byte-offset description of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(v)
}

/// Validates that every non-empty line of `text` is a complete JSON
/// document; returns how many lines were checked.
///
/// # Errors
///
/// Returns `line N: <reason>` for the first malformed line.
pub fn validate_json_lines(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        parse_json(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        n += 1;
    }
    Ok(n)
}

fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n:.3}")
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

struct TraceRow {
    id: u64,
    parent: u64,
    kind: String,
    name: String,
    detail: String,
    start_ns: f64,
    dur_ns: f64,
}

fn flame_section(out: &mut String, traces: &[TraceRow]) {
    let ids: HashMap<u64, &TraceRow> = traces.iter().map(|t| (t.id, t)).collect();
    let mut children: HashMap<u64, Vec<&TraceRow>> = HashMap::new();
    for t in traces {
        children.entry(t.parent).or_default().push(t);
    }
    for c in children.values_mut() {
        c.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns).then(a.id.cmp(&b.id)));
    }
    let mut roots: Vec<&TraceRow> = traces
        .iter()
        .filter(|t| !ids.contains_key(&t.parent))
        .collect();
    roots.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns).then(a.id.cmp(&b.id)));

    out.push_str("<h2>Trace</h2>\n");
    for root in roots {
        // Collect (depth, node) rows via DFS.
        let mut lanes: Vec<Vec<&TraceRow>> = Vec::new();
        let mut stack = vec![(0usize, root)];
        while let Some((depth, node)) = stack.pop() {
            if lanes.len() <= depth {
                lanes.resize_with(depth + 1, Vec::new);
            }
            lanes[depth].push(node);
            if let Some(kids) = children.get(&node.id) {
                for k in kids.iter().rev() {
                    stack.push((depth + 1, k));
                }
            }
        }
        let span_ns = root.dur_ns.max(1.0);
        let _ = writeln!(
            out,
            "<div class=\"flame\"><div class=\"flame-title\">{} &mdash; {}</div>",
            html_escape(&root.name),
            fmt_ns(root.dur_ns)
        );
        for lane in lanes {
            out.push_str("<div class=\"lane\">");
            for n in lane {
                let left = ((n.start_ns - root.start_ns) / span_ns * 100.0).clamp(0.0, 100.0);
                let width = (n.dur_ns / span_ns * 100.0).clamp(0.15, 100.0 - left);
                let label = if n.detail.is_empty() {
                    n.name.clone()
                } else {
                    format!("{} [{}]", n.name, n.detail)
                };
                let _ = write!(
                    out,
                    "<div class=\"span k-{}\" style=\"left:{left:.3}%;width:{width:.3}%\" \
                     title=\"{} &middot; {}\">{}</div>",
                    html_escape(&n.kind),
                    html_escape(&label),
                    fmt_ns(n.dur_ns),
                    html_escape(&label)
                );
            }
            out.push_str("</div>\n");
        }
        out.push_str("</div>\n");
    }
}

/// Builds a self-contained HTML report (inline CSS, no scripts, no
/// external assets) from line-oriented telemetry JSON: `counter`,
/// `histogram`, `span`, `event` and `trace` records.
///
/// # Errors
///
/// Returns `line N: <reason>` if any non-empty line is not valid JSON.
pub fn html_report(title: &str, text: &str) -> Result<String, String> {
    let mut counters: Vec<(String, f64)> = Vec::new();
    let mut hists: Vec<Json> = Vec::new();
    let mut spans: Vec<Json> = Vec::new();
    let mut events: Vec<Json> = Vec::new();
    let mut traces: Vec<TraceRow> = Vec::new();

    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        match v.get("type").and_then(Json::as_str) {
            Some("counter") => counters.push((v.field_str("name"), v.field_f64("value"))),
            Some("histogram") => hists.push(v),
            Some("span") => spans.push(v),
            Some("event") => events.push(v),
            Some("trace") => traces.push(TraceRow {
                id: v.field_f64("id") as u64,
                parent: v.field_f64("parent") as u64,
                kind: v.field_str("kind"),
                name: if v.field_str("kind") == "stage" {
                    format!("stage {}", fmt_num(v.field_f64("m0")))
                } else {
                    v.field_str("name")
                },
                detail: v.field_str("detail"),
                start_ns: v.field_f64("start_ns"),
                dur_ns: v.field_f64("dur_ns"),
            }),
            _ => {} // unknown record types pass through silently
        }
    }

    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>{}</title>", html_escape(title));
    out.push_str(
        "<style>\n\
         body{font-family:monospace;margin:1.5em;background:#fafafa;color:#222}\n\
         h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.4em;border-bottom:1px solid #ccc}\n\
         table{border-collapse:collapse;margin:.5em 0}\n\
         td,th{border:1px solid #ddd;padding:2px 8px;text-align:right}\n\
         td:first-child,th:first-child{text-align:left}\n\
         .flame{margin:1em 0;border:1px solid #ddd;background:#fff;padding:6px}\n\
         .flame-title{font-weight:bold;margin-bottom:4px}\n\
         .lane{position:relative;height:20px;margin-bottom:2px}\n\
         .span{position:absolute;top:0;height:18px;overflow:hidden;white-space:nowrap;\n\
           font-size:11px;line-height:18px;padding-left:2px;box-sizing:border-box;\n\
           border:1px solid rgba(0,0,0,.25)}\n\
         .k-span{background:#9ecae1}.k-stage{background:#a1d99b}.k-arc{background:#fdae6b}\n\
         .bar{display:inline-block;height:9px;background:#6baed6}\n\
         .ev-warn{color:#a60}.ev-error{color:#c00}\n\
         </style></head><body>\n",
    );
    let _ = writeln!(out, "<h1>{}</h1>", html_escape(title));

    if !traces.is_empty() {
        flame_section(&mut out, &traces);
    }

    if !hists.is_empty() {
        out.push_str(
            "<h2>Latency histograms</h2>\n<table><tr><th>name</th><th>count</th>\
                      <th>mean</th><th>p50</th><th>p95</th><th>p99</th><th>max</th>\
                      <th></th></tr>\n",
        );
        let global_max = hists
            .iter()
            .map(|h| h.field_f64("max"))
            .fold(1.0_f64, f64::max);
        for h in &hists {
            let bar = (h.field_f64("p95") / global_max * 220.0).clamp(1.0, 220.0);
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td><span class=\"bar\" style=\"width:{bar:.0}px\"></span></td></tr>",
                html_escape(&h.field_str("name")),
                fmt_num(h.field_f64("count")),
                fmt_num(h.field_f64("mean")),
                fmt_num(h.field_f64("p50")),
                fmt_num(h.field_f64("p95")),
                fmt_num(h.field_f64("p99")),
                fmt_num(h.field_f64("max")),
            );
        }
        out.push_str("</table>\n");
    }

    if !spans.is_empty() {
        out.push_str(
            "<h2>Span aggregates</h2>\n<table><tr><th>path</th><th>count</th>\
             <th>total</th><th>p50</th><th>p95</th><th>max</th></tr>\n",
        );
        for s in &spans {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                html_escape(&s.field_str("path")),
                fmt_num(s.field_f64("count")),
                fmt_ns(s.field_f64("total_ns")),
                fmt_ns(s.field_f64("p50_ns")),
                fmt_ns(s.field_f64("p95_ns")),
                fmt_ns(s.field_f64("max_ns")),
            );
        }
        out.push_str("</table>\n");
    }

    if !counters.is_empty() {
        out.push_str("<h2>Counters</h2>\n<table><tr><th>name</th><th>value</th></tr>\n");
        for (name, v) in &counters {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td></tr>",
                html_escape(name),
                fmt_num(*v)
            );
        }
        out.push_str("</table>\n");
    }

    if !events.is_empty() {
        out.push_str("<h2>Events</h2>\n<ul>\n");
        for e in &events {
            let level = e.field_str("level");
            let mut fields = String::new();
            if let Json::Obj(kvs) = e {
                for (k, v) in kvs {
                    if matches!(k.as_str(), "type" | "level" | "what") {
                        continue;
                    }
                    let _ = write!(
                        fields,
                        " {}={}",
                        k,
                        match v {
                            Json::Str(s) => s.clone(),
                            Json::Num(n) => fmt_num(*n),
                            other => format!("{other:?}"),
                        }
                    );
                }
            }
            let _ = writeln!(
                out,
                "<li class=\"ev-{level}\">[{level}] {}{}</li>",
                html_escape(&e.field_str("what")),
                html_escape(&fields)
            );
        }
        out.push_str("</ul>\n");
    }

    out.push_str("</body></html>\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_our_line_formats() {
        let lines = [
            r#"{"type":"counter","name":"sta.arc.evaluations","value":7}"#,
            r#"{"type":"histogram","name":"server.request.latency_ns.run","count":2,"mean":1.5,"p50":1,"p95":2,"p99":2,"max":2}"#,
            r#"{"type":"span","path":"sta.run/stage","count":1,"total_ns":10,"p50_ns":10,"p95_ns":10,"max_ns":10}"#,
            r#"{"type":"event","level":"warn","what":"x.y","stage":3,"err":"q \"esc\" z"}"#,
            r#"{"type":"trace","id":1,"parent":0,"kind":"span","name":"server.run","detail":"","start_ns":5,"dur_ns":100,"m0":0,"m1":0,"m2":0}"#,
        ];
        for line in lines {
            let v = parse_json(line).unwrap();
            assert!(v.get("type").is_some(), "{line}");
        }
        assert_eq!(validate_json_lines(&lines.join("\n")).unwrap(), 5);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "\"unterminated",
            "{\"a\":01e}",
            "{'single':1}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted: {bad}");
        }
        assert!(validate_json_lines("{\"ok\":1}\nnot json\n").is_err());
    }

    #[test]
    fn html_report_is_self_contained() {
        let dump = r#"{"type":"counter","name":"a.b.c","value":3}
{"type":"histogram","name":"h.one","count":4,"mean":2.0,"p50":2,"p95":3,"p99":3,"max":3}
{"type":"trace","id":1,"parent":0,"kind":"span","name":"server.run","detail":"","start_ns":0,"dur_ns":1000,"m0":0,"m1":0,"m2":0}
{"type":"trace","id":2,"parent":1,"kind":"arc","name":"sta.arc","detail":"qwm","start_ns":100,"dur_ns":500,"m0":3,"m1":20,"m2":0}"#;
        let html = html_report("t<est>", dump).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("t&lt;est&gt;"));
        assert!(html.contains("class=\"flame\""), "flame view missing");
        assert!(html.contains("qwm"), "rung label missing");
        // Self-contained: no external fetches of any kind.
        for needle in ["http://", "https://", "<script", "src=", "@import"] {
            assert!(!html.contains(needle), "external asset: {needle}");
        }
        // Every line we feed must be checked: malformed input is an error.
        assert!(html_report("x", "{bad").is_err());
    }
}
