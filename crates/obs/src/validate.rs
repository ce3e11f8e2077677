//! Chrome-trace parsing and validation.
//!
//! The repo emits traces; this module reads them back. It carries a small
//! recursive-descent JSON parser (the workspace vendors no serde) and a
//! validator that checks what trace viewers silently forgive: every event
//! carries `name`/`ph`/`pid`/`tid`, timestamps are numbers, and `"B"`/`"E"`
//! span events nest properly per thread (each `E` closes the innermost
//! open span of the same name). The trace-roundtrip tests and the CI
//! `check_trace` gate are built on [`validate_chrome_trace`].
//!
//! A top-level array without its closing `]` is accepted — the incremental
//! writer relies on that tolerance for kill-safety — but every individual
//! event object must still parse completely.

use std::collections::{BTreeMap, BTreeSet};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Byte-cursor over the input text.
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Starts a parser at the beginning of `text`.
    pub fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0 }
    }

    /// Skips whitespace; returns the next byte without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                got.map(|g| g as char)
            )),
        }
    }

    /// Parses one complete JSON value at the cursor.
    pub fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        self.peek();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.peek();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number '{text}': {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs never appear in our own output;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Take the whole run up to the next quote or escape at
                    // once. Both are ASCII, so they never fall inside a
                    // multi-byte character and the run is valid UTF-8.
                    let start = self.pos - 1;
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or_else(|| "unterminated string".to_string())?;
                    self.pos = start + len;
                    let run = &self.bytes[start..self.pos];
                    out.push_str(std::str::from_utf8(run).map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a position-annotated message on malformed input or trailing
/// garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    if p.peek().is_some() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// What [`validate_chrome_trace`] learned about a trace.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Total events parsed (including metadata).
    pub events: usize,
    /// `B`/`E` pairs that closed properly.
    pub spans_completed: usize,
    /// Spans still open at end of trace (normal for a killed daemon,
    /// should be 0 for a complete CLI trace).
    pub open_spans: usize,
    /// Distinct span names seen.
    pub span_names: BTreeSet<String>,
    /// Final value of each counter, keyed by name and summed across
    /// threads (the exporter emits per-thread running totals).
    pub counters: BTreeMap<String, f64>,
}

/// Parses a Chrome trace (terminated or not) and checks span hygiene.
///
/// Checks, per event: `name` and `ph` are strings, `pid`/`tid` are
/// numbers, non-metadata events carry a numeric `ts`. Checks, per thread:
/// every `"E"` closes the innermost open `"B"` **of the same name** —
/// crossed spans (`B a, B b, E a, E b`) are rejected, which is exactly the
/// nesting discipline RAII guards guarantee.
///
/// # Errors
///
/// Returns a message naming the first offending event and what was wrong
/// with it.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let mut p = Parser::new(text);
    p.expect(b'[')?;
    let mut summary = TraceSummary::default();
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    // Counter tracks are per-thread running totals; keep the last value of
    // each (name, tid) track and sum across threads at the end.
    let mut counter_tracks: BTreeMap<(String, u64), f64> = BTreeMap::new();
    loop {
        match p.peek() {
            None => break,       // unterminated array: accepted
            Some(b']') => break, // terminated array
            Some(b',') => {
                p.pos += 1;
                continue;
            }
            Some(_) => {}
        }
        let event = p.value().map_err(|e| format!("event {}: {e}", summary.events))?;
        let idx = summary.events;
        summary.events += 1;
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing string 'name'"))?
            .to_string();
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx} ({name}): missing string 'ph'"))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {idx} ({name}): missing numeric 'tid'"))?
            as u64;
        event
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {idx} ({name}): missing numeric 'pid'"))?;
        if ph != "M" {
            event
                .get("ts")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {idx} ({name}): missing numeric 'ts'"))?;
        }
        match ph {
            "B" => {
                summary.span_names.insert(name.clone());
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let stack = stacks.entry(tid).or_default();
                match stack.last() {
                    Some(top) if *top == name => {
                        stack.pop();
                        summary.spans_completed += 1;
                    }
                    Some(top) => {
                        return Err(format!(
                            "event {idx}: E '{name}' crosses open span '{top}' on tid {tid}"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {idx}: E '{name}' on tid {tid} with no open span"
                        ));
                    }
                }
            }
            "C" => {
                let value = event
                    .get("args")
                    .and_then(|a| a.get(&name))
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {idx}: counter '{name}' missing args value"))?;
                counter_tracks.insert((name, tid), value);
            }
            "M" | "X" | "i" | "I" => {}
            other => return Err(format!("event {idx} ({name}): unknown ph '{other}'")),
        }
    }
    for ((name, _tid), value) in counter_tracks {
        *summary.counters.entry(name).or_insert(0.0) += value;
    }
    summary.open_spans = stacks.values().map(Vec::len).sum();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_strings_and_nesting() {
        let v = parse_json(r#"{"a":[1,-2.5,"x\nA é€"],"b":{"c":true,"d":null}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5), Json::Str("x\nA é€".into())])
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_escapes() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json(r#""\q""#).is_err());
        assert!(parse_json("[1,").is_err());
    }

    #[test]
    fn valid_trace_balances() {
        let trace = r#"[
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}},
            {"name":"optimize","ph":"B","ts":1.0,"pid":1,"tid":1},
            {"name":"certify","ph":"B","ts":2.0,"pid":1,"tid":1},
            {"name":"search.accept","ph":"C","ts":2.5,"pid":1,"tid":1,"args":{"search.accept":4}},
            {"name":"certify","ph":"E","ts":3.0,"pid":1,"tid":1},
            {"name":"optimize","ph":"E","ts":4.0,"pid":1,"tid":1}
        ]"#;
        let summary = validate_chrome_trace(trace).unwrap();
        assert_eq!(summary.events, 6);
        assert_eq!(summary.spans_completed, 2);
        assert_eq!(summary.open_spans, 0);
        assert!(summary.span_names.contains("optimize"));
        assert_eq!(summary.counters["search.accept"], 4.0);
    }

    #[test]
    fn counter_tracks_sum_across_threads() {
        // Each thread's track is a running total: keep the last value per
        // (name, tid) and sum across threads — not last-event-wins.
        let trace = r#"[
            {"name":"eval.full","ph":"C","ts":1.0,"pid":1,"tid":1,"args":{"eval.full":2}},
            {"name":"eval.full","ph":"C","ts":2.0,"pid":1,"tid":2,"args":{"eval.full":5}},
            {"name":"eval.full","ph":"C","ts":3.0,"pid":1,"tid":1,"args":{"eval.full":3}}
        ]"#;
        let summary = validate_chrome_trace(trace).unwrap();
        assert_eq!(summary.counters["eval.full"], 8.0);
    }

    #[test]
    fn crossed_spans_are_rejected() {
        let trace = r#"[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1},
            {"name":"b","ph":"B","ts":2.0,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":3.0,"pid":1,"tid":1}
        ]"#;
        let err = validate_chrome_trace(trace).unwrap_err();
        assert!(err.contains("crosses"), "{err}");
    }

    #[test]
    fn unterminated_array_is_accepted_with_open_spans_counted() {
        let trace = "[\n{\"name\":\"job.run\",\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":7}";
        let summary = validate_chrome_trace(trace).unwrap();
        assert_eq!(summary.events, 1);
        assert_eq!(summary.open_spans, 1);
    }

    #[test]
    fn end_without_begin_is_rejected() {
        let trace = r#"[{"name":"a","ph":"E","ts":1.0,"pid":1,"tid":1}]"#;
        assert!(validate_chrome_trace(trace).is_err());
    }
}
