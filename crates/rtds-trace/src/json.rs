//! A minimal, deterministic JSON value, writer and parser.
//!
//! The build environment has no registry access, so the workspace's `serde`
//! is a no-op stub (see `crates/compat/README.md`); sweep reports and
//! workload traces therefore serialize through this hand-rolled value type.
//! Everything about the output is pinned: object keys keep insertion order,
//! numbers render via Rust's shortest-round-trip formatting, and non-finite
//! floats become `null` — so a report is byte-identical across runs, thread
//! counts and platforms.
//!
//! Two renderings are provided: [`Json::render`] (pretty, two-space indent,
//! used for the report files) and [`Json::render_compact`] (single line,
//! used for JSONL workload traces). [`Json::parse`] reads either form back;
//! because shortest-round-trip float formatting is exact, a
//! render → parse → render cycle is byte-identical, which the trace
//! record/replay machinery in `rtds-workload` relies on.
//!
//! The scalar writers [`write_f64`] and [`write_escaped`] are public so
//! streaming writers (the `rtds-trace/1` JSONL lines and the chrome://tracing
//! export) emit the same dialect without building a [`Json`] tree per event.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (renders without a decimal point).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order for deterministic output.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as a pretty-printed JSON document (two-space
    /// indent) plus a trailing newline — the report-file form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders the value on a single line with no whitespace and no trailing
    /// newline (the JSONL form used by workload traces).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The value of an object field, if this is an object with that key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int`, `UInt` and `Num` all convert to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// Unsigned view: `UInt`, non-negative `Int` and integral `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            Json::Num(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Some(x as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (either rendering form). Trailing whitespace
    /// is allowed; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// Shared writer behind both renderings: `indent` is the current
    /// nesting depth in pretty mode, `None` in compact (single-line) mode.
    /// One code path keeps the two forms scalar-for-scalar identical,
    /// which the trace record/replay byte-fixpoint depends on.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.map(|d| d + 1));
                    item.write(out, indent.map(|d| d + 1));
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.map(|d| d + 1));
                    write_escaped(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, indent.map(|d| d + 1));
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

/// Error raised by [`Json::parse`]: the byte offset of the failure plus a
/// human-readable description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonParseError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?
                            };
                            out.push(c);
                            // hex4 leaves pos on the byte after the digits;
                            // skip the shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim; the
                    // input is a &str, so slicing on char boundaries is safe
                    // as long as we advance over whole characters.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peeked byte exists");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'+' | b'-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        // Integral tokens become Int/UInt so that a parse → render cycle
        // preserves the original spelling; overflow falls through to f64.
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonParseError {
                offset: start,
                message: format!("invalid number {text:?}"),
            })
    }
}

/// Line break plus indentation in pretty mode; nothing in compact mode.
fn newline(out: &mut String, indent: Option<usize>) {
    let Some(indent) = indent else { return };
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends a float: shortest round-trip digits, `null` if non-finite.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is Rust's shortest round-trip float formatting ("1.0",
        // "0.25", "1e-7"), stable across platforms and always JSON-legal
        // for finite values.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends a quoted string with the dialect's minimal escape set.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::UInt(7).render(), "7\n");
        assert_eq!(Json::Num(0.5).render(), "0.5\n");
        assert_eq!(Json::Num(2.0).render(), "2.0\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"\n");
    }

    #[test]
    fn containers_render_with_stable_order() {
        let doc = Json::object(vec![
            ("b", Json::Int(1)),
            ("a", Json::Array(vec![Json::Int(2), Json::str("x")])),
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(vec![])),
        ]);
        let rendered = doc.render();
        // Keys stay in insertion order (b before a), nested indentation is
        // two spaces per level.
        let expected = "{\n  \"b\": 1,\n  \"a\": [\n    2,\n    \"x\"\n  ],\n  \"empty_arr\": [],\n  \"empty_obj\": {}\n}\n";
        assert_eq!(rendered, expected);
        // Rendering is a pure function.
        assert_eq!(rendered, doc.render());
    }

    #[test]
    fn compact_rendering_is_single_line() {
        let doc = Json::object(vec![
            ("t", Json::Num(12.5)),
            ("site", Json::UInt(3)),
            ("tags", Json::Array(vec![Json::str("a"), Json::Null])),
        ]);
        assert_eq!(
            doc.render_compact(),
            "{\"t\":12.5,\"site\":3,\"tags\":[\"a\",null]}"
        );
    }

    #[test]
    fn parse_round_trips_both_renderings() {
        let doc = Json::object(vec![
            ("name", Json::str("wave \"q\"\n")),
            ("count", Json::UInt(18446744073709551615)),
            ("delta", Json::Int(-42)),
            ("rate", Json::Num(0.30000000000000004)),
            ("tiny", Json::Num(1e-7)),
            ("flag", Json::Bool(false)),
            ("missing", Json::Null),
            (
                "items",
                Json::Array(vec![Json::Num(1.0), Json::Object(vec![])]),
            ),
        ]);
        let pretty = doc.render();
        let compact = doc.render_compact();
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        // Shortest-round-trip floats make render → parse → render a fixpoint.
        assert_eq!(Json::parse(&pretty).unwrap().render(), pretty);
        assert_eq!(Json::parse(&compact).unwrap().render_compact(), compact);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"abc",
            "[1] x",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = Json::parse("[nul]").unwrap_err();
        assert!(err.to_string().contains("byte 1"), "{err}");
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let parsed = Json::parse("\"a\\u0041\\n\\t\\\\ \\u00e9 π\"").unwrap();
        assert_eq!(parsed, Json::str("aA\n\t\\ é π"));
        // Surrogate pair for U+1D11E (musical G clef).
        let clef = Json::parse("\"\\uD834\\uDD1E\"").unwrap();
        assert_eq!(clef, Json::str("\u{1D11E}"));
        assert!(Json::parse("\"\\uD834\"").is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::object(vec![
            ("n", Json::UInt(9)),
            ("x", Json::Num(2.5)),
            ("s", Json::str("hi")),
            ("a", Json::Array(vec![Json::Int(1)])),
        ]);
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(9.0));
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("x").and_then(Json::as_u64), None);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            doc.get("a").and_then(Json::items).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Num(4.0).as_u64(), Some(4));
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
