//! Minimal, dependency-free JSON: a value tree, a byte-deterministic
//! writer and a strict recursive-descent parser.
//!
//! The workspace vendors no serialization crates (the build environment is
//! offline), so the observatory hand-rolls its JSON exactly like the
//! probe's trace exporters do — but through a shared value tree so the
//! records can be read back for diffing and trend rendering.
//!
//! Determinism contract: [`Json::render`] emits object members in
//! insertion order, numbers via Rust's shortest-round-trip formatting and
//! no whitespace beyond a fixed indentation scheme. Rendering the same
//! value tree twice yields byte-identical output on every platform; the
//! `BENCH_*.json` byte-stability tests rely on this. Two deliberate
//! number rules keep degenerate metrics from breaking the contract:
//! non-finite values (NaN, ±∞ — e.g. a rate derived from a zero-cycle
//! run) render as `null` instead of panicking, and `-0.0` renders as `0`
//! so the sign of zero can never flip a committed byte.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Stored as `f64`; integral values within `u64` range
    /// render without a fractional part. JSON has no non-finite numbers,
    /// so NaN and ±infinity render as `null` (a defined encoding rather
    /// than a panic), and `-0.0` renders as `0` so byte-determinism can
    /// never depend on the sign of zero.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (order is part of the byte contract).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Append a member to an object (panics on non-objects).
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(members) => members.push((key.to_string(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// Builder-style [`Json::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.set(key, value);
        self
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render on a single line with no whitespace — the JSONL form.
    /// Parses back to the same value as [`Json::render`] output.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Strict: rejects trailing garbage and
    /// arrays/objects nested more than 128 levels deep; duplicate keys
    /// are kept as-is (first wins on [`Json::get`]).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after document"));
        }
        Ok(value)
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Inf. A degenerate measurement (zero-cycle run,
        // zero-second timing) must not panic the writer mid-document, so
        // non-finite numbers get a defined `null` encoding instead.
        out.push_str("null");
    } else if x == 0.0 {
        // Covers -0.0 too: both zeros render as the same byte.
        out.push('0');
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Shortest round-trip representation; deterministic across runs.
        let _ = write!(out, "{x:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: &str) -> Self {
        Self {
            offset,
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(*pos, &format!("expected '{}'", b as char)))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded `[[[…` input would overflow
/// the stack; every document this workspace writes nests a handful of
/// levels.
const MAX_NESTING: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth >= MAX_NESTING => Err(JsonError::at(
            *pos,
            &format!("nesting deeper than {MAX_NESTING} levels"),
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_str(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, &format!("expected '{lit}'")))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::at(start, &format!("invalid number '{text}'")))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::at(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at(*pos, "invalid \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| JsonError::at(*pos, "invalid codepoint"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::at(*pos, "invalid UTF-8"))?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
        }
    }
}

/// Run-length encode a counter vector as `[value, run]` pairs — the
/// compact serialized form shared by the telemetry store's window
/// vectors and the serving store's per-tenant series (steady state
/// produces long constant stretches, so the committed files stay
/// reviewable).
pub fn rle_encode(values: &[u64]) -> Json {
    let mut pairs: Vec<Json> = Vec::new();
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut n = 1u64;
        while i + (n as usize) < values.len() && values[i + n as usize] == v {
            n += 1;
        }
        pairs.push(Json::Arr(vec![Json::Num(v as f64), Json::Num(n as f64)]));
        i += n as usize;
    }
    Json::Arr(pairs)
}

/// Decode `[value, run]` pairs back into a counter vector of exactly
/// `len` entries; `what` names the field in diagnostics.
pub fn rle_decode(json: &Json, len: usize, what: &str) -> Result<Vec<u64>, String> {
    let pairs = json
        .as_arr()
        .ok_or_else(|| format!("{what}: expected an RLE array"))?;
    let mut out = Vec::with_capacity(len);
    for pair in pairs {
        let items = pair
            .as_arr()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| format!("{what}: RLE entries are [value, run] pairs"))?;
        let value = items[0]
            .as_u64()
            .ok_or_else(|| format!("{what}: RLE value is not an integer"))?;
        let run = items[1]
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{what}: RLE run is not a positive integer"))?;
        for _ in 0..run {
            out.push(value);
        }
    }
    if out.len() != len {
        return Err(format!(
            "{what}: RLE decodes to {} windows, expected {len}",
            out.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_round_trips_and_validates() {
        let v = vec![0u64, 0, 0, 5, 5, 1, 0, 0, 0, 0];
        let encoded = rle_encode(&v);
        assert_eq!(rle_decode(&encoded, v.len(), "t").unwrap(), v);
        // Wrong expected length is a hard error, not a silent pad.
        assert!(rle_decode(&encoded, v.len() + 1, "t")
            .unwrap_err()
            .contains("expected"));
        // Empty vectors encode to an empty array.
        assert_eq!(
            rle_decode(&rle_encode(&[]), 0, "t").unwrap(),
            Vec::<u64>::new()
        );
        // Zero-length runs are rejected.
        let bad = Json::Arr(vec![Json::Arr(vec![Json::Num(1.0), Json::Num(0.0)])]);
        assert!(rle_decode(&bad, 1, "t").unwrap_err().contains("positive"));
    }

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj()
            .with("name", Json::Str("dot k=2".into()))
            .with("cycles", Json::Num(1234.0))
            .with("ratio", Json::Num(0.8062))
            .with("ok", Json::Bool(true))
            .with(
                "stalls",
                Json::Arr(vec![Json::Num(0.0), Json::Num(7.0), Json::Null]),
            );
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn rendering_is_deterministic() {
        let mk = || {
            Json::obj()
                .with("a", Json::Num(1e-7))
                .with("b", Json::Num(557.25))
                .with("s", Json::Str("α ≤ 2α²\n\"quoted\"".into()))
        };
        assert_eq!(mk().render(), mk().render());
        // And round-trips through the parser byte-identically.
        let text = mk().render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn integers_render_without_fraction() {
        let mut s = String::new();
        write_num(&mut s, 148300000000.0);
        assert_eq!(s, "148300000000");
    }

    #[test]
    fn non_finite_numbers_render_as_null_not_panic() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::obj().with("rate", Json::Num(x));
            let text = doc.render();
            assert_eq!(text, "{\n  \"rate\": null\n}\n", "for {x}");
            // And the document stays parseable (reads back as Null).
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed.get("rate"), Some(&Json::Null));
        }
    }

    #[test]
    fn negative_zero_renders_identically_to_zero() {
        let mut pos = String::new();
        let mut neg = String::new();
        write_num(&mut pos, 0.0);
        write_num(&mut neg, -0.0);
        assert_eq!(pos, "0");
        assert_eq!(neg, pos, "byte-determinism must not depend on sign of zero");
        // Through the full pipeline too.
        assert_eq!(
            Json::obj().with("x", Json::Num(-0.0)).render(),
            Json::obj().with("x", Json::Num(0.0)).render()
        );
    }

    #[test]
    fn extreme_magnitudes_round_trip() {
        for x in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            1e15,   // first magnitude past the integer-rendering window
            -1e15,
            1e308,
            -1e-308,
        ] {
            let doc = Json::obj().with("x", Json::Num(x));
            let text = doc.render();
            let parsed = Json::parse(&text).unwrap();
            let y = parsed.get("x").and_then(Json::as_f64).unwrap();
            assert_eq!(y.to_bits(), x.to_bits(), "{x} round-trips exactly");
            // And re-rendering is byte-stable.
            assert_eq!(parsed.render(), text);
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_docs() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nest(MAX_NESTING)).is_ok());
        let err = Json::parse(&nest(MAX_NESTING + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        // Far past any stack budget: rejected, not aborted.
        assert!(Json::parse(&"[{\"a\":".repeat(100_000)).is_err());
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::parse("{\"n\": 42, \"s\": \"hi\", \"a\": [1, 2]}").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("missing"), None);
    }
}
