//! A minimal hand-rolled JSON writer and parser.
//!
//! The workspace has a no-external-deps rule, so every machine-readable
//! artifact (`chrome://tracing` traces, metrics dumps, the `repro --json`
//! scorecard, `BENCH_repro.json`) is built on this value type instead of
//! `serde`. Object keys keep insertion order, floats render through Rust's
//! shortest-roundtrip `Display` (deterministic for a given value), and
//! non-finite floats become `null` — so a byte-identical input always
//! produces a byte-identical document.
//!
//! [`JsonValue::parse`] is the workspace's one JSON parser. The harness
//! and server journals and the `pim-serve` wire protocol read every line
//! with it, so it is built for lines from outside the program: linear
//! time, surrogate-pair escapes, and a bound on nesting depth.

use std::fmt::Write as _;

/// How deep arrays and objects may nest in a parsed document. Far above
/// anything the workspace writes (its deepest documents nest 4 levels),
/// and low enough that [`JsonValue::parse`]'s recursion fits the default
/// stack of a spawned thread (under 256 KiB in an x86-64 debug build).
const MAX_DEPTH: usize = 128;

/// A JSON value that renders itself.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (`NaN`/`±inf` render as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    pub fn object() -> Self {
        JsonValue::Obj(Vec::new())
    }

    /// An empty array.
    pub fn array() -> Self {
        JsonValue::Arr(Vec::new())
    }

    /// Insert a field (object variants only; no-op otherwise). Returns
    /// `self` for chaining.
    pub fn set(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        if let JsonValue::Obj(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// [`JsonValue::set`] when `value` is `Some`; `self` unchanged when
    /// it is `None`, so an absent optional field is omitted.
    pub fn set_some(self, key: &str, value: Option<impl Into<JsonValue>>) -> Self {
        match value {
            Some(value) => self.set(key, value),
            None => self,
        }
    }

    /// Append an element (array variants only; no-op otherwise).
    pub fn push(mut self, value: impl Into<JsonValue>) -> Self {
        if let JsonValue::Arr(items) = &mut self {
            items.push(value.into());
        }
        self
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Render with every top-level field of an object on its own line —
    /// enough pretty-printing for diffable artifacts without a formatter.
    pub fn render_pretty(&self) -> String {
        match self {
            JsonValue::Obj(fields) => {
                let mut out = String::from("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str("  ");
                    write_escaped(&mut out, k);
                    out.push_str(": ");
                    v.write(&mut out);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push('}');
                out
            }
            _ => self.render(),
        }
    }

    /// Parse a JSON document produced by this writer (or any standard
    /// JSON text). Numbers parse as `U64`/`I64` when they are integral
    /// and fit, `F64` otherwise; exponent notation is accepted on input
    /// even though the writer never emits it. `\uXXXX` surrogate pairs
    /// decode to one character.
    ///
    /// Safe for lines from outside the program: time is linear in the
    /// input, and arrays and objects nest at most 128 deep, so a hostile
    /// line cannot exhaust a thread's stack.
    ///
    /// # Errors
    ///
    /// A static description of the first syntax error, with its byte
    /// offset. Trailing non-whitespace after the document, a lone
    /// surrogate escape and nesting deeper than 128 are errors.
    pub fn parse(text: &str) -> Result<Self, JsonParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonParseError { at: pos, what: "trailing characters" });
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The value as an f64 (integers widen; `None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(v) => Some(*v as f64),
            JsonValue::I64(v) => Some(*v as f64),
            JsonValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a u64 (`None` for non-integers and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            JsonValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's elements (`None` for non-arrays).
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields (`None` for non-objects).
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Append the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => write_f64(out, *v),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The first syntax error hit by [`JsonValue::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// What the parser expected or rejected.
    pub what: &'static str,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, what: &'static str) -> Result<(), JsonParseError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonParseError { at: *pos, what })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonParseError> {
    skip_ws(bytes, pos);
    let open = bytes.get(*pos);
    if matches!(open, Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(JsonParseError { at: *pos, what: "nesting too deep" });
    }
    match open {
        None => Err(JsonParseError { at: *pos, what: "unexpected end of input" }),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(JsonParseError { at: *pos, what: "expected string key" });
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':'")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(JsonParseError { at: *pos, what: "expected ',' or '}'" }),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(JsonParseError { at: *pos, what: "expected ',' or ']'" }),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: JsonValue,
) -> Result<JsonValue, JsonParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonParseError { at: *pos, what: "invalid literal" })
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash whole. Both are
        // ASCII, and no byte of a multi-byte UTF-8 character is, so the
        // run ends on a character boundary of the (valid UTF-8) input.
        let start = *pos;
        let run = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\');
        *pos = run.map_or(bytes.len(), |n| start + n);
        out.push_str(
            std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| JsonParseError { at: start, what: "invalid utf-8" })?,
        );
        match bytes.get(*pos) {
            None => return Err(JsonParseError { at: *pos, what: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => *pos += 1,
        }
        let c = match bytes.get(*pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => parse_unicode_escape(bytes, pos)?,
            _ => return Err(JsonParseError { at: *pos, what: "invalid escape" }),
        };
        out.push(c);
        *pos += 1;
    }
}

/// Decode the `uXXXX` of a `\uXXXX` escape at `pos`, and the low half
/// after it when the first is a high surrogate. Leaves `pos` on the last
/// hex digit. A lone or reversed surrogate is an error.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, JsonParseError> {
    let hex4 = |at: usize| {
        let mut v = 0u32;
        for i in at..at + 4 {
            let d = bytes.get(i).and_then(|&b| char::from(b).to_digit(16));
            v = v * 16 + d.ok_or(JsonParseError { at, what: "invalid \\u escape" })?;
        }
        Ok(v)
    };
    let lone = JsonParseError { at: *pos, what: "lone surrogate in \\u escape" };
    let hi = hex4(*pos + 1)?;
    *pos += 4;
    let cp = match hi {
        0xD800..=0xDBFF => {
            if bytes.get(*pos + 1..*pos + 3) != Some(&b"\\u"[..]) {
                return Err(lone);
            }
            let lo = hex4(*pos + 3)?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(lone);
            }
            *pos += 6;
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(lone),
        _ => hi,
    };
    char::from_u32(cp).ok_or(lone)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonParseError { at: start, what: "invalid number" })?;
    if text.is_empty() || text == "-" {
        return Err(JsonParseError { at: start, what: "expected a value" });
    }
    if !float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(JsonValue::I64(v));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::F64)
        .map_err(|_| JsonParseError { at: start, what: "invalid number" })
}

/// Write `s` as a JSON string literal (quotes, escapes) into `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Only `"`, `\` and control characters are escaped, all ASCII, and no
    // byte of a multi-byte UTF-8 character is ASCII: a string without
    // such a byte is copied whole.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
    } else {
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
    }
    out.push('"');
}

/// Write a float as a JSON number (`null` when not finite). Rust's
/// `Display` for floats never uses exponent notation, so the output is
/// always a valid JSON number.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::U64(v as u64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::I64(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_fast_path_matches_the_per_char_path() {
        let per_char = |s: &str| {
            let mut out = String::from('"');
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
            out.push('"');
            out
        };
        let cases = [
            "",
            "read",
            "mem.vault.07.lines",
            "a \"quoted\" name",
            "back\\slash",
            "\n\r\t",
            "\u{0}\u{1}\u{1f}",
            "del \u{7f} stays",
            "naïve ünïcödé 日本 ✓",
            "mixed ü\"\u{7}日",
        ];
        for s in cases {
            let mut out = String::new();
            write_escaped(&mut out, s);
            assert_eq!(out, per_char(s), "{s:?}");
        }
    }

    #[test]
    fn renders_nested_structures() {
        let v = JsonValue::object()
            .set("name", "pim")
            .set("n", 3u64)
            .set("ok", true)
            .set("ratio", 0.5)
            .set("items", JsonValue::array().push(1u64).push(2u64))
            .set("none", JsonValue::Null);
        assert_eq!(
            v.render(),
            r#"{"name":"pim","n":3,"ok":true,"ratio":0.5,"items":[1,2],"none":null}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        let v = JsonValue::from("a\"b\\c\nd\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::from(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::from(1.0f64).render(), "1");
    }

    #[test]
    fn floats_never_use_exponents() {
        assert_eq!(JsonValue::from(1e3f64).render(), "1000");
        assert!(!JsonValue::from(1e20f64).render().contains('e'));
    }

    #[test]
    fn pretty_render_is_line_per_field() {
        let v = JsonValue::object().set("a", 1u64).set("b", 2u64);
        let p = v.render_pretty();
        assert!(p.starts_with("{\n  \"a\": 1,\n"));
        assert!(p.ends_with('}'));
    }

    #[test]
    fn set_some_omits_none() {
        let v = JsonValue::object().set_some("a", Some(1u64)).set_some("b", None::<&str>);
        assert_eq!(v.render(), r#"{"a":1}"#);
    }

    #[test]
    fn set_and_push_ignore_wrong_variants() {
        assert_eq!(JsonValue::Null.set("k", 1u64), JsonValue::Null);
        assert_eq!(JsonValue::Null.push(1u64), JsonValue::Null);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = JsonValue::object()
            .set("name", "pim \"quoted\"\n")
            .set("n", 3u64)
            .set("neg", -7i64)
            .set("ok", true)
            .set("ratio", 0.52734375)
            .set("items", JsonValue::array().push(1u64).push(JsonValue::Null))
            .set("nested", JsonValue::object().set("k", 2.5));
        let parsed = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.render(), v.render());
    }

    #[test]
    fn parse_accepts_whitespace_and_exponents() {
        let v = JsonValue::parse(" { \"a\" : [ 1e3 , -2.5E-1 ] }\n").unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1000.0));
        assert_eq!(arr[1].as_f64(), Some(-0.25));
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::U64(42));
        assert_eq!(JsonValue::parse("-42").unwrap(), JsonValue::I64(-42));
        assert_eq!(JsonValue::parse("42.5").unwrap(), JsonValue::F64(42.5));
        assert_eq!(JsonValue::parse("42").unwrap().as_f64(), Some(42.0));
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "{\"a\":1,}", "truex", "1 2", "\"open"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_reads_a_256_kib_string_in_linear_time() {
        // One pass per string: the parser once re-validated the whole
        // rest of the input for every character, quadratic in the string,
        // and took tens of seconds on this document in a debug build.
        let s = "data 日本 ".repeat(256 * 1024 / 12);
        assert!(s.len() >= 250 * 1024);
        let doc = JsonValue::from(format!("{s}\n\"end\"")).render();
        let t0 = std::time::Instant::now();
        let parsed = JsonValue::parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(parsed, JsonValue::from(format!("{s}\n\"end\"")));
        assert!(took < std::time::Duration::from_millis(500), "{took:?}");
    }

    #[test]
    fn parse_decodes_surrogate_pairs_and_rejects_lone_halves() {
        // Python's `json.dumps` sends 😀 as this pair by default.
        assert_eq!(JsonValue::parse(r#""\ud83d\ude00""#), Ok(JsonValue::from("😀")));
        assert_eq!(JsonValue::parse(r#""A\uD83D\uDE00z\u00e9""#), Ok(JsonValue::from("A😀zé")));
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\u12""#,
            r#""\u+123""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_100k_nested_arrays_on_a_spawned_thread() {
        let deep = "[".repeat(100_000);
        let parsed = std::thread::spawn(move || JsonValue::parse(&deep).is_err()).join();
        assert_eq!(parsed.ok(), Some(true));
    }

    #[test]
    fn nesting_bound_counts_arrays_and_objects() {
        let nest = |depth: usize| format!("{}1{}", "[{\"k\":".repeat(depth / 2), "}]".repeat(depth / 2));
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 2)).unwrap_err();
        assert_eq!(err.what, "nesting too deep");
        assert_eq!(err.at, MAX_DEPTH * 6 / 2);
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc = r#"{"wall_ms":12.5,"experiments":[{"id":"a","wall_ms":3}]}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("wall_ms").unwrap().as_f64(), Some(12.5));
        let exps = v.get("experiments").unwrap().as_array().unwrap();
        assert_eq!(exps[0].get("id").unwrap().as_str(), Some("a"));
        assert_eq!(exps[0].get("wall_ms").unwrap().as_u64(), Some(3));
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
    }
}
