//! A hand-rolled, dependency-free JSON value tree, writer, and parser.
//!
//! The repo's hermetic build cannot pull serde, so run reports and Chrome
//! traces are emitted through this module instead. Design points:
//!
//! * object members keep insertion order, so emitted documents are stable
//!   and diffable across runs;
//! * integers are carried exactly (`u64`/`i64` variants) — counters never
//!   round-trip through `f64`;
//! * non-finite floats serialize as `null` (JSON has no NaN/Infinity);
//! * the parser exists chiefly so tests can validate that everything the
//!   writer (and the Chrome-trace exporter) produces is well-formed.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer.
    UInt(u64),
    /// An exact signed integer (negative values).
    Int(i64),
    /// A double; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a member to an object, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.insert(key, value);
        self
    }

    /// Appends a member to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn insert(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(members) => members.push((key.to_owned(), value.into())),
            other => panic!("Json::insert on a non-object: {other:?}"),
        }
    }

    /// Looks up a member of an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload widened to `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation and a stable member order —
    /// the format of the `--json` run reports.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '[',
                    ']',
                    items.len(),
                    |out, i, depth| {
                        items[i].write(out, indent, depth);
                    },
                );
            }
            Json::Obj(members) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '{',
                    '}',
                    members.len(),
                    |out, i, depth| {
                        let (k, v) = &members[i];
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, depth);
                    },
                );
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    // `{}` prints the shortest representation that round-trips; it never
    // emits an exponent for the magnitudes we log, but an integral value
    // would print without a decimal point and re-parse as an integer, so
    // pin the type with `.0`.
    let s = format!("{n}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_from_json {
    ($($t:ty => $variant:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                #[allow(clippy::redundant_closure_call)]
                ($variant)(v)
            }
        }
    )*};
}

impl_from_json!(
    bool => Json::Bool,
    u64 => Json::UInt,
    u32 => |v: u32| Json::UInt(u64::from(v)),
    usize => |v: usize| Json::UInt(v as u64),
    i64 => |v: i64| if v >= 0 { Json::UInt(v as u64) } else { Json::Int(v) },
    f64 => Json::Num,
    String => Json::Str,
    &str => |v: &str| Json::Str(v.to_owned()),
);

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a
/// `.tmp.<pid>` sibling (same directory, so the rename cannot cross a
/// filesystem boundary) and are renamed over the target. A killed or
/// faulted run therefore never leaves a truncated report under the final
/// name — readers see either the previous complete file or the new one.
pub fn write_atomic(path: impl AsRef<std::path::Path>, contents: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deeply arrays and objects may nest in a document [`parse`] reads,
/// far above the 11 levels the tools write. It bounds the recursive
/// parser's stack on any thread, so a deeper document is a
/// [`ParseError`], not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.error(&format!("nested deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.error("raw control character in string")),
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = match b {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = start + width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans are ASCII");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let j = Json::Str("a\"b\\c\nd\te\r\u{1}".to_owned());
        assert_eq!(j.to_compact_string(), "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\"");
        // And it round-trips.
        assert_eq!(parse(&j.to_compact_string()).expect("parses"), j);
    }

    #[test]
    fn unicode_passes_through_unescaped() {
        let j = Json::Str("héllo → 世界".to_owned());
        let s = j.to_compact_string();
        assert_eq!(s, "\"héllo → 世界\"");
        assert_eq!(parse(&s).expect("parses"), j);
    }

    #[test]
    fn integers_are_exact() {
        let j = Json::UInt(u64::MAX);
        assert_eq!(j.to_compact_string(), u64::MAX.to_string());
        assert_eq!(parse(&j.to_compact_string()).expect("parses"), j);
        let j = Json::Int(-42);
        assert_eq!(parse("-42").expect("parses"), j);
    }

    #[test]
    fn f64_formatting_round_trips_and_marks_integral_values() {
        assert_eq!(Json::Num(1.5).to_compact_string(), "1.5");
        assert_eq!(Json::Num(3.0).to_compact_string(), "3.0");
        assert_eq!(Json::Num(0.1).to_compact_string(), "0.1");
        assert_eq!(Json::Num(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact_string(), "null");
        match parse("3.0").expect("parses") {
            Json::Num(n) => assert_eq!(n, 3.0),
            other => panic!("3.0 must stay a float, got {other:?}"),
        }
    }

    #[test]
    fn nested_objects_preserve_member_order() {
        let j = Json::object()
            .with("z", 1u64)
            .with("a", Json::object().with("inner", "x").with("n", 2.5))
            .with("list", Json::Arr(vec![Json::Null, Json::Bool(true)]));
        let compact = j.to_compact_string();
        assert_eq!(
            compact,
            r#"{"z":1,"a":{"inner":"x","n":2.5},"list":[null,true]}"#
        );
        assert_eq!(parse(&compact).expect("parses"), j);
    }

    #[test]
    fn pretty_printing_is_valid_json() {
        let j = Json::object()
            .with("spans", Json::Arr(vec![Json::object().with("name", "ch2")]))
            .with("empty_obj", Json::object())
            .with("empty_arr", Json::Arr(vec![]));
        let pretty = j.to_pretty_string();
        assert!(pretty.contains("\n  \"spans\""));
        assert_eq!(parse(&pretty).expect("parses"), j);
    }

    #[test]
    fn get_walks_objects() {
        let j = Json::object().with("a", Json::object().with("b", 7u64));
        assert_eq!(j.get("a").and_then(|a| a.get("b")), Some(&Json::UInt(7)));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nulx",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_beyond_the_limit_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.to_string().contains("nested deeper than 128 levels"));
        let objects = "{\"a\":".repeat(200_000) + "1" + &"}".repeat(200_000);
        assert!(parse(&objects).is_err());
        assert!(parse(&nested(200_000)).is_err());
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let doc = " { \"k\" : [ 1 , -2.5e1 , \"\\u0041\\n\" ] } ";
        let v = parse(doc).expect("parses");
        assert_eq!(
            v,
            Json::object().with(
                "k",
                Json::Arr(vec![
                    Json::UInt(1),
                    Json::Num(-25.0),
                    Json::Str("A\n".into())
                ])
            )
        );
    }
}
