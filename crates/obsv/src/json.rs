//! JSON both ways, for a workspace that carries no serde.
//!
//! [`parse`] reads a standard JSON document into a [`Json`] tree, reporting
//! errors by byte offset; nesting deeper than [`MAX_DEPTH`] is an error, not
//! a stack overflow. `obsv_check` and `benchmark/` read with it.
//!
//! Every document the workspace writes is an [`Object`] rendered here, and
//! nothing else decides how JSON looks: strings are escaped by
//! [`json_escape`]; a finite [`Value::Float`] prints with Rust's `{}`, NaN and
//! ±inf print `null`; a [`Value::Int`] prints exactly, `u64` fingerprints
//! included; keys are followed by `": "` and inline items separated by `", "`.
//! There are two layouts:
//!
//! - **line** ([`Object::line`]): the whole object on one line — the JSONL
//!   streams (windows, health, trace events, result rows);
//! - **block** ([`Object::block`]): whole-file documents (`BENCH_*.json`, the
//!   journal, the metrics dump, Chrome traces). The root object has one
//!   member per line at a 2-space indent; every array of record objects
//!   ([`Value::Records`]) puts each element on its own line, 2 deeper than
//!   the line the array opens on, and its `]` on a line of its own at that
//!   line's indent, even when empty; everything else is inline; the document
//!   ends with a newline:
//!
//! ```text
//! {
//!   "experiment": "cardbench",
//!   "regimes": [
//!     {"regime": "uniform", "catalogs": [
//!       {"catalog": "bare", "q_error": {"p50": 4.878048780487805, "max": 2400}}
//!     ]}
//!   ],
//!   "drift": {"drift_rows": 4000, "strategies": [
//!   ]}
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure at a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting [`parse`] accepts. The deepest artifact
/// the workspace writes (`BENCH_cardbench.json`) nests 6 levels.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate directly followed by an
                            // escaped low one is one astral char; any other
                            // surrogate reads as the replacement char.
                            let next = self.text[self.pos + 1..].starts_with("\\u");
                            let c = match (code, next.then(|| self.hex4(self.pos + 3))) {
                                (0xd800..=0xdbff, Some(Ok(low @ 0xdc00..=0xdfff))) => {
                                    self.pos += 6;
                                    let high = (code - 0xd800) << 10;
                                    char::from_u32(0x10000 + high + (low - 0xdc00))
                                }
                                _ => char::from_u32(code),
                            };
                            out.push(c.unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Everything before `pos` is whole chars: structural
                    // bytes are ASCII and string contents advance by chars.
                    let Some(c) = self.text.get(self.pos..).and_then(|s| s.chars().next()) else {
                        return Err(self.err("invalid utf-8 in string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.seq((b'[', b']'), |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Array(items))
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut map = BTreeMap::new();
        self.seq((b'{', b'}'), |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Json::Object(map))
    }

    /// `open`, comma-separated `item`s, `close`: one level of nesting deeper.
    fn seq(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.expect(open)?;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }
}

/// A value to write (see the module doc for how each variant renders).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    /// Printed digit for digit: wide enough for every `u64` and `i64`.
    Int(i128),
    /// Printed with `{}` when finite, as `null` otherwise.
    Float(f64),
    Str(String),
    /// An array of record objects: one element per line in the block layout.
    Records(Vec<Object>),
    Object(Object),
}

macro_rules! value_from {
    ($($variant:ident($($t:ty),+)),+) => {$($(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v.into())
            }
        }
    )+)+};
}

value_from!(
    Bool(bool),
    Int(i64, u32, u64),
    Float(f64),
    Str(&str, String),
    Records(Vec<Object>),
    Object(Object)
);

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i128)
    }
}

/// A JSON object under construction; members are written in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a member and return the object, for chaining.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.push(key, value);
        self
    }

    /// Append a member.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.0.push((key.into(), value.into()));
    }

    /// The line layout: the whole object on one line, no newline at the end.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The block layout: a whole document, ending with a newline.
    pub fn block(&self) -> String {
        let mut out = String::new();
        write_list(&mut out, ('{', '}'), &self.0, Some(0), |out, member| {
            write_member(out, member, Some(2))
        });
        out.push('\n');
        out
    }

    /// `indent` is `None` in the line layout and, in the block layout, the
    /// indent of the line the object starts on.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        write_list(out, ('{', '}'), &self.0, None, |out, member| {
            write_member(out, member, indent)
        });
    }
}

impl Value {
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Bool(v) => _ = write!(out, "{v}"),
            Value::Int(v) => _ = write!(out, "{v}"),
            Value::Float(v) if v.is_finite() => _ = write!(out, "{v}"),
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Records(records) => write_list(out, ('[', ']'), records, indent, |out, r| {
                r.write(out, indent.map(|n| n + 2))
            }),
            Value::Object(object) => object.write(out, indent),
        }
    }
}

fn write_member(out: &mut String, (key, value): &(String, Value), indent: Option<usize>) {
    write_str(out, key);
    out.push_str(": ");
    value.write(out, indent);
}

/// `open`, the items and `close`. With `broken` `None` the items are inline,
/// separated by `", "`; otherwise each sits on its own line at `broken + 2`
/// and `close` on its own line at `broken`.
fn write_list<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    broken: Option<usize>,
    write: impl Fn(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match broken {
            Some(indent) => newline(out, indent + 2),
            None if i > 0 => out.push(' '),
            None => {}
        }
        write(out, item);
    }
    if let Some(indent) = broken {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', indent));
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Escape a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => _ = write!(out, "\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, -2.5, true, null], "b": {"c": "x\ny"}, "d": 1e3}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.get("d").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(|a| a.len()),
            Some(4)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ny")
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes_and_multibyte() {
        // The backslash-u escape decodes to a char; raw multibyte input
        // passes through untouched.
        let v = parse("\"A\\u00e9 é\"").expect("parses");
        assert_eq!(v.as_str(), Some("Aé é"));
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let pair = parse("\"\\ud83d\\ude00\"").expect("parses");
        assert_eq!(pair.as_str(), Some("😀"));
        let lone = parse("\"\\ud83dx\\ude00\\ud83d\\u0041\"").expect("parses");
        assert_eq!(lone.as_str(), Some("\u{fffd}x\u{fffd}\u{fffd}A"));
        assert!(parse("\"\\ud83d\\u12\"").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("{{\"a\": {}", "[".repeat(200_000));
        let err = parse(&deep).expect_err("200 000 levels are refused");
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, 6 + MAX_DEPTH - 1);
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn escaping_survives_roundtrip() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn control_characters_are_escaped_as_unicode() {
        // Chrome's trace loader rejects raw control bytes: every char
        // below 0x20 must leave json_escape as an escape sequence.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).expect("control char");
            let escaped = json_escape(&c.to_string());
            assert!(
                escaped.chars().all(|c| (c as u32) >= 0x20),
                "raw control byte {code:#04x} leaked through: {escaped:?}"
            );
            let quoted = format!("{{\"k\": \"{escaped}\"}}");
            let parsed = parse(&quoted).expect("escaped control char parses");
            assert!(parsed.get("k").is_some());
        }
        assert_eq!(json_escape("\u{0}"), "\\u0000");
        assert_eq!(json_escape("\u{1b}[31m"), "\\u001b[31m");
        assert_eq!(json_escape("a\u{7}b"), "a\\u0007b");
        // An adversarial span name mixing every class of escape.
        let nasty = "q\"\\\n\r\t\u{0}\u{1f}\u{7f}é✓";
        let quoted = format!("{{\"name\": \"{}\"}}", json_escape(nasty));
        let parsed = parse(&quoted).expect("adversarial name parses");
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some(nasty));
    }

    /// Pins the block layout with cardbench's nesting: records inside an
    /// inline record, records inside an inline object, an empty records
    /// array, and the float and integer rules.
    #[test]
    fn block_layout_is_pinned() {
        let cell = |name: &str, p50: f64| {
            Object::new().field("catalog", name).field(
                "q_error",
                Object::new().field("p50", p50).field("max", 2400.0),
            )
        };
        let doc = Object::new()
            .field("experiment", "cardbench")
            .field("seed", u64::MAX)
            .field(
                "regimes",
                vec![
                    Object::new()
                        .field("regime", "uniform")
                        .field("catalogs", vec![cell("bare", 4.5), cell("mnsa", f64::NAN)]),
                    Object::new()
                        .field("regime", "star")
                        .field("catalogs", Vec::new()),
                ],
            )
            .field(
                "drift",
                Object::new()
                    .field("drift_rows", 4000usize)
                    .field("strategies", vec![cell("bare", -0.0)]),
            )
            .field("empty", Vec::new())
            .field("ok", true);
        let expected = "{\n  \"experiment\": \"cardbench\",\n  \"seed\": 18446744073709551615,\n  \"regimes\": [\n    {\"regime\": \"uniform\", \"catalogs\": [\n      {\"catalog\": \"bare\", \"q_error\": {\"p50\": 4.5, \"max\": 2400}},\n      {\"catalog\": \"mnsa\", \"q_error\": {\"p50\": null, \"max\": 2400}}\n    ]},\n    {\"regime\": \"star\", \"catalogs\": [\n    ]}\n  ],\n  \"drift\": {\"drift_rows\": 4000, \"strategies\": [\n    {\"catalog\": \"bare\", \"q_error\": {\"p50\": -0, \"max\": 2400}}\n  ]},\n  \"empty\": [\n  ],\n  \"ok\": true\n}\n";
        assert_eq!(doc.block(), expected);
        assert_eq!(Object::new().block(), "{\n}\n");
        assert_eq!(
            Object::new()
                .field("catalogs", vec![cell("bare", 1.5)])
                .line(),
            "{\"catalogs\": [{\"catalog\": \"bare\", \"q_error\": {\"p50\": 1.5, \"max\": 2400}}]}"
        );
    }

    /// What `parse` should read back from a written value.
    fn expected(v: &Value) -> Json {
        match v {
            Value::Bool(b) => Json::Bool(*b),
            Value::Int(i) => Json::Num(*i as f64),
            Value::Float(f) if f.is_finite() => Json::Num(*f),
            Value::Float(_) => Json::Null,
            Value::Str(s) => Json::Str(s.clone()),
            Value::Records(records) => Json::Array(records.iter().map(expected_object).collect()),
            Value::Object(o) => expected_object(o),
        }
    }

    fn expected_object(o: &Object) -> Json {
        Json::Object(o.0.iter().map(|(k, v)| (k.clone(), expected(v))).collect())
    }

    /// Strings drawn from every control char, quotes, backslashes, ASCII,
    /// and BMP and non-BMP chars.
    fn string() -> BoxedStrategy<String> {
        let chars: Vec<char> = (0u32..0x20)
            .filter_map(char::from_u32)
            .chain([
                '"',
                '\\',
                '/',
                'a',
                ' ',
                '\u{7f}',
                'é',
                '✓',
                '\u{fffd}',
                '😀',
                '\u{10ffff}',
            ])
            .collect();
        prop::collection::vec(0..chars.len(), 0..8)
            .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
            .boxed()
    }

    fn scalar() -> BoxedStrategy<Value> {
        let floats = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            1e300,
            0.1,
        ];
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            prop_oneof![
                Just(u64::MAX as i128),
                Just(i64::MIN as i128),
                any::<i64>().prop_map(i128::from),
                any::<u64>().prop_map(i128::from),
            ]
            .prop_map(Value::Int),
            (0..floats.len()).prop_map(move |i| Value::Float(floats[i])),
            any::<f64>().prop_map(|f| Value::Float(f * 1e6 - 5e5)),
            string().prop_map(Value::Str),
        ]
        .boxed()
    }

    fn object(inner: BoxedStrategy<Value>) -> BoxedStrategy<Object> {
        prop::collection::vec((string(), inner), 0..4)
            .prop_map(|members| {
                let mut o = Object::new();
                // Distinct keys: the reader keeps one member per key.
                for (i, (key, value)) in members.into_iter().enumerate() {
                    o.push(format!("{i}{key}"), value);
                }
                o
            })
            .boxed()
    }

    /// Values holding at most `depth` levels of arrays and objects.
    fn value(depth: u32) -> BoxedStrategy<Value> {
        if depth == 0 {
            return scalar();
        }
        let mut arms = vec![
            scalar(),
            object(value(depth - 1)).prop_map(Value::Object).boxed(),
        ];
        // A records array and its elements are two levels.
        if depth >= 2 {
            arms.push(
                prop::collection::vec(object(value(depth - 2)), 0..3)
                    .prop_map(Value::Records)
                    .boxed(),
            );
        }
        Union::new(arms).boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Documents nest at most 4 levels: the root object and `value(3)`.
        #[test]
        fn both_layouts_read_back_what_was_written(doc in object(value(3))) {
            let want = expected_object(&doc);
            let line = doc.line();
            prop_assert!(!line.contains('\n'), "line layout broke a line: {line:?}");
            prop_assert_eq!(parse(&line).ok(), Some(want.clone()), "line: {line}");
            let block = doc.block();
            prop_assert!(block.ends_with('\n'));
            prop_assert_eq!(parse(&block).ok(), Some(want), "block: {block}");
        }
    }
}
