//! A deterministic JSON value, writer, and validating parser.
//!
//! The harness needs byte-identical output for identical experiment
//! inputs — regardless of thread count or platform — so it hand-rolls
//! its JSON instead of going through serde (unavailable offline; see
//! `crates/compat/README.md`). Objects preserve insertion order, floats
//! print via Rust's shortest-roundtrip formatting, and non-finite floats
//! serialize as `null` (JSON has no representation for them).

use std::fmt::Write as _;

/// Version stamp of the result-file schema.
///
/// **v2** (current): every document carries a `kind` discriminator right
/// after `schema_version` — `"experiment"` (one `sia run` result),
/// `"sweep"` (a `sia sweep` grid), `"attack"` (a `sia attack` grid), or
/// `"bench"` (the `sia bench` snapshot) — so downstream consumers
/// (`sia report`, independent validators) dispatch without guessing from
/// filenames. Experiment, sweep, and attack documents share the
/// `config` / `result` / `summary` envelope.
pub const SCHEMA_VERSION: u64 = 2;

/// The kind of a result document (the schema-v2 `kind` discriminator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocKind {
    /// One experiment run (`sia run`).
    Experiment,
    /// A scenario-sweep grid (`sia sweep`).
    Sweep,
    /// An attack-grid evaluation (`sia attack`).
    Attack,
    /// A static gadget scan with dynamic confirmation (`sia scan`).
    Scan,
    /// A microbenchmark snapshot (`sia bench`).
    Bench,
}

impl DocKind {
    /// The `kind` string this variant serializes as.
    pub fn slug(self) -> &'static str {
        match self {
            DocKind::Experiment => "experiment",
            DocKind::Sweep => "sweep",
            DocKind::Attack => "attack",
            DocKind::Scan => "scan",
            DocKind::Bench => "bench",
        }
    }
}

/// Classifies a result document by its `kind` field. Returns `None` for
/// documents this harness never wrote.
pub fn doc_kind(doc: &Json) -> Option<DocKind> {
    match doc.get("kind") {
        Some(Json::Str(k)) => match k.as_str() {
            "experiment" => Some(DocKind::Experiment),
            "sweep" => Some(DocKind::Sweep),
            "attack" => Some(DocKind::Attack),
            "scan" => Some(DocKind::Scan),
            "bench" => Some(DocKind::Bench),
            _ => None,
        },
        _ => None,
    }
}

/// A JSON value with order-preserving objects.
///
/// Equality treats `I64`/`U64` as one numeric domain (the parser cannot
/// know which width the writer used for a small positive integer).
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integers (also covers all the small counts we emit).
    I64(i64),
    /// Unsigned integers that may exceed `i64` (cycle counts, seeds).
    U64(u64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::I64(a), Json::I64(b)) => a == b,
            (Json::U64(a), Json::U64(b)) => a == b,
            (Json::I64(a), Json::U64(b)) | (Json::U64(b), Json::I64(a)) => {
                u64::try_from(*a) == Ok(*b)
            }
            (Json::F64(a), Json::F64(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Builds an object from `(key, value)` pairs, preserving order.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.map(|(k, v)| (k.to_owned(), v)).into())
}

/// Builds an array from anything iterable over `Json`-convertible items.
pub fn arr<T: Into<Json>, I: IntoIterator<Item = T>>(items: I) -> Json {
    Json::Arr(items.into_iter().map(Into::into).collect())
}

impl Json {
    /// Appends `(key, value)` to an object. Panics on non-objects — the
    /// harness only ever extends envelopes it just built.
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_owned(), value)),
            other => panic!("push on non-object JSON value: {other:?}"),
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Compact one-line serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline (the on-disk format of `results/*.json`).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let start = out.len();
                    let _ = write!(out, "{v}");
                    // Rust's Display prints integral floats without a
                    // fractional part ("2", "1e20" as a long integer
                    // literal); mark them as floats so the document
                    // round-trips through any JSON parser, ours included.
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                write_escaped(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
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
    mut item: impl FnMut(&mut String, usize),
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
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The harness writes
/// documents a handful of levels deep; the bound keeps an untrusted body
/// (a POST to `sia serve`) from recursing the parser off its stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document — the validator behind `sia`'s write-then-check
/// guarantee and the daemon's body parser. Accepts exactly what the writer
/// emits plus standard JSON; rejects trailing garbage and nesting deeper
/// than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Parses one value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth == MAX_DEPTH && matches!(self.peek(), Some(b'[' | b'{')) {
            let pos = self.pos;
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
            ));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_owned())?,
            );
            match self.peek() {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs don't appear in harness
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if is_float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Json::I64(v))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_is_stable_and_ordered() {
        let v = obj([
            ("b", Json::from(1u64)),
            ("a", arr([1u64, 2, 3])),
            ("s", Json::from("x\"y\n")),
            ("f", Json::from(1.5)),
            ("none", Json::from(Option::<u64>::None)),
        ]);
        assert_eq!(
            v.to_compact(),
            r#"{"b":1,"a":[1,2,3],"s":"x\"y\n","f":1.5,"none":null}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).to_compact(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn integral_floats_stay_floats() {
        assert_eq!(Json::F64(2.0).to_compact(), "2.0");
        assert_eq!(Json::F64(0.0).to_compact(), "0.0");
        assert_eq!(Json::F64(1e20).to_compact(), "100000000000000000000.0");
        for v in [2.0, 0.0, -3.0, 1e20, 1.5] {
            assert_eq!(
                parse(&Json::F64(v).to_compact()).expect("parses"),
                Json::F64(v),
                "{v} must round-trip as a float"
            );
        }
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = obj([
            ("id", Json::from("fig07")),
            ("neg", Json::from(-3i64)),
            ("big", Json::from(u64::MAX)),
            ("nested", obj([("k", arr(["a", "b"]))])),
            ("pi", Json::from(3.25)),
            ("flag", Json::from(true)),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse(&text).expect("parses"), v);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    /// 200k `[` then 200k `]` (400 KB, under serve's body cap) used to
    /// recurse the parser off a 2 MiB stack; past [`MAX_DEPTH`] it is a
    /// plain error. Nesting up to the limit still parses.
    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&deep).map(|_| ()))
            .expect("spawn")
            .join()
            .expect("parser thread did not overflow");
        assert!(parsed.unwrap_err().contains("nesting deeper"));
        let objects = format!("{}1{}", "{\"k\":".repeat(200_000), "}".repeat(200_000));
        assert!(parse(&objects).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let past = format!("[{at_limit}]");
        assert!(parse(&past).is_err());
    }

    #[test]
    fn get_and_push_on_objects() {
        let mut v = obj([("a", Json::from(1u64))]);
        v.push("b", Json::from("x"));
        assert_eq!(v.get("b"), Some(&Json::from("x")));
        assert_eq!(v.get("missing"), None);
    }
}
